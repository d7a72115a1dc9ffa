"""Setuptools entry point.

The legacy ``setup.py`` path is kept (instead of a ``[build-system]`` table
in ``pyproject.toml``) so that ``pip install -e .`` works in offline
environments that lack the ``wheel`` package required by PEP 660 editable
installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Eva: Cost-Efficient Cloud-Based Cluster Scheduling' "
        "(EuroSys 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        # The Table 4 ILP reference solves with scipy's MILP (HiGHS).
        "ilp": ["scipy"],
        "dev": ["pytest", "pytest-benchmark", "hypothesis", "scipy"],
    },
)
