"""One ``python -m repro.experiments`` invocation, observed from outside.

Usage: ``sweep_child.py SIDE_FILE TRACE CLI_ARG...``.  Runs the
experiments CLI's ``main`` with ``CLI_ARG...`` in this fresh process.
With ``TRACE`` 0 only Eva's ``decide`` rounds are timed; with 1 the full
per-layer probe set is installed.  What was observed goes to
``SIDE_FILE`` as JSON once the command has finished.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    side, trace, cli_args = Path(argv[1]), argv[2] == "1", argv[3:]
    from repro.experiments.__main__ import main as cli

    from probes import DecideTimer, Probe
    from tracer import layer_table, write_chrome_trace

    observer = Probe() if trace else DecideTimer()
    if not trace:
        observer.new_pass()
    patches = observer.install()
    try:
        code = cli(["python -m repro.experiments", *cli_args])
    finally:
        patches.undo()
    if trace:
        chrome = side.with_suffix(".trace.json")
        write_chrome_trace(observer.tracer, str(chrome))
        data = {
            "layers": observer.metrics(),
            "rows": layer_table(observer.tracer),
            "spans": len(observer.tracer),
            "chrome": str(chrome),
        }
    else:
        data = {"decide_s": observer.passes[0]}
    side.write_text(json.dumps(data))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
