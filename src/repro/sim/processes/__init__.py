"""Event processes: the simulator's scenario subsystems (see :mod:`.base`)."""
