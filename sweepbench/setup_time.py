"""Timed set-up of one sweep: imports, checked project load, Runner.

Imported by ``run.py`` before anything else touches :mod:`repro`, so
the first sample includes the package's import cost.  Run as a script
it takes one sample in a fresh process and prints it as JSON; the
benchmark runs it that way to take further samples without disturbing
the global kernel state of its own process (a second checked load in
one process advances the fresh type-variable counter and with it every
outcome).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def timed_setup():
    """Return ``(runner, setup_seconds, load_seconds)``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    from repro.corpus.loader import load_project
    from repro.eval import ExperimentConfig, Runner

    load_started = time.perf_counter()
    project = load_project(check_proofs=True)
    load_s = time.perf_counter() - load_started
    runner = Runner(project, ExperimentConfig())
    return runner, time.perf_counter() - started, load_s


if __name__ == "__main__":
    _, setup_s, load_s = timed_setup()
    print(json.dumps({"setup_s": setup_s, "load_s": load_s}))
