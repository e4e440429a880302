"""Correctness gate: every cell's verdict against a committed reference.

Each workload has ``reference/<workload>.json`` mapping a cell key to
its ``[status, revalidated]``.  The cell set does not depend on the
run's seed (only the order does), so one file serves every seed.  A
proved or repaired cell is also replayed from scratch with
``run_script`` after clearing the kernel caches, so a proof never
passes on the search engine's or the runner's say-so.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.kernel import cache as kernel_cache
from repro.tactics.script import run_script

from workloads import cell_key

__all__ = ["REFERENCE_DIR", "load_reference", "write_reference", "check"]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
PROVED = ("proved", "repaired")


def _path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> Dict[str, list]:
    with open(_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["cells"]


def write_reference(workload: str, tasks, records) -> None:
    cells = {
        cell_key(task): [record.status, record.revalidated]
        for task, record in zip(tasks, records)
    }
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(_path(workload), "w", encoding="utf-8") as handle:
        json.dump({"cells": dict(sorted(cells.items()))}, handle, indent=1)
        handle.write("\n")


def check(
    runner, tasks: Sequence, records: Sequence, reference: Dict[str, list]
) -> List[Optional[str]]:
    """Per cell: None if it matches its reference, else the reason.

    ``records[i]`` is None for a cell whose task raised.
    """
    problems: List[Optional[str]] = []
    for task, record in zip(tasks, records):
        key = cell_key(task)
        problems.append(_check_cell(runner, key, record, reference.get(key)))
    return problems


def _check_cell(runner, key, record, expected) -> Optional[str]:
    if record is None:
        return f"{key}: task raised"
    if record.status == "crash":
        return f"{key}: crash"
    got = [record.status, record.revalidated]
    if expected is None:
        return f"{key}: no reference verdict"
    if got != expected:
        return f"{key}: {got} != reference {expected}"
    if record.status in PROVED:
        theorem = runner.project.theorem(record.theorem)
        kernel_cache.clear_caches()
        try:
            run_script(
                runner.project.env_for(theorem),
                theorem.statement,
                record.generated_proof,
            )
        except ReproError as exc:
            return f"{key}: proof does not replay: {exc}"
    return None
