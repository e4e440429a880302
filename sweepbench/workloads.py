"""The benchmark's workloads and the cell lists they run.

A cell is one ``(theorem, model, hinted, attempt)`` task.  Each
workload's cell *set* is fixed: a draw of theorems stratified by
Figure-1 proof-length bin, in proportion to the pool, taken once with
:data:`SLICE_SEED`.  The run's ``--seed`` shuffles the *order* in which
the base cells are swept.  Per-theorem cost is heavy-tailed (in the
``sweep_cpu`` pool the ten most expensive cells are 60% of the wall
time), so a slice re-drawn per seed moved ``sweep_s`` by 18-37%
(quartile spread over median) between seeds; README.md gives the
numbers.  Order is what a cache shared across tasks sees, and it is
the input property the seed varies.

The program receives only the task list; every program setting stays
at its default.  Budgets that the workloads size down (``fuel``,
``repair_rounds``) are task fields, not settings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.corpus.tokenizer import bin_of_length
from repro.eval import sweep_tasks
from repro.eval.tasks import TheoremTask
from repro.repair.sampling import attempt_tasks

__all__ = [
    "Workload",
    "WORKLOADS",
    "SLICE_SEED",
    "stratified_slice",
    "cells",
    "cell_key",
]

#: Draws each workload's fixed theorem slice.
SLICE_SEED = 2025


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    settings: Tuple[bool, ...]  # hinted flags swept per theorem
    pool: str  # Splits attribute the slice is drawn from
    theorems: int
    # Serialized per-dispatch cost of the simulated endpoint, seconds.
    query_overhead: float = 0.0
    fuel: Optional[int] = None  # None: the paper's 128 queries
    repair_rounds: int = 0
    attempts: int = 1  # pass@k samples per base cell


WORKLOADS: Dict[str, Workload] = {
    # The paper's headline sweep, CPU-bound: 8k-token window (about a
    # quarter of prompts truncated), no endpoint wait.
    "sweep_cpu": Workload(
        "sweep_cpu", "gpt-4o", (True, False), "test_large", 50
    ),
    # API-bound: a 1M-token window (nothing truncated) and a serialized
    # per-dispatch endpoint cost sized so waiting is most of the wall.
    "sweep_latency": Workload(
        "sweep_latency",
        "gemini-1.5-pro",
        (True, False),
        "test_large",
        50,
        query_overhead=0.016,
    ),
    # Repair rounds and pass@k: the same theorem re-searched with
    # salted prompts, feedback blocks and checker prefix replay.
    "repair_passk": Workload(
        "repair_passk",
        "gpt-4o-mini",
        (False,),
        "test",
        25,
        fuel=8,
        repair_rounds=2,
        attempts=4,
    ),
}


def stratified_slice(theorems, count: int, seed: int) -> list:
    """``count`` theorems drawn per proof-length bin, in pool order.

    Bins get shares proportional to their size (largest remainder,
    ties to the smaller bin index); within a bin the draw is a seeded
    sample over names, so it does not depend on pool order.
    """
    if not 0 < count <= len(theorems):
        raise ValueError(f"cannot draw {count} of {len(theorems)} theorems")
    bins: Dict[int, list] = {}
    for theorem in theorems:
        bins.setdefault(bin_of_length(theorem.proof_tokens), []).append(
            theorem
        )
    exact = {b: count * len(ts) / len(theorems) for b, ts in bins.items()}
    shares = {b: int(x) for b, x in exact.items()}
    by_remainder = sorted(exact, key=lambda b: (-(exact[b] - shares[b]), b))
    for b in by_remainder[: count - sum(shares.values())]:
        shares[b] += 1
    rng = random.Random(seed)
    chosen = set()
    for b in sorted(bins):
        names = sorted(t.name for t in bins[b])
        chosen.update(rng.sample(names, shares[b]))
    return [t for t in theorems if t.name in chosen]


def cells(workload: Workload, runner, seed: int) -> List[TheoremTask]:
    """The workload's tasks; ``seed`` orders the base cells."""
    pool = getattr(runner.splits, workload.pool)
    theorems = stratified_slice(pool, workload.theorems, SLICE_SEED)
    tasks: List[TheoremTask] = []
    for hinted in workload.settings:
        tasks.extend(
            sweep_tasks(theorems, workload.model, hinted, runner.config)
        )
    if workload.fuel is not None or workload.repair_rounds:
        tasks = [
            replace(
                task,
                fuel=workload.fuel if workload.fuel is not None else task.fuel,
                repair_rounds=workload.repair_rounds,
            )
            for task in tasks
        ]
    random.Random(seed).shuffle(tasks)
    if workload.attempts > 1:
        # Attempts of one base cell stay back to back, as a pass@k
        # sweep runs them, so which attempt meets a cold context does
        # not depend on the seed.
        tasks = attempt_tasks(tasks, workload.attempts)
    return tasks


def cell_key(task: TheoremTask) -> str:
    return f"{task.theorem}|{task.model}|{int(task.hinted)}|{task.attempt}"
