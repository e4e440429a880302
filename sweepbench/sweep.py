"""One workload's measurement: untraced passes, a traced pass, the gate.

A pass runs every cell of the workload once through the eval entry
point, ``Runner.execute_task``, dispatched by the executor the default
``ExperimentConfig`` selects, with the workload's simulated endpoint
passed as ``model_override``.  Passes repeat while another one is
expected to end within ``seconds`` (there is always at least one), and
end-to-end timings are medians over them.  A traced run adds one pass
with :mod:`spans` installed, which yields the per-layer numbers; its
outcome records must equal the untraced ones byte for byte.
"""

from __future__ import annotations

import json
import math
import resource
import statistics
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.eval.executor import make_executor
from repro.llm import get_model
from repro.testing.latency import LatencyGenerator

import gate
from spans import TACTIC_HEADS, Recorder, layer_targets
from workloads import Workload, cell_key, cells

__all__ = ["Pass", "Measurement", "measure", "percentile"]

KERNEL_CACHES = ("whnf", "simpl", "subst_vars", "subst_metas", "alpha_key")


@dataclass
class Pass:
    records: list  # OutcomeRecord, or None where the task raised
    verdict_s: List[float]
    wall: float
    cpu: float
    counters: Counter
    round_trips: int
    prompt_tokens: int
    problems: List[Optional[str]] = field(default_factory=list)

    def outcome_bytes(self) -> List[str]:
        """Each cell's outcome record, serialised for byte comparison."""
        return [
            json.dumps(r.to_json() if r is not None else None, sort_keys=True)
            for r in self.records
        ]


@dataclass
class Measurement:
    tasks: list
    passes: List[Pass]
    traced: Optional[Pass] = None
    recorder: Optional[Recorder] = None

    @property
    def all_passes(self) -> List[Pass]:
        return self.passes + ([self.traced] if self.traced else [])

    @property
    def attempted(self) -> int:
        return sum(len(p.records) for p in self.all_passes)

    def problems(self) -> List[str]:
        return [x for p in self.all_passes for x in p.problems if x]


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: at n=100, p90 has ten samples above."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def run_pass(runner, tasks, workload: Workload, recorder=None) -> Pass:
    model = get_model(workload.model)
    endpoint = LatencyGenerator(model, workload.query_overhead)
    index = {cell_key(task): i for i, task in enumerate(tasks)}
    records: list = [None] * len(tasks)
    verdict_s = [0.0] * len(tasks)
    counters: Counter = Counter()

    def execute(task):
        i = index[cell_key(task)]
        if recorder is not None:
            recorder.set_cell(i)
        started = time.perf_counter()
        try:
            return runner.execute_task(task, model_override=endpoint)
        except Exception:  # the sweep goes on; the cell counts as an error
            traceback.print_exc()
            return None
        finally:
            verdict_s[i] = time.perf_counter() - started

    tokens_before = model.usage.prompt_tokens
    executor = make_executor(runner.config, check_proofs=True)
    wall_started = time.perf_counter()
    cpu_started = time.process_time()
    for task, result in executor.map(tasks, execute):
        if result is not None:
            records[index[cell_key(task)]] = result.record
            counters.update((result.metrics or {}).get("counters", {}))
    wall = time.perf_counter() - wall_started
    cpu = time.process_time() - cpu_started
    return Pass(
        records=records,
        verdict_s=verdict_s,
        wall=wall,
        cpu=cpu,
        counters=counters,
        round_trips=endpoint.round_trips,
        prompt_tokens=model.usage.prompt_tokens - tokens_before,
    )


def measure(
    runner,
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    limit: Optional[int] = None,
    reference: Optional[Dict[str, list]] = None,
) -> Measurement:
    """Sweep for about ``seconds``, then (``trace``) once more traced.

    ``limit`` keeps only the first cells (the benchmark's own tests).
    """
    tasks = cells(workload, runner, seed)[:limit]
    if reference is None:
        reference = gate.load_reference(workload.name)
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(runner, tasks, workload))
        spent = time.perf_counter() - started
        if spent + spent / len(passes) > seconds:
            break
    result = Measurement(tasks=tasks, passes=passes)
    if trace:
        recorder = Recorder()
        with recorder.installed(layer_targets(recorder)):
            result.traced = run_pass(runner, tasks, workload, recorder)
        result.recorder = recorder
    first = passes[0].outcome_bytes()
    for p in result.all_passes:
        p.problems = gate.check(runner, tasks, p.records, reference)
        if p is passes[0]:
            continue
        for i, got in enumerate(p.outcome_bytes()):
            if p.problems[i] is None and got != first[i]:
                p.problems[i] = (
                    f"{cell_key(tasks[i])}: outcome record differs "
                    "from the first pass"
                )
    return result


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _proved(records) -> int:
    return sum(
        r is not None and r.status in gate.PROVED and r.revalidated
        for r in records
    )


def end_to_end(m: Measurement, setup_samples: List[float]) -> Dict[str, float]:
    first = m.passes[0]
    verdicts = [v for p in m.passes for v in p.verdict_s]
    return {
        "sweep_s": statistics.median(p.wall for p in m.passes),
        "cpu_s": statistics.median(p.cpu for p in m.passes),
        "verdict_p50_ms": 1000 * percentile(verdicts, 0.5),
        "verdict_p90_ms": 1000 * percentile(verdicts, 0.9),
        "proved_frac": _ratio(_proved(first.records), len(first.records)),
        "model_queries": sum(r.queries for r in first.records if r),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def per_layer(m: Measurement, load_s: float) -> Dict[str, float]:
    rec, traced, first = m.recorder, m.traced, m.passes[0]
    selfs, totals, calls = rec.self_times(), rec.totals(), rec.calls()
    c = rec.counts
    builds, checks = calls["prompting.build"], calls["serapi.check"]
    queries = sum(r.queries for r in traced.records if r)
    candidates = c["candidates"]
    out = {
        "prompting.build_s": selfs["prompting.build"],
        "prompting.build_calls": builds,
        "prompting.build_us_per_call": 1e6
        * _ratio(totals["prompting.build"], builds),
        "prompting.truncate_s": selfs["prompting.truncate"],
        "prompting.context_s": selfs["prompting.context"],
        "prompting.truncated_frac": _ratio(
            c["truncated"], calls["prompting.truncate"]
        ),
        "prompting.distinct_context_frac": _ratio(len(rec.contexts), builds),
        "tokenizer.count_calls": calls["tokenizer.count"],
        "tokenizer.count_s": selfs["tokenizer.count"],
        "llm.generate_s": selfs["llm.generate"],
        "llm.generate_calls": calls["llm.generate"],
        "llm.parse_prompt_s": selfs["llm.parse_prompt"],
        "llm.usage_s": selfs["llm.usage"],
        "llm.prompt_ktokens": traced.prompt_tokens / 1000,
        "llm.candidates_per_query": _ratio(
            c["candidates_returned"], calls["llm.generate"]
        ),
        "endpoint.wait_s": selfs["endpoint"],
        "endpoint.round_trips": traced.round_trips,
        "endpoint.queries_per_round_trip": _ratio(
            queries, traced.round_trips
        ),
        "search.s": totals["search"],
        "search.self_s": selfs["search"],
        "search.nodes_expanded": c["nodes_expanded"],
        "search.candidates": candidates,
        "search.valid_frac": _ratio(
            candidates
            - c["rejected"]
            - c["duplicates"]
            - c["search_timeouts"],
            candidates,
        ),
        "search.duplicate_frac": _ratio(c["duplicates"], candidates),
        "search.rejected_frac": _ratio(c["rejected"], candidates),
        "serapi.check_s": selfs["serapi.check"],
        "serapi.check_calls": checks,
        "serapi.check_us_per_call": 1e6
        * _ratio(totals["serapi.check"], checks),
        "serapi.valid_frac": _ratio(c["verdict.valid"], checks),
        "serapi.timeouts": c["verdict.timeout"],
        "tactics.parse_s": selfs["tactics.parse"],
        "tactics.run_s": selfs["tactics.run"],
        "eval.task_self_s": selfs["eval.task"],
        "eval.qed_replay_s": selfs["eval.qed_replay"],
        "eval.error_frac": _ratio(len(m.problems()), m.attempted),
        "corpus.load_s": load_s,
        "repair.self_s": selfs["repair"],
        "repair.rounds": first.counters["repair.rounds"],
        "repair.converted": sum(
            r is not None and r.status == "repaired" and r.revalidated
            for r in first.records
        ),
        "bench.traced_sweep_s": traced.wall,
        "bench.trace_overhead_frac": _ratio(
            traced.wall, statistics.median(p.wall for p in m.passes)
        )
        - 1,
        "bench.unattributed_frac": _ratio(
            traced.wall - sum(selfs.values()), traced.wall
        ),
    }
    by_head = rec.tagged_self_times("tactics.run")
    for head in TACTIC_HEADS:
        out[f"tactics.run_s.{head}"] = by_head.get(head, 0.0)
    for name in KERNEL_CACHES:
        hits = first.counters[f"kernel.cache.{name}.hits"]
        misses = first.counters[f"kernel.cache.{name}.misses"]
        out[f"kernel.cache.{name}.hit_frac"] = _ratio(hits, hits + misses)
    return out
