"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest sweepbench/test_sweepbench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from setup_time import timed_setup

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
TINY = 4  # cells per tiny run


@pytest.fixture(scope="module")
def runner():
    return timed_setup()[0]


@pytest.fixture(scope="module")
def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def tiny_traced(runner):
    from sweep import measure
    from workloads import WORKLOADS

    return {
        name: measure(runner, workload, 1, 0, True, limit=TINY)
        for name, workload in WORKLOADS.items()
    }


def test_metric_names_are_well_formed_and_unique(spec):
    names = [
        m["name"] for key in ("end_to_end", "per_layer") for m in spec[key]
    ]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME_RE.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))


def test_emitted_metrics_match_the_declared_ones(spec, tiny_traced):
    from sweep import end_to_end, per_layer

    m = tiny_traced["sweep_cpu"]
    assert set(end_to_end(m, [1.0])) == {x["name"] for x in spec["end_to_end"]}
    assert set(per_layer(m, 1.0)) == {x["name"] for x in spec["per_layer"]}


def test_declared_workloads_exist(spec):
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize(
    "name", ["sweep_cpu", "sweep_latency", "repair_passk"]
)
def test_tiny_run_completes_and_passes_the_gate(tiny_traced, name):
    m = tiny_traced[name]
    assert m.problems() == []
    assert m.attempted == 2 * TINY
    assert all(r is not None for p in m.all_passes for r in p.records)


@pytest.mark.parametrize(
    "name", ["sweep_cpu", "sweep_latency", "repair_passk"]
)
def test_self_times_and_remainder_add_up_to_the_traced_sweep(
    tiny_traced, name
):
    from sweep import per_layer

    m = tiny_traced[name]
    layer = per_layer(m, 0.0)
    self_metrics = [
        "eval.task_self_s", "eval.qed_replay_s", "repair.self_s",
        "search.self_s", "prompting.context_s", "prompting.build_s",
        "prompting.truncate_s", "tokenizer.count_s", "endpoint.wait_s",
        "llm.generate_s", "llm.parse_prompt_s", "llm.usage_s",
        "serapi.check_s", "tactics.parse_s", "tactics.run_s",
    ]
    traced = layer["bench.traced_sweep_s"]
    attributed = sum(layer[k] for k in self_metrics)
    remainder = layer["bench.unattributed_frac"] * traced
    assert attributed + remainder == pytest.approx(traced, rel=1e-9)
    assert 0 <= layer["bench.unattributed_frac"] < 0.05
    heads = sum(v for k, v in layer.items() if k.startswith("tactics.run_s."))
    assert heads == pytest.approx(layer["tactics.run_s"], rel=1e-9)


def test_wrappers_restore_originals_and_keep_records(runner):
    from spans import Recorder, layer_targets
    from sweep import measure
    from workloads import WORKLOADS

    targets = layer_targets(Recorder())
    before = [vars(owner)[attr] for owner, attr, *_ in targets]
    m = measure(runner, WORKLOADS["repair_passk"], 3, 0, True, limit=TINY)
    after = [vars(owner)[attr] for owner, attr, *_ in targets]
    assert all(a is b for a, b in zip(before, after))
    assert m.traced.outcome_bytes() == m.passes[0].outcome_bytes()

    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with recorder.installed(layer_targets(recorder)):
            raise RuntimeError("boom")
    after = [vars(owner)[attr] for owner, attr, *_ in targets]
    assert all(a is b for a, b in zip(before, after))


def test_span_nesting_gives_self_time():
    from spans import Recorder

    recorder = Recorder()
    inner = recorder.wrap(lambda: sum(range(10_000)), "inner")
    outer = recorder.wrap(lambda: [inner() for _ in range(3)], "outer")
    outer()
    spans = {s.name: s for s in recorder.spans}
    assert len(recorder.spans) == 4
    assert spans["inner"].parent is spans["outer"]
    children = sum(s.duration for s in recorder.spans if s.name == "inner")
    assert spans["outer"].self_time == pytest.approx(
        spans["outer"].duration - children
    )


def test_percentile_rule_leaves_ten_samples_above_p90(runner):
    from sweep import percentile
    from workloads import WORKLOADS, cells

    for workload in WORKLOADS.values():
        n = len(cells(workload, runner, 1))
        assert n >= 100
        values = list(range(n))
        assert sum(v > percentile(values, 0.9) for v in values) >= 10
    assert percentile([3, 1, 2], 0.5) == 2


def test_seed_orders_a_fixed_cell_set_matching_the_reference(runner):
    import gate
    from workloads import WORKLOADS, cell_key, cells

    for workload in WORKLOADS.values():
        one = [cell_key(t) for t in cells(workload, runner, 1)]
        again = [cell_key(t) for t in cells(workload, runner, 1)]
        other = [cell_key(t) for t in cells(workload, runner, 2)]
        assert one == again
        assert one != other and sorted(one) == sorted(other)
        assert set(gate.load_reference(workload.name)) == set(one)


def test_gate_rejects_a_wrong_verdict(runner):
    import gate
    from sweep import measure
    from workloads import WORKLOADS, cell_key, cells

    workload = WORKLOADS["sweep_cpu"]
    first = cells(workload, runner, 1)[0]
    reference = dict(gate.load_reference(workload.name))
    reference[cell_key(first)] = ["crash", False]
    m = measure(runner, workload, 1, 0, False, limit=1, reference=reference)
    assert len(m.problems()) == 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE,
        tmp_path / HERE.name,
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "sweep_cpu",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
