"""The span tree keeps its shape at pipeline depth > 1.

Reservations (``select``) run under ``search``; every prompt build,
generation wait and checked tactic runs inside one ``expand`` span,
whichever round it belongs to — so per-stage self times stay
meaningful when several rounds are in flight.
"""

from __future__ import annotations

from collections import defaultdict

from repro.eval import ExperimentConfig, Runner
from repro.eval.tasks import TheoremTask
from repro.obs import render_summary
from repro.obs.render import stage_summary

CONFIG = ExperimentConfig(fuel=16, pipeline_depth=4, trace=True)


def _trace(project):
    # A long search (it runs out of fuel), so rounds overlap for real.
    runner = Runner(project, CONFIG)
    task = TheoremTask.from_config("sep_star_rev3", "gpt-4o", True, CONFIG)
    result = runner.execute_task(task)
    assert result.trace, "traced task must ship spans"
    return result


def test_depth4_stage_spans_nest_under_expand(project):
    result = _trace(project)
    spans = result.trace
    by_id = {span["span"]: span for span in spans}
    names = defaultdict(list)
    for span in spans:
        names[span["name"]].append(span)
    (search,) = names["search"]
    assert result.record.status == "fuelout"
    assert len(names["prompt_build"]) == result.record.queries == 16
    for kind in ("prompt_build", "generation", "tactic"):
        assert names[kind]
        for span in names[kind]:
            assert by_id[span["parent"]]["name"] == "expand", kind
    for kind in ("select", "expand"):
        assert all(s["parent"] == search["span"] for s in names[kind])
    # Each expansion waits for exactly one round; prompt builds carry
    # their round number, in order.
    assert len(names["generation"]) == len(names["expand"])
    rounds = [s["attrs"]["round"] for s in names["prompt_build"]]
    assert rounds == list(range(len(rounds)))


def test_depth4_self_times_are_not_negative(project):
    spans = _trace(project).trace
    children = defaultdict(float)
    count = defaultdict(int)
    for span in spans:
        children[span["parent"]] += span["elapsed"]
        count[span["parent"]] += 1
    for span in spans:
        # Exported times are rounded to the microsecond.
        slack = 1e-6 * (count[span["span"]] + 1)
        assert span["elapsed"] - children[span["span"]] >= -slack, span
    rows = stage_summary(spans)
    assert {row["name"] for row in rows} >= {"expand", "prompt_build"}
    assert all(row["self"] >= 0 for row in rows)
    assert "prompt_build" in render_summary(spans)
