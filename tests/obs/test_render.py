"""The ``repro trace`` renderer: tree shape, labels, self-time table."""

from __future__ import annotations

from repro.obs.render import (
    group_traces,
    render_summary,
    render_trace,
    stage_summary,
)
from repro.obs.trace import Tracer


def make_spans():
    tracer = Tracer(trace_id="demo")
    with tracer.span("task", theorem="rev_involutive", model="gpt-4o"):
        with tracer.span("search", theorem="rev_involutive") as search:
            with tracer.span("select"):
                pass
            with tracer.span(
                "expand", query=1, fuel=16, depth=0, score=0.0, goal="G"
            ):
                with tracer.span("prompt_build"):
                    pass
                with tracer.span("generation") as gen:
                    gen.set(candidates=2)
                with tracer.span("tactic") as tac:
                    tac.set(tactic="intros", verdict="valid", message="")
                with tracer.span("tactic") as tac:
                    tac.set(
                        tactic="lia",
                        verdict="rejected",
                        message="not linear",
                    )
            search.set(status="stuck", queries=1)
    return tracer.export()


class TestGroupTraces:
    def test_groups_interleaved_traces_by_id(self):
        a = [{"trace": "a", "span": 1}, {"trace": "a", "span": 2}]
        b = [{"trace": "b", "span": 1}]
        interleaved = [a[0], b[0], a[1]]
        groups = group_traces(interleaved)
        assert groups == {"a": a, "b": b}


class TestRenderTrace:
    def test_tree_shape_and_annotations(self):
        text = render_trace(make_spans())
        lines = text.splitlines()
        assert lines[0].startswith("task rev_involutive")
        assert "search rev_involutive → stuck" in text
        assert "expand q1/16 depth=0" in text
        assert 'tactic "intros" → valid' in text
        assert 'tactic "lia" → rejected' in text
        assert "(not linear)" in text  # failure message shown
        # Valid tactics don't echo an (empty) message.
        valid_line = next(l for l in lines if '"intros"' in l)
        assert "()" not in valid_line
        # Box-drawing structure: children indent under their parent.
        assert any(l.startswith("└─ ") or l.startswith("├─ ") for l in lines)
        assert any("│  " in l or "   ├─" in l for l in lines)

    def test_orphan_spans_promote_to_root(self):
        spans = [
            {
                "trace": "t",
                "span": 5,
                "parent": 99,  # parent line lost (torn file)
                "name": "expand",
                "start": 0.0,
                "elapsed": 0.1,
                "attrs": {},
            }
        ]
        text = render_trace(spans)
        assert text.startswith("expand")

    def test_max_width_truncates_lines(self):
        text = render_trace(make_spans(), max_width=30)
        assert all(len(line) <= 30 for line in text.splitlines())


class TestStageSummary:
    def test_self_time_subtracts_direct_children(self):
        spans = [
            {"span": 1, "parent": None, "name": "search", "elapsed": 10.0},
            {"span": 2, "parent": 1, "name": "expand", "elapsed": 8.0},
            {"span": 3, "parent": 2, "name": "tactic", "elapsed": 3.0},
        ]
        rows = {row["name"]: row for row in stage_summary(spans)}
        assert rows["search"]["self"] == 2.0
        assert rows["expand"]["self"] == 5.0
        assert rows["tactic"]["self"] == 3.0
        assert rows["tactic"]["calls"] == 1

    def test_rows_sorted_by_self_time_desc(self):
        spans = [
            {"span": 1, "parent": None, "name": "a", "elapsed": 1.0},
            {"span": 2, "parent": None, "name": "b", "elapsed": 5.0},
        ]
        assert [r["name"] for r in stage_summary(spans)] == ["b", "a"]

    def test_self_time_never_negative(self):
        # Clock granularity can make children sum past the parent.
        spans = [
            {"span": 1, "parent": None, "name": "p", "elapsed": 1.0},
            {"span": 2, "parent": 1, "name": "c", "elapsed": 1.5},
        ]
        rows = {row["name"]: row for row in stage_summary(spans)}
        assert rows["p"]["self"] == 0.0

    def test_render_summary_table(self):
        text = render_summary(make_spans())
        lines = text.splitlines()
        assert lines[0].split() == ["stage", "calls", "total", "self", "self%"]
        assert any("tactic" in line for line in lines[1:])
        assert all("%" in line for line in lines[1:])


class TestCrossTraceSummary:
    # Two traces whose span ids collide: 1 → 2 in both, with different
    # child times, so a bare-parent key would move self time across.
    SPANS = [
        {"trace": "a", "span": 1, "parent": None, "name": "search",
         "elapsed": 10.0},
        {"trace": "a", "span": 2, "parent": 1, "name": "tactic",
         "elapsed": 9.0},
        {"trace": "b", "span": 1, "parent": None, "name": "search",
         "elapsed": 4.0},
        {"trace": "b", "span": 2, "parent": 1, "name": "tactic",
         "elapsed": 1.0},
    ]

    def test_children_match_parents_within_their_own_trace(self):
        rows = {row["name"]: row for row in stage_summary(self.SPANS)}
        # a: 10 - 9 = 1, b: 4 - 1 = 3.  A bare-parent key would give
        # max(0, 10 - 10) + max(0, 4 - 10) = 0.
        assert rows["search"]["self"] == 4.0
        assert rows["tactic"]["self"] == 10.0

    def test_combined_calls_are_the_sum_over_traces(self):
        per_trace = [
            {row["name"]: row for row in stage_summary(spans)}
            for spans in group_traces(self.SPANS).values()
        ]
        combined = {row["name"]: row for row in stage_summary(self.SPANS)}
        for name in ("search", "tactic"):
            assert combined[name]["calls"] == sum(
                rows[name]["calls"] for rows in per_trace
            )
            assert combined[name]["self"] == sum(
                rows[name]["self"] for rows in per_trace
            )

    def test_cli_prints_one_combined_table_over_several_traces(
        self, tmp_path, capsys
    ):
        from repro import cli
        from repro.obs.trace import JsonlSink

        path = tmp_path / "two.jsonl"
        JsonlSink(path).write(
            dict(span, start=0.0, attrs={}) for span in self.SPANS
        )
        assert cli.main(["trace", str(path), "--summary"]) == 0
        out = capsys.readouterr().out
        assert "all 2 traces" in out
        combined = out.split("all 2 traces", 1)[1]
        tactic = next(l for l in combined.splitlines() if "tactic" in l)
        assert tactic.split()[:2] == ["tactic", "2"]
        # One selected trace: its own table only.
        argv = ["trace", str(path), "--summary", "--trace-id", "a"]
        assert cli.main(argv) == 0
        assert "traces" not in capsys.readouterr().out
