"""Render recorded trace JSONL as annotated trees (``repro trace``).

A trace file (one span dict per line, possibly many traces interleaved
by concurrent service jobs) is grouped by trace id and printed as:

* an **annotated tree** — every expansion with its fuel index, node
  depth, cumulative log-prob, and goal preview; every candidate tactic
  with its verdict and elapsed time; the search root with its outcome;
* a **per-stage self-time summary** — for each span kind, calls, total
  time, and *self* time (total minus time attributed to child spans),
  which is the number the paper's failure-mode analysis needs: a
  FUELOUT whose time went 90 % into ``generation`` reads very
  differently from one dominated by ``tactic`` checking.  Over several
  traces, one more table totals them all.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

__all__ = [
    "group_traces",
    "render_trace",
    "stage_summary",
    "render_summary",
]


def group_traces(spans: List[dict]) -> Dict[str, List[dict]]:
    """Spans grouped by trace id, preserving file order of first sight."""
    traces: Dict[str, List[dict]] = {}
    for span in spans:
        traces.setdefault(str(span.get("trace", "?")), []).append(span)
    return traces


def _fmt_elapsed(seconds: Optional[float]) -> str:
    seconds = seconds or 0.0
    if seconds < 1.0:
        return f"{seconds * 1000:.1f}ms"
    return f"{seconds:.2f}s"


def _fmt_attrs(attrs: dict, skip: Tuple[str, ...] = ()) -> str:
    parts = []
    for key, value in attrs.items():
        if key in skip:
            continue
        if isinstance(value, float):
            value = f"{value:.3f}"
        parts.append(f"{key}={value}")
    return " ".join(parts)


def _label(span: dict) -> str:
    """One human line for a span (verdict/fuel/score annotations)."""
    name = span.get("name", "?")
    attrs = dict(span.get("attrs") or {})
    elapsed = _fmt_elapsed(span.get("elapsed"))
    if name in ("task", "job"):
        head = f"{name} {attrs.pop('theorem', '?')}"
        return f"{head} {_fmt_attrs(attrs)} [{elapsed}]".rstrip()
    if name == "search":
        status = attrs.pop("status", "?")
        return (
            f"search {attrs.pop('theorem', '?')} → {status} "
            f"{_fmt_attrs(attrs)} [{elapsed}]"
        )
    if name == "expand":
        fuel = attrs.pop("query", "?")
        fuel_cap = attrs.pop("fuel", None)
        fuel_txt = f"q{fuel}/{fuel_cap}" if fuel_cap else f"q{fuel}"
        depth = attrs.pop("depth", "?")
        score = attrs.pop("score", None)
        score_txt = (
            f" logp={float(score):.3f}" if score is not None else ""
        )
        goal = attrs.pop("goal", None)
        goal_txt = f'  goal="{goal}"' if goal else ""
        rest = _fmt_attrs(attrs)
        rest_txt = f" {rest}" if rest else ""
        return (
            f"expand {fuel_txt} depth={depth}{score_txt}{rest_txt} "
            f"[{elapsed}]{goal_txt}"
        )
    if name == "tactic":
        tactic = attrs.pop("tactic", "?")
        verdict = attrs.pop("verdict", "?")
        message = attrs.pop("message", "")
        msg_txt = f"  ({message})" if message and verdict != "valid" else ""
        return f'tactic "{tactic}" → {verdict} [{elapsed}]{msg_txt}'
    rest = _fmt_attrs(attrs)
    rest_txt = f" {rest}" if rest else ""
    return f"{name}{rest_txt} [{elapsed}]"


def render_trace(spans: List[dict], max_width: int = 0) -> str:
    """The annotated tree for one trace's spans."""
    by_id = {span.get("span"): span for span in spans}
    children: Dict[Optional[int], List[dict]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in by_id:
            parent = None  # orphan (torn file): promote to root
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.get("start", 0.0), s.get("span", 0)))

    lines: List[str] = []

    def walk(span: dict, prefix: str, tail: bool, depth: int) -> None:
        if depth == 0:
            lines.append(_label(span))
            child_prefix = ""
        else:
            branch = "└─ " if tail else "├─ "
            lines.append(prefix + branch + _label(span))
            child_prefix = prefix + ("   " if tail else "│  ")
        kids = children.get(span.get("span"), [])
        for index, kid in enumerate(kids):
            walk(kid, child_prefix, index == len(kids) - 1, depth + 1)

    roots = children.get(None, [])
    for root in roots:
        walk(root, "", True, 0)
    text = "\n".join(lines)
    if max_width:
        text = "\n".join(
            line[: max_width - 1] + "…" if len(line) > max_width else line
            for line in text.splitlines()
        )
    return text


def stage_summary(spans: List[dict]) -> List[dict]:
    """Per-span-kind ``{name, calls, total, self}`` rows (self-time sorted).

    *self* time is a span's elapsed minus its direct children's —
    summed per kind, it attributes every second of the trace to exactly
    one stage (modulo clock granularity).  ``spans`` may hold several
    traces: span ids restart in every trace, so children are matched
    to parents by ``(trace, parent)``.
    """
    child_time: Dict[Tuple[object, Optional[int]], float] = {}
    for span in spans:
        parent = (span.get("trace"), span.get("parent"))
        child_time[parent] = child_time.get(parent, 0.0) + float(
            span.get("elapsed") or 0.0
        )
    rows: Dict[str, dict] = {}
    for span in spans:
        name = str(span.get("name", "?"))
        row = rows.setdefault(
            name, {"name": name, "calls": 0, "total": 0.0, "self": 0.0}
        )
        elapsed = float(span.get("elapsed") or 0.0)
        row["calls"] += 1
        row["total"] += elapsed
        own = (span.get("trace"), span.get("span"))
        row["self"] += max(0.0, elapsed - child_time.get(own, 0.0))
    return sorted(rows.values(), key=lambda row: row["self"], reverse=True)


def render_summary(spans: List[dict]) -> str:
    """The self-time table for the spans of one or more traces."""
    rows = stage_summary(spans)
    total_self = sum(row["self"] for row in rows) or 1.0
    lines = [
        f"{'stage':<14} {'calls':>6} {'total':>10} {'self':>10} {'self%':>7}"
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<14} {int(row['calls']):>6} "
            f"{_fmt_elapsed(row['total']):>10} "
            f"{_fmt_elapsed(row['self']):>10} "
            f"{row['self'] / total_self:>7.1%}"
        )
    return "\n".join(lines)
