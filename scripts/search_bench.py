"""Pipelined-search microbenchmark: depth 1 vs overlapped expansion.

Runs the same hinted sweep twice through the real runner stack —
once at ``pipeline_depth=1`` (each expansion waits for its own query:
no overlap) and once pipelined (``--pipeline-depth``, default 4) —
against a :class:`repro.testing.latency.LatencyGenerator` endpoint
model: every model dispatch charges ``--query-overhead`` seconds
through a serialized gate (a real API's requests-per-minute limit),
and a batched dispatch charges it **once for the whole batch**.  That
is the cost structure the pipelined mode exploits: co-travelling
rounds coalesce in the intra-search micro-batcher, so k queries share
one round-trip instead of paying k.

Emits ``BENCH_search.json``: per-phase wall clock, query and
round-trip counts, per-theorem coverage — plus the differential the
determinism contract demands: pipelined coverage (which cells prove,
revalidated) must equal depth-1 coverage exactly.  The depth-1 phase
is stored under the ``serial`` key.  ``--check`` exits non-zero
unless pipelined wall clock beats depth 1 by ``--min-speedup`` at
identical coverage.

Usage::

    PYTHONPATH=src python scripts/search_bench.py --out BENCH_search.json --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.corpus.loader import load_project
from repro.eval import ExperimentConfig, Runner
from repro.llm import get_model
from repro.testing.latency import LatencyGenerator


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="gpt-4o")
    parser.add_argument(
        "--n", type=int, default=8, help="theorems in the sweep"
    )
    parser.add_argument("--fuel", type=int, default=24)
    parser.add_argument(
        "--pipeline-depth",
        type=int,
        default=4,
        help="generation calls in flight in the pipelined phase",
    )
    parser.add_argument(
        "--query-overhead",
        type=float,
        default=0.08,
        metavar="SECONDS",
        help="simulated per-dispatch endpoint cost (serialized)",
    )
    parser.add_argument("--out", default="BENCH_search.json")
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless pipelined >= --min-speedup x depth-1 "
        "wall clock at identical coverage",
    )
    parser.add_argument("--min-speedup", type=float, default=1.3)
    return parser.parse_args()


def pick_theorems(project, count: int):
    """The hardest slice: longest human proofs first.

    Pipelining pays off in searches that actually burn fuel; a sweep
    of instantly-proving lemmas is all startup ramp (a single frontier
    node gives the pipeline nothing to overlap).  The long-proof
    theorems mostly run to FUELOUT, exercising the steady state where
    iteration keeps ``pipeline_depth`` generations in flight.
    """
    ranked = sorted(
        project.theorems,
        key=lambda t: (-t.proof_tokens, t.name),
    )
    return ranked[:count]


def run_phase(project, theorems, args, depth: int) -> dict:
    """One sweep through the production stack at one pipeline depth."""
    runner = Runner(
        project,
        ExperimentConfig(fuel=args.fuel, pipeline_depth=depth),
    )
    endpoint = LatencyGenerator(
        get_model(args.model), args.query_overhead
    )
    outcomes = []
    started = time.monotonic()
    for theorem in theorems:
        outcomes.append(
            runner.run_theorem(
                theorem, args.model, True, model_override=endpoint
            )
        )
    wall = time.monotonic() - started
    queries = sum(o.queries for o in outcomes)
    return {
        "pipeline_depth": depth,
        "wall_seconds": wall,
        "queries": queries,
        "round_trips": endpoint.round_trips,
        "queries_per_round_trip": (
            queries / endpoint.round_trips if endpoint.round_trips else 0.0
        ),
        "proved": sum(o.proved for o in outcomes),
        "coverage": {
            o.theorem.name: [o.status.value, o.revalidated]
            for o in outcomes
        },
    }


def main() -> int:
    args = parse_args()
    project = load_project(check_proofs=False)
    theorems = pick_theorems(project, args.n)

    print(
        f"search bench: {len(theorems)} hinted theorems, "
        f"model={args.model}, fuel={args.fuel}, "
        f"overhead={args.query_overhead}s",
        file=sys.stderr,
    )
    print("[1/2] no overlap (pipeline_depth=1) ...", file=sys.stderr)
    serial = run_phase(project, theorems, args, depth=1)
    print(
        f"[2/2] pipelined (pipeline_depth={args.pipeline_depth}) ...",
        file=sys.stderr,
    )
    piped = run_phase(project, theorems, args, depth=args.pipeline_depth)

    coverage_identical = serial["coverage"] == piped["coverage"]
    speedup = (
        serial["wall_seconds"] / piped["wall_seconds"]
        if piped["wall_seconds"] > 0
        else 0.0
    )
    result = {
        "config": {
            "model": args.model,
            "theorems": [t.name for t in theorems],
            "fuel": args.fuel,
            "pipeline_depth": args.pipeline_depth,
            "query_overhead": args.query_overhead,
        },
        "serial": serial,
        "pipelined": piped,
        "speedup": speedup,
        "coverage_identical": coverage_identical,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"depth 1:   {serial['wall_seconds']:.2f}s "
        f"({serial['queries']} queries, "
        f"{serial['round_trips']} round-trips)"
    )
    print(
        f"pipelined: {piped['wall_seconds']:.2f}s "
        f"({piped['queries']} queries, "
        f"{piped['round_trips']} round-trips, "
        f"{piped['queries_per_round_trip']:.2f} queries/trip)"
    )
    print(
        f"speedup: {speedup:.2f}x; coverage identical: "
        f"{coverage_identical}"
    )

    failures = []
    if not coverage_identical:
        failures.append("pipelined coverage differs from depth 1")
    if args.check and speedup < args.min_speedup:
        failures.append(
            f"speedup {speedup:.2f}x below the {args.min_speedup}x gate"
        )
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
