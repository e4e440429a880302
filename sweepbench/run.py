"""Sweep benchmark: a fixed prover sweep timed end to end, split by layer.

Usage, from the repository root::

    python3 sweepbench/run.py --workload sweep_cpu --seed 1 --seconds 40 --trace 0

``--trace 0`` sweeps for about ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs one
untraced and one traced pass and reports the per-layer metrics
instead.  A metric table goes to stderr; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is non-zero when any cell fails the correctness gate.

``--write-reference`` re-records ``reference/<workload>.json`` from
this run's outcomes; use it only when a change to the program is meant
to change verdicts.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".sweepbench_out"
# Set-up is timed in this process and again in fresh child processes.
SETUP_SAMPLES = 3


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds",
        type=float,
        required=True,
        help="measuring time: whole passes repeat while the next is expected "
        "to end within it (at least one pass)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    return parser.parse_args(argv)


def setup_sample() -> float:
    """One set-up timing taken in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_time.py")],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
        cwd=ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def declared_metrics(trace: bool) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    args = parse_args(argv)
    # The program is first imported inside timed_setup(), so its import
    # cost is part of setup_s; the modules below import it, so they
    # come after.
    from setup_time import timed_setup

    try:
        runner, setup_s, load_s = timed_setup()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import gate
    from sweep import end_to_end, measure, per_layer
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    trace = bool(args.trace)
    setup_samples = [setup_s]
    if not trace:
        setup_samples += [setup_sample() for _ in range(SETUP_SAMPLES - 1)]

    if args.write_reference:
        first = measure(runner, workload, args.seed, 0, False, reference={})
        gate.write_reference(
            workload.name, first.tasks, first.passes[0].records
        )
    # A traced run needs one untraced pass to compare against, not a
    # full measuring interval of them.
    seconds = 0 if trace else args.seconds
    m = measure(runner, workload, args.seed, seconds, trace)
    if trace:
        values = per_layer(m, load_s)
        m.recorder.write(
            OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        )
    else:
        values = end_to_end(m, setup_samples)

    metrics = {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in declared_metrics(trace)
    }
    problems = m.problems()
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print(
        f"{workload.name} seed={args.seed} cells={len(m.tasks)} "
        f"passes={len(m.passes)}"
        + (" +traced" if trace else "")
        + f" setup_samples={len(setup_samples)}"
        + f" (median of {statistics.median(setup_samples):.3f}s)",
        file=sys.stderr,
    )
    for name, cell in metrics.items():
        print(
            f"  {name:<40} {cell['value']:>14.6g} {cell['unit']}",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": m.attempted,
                "failed": len(problems),
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
