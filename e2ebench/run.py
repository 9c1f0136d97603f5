"""StoryPivot end-to-end benchmark.

    python3 e2ebench/run.py --workload realign --seed 1 --seconds 60 --trace 0

Runs ``--seconds`` ÷ the workload's nominal round length rounds of one
workload (at least its minimum; with ``--trace 1`` an even number, at
least two, alternating untraced and traced), sets the workload up at
least three times, checks every round against a single-process
reference, and prints one JSON result as its last line:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: a run sets its workload up at least this often (setup_s is the median)
MIN_SETUPS = 3

#: end-to-end metric -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "ingest_sps": "snippets/s",
    "push_p50_ms": "ms",
    "push_p95_ms": "ms",
    "visible_p50_s": "s",
    "visible_p95_s": "s",
    "read_p50_ms": "ms",
    "read_p90_ms": "ms",
    "source_f1": "ratio",
    "global_f1": "ratio",
    "peak_rss_mb": "MB",
}


def host_calibration_ms() -> float:
    """Best of three runs of a fixed pure-Python loop, in ms."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc = (acc + i * i) % 1_000_003
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def end_to_end(rounds, setups, percentile, pool) -> dict:
    """Rates, scores, peak memory and setup_s are the median over rounds
    (set-ups).

    A percentile is the median of the rounds' percentiles, which no single
    disturbed round moves, or for the samples named in ``pool`` the
    percentile of all rounds' samples together, for rounds with too few
    to estimate it alone.
    """
    def pooled(attr, q):
        if attr in pool:
            return percentile(
                [x for r in rounds for x in getattr(r, attr)], q
            )
        return statistics.median(
            percentile(getattr(r, attr), q) for r in rounds
        )

    def median(attr):
        return statistics.median(getattr(r, attr) for r in rounds)

    return {
        "setup_s": statistics.median(setups),
        "ingest_sps": median("ingest_sps"),
        "push_p50_ms": pooled("push", 50) * 1e3,
        "push_p95_ms": pooled("push", 95) * 1e3,
        "visible_p50_s": pooled("visible", 50),
        "visible_p95_s": pooled("visible", 95),
        "read_p50_ms": pooled("reads", 50) * 1e3,
        "read_p90_ms": pooled("reads", 90) * 1e3,
        "source_f1": median("source_f1"),
        "global_f1": median("global_f1"),
        "peak_rss_mb": median("peak_rss_mb"),
    }


def per_layer(untraced, traced, calibration_ms, percentile) -> dict:
    names = traced[0].layers.keys()
    layers = {
        name: statistics.median(r.layers[name] for r in traced)
        for name in names
    }
    layers["bench.gen_late_p95_ms"] = percentile(
        [x for r in traced for x in r.lateness], 95
    ) * 1e3
    layers["bench.trace_overhead"] = (
        statistics.median(r.cpu_per_unit for r in traced)
        / statistics.median(r.cpu_per_unit for r in untraced)
        - 1.0
    )
    layers["bench.host_calib_ms"] = calibration_ms
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["realign", "live"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no StoryPivot sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from layers import LAYER_UNITS
    from load import percentile
    from workloads import WORKLOADS

    units = LAYER_UNITS if args.trace else END_TO_END

    calibration_ms = host_calibration_ms()
    workdir = tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        # a fixed number of rounds, not as many as fit: every run then
        # averages over the same number of worlds, however fast the host
        planned = max(workload.min_rounds,
                      round(args.seconds / workload.round_s))
        if args.trace:
            planned += planned % 2
        rounds = []
        while len(rounds) < planned:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            # a traced round runs on its untraced predecessor's world, so
            # that the pair compares like with like
            result = workload.run_round(
                len(rounds) // 2 if args.trace else len(rounds), traced
            )
            rounds.append((traced, result))
            print(f"round {len(rounds)}{' traced' if traced else ''}: "
                  f"setup {result.setup_s:.3f}s, "
                  f"ingest {result.ingest_sps:.1f} snippets/s, "
                  f"{result.sent} sent, {result.read_attempts} reads, "
                  f"failures {dict(+result.failures) or 'none'}", flush=True)
        setups = [r.setup_s for _, r in rounds]
        while not args.trace and len(setups) < MIN_SETUPS:
            setups.append(workload.run_round(
                len(setups), measure=False
            ).setup_s)
        untraced = [r for traced, r in rounds if not traced]
        traced = [r for is_traced, r in rounds if is_traced]
        metrics = (
            per_layer(untraced, traced, calibration_ms, percentile)
            if args.trace
            else end_to_end(untraced, setups, percentile,
                            workload.pooled)
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = []
    for number, (_, result) in enumerate(rounds, 1):
        problems.extend(f"round {number}: {p}" for p in workload.check(
            workload.reference(result), result
        ))
    attempted = sum(r.sent + r.read_attempts for _, r in rounds)
    failed = sum(sum(r.failures.values()) for _, r in rounds)
    for problem in problems:
        print(f"check failed: {problem}", flush=True)
    print("# meta " + json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "setups": len(setups),
        "failed_ratio": failed / attempted,
        "host_calib_ms": round(calibration_ms, 3),
        "cores": os.cpu_count(),
        "python": platform.python_version(),
    }, sort_keys=True), flush=True)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
