"""Benchmark of `dctool check`: one workload per invocation.

    python3 bench/run.py --workload rel-band --seed 1 --seconds 35 --trace 0

Prints one line per metric (value, sample count, quartiles), the
environment stamp and any wrong verdicts, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  `--trace 0` gives the
end-to-end metrics, `--trace 1` the per-layer ones from a traced run, whose
spans go to bench/out/.  Exit code 0 when every verdict matched the
reference, 1 otherwise.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="length of the timed part of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    workload = harness.WORKLOADS[args.workload]
    stamp = harness.env_stamp(workload.name, args.seed)
    if args.trace:
        out = Path(__file__).resolve().parent / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{workload.name}-seed{args.seed}.json.gz"
        run, metrics = harness.measure_traced(workload, args.seed, args.seconds, spans_path=spans)
    else:
        run, metrics = harness.measure(workload, args.seed, args.seconds)

    print(f"env {json.dumps(stamp, sort_keys=True)}")
    if not args.trace and run.probes:
        probe = harness.Sample.of(run.probes, trimmed=True)
        print(f"speed_probe {probe.value:.6g} s ({probe.stat} of n={probe.n}); reference {harness.PROBE_REF_S} s, "
              f"so wall times are scaled by {harness.PROBE_REF_S / probe.value:.4g}")
    for line in run.failures:
        print(f"WRONG {line}")
    for name, (sample, unit) in metrics.items():
        print(f"{name:<44} {sample.value:.6g} {unit}  ({sample.stat} of n={sample.n}, q1={sample.q1:.6g}, "
              f"q3={sample.q3:.6g})")
    correct = run.failed == 0 and bool(metrics)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": sample.value, "unit": unit} for name, (sample, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
