"""Size sweep of `dctool check`, outside the gated workloads.

    python3 bench/sweep.py                       # every default point
    python3 bench/sweep.py rel-b3-d7 poly-v4-g8  # only these points
    python3 bench/sweep.py --out bench/results/sweep.json

Points are named rel-b<base>-d<D>, poly-v<vars>-g<max degree> and
smooth-d<dim>-o<order>; `POINTS` below lists them.

Each point is one model size, checked in a fresh process of its own so that
its peak resident memory belongs to it.  A point repeats its check until it
has three samples or has spent ten seconds, and reports the median set-up
time (`make_*_binding`), the median check time (build to rendered report) and
the process's peak RSS, plus any law whose verdict differs from the reference
(the sweep still records the times of such a point).  Rel base 4 at D 5
(about 21 s and 1 GB) and D 6 (several minutes) runs only when named.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness

SEED = 0


def _points() -> dict:
    """name -> (model, semiring, params, default)."""
    points = {}
    for base in (2, 3, 4):
        for D in (4, 5, 6, 7):
            if base == 4 and D > 6:
                continue
            points[f"rel-b{base}-d{D}"] = (
                "rel", "nonneg-rational", {"base_size": base, "truncation": D}, base < 4 or D < 5,
            )
    for variables in (2, 3, 4):
        for degree in (4, 6, 8):
            points[f"poly-v{variables}-g{degree}"] = (
                "poly", "nonneg-rational", {"variables": variables, "max_degree": degree}, True,
            )
    for dim in (1, 2, 3):
        for order in (16, 32, 64):
            points[f"smooth-d{dim}-o{order}"] = ("smooth", "real", {"dim": dim, "order": order}, True)
    return points


POINTS = _points()


def measure_point(name: str) -> dict:
    """Run one point in this process and return its record."""
    model, semiring, params, _ = POINTS[name]
    setups, checks, wrong = [], [], []
    start = time.perf_counter()
    while len(checks) < 3 and (not checks or time.perf_counter() - start < 10.0):
        result = harness.run_check(model, semiring, params, seed=SEED + len(checks))
        if result.error:
            wrong.append(result.error)
            break
        if result.wrong:
            wrong.append(result.wrong)
        setups.append(result.setup_s)
        checks.append(result.check_s)
    record = {"point": name, "model": model, "semiring": semiring, "params": params, "n": len(checks)}
    if checks:
        record.update(setup_s=statistics.median(setups), check_s=statistics.median(checks))
    record.update(peak_rss_mb=harness.peak_rss_mb(), wrong=wrong)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bench/sweep.py", description=__doc__.splitlines()[0])
    parser.add_argument("points", nargs="*", help="point names; default: every point not marked by-name-only")
    parser.add_argument("--out", help="also write the records, with the environment stamp, to this JSON file")
    parser.add_argument("--point", help=argparse.SUPPRESS)  # child mode: run one point here
    args = parser.parse_args(argv)

    if args.point:
        print(json.dumps(measure_point(args.point)))
        return 0
    unknown = [p for p in args.points if p not in POINTS]
    if unknown:
        parser.error(f"unknown points: {', '.join(unknown)}")
    names = args.points or [name for name, (*_, default) in POINTS.items() if default]

    stamp = harness.env_stamp("sweep", SEED)
    records = []
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--point", name],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=1800,
        )
        if proc.returncode != 0:
            record = {"point": name, "wrong": [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]}
        else:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        records.append(record)
        print(
            f"{name:<16} setup_s={record.get('setup_s', float('nan')):.4g} "
            f"check_s={record.get('check_s', float('nan')):.4g} n={record.get('n', 0)} "
            f"peak_rss_mb={record.get('peak_rss_mb', float('nan')):.0f}"
            + (f"  WRONG {record['wrong']}" if record["wrong"] else ""),
            flush=True,
        )
    if args.out:
        Path(args.out).write_text(json.dumps({"env": stamp, "points": records}, indent=1) + "\n")
    return 1 if any(r["wrong"] for r in records) else 0


if __name__ == "__main__":
    sys.exit(main())
