"""Print every law report of one model over a fixed grid of sizes, seeds and semirings, without timings.

    PYTHONPATH=src python3 tools/report_grid.py {poly,rel,smooth} > grid.txt

Each line is one `dctool check <model> --format json` report, compacted to
one line, with every law's `ms` and the report's `total_ms` set to 0, so two
trees that report alike print the same bytes: compare them with `diff`.

    rel     {nonneg-rational, rational, boolean} x base 1-3 x D 4-6 x seed {0, 42}
    poly    {nonneg-rational, rational, boolean} x vars 1-4 x max-degree {3, 6} x seed {0, 42},
            then the `--sabotage` run at the defaults
    smooth  dim 1-3 x order {16, 32, 64} x seed {0, 42}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from itertools import product

from dctool import cli
from dctool.rig import RIGS

SEEDS = ("0", "42")
GRIDS = {
    "rel": [
        ["--semiring", rig, "--base-size", str(base), "--truncation", str(d), "--seed", seed]
        for rig, base, d, seed in product(RIGS, (1, 2, 3), (4, 5, 6), SEEDS)
    ],
    "poly": [
        ["--semiring", rig, "--vars", str(n), "--max-degree", str(degree), "--seed", seed]
        for rig, n, degree, seed in product(RIGS, (1, 2, 3, 4), (3, 6), SEEDS)
    ]
    + [["--sabotage"]],
    "smooth": [
        ["--dim", str(dim), "--order", str(order), "--seed", seed]
        for dim, order, seed in product((1, 2, 3), (16, 32, 64), SEEDS)
    ],
}


def report_line(model: str, flags: list) -> str:
    """The JSON report of `dctool check <model> <flags>` on one line, with its timings zeroed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["check", model, "--format", "json", *flags])
    if code not in (0, 1):
        raise SystemExit(f"check {model} {' '.join(flags)} exited {code}")
    report = json.loads(out.getvalue())
    for law in report["laws"]:
        law["ms"] = 0
    report["total_ms"] = 0
    return json.dumps(report, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", choices=sorted(GRIDS))
    model = parser.parse_args(argv).model
    for flags in GRIDS[model]:
        print(report_line(model, flags))
    return 0


if __name__ == "__main__":
    sys.exit(main())
