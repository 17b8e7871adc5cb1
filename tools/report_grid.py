"""Print every law report of one model over a fixed grid of sizes, seeds and semirings, without timings.

    PYTHONPATH=src python3 tools/report_grid.py {poly,rel,smooth,calc} > grid.txt

For poly, rel and smooth, each line is one `dctool check <model> --format json`
report, compacted to one line, with every law's `ms` and the report's
`total_ms` set to 0, so two trees that report alike print the same bytes:
compare them with `diff`.

    rel     {nonneg-rational, rational, boolean} x base 1-3 x D 4-6 x seed {0, 42}
    poly    {nonneg-rational, rational, boolean} x vars 1-4 x max-degree {3, 6} x seed {0, 42},
            then the `--sabotage` run at the defaults
    smooth  dim 1-3 x order {16, 32, 64} x seed {0, 42}
    calc    `CALC_INPUTS` x {nonneg-rational, rational, boolean}, each line
            `flags | exit | stdout | stderr` of one `dctool poly` run, with an
            expression longer than 60 characters shortened to its head and length
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shlex
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
# every calculator example of the README and tests/test_cli.py, every operator, --vars and --coord,
# one input per error kind, and three inputs with two faults each
CALC_INPUTS = [
    ["--expr", expr, *flags]
    for expr, *flags in (
        ("d(x^2*y)",), ("d(x^2*y)", "--coord", "1"), ("d(x^2*y)", "--coord", "2"), ("d(3*x^2 + x)",),
        ("Kinv(x^3)",), ("Kinv(K(x^3))",), ("K(x*y)",), ("J(x^2 + y)",), ("Jinv(x^2*y)",), ("s(y, x)",),
        ("s(x*z, y)",), ("int(d(3*x^2+x))",), ("int(d(3*x^2 + x))",), ("int(x^2)",), ("x - y",), ("x + 3/6*y",),
        ("4/2",), ("0/5",), ("1/2",), ("(x + 1)^3 * 2",), ("x*y", "--coord", "1"), ("d(x^2)", "--coord", "1"),
        ("x", "--vars", "3"), ("d(x)", "--vars", "2"), ("x^100000000",), ("+".join(["x"] * 5000),),
        ("*".join(["x"] * 600),), ("-".join(["x"] * 500),), ("(" * 100 + "x" + ")" * 100,),
        ("Kinv(K(" * 50 + "x^3" + "))" * 50,),
        # one input per error kind
        ("x $ y",), ("d(x^2",), ("x y",), ("",), ("x + )",), ("1/0",), ("q + 1",), ("s(x, q)",),
        ("(" * 101 + "x" + ")" * 101,), ("(" * 1000 + "x" + ")" * 1000,), ("(" * 250 + "x" + ")" * 250,),
        ("K(" * 300 + "x" + ")" * 300,), ("1", "--vars", "0"), ("1", "--vars", "-1"), ("w", "--vars", "2"),
        ("x", "--vars", "5"), ("d(x*y)", "--vars", "1000000"),
        ("int(x*y)",), ("int(x)", "--vars", "2"), ("K(d(x^2*y))",), ("(x+y+z+w)^60",), ("(x+y+z+w)^1000",),
        ("x*y", "--coord", "0"), ("x*y", "--coord", "2"), ("d(x^2*y)", "--coord", "3"), ("2^16000",),
        ("1" * 5000,), ("²",), ("x*٣",),
        # two faults: reported in reading order after the characters and the variable count
        ("x - (",), ("K(d(x*y)) + (",), ("w + (", "--vars", "2"),
    )
]
GRIDS["calc"] = [[*flags, "--semiring", rig] for flags, rig in product(CALC_INPUTS, RIGS)]


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


def calc_line(flags: list) -> str:
    """`flags | exit | stdout | stderr` of `dctool poly <flags>`, with long expressions shortened."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["poly", *flags])
    shown = shlex.join(f if len(f) <= 60 else f"{f[:30]}... ({len(f)} characters)" for f in flags)
    return " | ".join((shown, str(code), out.getvalue().rstrip("\n"), err.getvalue().rstrip("\n")))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("model", choices=sorted(GRIDS))
    model = parser.parse_args(argv).model
    for flags in GRIDS[model]:
        print(calc_line(flags) if model == "calc" else report_line(model, flags))
    return 0


if __name__ == "__main__":
    sys.exit(main())
