"""Time one model's check in two source trees alternately, in one process, and compare them.

    python3 tools/interleave.py PARENT_TREE CHANGE_TREE --model poly \\
        --params variables=4 max_degree=8 --rounds 20

Each tree's `src/dctool` is imported under its own package name, so both
copies run in one interpreter and share its warm-up and the host's drift,
which a comparison of separate processes (`bench/sweep.py`) does not.  One
check builds the model's binding with the tree's own `cli`, from the
arguments of `dctool check` at the chosen sizes, and runs
`run_suite` on it at 50 cases, the `dctool check` default, once for each
semiring of the model's benchmark workload (poly: nonneg-rational and
rational; rel: nonneg-rational and boolean; smooth: real only, with sizes
`dim` and `order`).  Both trees first run one untimed check.  Round i then
times one check of each tree on seed `--seed` + i, the parent first in even
rounds and the change first in odd ones; a round is a pair.  The tool prints each tree's median wall time,
the median of the per-pair ratios change / parent, the same median over the
pairs that ran the parent first and over those that ran the change first,
which differ where the place in a pair biases the timing, and the number of
pairs in which the change was faster; then the two medians, the median
ratio and the pairs won for each law
whose parent median is at least `LAW_FLOOR_MS`, in table order, from the
reports' `ms` summed over the semirings of one check.  The two trees must
report the same law statuses on every seed; otherwise the first difference
is printed, the parent's report and the change's, and the tool exits 1.
Where only case counts differ, as when a change reads fewer inputs, each
differing (semiring, law, parent cases, change cases) is printed once,
before the timings, and the trees are timed as usual.
A tree without `src/dctool`, an unknown size name or a size the binding
refuses is a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import importlib.util
import statistics
import sys
import time
from pathlib import Path

SEMIRINGS = {"poly": ("nonneg-rational", "rational"), "rel": ("nonneg-rational", "boolean"), "smooth": ("real",)}
CASES = 50  # the `dctool check` default
LAW_FLOOR_MS = 1.0  # a law whose parent median is below this gets no line of its own
DEFAULT_PARAMS = {
    "poly": {"variables": 4, "max_degree": 8},
    "rel": {"base_size": 3, "truncation": 6},
    "smooth": {"dim": 3, "order": 64},
}
# the `dctool check` flag of each size
FLAGS = {
    "variables": "--vars",
    "max_degree": "--max-degree",
    "base_size": "--base-size",
    "truncation": "--truncation",
    "dim": "--dim",
    "order": "--order",
}


class ReportsDiffer(Exception):
    """The two trees reported different law statuses on one seed."""


def load(tree, name: str):
    """The package `src/dctool` of the source tree `tree`, imported afresh as `name`."""
    for module in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[module]  # a module of an earlier load under this name
    init = Path(tree) / "src" / "dctool" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def check_argv(model: str, semiring: str, params: dict) -> list:
    """The arguments of `dctool check` for `model` over `semiring` at the sizes `params`."""
    argv = ["check", model] + ([f"--semiring={semiring}"] if model != "smooth" else [])
    return argv + [f"{FLAGS[key]}={value}" for key, value in params.items()]


def check(package, model: str, params: dict, seed: int) -> tuple:
    """One check of `model` with `package` at `CASES`: its wall time in seconds, its
    (semiring, law, status, cases) reports and {law: ms summed over the semirings}."""
    cli = importlib.import_module(f"{package.__name__}.cli")
    parser = cli.build_parser()
    runs = [(semiring, parser.parse_args(check_argv(model, semiring, params))) for semiring in SEMIRINGS[model]]
    start = time.perf_counter()
    reports = [
        (semiring, r)
        for semiring, args in runs
        for r in package.run_suite(cli._make_binding(args), cases=CASES, seed=seed)
    ]
    seconds = time.perf_counter() - start
    law_ms = {}
    for _, r in reports:
        law_ms[r.law_id] = law_ms.get(r.law_id, 0.0) + r.ms
    return seconds, [(semiring, r.law_id, r.status, r.cases) for semiring, r in reports], law_ms


def interleave(parent, change, model: str, params: dict, rounds: int, seed: int) -> tuple:
    """((parent seconds, parent law ms), (change seconds, change law ms)) of each round, the law ms as
    `check` returns them, and each (semiring, law, parent cases, change cases) whose cases differ, once,
    in the order met; raises `ReportsDiffer` where the statuses differ."""
    for package in (parent, change):
        check(package, model, params, seed)
    pairs, cases = [], {}
    for i in range(rounds):
        order = (parent, change) if i % 2 == 0 else (change, parent)
        runs = {package: check(package, model, params, seed + i) for package in order}
        (tp, rp, msp), (tc, rc, msc) = runs[parent], runs[change]
        if [r[:3] for r in rp] != [r[:3] for r in rc]:
            differ = ((a, b) for a, b in zip(rp, rc) if a[:3] != b[:3])
            first = next(differ, (f"{len(rp)} reports", f"{len(rc)} reports"))
            raise ReportsDiffer(f"seed {seed + i}: the trees report differently, first at parent {first[0]}, change {first[1]}")
        cases.update(dict.fromkeys((*a[:2], a[3], b[3]) for a, b in zip(rp, rc) if a != b))
        pairs.append(((tp, msp), (tc, msc)))
    return pairs, list(cases)


def compared(pairs) -> tuple:
    """(parent median, change median, median ratio change / parent, pairs the change won) of (parent, change) pairs."""
    return (
        statistics.median(p for p, _ in pairs),
        statistics.median(c for _, c in pairs),
        statistics.median(c / p for p, c in pairs),
        sum(c < p for p, c in pairs),
    )


def law_lines(pairs) -> list:
    """One line per law whose parent median is at least `LAW_FLOOR_MS`, of `interleave`'s pairs, in table order."""
    lines = []
    for law in pairs[0][0][1]:
        law_pairs = [(p[law], c[law]) for (_, p), (_, c) in pairs]
        if statistics.median(p for p, _ in law_pairs) >= LAW_FLOOR_MS:
            parent, change, ratio, won = compared(law_pairs)
            lines.append(f"{law:<4} parent {parent:.2f} ms, change {change:.2f} ms, ratio {ratio:.3f}, "
                         f"change faster in {won}/{len(pairs)}")
    return lines


def _params(model: str, items) -> dict:
    """The sizes of `model`: its benchmark workload's, with each KEY=INT of `items` put in."""
    params = dict(DEFAULT_PARAMS[model])
    for item in items:
        key, sep, value = item.partition("=")
        if not sep or not value.lstrip("-").isdigit():
            raise ValueError(f"parameter {item!r} is not KEY=INT")
        if key not in params:
            raise ValueError(f"{model} has no size {key!r}; its sizes are {', '.join(params)}")
        params[key] = int(value)
    return params


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent's source tree (holds src/dctool)")
    parser.add_argument("change", help="root of the changed source tree")
    parser.add_argument("--model", choices=sorted(SEMIRINGS), default="poly")
    parser.add_argument("--params", nargs="+", default=[], metavar="KEY=INT",
                        help="binding sizes, such as variables=4 max_degree=8 (default: the benchmark workload's)")
    parser.add_argument("--rounds", type=int, default=10, help="timed pairs (default 10)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first round; round i uses seed + i")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in (args.parent, args.change):
        if not (Path(tree) / "src" / "dctool" / "__init__.py").is_file():
            parser.error(f"{tree} holds no src/dctool package")
    sys.dont_write_bytecode = True  # leave no bytecode in either tree
    parent, change = load(args.parent, "dctool_parent"), load(args.change, "dctool_change")
    try:
        params = _params(args.model, args.params)
        pairs, cases = interleave(parent, change, args.model, params, args.rounds, args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    except ReportsDiffer as exc:
        print(exc, file=sys.stderr)
        return 1
    shown = " ".join(f"{k}={v}" for k, v in params.items())
    print(f"{args.model} {shown}, cases {CASES}, seeds {args.seed}-{args.seed + args.rounds - 1}")
    for semiring, law, parent_cases, change_cases in cases:
        print(f"cases differ: {semiring} {law}, parent {parent_cases}, change {change_cases}")
    parent_s, change_s, ratio, won = compared([(p, c) for (p, _), (c, _) in pairs])
    print(f"parent median {parent_s:.4f} s")
    print(f"change median {change_s:.4f} s")
    print(f"ratio  median {ratio:.3f} (change / parent)")
    for label, first in (("parent first", pairs[0::2]), ("change first", pairs[1::2])):
        median = statistics.median(c / p for (p, _), (c, _) in first) if first else float("nan")
        print(f"ratio  {label} {median:.3f} over {len(first)} pairs")
    print(f"change faster in {won}/{len(pairs)} pairs")
    for line in law_lines(pairs):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
