"""Smoke tests of the scripts under `tools/`, loaded from their files without writing bytecode there."""

import gc
import importlib.util
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from dctool.lawsuite import LAWS

TOOLS = Path(__file__).resolve().parents[1] / "tools"
GOLDEN = Path(__file__).resolve().parent / "golden"


def load_tool(name, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read tools/, write nothing there
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment

# a comment line
class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        return """a string that is not a docstring,
        on two lines"""
'''


def test_code_lines_counts_lines_with_a_token_outside_comments_and_docstrings(monkeypatch):
    tool = load_tool("code_lines", monkeypatch)
    # import, class, def, and the two lines of the returned string
    assert tool.code_lines(SOURCE) == 5
    assert tool.code_lines('def f():\n    """Only a docstring."""\n') == 1


def test_code_lines_prints_each_module_and_the_total(monkeypatch, tmp_path, capsys):
    tool = load_tool("code_lines", monkeypatch)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    assert tool.main([str(tmp_path / "pkg")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["2", str(tmp_path / "pkg" / "a.py")],
        ["5", str(tmp_path / "pkg" / "b.py")],
        ["7", "total"],
    ]


def test_report_grid_prints_one_report_per_line_with_its_timings_zeroed(monkeypatch):
    tool = load_tool("report_grid", monkeypatch)
    flags = ["--base-size", "1", "--truncation", "4", "--seed", "0"]
    line = tool.report_line("rel", flags)
    assert "\n" not in line
    report = json.loads(line)
    assert report["model"] == "rel" and report["all_pass"] is True
    assert report["total_ms"] == 0
    assert report["laws"] and all(law["ms"] == 0 for law in report["laws"])
    assert tool.report_line("rel", flags) == line


def test_report_grid_prints_one_calculator_run_per_line(monkeypatch):
    tool = load_tool("report_grid", monkeypatch)
    assert len(tool.GRIDS["calc"]) == 3 * len(tool.CALC_INPUTS)
    assert tool.calc_line(["--expr", "d(x^2*y)", "--semiring", "boolean"]) == "--expr 'd(x^2*y)' --semiring boolean | 0 | [x*y, x^2] | "
    assert tool.calc_line(["--expr", "x - y"]) == (
        "--expr 'x - y' | 2 |  | dctool: '-' is not available over nonneg-rational; use the rational field"
    )
    long_chain = "+".join(["x"] * 100)
    assert tool.calc_line(["--expr", long_chain]) == "--expr 'x+x+x+x+x+x+x+x+x+x+x+x+x+x+x+... (199 characters)' | 0 | 100*x | "


@pytest.mark.parametrize("model", ["poly", "rel", "smooth", "calc"])
def test_report_grid_matches_its_golden_line_by_line(monkeypatch, model):
    """Every report of the model's grid, regenerated in this process, equals its line of
    `tests/golden/grid_<model>.txt`.  A change that alters a report regenerates the file with the command in
    the tool's docstring, and the file's diff shows what changed."""
    tool = load_tool("report_grid", monkeypatch)
    name, runs = f"grid_{model}.txt", len(tool.GRIDS[model])
    golden = (GOLDEN / name).read_text(encoding="utf-8").splitlines()
    assert len(golden) == runs, f"{name} has {len(golden)} lines for {runs} runs"
    for n, ((flags, line), expected) in enumerate(zip(tool.grid(model), golden), 1):
        assert line == expected, f"{name} line {n}, flags {shlex.join(flags)}\nnow:    {line}\ngolden: {expected}"


def test_interleave_compares_a_tree_with_itself(monkeypatch, capsys):
    tool = load_tool("interleave", monkeypatch)
    root = str(TOOLS.parent)
    argv = [root, root, "--params", "variables=1", "max_degree=2", "--rounds", "3", "--seed", "5"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "poly variables=1 max_degree=2, cases 50, seeds 5-7"
    assert [line.split()[:2] for line in lines[1:4]] == [["parent", "median"], ["change", "median"], ["ratio", "median"]]
    assert re.fullmatch(r"ratio  parent first \d+\.\d{3} over 2 pairs", lines[4])
    assert re.fullmatch(r"ratio  change first \d+\.\d{3} over 1 pairs", lines[5])
    assert lines[6].startswith("change faster in ") and lines[6].endswith("/3 pairs")
    # then one line per law of at least LAW_FLOOR_MS, in table order
    law_line = re.compile(
        r"(L\d+) +parent (\d+\.\d\d) ms, change \d+\.\d\d ms, ratio \d+\.\d{3}, change faster in [0-3]/3"
    )
    matches = [law_line.fullmatch(line) for line in lines[7:]]
    assert all(matches), lines[7:]
    laws = [m[1] for m in matches]
    assert laws == sorted(laws, key=lambda law: int(law[1:]))
    assert all(float(m[2]) >= tool.LAW_FLOOR_MS for m in matches)
    # both copies are their own packages
    assert tool.load(root, "dctool_parent") is not tool.load(root, "dctool_change")


def test_interleave_prints_the_ratio_of_the_pairs_each_tree_ran_first_in(monkeypatch, capsys):
    """A host on which the second check of a pair always takes twice as long: the overall ratio hides
    it, and the parent-first and change-first lines, each over half the pairs, show it."""
    tool = load_tool("interleave", monkeypatch)
    calls = []

    def check(package, model, params, seed):
        calls.append(package)
        return 1.0 if len(calls) % 2 else 2.0, [("real", "L2", "pass", 4)], {"L2": 1.0}

    monkeypatch.setattr(tool, "check", check)
    root = str(TOOLS.parent)
    assert tool.main([root, root, "--model", "smooth", "--rounds", "4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[3:7] == [
        "ratio  median 1.250 (change / parent)",
        "ratio  parent first 2.000 over 2 pairs",
        "ratio  change first 0.500 over 2 pairs",
        "change faster in 2/4 pairs",
    ]


def test_interleave_prints_the_laws_the_parent_spends_a_millisecond_on(monkeypatch):
    tool = load_tool("interleave", monkeypatch)
    parent = [{"L1": 4.0, "L2": 0.5, "L3": 0.0}, {"L1": 2.0, "L2": 0.9, "L3": 0.0}, {"L1": 3.0, "L2": 2.0, "L3": 0.0}]
    change = [{"L1": 3.0, "L2": 0.4, "L3": 0.0}, {"L1": 2.2, "L2": 0.3, "L3": 0.0}, {"L1": 1.5, "L2": 0.2, "L3": 0.0}]
    pairs = [((0.1, p), (0.1, c)) for p, c in zip(parent, change)]
    # L2's parent median is 0.9 ms and L3 is skipped (0 ms): neither gets a line
    assert tool.law_lines(pairs) == ["L1   parent 3.00 ms, change 2.20 ms, ratio 0.750, change faster in 2/3"]


def test_interleave_times_each_check_with_the_collector_off_and_turns_it_on_again(monkeypatch):
    """One `gc.collect()`, then the collector off while the check runs, and on again after it, also
    when the check raises."""
    tool = load_tool("interleave", monkeypatch)
    package = tool.load(str(TOOLS.parent), "dctool_collector")
    run_suite, events = package.run_suite, []
    monkeypatch.setattr(gc, "collect", lambda *args: events.append("collect"))

    def recording(*args, **kwargs):
        events.append(gc.isenabled())
        return run_suite(*args, **kwargs)

    monkeypatch.setattr(package, "run_suite", recording)
    assert gc.isenabled()
    tool.check(package, "rel", {"base_size": 1, "truncation": 3}, seed=0)
    assert events == ["collect", False, False]  # one suite per semiring
    assert gc.isenabled()

    def raising(*args, **kwargs):
        events.append(gc.isenabled())
        raise RuntimeError("a check that breaks")

    events.clear()
    monkeypatch.setattr(package, "run_suite", raising)
    with pytest.raises(RuntimeError, match="a check that breaks"):
        tool.check(package, "rel", {"base_size": 1, "truncation": 3}, seed=0)
    assert events == ["collect", False]
    assert gc.isenabled()


def test_interleave_sizes_and_semirings_are_the_benchmark_workloads(monkeypatch):
    """`tools/interleave.py` keeps its own copy of each model's benchmark workload: its sizes and semirings."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    monkeypatch.syspath_prepend(str(TOOLS.parent / "bench"))
    import harness

    tool = load_tool("interleave", monkeypatch)
    workloads = {w.model: w for w in harness.WORKLOADS.values()}
    assert sorted(workloads) == sorted(tool.DEFAULT_PARAMS) == sorted(tool.SEMIRINGS)
    for model, workload in workloads.items():
        assert tool.DEFAULT_PARAMS[model] == workload.params, model
        assert tool.SEMIRINGS[model] == workload.semirings, model


def test_interleave_compares_a_smooth_tree_with_itself(monkeypatch, capsys):
    tool = load_tool("interleave", monkeypatch)
    root = str(TOOLS.parent)
    assert tool.main([root, root, "--model", "smooth", "--params", "dim=1", "order=8", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "smooth dim=1 order=8, cases 50, seeds 0-1"
    assert lines[6].startswith("change faster in ") and lines[6].endswith("/2 pairs")
    # each tree's own `cli` builds the binding from the arguments of `dctool check`
    assert tool.check_argv("smooth", "real", {"dim": 1, "order": 8}) == ["check", "smooth", "--dim=1", "--order=8"]
    assert tool.check_argv("poly", "rational", {"variables": 4, "max_degree": 8}) == [
        "check", "poly", "--semiring=rational", "--vars=4", "--max-degree=8"
    ]


@pytest.mark.parametrize(
    "model, params, message",
    [
        ("poly", ["variables"], "parameter 'variables' is not KEY=INT"),
        ("poly", ["degree=3"], "poly has no size 'degree'; its sizes are variables, max_degree"),
        ("poly", ["variables=0"], "variables must be >= 1"),
        ("smooth", ["max_dim=2"], "smooth has no size 'max_dim'; its sizes are dim, order"),
        ("smooth", ["dim=4"], "max_dim must be between 1 and 3"),
        ("smooth", ["order=1"], "quadrature order must be between 2 and 1024"),
    ],
)
def test_interleave_refuses_a_bad_size_as_a_usage_error(monkeypatch, capsys, model, params, message):
    tool = load_tool("interleave", monkeypatch)
    root = str(TOOLS.parent)
    with pytest.raises(SystemExit) as exit_info:
        tool.main([root, root, "--model", model, "--params", *params])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(message)


def _tree_copy(tmp_path, module, old, new):
    """A copy of this tree's `src/dctool` under tmp_path with `old` replaced by `new`, once, in `module`."""
    copy = tmp_path / "src" / "dctool"
    copy.mkdir(parents=True)
    for source in (TOOLS.parent / "src" / "dctool").glob("*.py"):
        (copy / source.name).write_text(source.read_text())
    text = (copy / module).read_text()
    assert old in text
    (copy / module).write_text(text.replace(old, new, 1))
    return str(tmp_path)


def test_interleave_stops_where_the_trees_report_differently(monkeypatch, capsys, tmp_path):
    tool = load_tool("interleave", monkeypatch)
    # p * 1 = p + p: L1 fails in the copy
    copy = _tree_copy(tmp_path, "polyform.py", 'p, "one not a unit"', 'p + p, "one not a unit"')
    argv = [str(TOOLS.parent), copy, "--params", "variables=1", "max_degree=2", "--rounds", "1"]
    assert tool.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "seed 0: the trees report differently, first at parent ('nonneg-rational', 'L1', 'pass', 50), "
        "change ('nonneg-rational', 'L1', 'fail', "
    )
    # round 1 runs the change first, and the message still shows the parent's report, then the change's
    parent, change = object(), object()

    def check(package, model, params, seed):
        status = "fail" if package is change and seed == 1 else "pass"
        return 0.1, [("real", "L2", status, 4)], {"L2": 1.0}

    monkeypatch.setattr(tool, "check", check)
    with pytest.raises(tool.ReportsDiffer) as raised:
        tool.interleave(parent, change, "smooth", {}, rounds=2, seed=0)
    assert str(raised.value) == (
        "seed 1: the trees report differently, first at parent ('real', 'L2', 'pass', 4), "
        "change ('real', 'L2', 'fail', 4)"
    )
    monkeypatch.setattr(tool, "check", lambda package, *args: (0.1, [] if package is change else [("real",)], {}))
    with pytest.raises(tool.ReportsDiffer, match=r"^seed 0: .* first at parent 1 reports, change 0 reports$"):
        tool.interleave(parent, change, "smooth", {}, rounds=1, seed=0)


def test_interleave_times_trees_whose_case_counts_differ_and_lists_them(monkeypatch, capsys, tmp_path):
    tool = load_tool("interleave", monkeypatch)
    # one huge-exponent probe fewer per input type: every poly table law reads fewer inputs
    copy = _tree_copy(tmp_path, "polyform.py", "\nPROBES = 5", "\nPROBES = 4")
    argv = [str(TOOLS.parent), copy, "--params", "variables=1", "max_degree=2", "--rounds", "2"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "poly variables=1 max_degree=2, cases 50, seeds 0-1"
    differ = re.compile(r"cases differ: (nonneg-rational|rational) (L\d+), parent (\d+), change (\d+)")
    listed = [differ.fullmatch(line) for line in lines[1:] if line.startswith("cases differ: ")]
    assert all(listed) and len(listed) == len({m.groups() for m in listed}), lines
    # each table law, and L21, which poly checks on the same inputs through `lawsuite.taylor`, once per
    # semiring (L24, skipped over both, reads nothing), in table order
    table = [law.id for law in LAWS if (law.equations or law.id == "L21") and law.id != "L24"]
    for semiring in ("nonneg-rational", "rational"):
        assert [m[2] for m in listed if m[1] == semiring] == table
    assert all(int(m[4]) < int(m[3]) for m in listed)
    timings = lines[1 + len(listed):]
    assert [line.split()[:2] for line in timings[:3]] == [
        ["parent", "median"], ["change", "median"], ["ratio", "median"]
    ]
    assert timings[5].startswith("change faster in ") and timings[5].endswith("/2 pairs")
