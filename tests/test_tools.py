"""Smoke tests of the scripts under `tools/`, loaded from their files without writing bytecode there."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


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


def test_interleave_compares_a_tree_with_itself(monkeypatch, capsys):
    tool = load_tool("interleave", monkeypatch)
    root = str(TOOLS.parent)
    argv = [root, root, "--params", "variables=1", "max_degree=2", "--rounds", "3", "--seed", "5"]
    assert tool.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "poly variables=1 max_degree=2, cases 50, seeds 5-7"
    assert [line.split()[:2] for line in lines[1:4]] == [["parent", "median"], ["change", "median"], ["ratio", "median"]]
    assert lines[4].startswith("change faster in ") and lines[4].endswith("/3 pairs")
    # then one line per law of at least LAW_FLOOR_MS, in table order
    law_line = re.compile(
        r"(L\d+) +parent (\d+\.\d\d) ms, change \d+\.\d\d ms, ratio \d+\.\d{3}, change faster in [0-3]/3"
    )
    matches = [law_line.fullmatch(line) for line in lines[5:]]
    assert all(matches), lines[5:]
    laws = [m[1] for m in matches]
    assert laws == sorted(laws, key=lambda law: int(law[1:]))
    assert all(float(m[2]) >= tool.LAW_FLOOR_MS for m in matches)
    # both copies are their own packages
    assert tool.load(root, "dctool_parent") is not tool.load(root, "dctool_change")


def test_interleave_prints_the_laws_the_parent_spends_a_millisecond_on(monkeypatch):
    tool = load_tool("interleave", monkeypatch)
    parent = [{"L1": 4.0, "L2": 0.5, "L3": 0.0}, {"L1": 2.0, "L2": 0.9, "L3": 0.0}, {"L1": 3.0, "L2": 2.0, "L3": 0.0}]
    change = [{"L1": 3.0, "L2": 0.4, "L3": 0.0}, {"L1": 2.2, "L2": 0.3, "L3": 0.0}, {"L1": 1.5, "L2": 0.2, "L3": 0.0}]
    pairs = [((0.1, p), (0.1, c)) for p, c in zip(parent, change)]
    # L2's parent median is 0.9 ms and L3 is skipped (0 ms): neither gets a line
    assert tool.law_lines(pairs) == ["L1   parent 3.00 ms, change 2.20 ms, ratio 0.750, change faster in 2/3"]


def test_interleave_compares_a_smooth_tree_with_itself(monkeypatch, capsys):
    tool = load_tool("interleave", monkeypatch)
    root = str(TOOLS.parent)
    assert tool.main([root, root, "--model", "smooth", "--params", "dim=1", "order=8", "--rounds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "smooth dim=1 order=8, cases 50, seeds 0-1"
    assert lines[4].startswith("change faster in ") and lines[4].endswith("/2 pairs")
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


def test_interleave_stops_where_the_trees_report_differently(monkeypatch, capsys, tmp_path):
    tool = load_tool("interleave", monkeypatch)
    root = TOOLS.parent
    copy = tmp_path / "src" / "dctool"
    copy.mkdir(parents=True)
    for module in (root / "src" / "dctool").glob("*.py"):
        (copy / module.name).write_text(module.read_text())
    polyform = copy / "polyform.py"
    polyform.write_text(polyform.read_text().replace("\nPROBES = 5", "\nPROBES = 4", 1))  # one table input fewer
    argv = [str(root), str(tmp_path), "--params", "variables=1", "max_degree=2", "--rounds", "1"]
    assert tool.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "seed 0: the trees report differently, first at parent ('nonneg-rational', 'L2', 'pass', "
    )
    assert ", change ('nonneg-rational', 'L2', 'pass', " in captured.err
    # round 1 runs the change first, and the message still shows the parent's report, then the change's
    parent, change = object(), object()

    def check(package, model, params, seed):
        cases = 5 if package is change and seed == 1 else 4
        return 0.1, [("real", "L2", "pass", cases)], {"L2": 1.0}

    monkeypatch.setattr(tool, "check", check)
    with pytest.raises(tool.ReportsDiffer) as raised:
        tool.interleave(parent, change, "smooth", {}, rounds=2, seed=0)
    assert str(raised.value) == (
        "seed 1: the trees report differently, first at parent ('real', 'L2', 'pass', 4), "
        "change ('real', 'L2', 'pass', 5)"
    )
    monkeypatch.setattr(tool, "check", lambda package, *args: (0.1, [] if package is change else [("real",)], {}))
    with pytest.raises(tool.ReportsDiffer, match=r"^seed 0: .* first at parent 1 reports, change 0 reports$"):
        tool.interleave(parent, change, "smooth", {}, rounds=1, seed=0)
