"""Command line: golden JSON reports, exit codes, and the calculator."""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import dctool
from dctool import bindings, cli, exprcalc
from dctool import smoothnum as sm
from dctool.rig import RIGS, NonNegRationalRig, Rig

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def normalize(payload):
    """Zero out wall-clock fields so reports compare stably."""
    payload = json.loads(json.dumps(payload))
    payload["total_ms"] = 0.0
    for law in payload["laws"]:
        law["ms"] = 0.0
    return payload


def run_json(tmp_path, argv):
    out = tmp_path / "report.json"
    status = cli.main(argv + ["--format", "json", "--output", str(out)])
    return status, normalize(json.loads(out.read_text()))


def load_golden(name):
    with open(os.path.join(GOLDEN_DIR, name)) as fh:
        return normalize(json.load(fh))


def test_golden_check_poly(tmp_path):
    status, payload = run_json(tmp_path, ["check", "poly", "--seed", "42"])
    assert status == 0
    assert payload == load_golden("check_poly_seed42.json")


def test_golden_check_rel_boolean(tmp_path):
    status, payload = run_json(
        tmp_path, ["check", "rel", "--seed", "42", "--semiring", "boolean"]
    )
    assert status == 0
    assert payload == load_golden("check_rel_boolean_seed42.json")


def test_golden_check_smooth(tmp_path):
    status, payload = run_json(tmp_path, ["check", "smooth", "--seed", "42"])
    assert status == 0
    assert payload == load_golden("check_smooth_seed42.json")


def test_seed_reproducibility_end_to_end(tmp_path):
    _s1, a = run_json(tmp_path, ["check", "rel", "--seed", "9"])
    _s2, b = run_json(tmp_path, ["check", "rel", "--seed", "9"])
    assert a == b


def test_json_schema_fields(tmp_path):
    _status, payload = run_json(tmp_path, ["check", "poly", "--seed", "1", "--cases", "5"])
    assert set(payload) == {"model", "semiring", "params", "seed", "laws", "all_pass", "total_ms"}
    assert payload["model"] == "poly"
    assert payload["semiring"] == "nonneg-rational"
    assert payload["seed"] == 1
    assert payload["all_pass"] is True
    for law in payload["laws"]:
        assert {"id", "citation", "status", "cases", "ms"} <= set(law)


def test_text_and_json_agree(tmp_path, capsys):
    _status, payload = run_json(tmp_path, ["check", "rel", "--seed", "3", "--cases", "5"])
    status = cli.main(["check", "rel", "--seed", "3", "--cases", "5"])
    assert status == 0
    text = capsys.readouterr().out
    for law in payload["laws"]:
        tag = {"pass": "pass", "fail": "FAIL", "skipped": "skip"}[law["status"]]
        assert any(
            line.startswith(law["id"] + " ") and tag in line for line in text.splitlines()
        ), law["id"]


def test_sabotaged_model_exits_one(tmp_path):
    out = tmp_path / "bad.json"
    status = cli.main(
        ["check", "poly", "--seed", "42", "--sabotage", "--format", "json", "--output", str(out)]
    )
    assert status == 1
    payload = json.loads(out.read_text())
    assert payload["all_pass"] is False
    failing = [law for law in payload["laws"] if law["status"] == "fail"]
    assert failing
    assert all("counterexample" in law for law in failing)


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "nosuchmodel"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "poly", "--semiring", "complex"])
    assert exc.value.code == 2


def test_smooth_takes_no_semiring(capsys):
    # the smooth model computes over the reals; a semiring flag would be ignored
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "smooth", "--semiring", "boolean"])
    assert exc.value.code == 2
    assert "--semiring" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["poly", "--cases", "0"],
        ["poly", "--cases", "-3"],
        ["poly", "--max-degree", "0"],
        ["poly", "--output", "{tmp}/missing/report.json"],
        ["rel", "--base-size", "7"],
        ["smooth", "--tol-abs", "inf"],
        ["smooth", "--tol-rel", "nan"],
        # refused by QuadratureConfig before any node or batch is built
        ["smooth", "--order", "1025"],
        ["smooth", "--order", "10000000000"],
    ],
    ids=[
        "zero-cases", "negative-cases", "zero-degree", "unwritable-output", "base-size-above-limit",
        "infinite-tol-abs", "nan-tol-rel",
        "order-above-limit", "huge-order",
    ],
)
def test_bad_check_arguments_exit_two_with_one_line(flags, tmp_path, capsys):
    argv = ["check"] + [f.format(tmp=tmp_path) for f in flags]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dctool: "), captured.err


class NaturalRig(NonNegRationalRig):
    """The naturals: no sum of ones but 1 itself has an inverse."""

    def nat_inverse(self, k):
        return 1 if k == 1 else Rig.nat_inverse(self, k)


def test_a_rig_without_inverses_is_a_usage_error(monkeypatch, capsys):
    # the rel binding builds s, which weights a bag of n atoms by 1/n, before any law runs
    monkeypatch.setitem(RIGS, "nonneg-rational", NaturalRig())
    assert cli.main(["check", "rel", "--semiring", "nonneg-rational"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("dctool: 2 (as a sum of ones) is not invertible"), captured.err
    assert lines[0].endswith(cli.NOT_INVERTIBLE_HINT)


def test_calculator_examples(capsys):
    cases = [
        (["poly", "--expr", "d(x^2*y)"], "[2*x*y, x^2]"),
        (["poly", "--expr", "d(x^2*y)", "--coord", "1"], "2*x*y"),
        (["poly", "--expr", "d(3*x^2 + x)"], "6*x + 1"),
        (["poly", "--expr", "Kinv(x^3)"], "1/3*x^3"),
        (["poly", "--expr", "Kinv(K(x^3))"], "x^3"),
        (["poly", "--expr", "s(y, x)"], "1/2*x*y"),
        (["poly", "--expr", "int(d(3*x^2+x))"], "3*x^2 + x"),
        (["poly", "--expr", "int(x^2)"], "1/3*x^3"),
        (["poly", "--expr", "Jinv(x^2*y)"], "1/4*x^2*y"),
    ]
    for argv, expected in cases:
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.strip() == expected, argv


@pytest.mark.parametrize("expr", ["x^100000000", "(x+y+z+w)^60", "(x+y+z+w)^1000"])
def test_calculator_large_powers_finish_quickly(expr, capsys):
    t0 = time.perf_counter()
    status = cli.main(["poly", "--expr", expr])
    elapsed = time.perf_counter() - t0
    captured = capsys.readouterr()
    assert elapsed < 2.0, elapsed
    if status == 0:
        assert captured.out.strip() and not captured.err
    else:
        assert status == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("dctool: "), captured.err


def test_calculator_long_chains_are_one_node(capsys):
    """A '+' chain and a '*' chain are each evaluated by iteration, whatever their length."""
    for expr, expected in (("+".join(["x"] * 5000), "5000*x"), ("*".join(["x"] * 600), "x^600")):
        assert cli.main(["poly", "--expr", expr]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == expected and not captured.err
    assert cli.main(["poly", "--expr", "-".join(["x"] * 500), "--semiring", "rational"]) == 0
    assert capsys.readouterr().out.strip() == "-498*x"


@pytest.mark.parametrize(
    "opening, depth",
    [("(", 1000), ("(", 250), ("K(", 300), ("(", exprcalc.MAX_NESTING + 1)],
    ids=["parens-1000", "parens-250", "K-300", "parens-bound+1"],
)
def test_calculator_deep_nesting_is_a_usage_error(opening, depth, capsys):
    """Nesting past the bound is refused with one dctool: line and exit 2, never a traceback."""
    assert cli.main(["poly", "--expr", opening * depth + "x" + ")" * depth]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the position is that of the first parenthesis past the bound
    position = len(opening) * (exprcalc.MAX_NESTING + 1) - 1
    assert captured.err == f"dctool: nesting deeper than {exprcalc.MAX_NESTING} levels (at position {position})\n"


def test_calculator_nesting_at_the_bound_is_evaluated(capsys):
    depth = exprcalc.MAX_NESTING
    for expr in ("(" * depth + "x" + ")" * depth, "Kinv(K(" * (depth // 2) + "x^3" + "))" * (depth // 2)):
        assert cli.main(["poly", "--expr", expr]) == 0
        assert capsys.readouterr().out.strip() in ("x", "x^3")


def test_tol_abs_changes_a_smooth_verdict(tmp_path):
    # every residual law and every law comparing a closed form with a numerical derivative
    laws = ("L3", "L4", "L18", "L19", "L20")

    def statuses(tol_abs):
        _status, payload = run_json(
            tmp_path, ["check", "smooth", "--cases", "10", "--tol-rel", "1e-16", "--tol-abs", tol_abs]
        )
        assert payload["params"]["tol_abs"] == float(tol_abs)
        return [law["status"] for law in payload["laws"] if law["id"] in laws]

    assert statuses("1e-16") == ["fail"] * len(laws)
    assert statuses("1e-3") == ["pass"] * len(laws)


def test_tol_rel_reaches_the_mixed_partials_check(tmp_path, monkeypatch):
    # gauss3's closed form off by 1e-9 along the second coordinate: L6 compares at --tol-rel
    builtin_corpus = sm.builtin_corpus

    def corpus():
        maps = builtin_corpus()
        for f in maps:
            if f.label == "gauss3":

                def off(x, v, exact=f.exact_derivative):
                    w = np.array(v)
                    w[1] = w[1] * (1.0 + 1e-9)
                    return exact(x, w)

                f.exact_derivative = off
        return maps

    monkeypatch.setattr(sm, "builtin_corpus", corpus)
    status, payload = run_json(tmp_path, ["check", "smooth", "--cases", "10"])
    l6 = next(law for law in payload["laws"] if law["id"] == "L6")
    assert status == 1
    assert (l6["status"], l6["cases"]) == ("fail", 8)
    assert "mixed partials differ: map=gauss3" in l6["counterexample"]
    _status, payload = run_json(tmp_path, ["check", "smooth", "--cases", "10", "--tol-rel", "1e-6"])
    assert next(law for law in payload["laws"] if law["id"] == "L6")["status"] == "pass"


def test_calculator_minus_only_over_rational(capsys):
    assert cli.main(["poly", "--expr", "x - y"]) == 2
    assert "rational" in capsys.readouterr().err
    assert cli.main(["poly", "--expr", "x - y", "--semiring", "rational"]) == 0
    assert capsys.readouterr().out.strip() == "x + -1*y"


def test_calculator_parse_and_eval_errors(capsys):
    assert cli.main(["poly", "--expr", "d(x^2"]) == 2
    assert "position" in capsys.readouterr().err
    assert cli.main(["poly", "--expr", "int(x*y)"]) == 2
    capsys.readouterr()
    assert cli.main(["poly", "--expr", "q + 1"]) == 2
    capsys.readouterr()
    assert cli.main(["poly", "--expr", "K(d(x^2*y))"]) == 2
    assert "bundle" in capsys.readouterr().err


def test_list_laws(capsys):
    assert cli.main(["list-laws"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 24
    assert lines[0].startswith("L1 ")
    assert cli.main(["list-laws", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 24
    assert payload[11]["id"] == "L12"


POLY, REL, SMOOTH, CALC = "dctool.polyform", "dctool.wrel", "dctool.smoothnum", "dctool.exprcalc"

# argv of cli.main (None for a bare `import dctool`), the modules the command
# loads, and the modules it leaves out of sys.modules
IMPORT_CASES = {
    "import": (None, (), (POLY, REL, SMOOTH, CALC, "numpy", "dataclasses")),
    "check-poly": (["check", "poly", "--cases", "5"], (POLY,), (REL, SMOOTH, CALC, "numpy", "dataclasses")),
    "check-rel": (["check", "rel", "--cases", "5"], (REL,), (POLY, SMOOTH, CALC, "numpy", "dataclasses")),
    "calculator": (["poly", "--expr", "K(x*y)"], (POLY, CALC), (REL, SMOOTH, "numpy", "dataclasses")),
    "list-laws": (["list-laws"], (), (POLY, REL, SMOOTH, CALC, "numpy", "dataclasses")),
    "check-smooth": (["check", "smooth", "--cases", "5"], (SMOOTH, "numpy"), (POLY, REL, CALC, "dataclasses")),
}


@pytest.mark.parametrize("argv, loaded, left_out", list(IMPORT_CASES.values()), ids=list(IMPORT_CASES))
def test_only_the_smooth_model_imports_numpy(argv, loaded, left_out):
    # each command imports its own model only; a fresh interpreter, since this one has them all
    names = loaded + left_out
    if argv is None:
        code = f"import sys, dctool; print(0, *(m in sys.modules for m in {names!r}))"
    else:
        code = (
            "import contextlib, io, sys\n"
            "from dctool import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    status = cli.main({argv!r})\n"
            f"print(status, *(m in sys.modules for m in {names!r}))\n"
        )
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, *present = proc.stdout.split()
    assert status == "0"
    assert dict(zip(names, present)) == {m: str(m in loaded) for m in names}


def test_the_smooth_binding_keeps_its_old_names():
    # the names bench/ reads: bindings.make_smooth_binding imports smoothnum at its first call, and
    # dctool.make_smooth_binding at its first use
    cfg = sm.QuadratureConfig(order=8)
    for make in (bindings.make_smooth_binding, dctool.make_smooth_binding):
        binding = make(cfg, max_dim=2)
        assert binding.params == sm.make_smooth_binding(cfg, max_dim=2).params == {
            "max_dim": 2, "order": 8, "tol_abs": 1e-12, "tol_rel": 1e-10,
        }
