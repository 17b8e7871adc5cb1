"""Command line: golden JSON reports, exit codes, and the calculator."""

import importlib
import inspect
import json
import os
import random
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


def test_golden_check_poly_sabotage(tmp_path):
    """A failing report: the rendered coefficients of every counterexample are pinned."""
    status, payload = run_json(tmp_path, ["check", "poly", "--seed", "42", "--sabotage"])
    assert status == 1
    assert payload == load_golden("check_poly_sabotage_seed42.json")


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
        ["poly", "--vars", "0"],
        ["poly", "--output", "{tmp}/missing/report.json"],
        ["rel", "--base-size", "7"],
        ["rel", "--truncation", "2"],
        ["smooth", "--tol-rel", "nan"],
        # refused by QuadratureConfig before any node or batch is built
        ["smooth", "--order", "1025"],
        ["smooth", "--order", "10000000000"],
    ],
    ids=[
        "zero-cases", "negative-cases", "zero-degree", "zero-vars", "unwritable-output", "base-size-above-limit",
        "truncation-at-the-margin", "nan-tol-rel",
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


def test_calculator_size_is_the_lowest_terms_coefficient_formula():
    """`_size` reads `num` and `den` but counts the words of each coefficient in lowest terms."""
    from fractions import Fraction

    import dctool.polyform as pf

    def by_coefficients(p):
        return sum(1 + (c.numerator.bit_length() + c.denominator.bit_length()) // 64 for c in p.terms.values())

    rng, unreduced = random.Random(18), 0
    for rig in RIGS.values():
        big = rig.one if rig.name == "boolean" else Fraction(2**61 + 1, 3**25)
        for _ in range(40):
            p = pf.random_poly(rng, rig, 3, 5)
            q = pf.J_inv_op(p * pf.random_poly(rng, rig, 3, 5) * p).scale(big)
            for r in (p, q, q * q, q + pf.K_inv_op(q)):
                assert exprcalc._size(r) == by_coefficients(r), r
                naive = sum(1 + (n.bit_length() + r.den.bit_length()) // 64 for n in r.num.values())
                unreduced += naive != exprcalc._size(r)
    # the sum of the bit lengths of num and den would have moved the budget
    assert unreduced


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


def test_smooth_takes_one_tolerance_and_reports_only_it(tmp_path, capsys):
    # every law's bound is tol_rel * max(1, |lhs|, |rhs|); there is no absolute floor to set
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "smooth", "--tol-abs", "1e-9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol-abs 1e-9" in capsys.readouterr().err
    _status, payload = run_json(tmp_path, ["check", "smooth", "--cases", "10"])
    assert list(payload["params"]) == ["max_dim", "order", "tol_rel"]


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


@pytest.mark.parametrize("expr, value", [("x*y", "x*y"), ("d(x^2)", "2*x")])
def test_calculator_coord_of_a_polynomial_is_its_only_coordinate(expr, value, capsys):
    # a one-variable `d` returns a polynomial, not a bundle
    assert cli.main(["poly", "--expr", expr, "--coord", "1"]) == 0
    assert capsys.readouterr().out == value + "\n"
    for coord in ("0", "2"):
        assert cli.main(["poly", "--expr", expr, "--coord", coord]) == 2
        assert capsys.readouterr().err == "dctool: --coord must be between 1 and 1\n"


def test_calculator_minus_only_over_rational(capsys):
    assert cli.main(["poly", "--expr", "x - y"]) == 2
    assert "rational" in capsys.readouterr().err
    assert cli.main(["poly", "--expr", "x - y", "--semiring", "rational"]) == 0
    assert capsys.readouterr().out.strip() == "x + -1*y"


def test_calculator_refuses_more_variables_than_it_names(capsys):
    """x, y, z and w name at most four variables: a larger count is refused before any work, however large."""
    assert cli.main(["poly", "--expr", "d(x*y)", "--vars", "4"]) == 0
    assert capsys.readouterr().out == "[y, x, 0, 0]\n"
    for expr, count in (("x", "5"), ("d(x*y)", "1000000")):
        assert cli.main(["poly", "--expr", expr, "--vars", count]) == 2
        message = f"dctool: the variable count must be at most 4, the names x, y, z, w, not {count}\n"
        assert capsys.readouterr() == ("", message)


def test_calculator_parse_and_eval_errors(capsys):
    assert cli.main(["poly", "--expr", "d(x^2"]) == 2
    assert "position" in capsys.readouterr().err
    assert cli.main(["poly", "--expr", "int(x*y)"]) == 2
    assert capsys.readouterr().err == "dctool: int needs a one-variable expression\n"
    assert cli.main(["poly", "--expr", "int(x)", "--vars", "2"]) == 2
    assert capsys.readouterr().err == "dctool: int needs a one-variable expression\n"
    # `1` names no variable: the count itself is refused
    for count in ("0", "-1"):
        assert cli.main(["poly", "--expr", "1", "--vars", count]) == 2
        assert capsys.readouterr().err == f"dctool: the variable count must be at least 1, not {count}\n"
    assert cli.main(["poly", "--expr", "q + 1"]) == 2
    capsys.readouterr()
    assert cli.main(["poly", "--expr", "K(d(x^2*y))"]) == 2
    assert "bundle" in capsys.readouterr().err


@pytest.mark.parametrize(
    "expr, message",
    [
        ("x y", "trailing input starting at 'y' (at position 2)"),
        ("1/0", "zero denominator (at position 2)"),
        ("x + )", "unexpected token ')' (at position 4)"),
        ("s(x, q)", "unknown variable 'q' (at position 5)"),
    ],
    ids=["trailing-input", "zero-denominator", "unexpected-token", "unknown-variable"],
)
def test_calculator_parse_errors_name_the_fault_and_its_position(expr, message, capsys):
    assert cli.main(["poly", "--expr", expr]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"dctool: {message}\n"


def test_calculator_constants_reach_the_rig_in_lowest_terms(monkeypatch, capsys):
    # over the naturals only 1 has an inverse: 4/2 and 0/5 need none once reduced, 1/2 needs one
    monkeypatch.setitem(RIGS, "nonneg-rational", NaturalRig())
    for expr, value in (("4/2", "2"), ("0/5", "0")):
        assert cli.main(["poly", "--expr", expr]) == 0
        assert capsys.readouterr().out == value + "\n"
    assert cli.main(["poly", "--expr", "1/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dctool: 2 (as a sum of ones) is not invertible in nonneg-rational; {cli.NOT_INVERTIBLE_HINT}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # the '-' is read before the unfinished parenthesis
        (["--expr", "x - ("], "'-' is not available over nonneg-rational; use the rational field"),
        # the bundle meets K before the unfinished parenthesis is read
        (["--expr", "K(d(x*y)) + ("], "a coordinate bundle cannot feed another operator"),
        # the variable count is checked before any token is read
        (["--expr", "w + (", "--vars", "2"], "variable 'w' does not fit in 2 variable(s)"),
        # an unreadable character comes before the variable count
        (["--expr", "w + $", "--vars", "2"], "unexpected character '$' (at position 4)"),
    ],
    ids=["minus-then-syntax", "bundle-then-syntax", "count-then-syntax", "character-then-count"],
)
def test_calculator_reports_the_first_of_two_faults(argv, message, capsys):
    assert cli.main(["poly", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"dctool: {message}\n"


NINES = "9" * 4300  # the largest number of at most 4,300 digits


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--expr", "1" * 4301], "a number longer than 4300 digits (at position 0)"),
        (["--expr", "x + 1/" + "3" * 4301], "a number longer than 4300 digits (at position 6)"),
        # the number is read with the characters, before the variable count
        (["--expr", "w + " + "1" * 5000, "--vars", "2"], "a number longer than 4300 digits (at position 4)"),
        (["--expr", "10^4300"], "a coefficient of the result has more than 4300 digits"),
        (["--expr", "2^16000", "--semiring", "rational"], "a coefficient of the result has more than 4300 digits"),
        # 1/2^14300: the denominator has 4305 digits
        (["--expr", "(1/2*x)^14300"], "a coefficient of the result has more than 4300 digits"),
        # exponents of 4,301 and 8,600 digits, each under the work budget
        (["--expr", f"x^{NINES}*x^{NINES}"], "an exponent of the result has more than 4300 digits"),
        (["--expr", f"(x^{NINES})^{NINES}"], "an exponent of the result has more than 4300 digits"),
        (["--expr", "\u00b2"], "unexpected character '\u00b2' (at position 0)"),
        (["--expr", "x*\u0663"], "unexpected character '\u0663' (at position 2)"),
    ],
    ids=["literal", "denominator-literal", "literal-then-count", "result", "result-rational", "result-den",
         "result-exponent", "result-power-exponent", "superscript-two", "arabic-indic-three"],
)
def test_calculator_refuses_a_number_past_the_digit_cap_or_not_in_ascii_digits(argv, message, capsys):
    """The calculator checks its numbers itself: the same refusal whatever the interpreter's own limit."""
    default = sys.get_int_max_str_digits()
    for limit in (default, 0):  # 0: the interpreter converts a number of any length
        sys.set_int_max_str_digits(limit)
        try:
            assert cli.main(["poly", *argv]) == 2
        finally:
            sys.set_int_max_str_digits(default)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"dctool: {message}\n"


@pytest.mark.parametrize(
    "expr, value",
    [("1" * 4300, 10**4300 // 9), ("10^4299", 10**4299), ("2^14000", 2**14000), (f"x^{NINES}", f"x^{NINES}")],
)
def test_calculator_prints_a_number_at_the_digit_cap(expr, value, capsys):
    """4,300 digits, the cap, in a coefficient or an exponent, and the 4,215 of 2^14000 print."""
    assert cli.main(["poly", "--expr", expr]) == 0
    assert capsys.readouterr().out == f"{value}\n"


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


def test_the_names_bench_reads_from_bindings_are_the_model_modules_own():
    from dctool import polyform, wrel

    importlib.reload(bindings)  # as a fresh import finds them, before any call
    assert sorted(bindings.__all__) == sorted(
        ["make_poly_binding", "make_rel_binding", "make_smooth_binding", "mat_compose", "perm_matrix", "tensor"]
    )
    homes = {"make_poly_binding": polyform, "make_smooth_binding": sm}
    for name in bindings.__all__:
        assert getattr(bindings, name) is getattr(homes.get(name, wrel), name), name


def test_the_smooth_binding_keeps_its_old_names():
    # the names bench/ reads: dctool.make_smooth_binding imports smoothnum at its first use
    cfg = sm.QuadratureConfig(order=8)
    for make in (bindings.make_smooth_binding, dctool.make_smooth_binding):
        binding = make(cfg, max_dim=2)
        assert binding.params == sm.make_smooth_binding(cfg, max_dim=2).params == {
            "max_dim": 2, "order": 8, "tol_rel": 1e-10,
        }


def test_check_flag_defaults_are_the_binding_and_suite_defaults():
    """`dctool check <model>` without a size flag builds the binding `make_*_binding` builds with its
    own defaults, and runs `run_suite` at that function's default cases and seed: two copies of each
    default, kept equal here."""
    from dctool import lawsuite, polyform, wrel

    parser = cli.build_parser()
    suite = inspect.signature(lawsuite.run_suite).parameters
    makes = {"poly": polyform.make_poly_binding, "rel": wrel.make_rel_binding, "smooth": sm.make_smooth_binding}
    for model, make in makes.items():
        args = parser.parse_args(["check", model])
        by_default = make() if model == "smooth" else make(RIGS[args.semiring])
        assert cli._make_binding(args).params == by_default.params, model
        assert (args.cases, args.seed) == (suite["cases"].default, suite["seed"].default), model
