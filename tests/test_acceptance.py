"""Top-level acceptance gate.

Nine criteria, each asserted at its stated tolerance and runtime bound, with
one visible pass/fail line per criterion.
"""

import json
import random
import time

import numpy as np

import dctool.polyform as pf
import dctool.smoothnum as sm
import dctool.wrel as wr
from dctool import cli, lawsuite
from dctool.polyform import Polynomial, make_poly_binding, random_poly
from dctool.rig import BOOLEAN, NONNEG_RATIONAL, RATIONAL
from dctool.wrel import BagSpace, BaseSet, make_rel_binding


def is_identity(op, points):
    """Whether column b of the column operator `op` is the bag b, weighted one, for every b in `points`."""
    return all(op.column(b) == {b: op.rig.one} for b in points)


def announce(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"\n[ACCEPTANCE {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_acceptance_1_polynomial_ftc2(capsys):
    t0 = time.perf_counter()
    rng = random.Random(42)
    ok = True
    for _ in range(200):
        arity = rng.randint(1, 4)
        p = random_poly(rng, NONNEG_RATIONAL, arity, 6)
        if pf.s_op(pf.grad(p)) + pf.eval0(p) != p:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    announce(capsys, 1, ok, f"200 exact FTC2 round-trips in {elapsed:.2f}s (< 10s)")


def test_acceptance_2_unit_identity_D8(capsys):
    t0 = time.perf_counter()
    u = wr.operators_rel(wr.UNIT_BASE, NONNEG_RATIONAL, 8)
    ok = is_identity(u.seq(u.s, u.d) + u.bang0, BagSpace(wr.UNIT_BASE, 8).points())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    announce(capsys, 2, ok, f"unit s·d + !(0) = identity at D=8, exact, {elapsed:.3f}s (< 1s)")


def test_acceptance_3_general_bags(capsys):
    t0 = time.perf_counter()
    base = BaseSet(("a", "b", "c"))
    o = wr.operators_rel(base, NONNEG_RATIONAL, 5)
    bags = BagSpace(base, 5).points()
    ok = is_identity(o.seq(o.s, o.d) + o.bang0, bags) and is_identity(o.seq(o.K_inv, o.K), bags)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    announce(capsys, 3, ok, f"|X|=3, D=5 FTC2 and K-inverse identities exact, {elapsed:.2f}s (< 30s)")


def test_acceptance_4_idempotent_collapse(capsys):
    t0 = time.perf_counter()
    base = BaseSet(("a", "b", "c"))
    o = wr.operators_rel(base, BOOLEAN, 5)
    ok = all(o.s.column(c) == o.dc.column(c) for c in o.s.col_space.points())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    announce(capsys, 4, ok, f"Boolean integral equals the coderive entrywise, {elapsed:.3f}s (< 5s)")


def test_acceptance_5_unit_reconstruction_round_trip(capsys):
    t0 = time.perf_counter()
    ok = True
    # polynomial side: the unit J-inverse formula and the reconstructions of
    # K^{-1}, J^{-1} and s from the unit, as the law table states them
    for variables in (1, 2, 3):
        binding = make_poly_binding(NONNEG_RATIONAL, variables=variables, max_degree=5)
        for law_id in ("L14", "L17"):
            ok = ok and lawsuite.run_law(law_id, binding, cases=100, seed=5).status == "pass"
    # converse: the integral extracted from the K-inverse satisfies FTC2
    rng = random.Random(5)
    if ok:
        x = Polynomial.variable(NONNEG_RATIONAL, 1, 0)
        for _ in range(100):
            q = random_poly(rng, NONNEG_RATIONAL, 1, 6)
            s_prime = pf.K_inv_op(x * pf.grad(q).components[0])
            if s_prime + pf.eval0(q) != q:
                ok = False
                break
    # relational side
    if ok:
        binding = make_rel_binding(NONNEG_RATIONAL, base_size=2, truncation=4)
        ok = lawsuite.run_law("L17", binding, cases=100, seed=5).status == "pass"
    if ok:
        u = wr.operators_rel(wr.UNIT_BASE, NONNEG_RATIONAL, 4)
        lhs = u.seq(u.seq(u.K_inv, u.dc), u.d) + u.bang0
        ok = is_identity(lhs, BagSpace(wr.UNIT_BASE, 4).points())
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    announce(capsys, 5, ok, f"unit-data reconstructions equal direct operators on both exact models, {elapsed:.2f}s (< 30s)")


def test_acceptance_6_full_exact_suites(capsys):
    t0 = time.perf_counter()
    poly_reports = lawsuite.run_suite(make_poly_binding(NONNEG_RATIONAL), cases=50, seed=0)
    rel_reports = lawsuite.run_suite(make_rel_binding(NONNEG_RATIONAL), cases=50, seed=0)
    ok = lawsuite.all_pass(poly_reports) and lawsuite.all_pass(rel_reports)
    # failure reporting contract: a broken model yields a rendered counterexample
    bad = lawsuite.run_suite(
        make_poly_binding(NONNEG_RATIONAL, sabotage=True), cases=10, seed=0
    )
    failing = [r for r in bad if r.status == "fail"]
    ok = ok and failing and all(r.counterexample for r in failing)
    elapsed = time.perf_counter() - t0
    ok = bool(ok) and elapsed < 60.0
    announce(capsys, 6, ok, f"L1-L23 pass on both exact models, failures render counterexamples, {elapsed:.2f}s (< 60s)")


def test_acceptance_7_numerical_residuals(capsys):
    t0 = time.perf_counter()
    cfg = sm.QuadratureConfig(order=32)
    corpus = sm.builtin_corpus()
    rng = random.Random(7)
    ok = True
    for f in corpus:
        for _ in range(100):
            x = sm.sample_point(rng, f.in_dim)
            # S[Df](x) + f(0) - f(x)
            residual = np.max(np.abs(sm.line_integral_S(sm.bilinearize(f), x, cfg) + f(np.zeros_like(x)) - f(x)))
            if residual > 1e-10 * (1.0 + float(np.linalg.norm(f(x)))):
                ok = False
                break
        if not ok:
            break
    if ok:
        for f in corpus:
            for _ in range(20):
                x = sm.sample_point(rng, f.in_dim)
                v = sm.sample_point(rng, f.in_dim)
                fd = sm.fd_directional_derivative(f, x, v)
                if not sm.rel_close(fd, f.exact_derivative(x, v), 1e-6):
                    ok = False
                    break
            if not ok:
                break
    if ok:
        potentials = [f for f in corpus if f.out_dim == 1 and f.in_dim >= 2]
        for f in potentials:
            field = sm.bilinearize(f)
            integral = sm.SmoothMap(f.in_dim, 1, lambda z, field=field: sm.line_integral_S(field, z, cfg), "S")
            for _ in range(20):
                x = sm.sample_point(rng, f.in_dim)
                v = sm.sample_point(rng, f.in_dim)
                scale = 1.0 + float(np.max(np.abs(field(x, v))))
                # D[S[field]](x, v) - field(x, v)
                residual = np.max(np.abs(sm.fd_directional_derivative(integral, x, v) - field(x, v)))
                if residual > 1e-6 * scale:
                    ok = False
                    break
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 20.0
    announce(capsys, 7, ok, f"numerical FTC2/derivative/Poincare residuals within bounds, {elapsed:.2f}s (< 20s)")


def test_acceptance_8_taylor_consequence(capsys):
    rng = random.Random(8)
    ok = True
    minus_one = RATIONAL.neg(RATIONAL.one)
    for _ in range(100):
        p = random_poly(rng, RATIONAL, 3, 5)
        q = p + Polynomial.const(RATIONAL, 3, RATIONAL.sample(rng))
        if pf.grad(p) != pf.grad(q):
            ok = False
            break
        if p + pf.eval0(p).scale(minus_one) != q + pf.eval0(q).scale(minus_one):
            ok = False
            break
    if ok:
        for _ in range(100):
            p = random_poly(rng, NONNEG_RATIONAL, 3, 5)
            q = p + Polynomial.const(NONNEG_RATIONAL, 3, NONNEG_RATIONAL.sample(rng))
            if p + pf.eval0(q) != q + pf.eval0(p):
                ok = False
                break
    announce(capsys, 8, ok, "maps with equal derivatives differ by their value at zero, exactly")


def test_acceptance_9_cli_contract(capsys, tmp_path):
    import os

    golden_dir = os.path.join(os.path.dirname(__file__), "golden")

    def norm(payload):
        payload["total_ms"] = 0.0
        for law in payload["laws"]:
            law["ms"] = 0.0
        return payload

    ok = True
    for argv, golden in (
        (["check", "poly", "--seed", "42"], "check_poly_seed42.json"),
        (["check", "rel", "--seed", "42", "--semiring", "boolean"], "check_rel_boolean_seed42.json"),
    ):
        out = tmp_path / golden
        status = cli.main(argv + ["--format", "json", "--output", str(out)])
        with open(os.path.join(golden_dir, golden)) as fh:
            expected = norm(json.load(fh))
        got = norm(json.loads(out.read_text()))
        ok = ok and status == 0 and got == expected
    # exit-status contract, including the negative control
    sab = tmp_path / "sab.json"
    ok = ok and cli.main(
        ["check", "poly", "--seed", "42", "--sabotage", "--format", "json", "--output", str(sab)]
    ) == 1
    try:
        cli.main(["check", "nosuchmodel"])
        ok = False
    except SystemExit as exc:
        ok = ok and exc.code == 2
    announce(capsys, 9, ok, "golden JSON reports match and exit codes are 0/1/2 as specified")
