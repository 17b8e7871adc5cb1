"""Polynomial model: frozen operator oracles plus property checks.

Derivative claims are cross-checked by an independent formal-limit oracle
(difference quotient in a fresh variable, evaluated at zero), so the gradient
code never validates itself.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dctool.polyform as pf
from dctool import lawsuite
from dctool.polyform import Polynomial, PolyBundle, PolyMap, make_poly_binding, random_poly
from dctool.rig import BOOLEAN, NONNEG_RATIONAL, RATIONAL, NonNegRationalRig

R = NONNEG_RATIONAL
Q = RATIONAL


def poly(rig, arity, terms):
    return Polynomial(rig, arity, {tuple(k): Fraction(v) for k, v in terms.items()})


def limit_partial(p, i):
    """Independent derivative oracle: (p(x_i + t) - p(x)) / t at t = 0.

    Computed as an exact polynomial in an appended variable t, so no finite
    step enters.
    """
    rig = p.rig
    n = p.arity
    wide = pf.extend_arity(p, n + 1, 0)
    args = [Polynomial.variable(rig, n + 1, j) for j in range(n)]
    args[i] = args[i] + Polynomial.variable(rig, n + 1, n)
    shifted = pf.substitute(wide, args + [Polynomial.zero(rig, n + 1)])
    diff_terms = {}
    for exps, c in shifted.terms.items():
        base = exps[:n]
        if base in wide.terms and exps[n] == 0:
            continue  # cancelled by subtracting p itself
        diff_terms[exps] = c
    # divide by t: keep only t-degree >= 1 terms, shift down, evaluate t = 0
    out = {}
    for exps, c in diff_terms.items():
        k = exps[n]
        if k == 0:
            continue
        if k == 1:
            key = exps[:n]
            out[key] = rig.add(out[key], c) if key in out else c
    return Polynomial(rig, n, out)


# -- multiplication ----------------------------------------------------------


def test_product_examples():
    x_plus_1 = poly(Q, 1, {(1,): 1, (0,): 1})
    assert x_plus_1 * x_plus_1 == poly(Q, 1, {(2,): 1, (1,): 2, (0,): 1})
    p = poly(R, 2, {(1, 1): 3})
    assert (p * Polynomial.zero(R, 2)).is_zero()
    x_plus_y = poly(R, 2, {(1, 0): 1, (0, 1): 1})
    y = Polynomial.variable(R, 2, 1)
    prod = x_plus_y * y
    assert prod == poly(R, 2, {(1, 1): 1, (0, 2): 1})
    rng = random.Random(7)
    for _ in range(5):
        pt = (R.sample(rng), R.sample(rng))
        assert prod.evaluate(pt) == R.mul(x_plus_y.evaluate(pt), y.evaluate(pt))


# -- gradient ----------------------------------------------------------------


def test_grad_examples():
    p = poly(R, 1, {(2,): 3, (1,): 1})
    assert pf.grad(p).components[0] == poly(R, 1, {(1,): 6, (0,): 1})
    q = poly(R, 2, {(2, 1): 1})
    assert pf.grad(q).components[0] == poly(R, 2, {(1, 1): 2})
    assert pf.grad(q).components[1] == poly(R, 2, {(2, 0): 1})
    assert pf.grad(Polynomial.const(R, 3, Fraction(9))).is_zero()


def test_grad_matches_formal_limit_oracle():
    rng = random.Random(11)
    for _ in range(60):
        arity = rng.randint(1, 3)
        p = random_poly(rng, R, arity, 5)
        g = pf.grad(p)
        for i in range(arity):
            assert g.components[i] == limit_partial(p, i), p.render()


# -- mul_in / eval0 ----------------------------------------------------------


def test_mul_in_examples():
    assert pf.mul_in(PolyBundle((Polynomial.one(R, 1),))) == Polynomial.variable(R, 1, 0)
    b = PolyBundle((Polynomial.variable(R, 2, 1), Polynomial.variable(R, 2, 0)))
    assert pf.mul_in(b) == poly(R, 2, {(1, 1): 2})
    assert pf.mul_in(PolyBundle.zero(R, 2)).is_zero()


def test_eval0_examples():
    assert pf.eval0(poly(R, 2, {(2, 1): 1})).is_zero()
    assert pf.eval0(Polynomial.const(R, 1, Fraction(7))) == Polynomial.const(R, 1, Fraction(7))
    p = poly(R, 2, {(1, 0): 2, (0, 0): 5})
    assert pf.eval0(p) == Polynomial.const(R, 2, Fraction(5))


# -- K / J and inverses ------------------------------------------------------


def test_K_J_examples():
    x3 = poly(R, 1, {(3,): 1})
    assert pf.K_op(x3) == poly(R, 1, {(3,): 3})
    five = Polynomial.const(R, 1, Fraction(5))
    assert pf.K_op(five) == five
    p = poly(R, 1, {(1,): 1, (2,): 1})
    assert pf.J_op(p) == poly(R, 1, {(1,): 2, (2,): 3})


def test_inverse_examples():
    x3 = poly(R, 1, {(3,): 1})
    assert pf.K_inv_op(x3) == poly(R, 1, {(3,): Fraction(1, 3)})
    c = Polynomial.const(R, 2, Fraction(4, 5))
    assert pf.K_inv_op(c) == c
    x2y = poly(R, 2, {(2, 1): 1})
    assert pf.J_inv_op(x2y) == poly(R, 2, {(2, 1): Fraction(1, 4)})


def test_K_inverse_round_trip_on_200_random_polynomials():
    rng = random.Random(42)
    for _ in range(200):
        p = random_poly(rng, R, rng.randint(1, 4), 6)
        assert pf.K_op(pf.K_inv_op(p)) == p
        assert pf.K_inv_op(pf.K_op(p)) == p
        assert pf.J_op(pf.J_inv_op(p)) == p
        assert pf.J_inv_op(pf.J_op(p)) == p


def test_jinv_matches_unit_reconstruction():
    x2y = poly(R, 2, {(2, 1): 1})

    def s_unit(q):
        return pf.s_op(PolyBundle((q,)))

    assert pf.eval_at_one(pf.on_tag(s_unit, pf.t_grade(x2y))) == pf.J_inv_op(x2y)


# -- integration -------------------------------------------------------------


def test_integrate1_examples():
    assert pf.integrate1(poly(R, 1, {(2,): 1})) == poly(R, 1, {(3,): Fraction(1, 3)})
    assert pf.integrate1(Polynomial.zero(R, 1)).is_zero()
    assert pf.integrate1(poly(R, 1, {(0,): 1, (1,): 2})) == poly(R, 1, {(1,): 1, (2,): 1})


def test_integrate1_requires_one_variable():
    with pytest.raises(ValueError):
        pf.integrate1(poly(R, 2, {(1, 0): 1}))


def test_s_op_examples():
    assert pf.s_op(PolyBundle((Polynomial.one(R, 1),))) == Polynomial.variable(R, 1, 0)
    b = PolyBundle((Polynomial.variable(R, 2, 1), Polynomial.zero(R, 2)))
    assert pf.s_op(b) == poly(R, 2, {(1, 1): Fraction(1, 2)})
    assert pf.s_op(PolyBundle.zero(R, 3)).is_zero()


def test_ftc2_one_variable():
    rng = random.Random(3)
    for _ in range(100):
        p = random_poly(rng, R, 1, 6)
        assert pf.integrate1(pf.grad1(p)) + pf.eval0(p) == p


def test_ftc1_at_unit():
    rng = random.Random(4)
    for _ in range(100):
        p = random_poly(rng, R, 1, 6)
        assert pf.grad1(pf.integrate1(p)) == p


def test_one_variable_operators_are_the_general_ones_at_arity_one():
    x = Polynomial.variable(R, 1, 0)
    rng = random.Random(6)
    for _ in range(200):
        q = random_poly(rng, R, 1, 6)
        assert pf.s_op(PolyBundle((q,))) == pf.integrate1(q)
        assert pf.grad(q) == PolyBundle((pf.grad1(q),))
        assert pf.mul_in(PolyBundle((q,))) == x * q


def test_ftc2_any_arity():
    rng = random.Random(5)
    for _ in range(100):
        p = random_poly(rng, R, rng.randint(1, 4), 6)
        assert pf.s_op(pf.grad(p)) + pf.eval0(p) == p


def test_poincare_symmetric_bundles():
    rng = random.Random(6)
    for _ in range(50):
        q = random_poly(rng, R, 3, 5)
        b = pf.grad(q)
        assert pf.grad(pf.s_op(b)) == b


# -- grading maps ------------------------------------------------------------


def test_t_grade_examples():
    # the tag t is variable 0 of the tagged polynomial
    x2y = poly(R, 2, {(2, 1): 1})
    assert pf.t_grade(x2y) == poly(R, 3, {(3, 2, 1): 1})
    c = Polynomial.const(R, 2, Fraction(2))
    assert pf.t_grade(c) == poly(R, 3, {(0, 0, 0): 2})


def test_eval_at_one_examples():
    t2_xy = poly(R, 3, {(2, 1, 1): 1})
    xy = poly(R, 2, {(1, 1): 1})
    assert pf.eval_at_one(t2_xy) == xy
    rng = random.Random(8)
    for _ in range(50):
        p = random_poly(rng, R, rng.randint(1, 3), 5)
        assert pf.eval_at_one(pf.t_grade(p)) == p


# -- splitting ---------------------------------------------------------------


def test_seely_examples():
    p = poly(R, 2, {(1, 1): 1, (2, 0): 1})
    t = pf.seely_split(p, 1)
    assert t.terms == {((1,), (1,)): Fraction(1), ((2,), (0,)): Fraction(1)}
    assert pf.seely_merge(t) == p
    c = Polynomial.const(R, 2, Fraction(3))
    tc = pf.seely_split(c, 1)
    assert tc.terms == {((0,), (0,)): Fraction(3)}
    x_tensor_y = pf.seely_split(poly(R, 2, {(1, 1): 1}), 1)
    assert pf.seely_merge(x_tensor_y) == poly(R, 2, {(1, 1): 1})


def test_seely_round_trips_random():
    rng = random.Random(9)
    for _ in range(50):
        arity = rng.randint(1, 4)
        k = rng.randint(0, arity)
        p = random_poly(rng, R, arity, 5)
        t = pf.seely_split(p, k)
        assert pf.seely_merge(t) == p
        assert pf.seely_split(pf.seely_merge(t), k) == t


# -- polynomial maps ---------------------------------------------------------


def test_cokleisli_compose_example():
    f = PolyMap(1, 1, (poly(R, 1, {(2,): 1}),))
    g = PolyMap(1, 1, (poly(R, 1, {(1,): 1, (0,): 1}),))
    assert pf.cokleisli_compose(g, f).coordinates[0] == poly(R, 1, {(2,): 1, (0,): 1})


def test_chain_rule_instance():
    # f(y) = y^2 after g(x) = x + 1: both derivative routes give 2(x+1)v
    f = PolyMap(1, 1, (poly(R, 1, {(2,): 1}),))
    g = PolyMap(1, 1, (poly(R, 1, {(1,): 1, (0,): 1}),))
    lhs = pf.cartesian_derivative(pf.cokleisli_compose(f, g))
    expected = poly(R, 2, {(1, 1): 2, (0, 1): 2})  # 2xv + 2v
    assert lhs.coordinates[0] == expected
    dg = pf.cartesian_derivative(g)
    lifted = tuple(pf.extend_arity(c, 2, 0) for c in g.coordinates)
    pairing = PolyMap(2, 2, lifted + dg.coordinates)
    rhs = pf.cokleisli_compose(pf.cartesian_derivative(f), pairing)
    assert lhs == rhs


def test_cartesian_derivative_of_linear_map_is_constant_in_x():
    m = PolyMap(
        2, 2,
        (
            poly(R, 2, {(1, 0): 2, (0, 1): 3}),
            poly(R, 2, {(0, 1): 1}),
        ),
    )
    dm = pf.cartesian_derivative(m)
    for c in dm.coordinates:
        assert all(not any(e[:2]) for e in c.terms)
    assert dm.coordinates[0] == poly(R, 4, {(0, 0, 1, 0): 2, (0, 0, 0, 1): 3})


def test_apply_linear_examples():
    p = poly(R, 2, {(2, 1): 1, (0, 1): 2})
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert pf.apply_linear(ident, p) == p
    zero_m = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert pf.apply_linear(zero_m, p) == pf.eval0(p)
    x2 = poly(R, 1, {(2,): 1})
    assert pf.apply_linear([[Fraction(2)]], x2) == poly(R, 1, {(2,): 4})


# -- canonical form ----------------------------------------------------------
# Operators build their results through the trusted `Polynomial._canonical`;
# each result must be what the validating public constructor makes of it.


def assert_canonical(out):
    assert isinstance(out, Polynomial)
    for exps, c in out.terms.items():
        assert type(exps) is tuple and len(exps) == out.arity, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert not out.rig.eq(c, out.rig.zero), exps
    revalidated = Polynomial(out.rig, out.arity, out.terms)
    assert revalidated == out and revalidated.terms == out.terms


def canonical_results(rig, rng):
    """Every internal polynomial operator applied to seeded inputs over `rig`."""
    p, q = random_poly(rng, rig, 3, 5), random_poly(rng, rig, 3, 5)
    b = PolyBundle(tuple(random_poly(rng, rig, 3, 4) for _ in range(3)))
    u = random_poly(rng, rig, 1, 6)
    tagged = pf.t_grade(p) + random_poly(rng, rig, 4, 5)
    k = rng.randint(0, 3)
    args = (random_poly(rng, rig, 2, 2), random_poly(rng, rig, 2, 2), random_poly(rng, rig, 2, 2))
    matrix = [[rig.nat_value(rng.randint(0, 3)) for _ in range(3)] for _ in range(2)]
    yield "+", p + q
    yield "*", p * q
    yield "scale", p.scale(rig.sample(rng))
    yield "scale by zero", p.scale(rig.zero)
    yield from (("grad", c) for c in pf.grad(p).components)
    yield "mul_in", pf.mul_in(b)
    yield "K", pf.K_op(p)
    yield "J", pf.J_op(p)
    yield "K inverse", pf.K_inv_op(p)
    yield "J inverse", pf.J_inv_op(p)
    yield "integrate1", pf.integrate1(u)
    yield "t_grade", pf.t_grade(p)
    yield "eval_at_one", pf.eval_at_one(tagged)
    yield "on_tag", pf.on_tag(pf.integrate1, tagged)
    yield "on_tag", pf.on_tag(pf.K_inv_op, tagged)
    yield "seely_merge", pf.seely_merge(pf.seely_split(p, k))
    yield "extend_arity", pf.extend_arity(p, 5, rng.randint(0, 2))
    yield "substitute", pf.substitute(p, args)
    yield "apply_linear", pf.apply_linear(matrix, p)
    yield "zero", Polynomial.zero(rig, 3)
    yield "const", Polynomial.const(rig, 3, rig.sample(rng))
    yield "variable", Polynomial.variable(rig, 3, rng.randrange(3))


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_every_operator_returns_canonical_polynomials(rig):
    rng = random.Random(11)
    seen = set()
    for _ in range(40):
        for name, out in canonical_results(rig, rng):
            seen.add(name)
            assert_canonical(out)
    assert len(seen) == 21


def test_cancelling_sums_and_products_drop_zero_coefficients():
    rng = random.Random(5)
    for _ in range(50):
        p = random_poly(rng, Q, 3, 5)
        zero = p + p.scale(Fraction(-1))
        assert zero.is_zero() and zero.terms == {}
    x, y = Polynomial.variable(Q, 2, 0), Polynomial.variable(Q, 2, 1)
    square_difference = (x + y) * (x + y.scale(Fraction(-1)))
    assert_canonical(square_difference)
    assert square_difference == poly(Q, 2, {(2, 0): 1, (0, 2): -1})
    tagged = poly(Q, 2, {(1, 1): 1, (2, 1): -1})
    assert pf.eval_at_one(tagged).is_zero()
    assert pf.seely_merge(pf.SplitTensor(Q, 1, 1, {((1,), (1,)): Fraction(0)})).is_zero()
    # a zero that comes from outside is dropped over every rig, cancelling or not
    for rig in (R, BOOLEAN):
        split = pf.SplitTensor(rig, 1, 1, {((1,), (1,)): rig.zero, ((2,), (0,)): rig.one})
        merged = pf.seely_merge(split)
        assert_canonical(merged)
        assert merged.terms == {(2, 0): rig.one}
        p = Polynomial(rig, 2, {(1, 1): rig.one, (2, 0): rig.one})
        image = pf.apply_linear([[rig.one, rig.zero], [rig.zero, rig.one]], p)
        assert_canonical(image)
        assert image == p
        assert pf.apply_linear([[rig.zero, rig.zero]], p).is_zero()


def test_integer_coefficients_stay_ints():
    rng = random.Random(8)
    seen = 0
    for _ in range(30):
        p = Polynomial(R, 3, {k: R.nat_value(rng.randint(1, 9)) for k in random_poly(rng, R, 3, 5).terms})
        for out in (*pf.grad(p).components, pf.K_op(p), pf.J_op(p)):
            assert all(type(c) is int for c in out.terms.values()), out
            seen += len(out.terms)
    assert seen > 100


def test_public_constructor_still_validates():
    with pytest.raises(ValueError, match="does not match arity"):
        Polynomial(R, 2, {(1, 0, 0): Fraction(1)})
    with pytest.raises(ValueError, match="negative exponent"):
        Polynomial(R, 2, {(1, -1): Fraction(1)})
    p = Polynomial(R, 2, {(1, 0): Fraction(0), (0, 1): Fraction(2)})
    assert p.terms == {(0, 1): Fraction(2)}


def naive_substitute(p, args):
    """p(args) as a sum over terms of c * args[0] * ... (each factor repeated e times)."""
    rig, arity = p.rig, args[0].arity if args else 0
    acc = Polynomial.zero(rig, arity)
    for exps, c in p.terms.items():
        term = Polynomial.const(rig, arity, c)
        for a, e in zip(args, exps):
            for _ in range(e):
                term = term * a
        acc = acc + term
    return acc


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_substitute_matches_a_naive_term_by_term_product(rig):
    rng = random.Random(19)
    for _ in range(40):
        p = random_poly(rng, rig, 3, 6)
        p = p + Polynomial.const(rig, 3, rig.one) + Polynomial.variable(rig, 3, 1)  # exponents 0 in places
        a, b = random_poly(rng, rig, 2, 2), random_poly(rng, rig, 2, 2)
        for args in ((a, b, a), (a, a, a), (b, Polynomial.zero(rig, 2), a)):
            out = pf.substitute(p, args)
            assert_canonical(out)
            assert out == naive_substitute(p, args)
    constant = Polynomial(rig, 0, {(): rig.one})
    assert pf.substitute(constant, ()) == constant


def test_apply_linear_matches_substitution_of_linear_forms():
    rng = random.Random(23)
    for rig in (R, Q, BOOLEAN):
        for _ in range(20):
            p = random_poly(rng, rig, 3, 5)
            rows = rng.randint(1, 3)
            matrix = [[rig.sample(rng) for _ in range(3)] for _ in range(rows)]
            units = [Polynomial.variable(rig, rows, i) for i in range(rows)]
            images = [
                sum((units[i].scale(matrix[i][j]) for i in range(rows)), Polynomial.zero(rig, rows))
                for j in range(3)
            ]
            assert pf.apply_linear(matrix, p) == naive_substitute(p, images)


# -- property tests ----------------------------------------------------------


small_fraction = st.fractions(
    min_value=0, max_value=5, max_denominator=4
)


@st.composite
def polynomials(draw, arity=2, max_degree=4):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(
            draw(st.integers(min_value=0, max_value=max_degree)) for _ in range(arity)
        )
        terms[exps] = draw(small_fraction)
    return Polynomial(R, arity, terms)


@given(polynomials(), polynomials())
@settings(max_examples=60, deadline=None)
def test_leibniz_property(p, q):
    lhs = pf.grad(p * q)
    rhs = PolyBundle(tuple(p * c for c in pf.grad(q).components)) + PolyBundle(
        tuple(q * c for c in pf.grad(p).components)
    )
    assert lhs == rhs


@given(polynomials(arity=3))
@settings(max_examples=60, deadline=None)
def test_interchange_property(p):
    g = pf.grad(p)
    for i in range(3):
        for j in range(3):
            assert pf.grad(g.components[i]).components[j] == pf.grad(g.components[j]).components[i]


@given(polynomials(arity=1, max_degree=6))
@settings(max_examples=60, deadline=None)
def test_ftc_round_trip_property(p):
    assert pf.integrate1(pf.grad1(p)) + pf.eval0(p) == p
    assert pf.grad1(pf.integrate1(p)) == p


def test_taylor_both_forms():
    rng = random.Random(10)
    for _ in range(50):
        p = random_poly(rng, Q, 2, 5)
        c = Polynomial.const(Q, 2, Q.sample(rng))
        q = p + c
        assert pf.grad(p) == pf.grad(q)
        minus_one = Fraction(-1)
        assert p + pf.eval0(p).scale(minus_one) == q + pf.eval0(q).scale(minus_one)
        # additive form, no negatives needed
        assert p + pf.eval0(q) == q + pf.eval0(p)


def test_poly_suite_work_counts(monkeypatch):
    """A count, not a timing, at vars 4, degree 8, cases 10, seed 0.

    Re-validating operator results made 20,376 validated `Polynomial` builds,
    and the sum-of-ones `nat_value` with the fresh powers of `substitute` made
    11,962 rig additions.
    """
    counts = Counter()

    class CountingRig(NonNegRationalRig):
        def add(self, a, b):
            counts["add"] += 1
            return a + b

    init = Polynomial.__init__

    def counting_init(self, *args, **kwargs):
        counts["init"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Polynomial, "__init__", counting_init)
    binding = make_poly_binding(CountingRig(), variables=4, max_degree=8)
    assert lawsuite.all_pass(lawsuite.run_suite(binding, cases=10, seed=0))
    assert 0 < counts["add"] <= 6_000
    assert 0 < counts["init"] <= 10_000
