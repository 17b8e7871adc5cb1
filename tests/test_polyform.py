"""Polynomial model: frozen operator oracles plus property checks.

Derivative claims are cross-checked by an independent formal-limit oracle
(difference quotient in a fresh variable, evaluated at zero), so the gradient
code never validates itself.
"""

import functools
import random
from collections import Counter
from fractions import Fraction

import pytest
import stream_oracle
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


def s_unit(q):
    """The one-variable integral: s on the one-component bundle (q,)."""
    return pf.s_op(PolyBundle((q,)))


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
    [shifted] = pf.substitute([wide], args + [Polynomial.zero(rig, n + 1)])
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
    assert p * Polynomial.zero(R, 2) == Polynomial.zero(R, 2)
    x_plus_y = poly(R, 2, {(1, 0): 1, (0, 1): 1})
    y = Polynomial.variable(R, 2, 1)
    prod = x_plus_y * y
    assert prod == poly(R, 2, {(1, 1): 1, (0, 2): 1})
    rng = random.Random(7)
    for _ in range(5):
        pt = (R.sample(rng), R.sample(rng))
        assert at(R, prod.terms, pt) == R.mul(at(R, x_plus_y.terms, pt), at(R, y.terms, pt))


# -- gradient ----------------------------------------------------------------


def test_grad_examples():
    p = poly(R, 1, {(2,): 3, (1,): 1})
    assert pf.grad(p).components[0] == poly(R, 1, {(1,): 6, (0,): 1})
    q = poly(R, 2, {(2, 1): 1})
    assert pf.grad(q).components[0] == poly(R, 2, {(1, 1): 2})
    assert pf.grad(q).components[1] == poly(R, 2, {(2, 0): 1})
    assert pf.grad(Polynomial.const(R, 3, Fraction(9))) == PolyBundle.zero(R, 3)


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
    assert pf.mul_in(PolyBundle.zero(R, 2)) == Polynomial.zero(R, 2)


def test_eval0_examples():
    assert pf.eval0(poly(R, 2, {(2, 1): 1})) == Polynomial.zero(R, 2)
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
    assert pf.eval_at_one(pf.on_tag(s_unit, pf.t_grade(x2y))) == pf.J_inv_op(x2y)


# -- integration -------------------------------------------------------------


@pytest.mark.parametrize(
    "variables, max_degree, message", [(0, 6, "variables"), (-1, 6, "variables"), (3, 0, "max_degree")]
)
def test_binding_refuses_an_empty_size(variables, max_degree, message):
    with pytest.raises(ValueError, match=f"{message} must be >= 1"):
        make_poly_binding(R, variables=variables, max_degree=max_degree)


def test_integrate1_examples():
    # one variable: r*x^k -> r/(k+1) * x^(k+1)
    assert s_unit(poly(R, 1, {(2,): 1})) == poly(R, 1, {(3,): Fraction(1, 3)})
    assert s_unit(Polynomial.zero(R, 1)) == Polynomial.zero(R, 1)
    assert s_unit(poly(R, 1, {(0,): 1, (1,): 2})) == poly(R, 1, {(1,): 1, (2,): 1})


def test_s_op_examples():
    assert pf.s_op(PolyBundle((Polynomial.one(R, 1),))) == Polynomial.variable(R, 1, 0)
    b = PolyBundle((Polynomial.variable(R, 2, 1), Polynomial.zero(R, 2)))
    assert pf.s_op(b) == poly(R, 2, {(1, 1): Fraction(1, 2)})
    assert pf.s_op(PolyBundle.zero(R, 3)) == Polynomial.zero(R, 3)


def test_ftc2_one_variable():
    rng = random.Random(3)
    for _ in range(100):
        p = random_poly(rng, R, 1, 6)
        assert pf.s_op(pf.grad(p)) + pf.eval0(p) == p


def test_ftc1_at_unit():
    rng = random.Random(4)
    for _ in range(100):
        p = random_poly(rng, R, 1, 6)
        assert pf.grad(s_unit(p)) == PolyBundle((p,))


def test_one_variable_operators_are_the_general_ones_at_arity_one():
    """At one variable the general s, grad and mul_in are the textbook integral, derivative and x times."""
    x = Polynomial.variable(R, 1, 0)
    rng = random.Random(6)
    for _ in range(200):
        q = random_poly(rng, R, 1, 6)
        assert s_unit(q) == poly(R, 1, {(k + 1,): Fraction(c) / (k + 1) for (k,), c in q.terms.items()})
        assert pf.grad(q) == PolyBundle((poly(R, 1, {(k - 1,): k * c for (k,), c in q.terms.items() if k}),))
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


def cartesian_by_definition(f):
    """D[f] by its definition: coordinate i is `mul_in` of the 2n-component bundle
    (0, ..., 0, d f_i / d x_1, ..., d f_i / d x_n), each partial lifted to arity 2n."""
    n = 2 * f.in_arity
    zeros = (Polynomial.zero(f.rig, n),) * f.in_arity
    lifted = (tuple(pf.extend_arity(d, n) for d in pf.grad(c).components) for c in f.coordinates)
    return tuple(pf.mul_in(PolyBundle(zeros + partials)) for partials in lifted)


def _over_distinct_dens(grad):
    """`grad` with component j rewritten over j + 2 times its denominator: the same values, and no shared `den`."""
    def regrown(p):
        components = grad(p).components
        return PolyBundle(tuple(
            pf._canonical(c.rig, c.arity, {e: n * (j + 2) for e, n in c.num.items()}, c.den * (j + 2))
            for j, c in enumerate(components)
        ))

    return regrown


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_cartesian_derivative_is_mul_in_of_the_lifted_gradient(rig, monkeypatch):
    """Seeded maps of in-arity 1-3, each with a zero and a constant coordinate among random ones; over the
    rational rigs also with a gradient whose components hold different denominators."""
    rng = random.Random(21)
    mixed_dens = 0
    for regrown in (False, True) if rig is not BOOLEAN else (False,):
        with monkeypatch.context() as patch:
            if regrown:
                patch.setattr(pf, "grad", _over_distinct_dens(pf.grad))
            for _ in range(60):
                n = rng.randint(1, 3)
                coords = [random_poly(rng, rig, n, 4) for _ in range(rng.randint(1, 3))]
                coords += [Polynomial.zero(rig, n), Polynomial.const(rig, n, rig.sample(rng))]
                rng.shuffle(coords)
                f = PolyMap(n, len(coords), coords)
                derivative = pf.cartesian_derivative(f)
                assert (derivative.in_arity, derivative.out_arity) == (2 * n, f.out_arity)
                expected = cartesian_by_definition(f)
                assert derivative.coordinates == expected
                assert [dict(c.terms) for c in derivative.coordinates] == [dict(c.terms) for c in expected]
                for c in derivative.coordinates:
                    assert_canonical(c)
                mixed_dens += len({c.den for c in coords if c.num}) > 1
    assert (mixed_dens > 10) == (rig is not BOOLEAN)


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_linear_combination_is_the_sum_of_scaled_polynomials(rig):
    """Seeded coefficients, zeros among them, against a running sum of `scale` and `+`."""
    rng = random.Random(22)
    for _ in range(60):
        ps = [random_poly(rng, rig, 2, 4) for _ in range(rng.randint(1, 4))] + [Polynomial.zero(rig, 2)]
        coefficients = [rng.choice((rig.zero, rig.sample(rng))) for _ in ps]
        expected = Polynomial.zero(rig, 2)
        for c, p in zip(coefficients, ps):
            expected = expected + p.scale(c)
        out = pf.linear_combination(coefficients, ps)
        assert out == expected and dict(out.terms) == dict(expected.terms)
        assert_canonical(out)


def test_apply_linear_examples():
    p = poly(R, 2, {(2, 1): 1, (0, 1): 2})
    ident = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert pf.apply_linear(ident, [p]) == (p,)
    zero_m = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert pf.apply_linear(zero_m, [p, p]) == (pf.eval0(p), pf.eval0(p))
    x2 = poly(R, 1, {(2,): 1})
    assert pf.apply_linear([[Fraction(2)]], [x2]) == (poly(R, 1, {(2,): 4}),)
    assert pf.apply_linear([[Fraction(2)]], []) == ()


# -- canonical form ----------------------------------------------------------
# Operators build their results through the trusted `polyform._canonical`;
# each result must be what the validating public constructor makes of it.


def assert_canonical(out):
    assert isinstance(out, Polynomial)
    for exps, c in out.terms.items():
        assert type(exps) is tuple and len(exps) == out.arity, exps
        assert all(type(e) is int and e >= 0 for e in exps), exps
        assert not out.rig.eq(c, out.rig.zero), exps
    revalidated = Polynomial(out.rig, out.arity, out.terms)
    assert revalidated == out and revalidated.terms == out.terms


def canonical_inputs(rig, rng) -> dict:
    """The seeded inputs of `canonical_results` over `rig`, by name."""
    p, q = random_poly(rng, rig, 3, 5), random_poly(rng, rig, 3, 5)
    return {
        "p": p,
        "q": q,
        "b": PolyBundle(tuple(random_poly(rng, rig, 3, 4) for _ in range(3))),
        "u": random_poly(rng, rig, 1, 6),
        "tagged": pf.t_grade(p) + random_poly(rng, rig, 4, 5),
        "k": rng.randint(0, 3),
        "args": (random_poly(rng, rig, 2, 2), random_poly(rng, rig, 2, 2), random_poly(rng, rig, 2, 2)),
        "matrix": [[rig.nat_value(rng.randint(0, 3)) for _ in range(3)] for _ in range(2)],
    }


def canonical_results(rig, rng, inputs):
    """Every internal polynomial operator applied to `inputs` (from `canonical_inputs`) over `rig`."""
    p, q, b, u, tagged, k = (inputs[name] for name in ("p", "q", "b", "u", "tagged", "k"))
    args, matrix = inputs["args"], inputs["matrix"]
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
    yield "s at arity 1", s_unit(u)
    yield "t_grade", pf.t_grade(p)
    yield "eval_at_one", pf.eval_at_one(tagged)
    yield "on_tag", pf.on_tag(s_unit, tagged)
    yield "on_tag", pf.on_tag(pf.K_inv_op, tagged)
    yield "seely_merge", pf.seely_merge(pf.seely_split(p, k))
    yield "extend_arity", pf.extend_arity(p, 5, rng.randint(0, 2))
    yield from (("substitute", out) for out in pf.substitute((p, q), args))
    yield from (("apply_linear", out) for out in pf.apply_linear(matrix, (p, q)))
    f = PolyMap(3, 3, (p, q, b.components[0]))
    yield from (("cartesian_derivative", c) for c in pf.cartesian_derivative(f).coordinates)
    # the row sums of L23's right side
    images = pf.apply_linear(matrix, pf.grad(p).components)
    yield from (("linear_combination", pf.linear_combination(row, images)) for row in matrix)
    yield "zero", Polynomial.zero(rig, 3)
    yield "const", Polynomial.const(rig, 3, rig.sample(rng))
    yield "variable", Polynomial.variable(rig, 3, rng.randrange(3))


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_every_operator_returns_canonical_polynomials(rig):
    rng = random.Random(11)
    seen = set()
    for _ in range(40):
        for name, out in canonical_results(rig, rng, canonical_inputs(rig, rng)):
            seen.add(name)
            assert_canonical(out)
    assert len(seen) == 23


def _held(value) -> list:
    """A copy of (num, den) of every polynomial in `value`, a polynomial, bundle, map, list or tuple of them."""
    if isinstance(value, Polynomial):
        return [(dict(value.num), value.den)]
    parts = {PolyBundle: "components", PolyMap: "coordinates"}
    if type(value) in parts:
        value = getattr(value, parts[type(value)])
    return [held for v in value for held in _held(v)] if isinstance(value, (list, tuple)) else []


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_no_operator_changes_its_inputs(rig):
    """`+` may return an operand itself, and `_canonical` keeps the dict it is given, so a result may share
    an input's `num`: every input of `canonical_results` holds the same numerators after every operator ran."""
    rng = random.Random(12)
    for _ in range(40):
        inputs = canonical_inputs(rig, rng)
        before = {name: _held(v) for name, v in inputs.items()}
        results = list(canonical_results(rig, rng, inputs))
        assert results and {name: _held(v) for name, v in inputs.items()} == before


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_a_zero_summand_returns_the_other_operand(rig):
    rng = random.Random(13)
    zero = Polynomial.zero(rig, 3)
    for _ in range(30):
        p = random_poly(rng, rig, 3, 4)
        if p.num:
            assert p + zero is p and zero + p is p
        assert p + zero == p == zero + p
    assert zero + zero == zero and (zero + zero).num == {}
    x = Polynomial.variable(rig, 3, 0)
    for a, b in ((x, Polynomial.zero(rig, 2)), (Polynomial.zero(rig, 2), x), (zero, Polynomial.zero(rig, 2))):
        with pytest.raises(ValueError, match="arity mismatch"):
            a + b
    for arity in (1, 3):
        components = pf.grad(Polynomial.zero(rig, arity)).components
        assert len(components) == arity
        assert all(c.arity == arity and c == Polynomial.zero(rig, arity) for c in components)


def test_cancelling_sums_and_products_drop_zero_coefficients():
    rng = random.Random(5)
    for _ in range(50):
        p = random_poly(rng, Q, 3, 5)
        zero = p + p.scale(Fraction(-1))
        assert zero == Polynomial.zero(Q, 3) and zero.terms == {}
    x, y = Polynomial.variable(Q, 2, 0), Polynomial.variable(Q, 2, 1)
    square_difference = (x + y) * (x + y.scale(Fraction(-1)))
    assert_canonical(square_difference)
    assert square_difference == poly(Q, 2, {(2, 0): 1, (0, 2): -1})
    tagged = poly(Q, 2, {(1, 1): 1, (2, 1): -1})
    assert pf.eval_at_one(tagged) == Polynomial.zero(Q, 1)
    assert pf.seely_merge(pf.SplitTensor(Q, 1, 1, {((1,), (1,)): Fraction(0)})) == Polynomial.zero(Q, 2)
    # a zero that comes from outside is dropped over every rig, cancelling or not
    for rig in (R, BOOLEAN):
        split = pf.SplitTensor(rig, 1, 1, {((1,), (1,)): rig.zero, ((2,), (0,)): rig.one})
        merged = pf.seely_merge(split)
        assert_canonical(merged)
        assert merged.terms == {(2, 0): rig.one}
        p = Polynomial(rig, 2, {(1, 1): rig.one, (2, 0): rig.one})
        [image] = pf.apply_linear([[rig.one, rig.zero], [rig.zero, rig.one]], [p])
        assert_canonical(image)
        assert image == p
        assert pf.apply_linear([[rig.zero, rig.zero]], [p])[0] == Polynomial.zero(rig, 1)


def test_a_cancelling_sum_at_every_accumulation_site_leaves_no_zero():
    """Over `rational`, each summing operator meets a sum that cancels, and its result holds no zero numerator.

    Each result equals the polynomial the validating constructor builds from
    the plain sums, zeros included.  In the second product xy is hit three
    times: x*y, then y*(-x) cancels it, then 1*xy inserts it afresh.
    """
    x, y, one = Polynomial.variable(Q, 2, 0), Polynomial.variable(Q, 2, 1), Polynomial.one(Q, 2)
    z = Polynomial.variable(Q, 1, 0)
    p = random_poly(random.Random(3), Q, 2, 4) + x.scale(Fraction(1, 3))
    cases = [
        (p + p.scale(-1), {e: 0 for e in p.terms}),
        ((x + y.scale(-1)) * (x + y), {(2, 0): 1, (1, 1): 0, (0, 2): -1}),
        (
            (x + y + one) * (y + x.scale(-1) + x * y),
            {(1, 1): 1, (2, 0): -1, (2, 1): 1, (0, 2): 1, (1, 2): 1, (0, 1): 1, (1, 0): -1},
        ),
        (pf.mul_in(PolyBundle((y, x.scale(-1)))), {(1, 1): 0}),
        (pf.substitute([x + y.scale(-1)], (z, z))[0], {(1,): 0}),
        (pf.eval_at_one(poly(Q, 2, {(1, 1): 1, (0, 1): -1, (3, 0): 2})), {(1,): 0, (0,): 2}),
        (
            pf.linear_combination([Fraction(1, 2), Fraction(-1, 3), Fraction(0)], (x.scale(2) + y, x.scale(3), y)),
            {(1, 0): 0, (0, 1): Fraction(1, 2)},
        ),
    ]
    for out, plain in cases:
        assert 0 not in out.num.values(), out.num
        assert_canonical(out)
        assert out == Polynomial(Q, out.arity, plain)
    assert [cases[i][0] for i in (0, 3, 4)] == [Polynomial.zero(Q, 2), Polynomial.zero(Q, 2), Polynomial.zero(Q, 1)]


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


# -- representation: integer numerators over one shared denominator -----------


def at(rig, terms, point):
    """The sum of c * x^e over `terms` at `point`, term by term in the rig's own
    arithmetic: exact `Fraction` arithmetic over the rationals."""
    acc = rig.zero
    for exps, c in terms.items():
        for x, e in zip(point, exps):
            for _ in range(e):
                c = rig.mul(c, x)
        acc = rig.add(acc, c)
    return acc


def representation_cases(rig, rng):
    """(name, result, oracle) per operator; oracle(point) is the result's value at
    `point`, computed from the operands' `.terms` alone, never their `num` or `den`."""
    one, nat, inv = rig.one, rig.nat_value, rig.nat_inverse
    p, q = random_poly(rng, rig, 3, 5), random_poly(rng, rig, 3, 5)
    b = PolyBundle(tuple(random_poly(rng, rig, 3, 4) for _ in range(3)))
    tagged = pf.t_grade(p) + random_poly(rng, rig, 4, 5)
    args = tuple(random_poly(rng, rig, 3, 2) for _ in range(3))
    c = rig.sample(rng)

    def value(r):
        return lambda x: at(rig, r.terms, x)

    def weighted(r, weight, shift=lambda e: e):
        return lambda x: at(rig, {shift(e): rig.mul(weight(e), v) for e, v in r.terms.items()}, x)

    yield "+", p + q, lambda x: rig.add(value(p)(x), value(q)(x))
    yield "*", p * q, lambda x: rig.mul(value(p)(x), value(q)(x))
    yield "scale", p.scale(c), lambda x: rig.mul(c, value(p)(x))
    for i, component in enumerate(pf.grad(p).components):
        yield "grad", component, lambda x, i=i: at(
            rig, {e[:i] + (e[i] - 1,) + e[i + 1 :]: rig.mul(nat(e[i]), v) for e, v in p.terms.items() if e[i]}, x
        )
    yield "mul_in", pf.mul_in(b), lambda x: functools.reduce(
        rig.add, (rig.mul(xi, value(bi)(x)) for xi, bi in zip(x, b.components)), rig.zero
    )
    yield "K", pf.K_op(p), weighted(p, lambda e: nat(sum(e)) if sum(e) else one)
    yield "J", pf.J_op(p), weighted(p, lambda e: nat(sum(e) + 1))
    yield "K inverse", pf.K_inv_op(p), weighted(p, lambda e: inv(sum(e)) if sum(e) else one)
    yield "J inverse", pf.J_inv_op(p), weighted(p, lambda e: inv(sum(e) + 1))
    for r, out in zip((p, q), pf.substitute((p, q), args)):
        yield "substitute", out, lambda x, r=r: at(rig, r.terms, [value(a)(x) for a in args])
    yield "on_tag", pf.on_tag(pf.K_inv_op, tagged), weighted(tagged, lambda e: inv(e[0]) if e[0] else one)
    yield "on_tag", pf.on_tag(s_unit, tagged), weighted(
        tagged, lambda e: inv(e[0] + 1), lambda e: (e[0] + 1,) + e[1:]
    )


@pytest.mark.parametrize("rig", [R, Q, BOOLEAN], ids=lambda r: r.name)
def test_numerators_over_one_denominator_hold_the_operator_results(rig):
    rng = random.Random(29)
    seen = set()
    for _ in range(30):
        for name, out, oracle in representation_cases(rig, rng):
            seen.add(name)
            assert Polynomial(rig, out.arity, out.terms) == out, name
            for v in out.terms.values():
                expected = bool if rig is BOOLEAN else int if v.denominator == 1 else Fraction
                assert type(v) is expected, (name, v)
            assert rig is not BOOLEAN or out.den == 1, name
            for _ in range(3):
                point = tuple(rig.sample(rng) for _ in range(out.arity))
                assert rig.eq(at(rig, out.terms, point), oracle(point)), (name, point)
    assert seen == {"+", "*", "scale", "grad", "mul_in", "K", "J", "K inverse", "J inverse", "substitute", "on_tag"}


def test_a_denominator_is_reduced_only_past_the_bound():
    half = Polynomial(Q, 1, {(1,): Fraction(1, 2)})
    whole = half + half
    assert (whole.num, whole.den) == ({(1,): 2}, 2)  # lazily left as 2/2
    assert whole.terms == {(1,): 1} and type(whole.terms[(1,)]) is int
    assert whole == Polynomial.variable(Q, 1, 0)  # equal across denominators 2 and 1
    tiny = Polynomial(Q, 1, {(1,): Fraction(2, 2**40)})  # 1/2^39, held in lowest terms
    square = (tiny + tiny) * (tiny + tiny)  # (2/2^39)^2 = 4/2^78, past the bound
    assert square.den > pf.DEN_BOUND and (square.num, square.den) == ({(2,): 1}, 2**76)
    assert square.terms == {(2,): Fraction(1, 2**76)}


def test_a_polynomial_is_not_hashable():
    """Equal polynomials may hold different denominators, so none has a hash to agree on."""
    for p in (Polynomial.zero(Q, 1), Polynomial(Q, 1, {(1,): Fraction(1, 2)})):
        with pytest.raises(TypeError):
            hash(p)


@pytest.mark.parametrize("rig", [R, Q])
def test_a_float_coefficient_is_refused(rig):
    with pytest.raises(ValueError, match=r"coefficient 0\.1 is not an element of"):
        Polynomial(rig, 1, {(2,): 0.1, (1,): 0.5})
    x = Polynomial.variable(rig, 1, 0)
    for build in (lambda: x.scale(0.5), lambda: Polynomial.const(rig, 1, 0.5)):
        with pytest.raises(ValueError, match=r"0\.5"):
            build()


def test_a_value_outside_the_rig_is_refused():
    with pytest.raises(ValueError, match="coefficient 2 is not an element of boolean"):
        Polynomial(BOOLEAN, 1, {(1,): 2})
    assert Polynomial(BOOLEAN, 1, {(1,): True}) == Polynomial.variable(BOOLEAN, 1, 0)
    with pytest.raises(ValueError, match="coefficient -1 is not an element of nonneg-rational"):
        Polynomial(R, 1, {(1,): -1})
    with pytest.raises(ValueError, match="coefficient True is not an element of rational"):
        Polynomial(Q, 1, {(1,): True})
    assert Polynomial(Q, 1, {(1,): -1}).terms == {(1,): -1}


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
        q = random_poly(rng, rig, 3, 6)
        for args in ((a, b, a), (a, a, a), (b, Polynomial.zero(rig, 2), a)):
            # p, q and p again share one table of the powers of args
            outs = pf.substitute((p, q, p), args)
            assert len(outs) == 3
            for r, out in zip((p, q, p), outs):
                assert_canonical(out)
                assert out == naive_substitute(r, args)
    constant = Polynomial(rig, 0, {(): rig.one})
    assert pf.substitute([constant], ()) == (constant,)
    assert pf.substitute([], (a, b)) == ()
    with pytest.raises(ValueError, match="argument count"):
        pf.substitute((p, Polynomial.variable(rig, 2, 0)), (a, b, a))


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
            q = random_poly(rng, rig, 3, 5)
            assert pf.apply_linear(matrix, (p, q)) == (naive_substitute(p, images), naive_substitute(q, images))


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
    assert pf.s_op(pf.grad(p)) + pf.eval0(p) == p
    assert pf.grad(s_unit(p)) == PolyBundle((p,))


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


def test_random_polynomials_are_the_randrange_reference_draws():
    """random_poly, random_bundle and random_polymap over every rig, arities 1-5, degrees 1-10, 300 seeds."""
    stream_oracle.check_random_polys()


def test_table_inputs_are_the_randrange_reference_draws():
    """table_inputs over every rig, both kinds, arities 1-5, tops 0-8, budgets 1 and 50, 6 seeds."""
    stream_oracle.check_table_inputs()


def test_an_empty_width_is_refused_promptly():
    """randbelow(0), and random_poly with no variables or a negative degree, raise and do not hang."""
    stream_oracle.check_empty_widths()


def test_poly_product_counts_of_the_substituting_laws(monkeypatch):
    """`Polynomial.__mul__` calls of L1, L4 and L23 at vars 4, degree 8, nonneg-rational, cases 50, seed 0.

    A count, not a timing: one table of powers per substitution point made
    these 737, 354 and 1,006 products when each call to `substitute` built
    its own.
    """
    calls = Counter()
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        calls[law] += 1
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    binding = make_poly_binding(NONNEG_RATIONAL, variables=4, max_degree=8)
    for law in ("L1", "L4", "L23"):
        assert lawsuite.run_law(law, binding, 50, 0).status == "pass"
    assert calls == {"L1": 719, "L4": 324, "L23": 655}


def test_poly_canonical_counts_of_the_rebuilt_laws(monkeypatch):
    """Polynomials built by `_canonical` in L4, L5, L9, L23 and a whole suite at vars 4, degree 8,
    nonneg-rational, cases 50, seed 0.

    A count, not a timing: when `cartesian_derivative` was `mul_in` of a
    2n-component bundle of n zeros and n lifted partials, L23's right side a
    running `scale` and `+` per matrix entry, and a zero summand or the
    gradient of zero was built afresh, these were 2,634, 2,900, 4,421 and
    2,515, and 26,104 in the suite.  L5 was then a check of its own, an
    affine polynomial and a linear map per case, which built 1,958 (21,298
    in the suite) where its table row applies d;d° and !(0) x 1 to bundles,
    and the suite built 19,790 when L2 was a check of its own, a constant
    and a random polynomial per case, where its row applies d;!(0) to the
    table inputs.  L22 draws the two halves of the tensor it splits after
    merging, where it split p: 19,356 then.  L21 applies `lawsuite.taylor`,
    d;!(0) = 0 and !(0);!(0) = !(0), to the table inputs: 18,755 when it
    checked its one generic pair, and 19,433 when it drew 50 pairs.
    """
    calls = Counter()
    canonical = pf._canonical

    def counting_canonical(*args):
        calls[law] += 1
        return canonical(*args)

    monkeypatch.setattr(pf, "_canonical", counting_canonical)
    binding = make_poly_binding(NONNEG_RATIONAL, variables=4, max_degree=8)
    for law in ("L4", "L5", "L9", "L23"):
        assert lawsuite.run_law(law, binding, 50, 0).status == "pass"
    law = "suite"
    assert lawsuite.all_pass(lawsuite.run_suite(binding, cases=50, seed=0))
    assert calls == {"L4": 1_876, "L5": 333, "L9": 2_970, "L23": 1_602, "suite": 19_167}


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
