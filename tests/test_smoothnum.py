"""Numerical model: corpus probes, quadrature oracles, and residual bounds."""

import collections
import math
import random

import numpy as np
import pytest

import dctool.smoothnum as sm
from dctool import lawsuite
from smooth_oracle import DERIVATIVES, HESSIANS
from dctool.smoothnum import (
    BilinearizedMap,
    DEFAULT_CONFIG,
    NonFinite,
    QuadratureConfig,
    SmoothMap,
    make_smooth_binding,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(order=1)
    with pytest.raises(ValueError):
        QuadratureConfig(tol_rel=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(tol_rel=float("nan"))
    with pytest.raises(ValueError):
        QuadratureConfig(order=sm.MAX_ORDER + 1)
    assert QuadratureConfig(order=sm.MAX_ORDER).order == sm.MAX_ORDER


def test_corpus_shape():
    corpus = sm.builtin_corpus()
    assert len(corpus) >= 12
    ident = next(f for f in corpus if f.label == "id1")
    v = np.array([1.7])
    assert np.allclose(sm.fd_directional_derivative(ident, np.array([0.3]), v), v)
    assert {f.in_dim for f in corpus} == {1, 2, 3}
    assert set(DERIVATIVES) == set(HESSIANS) == {f.label for f in corpus}


def test_every_member_passes_fd_vs_exact_probe():
    """The complex step and a Dual's tangent both match each hand-written closed form to rounding
    error, 1e-13 relative, at 200 points."""
    rng = random.Random(0)
    for f in sm.builtin_corpus():
        X = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(200)])
        V = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(200)])
        exact = DERIVATIVES[f.label](X, V)
        assert sm.rel_close(sm.fd_directional_derivative(f, X, V), exact, 1e-13).all(), f.label
        y = f(sm.Dual(X, V, 1))
        tangent = y.v if isinstance(y, sm.Dual) else np.zeros_like(y)  # a constant map returns a plain array
        assert sm.rel_close(tangent, exact, 1e-13).all(), f.label


def test_directional_derivative_examples():
    prod = SmoothMap(2, 1, lambda x: np.array([x[0] * x[1]]), "prod")
    got = sm.fd_directional_derivative(prod, np.array([1.0, 2.0]), np.array([1.0, 0.0]))
    assert abs(got[0] - 2.0) < 1e-9
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    lin = SmoothMap(2, 2, lambda x: A @ x, "lin")
    v = np.array([0.4, -1.1])
    for x in (np.zeros(2), np.array([1.3, -0.2])):
        assert np.allclose(sm.fd_directional_derivative(lin, x, v), A @ v, atol=1e-9)
    const = SmoothMap(3, 2, lambda x: np.array([4.0, -1.0]), "const")
    got = sm.fd_directional_derivative(const, np.ones(3), np.ones(3))
    assert np.allclose(got, 0.0, atol=1e-12)


def test_line_integral_examples():
    g = BilinearizedMap(1, 1, lambda x, y: 2.0 * x * y, "2xy")
    for xv in (0.5, 3.0, -1.2):
        got = sm.line_integral_S(g, np.array([xv]))
        assert abs(got[0] - xv * xv) < 1e-12
    zero = BilinearizedMap(2, 2, lambda x, y: np.zeros(2), "zero")
    assert np.allclose(sm.line_integral_S(zero, np.ones(2)), 0.0)
    cg = BilinearizedMap(1, 1, lambda x, y: np.cos(x) * y, "cos*y")
    for xv in (0.7, 2.0):
        got = sm.line_integral_S(cg, np.array([xv]))
        assert abs(got[0] - math.sin(xv)) < 1e-12


def _integral(g):
    """S[g] as a smooth map, x -> the line integral of t -> g(t*x, x)."""
    return SmoothMap(g.in_dim, g.out_dim, lambda z: sm.line_integral_S(g, z), f"S[{g.label}]")


def _ftc2_residual(f, x):
    """max |S[Df](x) + f(0) - f(x)|."""
    return np.max(np.abs(sm.line_integral_S(sm.bilinearize(f), x) + f(np.zeros_like(x)) - f(x)))


def _poincare_residual(g, x, v):
    """max |D[S[g]](x, v) - g(x, v)|."""
    return np.max(np.abs(sm.fd_directional_derivative(_integral(g), x, v) - g(x, v)))


def test_ftc2_residual_examples():
    square = next(f for f in sm.builtin_corpus() if f.label == "square1")
    assert _ftc2_residual(square, np.array([3.0])) < 1e-10
    const = next(f for f in sm.builtin_corpus() if f.label == "const1")
    assert _ftc2_residual(const, np.array([1.4])) < 1e-12
    sin1 = next(f for f in sm.builtin_corpus() if f.label == "sin1")
    assert _ftc2_residual(sin1, np.array([2.0])) < 1e-10


def test_poincare_residual_examples():
    # gradient of the potential x^2 + y^2
    pot = SmoothMap(2, 1, lambda x: np.stack([x[0] ** 2 + x[1] ** 2]), "sumsq")
    field = sm.bilinearize(pot)
    r = _poincare_residual(field, np.array([0.7, -0.3]), np.array([1.0, 0.5]))
    assert r < 1e-12
    zero = BilinearizedMap(2, 1, lambda x, y: np.zeros(1), "zero")
    assert _poincare_residual(zero, np.ones(2), np.ones(2)) < 1e-12
    one_dim = BilinearizedMap(1, 1, lambda x, y: np.cos(x) * y, "cos*y")
    assert _poincare_residual(one_dim, np.array([1.1]), np.array([0.8])) < 1e-7


def test_nested_derivatives_do_not_confuse_their_perturbations():
    """D(x -> x * D(y -> x + y)(1))(1) = 1 (Siskind and Pearlmutter).

    The inner derivative runs inside the outer complex step, whose perturbation x carries; a second
    complex step would read it as the inner one's and return 2.  The Poincare check takes the
    derivative of the integral of a field that has no closed form, as L20 does.
    """
    one = np.ones(1)

    def inner(x):
        return sm.fd_directional_derivative(SmoothMap(1, 1, lambda y: x + y, "x + y"), one, one)

    outer = SmoothMap(1, 1, lambda x: x * inner(x), "x * D(x + y)")
    assert sm.fd_directional_derivative(outer, one, one).tolist() == [1.0]
    pot = SmoothMap(2, 1, lambda x: np.stack([x[0] ** 2 + x[1] ** 2]), "sumsq")
    field = sm.bilinearize(pot)
    x, v = np.array([0.7, -0.3]), np.array([1.0, 0.5])
    assert np.allclose(field(x, v), [2.0 * 0.7 - 2.0 * 0.3 * 0.5])
    assert _poincare_residual(field, x, v) < 1e-12
    # a complex point outside any derivative takes a Dual too, not a complex step that reads its imaginary part
    z = x + 1e-3j
    assert np.allclose(sm.fd_directional_derivative(pot, z, v), [2.0 * z @ v], rtol=1e-15, atol=0)
    # S[D[pot]] = pot - pot(0), whose second derivative along v and w is 2 v.w: the line integral at a Dual
    w = np.array([-0.4, 2.0])
    along_w = SmoothMap(2, 1, lambda z: sm.fd_directional_derivative(_integral(field), z, w), "D_w S[D[sumsq]]")
    assert np.allclose(sm.fd_directional_derivative(along_w, x, v), [2.0 * v @ w], rtol=1e-12, atol=0)
    assert sm._depth == 0


def test_a_derivative_of_a_map_constant_in_its_point_is_zero_whatever_its_value_carries():
    """D(x -> x * D(y -> y * D(z -> y)(1))(1))(1) = 0: the innermost map returns y, a Dual of the
    middle derivative's tag, which is a constant to its own tag.  Reading y's tangent as its own
    would give 1."""
    one = np.ones(1)

    def d(fn, at):
        return sm.fd_directional_derivative(SmoothMap(1, 1, fn, "map"), at, one)

    outer = SmoothMap(1, 1, lambda x: x * d(lambda y: y * d(lambda z: y, one), one), "outer")
    assert sm.fd_directional_derivative(outer, one, one).tolist() == [0.0]


def test_every_operation_a_body_may_use_carries_its_derivative_through_a_dual():
    """A body built from each operation `SmoothMap` allows, a Dual on either side of it: the tangent
    of its value at a Dual equals the complex step to rounding error."""

    def body(x):
        A = np.array([[1.0, -2.0], [0.5, 3.0]])
        u = (x[0] - 2.0) / (x[1] + 3.0) - 1.0 / (x[0] + 3.0) + (2.0 - x[1]) * (x[0] + x[1]) / 3.0
        w = A @ x + x * 0.5
        return np.stack([u, -(w[0] ** 3) + sm.sin(w[1]) * sm.cos(x[0]) + sm.exp(-x[1]), np.sum(x * x, axis=0)])

    f = SmoothMap(2, 3, body, "every operation")
    rng = random.Random(5)
    X, V = (np.column_stack([sm.sample_point(rng, 2) for _ in range(40)]) for _ in range(2))
    assert sm.rel_close(f(sm.Dual(X, V, 1)).v, sm.fd_directional_derivative(f, X, V), 1e-13).all()


def test_each_nested_second_derivative_matches_its_closed_form_hessian():
    """A derivative along w of each corpus map, differentiated along v: a Dual inside the complex step."""
    rng = random.Random(3)
    for f in sm.builtin_corpus():
        X, V, W = (np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(50)]) for _ in range(3))
        along_w = SmoothMap(f.in_dim, f.out_dim, lambda z, f=f: sm.fd_directional_derivative(f, z, W), "D_w")
        got = sm.fd_directional_derivative(along_w, X, V)
        assert sm.rel_close(got, HESSIANS[f.label](X, V, W), 1e-12).all(), f.label


def test_a_third_derivative_nests_a_dual_in_a_dual():
    """Three derivatives one inside another: the complex step outside, then Duals of tags 2 and 3."""
    rng = random.Random(4)
    X, U, V, W = (np.column_stack([sm.sample_point(rng, 1) for _ in range(20)]) for _ in range(4))
    for label, third in (("quartic1", 24.0 * X), ("sin1", -np.cos(X)), ("exp1", 0.027 * np.exp(0.3 * X))):
        f = next(f for f in sm.builtin_corpus() if f.label == label)
        along_w = SmoothMap(1, 1, lambda z, f=f: sm.fd_directional_derivative(f, z, W), "D_w")
        along_vw = SmoothMap(1, 1, lambda z: sm.fd_directional_derivative(along_w, z, V), "D_v D_w")
        got = sm.fd_directional_derivative(along_vw, X, U)
        assert sm.rel_close(got, third * U * V * W, 1e-12).all(), label


def test_a_non_finite_tangent_inside_a_derivative_names_its_map_and_unwinds_the_nesting():
    """sqrt has a finite value and an infinite derivative at 0: the Dual's tangent is checked as the
    value is, and the exception leaves no derivative counted as running."""
    root = SmoothMap(1, 1, lambda x: x**0.5, "root")
    at_zero = SmoothMap(1, 1, lambda z: sm.fd_directional_derivative(root, 0.0 * z, np.ones_like(z)), "D[root](0)")
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match=r"^root returned a non-finite value at "):
        sm.fd_directional_derivative(at_zero, np.ones(1), np.ones(1))
    assert sm._depth == 0
    # the next derivative outside any other takes the complex step again
    assert sm.fd_directional_derivative(root, np.array([4.0]), np.ones(1)).tolist() == [0.25]


def test_d_plus_d_of_the_origin_passes_every_smooth_law(monkeypatch):
    """d;!(0) = 0, so d + d;!(0) is the operator d.  L20 then differentiates the integral of a sum of
    two derivatives, none of which has a closed form."""
    bilinearize = sm.bilinearize
    monkeypatch.setattr(sm, "bilinearize", lambda f: bilinearize(f) + bilinearize(sm.origin(f)))
    reports = lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)
    assert lawsuite.all_pass(reports)
    passed = [r.law_id for r in reports if r.status == "pass"]
    assert passed == ["L2", "L3", "L4", "L5", "L6", "L18", "L19", "L20", "L21"]


def test_linear_maps_pull_through_integrals():
    rng = random.Random(1)
    g = BilinearizedMap(
        2, 2, lambda x, y: np.array([x[0] * y[0] + y[1], np.sin(x[1]) * y[0]]), "g"
    )
    L = np.array([[1.0, -2.0], [0.5, 3.0]])
    lg = BilinearizedMap(2, 2, lambda x, y: L @ g(x, y), "Lg")
    for _ in range(20):
        x = sm.sample_point(rng, 2)
        lhs = L @ sm.line_integral_S(g, x)
        rhs = sm.line_integral_S(lg, x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_derivative_linear_in_direction():
    rng = random.Random(2)
    for f in sm.builtin_corpus():
        x = sm.sample_point(rng, f.in_dim)
        v = sm.sample_point(rng, f.in_dim)
        w = sm.sample_point(rng, f.in_dim)
        a, b = 1.3, -0.7
        lhs = sm.fd_directional_derivative(f, x, a * v + b * w)
        rhs = a * sm.fd_directional_derivative(f, x, v) + b * sm.fd_directional_derivative(f, x, w)
        assert sm.rel_close(lhs, rhs, 1e-6), f.label


def test_non_finite_detection():
    bad = SmoothMap(1, 1, lambda x: np.array([float("inf")]), "bad")
    with pytest.raises(NonFinite):
        bad(np.array([0.0]))
    bad2 = BilinearizedMap(1, 1, lambda x, y: np.array([float("nan")]), "bad2")
    with pytest.raises(NonFinite):
        sm.line_integral_S(bad2, np.array([1.0]))


def test_bilinearize_matches_exact_derivative():
    square = next(f for f in sm.builtin_corpus() if f.label == "square1")
    bil = sm.bilinearize(square)
    x = np.array([1.5])
    y = np.array([2.0])
    assert np.allclose(bil(x, y), 2.0 * x * y)


def test_sample_point_box_and_determinism():
    a = sm.sample_point(random.Random(5), 3)
    b = sm.sample_point(random.Random(5), 3)
    assert np.array_equal(a, b)
    assert np.all(np.abs(a) <= 2.0)


def _relative_gap(a, b):
    a, b = np.asarray(a, float), np.asarray(b, float)
    return float(np.max(np.abs(a - b))) / max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))


def test_batched_and_pointwise_evaluation_agree():
    rng = random.Random(7)
    for f in sm.builtin_corpus():
        X = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(8)])
        V = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(8)])
        values = f(X)
        fd = sm.fd_directional_derivative(f, X, V)
        for out in (values, fd):
            assert out.shape == (f.out_dim, 8), f.label
        for j in range(8):
            x = X[:, j]
            assert _relative_gap(values[:, j], f(x)) <= 1e-15, f.label
            assert _relative_gap(fd[:, j], sm.fd_directional_derivative(f, x, V[:, j])) <= 1e-15, f.label
        # a nested batch is flattened into columns and keeps its shape
        nested = f(X.reshape(f.in_dim, 2, 4))
        assert nested.shape == (f.out_dim, 2, 4)
        assert np.array_equal(nested.reshape(f.out_dim, 8), values)


def test_constant_output_broadcasts_over_the_batch():
    const = SmoothMap(3, 2, lambda x: np.array([4.0, -1.0]), "const")
    got = const(np.ones((3, 5)))
    assert got.shape == (2, 5)
    assert np.array_equal(got, np.tile([[4.0], [-1.0]], 5))
    zero = BilinearizedMap(2, 1, lambda x, y: np.zeros(1), "zero")
    assert np.array_equal(zero(np.ones((2, 3)), np.ones((2, 3))), np.zeros((1, 3)))


def test_points_and_directions_of_different_shapes_are_refused():
    f = next(f for f in sm.builtin_corpus() if f.label == "gauss3")
    X = np.ones((3, 4))
    for v in (np.ones(3), np.ones((3, 1)), np.ones((3, 5)), np.ones((3, 2, 2))):
        with pytest.raises(ValueError, match="shapes"):
            sm.fd_directional_derivative(f, X, v)
        with pytest.raises(ValueError, match="shapes"):
            sm.bilinearize(f)(X, v)
    assert sm._depth == 0
    # a single point and a single direction still pair up
    assert sm.fd_directional_derivative(f, X[:, 0], np.ones(3)).shape == (1,)


@pytest.mark.parametrize("order", [2, 16, 64])
def test_line_integral_matches_a_per_node_loop(order):
    cfg = QuadratureConfig(order=order)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    rng = random.Random(order)
    for f in sm.builtin_corpus():
        g = sm.bilinearize(f)
        for _ in range(3):
            x = sm.sample_point(rng, f.in_dim)
            reference = np.zeros(f.out_dim)
            for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
                reference = reference + w * g(t * x, x)
            assert _relative_gap(sm.line_integral_S(g, x, cfg), reference) <= 1e-13, f.label
        # each column's nodes are summed on their own, so a column's integral does not depend on its batch
        X = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(4)])
        batched = sm.line_integral_S(g, X, cfg)
        for j in range(4):
            assert np.array_equal(batched[:, j], sm.line_integral_S(g, X[:, j], cfg)), f.label
            assert np.array_equal(batched[:, j : j + 2], sm.line_integral_S(g, X[:, j : j + 2], cfg)), f.label


def test_one_non_finite_node_of_a_batch_is_detected():
    ts, _ws = sm.gauss_legendre(DEFAULT_CONFIG.order)
    bad_node = ts[5]
    g = BilinearizedMap(1, 1, lambda x, y: np.where(x == bad_node, np.nan, x) * y, "hole")
    with pytest.raises(NonFinite, match="hole"):
        sm.line_integral_S(g, np.array([1.0]))
    assert np.isfinite(sm.line_integral_S(g, np.array([0.5]))).all()
    f = SmoothMap(1, 1, lambda x: 1.0 / np.where(x == 3.0, 0.0, x), "recip")
    with pytest.raises(NonFinite, match=r"recip returned a non-finite value at \[3\.\]"):
        with np.errstate(divide="ignore"):
            f(np.array([[1.0, 2.0, 3.0, 4.0]]))


def test_nodes_are_computed_once_per_order_and_read_only(monkeypatch):
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(order):
        calls.append(order)
        return leggauss(order)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    sm.gauss_legendre.cache_clear()
    binding = make_smooth_binding(QuadratureConfig(order=24))
    assert calls == [24]  # building the binding computes the nodes, and the laws reuse them
    lawsuite.run_suite(binding, cases=10, seed=0)
    lawsuite.run_suite(binding, cases=10, seed=1)
    assert calls == [24]
    ts, ws = sm.gauss_legendre(24)
    for arr in (ts, ws):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    sm.gauss_legendre.cache_clear()


def test_building_the_binding_fetches_its_quadrature_rule():
    # so that numpy's first linear-algebra call is charged to the build, not to L18
    sm.gauss_legendre.cache_clear()
    make_smooth_binding(QuadratureConfig(order=23))
    before = sm.gauss_legendre.cache_info()
    assert before.currsize == 1
    sm.gauss_legendre(23)
    after = sm.gauss_legendre.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    sm.gauss_legendre.cache_clear()


def test_map_calls_do_not_grow_with_the_quadrature_order(monkeypatch):
    calls = []
    for cls in (SmoothMap, BilinearizedMap):
        original = cls.__call__

        def counting(self, *args, original=original):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(cls, "__call__", counting)

    def suite_calls(order):
        calls.clear()
        reports = lawsuite.run_suite(make_smooth_binding(QuadratureConfig(order=order)), cases=10, seed=0)
        assert lawsuite.all_pass(reports)
        return len(calls)

    assert suite_calls(16) == suite_calls(64)


def _count_calls(monkeypatch, key):
    """A Counter of key(map) over every SmoothMap and BilinearizedMap call from now on.

    Both originals are resolved before either is patched, so a field's call, which BilinearizedMap
    inherits from SmoothMap, counts once.
    """
    calls = collections.Counter()
    originals = {cls: cls.__call__ for cls in (SmoothMap, BilinearizedMap)}
    for cls, original in originals.items():

        def counting(self, *args, original=original):
            calls[key(self)] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, "__call__", counting)
    return calls


def test_smooth_suite_work_counts(monkeypatch):
    """Each law draws its probe points as one batch per shape class and evaluates each side once per
    class, a family map counting as one call besides its members' own: 499 map calls.  Every
    derivative is one call of the map it differentiates, so per law: L2 22, L3 81, L4 156, L5 58,
    L6 16, L18 51, L19 20, L20 38 and L21 57.  When the corpus maps carried hand-written derivatives,
    which were no map calls, the suite made 361, L3 55, L4 95, L6 4, L18 38 and L20 12.  Against the
    bespoke checks the table laws replaced, L2 made 3, L5 6, L18 45, L19 17 and L20 6.  L21 evaluates
    L2's equation and !(0);!(0) = !(0) at the points of the same scalar maps: 24 when it took its
    generic pair, the zero and the constant-one map of each dimension, 66 when it took six corpus
    maps and their shifts, and 54 before that, when its conclusion compared f(x) - f(0) with
    g(x) - g(0).  Per shape class of the scalar maps, L2's row calls the field d;!(0) f, the map
    !(0) f it differentiates, the family and its members, and the zero field.  The suite made 285
    as bespoke checks, against 314 when L18-L20 evaluated f(x) and the field a second time for a
    residual bound, 329 when they evaluated each item on its own, 735 when L3 and L4 also evaluated
    each pair of maps on its own, and 1,884 when each law evaluated one point at a time."""
    law = [None]
    calls = _count_calls(monkeypatch, lambda f: law[0])
    binding = make_smooth_binding(max_dim=3)
    for law[0] in [row.id for row in lawsuite.LAWS]:
        assert lawsuite.run_law(law[0], binding, cases=50, seed=0).status != "fail"
    assert {law_id: n for law_id, n in calls.items() if n} == {
        "L2": 22, "L3": 81, "L4": 156, "L5": 58, "L6": 16, "L18": 51, "L19": 20, "L20": 38, "L21": 57
    }


def test_leibniz_and_chain_rule_call_each_corpus_map_once_per_step_and_shape_class(monkeypatch):
    """However many pairs share a map, L3 and L4 evaluate it once per law step and shape class.

    L3 evaluates a scalar map as f and as g of the product f * g, each over three steps: the
    product's derivative, the plain values and the map's own derivative.  L4 evaluates a map as f of
    g o f over three steps, the derivative of g o f, f(X) and f's own derivative, and as g over two,
    the derivative of g o f and g's own derivative.
    """
    law = [None]
    calls = _count_calls(monkeypatch, lambda f: (law[0], f.label))
    binding = make_smooth_binding(max_dim=3)
    for law[0] in ("L3", "L4"):
        assert lawsuite.run_law(law[0], binding, cases=50, seed=0).status == "pass"
    corpus = sm.builtin_corpus()
    for f in corpus:
        assert calls["L3", f.label] == (6 if f.out_dim == 1 else 0), f.label
        as_f = {(f.in_dim, f.out_dim, g.out_dim) for g in corpus if g.in_dim == f.out_dim}
        as_g = {(h.in_dim, h.out_dim, f.out_dim) for h in corpus if h.out_dim == f.in_dim}
        assert calls["L4", f.label] == 3 * len(as_f) + 2 * len(as_g), f.label
    # 150 when the maps' own derivatives were hand-written, and 552 when each of the 44 Leibniz and
    # 83 chain-rule pairs was evaluated on its own
    assert sum(n for (law_id, _), n in calls.items() if law_id in ("L3", "L4")) == 237


def _counted(f, calls):
    """A copy of the map f whose calls are counted in `calls`."""

    def value(x):
        calls[f.label] += 1
        return f.fn(x)

    return SmoothMap(f.in_dim, f.out_dim, value, f.label)


def test_a_family_map_evaluates_each_member_once_on_its_runs():
    corpus = {f.label: f for f in sm.builtin_corpus()}
    calls = collections.Counter()
    members = {label: _counted(corpus[label], calls) for label in ("square1", "sin1", "exp1", "const1")}
    # square1 owns two runs; const1 returns one value that broadcasts over its runs
    owners = [members[label] for label in ("square1", "sin1", "square1", "exp1", "const1")]
    F = sm.family(owners)
    rng = random.Random(11)
    k = 3
    X = np.column_stack([sm.sample_point(rng, 1) for _ in range(len(owners) * k)])
    V = np.column_stack([sm.sample_point(rng, 1) for _ in range(len(owners) * k)])
    runs = [slice(r * k, (r + 1) * k) for r in range(len(owners))]
    cfg = QuadratureConfig(order=16)

    def each_member_once():
        assert calls == dict.fromkeys(members, 1)
        calls.clear()

    # a plain batch
    values = F(X)
    each_member_once()
    for f, run in zip(owners, runs):
        assert np.array_equal(values[:, run], f(X[:, run])), f.label
    calls.clear()
    # a complex step evaluates the complex batch X + i h V
    fd = sm.fd_directional_derivative(F, X, V)
    each_member_once()
    for f, run in zip(owners, runs):
        assert np.array_equal(fd[:, run], sm.fd_directional_derivative(f, X[:, run], V[:, run])), f.label
    calls.clear()
    # a Dual batch, as a derivative inside another evaluates it: const1's plain values join the tangents
    dual = F(sm.Dual(X, V, 1))
    each_member_once()
    for f, run in zip(owners, runs):
        assert np.array_equal(dual.x[:, run], values[:, run]), f.label
        assert sm.rel_close(dual.v[:, run], fd[:, run], 1e-15).all(), f.label
    calls.clear()
    # the derivative at the nodes of a line integral, which repeats each column `order` times
    integral = sm.line_integral_S(sm.bilinearize(F), X, cfg)
    each_member_once()
    for f, run in zip(owners, runs):
        assert np.array_equal(integral[:, run], sm.line_integral_S(sm.bilinearize(f), X[:, run], cfg)), f.label
    # one member is the member itself, and a batch that does not split into the runs is refused
    assert sm.family([members["sin1"]] * 3) is members["sin1"]
    with pytest.raises(ValueError):
        F(np.ones((1, 7)))


def test_a_non_finite_family_value_names_the_member_and_its_first_bad_column():
    square = next(f for f in sm.builtin_corpus() if f.label == "square1")
    hole = SmoothMap(1, 1, lambda x: np.where(x.real > 2.5, np.nan, x), "hole")
    F = sm.family([square, hole, square, hole])
    # hole owns columns 2-3 and 6-7; it is non-finite at columns 3 and 6
    X = np.array([[0.1, 0.2, 0.3, 2.7, 0.5, 0.6, 2.9, 0.8]])
    with pytest.raises(NonFinite, match=r"^hole returned a non-finite value at \[2\.7\]$"):
        F(X)
    # the complex step evaluates the same member at the same column
    with pytest.raises(NonFinite, match=r"^hole returned a non-finite value at \[2\.7\+1\.e-30j\]$"):
        sm.fd_directional_derivative(F, X, np.ones_like(X))
    X[0, 3] = 0.4
    with pytest.raises(NonFinite, match=r"\[2\.9\]"):
        F(X)
    X[0, 6] = 0.7
    got = F(X)
    assert np.array_equal(got[:, [0, 1, 4, 5]], X[:, [0, 1, 4, 5]] ** 2)
    assert np.array_equal(got[:, [2, 3, 6, 7]], X[:, [2, 3, 6, 7]])


def _rel_close_per_point(a, b, tol_rel):
    """The one-point rule: max |a - b| <= tol_rel * max(1, max |a|, max |b|)."""
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= tol_rel * scale


def test_rel_close_gives_each_column_of_a_batch_the_verdict_of_its_own_call():
    rng = np.random.default_rng(12)
    # columns of magnitude 1e-3 to 1e3, so some scales are lifted to 1 and others are not
    a = rng.uniform(-1, 1, (3, 60)) * 10.0 ** rng.integers(-3, 4, 60)
    # differences of 1e-15 to 1e-1, relative to each column, so both verdicts occur
    b = a + rng.uniform(-1, 1, (3, 60)) * np.maximum(1.0, np.abs(a).max(axis=0)) * 10.0 ** rng.integers(-15, 0, 60)
    for tol_rel in (1e-6, 1e-9, 1e-12, 1e-3):
        got = sm.rel_close(a, b, tol_rel)
        assert got.shape == (60,)
        expected = [_rel_close_per_point(a[:, j], b[:, j], tol_rel) for j in range(60)]
        assert got.tolist() == expected
        assert got.tolist() == [bool(sm.rel_close(a[:, j], b[:, j], tol_rel)) for j in range(60)]
        assert 0 < sum(expected) < 60
    # scales below 1 count as 1: a difference of 5e-7 on values of 1e-3 passes at tol_rel 1e-6
    small = np.array([[0.3], [0.2]])
    assert sm.rel_close(small * 1e-3, small * 1e-3 + 5e-7, 1e-6).tolist() == [True]


def _patch_the_derivative(monkeypatch, mutant):
    """Replace the one derivative rule by mutant(f, x, v, the rule), for every derivative, nested ones too."""
    rule = sm.fd_directional_derivative
    monkeypatch.setattr(sm, "fd_directional_derivative", lambda f, x, v: mutant(f, np.asarray(x), v, rule))


def test_a_derivative_off_by_1e_9_fails_at_the_default_tolerance(monkeypatch):
    """The derivative rule scaled by 1 + 1e-9.

    The complex step and a Dual's tangent are exact to rounding error, so the
    default --tol-rel of 1e-10 sees the error where a derivative meets a
    value or a quadrature; at 1e-6, the old default, every law passes.
    """
    _patch_the_derivative(monkeypatch, lambda f, x, v, rule: rule(f, x, v) * (1.0 + 1e-9))
    reports = lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)
    assert {r.law_id: r.cases for r in reports if r.status == "fail"} == {
        "L4": 1, "L5": 5, "L18": 1, "L19": 1, "L20": 1
    }
    assert lawsuite.all_pass(lawsuite.run_suite(make_smooth_binding(QuadratureConfig(tol_rel=1e-6)), cases=50, seed=0))


def test_a_derivative_bent_in_the_direction_on_every_2d_and_3d_map_fails_the_laws_that_read_it(monkeypatch):
    """The derivative at a point of two or more coordinates gains 1e-6 * v[0] * v[1], which is not linear in v.

    Every law that reads a derivative of a 2-D or 3-D map along a direction
    that is not a unit vector fails: Leibniz and the chain rule, the constant
    and linear rules, the second fundamental theorem and the Poincare
    condition.  L6 differentiates along unit vectors only, where the bend is
    zero.  L21 reads the scalar corpus maps of every dimension, as L2's row
    does, and fails where L2 does.
    """
    checked, check = [], sm._check

    def recording(tol_rel, rng, cases, items, *args, **kwargs):
        checked.append(items)
        return check(tol_rel, rng, cases, items, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(sm, "_check", recording)
        assert lawsuite.run_law("L21", make_smooth_binding(max_dim=3), cases=50, seed=0).status == "pass"
    scalars = [f.label for f in sm.builtin_corpus() if f.out_dim == 1]
    assert [f.label for f in checked[0]] == scalars and {f.in_dim for f in checked[0]} == {1, 2, 3}
    _patch_the_derivative(monkeypatch, lambda f, x, v, rule: rule(f, x, v) + (1e-6 * v[0] * v[1] if len(x) > 1 else 0))
    reports = {r.law_id: r for r in lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)}
    assert {law_id: r.cases for law_id, r in reports.items() if r.status == "fail"} == {
        "L2": 31, "L3": 37, "L4": 37, "L5": 25, "L18": 31, "L20": 31, "L21": 31
    }
    assert reports["L18"].counterexample.startswith("second fundamental theorem fails: map=prod2 ")


def test_a_chain_rule_failing_in_two_shape_classes_reports_the_first_failing_pair_in_pair_order(monkeypatch):
    """The derivative at a point of two or more coordinates doubles the direction where x[0] > 1.

    L4's two sides then differ where g o f doubles and the derivative of g at f(x) does not, or the
    other way round.  At seed 0, one point per pair, this happens at the pairs (prod2 o linear2),
    (poly2 o linear2) and (poly2 o poly2), the 39th, 40th and 56th of the 83 pairs, in the shape
    classes (2, 2, 1) and (2, 2, 2).  The class (2, 2, 2) is compared first, at its first pair, the
    37th, but the report is the 39th pair's, the first failing pair in pair order.  L5, L18 and L20
    differentiate 2-D and 3-D maps at their points and along their integrals' paths.
    """
    def doubled(f, x, v, rule):
        return rule(f, x, np.where(x[0].real > 1.0, 2.0, 1.0) * v if len(x) > 1 else v)

    _patch_the_derivative(monkeypatch, doubled)
    binding = make_smooth_binding(max_dim=3)
    reports = lawsuite.run_suite(binding, cases=50, seed=0)
    chain_rule_fails = [
        (
            39,
            "chain rule fails (prod2 o linear2): map=linear2 x=[-1.446122  1.797871] v=[ 1.985982 -0.585467] "
            "lhs=[0.2068215307] rhs=[0.4136430613]",
        ),
        (
            40,
            "chain rule fails (poly2 o linear2): map=linear2 x=[1.606334 1.252163] v=[-0.026204  1.687139] "
            "lhs=[125.950078214   22.5678771129] rhs=[251.900156428   45.1357542257]",
        ),
        (
            56,
            "chain rule fails (poly2 o poly2): map=poly2 x=[1.090818 1.666644] v=[1.908445 0.831259] "
            "lhs=[ 429.2424564443 1750.4935360448] rhs=[ 858.4849128885 3500.9870720896]",
        ),
    ]
    assert {r.law_id: (r.cases, r.counterexample) for r in reports if r.status == "fail"} == {
        "L4": chain_rule_fails[0],
        "L5": (
            42,
            "derivative of a linear map is not constant: map=const3 x=[1.616673 1.672406 1.301322] "
            "v=[-1.093472  0.159919  1.722601] lhs=[-3.9095453828] rhs=[-1.9547726914]",
        ),
        "L18": (
            35,
            "second fundamental theorem fails: map=prod2 x=[1.547497 0.766259] lhs=[1.8814990222] rhs=[1.1857826123]",
        ),
        "L20": (
            31,
            "derivative of the integral loses the field: map=prod2 x=[ 1.535068 -0.799548] v=[ 0.374106 -0.910937] "
            "lhs=[-5.3867889378] rhs=[-3.394931692]",
        ),
    }
    stream = list(binding.checks["L4"](random.Random("0:L4"), 50))
    assert len(stream) == 83
    assert [(case, text) for case, text in enumerate(stream, 1) if text] == chain_rule_fails
