"""Numerical model: corpus probes, quadrature oracles, and residual bounds."""

import math
import random

import numpy as np
import pytest

import dctool.smoothnum as sm
from dctool import lawsuite
from dctool.bindings import make_smooth_binding
from dctool.smoothnum import (
    BilinearizedMap,
    DEFAULT_CONFIG,
    NonFinite,
    QuadratureConfig,
    SmoothMap,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(order=1)
    with pytest.raises(ValueError):
        QuadratureConfig(tol_abs=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(fd_step=-1e-5)
    with pytest.raises(ValueError):
        QuadratureConfig(order=sm.MAX_ORDER + 1)
    assert QuadratureConfig(order=sm.MAX_ORDER).order == sm.MAX_ORDER


def test_corpus_shape():
    corpus = sm.builtin_corpus()
    assert len(corpus) >= 12
    ident = next(f for f in corpus if f.label == "id1")
    v = np.array([1.7])
    assert np.allclose(ident.exact_derivative(np.array([0.3]), v), v)
    assert {f.in_dim for f in corpus} == {1, 2, 3}


def test_every_member_passes_fd_vs_exact_probe():
    rng = random.Random(0)
    for f in sm.builtin_corpus():
        for _ in range(10):
            x = sm.sample_point(rng, f.in_dim)
            v = sm.sample_point(rng, f.in_dim)
            fd = sm.fd_directional_derivative(f, x, v)
            exact = f.exact_derivative(x, v)
            assert sm.rel_close(fd, exact, 1e-6), f.label


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


def test_ftc2_residual_examples():
    square = next(f for f in sm.builtin_corpus() if f.label == "square1")
    assert sm.ftc2_residual(square, np.array([3.0])) < 1e-10
    const = next(f for f in sm.builtin_corpus() if f.label == "const1")
    assert sm.ftc2_residual(const, np.array([1.4])) < 1e-12
    sin1 = next(f for f in sm.builtin_corpus() if f.label == "sin1")
    assert sm.ftc2_residual(sin1, np.array([2.0])) < 1e-10


def test_gradient_field_uses_the_given_config():
    pot = SmoothMap(2, 1, lambda x: np.array([np.sin(x[0]) * x[1] ** 3]), "no-closed-form")
    coarse = QuadratureConfig(fd_step=1e-2, richardson_levels=0)
    x, v = np.array([0.4, 1.3]), np.array([1.0, -2.0])
    got = sm.gradient_field(pot, coarse)(x, v)
    assert np.array_equal(got, sm.fd_directional_derivative(pot, x, v, coarse))
    assert not np.array_equal(got, sm.gradient_field(pot)(x, v))


def test_poincare_residual_examples():
    # gradient of the potential x^2 + y^2
    pot = SmoothMap(
        2, 1,
        lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        "sumsq",
        exact_derivative=lambda x, v: np.array([2.0 * x[0] * v[0] + 2.0 * x[1] * v[1]]),
    )
    field = sm.gradient_field(pot)
    r = sm.poincare_residual(field, np.array([0.7, -0.3]), np.array([1.0, 0.5]))
    assert r < 1e-7
    zero = BilinearizedMap(2, 1, lambda x, y: np.zeros(1), "zero")
    assert sm.poincare_residual(zero, np.ones(2), np.ones(2)) < 1e-12
    one_dim = BilinearizedMap(1, 1, lambda x, y: np.cos(x) * y, "cos*y")
    assert sm.poincare_residual(one_dim, np.array([1.1]), np.array([0.8])) < 1e-7


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
        exact = sm.directional_derivative(f, X, V)
        fd = sm.fd_directional_derivative(f, X, V)
        for out in (values, exact, fd):
            assert out.shape == (f.out_dim, 8), f.label
        for j in range(8):
            x = X[:, j]
            assert _relative_gap(values[:, j], f(x)) <= 1e-15, f.label
            assert _relative_gap(exact[:, j], f.exact_derivative(x, V[:, j])) <= 1e-15, f.label
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
            sm.directional_derivative(f, X, v)
        with pytest.raises(ValueError, match="shapes"):
            sm.fd_directional_derivative(f, X, v)
        with pytest.raises(ValueError, match="shapes"):
            sm.bilinearize(f)(X, v)
    # a single point and a single direction still pair up
    assert sm.directional_derivative(f, X[:, 0], np.ones(3)).shape == (1,)


@pytest.mark.parametrize("order", [2, 16, 64])
def test_line_integral_matches_a_per_node_loop(order):
    cfg = QuadratureConfig(order=order)
    nodes, weights = np.polynomial.legendre.leggauss(order)
    rng = random.Random(order)
    for f in sm.builtin_corpus():
        g = sm.bilinearize(f, cfg)
        for _ in range(3):
            x = sm.sample_point(rng, f.in_dim)
            reference = np.zeros(f.out_dim)
            for t, w in zip(0.5 * (nodes + 1.0), 0.5 * weights):
                reference = reference + w * g(t * x, x)
            assert _relative_gap(sm.line_integral_S(g, x, cfg), reference) <= 1e-13, f.label
        X = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(4)])
        batched = sm.line_integral_S(g, X, cfg)
        for j in range(4):
            assert _relative_gap(batched[:, j], sm.line_integral_S(g, X[:, j], cfg)) <= 1e-13, f.label


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
    assert calls == []  # building the binding computes no nodes
    lawsuite.run_suite(binding, cases=10, seed=0)
    lawsuite.run_suite(binding, cases=10, seed=1)
    assert calls == [24]
    ts, ws = sm.gauss_legendre(24)
    for arr in (ts, ws):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
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


def test_residuals_on_a_batch_match_the_per_column_calls():
    rng = random.Random(3)
    corpus = sm.builtin_corpus()
    for f in corpus:
        X = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(5)])
        batched = sm.ftc2_residual(f, X)
        assert batched.shape == (5,), f.label
        for j in range(5):
            single = sm.ftc2_residual(f, X[:, j])
            assert isinstance(single, float)
            assert abs(batched[j] - single) <= 1e-9, f.label
    fields = [sm.gradient_field(f) for f in corpus if f.out_dim == 1 and f.in_dim >= 2]
    fields += [BilinearizedMap(1, 1, lambda x, y, f=f: f(x) * y, f.label) for f in corpus if f.in_dim == f.out_dim == 1]
    for F in fields:
        X = np.column_stack([sm.sample_point(rng, F.in_dim) for _ in range(5)])
        V = np.column_stack([sm.sample_point(rng, F.in_dim) for _ in range(5)])
        batched = sm.poincare_residual(F, X, V)
        assert batched.shape == (5,), F.label
        for j in range(5):
            single = sm.poincare_residual(F, X[:, j], V[:, j])
            assert isinstance(single, float)
            assert abs(batched[j] - single) <= 1e-9, F.label


def test_smooth_suite_work_counts(monkeypatch):
    """Each law evaluates an item's probe points as one batch: 1,884 map calls when it evaluated them one by one."""
    calls = []
    for cls in (SmoothMap, BilinearizedMap):
        original = cls.__call__

        def counting(self, *args, original=original):
            calls.append(1)
            return original(self, *args)

        monkeypatch.setattr(cls, "__call__", counting)
    reports = lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)
    assert lawsuite.all_pass(reports)
    assert len(calls) <= 900


def test_a_derivative_broken_past_x0_equal_1_fails_each_law_at_its_first_broken_column(monkeypatch):
    """gauss3's closed-form derivative doubles the direction's first coordinate where x[0] > 1.

    The failing laws, their case counts and counterexamples were computed
    when each law still evaluated one probe point at a time: batching an
    item's points must keep the rng stream and stop at the same column.
    """
    builtin_corpus = sm.builtin_corpus

    def corpus():
        maps = builtin_corpus()
        for f in maps:
            if f.label == "gauss3":

                def broken(x, v, exact=f.exact_derivative):
                    w = np.array(v, float)
                    w[0] = np.where(x[0] > 1.0, 2.0, 1.0) * v[0]
                    return exact(x, w)

                f.exact_derivative = broken
        return maps

    monkeypatch.setattr(sm, "builtin_corpus", corpus)
    reports = lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)
    failing = {r.law_id: (r.cases, r.counterexample) for r in reports if r.status == "fail"}
    assert failing == {
        "L3": (42, "Leibniz fails: map=poly3 x=[ 1.339396 -0.879792  1.54241 ] lhs=[0.5439071901] rhs=[0.5456679083]"),
        "L4": (
            78,
            "chain rule fails (id1 o gauss3): map=gauss3 x=[ 1.777488 -0.864492 -0.53423 ] "
            "lhs=[0.6808976549] rhs=[1.2392769013]",
        ),
        # the fourth potential, 12 points: its fifth column
        "L6": (
            41,
            "mixed partials differ: map=gauss3 x=[ 1.76496  -0.690859 -0.221356] "
            "lhs=[-0.1226612998] rhs=[-0.2453225997]",
        ),
        # the last item, 3 points: its second column
        "L18": (
            44,
            "fundamental theorem residual too large: map=gauss3 x=[ 1.558085 -1.053949 -0.525639] "
            "lhs=[0.1838174927] rhs=[1.3853193136e-07]",
        ),
        # the fourth potential, 12 points: its third column
        "L20": (
            39,
            "Poincare residual too large: map=gauss3 x=[1.34946  0.585092 1.992821] "
            "lhs=[0.044278935] rhs=[1.2196956575e-06]",
        ),
    }
    assert {r.status for r in reports if r.law_id not in failing} == {"pass", "skipped"}
