"""Numerical model: corpus probes, quadrature oracles, and residual bounds."""

import collections
import math
import random

import numpy as np
import pytest

import dctool.smoothnum as sm
from dctool import lawsuite
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
    assert np.allclose(ident.exact_derivative(np.array([0.3]), v), v)
    assert {f.in_dim for f in corpus} == {1, 2, 3}


def test_every_member_passes_fd_vs_exact_probe():
    """The complex step matches each closed form to rounding error, 1e-13 relative, at 200 points."""
    rng = random.Random(0)
    for f in sm.builtin_corpus():
        X = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(200)])
        V = np.column_stack([sm.sample_point(rng, f.in_dim) for _ in range(200)])
        step = sm.fd_directional_derivative(f, X, V)
        exact = sm.directional_derivative(f, X, V)
        assert sm.rel_close(step, exact, 1e-13).all(), f.label


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
    pot = SmoothMap(
        2, 1,
        lambda x: np.array([x[0] ** 2 + x[1] ** 2]),
        "sumsq",
        exact_derivative=lambda x, v: np.array([2.0 * x[0] * v[0] + 2.0 * x[1] * v[1]]),
    )
    field = sm.bilinearize(pot)
    r = _poincare_residual(field, np.array([0.7, -0.3]), np.array([1.0, 0.5]))
    assert r < 1e-7
    zero = BilinearizedMap(2, 1, lambda x, y: np.zeros(1), "zero")
    assert _poincare_residual(zero, np.ones(2), np.ones(2)) < 1e-12
    one_dim = BilinearizedMap(1, 1, lambda x, y: np.cos(x) * y, "cos*y")
    assert _poincare_residual(one_dim, np.array([1.1]), np.array([0.8])) < 1e-7


def test_a_nested_complex_step_is_refused():
    """Without a closed form, the Poincare check would take a complex step of a complex step.

    The inner step would read the outer one's imaginary part as its own and
    return a wrong derivative (a residual of 1.1 here), so it raises instead.
    """
    pot = SmoothMap(2, 1, lambda x: np.array([x[0] ** 2 + x[1] ** 2]), "sumsq-without-closed-form")
    field = sm.bilinearize(pot)
    x, v = np.array([0.7, -0.3]), np.array([1.0, 0.5])
    assert np.allclose(field(x, v), [2.0 * 0.7 - 2.0 * 0.3 * 0.5])
    with pytest.raises(ValueError, match="sumsq-without-closed-form"):
        sm.fd_directional_derivative(_integral(field), x, v)
    with pytest.raises(ValueError, match="sumsq-without-closed-form"):
        sm.fd_directional_derivative(pot, x + 1e-3j, v)


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
    class, a family map counting as one call besides its members' own: 328 map calls.  The table laws
    evaluate each operator's value as a map of its own, so per law, against the bespoke checks they
    replaced: L2 22 (3), L5 58 (6), L18 38 (45), L19 20 (17) and L20 12 (6); L3 55, L4 95 and L6 4 as
    before.  L21 makes 24, 8 per dimension at its generic pair, the zero and the constant-one map:
    66 when it took six corpus maps and their shifts, and 54 before that, when its conclusion compared
    f(x) - f(0) with g(x) - g(0); f + !(0) g = g + !(0) f calls each !(0) map and the map it evaluates
    at zero.  Per shape class of the scalar maps, L2's row calls the field d;!(0) f, the map
    !(0) f it differentiates, the family and its members, and the zero field, where its check took
    the complex step of each constant map.  The suite made 339 before L2's row, the bespoke suite
    285, against 314 when L18-L20 evaluated f(x) and the field a second time for a residual bound,
    329 when they evaluated each item on its own, 735 when L3 and L4 also evaluated each pair of maps
    on its own, and 1,884 when each law evaluated one point at a time."""
    law = [None]
    calls = _count_calls(monkeypatch, lambda f: law[0])
    binding = make_smooth_binding(max_dim=3)
    for law[0] in [row.id for row in lawsuite.LAWS]:
        assert lawsuite.run_law(law[0], binding, cases=50, seed=0).status != "fail"
    assert {law_id: n for law_id, n in calls.items() if n} == {
        "L2": 22, "L3": 55, "L4": 95, "L5": 58, "L6": 4, "L18": 38, "L19": 20, "L20": 12, "L21": 24
    }


def test_leibniz_and_chain_rule_call_each_corpus_map_once_per_step_and_shape_class(monkeypatch):
    """However many pairs share a map, L3 and L4 evaluate it once per law step and shape class.

    L3 evaluates a scalar map as f and as g of the product f * g, each over two steps: the product's
    complex step and the plain values.  L4 evaluates a map as f of g o f over two steps, the complex
    step of g o f and f(X), and as g over one, the complex step.  Closed-form derivatives are not
    map calls.
    """
    law = [None]
    calls = _count_calls(monkeypatch, lambda f: (law[0], f.label))
    binding = make_smooth_binding(max_dim=3)
    for law[0] in ("L3", "L4"):
        assert lawsuite.run_law(law[0], binding, cases=50, seed=0).status == "pass"
    corpus = sm.builtin_corpus()
    for f in corpus:
        assert calls["L3", f.label] == (4 if f.out_dim == 1 else 0), f.label
        as_f = {(f.in_dim, f.out_dim, g.out_dim) for g in corpus if g.in_dim == f.out_dim}
        as_g = {(h.in_dim, h.out_dim, f.out_dim) for h in corpus if h.out_dim == f.in_dim}
        assert calls["L4", f.label] == 2 * len(as_f) + len(as_g), f.label
    # 552 when each of the 44 Leibniz and 83 chain-rule pairs was evaluated on its own
    assert sum(n for (law_id, _), n in calls.items() if law_id in ("L3", "L4")) <= 150


def _counted(f, calls):
    """A copy of the map f whose value and closed-form derivative calls are counted in `calls`."""

    def value(x):
        calls[f.label] += 1
        return f.fn(x)

    def exact(x, v):
        calls[f"{f.label} exact derivative"] += 1
        return f.exact_derivative(x, v)

    return SmoothMap(f.in_dim, f.out_dim, value, f.label, exact_derivative=exact)


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

    def each_member_once(*suffixes):
        assert calls == {f"{label}{suffix}": 1 for label in members for suffix in suffixes}
        calls.clear()

    # a plain batch
    values = F(X)
    each_member_once("")
    for f, run in zip(owners, runs):
        assert np.array_equal(values[:, run], f(X[:, run])), f.label
    calls.clear()
    # a complex step evaluates the complex batch X + i h V
    fd = sm.fd_directional_derivative(F, X, V)
    each_member_once("")
    for f, run in zip(owners, runs):
        assert np.array_equal(fd[:, run], sm.fd_directional_derivative(f, X[:, run], V[:, run])), f.label
    calls.clear()
    # the closed-form derivative at the nodes of a line integral, which repeats each column `order` times
    integral = sm.line_integral_S(sm.bilinearize(F), X, cfg)
    each_member_once(" exact derivative")
    for f, run in zip(owners, runs):
        assert np.array_equal(integral[:, run], sm.line_integral_S(sm.bilinearize(f), X[:, run], cfg)), f.label
    # one member is the member itself, and a batch that does not split into the runs is refused
    assert sm.family([members["sin1"]] * 3) is members["sin1"]
    with pytest.raises(ValueError):
        F(np.ones((1, 7)))


def test_a_non_finite_family_value_names_the_member_and_its_first_bad_column():
    square = next(f for f in sm.builtin_corpus() if f.label == "square1")
    hole = SmoothMap(
        1, 1, lambda x: np.where(x > 2.5, np.nan, x), "hole",
        exact_derivative=lambda x, v: np.where(x > 2.5, np.inf, v),
    )
    F = sm.family([square, hole, square, hole])
    # hole owns columns 2-3 and 6-7; it is non-finite at columns 3 and 6
    X = np.array([[0.1, 0.2, 0.3, 2.7, 0.5, 0.6, 2.9, 0.8]])
    with pytest.raises(NonFinite, match=r"^hole returned a non-finite value at \[2\.7\]$"):
        F(X)
    with pytest.raises(NonFinite, match=r"^hole exact derivative returned a non-finite value at \[2\.7\]$"):
        sm.directional_derivative(F, X, np.ones_like(X))
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


def test_a_derivative_off_by_1e_9_fails_at_the_default_tolerance(monkeypatch):
    """Every nonlinear closed-form derivative scaled by 1 + 1e-9.

    The complex step is exact to rounding error, so the default --tol-rel of
    1e-10 sees the error where the closed forms meet a numerical derivative
    or a quadrature; at 1e-6, the old default, every law passes.
    """
    builtin_corpus = sm.builtin_corpus

    def corpus():
        maps = builtin_corpus()
        for f in maps:
            if not f.label.startswith(("id", "const", "linear")):
                f.exact_derivative = lambda x, v, exact=f.exact_derivative: exact(x, v) * (1.0 + 1e-9)
        return maps

    monkeypatch.setattr(sm, "builtin_corpus", corpus)
    reports = lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)
    assert {r.law_id: r.cases for r in reports if r.status == "fail"} == {"L3": 3, "L4": 4, "L18": 11}
    assert lawsuite.all_pass(lawsuite.run_suite(make_smooth_binding(QuadratureConfig(tol_rel=1e-6)), cases=50, seed=0))


def test_a_derivative_bent_in_the_direction_on_every_2d_and_3d_map_fails_the_laws_that_read_it(monkeypatch):
    """Every 2-D and 3-D closed-form derivative gains 1e-6 * v[0] * v[1], which is not linear in v.

    The laws that read a closed-form derivative of a 2-D or 3-D map along a
    direction that is not a unit vector fail: Leibniz and the chain rule
    against the complex step, and the second fundamental theorem and the
    Poincare condition against the integral of the field.  L6 reads the
    closed forms along unit vectors only, where the bend is zero, and L2, L5
    and L21 read no closed form.  L21 checks its generic pair, the zero and
    the constant-one map, in every dimension.
    """
    checked, check = [], sm._check

    def recording(tol_rel, rng, cases, items, *args):
        checked.append(items)
        return check(tol_rel, rng, cases, items, *args)

    with monkeypatch.context() as patch:
        patch.setattr(sm, "_check", recording)
        assert lawsuite.run_law("L21", make_smooth_binding(max_dim=3), cases=50, seed=0).status == "pass"
    assert [{(f.in_dim, f.out_dim) for f in pair} for pair in checked[0]] == [{(n, n)} for n in (1, 2, 3)]
    builtin_corpus = sm.builtin_corpus

    def corpus():
        maps = builtin_corpus()
        for f in maps:
            if f.in_dim >= 2:

                def bent(x, v, exact=f.exact_derivative, m=f.out_dim):
                    return np.reshape(exact(x, v), (m, -1)) + 1e-6 * v[0] * v[1]

                f.exact_derivative = bent
        return maps

    monkeypatch.setattr(sm, "builtin_corpus", corpus)
    reports = {r.law_id: r for r in lawsuite.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)}
    assert {law_id: r.cases for law_id, r in reports.items() if r.status == "fail"} == {
        "L3": 37, "L4": 37, "L18": 31, "L20": 31
    }
    assert reports["L18"].counterexample.startswith("second fundamental theorem fails: map=prod2 ")


def test_a_chain_rule_failing_in_two_shape_classes_reports_the_first_failing_pair_in_pair_order(monkeypatch):
    """id1's closed-form derivative doubles the direction where x > 1.

    L4 then fails on the pairs (id1 o f) whose f leaves a point above 1.  At seed 105 these are
    (id1 o prod2) and (id1 o poly3), the 47th and 72nd of the 83 pairs, in the shape classes
    (2, 1, 1) and (3, 1, 1); every pair of the first class (1, 1, 1) passes.  The reports and the
    stream of L4 verdicts were computed when each pair was evaluated on its own, in pair order; the
    complex step moved the last digit of the L3 lhs and of the second L4 lhs.  L18 and L20 integrate
    id1's field and fail at its first point above 1.
    """
    builtin_corpus = sm.builtin_corpus

    def corpus():
        maps = builtin_corpus()
        for f in maps:
            if f.label == "id1":

                def broken(x, v, exact=f.exact_derivative):
                    return exact(x, np.where(x.real > 1.0, 2.0, 1.0) * v)

                f.exact_derivative = broken
        return maps

    monkeypatch.setattr(sm, "builtin_corpus", corpus)
    binding = make_smooth_binding(max_dim=3)
    reports = lawsuite.run_suite(binding, cases=50, seed=105)
    chain_rule_fails = [
        (
            47,
            "chain rule fails (id1 o prod2): map=prod2 x=[1.215426 0.939176] v=[-0.372021  1.354837] "
            "lhs=[1.2973115219] rhs=[2.5946230438]",
        ),
        (
            72,
            "chain rule fails (id1 o poly3): map=poly3 x=[ 1.33028  -1.814027 -1.597353] "
            "v=[ 1.975799 -0.610407  0.322851] lhs=[11.4998711212] rhs=[22.9997422423]",
        ),
    ]
    assert {r.law_id: (r.cases, r.counterexample) for r in reports if r.status == "fail"} == {
        "L3": (1, "Leibniz fails: map=id1 x=[1.937921] v=[0.854149] lhs=[3.3105474023] rhs=[6.6210948045]"),
        "L4": chain_rule_fails[0],
        # id1 is the first scalar map of L18 and L20, five points each; in both its fifth is the first above 1
        "L18": (5, "second fundamental theorem fails: map=id1 x=[1.27832] lhs=[1.567116971] rhs=[1.2783196916]"),
        "L20": (
            5,
            "derivative of the integral loses the field: map=id1 x=[1.499305] v=[1.55497] "
            "lhs=[2.0391893269] rhs=[3.1099390905]",
        ),
    }
    stream = list(binding.checks["L4"](random.Random("105:L4"), 50))
    assert len(stream) == 83
    assert [(case, text) for case, text in enumerate(stream, 1) if text] == chain_rule_fails
