"""Numerical model: corpus probes, quadrature oracles, and residual bounds."""

import math
import random

import numpy as np
import pytest

import dctool.smoothnum as sm
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
