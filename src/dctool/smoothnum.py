"""Numerical smooth maps on small Euclidean spaces.

A desk-scale, tolerance-based counterpart to the two exact models: smooth maps
R^n -> R^m with directional derivatives (Richardson-extrapolated central
differences, or a supplied closed form) and the [0,1] line integral
S[g](x) = integral of g(t*x, x) dt computed by fixed-order Gauss-Legendre
quadrature.  The calculus identities are checked as residual bounds, never as
exact equalities.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class NonFinite(Exception):
    """An evaluator returned NaN or infinity at a probe point."""


@dataclass
class QuadratureConfig:
    order: int = 32
    fd_step: float = 1e-5
    richardson_levels: int = 2
    tol_abs: float = 1e-12
    tol_rel: float = 1e-6

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("quadrature order must be >= 2")
        # a nan fails every comparison and an inf passes every one
        if not all(0 < v < float("inf") for v in (self.tol_abs, self.tol_rel, self.fd_step)):
            raise ValueError("steps and tolerances must be positive and finite")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass
class SmoothMap:
    """A deterministic evaluator for a smooth function R^n -> R^m.

    `exact_derivative(x, v)`, when present, is the closed-form directional
    derivative; finite differences serve as its cross-check.
    """

    in_dim: int
    out_dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    exact_derivative: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    transcendental: bool = False

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.atleast_1d(np.asarray(self.fn(x), dtype=float))
        if not np.all(np.isfinite(y)):
            raise NonFinite(f"{self.label} returned a non-finite value at {x}")
        return y


@dataclass
class BilinearizedMap:
    """A smooth map R^n x R^n -> R^m that is linear in its second argument."""

    in_dim: int
    out_dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str

    def __call__(self, x, y) -> np.ndarray:
        out = np.atleast_1d(np.asarray(self.fn(np.asarray(x, float), np.asarray(y, float)), float))
        if not np.all(np.isfinite(out)):
            raise NonFinite(f"{self.label} returned a non-finite value")
        return out


def fd_directional_derivative(f: SmoothMap, x, v, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Central-difference directional derivative with Richardson extrapolation."""
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    h0 = cfg.fd_step * (1.0 + float(np.linalg.norm(x)))

    def central(h):
        return (f(x + h * v) - f(x - h * v)) / (2.0 * h)

    levels = cfg.richardson_levels
    table = [central(h0 / 2.0**i) for i in range(levels + 1)]
    for j in range(1, levels + 1):
        factor = 4.0**j
        table = [
            (factor * table[i + 1] - table[i]) / (factor - 1.0) for i in range(len(table) - 1)
        ]
    return table[0]


def directional_derivative(f: SmoothMap, x, v, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Directional derivative of f at x along v.

    Uses the closed form when the map carries one, otherwise extrapolated
    central differences.
    """
    if f.exact_derivative is not None:
        x = np.asarray(x, float)
        v = np.asarray(v, float)
        out = np.atleast_1d(np.asarray(f.exact_derivative(x, v), float))
        if not np.all(np.isfinite(out)):
            raise NonFinite(f"{f.label} exact derivative returned a non-finite value")
        return out
    return fd_directional_derivative(f, x, v, cfg)


def bilinearize(f: SmoothMap, cfg: QuadratureConfig = DEFAULT_CONFIG) -> BilinearizedMap:
    """The directional derivative of f viewed as a map linear in its second slot."""
    return BilinearizedMap(
        f.in_dim, f.out_dim, lambda x, y: directional_derivative(f, x, y, cfg), f"D[{f.label}]"
    )


def line_integral_S(g: BilinearizedMap, x, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gauss-Legendre quadrature of t -> g(t*x, x) over [0, 1]."""
    x = np.asarray(x, float)
    nodes, weights = np.polynomial.legendre.leggauss(cfg.order)
    # map [-1, 1] to [0, 1]
    ts = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    acc = np.zeros(g.out_dim)
    for t, w in zip(ts, ws):
        acc = acc + w * g(t * x, x)
    if not np.all(np.isfinite(acc)):
        raise NonFinite(f"line integral of {g.label} is non-finite")
    return acc


def ftc2_residual(f: SmoothMap, x, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Sup-norm defect of: integral of the derivative along [0,x], plus f(0), minus f(x)."""
    x = np.asarray(x, float)
    s = line_integral_S(bilinearize(f, cfg), x, cfg)
    return float(np.max(np.abs(s + f(np.zeros(f.in_dim)) - f(x))))


def integral_map(g: BilinearizedMap, cfg: QuadratureConfig = DEFAULT_CONFIG) -> SmoothMap:
    """The line integral of g packaged as a smooth map x -> S[g](x)."""
    return SmoothMap(g.in_dim, g.out_dim, lambda x: line_integral_S(g, x, cfg), f"S[{g.label}]")


def poincare_residual(F: BilinearizedMap, x, v, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Sup-norm defect of: derivative of the line integral of F, minus F.

    Caller is responsible for the symmetry premise (F the derivative pairing
    of a gradient field, or one-dimensional).
    """
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    s_of_f = integral_map(F, cfg)
    lhs = fd_directional_derivative(s_of_f, x, v, cfg)
    return float(np.max(np.abs(lhs - F(x, v))))


# -- corpus -----------------------------------------------------------------


def _linear(label, A):
    A = np.asarray(A, float)
    m, n = A.shape
    return SmoothMap(n, m, lambda x: A @ x, label, exact_derivative=lambda x, v: A @ v)


def _const(label, c):
    c = np.atleast_1d(np.asarray(c, float))
    n = len(c)
    return SmoothMap(
        n, len(c), lambda x: c.copy(), label, exact_derivative=lambda x, v: np.zeros(len(c))
    )


def builtin_corpus() -> list[SmoothMap]:
    """Deterministic test corpus: polynomial, linear, constant, and
    transcendental members in dimensions 1 to 3, each with a closed-form
    derivative."""
    maps = []

    # dimension 1
    maps.append(_linear("id1", [[1.0]]))
    maps.append(_const("const1", [0.7]))
    maps.append(
        SmoothMap(1, 1, lambda x: x**2, "square1", exact_derivative=lambda x, v: 2.0 * x * v)
    )
    maps.append(
        SmoothMap(
            1,
            1,
            lambda x: x**4 - 3.0 * x**2 + 2.0 * x,
            "quartic1",
            exact_derivative=lambda x, v: (4.0 * x**3 - 6.0 * x + 2.0) * v,
        )
    )
    maps.append(
        SmoothMap(
            1,
            1,
            lambda x: np.sin(x),
            "sin1",
            exact_derivative=lambda x, v: np.cos(x) * v,
            transcendental=True,
        )
    )
    maps.append(
        SmoothMap(
            1,
            1,
            lambda x: np.exp(0.3 * x),
            "exp1",
            exact_derivative=lambda x, v: 0.3 * np.exp(0.3 * x) * v,
            transcendental=True,
        )
    )

    # dimension 2
    maps.append(_linear("linear2", [[1.0, 2.0], [0.0, 1.0]]))
    maps.append(_const("const2", [0.2, -1.3]))
    maps.append(
        SmoothMap(
            2,
            1,
            lambda x: np.array([x[0] * x[1]]),
            "prod2",
            exact_derivative=lambda x, v: np.array([x[1] * v[0] + x[0] * v[1]]),
        )
    )
    maps.append(
        SmoothMap(
            2,
            2,
            lambda x: np.array([x[0] ** 2 * x[1], x[1] ** 3 + x[0]]),
            "poly2",
            exact_derivative=lambda x, v: np.array(
                [2.0 * x[0] * x[1] * v[0] + x[0] ** 2 * v[1], v[0] + 3.0 * x[1] ** 2 * v[1]]
            ),
        )
    )
    maps.append(
        SmoothMap(
            2,
            1,
            lambda x: np.array([np.sin(x[0]) * np.cos(x[1])]),
            "sincos2",
            exact_derivative=lambda x, v: np.array(
                [np.cos(x[0]) * np.cos(x[1]) * v[0] - np.sin(x[0]) * np.sin(x[1]) * v[1]]
            ),
            transcendental=True,
        )
    )

    # dimension 3
    maps.append(_linear("linear3", [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0], [0.0, 0.5, 1.0]]))
    maps.append(_const("const3", [1.0, 0.0, -0.5]))
    maps.append(
        SmoothMap(
            3,
            1,
            lambda x: np.array([x[0] * x[1] * x[2] + x[0] ** 2]),
            "poly3",
            exact_derivative=lambda x, v: np.array(
                [
                    (x[1] * x[2] + 2.0 * x[0]) * v[0]
                    + x[0] * x[2] * v[1]
                    + x[0] * x[1] * v[2]
                ]
            ),
        )
    )
    maps.append(
        SmoothMap(
            3,
            1,
            lambda x: np.array([np.exp(-(x[0] ** 2 + x[1] ** 2 + x[2] ** 2) / 4.0)]),
            "gauss3",
            exact_derivative=lambda x, v: np.array(
                [np.exp(-(x @ x) / 4.0) * (-(x @ v) / 2.0)]
            ),
            transcendental=True,
        )
    )
    return maps


def gradient_field(potential: SmoothMap, cfg: QuadratureConfig = DEFAULT_CONFIG) -> BilinearizedMap:
    """The derivative pairing of a scalar potential: (x, v) -> grad(potential)(x) . v.

    Such fields satisfy the symmetry premise of the Poincare check by
    construction.
    """
    if potential.out_dim != 1:
        raise ValueError("potential must be scalar-valued")

    def fn(x, v):
        return directional_derivative(potential, x, v, cfg)

    return BilinearizedMap(potential.in_dim, 1, fn, f"grad[{potential.label}]")


def sample_point(rng, dim: int, low: float = -2.0, high: float = 2.0) -> np.ndarray:
    """Seeded uniform draw from the test box."""
    return np.array([rng.uniform(low, high) for _ in range(dim)])


def rel_close(a, b, tol_rel: float, tol_abs: float = 1e-12) -> bool:
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    scale = max(1.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) <= max(tol_abs, tol_rel * scale)
