"""Numerical smooth maps on small Euclidean spaces.

A desk-scale, tolerance-based counterpart to the two exact models: smooth maps
R^n -> R^m with directional derivatives (a complex step, or a supplied closed
form) and the [0,1] line integral S[g](x) = integral of g(t*x, x) dt computed
by fixed-order Gauss-Legendre quadrature.  The calculus identities are checked
to a tolerance (`rel_close`), never as exact equalities.

The complex step Im f(x + i*h*v) / h, with h = 1e-30, is the directional
derivative of a complex-analytic f to rounding error: it subtracts nothing, so
no step size trades truncation against cancellation, and one tolerance,
`tol_rel` (default 1e-10), serves every law.  Map bodies and closed forms must
therefore be complex-analytic (see `SmoothMap`).

Maps evaluate a batch of points per call: a batch has shape (n, k), one point
per column, and its values have shape (m, k).  Each quadrature and each
complex step is therefore one call of the map under test, and a family map
serves in one call maps that own different columns of a batch.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# leggauss builds an order x order companion matrix, and a quadrature batch
# holds order x points floats
MAX_ORDER = 1024

# the imaginary step h: Im f(x + i*h*v) is h * D[f](x, v) up to a relative
# h**2 = 1e-60, and a normal float while |D[f](x, v)| > 1e-278
COMPLEX_STEP = 1e-30


class NonFinite(Exception):
    """An evaluator returned NaN or infinity at a probe point."""


@dataclass
class QuadratureConfig:
    order: int = 32
    tol_abs: float = 1e-12
    tol_rel: float = 1e-10

    def __post_init__(self):
        if not 2 <= self.order <= MAX_ORDER:
            raise ValueError(f"quadrature order must be between 2 and {MAX_ORDER}")
        # a nan fails every comparison and an inf passes every one
        if not all(0 < v < float("inf") for v in (self.tol_abs, self.tol_rel)):
            raise ValueError("tolerances must be positive and finite")


DEFAULT_CONFIG = QuadratureConfig()


@functools.cache
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the order-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    # map [-1, 1] to [0, 1]
    ts, ws = 0.5 * (nodes + 1.0), 0.5 * weights
    ts.flags.writeable = ws.flags.writeable = False
    return ts, ws


def _batch(*arrays):
    """The arguments as float or complex arrays of one shape, (n,) or (n, k).

    Every argument must have the same shape, (n,) for a single point or
    direction or (n, *batch) for a batch, which is flattened into k columns.
    Returns the arrays and the batch shape, which is () for a single point.
    """
    arrays = [np.asarray(a, complex if np.iscomplexobj(a) else float) for a in arrays]
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError(f"arguments of shapes {[a.shape for a in arrays]} differ; broadcast them first")
    return ([a.reshape(shape[0], -1) for a in arrays] if len(shape) > 2 else arrays), shape[1:]


def _evaluate(fn, out_dim: int, label: str, *args) -> np.ndarray:
    """fn at one point, shape (m,), or at a batch of points in one call, shape (m, *batch).

    A constant output broadcasts over the batch.  Every value is checked to be
    finite.
    """
    args, batch = _batch(*args)
    y = np.asarray(fn(*args))
    if not batch:
        y = np.atleast_1d(y)
    elif y.shape != (out_dim, args[0].shape[1]):
        y = np.broadcast_to(y.reshape(out_dim, -1), (out_dim, args[0].shape[1]))
    finite = np.isfinite(y)
    if not finite.all():
        x = args[0][:, np.argmin(finite.all(axis=0))] if batch else args[0]
        raise NonFinite(f"{label} returned a non-finite value at {x}")
    return y.reshape((out_dim,) + batch) if batch else y


@dataclass
class SmoothMap:
    """A deterministic evaluator for a smooth function R^n -> R^m.

    Called on a point of shape (n,) it returns shape (m,); called on a batch
    of shape (n, k), one point per column, it makes one call of `fn` and
    returns shape (m, k).  `fn` and `exact_derivative` must therefore work
    column-wise: index coordinates as `x[i]` and reduce over axis 0.  A
    constant output broadcasts over the batch, and a nested batch (n, *batch)
    is flattened into k.  Points and directions passed together share one
    shape.

    `exact_derivative(x, v)`, when present, is the closed-form directional
    derivative; the complex step serves as its cross-check.

    `fn` and `exact_derivative` must be complex-analytic: the complex step
    evaluates them at complex points and reads the derivative off the
    imaginary part.  So no `abs`, no casts to float and no comparisons, except
    on `x.real`; np.sin, np.exp, powers, products and `np.sum` are fine.
    """

    in_dim: int
    out_dim: int
    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    exact_derivative: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def __call__(self, x) -> np.ndarray:
        return _evaluate(self.fn, self.out_dim, self.label, x)


@dataclass
class BilinearizedMap:
    """A smooth map R^n x R^n -> R^m that is linear in its second argument.

    Takes points and directions in the batch convention of `SmoothMap`.
    """

    in_dim: int
    out_dim: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    label: str

    def __call__(self, x, y) -> np.ndarray:
        return _evaluate(self.fn, self.out_dim, self.label, x, y)


def family(maps: list[SmoothMap]) -> SmoothMap:
    """One map over a batch cut into len(maps) equal runs of columns, run r owned by maps[r].

    A call evaluates each member once, on its runs joined in column order, so a
    NonFinite names the member and its first bad column.  The closed-form
    derivative, present when every member has one, works the same way.  A batch
    that repeats each column in a row (quadrature nodes) keeps the runs.
    """
    runs = {}
    for r, f in enumerate(maps):
        runs.setdefault(id(f), (f, []))[1].append(r)
    if len(runs) == 1:
        return maps[0]

    def joined(evaluate):
        def fn(*args):
            args = [x.reshape(len(x), len(maps), -1) for x in args]
            y = np.empty((maps[0].out_dim,) + args[0].shape[1:], np.result_type(*args))
            for f, rs in runs.values():
                part = evaluate(f, *(np.concatenate([x[:, r] for r in rs], axis=1) for x in args))
                part = part.reshape(len(y), len(rs), -1)
                for i, r in enumerate(rs):
                    y[:, r] = part[:, i]
            return y.reshape(len(y), -1)

        return fn

    exact = None
    if all(f.exact_derivative for f in maps):
        exact = joined(lambda f, x, v: _evaluate(f.exact_derivative, f.out_dim, f"{f.label} exact derivative", x, v))
    return SmoothMap(maps[0].in_dim, maps[0].out_dim, joined(lambda f, x: f(x)), "family", exact)


def fd_directional_derivative(f: SmoothMap, x, v):
    """Complex-step directional derivative: Im f(x + i*h*v) / h, one call of f.

    A complex step nested in another would read the outer step's imaginary
    part as its own, so a point that is already complex is refused.
    """
    (x, v), batch = _batch(x, v)
    if np.iscomplexobj(x) and x.imag.any():
        raise ValueError(f"{f.label}: complex step at a complex point; give the map a closed-form derivative")
    return (f(x + COMPLEX_STEP * 1j * v).imag / COMPLEX_STEP).reshape((-1,) + batch)


def directional_derivative(f: SmoothMap, x, v):
    """Directional derivative of f at x along v.

    Uses the closed form when the map carries one, otherwise the complex step.
    """
    if f.exact_derivative is not None:
        return _evaluate(f.exact_derivative, f.out_dim, f"{f.label} exact derivative", x, v)
    return fd_directional_derivative(f, x, v)


def bilinearize(f: SmoothMap) -> BilinearizedMap:
    """The directional derivative of f viewed as a map linear in its second slot."""
    return BilinearizedMap(f.in_dim, f.out_dim, lambda x, y: directional_derivative(f, x, y), f"D[{f.label}]")


def line_integral_S(g: BilinearizedMap, x, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gauss-Legendre quadrature of t -> g(t*x, x) over [0, 1].

    All nodes of all columns of x are one call of g.  Each column's nodes are
    summed on their own, so a column's integral does not depend on the batch
    it is in.
    """
    x = np.asarray(x)[..., None]
    ts, ws = gauss_legendre(cfg.order)
    nodes = x * ts
    acc = np.sum(g(nodes, np.broadcast_to(x, nodes.shape)) * ws, axis=-1)
    if not np.all(np.isfinite(acc)):
        raise NonFinite(f"line integral of {g.label} is non-finite")
    return acc


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
        )
    )
    maps.append(
        SmoothMap(
            1,
            1,
            lambda x: np.exp(0.3 * x),
            "exp1",
            exact_derivative=lambda x, v: 0.3 * np.exp(0.3 * x) * v,
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
                [np.exp(-np.sum(x * x, axis=0) / 4.0) * (-np.sum(x * v, axis=0) / 2.0)]
            ),
        )
    )
    return maps


def sample_point(rng, dim: int, low: float = -2.0, high: float = 2.0) -> np.ndarray:
    """Seeded uniform draw from the test box."""
    return np.array([rng.uniform(low, high) for _ in range(dim)])


def rel_close(a, b, tol_rel: float, tol_abs: float = 1e-12):
    """Whether a and b agree to tol_rel times max(1, |a|, |b|), or to tol_abs: one verdict per column of a batch."""
    a, b = (np.atleast_1d(np.asarray(v, float)) for v in (a, b))
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0)))
    return np.max(np.abs(a - b), axis=0) <= np.maximum(tol_abs, tol_rel * scale)
