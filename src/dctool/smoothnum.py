"""Numerical smooth maps on small Euclidean spaces.

A desk-scale, tolerance-based counterpart to the two exact models: smooth maps
R^n -> R^m with directional derivatives read off their bodies and the [0,1]
line integral S[g](x) = integral of g(t*x, x) dt computed by fixed-order
Gauss-Legendre quadrature.  The calculus identities are checked to a
tolerance, never as exact equalities: every law hands its equations to one
comparison, `_check`, whose bound on |lhs - rhs| is `tol_rel` times
max(1, |lhs|, |rhs|), per probe point (`rel_close`).

The one derivative, `fd_directional_derivative`, takes the complex step
Im f(x + i*h*v) / h, with h = 1e-30, when no other derivative is being
evaluated: for a complex-analytic f it is exact to rounding error, since it
subtracts nothing, so no step size trades truncation against cancellation,
and one tolerance, `tol_rel` (default 1e-10), serves every law (Squire and
Trapp, 1998).  Inside another derivative, or at a complex point, it
evaluates f at a `Dual` number of a fresh tag instead, so derivatives nest
without reading each other's perturbation (Siskind and Pearlmutter, 2008).  Map bodies must therefore be
complex-analytic and built from the operations a `Dual` carries (see
`SmoothMap`); no map carries a hand-written derivative.

Maps evaluate a batch of points per call: a batch has shape (n, k), one point
per column, and its values have shape (m, k).  Each quadrature and each
derivative is therefore one call of the map under test, and a family map
serves in one call maps that own different columns of a batch.  A field, such
as the derivative D[f] that the line integral takes, is a `SmoothMap` of two
arguments, a point and a direction (`BilinearizedMap`), called the same way.
Maps and fields add with `+`.

The model's law binding, `make_smooth_binding`, lives here too, so that numpy
is imported only by runs of the numerical model.  Its operators d =
`bilinearize`, d°, s = `line_integral_S`, !(0) = `origin` and zero take maps
and fields to maps and fields, so the law table's rows of L2, L5 and L18-L20
run on this model as they do on the exact ones.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .lawsuite import ModelBinding, Op, Operators, taylor

# leggauss builds an order x order companion matrix, and a quadrature batch
# holds order x points floats
MAX_ORDER = 1024

# the imaginary step h: Im f(x + i*h*v) is h * D[f](x, v) up to a relative
# h**2 = 1e-60, and a normal float while |D[f](x, v)| > 1e-278
COMPLEX_STEP = 1e-30


class NonFinite(Exception):
    """An evaluator returned NaN or infinity at a probe point."""


class QuadratureConfig:
    __slots__ = ("order", "tol_rel")

    def __init__(self, order: int = 32, tol_rel: float = 1e-10):
        if not 2 <= order <= MAX_ORDER:
            raise ValueError(f"quadrature order must be between 2 and {MAX_ORDER}")
        # a nan fails every comparison and an inf passes every one
        if not 0 < tol_rel < float("inf"):
            raise ValueError("the tolerance must be positive and finite")
        self.order, self.tol_rel = order, tol_rel


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
    arrays = [a if isinstance(a, Dual) else np.asarray(a, complex if np.iscomplexobj(a) else float) for a in arrays]
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
    y = fn(*args)
    if not isinstance(y, Dual):
        y = np.asarray(y)
    if not batch:
        y = np.atleast_1d(y)
    elif y.shape != (out_dim, args[0].shape[1]):
        y = np.broadcast_to(y.reshape(out_dim, -1), (out_dim, args[0].shape[1]))
    finite = _finite(y)
    if np.count_nonzero(finite) < finite.size:  # a cheaper reduction than all() on a small batch
        x = _value(args[0])
        x = x[:, np.argmin(finite.all(axis=0))] if batch else x
        raise NonFinite(f"{label} returned a non-finite value at {x}")
    return y.reshape((out_dim,) + batch) if batch else y


class Dual:
    """x + v*e_tag with e_tag**2 = 0: a value and its tangent along one derivative's direction.

    Each derivative evaluated inside another takes a fresh tag, larger than
    every tag in flight, so nested derivatives keep their perturbations apart
    (Siskind and Pearlmutter, 2008).  x and v are arrays of one shape, or
    Duals of lower tags; an operand of a lower tag is a constant to this one.
    numpy's ufuncs defer to the operators below, and `__array_function__`
    carries `np.stack`, `np.concatenate`, `np.broadcast_to`, `np.sum`,
    `np.zeros_like` and `np.atleast_1d` through both parts.
    """

    __slots__ = ("x", "v", "tag")
    __array_ufunc__ = None

    def __init__(self, x, v, tag: int):
        self.x, self.tag = x, tag
        self.v = v if v.shape == x.shape else np.broadcast_to(v, x.shape)

    shape = property(lambda self: self.x.shape)

    def __getitem__(self, index):
        return Dual(self.x[index], self.v[index], self.tag)

    def reshape(self, *shape):
        return Dual(self.x.reshape(*shape), self.v.reshape(*shape), self.tag)

    def __neg__(self):
        return Dual(-self.x, -self.v, self.tag)

    def __pow__(self, n):
        return Dual(self.x**n, n * self.x ** (n - 1) * self.v, self.tag)

    def __array_function__(self, func, types, args, kwargs):
        if func in (np.stack, np.concatenate):
            tag = max(a.tag for a in args[0] if isinstance(a, Dual))
            xs, vs = zip(*((a.x, a.v) if getattr(a, "tag", 0) == tag else (a, np.zeros_like(a)) for a in args[0]))
            return Dual(func(xs, *args[1:], **kwargs), func(vs, *args[1:], **kwargs), tag)
        if func is np.zeros_like:
            return func(self.x, *args[1:], **kwargs)
        if func in (np.broadcast_to, np.sum, np.atleast_1d):
            return Dual(func(self.x, *args[1:], **kwargs), func(self.v, *args[1:], **kwargs), self.tag)
        return NotImplemented


def _parts(a, tag):
    """a's value and its tangent under `tag`, None where a does not carry that tag."""
    return (a.x, a.v) if isinstance(a, Dual) and a.tag == tag else (a, None)


def _binary(rule):
    """An operator and its reflection, from a rule on the (value, tangent) pairs of both operands under the
    higher of their tags."""

    def apply(a, b):
        tag = max(a.tag if isinstance(a, Dual) else 0, b.tag if isinstance(b, Dual) else 0)
        return Dual(*rule(*_parts(a, tag), *_parts(b, tag)), tag)

    return apply, lambda b, a: apply(a, b)


def _add(ax, av, bx, bv):
    return ax + bx, bv if av is None else av if bv is None else av + bv


def _subtract(ax, av, bx, bv):
    return ax - bx, -bv if av is None else av if bv is None else av - bv


def _product_rule(op):
    def rule(ax, av, bx, bv):
        return op(ax, bx), op(av, bx) if bv is None else op(ax, bv) if av is None else op(av, bx) + op(ax, bv)

    return rule


def _quotient(ax, av, bx, bv):
    q = ax / bx
    return q, av / bx if bv is None else (-q * bv if av is None else av - q * bv) / bx


Dual.__add__, Dual.__radd__ = _binary(_add)
Dual.__sub__, Dual.__rsub__ = _binary(_subtract)
Dual.__mul__, Dual.__rmul__ = _binary(_product_rule(operator.mul))
Dual.__matmul__, Dual.__rmatmul__ = _binary(_product_rule(operator.matmul))
Dual.__truediv__, Dual.__rtruediv__ = _binary(_quotient)


def sin(x):
    """np.sin, of a Dual too."""
    return Dual(sin(x.x), cos(x.x) * x.v, x.tag) if isinstance(x, Dual) else np.sin(x)


def cos(x):
    """np.cos, of a Dual too."""
    return Dual(cos(x.x), -sin(x.x) * x.v, x.tag) if isinstance(x, Dual) else np.cos(x)


def exp(x):
    """np.exp, of a Dual too."""
    if isinstance(x, Dual):
        y = exp(x.x)
        return Dual(y, y * x.v, x.tag)
    return np.exp(x)


def _finite(y):
    """Whether each entry of y, and of every tangent of a Dual y, is finite."""
    return _finite(y.x) & _finite(y.v) if isinstance(y, Dual) else np.isfinite(y)


def _value(y):
    """y without its tangents."""
    return _value(y.x) if isinstance(y, Dual) else y


class SmoothMap:
    """A deterministic evaluator for a smooth function R^n -> R^m.

    Called on a point of shape (n,) it returns shape (m,); called on a batch
    of shape (n, k), one point per column, it makes one call of `fn` and
    returns shape (m, k).  A field (`BilinearizedMap`) is called on a point
    and a direction, `fn(x, v)`.  `fn` must therefore work column-wise: index
    coordinates as `x[i]` and reduce over axis 0.  A constant output
    broadcasts over the batch, and a nested batch (n, *batch) is flattened
    into k.  Points and directions passed together share one shape.

    Its derivative is read off `fn` itself (`fd_directional_derivative`),
    which evaluates it at complex points and at `Dual` points.  So `fn` must
    be complex-analytic and built from `+ - * /`, `**` to a constant, `@`,
    this module's `sin`, `cos` and `exp`, and `np.stack` (not `np.array` of
    a list, which would hold Duals as objects); `np.sum` and `np.zeros_like`
    also work.  No `abs`, no casts to float and no comparisons.
    """

    __slots__ = ("in_dim", "out_dim", "fn", "label")

    def __init__(self, in_dim: int, out_dim: int, fn, label: str):
        self.in_dim, self.out_dim, self.fn, self.label = in_dim, out_dim, fn, label

    def __call__(self, *args) -> np.ndarray:
        return _evaluate(self.fn, self.out_dim, self.label, *args)

    def __add__(self, other: "SmoothMap") -> "SmoothMap":
        return type(self)(self.in_dim, self.out_dim, lambda *a: self(*a) + other(*a), f"{self.label} + {other.label}")


class BilinearizedMap(SmoothMap):
    """A field: a smooth map of two arguments, R^n x R^n -> R^m, linear in the second.

    Called on a point and a direction of one shape, in the batch convention of
    `SmoothMap`.
    """


def family(maps: list[SmoothMap]) -> SmoothMap:
    """One map over a batch cut into len(maps) equal runs of columns, run r owned by maps[r].

    A call evaluates each member once, on its runs joined in column order, so a
    NonFinite names the member and its first bad column.  A batch that repeats
    each column in a row (quadrature nodes) keeps the runs.
    """
    runs = {}
    for r, f in enumerate(maps):
        runs.setdefault(id(f), (f, []))[1].append(r)
    if len(runs) == 1:
        return maps[0]
    # the run of each column of the members' joined values
    back = np.argsort([r for _, rs in runs.values() for r in rs])
    n, m = maps[0].in_dim, maps[0].out_dim

    def fn(*args):
        args = [x.reshape(n, len(maps), -1) for x in args]
        parts = [f(*(x[:, rs].reshape(n, -1) for x in args)).reshape(m, len(rs), -1) for f, rs in runs.values()]
        return np.concatenate(parts, axis=1)[:, back].reshape(m, -1)

    return SmoothMap(n, m, fn, "family")


# the number of derivatives being evaluated, one inside another
_depth = 0


def fd_directional_derivative(f: SmoothMap, x, v):
    """The directional derivative of f at x along v, from one call of f.

    Outside any other derivative, at a real point and direction, it is the
    complex step Im f(x + i*h*v) / h.  Inside one, whose complex step or
    Duals x, v and f's closures may carry, and at a complex point, it is the
    tangent of f(Dual(x, v, tag)) under a fresh tag, so the two derivatives
    do not read each other's perturbation.  The two agree to rounding error.
    """
    global _depth
    (x, v), batch = _batch(x, v)
    _depth += 1
    try:
        if _depth == 1 and getattr(x, "dtype", None) == getattr(v, "dtype", None) == float:
            return (f(x + COMPLEX_STEP * 1j * v).imag / COMPLEX_STEP).reshape((-1,) + batch)
        y = f(Dual(x, v, _depth))
        return (y.v if getattr(y, "tag", 0) == _depth else np.zeros_like(y)).reshape((-1,) + batch)
    finally:
        _depth -= 1


def bilinearize(f: SmoothMap) -> BilinearizedMap:
    """The directional derivative of f viewed as a map linear in its second slot."""
    return BilinearizedMap(f.in_dim, f.out_dim, lambda x, y: fd_directional_derivative(f, x, y), f"D[{f.label}]")


def origin(f: SmoothMap) -> SmoothMap:
    """!(0) f, the constant map x -> f(0): one call of f, at a batch of zeros shaped as its points."""
    return SmoothMap(f.in_dim, f.out_dim, lambda x: f(np.zeros_like(x)), f"{f.label}(0)")


def line_integral_S(g: BilinearizedMap, x, cfg: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Gauss-Legendre quadrature of t -> g(t*x, x) over [0, 1], x an array or a `Dual`.

    All nodes of all columns of x are one call of g.  Each column's nodes are
    summed on their own, so a column's integral does not depend on the batch
    it is in.
    """
    x = (x if isinstance(x, Dual) else np.asarray(x))[..., None]
    ts, ws = gauss_legendre(cfg.order)
    nodes = x * ts
    acc = np.sum(g(nodes, np.broadcast_to(x, nodes.shape)) * ws, axis=-1)
    if not np.all(_finite(acc)):
        raise NonFinite(f"line integral of {g.label} is non-finite")
    return acc


# -- corpus -----------------------------------------------------------------


def _linear(label, A):
    A = np.asarray(A, float)
    return SmoothMap(A.shape[1], A.shape[0], lambda x: A @ x, label)


def _const(label, c):
    c = np.asarray(c, float)
    return SmoothMap(len(c), len(c), lambda x: c.copy(), label)


def builtin_corpus() -> list[SmoothMap]:
    """Deterministic test corpus: polynomial, linear, constant, and
    transcendental members in dimensions 1 to 3."""
    return [
        # dimension 1
        _linear("id1", [[1.0]]),
        _const("const1", [0.7]),
        SmoothMap(1, 1, lambda x: x**2, "square1"),
        SmoothMap(1, 1, lambda x: x**4 - 3.0 * x**2 + 2.0 * x, "quartic1"),
        SmoothMap(1, 1, lambda x: sin(x), "sin1"),
        SmoothMap(1, 1, lambda x: exp(0.3 * x), "exp1"),
        # dimension 2
        _linear("linear2", [[1.0, 2.0], [0.0, 1.0]]),
        _const("const2", [0.2, -1.3]),
        SmoothMap(2, 1, lambda x: np.stack([x[0] * x[1]]), "prod2"),
        SmoothMap(2, 2, lambda x: np.stack([x[0] ** 2 * x[1], x[1] ** 3 + x[0]]), "poly2"),
        SmoothMap(2, 1, lambda x: np.stack([sin(x[0]) * cos(x[1])]), "sincos2"),
        # dimension 3
        _linear("linear3", [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0], [0.0, 0.5, 1.0]]),
        _const("const3", [1.0, 0.0, -0.5]),
        SmoothMap(3, 1, lambda x: np.stack([x[0] * x[1] * x[2] + x[0] ** 2]), "poly3"),
        SmoothMap(3, 1, lambda x: np.stack([exp(-(x[0] ** 2 + x[1] ** 2 + x[2] ** 2) / 4.0)]), "gauss3"),
    ]


def sample_point(rng, dim: int) -> np.ndarray:
    """Seeded uniform draw from the test box [-2, 2]^dim."""
    return _points(rng, dim, 1)[:, 0]


def rel_close(a, b, tol_rel: float):
    """Whether a and b agree to tol_rel times max(1, |a|, |b|): one verdict per column of a batch."""
    a, b = (np.atleast_1d(np.asarray(v, float)) for v in (a, b))
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0)))
    return np.max(np.abs(a - b), axis=0) <= tol_rel * scale


# -- law binding ------------------------------------------------------------


def _points(rng, dim, k):
    """k seeded points of the test box, drawn one after another, as the columns of one (dim, k) batch."""
    draws = [rng.uniform(-2.0, 2.0) for _ in range(dim * k)]
    return np.array(draws).reshape(k, dim).T


class _ProbeBatch:
    """A shape class of a law's probe points: k columns of X (and directions V) per item, in item
    order; `index` holds the items' places in the law's list and owners[j] the maps of column j."""

    def __init__(self, rows, k):
        self.index, self.items, drawn = zip(*rows)
        self.X, *V = (np.concatenate(points, axis=1) for points in zip(*drawn))
        self.V = V[0] if V else None
        self.k = k
        self.owners = [maps for maps in self.items for _ in range(k)]

    def family(self, i=0):
        return family([maps[i] for maps in self.items])


def _sample(rng, cases, items, directions=False):
    """The whole law's probe points, one `_ProbeBatch` per shape class of its items.

    An item is a map or a tuple of maps, the first the points belong to, and
    its shape class is its maps' dimensions.  Each item gets `cases //
    len(items)` (at least one) seeded points, then, with `directions`, one
    direction per point: the rng stream of drawing the items one by one.
    """
    k = max(1, cases // len(items))
    classes = {}
    for index, item in enumerate(items):
        maps = item if isinstance(item, tuple) else (item,)
        drawn = [_points(rng, maps[0].in_dim, k) for _ in range(1 + directions)]
        classes.setdefault(tuple((f.in_dim, f.out_dim) for f in maps), []).append((index, maps, drawn))
    return [_ProbeBatch(rows, k) for rows in classes.values()]


def _check(tol_rel, rng, cases, items, sides, directions=False):
    """The model's one comparison: a counterexample or None per column of each of `_sample`'s batches,
    yielded item by item in item order.

    sides(b) yields the (label, lhs, rhs, directed) equations of batch b, each side one value per
    column; a column fails at the first equation whose sides `rel_close` at tol_rel refuses, shown by
    `_fail`.  A batch is compared when the first of its items is reached.
    """
    where = {i: (b, r) for b in _sample(rng, cases, items, directions) for r, i in enumerate(b.index)}
    verdicts = {}
    for b, r in (where[i] for i in range(len(items))):
        if id(b) not in verdicts:
            found = verdicts[id(b)] = [None] * len(b.owners)
            for label, lhs, rhs, directed in sides(b):
                for j in np.flatnonzero(~rel_close(lhs, rhs, tol_rel)):
                    found[j] = found[j] or _fail(label, b, j, lhs, rhs, directed)
        yield from verdicts[id(b)][r * b.k : (r + 1) * b.k]


def _fail(label, b, j, lhs, rhs, directed):
    """Column j's counterexample: its map, its point x and, where the compared values read it, its
    direction v, both to 6 digits, and both sides to 10."""
    maps = b.owners[j]
    at = (("x", b.X), ("v", b.V)) if directed else (("x", b.X),)
    shown = [f"{name}={np.array2string(P[:, j], precision=6)}" for name, P in at]
    for name, side in (("lhs", lhs), ("rhs", rhs)):
        shown.append(f"{name}={np.array2string(np.atleast_1d(np.asarray(side[..., j], float)), precision=10)}")
    return f"{label if isinstance(label, str) else label(*maps)}: map={maps[0].label} " + " ".join(shown)


# what each law the smooth binding skips needs and the model lacks: its operator sets hold d, d°, s, !(0) and zero
_LACKS = dict.fromkeys(("L8", "L9", "L13", "L15", "L16", "L17"), "K, J and their inverses")
_LACKS.update(dict.fromkeys(("L10", "L11", "L14"), "the unit monoidal maps m_{R,A} and m_R x 1"))
_LACKS.update(L1="the comonoid Delta", L7="the symmetry sigma", L22="the splitting chi", L23="relabelling along linear maps")
_SKIPS = {law_id: f"needs {what}, which the smooth model does not build" for law_id, what in _LACKS.items()}
_SKIPS["L12"] = "L18 checks s;d + !(0) = 1 on the 1-D maps, the maps of the unit R"
_SKIPS["L24"] = "real coefficients are not additively idempotent"


def make_smooth_binding(cfg: QuadratureConfig | None = None, max_dim: int = 3) -> ModelBinding:
    """Tolerance-based law binding for the numerical smooth-map model.

    Each law draws all its probe points first and evaluates each side once per
    shape class of its items, through family maps that call each corpus map
    once.  It yields its (label, lhs, rhs, directed) equations on each batch
    to `_check`, the one comparison, at `cfg.tol_rel`, which yields one
    counterexample or None per column, in item order: a column's first
    failing equation.

    The laws with equations in their `lawsuite.LAWS` row run on one set of
    operators, which only name their input type and object: d = `bilinearize`
    (map -> field), d° g = x -> g(x, x), s g = x -> `line_integral_S(g, x)`,
    !(0) f = `origin(f)`, x -> f(0), zero is the zero field, and f x 1 applies
    f to the point argument of a field with its direction held fixed.  A "map" input
    is a scalar corpus map, and a "field" input a corpus map R^n -> R^n read
    as (x, v) -> sum_i f_i(x) v_i; on the unit R both are the 1-D maps.  Maps are compared at the points
    and fields at the points and directions `_sample` draws, and a
    counterexample shows the direction where the values compared read it.
    The model has no K, J, inverses or unit monoidal maps, so it answers L2,
    L5 and L18-L20 by their rows and skips the laws that read the rest.
    It answers the Taylor property (L21) as it answers those rows, by the
    equations of `lawsuite.taylor`, d;!(0) = 0 and !(0);!(0) = !(0), on the
    scalar corpus maps, which L2 reads too.
    """
    cfg = cfg or QuadratureConfig()
    if not 1 <= max_dim <= 3:
        raise ValueError("max_dim must be between 1 and 3")
    # the rule's first use pays for numpy's first linear-algebra call, which
    # belongs to the build, not to the first law that integrates (L18)
    gauss_legendre(cfg.order)
    corpus = [f for f in builtin_corpus() if f.in_dim <= max_dim]
    check = functools.partial(_check, cfg.tol_rel)

    def fd(f, b):
        return fd_directional_derivative(f, b.X, b.V)

    def operators(at):
        """The operator set `at`, "general" or "unit", on the input types ("map", at) and ("field", at)."""
        maps, fields = ("map", at), ("field", at)

        def x1(f):  # f applied to the point argument of a field, its direction held fixed
            held = lambda g: lambda x, v: f.fn(SmoothMap(g.in_dim, g.out_dim, lambda y: g(y, v), g.label))(x)  # noqa: E731
            return Op(fields, lambda g: BilinearizedMap(g.in_dim, g.out_dim, held(g), f"({g.label}) x 1"))

        return Operators(
            Op(maps, bilinearize),
            Op(fields, lambda g: SmoothMap(g.in_dim, g.out_dim, lambda x: g(x, x), f"d°[{g.label}]")),
            Op(fields, lambda g: SmoothMap(g.in_dim, g.out_dim, lambda x: line_integral_S(g, x, cfg), f"S[{g.label}]")),
            Op(maps, origin),
            None, None, None, None,
            id=Op(maps, lambda f: f),
            zero=Op(maps, lambda f: BilinearizedMap(
                f.in_dim, f.out_dim, lambda x, v: np.zeros((f.out_dim, *x.shape[1:])), "0"
            )),
            gate=None, spread=None, atom=None, tag=None,
            x1=x1,
        )

    def equations(law, at, rng, cases):
        """Evaluate both sides of each (lhs, rhs, label) `law` yields on the operator set `at` at the
        probe points of the corpus items of its input type, one family per shape class, each point one case."""
        by_src = {}
        for lhs, rhs, label in law(operators(at), operators("unit")):
            by_src.setdefault(lhs.src, []).append((lhs.fn, rhs.fn, label))
        for (kind, where), eqs in by_src.items():
            field = kind == "field"

            def sides(b):  # called while this source's points are read, so eqs and field are this source's
                F = b.family()
                pairing = lambda x, v: np.sum(F(x) * v, axis=0, keepdims=True)  # noqa: E731
                value = BilinearizedMap(F.in_dim, 1, pairing, F.label) if field else F
                for lhs, rhs, label in eqs:  # fields at the points and directions, maps at the points
                    f, g = lhs(value), rhs(value)
                    directed = isinstance(f, BilinearizedMap)
                    at = (b.X, b.V) if directed else (b.X,)
                    yield label, f(*at), g(*at), directed

            shape = (lambda f: f.in_dim == f.out_dim) if field else (lambda f: f.out_dim == 1)
            items = [f for f in corpus if shape(f) and (where == "general" or f.in_dim == 1)]
            yield from check(rng, cases, items, sides, directions=True)

    def l3(rng, cases):
        def sides(b):
            F, G = b.family(0), b.family(1)
            lhs = fd(SmoothMap(F.in_dim, 1, lambda z: F(z) * G(z), "prod"), b)
            yield "Leibniz fails", lhs, F(b.X) * fd(G, b) + G(b.X) * fd(F, b), True

        scalars = [f for f in corpus if f.out_dim == 1]
        return check(rng, cases, [(f, g) for f in scalars for g in scalars if f.in_dim == g.in_dim], sides, True)

    def l4(rng, cases):
        def sides(b):
            F, G = b.family(0), b.family(1)
            lhs = fd(SmoothMap(F.in_dim, G.out_dim, lambda z: G(F(z)), "comp"), b)
            rhs = fd_directional_derivative(G, F(b.X), fd(F, b))
            yield lambda f, g: f"chain rule fails ({g.label} o {f.label})", lhs, rhs, True

        return check(rng, cases, [(f, g) for f in corpus for g in corpus if g.in_dim == f.out_dim], sides, True)

    # scalar maps of two or more variables: the inputs of L6
    potentials = [f for f in corpus if f.out_dim == 1 and f.in_dim >= 2]

    def l6(rng, cases):
        def sides(b):
            F = b.family()
            # the first two unit directions, as (n, 1) columns to broadcast against a batch
            ei, ej = np.eye(F.in_dim)[:2, :, None]

            # each side differentiates a partial derivative: the outer takes the
            # complex step, and the inner, inside it, evaluates F at Duals
            def partial(e):
                along_e = lambda z: fd_directional_derivative(F, z, np.broadcast_to(e, z.shape))  # noqa: E731
                return SmoothMap(F.in_dim, 1, along_e, "d")

            lhs = fd_directional_derivative(partial(ej), b.X, np.broadcast_to(ei, b.X.shape))
            rhs = fd_directional_derivative(partial(ei), b.X, np.broadcast_to(ej, b.X.shape))
            yield "mixed partials differ", lhs, rhs, False

        return check(rng, cases, potentials, sides)

    checks = {"L3": l3, "L4": l4, "L6": l6, "L21": functools.partial(equations, taylor, "general")}
    skips = dict(_SKIPS)
    if not potentials:
        del checks["L6"]
        skips["L6"] = "the corpus has no scalar map of two or more variables"
    params = {"max_dim": max_dim, "order": cfg.order, "tol_rel": cfg.tol_rel}
    return ModelBinding("smooth", "real", checks, skips, params, equations)
