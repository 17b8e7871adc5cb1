"""Exact multivariate polynomials and their differentiation/integration operators.

Polynomials over an arbitrary rig, stored sparsely as multi-index -> coefficient
maps in canonical graded-lex order.  On top of the arithmetic sits the operator
family this package exists to check: the gradient `grad`, multiplication by the
generators `mul_in`, evaluation at zero `eval0`, the degree-weighted operators
`K_op`/`J_op` and their inverses, one-variable integration `integrate1`, the
antiderivative integral `s_op`, the unit-grading maps `t_grade` (m_{R,A}),
`eval_at_one` (m_R x 1) and `on_tag` (f x 1) on tagged polynomials,
variable-set splitting (`seely_split`/`seely_merge`), and coKleisli
composition of polynomial maps with its Cartesian derivative.

Canonical form: `terms` maps arity-length tuples of non-negative exponents to
nonzero coefficients.  The public constructor `Polynomial(rig, arity, terms)`
validates its input (any iterable key, arity, sign of every exponent) and
drops zero coefficients.  Every operator of this module builds its result
from canonical operands through the trusted `Polynomial._canonical`, which
tests nothing.  A zero coefficient can then arise in two places only, and is
dropped where it arises (the rig properties behind this are listed in
`rig.Rig`):

- a sum that can cancel: an accumulation over a rig with `has_negatives`
  (`+`, `*`, `mul_in`, `eval_at_one`, `substitute`, `seely_merge`);
- a scalar from outside: `scale(c)`, `const(c)`, the entries of
  `apply_linear`'s matrix and the raw terms of a `SplitTensor`.

A product of nonzero coefficients, a multiplicity `nat_value(k)` and an
inverse `nat_inverse(k)` are never zero, so `grad`, `_graded_scale`,
`t_grade`, `on_tag` and `extend_arity` test nothing.

All operators act in plain function-application order: `K_op(p)` means "apply
the operator to p".  The degree-graded operators act block-diagonally on the
graded-lex canonical form, which keeps both the implementation and the law
counterexample rendering simple.

The model's law binding, `make_poly_binding`, with its seeded generators,
ends this module, so a run of another model never imports it.
"""

from __future__ import annotations

from functools import partial
from operator import add
from typing import Callable

from .lawsuite import ModelBinding, Operators, repeat_case
from .rig import Rig, drop_cancelled

MultiIndex = tuple  # tuple[int, ...]; arity-length exponent vector

DEFAULT_NAMES = ("x", "y", "z", "w")


def _check_arity(a, b, what="operands"):
    if a != b:
        raise ValueError(f"arity mismatch: {what} have arities {a} and {b}")


def grlex_key(exps: MultiIndex):
    """Sort key: descending total degree, then lex with earlier variables first."""
    return (-sum(exps), tuple(-e for e in exps))


def var_names(arity: int) -> tuple[str, ...]:
    if arity <= len(DEFAULT_NAMES):
        return DEFAULT_NAMES[:arity]
    return tuple(f"x{i+1}" for i in range(arity))


class Polynomial:
    """Sparse exact polynomial: mapping multi-index -> nonzero rig coefficient."""

    __slots__ = ("rig", "arity", "terms")

    def __init__(self, rig: Rig, arity: int, terms=None):
        self.rig = rig
        self.arity = arity
        canon = {}
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError(f"multi-index {exps} does not match arity {arity}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if not rig.is_zero(c):
                canon[exps] = c
        self.terms = canon

    @classmethod
    def _canonical(cls, rig: Rig, arity: int, terms: dict) -> "Polynomial":
        """Trusted constructor: every key of `terms` is already an arity-length
        tuple of non-negative exponents and every coefficient is nonzero.
        `terms` is kept, not copied."""
        p = object.__new__(cls)
        p.rig = rig
        p.arity = arity
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, rig: Rig, arity: int) -> "Polynomial":
        return cls._canonical(rig, arity, {})

    @classmethod
    def const(cls, rig: Rig, arity: int, c) -> "Polynomial":
        return cls._canonical(rig, arity, {} if rig.is_zero(c) else {(0,) * arity: c})

    @classmethod
    def one(cls, rig: Rig, arity: int) -> "Polynomial":
        return cls.const(rig, arity, rig.one)

    @classmethod
    def variable(cls, rig: Rig, arity: int, i: int) -> "Polynomial":
        exps = tuple(1 if j == i else 0 for j in range(arity))
        return cls._canonical(rig, arity, {exps: rig.one})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_arity(self.arity, other.arity)
        rig = self.rig
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = rig.add(terms[exps], c) if exps in terms else c
        return Polynomial._canonical(rig, self.arity, drop_cancelled(rig, terms))

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        _check_arity(self.arity, other.arity)
        rig = self.rig
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(map(add, e1, e2))
                c = rig.mul(c1, c2)
                terms[e] = rig.add(terms[e], c) if e in terms else c
        return Polynomial._canonical(rig, self.arity, drop_cancelled(rig, terms))

    def scale(self, c) -> "Polynomial":
        rig = self.rig
        if rig.is_zero(c):
            return Polynomial.zero(rig, self.arity)
        return Polynomial._canonical(rig, self.arity, {e: rig.mul(c, v) for e, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        if self.arity != other.arity or set(self.terms) != set(other.terms):
            return False
        return all(self.rig.eq(c, other.terms[e]) for e, c in self.terms.items())

    def __hash__(self):
        raise TypeError("Polynomial is not hashable")

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def constant_coefficient(self):
        return self.terms.get((0,) * self.arity, self.rig.zero)

    def evaluate(self, point):
        """Evaluate at a tuple of rig elements."""
        if len(point) != self.arity:
            raise ValueError("point length does not match arity")
        rig = self.rig
        acc = rig.zero
        for exps, c in self.terms.items():
            term = c
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = rig.mul(term, x)
            acc = rig.add(acc, term)
        return acc

    # -- rendering ----------------------------------------------------------

    def render(self, names=None) -> str:
        if not self.terms:
            return "0"
        names = names or var_names(self.arity)
        pieces = []
        for exps in sorted(self.terms, key=grlex_key):
            c = self.terms[exps]
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = self.rig.render(c)
            if not factors:
                pieces.append(cs)
            elif cs == "1":
                pieces.append("*".join(factors))
            else:
                pieces.append(cs + "*" + "*".join(factors))
        return " + ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.render()})"


class PolyBundle:
    """An element of (polynomials) tensor (generators): one polynomial per variable."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        arity = len(self.components)
        for c in self.components:
            _check_arity(c.arity, arity, "bundle components")

    @property
    def arity(self) -> int:
        return len(self.components)

    @property
    def rig(self) -> Rig:
        return self.components[0].rig

    @classmethod
    def zero(cls, rig: Rig, arity: int) -> "PolyBundle":
        return cls(tuple(Polynomial.zero(rig, arity) for _ in range(arity)))

    def __add__(self, other: "PolyBundle") -> "PolyBundle":
        _check_arity(self.arity, other.arity)
        return PolyBundle(tuple(a + b for a, b in zip(self.components, other.components)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyBundle):
            return NotImplemented
        return self.components == other.components

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def render(self, names=None) -> str:
        return "[" + ", ".join(c.render(names) for c in self.components) + "]"


# -- core operators ---------------------------------------------------------


def grad(p: Polynomial) -> PolyBundle:
    """Gradient: component i is the partial derivative in variable i.

    The exponent k comes out as the coefficient nat_value(k), so this works
    over any rig.
    """
    rig = p.rig
    comps = []
    for i in range(p.arity):
        # lowering exponent i is injective on the monomials it keeps
        terms = {
            exps[:i] + (exps[i] - 1,) + exps[i + 1 :]: rig.mul(rig.nat_value(exps[i]), c)
            for exps, c in p.terms.items()
            if exps[i]
        }
        comps.append(Polynomial._canonical(rig, p.arity, terms))
    return PolyBundle(tuple(comps))


def grad1(p: Polynomial) -> Polynomial:
    """One-variable derivative."""
    if p.arity != 1:
        raise ValueError("grad1 requires arity 1")
    return grad(p).components[0]


def mul_in(b: PolyBundle) -> Polynomial:
    """Multiply each component by its generator and sum: b -> sum_i x_i * b_i.

    Multiplying by x_i shifts exponent i by one, so no product is formed.
    """
    rig = b.rig
    terms = {}
    for i, comp in enumerate(b.components):
        for exps, c in comp.terms.items():
            e = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            terms[e] = rig.add(terms[e], c) if e in terms else c
    return Polynomial._canonical(rig, b.arity, drop_cancelled(rig, terms))


def eval0(p: Polynomial) -> Polynomial:
    """Evaluate at zero: the constant polynomial carrying p's constant term."""
    return Polynomial.const(p.rig, p.arity, p.constant_coefficient())


def K_op(p: Polynomial) -> Polynomial:
    """The composite mul_in . grad plus eval0.

    Scales a monomial of total degree n >= 1 by n and fixes constants.
    """
    return mul_in(grad(p)) + eval0(p)


def J_op(p: Polynomial) -> Polynomial:
    """The composite mul_in . grad plus the identity: degree-n block scales by n+1."""
    return mul_in(grad(p)) + p


def _graded_scale(p: Polynomial, factor):
    """Scale each homogeneous block of degree n by factor(n)."""
    rig = p.rig
    return Polynomial._canonical(rig, p.arity, {e: rig.mul(factor(sum(e)), c) for e, c in p.terms.items()})


def K_inv_op(p: Polynomial) -> Polynomial:
    """Inverse of K_op: scale degree n >= 1 by 1/n, fix constants."""
    rig = p.rig
    return _graded_scale(p, lambda n: rig.one if n == 0 else rig.nat_inverse(n))


def J_inv_op(p: Polynomial) -> Polynomial:
    """Inverse of J_op: scale degree n by 1/(n+1)."""
    rig = p.rig
    return _graded_scale(p, lambda n: rig.nat_inverse(n + 1))


def s_op(b: PolyBundle) -> Polynomial:
    """Antiderivative integral of a bundle: K_inv_op after mul_in.

    On a monomial component x^a (tensor) e_i this gives x_i * x^a / (|a|+1).
    """
    return K_inv_op(mul_in(b))


def integrate1(p: Polynomial) -> Polynomial:
    """One-variable integration with zero constant, r*x^k -> r/(k+1) * x^(k+1): s_op on (p,)."""
    if p.arity != 1:
        raise ValueError("integrate1 requires arity 1")
    return s_op(PolyBundle((p,)))


# -- unit-grading maps ------------------------------------------------------
# A tagged polynomial has arity n + 1: variable 0 is a unit variable t that
# carries a degree tag, the rest are the n variables of the untagged one.


def t_grade(p: Polynomial) -> Polynomial:
    """Tag each homogeneous block with its degree: degree-n block b becomes t^n * b.

    `eval_at_one` is its left inverse.
    """
    return Polynomial._canonical(p.rig, p.arity + 1, {(sum(e),) + e: c for e, c in p.terms.items()})


def eval_at_one(q: Polynomial) -> Polynomial:
    """Forget the tag of a tagged polynomial: substitute t := 1."""
    rig = q.rig
    terms = {}
    for exps, c in q.terms.items():
        e = exps[1:]
        terms[e] = rig.add(terms[e], c) if e in terms else c
    return Polynomial._canonical(rig, q.arity - 1, drop_cancelled(rig, terms))


def on_tag(fn, q: Polynomial) -> Polynomial:
    """Apply the one-variable operator `fn` to the tag of a tagged polynomial (fn x 1)."""
    rig = q.rig
    by_rest: dict = {}
    for exps, c in q.terms.items():
        by_rest.setdefault(exps[1:], {})[exps[:1]] = c
    terms = {}
    for rest, tag_terms in by_rest.items():
        for tag, c in fn(Polynomial._canonical(rig, 1, tag_terms)).terms.items():
            terms[tag + rest] = c
    return Polynomial._canonical(rig, q.arity, terms)


# -- variable-set splitting -------------------------------------------------


class SplitTensor:
    """Sum of tensor pairs: mapping (left exponents, right exponents) -> coeff."""

    __slots__ = ("rig", "left_arity", "right_arity", "terms")

    def __init__(self, rig: Rig, left_arity: int, right_arity: int, terms: dict):
        self.rig, self.left_arity, self.right_arity, self.terms = rig, left_arity, right_arity, terms

    def __eq__(self, other):
        if not isinstance(other, SplitTensor):
            return NotImplemented
        if (self.left_arity, self.right_arity) != (other.left_arity, other.right_arity):
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.rig.eq(c, other.terms[k]) for k, c in self.terms.items())


def seely_split(p: Polynomial, left_vars: int) -> SplitTensor:
    """Re-index each monomial as (first left_vars variables) tensor (the rest)."""
    if not 0 <= left_vars <= p.arity:
        raise ValueError("left_vars out of range")
    terms = {}
    for exps, c in p.terms.items():
        terms[(exps[:left_vars], exps[left_vars:])] = c
    return SplitTensor(p.rig, left_vars, p.arity - left_vars, terms)


def seely_merge(t: SplitTensor) -> Polynomial:
    """Two-sided inverse of seely_split: concatenate exponent vectors.

    A `SplitTensor` may be built by hand, so every coefficient is tested.
    """
    rig = t.rig
    is_zero = rig.is_zero
    arity = t.left_arity + t.right_arity
    terms = {}
    for (le, re), c in t.terms.items():
        e = tuple(le) + tuple(re)
        terms[e] = rig.add(terms[e], c) if e in terms else c
    return Polynomial._canonical(rig, arity, {e: c for e, c in terms.items() if not is_zero(c)})


# -- polynomial maps --------------------------------------------------------


class PolyMap:
    """A polynomial map R^n -> R^m: one coordinate polynomial per output."""

    __slots__ = ("in_arity", "out_arity", "coordinates")

    def __init__(self, in_arity: int, out_arity: int, coordinates):
        self.in_arity, self.out_arity = in_arity, out_arity
        self.coordinates = tuple(coordinates)
        if len(self.coordinates) != self.out_arity:
            raise ValueError("coordinate count must equal out_arity")
        for c in self.coordinates:
            _check_arity(c.arity, self.in_arity, "coordinates")

    @property
    def rig(self) -> Rig:
        return self.coordinates[0].rig

    @classmethod
    def identity(cls, rig: Rig, arity: int) -> "PolyMap":
        return cls(arity, arity, tuple(Polynomial.variable(rig, arity, i) for i in range(arity)))

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return (
            self.in_arity == other.in_arity
            and self.out_arity == other.out_arity
            and self.coordinates == other.coordinates
        )

    def render(self) -> str:
        return "(" + ", ".join(c.render() for c in self.coordinates) + ")"


def substitute(p: Polynomial, args) -> Polynomial:
    """Evaluate p at a tuple of polynomials (all of one common arity).

    The powers of each argument are built once per call, each from the one
    below it, and exponent-0 factors are skipped.
    """
    if len(args) != p.arity:
        raise ValueError("argument count must match arity")
    rig = p.rig
    arity = args[0].arity if args else 0
    powers = [[None, a] for a in args]  # powers[i][e] is args[i] ** e, e >= 1
    terms = {}
    for exps, c in p.terms.items():
        term = None
        for a, pw, e in zip(args, powers, exps):
            if e == 0:
                continue
            while len(pw) <= e:
                pw.append(pw[-1] * a)
            term = pw[e].scale(c) if term is None else term * pw[e]
        if term is None:
            term = Polynomial.const(rig, arity, c)
        for e, v in term.terms.items():
            terms[e] = rig.add(terms[e], v) if e in terms else v
    return Polynomial._canonical(rig, arity, drop_cancelled(rig, terms))


def cokleisli_compose(g: PolyMap, f: PolyMap) -> PolyMap:
    """Coordinate-wise substitution: (g . f)(x) = g(f(x))."""
    if g.in_arity != f.out_arity:
        raise ValueError(
            f"arity mismatch: cannot compose {g.in_arity}-ary map after {f.out_arity} outputs"
        )
    coords = tuple(substitute(c, f.coordinates) for c in g.coordinates)
    return PolyMap(f.in_arity, g.out_arity, coords)


def extend_arity(p: Polynomial, new_arity: int, offset: int = 0) -> Polynomial:
    """Embed p into a larger variable set, shifting its variables by offset."""
    if offset + p.arity > new_arity:
        raise ValueError("extension does not fit")
    terms = {}
    for exps, c in p.terms.items():
        e = (0,) * offset + exps + (0,) * (new_arity - offset - p.arity)
        terms[e] = c
    return Polynomial._canonical(p.rig, new_arity, terms)


def cartesian_derivative(f: PolyMap) -> PolyMap:
    """Directional derivative as a polynomial map on doubled input arity.

    Input variables split as (x_1..x_n, v_1..v_n); coordinate i is
    sum_j (d f_i / d x_j)(x) * v_j.
    """
    rig = f.rig
    n = f.in_arity
    coords = []
    for c in f.coordinates:
        jac = grad(c)
        acc = Polynomial.zero(rig, 2 * n)
        for j in range(n):
            dj = extend_arity(jac.components[j], 2 * n, 0)
            vj = Polynomial.variable(rig, 2 * n, n + j)
            acc = acc + dj * vj
        coords.append(acc)
    return PolyMap(2 * n, f.out_arity, tuple(coords))


def apply_linear(matrix, p: Polynomial) -> Polynomial:
    """Substitute x_j := sum_i matrix[i][j] * y_i.

    `matrix` is a list of rows of rig elements; the row count is the new
    arity.  Worked 2x2 example over the rationals: with M = [[a, b], [c, d]]
    the monomial x*y becomes (a*y1 + c*y2)*(b*y1 + d*y2).  This contraction
    convention is the one under which the gradient transforms by applying the
    matrix to the component list (checked by the naturality law).
    """
    rig = p.rig
    rows = len(matrix)
    if any(len(row) != p.arity for row in matrix):
        raise ValueError("matrix shape does not match polynomial arity")
    units = [tuple(1 if k == i else 0 for k in range(rows)) for i in range(rows)]
    images = [
        Polynomial._canonical(
            rig, rows, {units[i]: matrix[i][j] for i in range(rows) if not rig.is_zero(matrix[i][j])}
        )
        for j in range(p.arity)
    ]
    return substitute(p, images)


# -- law binding ------------------------------------------------------------


def random_poly(rng, rig: Rig, arity: int, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, max_degree)
        exps = [0] * arity
        for _ in range(deg):
            exps[rng.randrange(arity)] += 1
        c = rig.sample(rng)
        key = tuple(exps)
        terms[key] = rig.add(terms[key], c) if key in terms else c
    return Polynomial(rig, arity, terms)


def random_bundle(rng, rig: Rig, arity: int, max_degree: int) -> PolyBundle:
    return PolyBundle(tuple(random_poly(rng, rig, arity, max_degree) for _ in range(arity)))


def random_polymap(rng, rig: Rig, in_arity: int, out_arity: int, max_degree: int) -> PolyMap:
    return PolyMap(
        in_arity,
        out_arity,
        tuple(random_poly(rng, rig, in_arity, max_degree) for _ in range(out_arity)),
    )


class PolyOp:
    """An operator `fn` between two types, each ("poly", arity), ("bundle", arity) or ("tagged", arity).

    A ("tagged", n) value is a `t_grade`-style polynomial of arity n + 1.
    """

    __slots__ = ("src", "dst", "fn")

    def __init__(self, src: tuple, dst: tuple, fn: Callable):
        self.src, self.dst, self.fn = src, dst, fn

    def __add__(self, other: "PolyOp") -> "PolyOp":
        return PolyOp(self.src, self.dst, lambda v: self.fn(v) + other.fn(v))


def _bundle_map(fn, b: PolyBundle) -> PolyBundle:
    return PolyBundle(tuple(fn(c) for c in b.components))


def _asymmetry(b: PolyBundle):
    """The first (i, j), in row-major order, where d_j b_i != d_i b_j, or None when b is symmetric."""
    partials = [grad(c).components for c in b.components]
    for i, row in enumerate(partials):
        # (j, i) with j < i was compared as (i, j) before
        for j in range(i + 1, len(partials)):
            if row[j] != partials[j][i]:
                return i, j
    return None


def make_poly_binding(
    rig: Rig,
    variables: int = 3,
    max_degree: int = 6,
    sabotage: bool = False,
) -> ModelBinding:
    """Exact law binding for the polynomial model.

    The laws of `lawsuite.OPERATOR_LAWS` run on the operators at `variables`
    and at arity 1 (d = grad, d° = mul_in, s = s_op, !(0) = eval0; the unit
    monoidal maps are t_grade, eval_at_one and on_tag, and the one-point
    atom factor wraps an arity-1 polynomial as a one-component bundle).  Both
    sides of each equation are applied to `cases` seeded inputs of its input
    type, one `random_poly` or `random_bundle` per type and case; no law
    takes a tagged input.  L24 is checked over an additively idempotent rig.

    `sabotage` deliberately breaks the gradient so it keeps constant terms;
    used as the negative control that the suite actually detects failures.
    The sabotaged gradient is the d of both operator sets.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")

    derive = grad
    if sabotage:
        def derive(p):
            b = grad(p)
            return PolyBundle((b.components[0] + eval0(p),) + b.components[1:])

    def operators(at):
        """The operator set `at`: "general" at `variables`, "unit" at arity 1."""
        arity = variables if at == "general" else 1
        poly, bundle, tagged = ("poly", arity), ("bundle", arity), ("tagged", arity)

        def op(fn, src=poly, dst=poly):
            return PolyOp(src, dst, fn)

        return Operators(
            op(derive, dst=bundle), op(mul_in, src=bundle), op(s_op, src=bundle), op(eval0),
            op(K_op), op(J_op), op(K_inv_op), op(J_inv_op),
            id=op(lambda p: p),
            gate=op(t_grade, dst=tagged),
            spread=op(eval_at_one, src=tagged),
            atom=op(lambda q: PolyBundle((q,)), dst=bundle) if arity == 1 else None,
            tag=lambda f: op(partial(on_tag, f.fn), tagged, tagged),
            seq=lambda f, g: PolyOp(g.src, f.dst, lambda v: f.fn(g.fn(v))),
            x1=lambda f: op(lambda b: _bundle_map(f.fn, b), bundle, bundle),
        )

    def rp(rng, arity=None, deg=None):
        return random_poly(rng, rig, arity or variables, deg or max_degree)

    def fail(label, *polys):
        rendered = "; ".join(
            f"{n} = {v.render() if hasattr(v, 'render') else v}" for n, v in polys
        )
        return f"{label}: {rendered}"

    def equations(law, at, rng, cases):
        """Apply both sides of each (lhs, rhs, label) `law` yields on the operator set `at` to `cases` seeded inputs."""
        u = operators("unit")
        eqs = list(law(u if at == "unit" else operators(at), u))
        types = list(dict.fromkeys(lhs.src for lhs, _, _ in eqs))
        draw = {"poly": random_poly, "bundle": random_bundle}
        degree = {"poly": max_degree, "bundle": max_degree - 1}

        def one(rng):
            inputs = {(kind, n): draw[kind](rng, rig, n, degree[kind]) for kind, n in types}
            for lhs, rhs, label in eqs:
                v = inputs[lhs.src]
                a, b = lhs.fn(v), rhs.fn(v)
                if a != b:
                    return fail(label, ("input", v), ("lhs", a), ("rhs", b))
            return None

        return repeat_case(rng, cases, one)

    # -- individual laws ---------------------------------------------------

    def l1(rng, cases):
        def one(rng):
            p, q, r = rp(rng), rp(rng), rp(rng)
            if (p * q) * r != p * (q * r):
                return fail("product not associative", ("p", p), ("q", q), ("r", r))
            if p * q != q * p:
                return fail("product not commutative", ("p", p), ("q", q))
            if p * Polynomial.one(rig, p.arity) != p:
                return fail("one not a unit", ("p", p))
            f = random_polymap(rng, rig, 2, 2, 2)
            g = random_polymap(rng, rig, 2, 2, 2)
            h = random_polymap(rng, rig, 2, 2, 2)
            lhs = cokleisli_compose(cokleisli_compose(h, g), f)
            rhs = cokleisli_compose(h, cokleisli_compose(g, f))
            if lhs != rhs:
                return fail("composition not associative", ("f", f.render()), ("g", g.render()))
            ident = PolyMap.identity(rig, 2)
            if cokleisli_compose(f, ident) != f or cokleisli_compose(ident, f) != f:
                return fail("identity not a unit", ("f", f.render()))
            return None

        return repeat_case(rng, cases, one)

    def l2(rng, cases):
        def one(rng):
            c = Polynomial.const(rig, variables, rig.sample(rng))
            if not derive(c).is_zero():
                return fail("gradient of a constant is nonzero", ("c", c), ("grad", derive(c).render()))
            p = rp(rng)
            if derive(p + c) != derive(p):
                return fail("constant shifts the gradient", ("p", p), ("c", c))
            return None

        return repeat_case(rng, cases, one)

    def l3(rng, cases):
        def one(rng):
            p, q = rp(rng), rp(rng)
            lhs = derive(p * q)
            rhs = _bundle_map(lambda c: p * c, derive(q)) + _bundle_map(lambda c: q * c, derive(p))
            if lhs != rhs:
                return fail("Leibniz fails", ("p", p), ("q", q), ("lhs", lhs.render()), ("rhs", rhs.render()))
            return None

        return repeat_case(rng, cases, one)

    def l4(rng, cases):
        def one(rng):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            f = random_polymap(rng, rig, n, m, 3)
            g = random_polymap(rng, rig, m, k, 3)
            lhs = cartesian_derivative(cokleisli_compose(g, f))
            # (x, v) -> (f(x), D[f](x, v)), then D[g]
            df = cartesian_derivative(f)
            lifted = tuple(extend_arity(c, 2 * n, 0) for c in f.coordinates)
            pairing = PolyMap(2 * n, 2 * m, lifted + df.coordinates)
            rhs = cokleisli_compose(cartesian_derivative(g), pairing)
            if lhs != rhs:
                return fail("chain rule fails", ("f", f.render()), ("g", g.render()))
            return None

        return repeat_case(rng, cases, one)

    def l5(rng, cases):
        def one(rng):
            p = rp(rng, deg=1)
            b = derive(p)
            if any(c.total_degree() > 0 for c in b.components):
                return fail("gradient of an affine map is not constant", ("p", p))
            lin = PolyMap(
                variables,
                variables,
                tuple(
                    Polynomial.variable(rig, variables, i).scale(rig.sample(rng))
                    for i in range(variables)
                ),
            )
            dlin = cartesian_derivative(lin)
            for c in dlin.coordinates:
                if any(any(e[:variables]) for e in c.terms):
                    return fail("derivative of a linear map depends on the base point", ("map", lin.render()))
            return None

        return repeat_case(rng, cases, one)

    def l6(rng, cases):
        def one(rng):
            p = rp(rng)
            ij = _asymmetry(derive(p))
            if ij is not None:
                return fail("mixed partials differ", ("p", p), ("i", str(ij[0])), ("j", str(ij[1])))
            return None

        return repeat_case(rng, cases, one)

    def l7(rng, cases):
        def one(rng):
            b = random_bundle(rng, rig, variables, max_degree - 1)
            lhs = grad(mul_in(b))
            partials = [grad(c).components for c in b.components]
            comps = []
            for j in range(variables):
                acc = b.components[j]
                for i in range(variables):
                    xi = Polynomial.variable(rig, variables, i)
                    acc = acc + xi * partials[i][j]
                comps.append(acc)
            rhs = PolyBundle(tuple(comps))
            if lhs != rhs:
                return fail("derive/coderive exchange fails", ("b", b.render()))
            return None

        return repeat_case(rng, cases, one)

    def l10(rng, cases):
        def one(rng):
            p = rp(rng)
            if eval_at_one(t_grade(p)) != p:
                return fail("degree tagging is not split by evaluation at one", ("p", p))
            q = rp(rng, arity=1)
            if not rig.eq(mul_in(PolyBundle((q,))).evaluate((rig.one,)), q.evaluate((rig.one,))):
                return fail("unit coderive does not collapse under evaluation at one", ("q", q))
            return None

        return repeat_case(rng, cases, one)

    def l21(rng, cases):
        def one(rng):
            p = rp(rng)
            c = Polynomial.const(rig, variables, rig.sample(rng))
            q = p + c
            if derive(p) != derive(q):
                return fail("generator broke the equal-derivative premise", ("p", p))
            if p + eval0(q) != q + eval0(p):
                return fail("Taylor (additive form) fails", ("p", p), ("q", q))
            if rig.has_negatives:
                minus_one = rig.neg(rig.one)
                lhs = p + eval0(p).scale(minus_one)
                rhs = q + eval0(q).scale(minus_one)
                if lhs != rhs:
                    return fail("Taylor (subtraction form) fails", ("p", p), ("q", q))
            return None

        return repeat_case(rng, cases, one)

    def l22(rng, cases):
        def one(rng):
            p = rp(rng)
            k = rng.randint(0, variables)
            t = seely_split(p, k)
            if seely_merge(t) != p:
                return fail("merge after split is not the identity", ("p", p))
            if seely_split(seely_merge(t), k) != t:
                return fail("split after merge is not the identity", ("p", p))
            return None

        return repeat_case(rng, cases, one)

    def l23(rng, cases):
        def one(rng):
            p = rp(rng)
            rows = rng.randint(1, 3)
            matrix = [
                [rig.nat_value(rng.randint(0, 3)) for _ in range(variables)] for _ in range(rows)
            ]
            lhs = grad(apply_linear(matrix, p))
            images = [apply_linear(matrix, c) for c in grad(p).components]
            comps = []
            for i in range(rows):
                acc = Polynomial.zero(rig, rows)
                for j, image in enumerate(images):
                    acc = acc + image.scale(matrix[i][j])
                comps.append(acc)
            rhs = PolyBundle(tuple(comps))
            if lhs != rhs:
                return fail("gradient is not natural in linear substitution", ("p", p))
            return None

        return repeat_case(rng, cases, one)

    checks = {
        "L1": l1, "L2": l2, "L3": l3, "L4": l4, "L5": l5, "L6": l6, "L7": l7,
        "L10": l10, "L21": l21, "L22": l22, "L23": l23,
    }
    skips = {}
    if rig.idempotent:
        def collapse(o, u):
            yield o.s, o.dc, "integral does not collapse to the coderive"

        checks["L24"] = partial(equations, collapse, "general")
    else:
        skips["L24"] = "integral/coderive collapse needs an additively idempotent coefficient rig"
    return ModelBinding(
        "poly",
        rig.name,
        checks,
        skips,
        {"variables": variables, "max_degree": max_degree, "sabotage": sabotage},
        equations,
    )
