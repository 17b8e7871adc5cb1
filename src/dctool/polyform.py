"""Exact multivariate polynomials and their differentiation/integration operators.

Polynomials over an arbitrary rig, stored sparsely (see "Canonical form" below)
and rendered in graded-lex order.  On top of the arithmetic sits the operator
family this package exists to check: the gradient `grad`, multiplication by the
generators `mul_in`, evaluation at zero `eval0`, the degree-weighted operators
`K_op`/`J_op` and their inverses, the antiderivative integral `s_op`
(one-variable integration at arity 1), the unit-grading maps `t_grade` (m_{R,A}),
`eval_at_one` (m_R x 1) and `on_tag` (f x 1) on tagged polynomials,
variable-set splitting (`seely_split`/`seely_merge`), and coKleisli
composition of polynomial maps with its Cartesian derivative.

Canonical form: a polynomial holds numerators over one shared denominator,
FLINT's `fmpq_poly` layout.  `num` maps arity-length tuples of non-negative
exponents to nonzero numerators and `den` is one positive int, so the
coefficient of a term is `rig.join(num[e], den)` (see `Rig.split`).  Over the
rational rigs the numerators are ints, so the operators add and multiply
ints; over the boolean rig every `den` is 1.  A `den` is brought to lowest
terms only when it passes `DEN_BOUND`, and equality cross-multiplies, so
equal polynomials may hold different `den`s.  A `Fraction` is made only at
the edges: the read-only view `terms` (an `int` when integral, else a
`Fraction`), which `render` and `seely_split` read.

The public constructor `Polynomial(rig, arity, terms)` validates its input
(any iterable key, arity, sign of every exponent, each coefficient through
`rig.split`) and drops zero coefficients; `apply_linear` and `seely_merge`
build through it.  Every other operator builds its result from canonical
operands through the trusted `_canonical`, which tests nothing:
a product of nonzero numerators, a multiplicity `nat_value(k)` and an
inverse `nat_inverse(k)` are never zero (the rig properties behind this are
listed in `rig.Rig`), so a zero arises only in a sum over a rig with
`has_negatives`, or in a scalar from outside (`scale(c)`, `const(c)`, a
coefficient of `linear_combination`) or a draw (`random_poly`), which is
tested where it enters.  So a zero is tested only where one can appear: `+`,
`eval_at_one` and `linear_combination` (the row sums of L23's right side) sum
through `rig.accumulate`, and `*`, `substitute` and `mul_in` follow its zero
rule inlined in their loops: a sum is tested only where two values land on
one monomial, over a rig with `has_negatives`, and a cancelled monomial is
deleted (and inserted afresh if a later value lands on it).
`cartesian_derivative` forms no sum: its terms land on distinct monomials.
A zero summand costs nothing: `+` returns the other operand itself
(polynomials are immutable, and `_canonical` already shares `num` dicts),
and the gradient of zero is copies of it.

`substitute` and `apply_linear` take a sequence of polynomials and return a
tuple: every polynomial substituted at one argument tuple shares one table
of the arguments' powers, which lives for that call only.

All operators act in plain function-application order: `K_op(p)` means "apply
the operator to p".  The degree-graded operators act block-diagonally on the
graded-lex canonical form, which keeps both the implementation and the law
counterexample rendering simple.

The model's law binding, `make_poly_binding`, with its seeded generators,
ends this module, so a run of another model never imports it.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations_with_replacement
from math import comb, gcd, lcm
from operator import add
from types import MappingProxyType

from .lawsuite import ModelBinding, Op, Operators, taylor
from .rig import Rig, accumulate, randbelow

MultiIndex = tuple  # tuple[int, ...]; arity-length exponent vector

DEFAULT_NAMES = ("x", "y", "z", "w")

DEN_BOUND = 1 << 60  # a shared denominator above this is reduced to lowest terms


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
    """Sparse exact polynomial: multi-index -> nonzero numerator, over one shared `den`."""

    __slots__ = ("rig", "arity", "num", "den")

    def __init__(self, rig: Rig, arity: int, terms=None):
        num, den = {}, 1
        for exps, c in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != arity:
                raise ValueError(f"multi-index {exps} does not match arity {arity}")
            if exps and min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
            n, d = rig.split(c)
            if not rig.is_zero(n):
                if d != den:
                    num, den = _grow(num, den, d)
                    n *= den // d
                num[exps] = n
        self.rig, self.arity, self.num, self.den = rig, arity, num, den

    @property
    def terms(self):
        """Read-only view of the coefficients as rig values: multi-index -> join(numerator, den)."""
        num, den = self.num, self.den
        if den != 1:
            join = self.rig.join
            num = {e: join(n, den) for e, n in num.items()}
        return MappingProxyType(num)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, rig: Rig, arity: int) -> "Polynomial":
        return _canonical(rig, arity, {})

    @classmethod
    def const(cls, rig: Rig, arity: int, c) -> "Polynomial":
        n, d = rig.split(c)
        return _canonical(rig, arity, {} if rig.is_zero(n) else {(0,) * arity: n}, d)

    @classmethod
    def one(cls, rig: Rig, arity: int) -> "Polynomial":
        return cls.const(rig, arity, rig.one)

    @classmethod
    def variable(cls, rig: Rig, arity: int, i: int) -> "Polynomial":
        return _canonical(rig, arity, {(0,) * i + (1,) + (0,) * (arity - i - 1): rig.one})

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Polynomial") -> "Polynomial":
        _check_arity(self.arity, other.arity)
        if not (self.num and other.num):  # a zero summand: the other operand, immutable, is the sum
            return self if self.num else other
        rig = self.rig
        num, den, other_num = dict(self.num), self.den, other.num
        if other.den != den:
            num, den = _grow(num, den, other.den)
            other_num, den = _grow(other_num, other.den, den)
        return _canonical(rig, self.arity, accumulate(rig, num, other_num.items()), den)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        _check_arity(self.arity, other.arity)
        rig, num, other_terms = self.rig, {}, other.num.items()
        mul, plus, is_zero = rig.mul, rig.add, rig.is_zero if rig.has_negatives else None
        for e1, c1 in self.num.items():
            for e2, c2 in other_terms:
                e, v = tuple(map(add, e1, e2)), mul(c1, c2)
                if e in num:  # the zero rule of `rig.accumulate`
                    v = plus(num[e], v)
                    if is_zero is not None and is_zero(v):
                        del num[e]
                        continue
                num[e] = v
        return _canonical(rig, self.arity, num, self.den * other.den)

    def scale(self, c) -> "Polynomial":
        rig = self.rig
        n, d = rig.split(c)
        if rig.is_zero(n):
            return Polynomial.zero(rig, self.arity)
        return _canonical(rig, self.arity, {e: rig.mul(n, v) for e, v in self.num.items()}, self.den * d)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b, d1, d2 = self.num, other.num, self.den, other.den
        if self.arity != other.arity:
            return False
        if d1 == d2:
            return a == b
        return a.keys() == b.keys() and all(n * d2 == b[e] * d1 for e, n in a.items())

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        names = var_names(self.arity)
        pieces = []
        for exps in sorted(terms, key=grlex_key):
            m, cs = _monomial(names, exps), self.rig.render(terms[exps])
            pieces.append(f"{cs}*{m}" if m and cs != "1" else m or cs)
        return " + ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self.render()})"


def _monomial(names, exps, zeros: bool = False) -> str:
    """The monomial of `exps` in `names`, such as `x*z^2`, or `x*y^0*z^2` with `zeros`; "" for no factor."""
    return "*".join(name if e == 1 else f"{name}^{e}" for name, e in zip(names, exps) if e or zeros)


def _grow(num: dict, den: int, d: int) -> tuple:
    """`num` over `den` rewritten over l = lcm(den, d), and l."""
    grown = lcm(den, d)
    return ({e: n * (grown // den) for e, n in num.items()} if grown != den else num), grown


def _canonical(rig: Rig, arity: int, num: dict, den: int = 1) -> Polynomial:
    """Trusted constructor: every key of `num` is already an arity-length
    tuple of non-negative exponents and every numerator is nonzero.  `num`
    is kept, not copied, unless `den` passes `DEN_BOUND`."""
    if den > DEN_BOUND and (g := gcd(den, *num.values())) > 1:
        num, den = {e: n // g for e, n in num.items()}, den // g
    p = object.__new__(Polynomial)
    p.rig = rig
    p.arity = arity
    p.num = num
    p.den = den
    return p


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
        return _bundle(tuple(a + b for a, b in zip(self.components, other.components)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyBundle):
            return NotImplemented
        return self.components == other.components

    def render(self) -> str:
        return "[" + ", ".join(c.render() for c in self.components) + "]"


def _bundle(components: tuple) -> PolyBundle:
    """Trusted constructor: `components` is a tuple of polynomials whose arity is its length."""
    b = object.__new__(PolyBundle)
    b.components = components
    return b


# -- core operators ---------------------------------------------------------


def grad(p: Polynomial) -> PolyBundle:
    """Gradient: component i is the partial derivative in variable i.

    The exponent k comes out as the coefficient nat_value(k), so this works
    over any rig; nat_value(1) is one, so exponent 1 multiplies by nothing.
    All components are filled in one sweep over the terms; the gradient of
    the zero polynomial is `arity` copies of it, with no sweep.
    """
    rig, arity = p.rig, p.arity
    if not p.num:
        return _bundle((p,) * arity)
    mul, nat_value = rig.mul, rig.nat_value
    comps = [{} for _ in range(arity)]
    for exps, c in p.num.items():
        for i, k in enumerate(exps):
            if k:
                # lowering exponent i is injective on the monomials it keeps
                comps[i][exps[:i] + (k - 1,) + exps[i + 1 :]] = c if k == 1 else mul(nat_value(k), c)
    return _bundle(tuple(_canonical(rig, arity, terms, p.den) for terms in comps))


def mul_in(b: PolyBundle) -> Polynomial:
    """Multiply each component by its generator and sum: b -> sum_i x_i * b_i.

    Multiplying by x_i shifts exponent i by one, so no product is formed.
    """
    rig, terms, den = b.rig, {}, 1
    plus, is_zero = rig.add, rig.is_zero if rig.has_negatives else None
    for i, comp in enumerate(b.components):
        comp_num = comp.num
        if comp.den != den:
            terms, den = _grow(terms, den, comp.den)
            comp_num, den = _grow(comp_num, comp.den, den)
        for exps, v in comp_num.items():
            e = exps[:i] + (exps[i] + 1,) + exps[i + 1 :]
            if e in terms:  # the zero rule of `rig.accumulate`
                v = plus(terms[e], v)
                if is_zero is not None and is_zero(v):
                    del terms[e]
                    continue
            terms[e] = v
    return _canonical(rig, b.arity, terms, den)


def eval0(p: Polynomial) -> Polynomial:
    """Evaluate at zero: the constant polynomial carrying p's constant term."""
    zero = (0,) * p.arity
    return _canonical(p.rig, p.arity, {zero: p.num[zero]} if zero in p.num else {}, p.den)


def K_op(p: Polynomial) -> Polynomial:
    """The composite mul_in . grad plus eval0.

    Scales a monomial of total degree n >= 1 by n and fixes constants.
    """
    return mul_in(grad(p)) + eval0(p)


def J_op(p: Polynomial) -> Polynomial:
    """The composite mul_in . grad plus the identity: degree-n block scales by n+1."""
    return mul_in(grad(p)) + p


def _graded_scale(p: Polynomial, factor):
    """Scale each homogeneous block of degree n by factor(n), each factor split once.

    A factor with numerator one, such as every inverse over the rational
    rigs, changes only the denominator.
    """
    rig = p.rig
    factors, terms, den = {}, {}, 1
    for e, c in p.num.items():
        n = sum(e)
        f = factors.get(n)
        if f is None:
            f = factors[n] = rig.split(factor(n))
        a, d = f
        if a != rig.one:
            c = rig.mul(a, c)
        if d != den:
            terms, den = _grow(terms, den, d)
            c *= den // d
        terms[e] = c
    return _canonical(rig, p.arity, terms, p.den * den)


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


# -- unit-grading maps ------------------------------------------------------
# A tagged polynomial has arity n + 1: variable 0 is a unit variable t that
# carries a degree tag, the rest are the n variables of the untagged one.


def t_grade(p: Polynomial) -> Polynomial:
    """Tag each homogeneous block with its degree: degree-n block b becomes t^n * b.

    `eval_at_one` is its left inverse.
    """
    return _canonical(p.rig, p.arity + 1, {(sum(e),) + e: c for e, c in p.num.items()}, p.den)


def eval_at_one(q: Polynomial) -> Polynomial:
    """Forget the tag of a tagged polynomial: substitute t := 1."""
    terms = accumulate(q.rig, {}, ((e[1:], v) for e, v in q.num.items()))
    return _canonical(q.rig, q.arity - 1, terms, q.den)


def on_tag(fn, q: Polynomial) -> Polynomial:
    """Apply the one-variable operator `fn` to the tag of a tagged polynomial (fn x 1)."""
    rig = q.rig
    by_rest: dict = {}
    for exps, c in q.num.items():
        by_rest.setdefault(exps[1:], {})[exps[:1]] = c
    terms, den = {}, 1
    for rest, tag_terms in by_rest.items():
        image = fn(_canonical(rig, 1, tag_terms, q.den))
        image_num = image.num
        if image.den != den:
            terms, den = _grow(terms, den, image.den)
            image_num, den = _grow(image_num, image.den, den)
        for tag, c in image_num.items():
            terms[tag + rest] = c
    return _canonical(rig, q.arity, terms, den)


# -- variable-set splitting -------------------------------------------------


class SplitTensor:
    """Sum of tensor pairs: mapping (left exponents, right exponents) -> coeff."""

    __slots__ = ("rig", "left_arity", "right_arity", "terms")

    def __init__(self, rig: Rig, left_arity: int, right_arity: int, terms: dict):
        self.rig, self.left_arity, self.right_arity, self.terms = rig, left_arity, right_arity, terms

    def __eq__(self, other):
        if not isinstance(other, SplitTensor):
            return NotImplemented
        a, b = self.terms, other.terms
        return (
            (self.left_arity, self.right_arity) == (other.left_arity, other.right_arity)
            and a.keys() == b.keys()
            and all(self.rig.eq(c, b[k]) for k, c in a.items())
        )

    def render(self) -> str:
        """Each pair as `coefficient*(left | right)`, named as in the merged polynomial, in its graded-lex order.

        Each side is named by the lengths of the key's own two sides, and a
        key whose lengths are not the declared arities shows its zero
        exponents too, so that no key renders as another.
        """
        pieces = []
        for left, right in sorted(self.terms, key=lambda k: grlex_key(tuple(k[0]) + tuple(k[1]))):
            names = var_names(len(left) + len(right))
            zeros = (len(left), len(right)) != (self.left_arity, self.right_arity)
            sides = _monomial(names, left, zeros) or 1, _monomial(names[len(left) :], right, zeros) or 1
            pieces.append(f"{self.rig.render(self.terms[left, right])}*({sides[0]} | {sides[1]})")
        return " + ".join(pieces) or "0"


def seely_split(p: Polynomial, left_vars: int) -> SplitTensor:
    """Re-index each monomial as (first left_vars variables) tensor (the rest)."""
    if not 0 <= left_vars <= p.arity:
        raise ValueError("left_vars out of range")
    terms = {(e[:left_vars], e[left_vars:]): c for e, c in p.terms.items()}
    return SplitTensor(p.rig, left_vars, p.arity - left_vars, terms)


def seely_merge(t: SplitTensor) -> Polynomial:
    """Two-sided inverse of seely_split: concatenate exponent vectors.

    A `SplitTensor` may be built by hand, so the result is validated, and
    the zeros it may hold, which `rig.accumulate` passes through, are dropped.
    """
    terms = accumulate(t.rig, {}, ((tuple(le) + tuple(re), c) for (le, re), c in t.terms.items()))
    return Polynomial(t.rig, t.left_arity + t.right_arity, terms)


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
        return (self.in_arity, self.out_arity, self.coordinates) == (other.in_arity, other.out_arity, other.coordinates)

    def render(self) -> str:
        return "(" + ", ".join(c.render() for c in self.coordinates) + ")"


def substitute(ps, args) -> tuple:
    """Evaluate each polynomial of `ps` at one tuple `args` of polynomials (all of one common arity).

    Returns one result per polynomial of `ps`, in order.  The powers of each
    argument are built once per call and shared by every polynomial of `ps`,
    each power from the one below it, and exponent-0 factors are skipped.
    Each sum is kept over the least common denominator of its products so far.
    """
    arity = args[0].arity if args else 0
    powers = [[None, a] for a in args]  # powers[i][e] is args[i] ** e, e >= 1
    out = []
    for p in ps:
        if len(args) != p.arity:
            raise ValueError("argument count must match arity")
        rig, terms, den = p.rig, {}, 1
        mul, plus, is_zero = rig.mul, rig.add, rig.is_zero if rig.has_negatives else None
        const = _canonical(rig, arity, {(0,) * arity: rig.one})
        for exps, c in p.num.items():
            term = const
            for pw, e in zip(powers, exps):
                if e:
                    while len(pw) <= e:
                        pw.append(pw[-1] * pw[1])
                    term = pw[e] if term is const else term * pw[e]
            if term.den != den:
                terms, den = _grow(terms, den, term.den)
                c *= den // term.den
            for e, v in term.num.items():
                v = mul(c, v)
                if e in terms:  # the zero rule of `rig.accumulate`
                    v = plus(terms[e], v)
                    if is_zero is not None and is_zero(v):
                        del terms[e]
                        continue
                terms[e] = v
        out.append(_canonical(rig, arity, terms, p.den * den))
    return tuple(out)


def cokleisli_compose(g: PolyMap, f: PolyMap) -> PolyMap:
    """Coordinate-wise substitution: (g . f)(x) = g(f(x)), every coordinate of g through one power table of f's."""
    if g.in_arity != f.out_arity:
        raise ValueError(f"arity mismatch: cannot compose {g.in_arity}-ary map after {f.out_arity} outputs")
    return PolyMap(f.in_arity, g.out_arity, substitute(g.coordinates, f.coordinates))


def extend_arity(p: Polynomial, new_arity: int, offset: int = 0) -> Polynomial:
    """Embed p into a larger variable set, shifting its variables by offset."""
    if offset + p.arity > new_arity:
        raise ValueError("extension does not fit")
    before, after = (0,) * offset, (0,) * (new_arity - offset - p.arity)
    return _canonical(p.rig, new_arity, {before + e + after: c for e, c in p.num.items()}, p.den)


def cartesian_derivative(f: PolyMap) -> PolyMap:
    """Directional derivative D[f](x, v) as a polynomial map on doubled input arity.

    Input variables split as (x_1..x_n, v_1..v_n); coordinate i is
    sum_j (d f_i / d x_j)(x) * v_j, read off one `grad(f_i)`: the term x^a of
    d f_i / d x_j becomes x^a * v_j, the key a + e_j with e_j the unit in the
    direction slots.  The components are brought onto a common denominator
    as `mul_in` does.  Distinct (a, j) give distinct keys, so no two terms
    meet: no sum is formed and no zero is tested.
    """
    n, rig = f.in_arity, f.rig
    units = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
    coords = []
    for c in f.coordinates:
        terms, den = {}, 1
        for unit, comp in zip(units, grad(c).components):
            comp_num = comp.num
            if comp.den != den:
                terms, den = _grow(terms, den, comp.den)
                comp_num, den = _grow(comp_num, comp.den, den)
            for exps, v in comp_num.items():
                terms[exps + unit] = v
        coords.append(_canonical(rig, 2 * n, terms, den))
    return PolyMap(2 * n, f.out_arity, coords)


def apply_linear(matrix, ps) -> tuple:
    """Substitute x_j := sum_i matrix[i][j] * y_i in each polynomial of `ps`, one result each.

    `matrix` is a list of rows of rig elements; the row count is the new
    arity.  Worked 2x2 example over the rationals: with M = [[a, b], [c, d]]
    the monomial x*y becomes (a*y1 + c*y2)*(b*y1 + d*y2).  This contraction
    convention is the one under which the gradient transforms by applying the
    matrix to the component list (checked by the naturality law).  The linear
    forms and their powers are built once and shared by every polynomial of `ps`.
    """
    if not ps:
        return ()
    rows, arity = len(matrix), ps[0].arity
    if any(len(row) != p.arity for row in matrix for p in ps):
        raise ValueError("matrix shape does not match polynomial arity")
    units = [tuple(1 if k == i else 0 for k in range(rows)) for i in range(rows)]
    images = [Polynomial(ps[0].rig, rows, {units[i]: matrix[i][j] for i in range(rows)}) for j in range(arity)]
    return substitute(ps, images)


def linear_combination(coefficients, ps) -> Polynomial:
    """sum_j coefficients[j] * ps[j] for rig values `coefficients` and polynomials `ps` of one arity (at least one).

    One sum over a common denominator, through the zero rule of
    `rig.accumulate`; a zero coefficient or a zero polynomial adds nothing
    and costs nothing.
    """
    rig = ps[0].rig
    mul, terms, den = rig.mul, {}, 1
    for c, p in zip(coefficients, ps):
        n, d = rig.split(c)
        if rig.is_zero(n) or not p.num:
            continue
        d *= p.den
        if d != den:
            terms, den = _grow(terms, den, d)
            n *= den // d
        accumulate(rig, terms, ((e, mul(n, v)) for e, v in p.num.items()))
    return _canonical(rig, ps[0].arity, terms, den)


# -- law binding ------------------------------------------------------------


def random_poly(rng, rig: Rig, arity: int, max_degree: int) -> Polynomial:
    """A seeded polynomial of 1-4 terms, the same for a seed on Python 3.10-3.13.

    Each term has a uniform degree in 0..`max_degree`, a uniform variable per unit of degree and a
    coefficient from `rig.draw`; terms on one monomial are summed.  The other draws are `randbelow`'s.
    """
    drawn, bits, k = {}, rng.getrandbits, arity.bit_length()
    for _ in range(1 + randbelow(rng, 4)):
        exps = [0] * arity
        for _ in range(randbelow(rng, max_degree + 1)):
            i = bits(k) if arity else randbelow(rng, arity)  # randbelow inlined; it refuses arity 0
            while i >= arity:
                i = bits(k)
            exps[i] += 1
        key, c = tuple(exps), rig.draw(rng)
        if key in drawn:
            c = rig.split(rig.add(rig.join(*drawn[key]), rig.join(*c)))
        drawn[key] = c
    is_zero = rig.is_zero
    den = lcm(*[d for n, d in drawn.values() if not is_zero(n)])  # the den the validating constructor grows
    num = {e: n * (den // d) if d != den else n for e, (n, d) in drawn.items() if not is_zero(n)}
    return _canonical(rig, arity, num, den)


def random_bundle(rng, rig: Rig, arity: int, max_degree: int) -> PolyBundle:
    return PolyBundle(tuple(random_poly(rng, rig, arity, max_degree) for _ in range(arity)))


def random_polymap(rng, rig: Rig, in_arity: int, out_arity: int, max_degree: int) -> PolyMap:
    return PolyMap(in_arity, out_arity, tuple(random_poly(rng, rig, in_arity, max_degree) for _ in range(out_arity)))


PROBES = 5  # huge-exponent probes per input type of a table law
PROBE_BITS = 61  # each exponent of a probe is drawn with getrandbits(PROBE_BITS)


def _basis_degree(arity: int, top: int, budget: int, per_monomial: int) -> int:
    """The largest k <= top whose per_monomial * C(arity + k, k) basis inputs fit in `budget`; at least 0."""
    k = 0
    while k < top and per_monomial * comb(arity + k + 1, k + 1) <= budget:
        k += 1
    return k


def _nonzero_draw(rng, rig: Rig) -> tuple:
    """`rig.draw` repeated until its numerator is nonzero."""
    n, d = rig.draw(rng)
    while rig.is_zero(n):
        n, d = rig.draw(rng)
    return n, d


def table_inputs(rng, rig: Rig, kind: str, arity: int, top: int, budget: int) -> list:
    """The inputs a table law applies its equations of input type (`kind`, `arity`) to, in order.

    `kind` is "poly" or "bundle"; a bundle input is one polynomial per variable.
    (a) Every monomial with coefficient one (bundles: every x^a * e_i), by
    ascending degree, graded-lex within a degree and e_i innermost, up to the
    largest degree k <= `top` whose inputs fit in `budget`; degree 0 always.
    The monomials of degree n are enumerated, not drawn: they are the bags of
    n variables that `itertools.combinations_with_replacement` lists.
    (b) One seeded monomial with coefficient one of each degree k + 1 .. `top`:
    for a bundle the component i = `randbelow(arity)` first, then one
    `randbelow(arity)` variable per unit of degree.
    (c) `PROBES` seeded probes, each the sum of two terms; a term is (for a
    bundle) its component i, then `arity` exponents of `getrandbits(PROBE_BITS)`
    and a coefficient from `rig.draw`, drawn again while it is zero.
    """
    bundle = kind == "bundle"
    width = arity if bundle else 1
    zero = _canonical(rig, arity, {})

    def term(i, exps, n=rig.one, d=1):
        p = _canonical(rig, arity, {exps: n}, d)
        return PolyBundle((zero,) * i + (p,) + (zero,) * (arity - i - 1)) if bundle else p

    def component():
        return randbelow(rng, arity) if bundle else 0

    def probe_term():
        i = component()
        exps = tuple(rng.getrandbits(PROBE_BITS) for _ in range(arity))
        return term(i, exps, *_nonzero_draw(rng, rig))

    k = _basis_degree(arity, top, budget, width)
    # graded-lex order, as `wrel.enumerate_bags` lists bags
    bags = (vs for n in range(k + 1) for vs in combinations_with_replacement(range(arity), n))
    inputs = [term(i, tuple(map(vs.count, range(arity)))) for vs in bags for i in range(width)]
    for n in range(k + 1, top + 1):
        i, exps = component(), [0] * arity
        for _ in range(n):
            exps[randbelow(rng, arity)] += 1
        inputs.append(term(i, tuple(exps)))
    for _ in range(PROBES):
        a, b = (probe_term() for _ in range(2))
        inputs.append(a + b)
    return inputs


def _show(rig: Rig, v) -> str:
    """An input as a counterexample shows it: by its `render`, a matrix (a list of rows of rig values)
    entry by entry, anything else by `str`."""
    if isinstance(v, list):
        return "[" + ", ".join("[" + ", ".join(map(rig.render, row)) + "]" for row in v) + "]"
    return v.render() if hasattr(v, "render") else str(v)


def _first_failure(rig: Rig, equations) -> str | None:
    """The first of (lhs, rhs, label, inputs) `equations` with lhs != rhs, rendered as
    `label: name = value; ...; lhs = ...; rhs = ...`, the inputs first; None when all hold."""
    for lhs, rhs, label, inputs in equations:
        if lhs != rhs:
            shown = (*inputs.items(), ("lhs", lhs), ("rhs", rhs))
            return f"{label}: " + "; ".join(f"{n} = {_show(rig, v)}" for n, v in shown)
    return None


def _bundle_map(fn, b: PolyBundle) -> PolyBundle:
    return PolyBundle(tuple(fn(c) for c in b.components))


def make_poly_binding(
    rig: Rig,
    variables: int = 3,
    max_degree: int = 6,
    sabotage: bool = False,
) -> ModelBinding:
    """Exact law binding for the polynomial model.

    The laws with equations in their `lawsuite.LAWS` row, L2, L5, L10 and L24
    among them, run on the operators at `variables` and at arity 1 (d = grad,
    d° = mul_in, s = s_op, !(0) = eval0, zero is the zero bundle; the unit
    monoidal maps are t_grade, eval_at_one and on_tag, and the one-point atom
    factor wraps an arity-1 polynomial as a one-component bundle).  Both
    sides of each equation are applied to every input of its input type in
    `table_inputs`, and each input is one case; a tagged input of arity n is a polynomial input of
    arity n + 1 (L10's unit equation).  Every operator there sends x^a (or
    x^a * e_i) to a few monomials whose coefficients are rational functions
    of a, so an equation holds on every input when it holds at the low
    degrees where an operator branches (!(0) and K^{-1} at degree 0) and the
    identity of rational functions behind it holds, which a random 61-bit a
    tests (Schwartz-Zippel).  So the inputs are every monomial up to the
    largest degree k whose basis fits in `cases` inputs (the budget; degree 0
    always), one seeded monomial of each degree k + 1 .. `max_degree`
    (bundles `max_degree` - 1), and `PROBES` sums of two terms with 61-bit
    exponents.  Out of reach is a defect at one per-variable exponent
    pattern that no input hits, such as one monomial of a degree above k
    that is not that degree's seeded one, or one degree above `max_degree`.
    L24 is skipped over a rig that is not additively idempotent.  The
    Taylor property (L21) applies the equations of `lawsuite.taylor`,
    d;!(0) = 0 and !(0);!(0) = !(0), to the same inputs, as a table law,
    and every other law draws its own inputs per case; each yields its
    equations with the inputs it shows, so every law is checked and
    rendered by one rule, `_first_failure`.

    `sabotage` deliberately breaks the gradient so it keeps constant terms;
    used as the negative control that the suite actually detects failures.
    The sabotaged gradient is the d of both operator sets, L2's row and
    L21 among their readers, and of L3 and L6's first derivative; it keeps L5,
    whose d reads only linear polynomials, which have no constant term.
    L6's second derivative, L7 and L23 call the plain `grad`, and L4 calls
    `cartesian_derivative`.
    """
    if variables < 1:
        raise ValueError("variables must be >= 1")
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
        # an input type: a ("tagged", n) value is a polynomial of arity n + 1 whose variable 0 is the tag
        poly, bundle, tagged = ("poly", arity), ("bundle", arity), ("tagged", arity)

        def op(fn, src=poly):
            return Op(src, fn)

        return Operators(
            op(derive), op(mul_in, bundle), op(s_op, bundle), op(eval0),
            op(K_op), op(J_op), op(K_inv_op), op(J_inv_op),
            id=op(lambda p: p),
            zero=op(lambda p: PolyBundle.zero(rig, arity)),
            gate=op(t_grade),
            spread=op(eval_at_one, tagged),
            atom=op(lambda q: PolyBundle((q,))) if arity == 1 else None,
            tag=lambda f: op(partial(on_tag, f.fn), tagged),
            x1=lambda f: op(lambda b: _bundle_map(f.fn, b), bundle),
        )

    def rp(rng):
        return random_poly(rng, rig, variables, max_degree)

    def compare(rng, cases, case):
        """Check `cases` seeded runs of `case`, a generator of (lhs, rhs, label, inputs) equations."""
        return (_first_failure(rig, case(rng)) for _ in range(cases))

    def equations(law, at, rng, cases):
        """Apply both sides of each (lhs, rhs, label) `law` yields on the operator set `at` to the
        `table_inputs` of its input type, each input one case and `cases` the basis budget."""
        u = operators("unit")
        by_src = {}
        for lhs, rhs, label in law(u if at == "unit" else operators(at), u):
            by_src.setdefault(lhs.src, []).append((lhs.fn, rhs.fn, label))
        for (kind, n), eqs in by_src.items():
            kind, n = ("poly", n + 1) if kind == "tagged" else (kind, n)  # a tagged polynomial has arity n + 1
            top = max_degree - 1 if kind == "bundle" else max_degree
            for v in table_inputs(rng, rig, kind, n, top, cases):
                yield _first_failure(rig, ((lhs(v), rhs(v), label, {"input": v}) for lhs, rhs, label in eqs))

    # -- individual laws ---------------------------------------------------

    def l1(rng, cases):
        ident = PolyMap.identity(rig, 2)

        def case(rng):
            p, q, r = rp(rng), rp(rng), rp(rng)
            yield (p * q) * r, p * (q * r), "product not associative", {"p": p, "q": q, "r": r}
            yield p * q, q * p, "product not commutative", {"p": p, "q": q}
            yield p * Polynomial.one(rig, p.arity), p, "one not a unit", {"p": p}
            f = random_polymap(rng, rig, 2, 2, 2)
            g = random_polymap(rng, rig, 2, 2, 2)
            h = random_polymap(rng, rig, 2, 2, 2)
            lhs = cokleisli_compose(cokleisli_compose(h, g), f)
            rhs = cokleisli_compose(h, cokleisli_compose(g, f))
            yield lhs, rhs, "composition not associative", {"f": f, "g": g, "h": h}
            yield cokleisli_compose(f, ident), f, "identity not a unit", {"f": f}
            yield cokleisli_compose(ident, f), f, "identity not a unit", {"f": f}

        return compare(rng, cases, case)

    def l3(rng, cases):
        # both factors have a nonzero constant term, one added where the draw has none: a d that keeps
        # constant terms then adds p(0) q(0) to the left side's first component and p(0) q + q(0) p to
        # the right side's, whose constant terms differ wherever 1 + 1 != 1
        constant, one = (0,) * variables, Polynomial.one(rig, variables)

        def case(rng):
            p, q = (r if constant in r.num else r + one for r in (rp(rng), rp(rng)))
            rhs = _bundle_map(lambda c: p * c, derive(q)) + _bundle_map(lambda c: q * c, derive(p))
            yield derive(p * q), rhs, "Leibniz fails", {"p": p, "q": q}

        return compare(rng, cases, case)

    def l4(rng, cases):
        def case(rng):
            n, m, k = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            f = random_polymap(rng, rig, n, m, 3)
            g = random_polymap(rng, rig, m, k, 3)
            # (x, v) -> (f(x), D[f](x, v)), then D[g]
            lifted = tuple(extend_arity(c, 2 * n, 0) for c in f.coordinates)
            pairing = PolyMap(2 * n, 2 * m, lifted + cartesian_derivative(f).coordinates)
            rhs = cokleisli_compose(cartesian_derivative(g), pairing)
            yield cartesian_derivative(cokleisli_compose(g, f)), rhs, "chain rule fails", {"f": f, "g": g}

        return compare(rng, cases, case)

    def l6(rng, cases):
        def case(rng):
            p = rp(rng)
            partials = [grad(c).components for c in derive(p).components]
            for i, row in enumerate(partials):
                # (j, i) with j < i was compared as (i, j) before
                for j in range(i + 1, len(partials)):
                    yield row[j], partials[j][i], "mixed partials differ", {"p": p, "i": i, "j": j}

        return compare(rng, cases, case)

    def l7(rng, cases):
        def case(rng):
            b = random_bundle(rng, rig, variables, max_degree - 1)
            partials = [grad(c).components for c in b.components]
            rhs = PolyBundle(tuple(
                bj + mul_in(PolyBundle(tuple(row[j] for row in partials))) for j, bj in enumerate(b.components)
            ))
            yield grad(mul_in(b)), rhs, "derive/coderive exchange fails", {"b": b}

        return compare(rng, cases, case)

    def l22(rng, cases):
        def case(rng):
            p = rp(rng)
            k = rng.randint(0, variables)
            yield seely_merge(seely_split(p, k)), p, "merge after split is not the identity", {"p": p, "k": k}
            # t is drawn, not split from p, so a split that agrees with its own merge still fails: a seeded
            # polynomial in the first k variables tensored with one in the rest, the constant 1 on no variables
            halves = [random_poly(rng, rig, n, max_degree).terms if n else {(): rig.one} for n in (k, variables - k)]
            terms = {(a, b): rig.mul(c, e) for a, c in halves[0].items() for b, e in halves[1].items()}
            t = SplitTensor(rig, k, variables - k, terms)
            yield seely_split(seely_merge(t), k), t, "split after merge is not the identity", {"t": t, "k": k}

        return compare(rng, cases, case)

    def l23(rng, cases):
        def case(rng):
            p = rp(rng)
            rows = rng.randint(1, 3)
            matrix = [[rig.nat_value(rng.randint(0, 3)) for _ in range(variables)] for _ in range(rows)]
            moved, *images = apply_linear(matrix, (p, *grad(p).components))
            rhs = PolyBundle(tuple(linear_combination(row, images) for row in matrix))
            inputs = {"p": p, "matrix": matrix}
            yield grad(moved), rhs, "gradient is not natural in linear substitution", inputs

        return compare(rng, cases, case)

    checks = {
        "L1": l1, "L3": l3, "L4": l4, "L6": l6, "L7": l7, "L21": partial(equations, taylor, "general"),
        "L22": l22, "L23": l23,
    }
    skips = {}
    if not rig.idempotent:
        skips["L24"] = "integral/coderive collapse needs an additively idempotent coefficient rig"
    return ModelBinding(
        "poly",
        rig.name,
        checks,
        skips,
        {"variables": variables, "max_degree": max_degree, "sabotage": sabotage},
        equations,
    )
