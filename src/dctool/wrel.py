"""Finite multisets and exact weighted matrices over enumerated index spaces.

Objects are small enumerated base sets; the exponential of a base set is the
space of bags (finite multisets) of its atoms, enumerated up to a maximum
size D.  Morphisms are column operators, or sparse matrices over a rig
between such spaces.  Permutations of tensor factors and of atoms are
applied as key relabels (`WeightedMatrix.relabel`), which cost O(nnz) and
build no permutation matrix.

Every column of a morphism of the relational model is finite, whatever the
bag size, so each operator is written once, as a column operator
(`ColumnOp`): `column(c)` is column c as {row: weight}, and no row is ever
truncated.  The family mirrors the polynomial model: column b of d reaches
(b - x, x) weighted by the multiplicity of x in b; column (b, x) of d°
reaches the bag b + x coefficient-free, and that of s reaches it weighted by
1/(|b| + 1); K and J are the diagonal bag-size scalings d°;d + !(0) and
d°;d + 1.  Column operators add, compose (`col_seq`: column c of f;g is the
columns of f summed along column c of g) and act on the first factor of a
pair (`ColumnOp.on_left`, which is both f x 1 and a unit operator on the
size tag).  `operators_rel` builds the whole operator set of one base set,
so each operator is defined once for every base set: the unit-level
operators are the general ones at the one-point base `UNIT_BASE`.

The table laws evaluate both sides of each equation on every source column
of at most D - `MARGIN` atoms and compare every row those columns reach.
The bespoke laws compare matrices over the bags of at most D atoms:
`ColumnOp.matrix` turns an operator into one, through `_from_columns`, the
only code that truncates: it keeps exactly the rows that lie in the row
space.  Delta and the split chi of a disjoint union are one formula, bag
union: column (b1, b2) reaches b1 + b2.  Every operator shifts bag sizes by
a fixed amount (+1, -1 or 0), so equations between truncated composites of
at most two size-shifting operators are exact on the "safe band" of bags
whose size stays at least `MARGIN` below D, and the bespoke laws compare
there.  L22 alone has its own scope: it compares split;merge on every bag up
to the bound D and merge;split on the pairs of halves of at most
min(D - MARGIN, D // 2) atoms.  Row r of f;g depends only on row r of f, so
a law may evaluate a composite from the safe-band rows of its first factor
(`WeightedMatrix.restrict_rows`) outward, and `compose_tensor` evaluates
f;(g x h) without materializing g x h.

The public constructor `WeightedMatrix(...)` drops zero entries.  Everything
else builds through the trusted `WeightedMatrix._canonical`, which tests
none, because a zero entry can only come from a sum that cancels (the rig
properties behind this are listed in `rig.Rig`): `relabel`, `restrict_rows`,
`transpose`, `identity` and `perm_matrix` move or select nonzero entries;
`tensor` multiplies nonzero entries; `mat_compose`, `compose_tensor` and `+`
sum products of them, and drop a cancelled sum only over a rig with
`has_negatives`, as the column operators' `+` and `col_seq` do; and the
column formulas are weighted by `one`, multiplicities `nat_value(k)` and
inverses `nat_inverse(k)` with k >= 1.

The model's law binding, `make_rel_binding`, ends this module.  Only its
bespoke laws build matrices; they read `mat_compose` and `tensor` as module
globals when a law runs, so a tracer that patches them finds every call.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from itertools import chain, combinations_with_replacement, product
from typing import NamedTuple

from .lawsuite import ModelBinding, Operators, repeat_case
from .rig import Rig, drop_cancelled

UNIT_POINT = "*"


class _Value:
    """Immutable, and equal to (and hashed like) a value of its own type with equal fields only, so
    `mat_compose` tells a `BagSpace` from a `PairSpace`.  A subclass sets its `__slots__` with `_freeze`."""

    __slots__ = ("_key",)

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", tuple(fields.values()))

    def __eq__(self, other):
        return self._key == other._key if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key))})"


class BaseSet(_Value):
    __slots__ = ("atoms",)

    def __init__(self, atoms: tuple):
        if len(set(atoms)) != len(atoms):
            raise ValueError("atoms must be distinct")
        self._freeze(atoms=atoms)


UNIT_BASE = BaseSet((UNIT_POINT,))

# A bag is a sorted tuple of atoms; multiplicity by repetition.
Bag = tuple


def bag(*atoms) -> Bag:
    return tuple(sorted(atoms))


def bag_add(b: Bag, x) -> Bag:
    return tuple(sorted(b + (x,)))


def bag_remove(b: Bag, x) -> Bag:
    out = list(b)
    out.remove(x)
    return tuple(out)


def bag_count(b: Bag, x) -> int:
    return b.count(x)


def enumerate_bags(base: BaseSet, max_size: int):
    out = []
    for n in range(max_size + 1):
        out.extend(tuple(c) for c in combinations_with_replacement(sorted(base.atoms), n))
    return out


# bag sizes kept free below the truncation bound: a composite of at most two
# size-shifting operators is exact on the bags of at most D - MARGIN atoms
MARGIN = 2


class Truncation(_Value):
    """Maximum bag size D; the safe band is the bags of at most D - MARGIN atoms."""

    __slots__ = ("D",)

    def __init__(self, D: int):
        if D < MARGIN:
            raise ValueError(f"truncation bound smaller than the margin {MARGIN}")
        self._freeze(D=D)

    @property
    def safe_limit(self) -> int:
        return self.D - MARGIN


# -- index spaces -----------------------------------------------------------


class UnitSpace(_Value):
    __slots__ = ()

    def __init__(self):
        self._freeze()

    def points(self):
        return [UNIT_POINT]


class AtomSpace(_Value):
    __slots__ = ("base",)

    def __init__(self, base: BaseSet):
        self._freeze(base=base)

    def points(self):
        return list(self.base.atoms)


class BagSpace(_Value):
    __slots__ = ("base", "max_size")

    def __init__(self, base: BaseSet, max_size: int):
        self._freeze(base=base, max_size=max_size)

    def points(self):
        return enumerate_bags(self.base, self.max_size)


class PairSpace(_Value):
    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self._freeze(left=left, right=right)

    def points(self):
        return [(l, r) for l, r in product(self.left.points(), self.right.points())]


def point_weight(space, point) -> int:
    """Largest bag size occurring inside a point of the given space."""
    if isinstance(space, BagSpace):
        return len(point)
    if isinstance(space, PairSpace):
        return max(point_weight(space.left, point[0]), point_weight(space.right, point[1]))
    return 0


@functools.cache
def _band(space, limit: int) -> frozenset:
    """The points of `space` whose largest bag has at most `limit` atoms, found once per space."""
    return frozenset(p for p in _points(space) if point_weight(space, p) <= limit)


def render_point(point) -> str:
    if isinstance(point, tuple) and all(isinstance(a, str) for a in point):
        return "[" + ",".join(point) + "]"
    if isinstance(point, tuple):
        return "(" + ", ".join(render_point(p) for p in point) + ")"
    return str(point)


# -- matrices ---------------------------------------------------------------


class WeightedMatrix:
    """Sparse exact matrix between two enumerated index spaces."""

    __slots__ = ("rig", "row_space", "col_space", "entries")

    def __init__(self, rig: Rig, row_space, col_space, entries=None):
        self.rig = rig
        self.row_space = row_space
        self.col_space = col_space
        canon = {}
        for key, c in (entries or {}).items():
            if not rig.is_zero(c):
                canon[key] = c
        self.entries = canon

    @classmethod
    def _canonical(cls, rig, row_space, col_space, entries: dict) -> "WeightedMatrix":
        """Trusted constructor: every value of `entries` is already nonzero, so none is tested."""
        m = object.__new__(cls)
        m.rig = rig
        m.row_space = row_space
        m.col_space = col_space
        m.entries = entries
        return m

    @classmethod
    def zero(cls, rig, row_space, col_space):
        return cls._canonical(rig, row_space, col_space, {})

    @classmethod
    def identity(cls, rig, space):
        return cls._canonical(rig, space, space, {(p, p): rig.one for p in space.points()})

    def entry(self, r, c):
        return self.entries.get((r, c), self.rig.zero)

    def __add__(self, other):
        self._check_spaces(other)
        rig = self.rig
        entries = dict(self.entries)
        for key, c in other.entries.items():
            entries[key] = rig.add(entries[key], c) if key in entries else c
        return WeightedMatrix._canonical(rig, self.row_space, self.col_space, drop_cancelled(rig, entries))

    def relabel(self, fn, space, rows=False):
        """Move the column keys (the row keys if `rows`) along the bijection `fn` into `space`.

        Equal to composing with `perm_matrix(fn)` on the right (its transpose
        on the left for rows), but O(nnz): no permutation matrix is built.
        """
        if rows:
            entries = {(fn(r), c): v for (r, c), v in self.entries.items()}
            row_space, col_space = space, self.col_space
        else:
            entries = {(r, fn(c)): v for (r, c), v in self.entries.items()}
            row_space, col_space = self.row_space, space
        if len(entries) != len(self.entries):
            raise ValueError("relabelling map is not injective")
        return WeightedMatrix._canonical(self.rig, row_space, col_space, entries)

    def transpose(self):
        return WeightedMatrix._canonical(
            self.rig, self.col_space, self.row_space, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def _check_spaces(self, other):
        if self.row_space != other.row_space or self.col_space != other.col_space:
            raise ValueError("matrix space mismatch")

    def __eq__(self, other):
        if not isinstance(other, WeightedMatrix):
            return NotImplemented
        if self.row_space != other.row_space or self.col_space != other.col_space:
            return False
        if set(self.entries) != set(other.entries):
            return False
        return all(self.rig.eq(v, other.entries[k]) for k, v in self.entries.items())

    def __hash__(self):
        raise TypeError("WeightedMatrix is not hashable")

    def restrict_rows(self, limit: int):
        """Drop entries whose row contains a bag larger than `limit`.

        Row r of f;g depends only on row r of f, so restricting the first
        factor of a composite restricts the composite exactly.
        """
        rows = _band(self.row_space, limit)
        entries = {(r, c): v for (r, c), v in self.entries.items() if r in rows}
        return WeightedMatrix._canonical(self.rig, self.row_space, self.col_space, entries)

    def first_difference(self, other, limit: int):
        """First safe-band entry, in `repr` order of the keys, where the matrices disagree, or None."""
        self._check_spaces(other)
        rig, a, b = self.rig, self.entries, other.entries
        # most keys agree, so weigh only the bags of keys whose values differ
        differ = [
            key
            for key in a.keys() | b.keys()
            if not rig.eq(a.get(key, rig.zero), b.get(key, rig.zero))
            and point_weight(self.row_space, key[0]) <= limit
            and point_weight(self.col_space, key[1]) <= limit
        ]
        if not differ:
            return None
        r, c = key = min(differ, key=repr)
        return (
            f"entry ({render_point(r)}, {render_point(c)}): "
            f"{rig.render(a.get(key, rig.zero))} != {rig.render(b.get(key, rig.zero))}"
        )


def _by_row(m: WeightedMatrix):
    """Row key -> [(column key, value)] over m's entries."""
    rows = defaultdict(list)
    for (y, z), c in m.entries.items():
        rows[y].append((z, c))
    return rows


def mat_compose(f: WeightedMatrix, g: WeightedMatrix) -> WeightedMatrix:
    """Matrix product: (f;g)(x, z) = sum_y f(x, y) * g(y, z)."""
    if f.col_space != g.row_space:
        raise ValueError("matrix space mismatch: f.col_space != g.row_space")
    rig = f.rig
    g_by_row = _by_row(g)
    entries = {}
    for (x, y), a in f.entries.items():
        for z, b in g_by_row.get(y, ()):
            key = (x, z)
            v = rig.mul(a, b)
            entries[key] = rig.add(entries[key], v) if key in entries else v
    return WeightedMatrix._canonical(rig, f.row_space, g.col_space, drop_cancelled(rig, entries))


def tensor(f: WeightedMatrix, g: WeightedMatrix) -> WeightedMatrix:
    """Kronecker product on pair spaces."""
    rig = f.rig
    entries = {}
    for (r1, c1), a in f.entries.items():
        for (r2, c2), b in g.entries.items():
            entries[((r1, r2), (c1, c2))] = rig.mul(a, b)
    return WeightedMatrix._canonical(
        rig, PairSpace(f.row_space, g.row_space), PairSpace(f.col_space, g.col_space), entries
    )


def compose_tensor(f: WeightedMatrix, g: WeightedMatrix, h: WeightedMatrix) -> WeightedMatrix:
    """f;(g x h): equal to `mat_compose(f, tensor(g, h))`, without building g x h.

    Walks f's entries and only the rows of g and h that they reach, so the
    cost follows f: a row-restricted f pays for its own rows only.
    """
    if f.col_space != PairSpace(g.row_space, h.row_space):
        raise ValueError("matrix space mismatch: f.col_space != g.row_space x h.row_space")
    rig = f.rig
    g_by_row, h_by_row = _by_row(g), _by_row(h)
    entries = {}
    for (x, (y1, y2)), a in f.entries.items():
        h_row = h_by_row.get(y2, ())
        for z1, b in g_by_row.get(y1, ()):
            ab = rig.mul(a, b)
            for z2, c in h_row:
                key = (x, (z1, z2))
                v = rig.mul(ab, c)
                entries[key] = rig.add(entries[key], v) if key in entries else v
    return WeightedMatrix._canonical(
        rig, f.row_space, PairSpace(g.col_space, h.col_space), drop_cancelled(rig, entries)
    )


def perm_matrix(rig, row_space, col_space, fn) -> WeightedMatrix:
    """Permutation matrix induced by a bijection on points.

    Nothing in `src` calls it: the binding permutes by `relabel`.  It is the
    reference `relabel` is tested against, and the benchmark reads it.
    """
    entries = {(p, fn(p)): rig.one for p in row_space.points()}
    return WeightedMatrix._canonical(rig, row_space, col_space, entries)


# -- operators: column formulas --------------------------------------------


@functools.cache
def _points(space) -> tuple:
    """The points of `space`, enumerated once per space."""
    return tuple(space.points())


@functools.cache
def _members(space) -> frozenset:
    """The points of `space` as a set, built once per space."""
    return frozenset(_points(space))


def _from_columns(rig: Rig, row_space, col_space, column, cols=None) -> WeightedMatrix:
    """The matrix whose column c holds `column(c)`, over `cols` (by default every point of `col_space`),
    keeping exactly the rows that lie in `row_space`."""
    rows, cols = _members(row_space), (_points(col_space) if cols is None else cols)
    entries = {(r, c): w for c in cols for r, w in column(c).items() if r in rows}
    return WeightedMatrix._canonical(rig, row_space, col_space, entries)


class ColumnOp:
    """A linear map given by its columns: `column(c)` is column c as {row: weight}, nonzero weights only.

    The points of `col_space` are the columns a law reads; a formula also
    takes larger columns (`operators_rel` says how large) and truncates no
    row, so a composite is exact on every column.  With `memo`, each column
    is computed once and shared: a caller must not change it.
    """

    __slots__ = ("rig", "col_space", "column")

    def __init__(self, rig: Rig, col_space, column, memo: bool = False):
        self.rig = rig
        self.col_space = col_space
        self.column = functools.cache(column) if memo else column

    def __add__(self, other: "ColumnOp") -> "ColumnOp":
        rig, f, g = self.rig, self.column, other.column
        return ColumnOp(rig, self.col_space, lambda c: _sum(rig, chain(f(c).items(), g(c).items())))

    def on_left(self, space) -> "ColumnOp":
        """f x 1: this operator on the first factor of a pair whose second factor is a point of `space`."""
        f, pairs = self.column, PairSpace(self.col_space, space)
        return ColumnOp(self.rig, pairs, lambda c: {(r, c[1]): w for r, w in f(c[0]).items()})

    def matrix(self, row_space) -> WeightedMatrix:
        """The matrix of this operator, truncated to the rows that lie in `row_space`."""
        return _from_columns(self.rig, row_space, self.col_space, self.column)


def _sum(rig: Rig, terms) -> dict:
    """{row: the sum of its weights} over the (row, weight) pairs `terms`, without cancelled sums."""
    out = {}
    for r, w in terms:
        out[r] = rig.add(out[r], w) if r in out else w
    return drop_cancelled(rig, out)


def col_seq(f: ColumnOp, g: ColumnOp) -> ColumnOp:
    """f;g, that is g then f: column c sums column y of f weighted by g(y, c), as `mat_compose` does."""
    rig, fc, gc = f.rig, f.column, g.column
    return ColumnOp(
        rig, g.col_space, lambda c: _sum(rig, ((r, rig.mul(a, b)) for y, b in gc(c).items() for r, a in fc(y).items()))
    )


def _bag_union(rig: Rig, row_space: BagSpace, col_space: PairSpace) -> WeightedMatrix:
    """Delta and chi: column (b1, b2) reaches the one row b1 + b2, the bag union, with weight one.

    Visited over the pairs whose total size fits the row space, the only columns with an entry.
    """
    left, right = col_space.left, col_space.right
    cols = [(b1, b2) for b1 in _points(left) for b2 in _points(BagSpace(right.base, row_space.max_size - len(b1)))]
    return _from_columns(rig, row_space, col_space, lambda c: {bag(*c[0], *c[1]): rig.one}, cols)


class Comonoid(NamedTuple):
    delta: WeightedMatrix  # bag -> all ordered two-part splits, coefficient-free
    counit: WeightedMatrix  # bag -> unit, supported on the empty bag
    eps: WeightedMatrix  # bag -> atom, supported on singletons


def comonoid_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> Comonoid:
    """Delta is the bag union; the counit's column reaches the empty bag and eps's column x the bag [x]."""
    bags = BagSpace(base, trunc.D)
    return Comonoid(
        _bag_union(rig, bags, PairSpace(bags, bags)),
        _from_columns(rig, bags, UnitSpace(), lambda c: {(): rig.one}),
        _from_columns(rig, bags, AtomSpace(base), lambda x: {(x,): rig.one}),
    )


# -- unit-object operators --------------------------------------------------
# The monoidal unit is a singleton base set; its bags are, up to notation, the
# natural numbers.  The unit-level operators d_R, d°_R, s_R, K_R, J_R and
# their inverses are the general operators taken at UNIT_BASE, so d_R and s_R
# still carry the one-point atom factor (R x 1); only the monoidal maps work
# on bare unit bags.  With them a unit operator f moves to any base: m_{R,A}
# tags a bag with its size, f x 1 acts on the tag, and m_R x 1 forgets it
# (`lawsuite.via_unit`).


def m_R_rel(rig: Rig, trunc: Truncation) -> WeightedMatrix:
    """m_R: every unit bag's column reaches the unit point."""
    return _from_columns(rig, UnitSpace(), BagSpace(UNIT_BASE, trunc.D), lambda n: {UNIT_POINT: rig.one})


# -- operator sets ----------------------------------------------------------


def operators_rel(base: BaseSet, rig: Rig, size: int) -> Operators:
    """d, d°, s, !(0), K, J, K^{-1}, J^{-1} and the unit monoidal maps on the bags of `base`, as column
    operators from the bags of at most `size` atoms (paired with an atom, or tagged, where the operator
    needs it).

    K = d°;d + !(0) is diagonal with weight |b| and J = d°;d + 1 with weight
    |b| + 1; both add to one d°;d.  The columns of the primitive operators and
    of K and J are memoized, once per operator set.  s, K^{-1} and J^{-1}
    read one table of the inverses 1/n, n from 1 to size + 2, computed here,
    so a rig without them raises `NotInvertible` when the set is built, and
    they take the columns of at most size + 1 atoms, three more than the
    sources of the table laws.  On
    UNIT_BASE these are the unit-level operators, and `atom` adds the
    one-point atom factor, column n reaching (n, *).  f x 1 is `on_left`,
    with the atoms (`x1`) or the bags (`tag`) as the second factor.
    """
    one = rig.one
    bags, atoms = BagSpace(base, size), AtomSpace(base)
    pairs = PairSpace(bags, atoms)
    inv = [one] + [rig.nat_inverse(n) for n in range(1, size + 3)]  # inv[0] is K^{-1} on the empty bag
    op = functools.partial(ColumnOp, rig, memo=True)  # a memoized operator: op(col_space, column)

    d = op(bags, lambda b: {(bag_remove(b, x), x): rig.nat_value(bag_count(b, x)) for x in set(b)})
    dc = op(pairs, lambda c: {bag_add(*c): one})
    bang0 = op(bags, lambda b: {} if b else {b: one})
    id_bags = ColumnOp(rig, bags, lambda b: {b: one})
    dcd = col_seq(dc, d)
    return Operators(
        d, dc, op(pairs, lambda c: {bag_add(*c): inv[len(c[0]) + 1]}), bang0,
        op(bags, (dcd + bang0).column), op(bags, (dcd + id_bags).column),
        op(bags, lambda b: {b: inv[len(b)]}), op(bags, lambda b: {b: inv[len(b) + 1]}),
        id=id_bags, gate=op(bags, lambda b: {((UNIT_POINT,) * len(b), b): one}),
        spread=op(PairSpace(BagSpace(UNIT_BASE, size), bags), lambda c: {c[1]: one}),
        atom=op(bags, lambda n: {(n, UNIT_POINT): one}) if base == UNIT_BASE else None,
        tag=lambda f: f.on_left(bags), seq=col_seq, x1=lambda f: f.on_left(atoms),
    )


# -- bag splitting over a disjoint union ------------------------------------


def seely_rel(base_x: BaseSet, base_y: BaseSet, rig: Rig, trunc: Truncation):
    """Split a bag over a disjoint union into its two parts.

    Returns (chi, chi_inv); chi is a permutation matrix and chi_inv its
    transpose.
    """
    if set(base_x.atoms) & set(base_y.atoms):
        raise ValueError("base sets must be disjoint")
    combined = BaseSet(tuple(sorted(base_x.atoms + base_y.atoms)))
    halves = PairSpace(BagSpace(base_x, trunc.D), BagSpace(base_y, trunc.D))
    chi = _bag_union(rig, BagSpace(combined, trunc.D), halves)
    return chi, chi.transpose()


# -- law binding ------------------------------------------------------------


# the atoms of a base of n are the first n names, generated in sorted order;
# the bag spaces grow as C(n + D, D), so larger bases are refused
MAX_BASE_SIZE = 6
ATOM_NAMES = tuple(chr(ord("a") + i) for i in range(MAX_BASE_SIZE))


def _random_matrix(rng, rig, row_space, col_space):
    cols = col_space.points()
    entries = {}
    for r in row_space.points():
        if rng.random() < 0.3:
            c = cols[rng.randrange(len(cols))]
            v = rig.sample(rng)
            entries[(r, c)] = v
    return WeightedMatrix(rig, row_space, col_space, entries)


def make_rel_binding(
    rig: Rig,
    base_size: int = 2,
    truncation: int = 4,
) -> ModelBinding:
    """Exact law binding for the bag-matrix model.

    `operators_rel` builds one set of column operators on the model's base set
    and one on UNIT_BASE, where the general operators are the unit-level d_R,
    d°_R, s_R, K_R and J_R (d_R and s_R keep the one-point atom factor, as
    `R x 1` in the law citations); every operator is defined once per base
    set.  The laws with equations in their `lawsuite.LAWS` row, L24 among
    them, run on these two sets: each side is evaluated, untruncated, on
    every source column of at most D - MARGIN atoms, and every row those
    columns reach is compared.  The bespoke laws compare matrices on the safe
    band: d, d° and !(0) are the first set's operators truncated to the bags
    of at most D atoms, and L10 reads the gate m_{R,A}, m_R x 1, d°_R and
    `atom` truncated alike, and m_R from `m_R_rel`.  A law that is a list of
    equations yields one comparison `cmp(lhs, rhs, label[, limit])` per
    equation, built when the runner reads it, so the runner stops at the
    first difference and `cases` counts the comparisons made.  Every
    permutation, of tensor factors (L1, L3, L6, L7) or of atoms (L23), is a key
    relabel, not a composition with a permutation matrix.
    The bespoke laws with a large first factor (L1, L3, L7, L21)
    restrict that factor to the safe-band rows, and L1, L3 and L7 evaluate
    each f;(g x h) with `compose_tensor`, so their tensor factors are never
    materialized.
    """
    if not 1 <= base_size <= MAX_BASE_SIZE:
        raise ValueError(f"base_size must be between 1 and {MAX_BASE_SIZE}")
    base = BaseSet(ATOM_NAMES[:base_size])
    trunc = Truncation(truncation)
    limit = trunc.safe_limit

    bags = BagSpace(base, trunc.D)
    atoms = AtomSpace(base)
    pair_ba = PairSpace(bags, atoms)
    pair_baa = PairSpace(pair_ba, atoms)
    uatoms = AtomSpace(UNIT_BASE)

    o, u = operators_rel(base, rig, trunc.D), operators_rel(UNIT_BASE, rig, trunc.D)
    d, dc, bang0 = o.d.matrix(pair_ba), o.dc.matrix(bags), o.bang0.matrix(bags)
    id_bags, id_atoms = WeightedMatrix.identity(rig, bags), WeightedMatrix.identity(rig, atoms)
    com = comonoid_rel(base, rig, trunc)
    ucom = comonoid_rel(UNIT_BASE, rig, trunc)
    m_R = m_R_rel(rig, trunc)

    def swap_atoms(p):
        """((b, x), y) -> ((b, y), x): the symmetry sigma of L6 and L7."""
        (b, x), y = p
        return ((b, y), x)

    def cmp(lhs, rhs, label, lim=limit):
        """The counterexample of lhs = rhs on rows and columns up to `lim`, or None."""
        diff = lhs.first_difference(rhs, lim)
        return None if diff is None else f"{label}: {diff}"

    def columns(op):
        """op's columns of at most `limit` atoms, as a matrix whose rows (row space None) are never truncated."""
        entries = {(r, c): w for c in _band(op.col_space, limit) for r, w in op.column(c).items()}
        return WeightedMatrix._canonical(rig, None, op.col_space, entries)

    def l1(rng, cases):
        delta = com.delta.restrict_rows(limit)
        lhs = compose_tensor(delta, com.delta, id_bags)
        yield cmp(
            lhs.relabel(lambda p: (p[0][0], (p[0][1], p[1])), PairSpace(bags, PairSpace(bags, bags))),
            compose_tensor(delta, id_bags, com.delta),
            "comultiplication not coassociative",
        )
        # counit laws, with the unit factor projected away
        lhs = compose_tensor(delta, com.counit, id_bags)
        yield cmp(lhs.relabel(lambda p: p[1], bags), id_bags, "left counit fails")
        lhs = compose_tensor(delta, id_bags, com.counit)
        yield cmp(lhs.relabel(lambda p: p[0], bags), id_bags, "right counit fails")
        swapped = delta.relabel(lambda p: (p[1], p[0]), delta.col_space)
        yield cmp(swapped, delta, "comultiplication not cocommutative")

    def l2(rng, cases):
        zero = WeightedMatrix.zero(rig, pair_ba, UnitSpace())
        yield cmp(mat_compose(d, com.counit), zero, "derivative of a constant is nonzero")

    def l3(rng, cases):
        split = tensor(com.delta.restrict_rows(limit), id_atoms)  # ((b1, b2), x) columns
        # summand that differentiates the left split part
        term1 = compose_tensor(
            split.relabel(lambda p: ((p[0][0], p[1]), p[0][1]), PairSpace(pair_ba, bags)), d, id_bags
        )
        # summand that differentiates the right split part
        term2 = compose_tensor(
            split.relabel(lambda p: (p[0][0], (p[0][1], p[1])), PairSpace(bags, pair_ba)), id_bags, d
        )
        yield cmp(mat_compose(d.restrict_rows(limit), com.delta), term1 + term2, "Leibniz fails")

    def l5(rng, cases):
        rhs = WeightedMatrix(rig, pair_ba, atoms, {(((), x), x): rig.one for x in base.atoms})
        yield cmp(mat_compose(d, com.eps), rhs, "derivative of a linear map is not constant")

    def l6(rng, cases):
        lhs = mat_compose(tensor(d, id_atoms), d)
        yield cmp(lhs, lhs.relabel(swap_atoms, pair_baa, rows=True), "interchange fails")

    def l7(rng, cases):
        rhs = compose_tensor(tensor(dc.restrict_rows(limit), id_atoms).relabel(swap_atoms, pair_baa), d, id_atoms)
        rhs = rhs + WeightedMatrix.identity(rig, pair_ba)
        yield cmp(mat_compose(d.restrict_rows(limit), dc), rhs, "derive/coderive exchange fails")

    def l10(rng, cases):
        ubags = BagSpace(UNIT_BASE, trunc.D)
        gate, spread = o.gate.matrix(PairSpace(ubags, bags)), o.spread.matrix(bags)
        yield cmp(mat_compose(spread, gate), id_bags, "unit pairing is not split by the all-ones row")
        one_mat = WeightedMatrix(rig, UnitSpace(), uatoms, {(UNIT_POINT, UNIT_POINT): rig.one})
        yield cmp(mat_compose(m_R, ucom.eps), one_mat, "m_R against the linear counit fails")
        unit_id = WeightedMatrix.identity(rig, UnitSpace())
        yield cmp(mat_compose(m_R, ucom.counit), unit_id, "m_R against the comonoid counit fails")
        u_dc, u_atom = u.dc.matrix(ubags), u.atom.matrix(PairSpace(ubags, uatoms))
        yield cmp(mat_compose(mat_compose(m_R, u_dc), u_atom), m_R, "m_R is not fixed by the unit coderive")

    def l21(rng, cases):
        d_band = d.restrict_rows(limit)  # !(0) has one row, the empty bag, so it is band-only already

        def one(rng):
            f = _random_matrix(rng, rig, bags, atoms)
            h = _random_matrix(rng, rig, bags, atoms)
            g = f + mat_compose(bang0, h)
            return cmp(mat_compose(d_band, f), mat_compose(d_band, g), "generator broke the premise") or cmp(
                f + mat_compose(bang0, g), g + mat_compose(bang0, f), "Taylor fails"
            )

        return repeat_case(rng, min(cases, 10), one)

    def l22(rng, cases):
        half = max(1, base_size // 2)
        chi, chi_inv = seely_rel(BaseSet(base.atoms[:half]), BaseSet(base.atoms[half:]), rig, trunc)
        id_xy = WeightedMatrix.identity(rig, chi.row_space)
        yield cmp(mat_compose(chi, chi_inv), id_xy, "split;merge is not the identity", trunc.D)
        # a pair of half-bags only merges back when the combined size fits under
        # the truncation bound, so quantify over halves of at most D // 2
        id_split = WeightedMatrix.identity(rig, chi.col_space)
        yield cmp(mat_compose(chi_inv, chi), id_split, "merge;split is not the identity", min(limit, trunc.D // 2))

    def l23(rng, cases):
        bag_points = bags.points()

        def one(rng):
            image = list(base.atoms)
            rng.shuffle(image)
            phi = dict(zip(base.atoms, image))
            push = {b: tuple(sorted(phi[a] for a in b)) for b in bag_points}
            moved = d.relabel(lambda p: (push[p[0]], phi[p[1]]), pair_ba, rows=True).relabel(push.__getitem__, bags)
            return cmp(d, moved, "derivative is not natural along atom permutations")

        return repeat_case(rng, min(cases, 5), one)

    checks = {
        "L1": l1, "L2": l2, "L3": l3, "L5": l5, "L6": l6, "L7": l7,
        "L10": l10, "L21": l21, "L22": l22, "L23": l23,
    }
    skips = {"L4": "the double-exponential chain rule is out of scope for this model"}
    if not rig.idempotent:
        skips["L24"] = "integral/coderive collapse needs an additively idempotent rig"
    return ModelBinding(
        "rel",
        rig.name,
        checks,
        skips,
        {"base_size": base_size, "truncation": truncation, "margin": MARGIN},
        lambda law, at, rng, cases: (
            cmp(columns(lhs), columns(rhs), label) for lhs, rhs, label in law(o if at == "general" else u, u)
        ),
    )
