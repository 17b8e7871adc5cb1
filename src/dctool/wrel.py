"""Finite multisets and the exact column operators of the relational model.

Objects are small enumerated base sets; the exponential of a base set is the
space of bags (finite multisets) of its atoms, enumerated up to a maximum
size D.  Every column of a morphism of the relational model is finite,
whatever the bag size, so each morphism is written once, as a column
operator (`ColumnOp`): `column(c)` is column c as {row: weight}, and no row
is ever truncated.  The family mirrors the polynomial model: column b of d
reaches (b - x, x) weighted by the multiplicity of x in b; column (b, x) of
d° reaches the bag b + x coefficient-free, and that of s reaches it weighted
by 1/(|b| + 1); K and J are the diagonal bag-size scalings d°;d + !(0) and
d°;d + 1.  Delta and the split chi of a disjoint union are one formula, bag
union (`merge`): column (b1, b2) reaches b1 + b2; column b of chi^{-1}
reaches the pair of b's two parts.  Column operators add, compose
(`f @ g` is f;g: its column c is the columns of f summed along column c of
g) and act on one factor of a pair (`ColumnOp.on_left`, f x 1, which is also a
unit operator on the size tag, and `ColumnOp.on_right`, 1 x f).

A map of points is an operator whose column c is the one row fn(c) with
weight one, for a function fn of points; `relabel` builds it and keeps fn
as the operator's `point`.  Delta, chi and chi^{-1}, d°, the counit, the
unit monoidal maps, the permutations of tensor factors or of atoms, the
associators and the unitors are maps of points, and so is f x 1 or 1 x f of
one.  `f @ g` forms no product when f or g is one: two maps of points
compose as functions; a map of points g picks column g(c) of f; a map of
points f moves each row y of g's column to f(y), summing the weights only
where two rows meet.  `operators_rel` builds the
whole operator set of one base set, Delta and the counit with it, so each
operator is defined once for every base set: the unit-level operators are
the general ones at the one-point base `UNIT_BASE`.

The model has one comparison rule: a law compares every entry it computes.
Every law but L21 compares two column operators (`ColumnOp.first_difference`)
on the source columns of at most N atoms, `point_weight` counting every bag
atom of a point, and compares every row those columns reach.  N is D -
`MARGIN` unless a law says otherwise, and D is at least MARGIN + 1: at
D = MARGIN most laws would read the empty bag's column alone.  Such a law
reads one column per orbit of the permutations pi of the atoms
(`_orbit_reps`), the first of each orbit in `_band` order.  That is the
symmetry reduction of model checking: every operator the binding supplies
commutes with each pi, so each side of an equation does, and lhs(pi c) =
pi lhs(c) = pi rhs(c) = rhs(pi c).  Naturality (L23) is that premise: it
checks each supplied operator along the two generators of the permutations
on every column a law can read it at (`ColumnOp.commutes`), so a defect at
a column that represents no orbit still fails L23.  The maps of points a
law builds itself (the associators, sigma, the unitors, L3's split
summands) move tuple positions or take bag unions and name no atom, so they
commute with every pi too.  L22 reads every column: chi splits the base
into two halves, so it commutes only with the permutations that keep each
half.  The Taylor
property (L21) alone compares sparse matrices (`WeightedMatrix`) over the
bags of at most D atoms, on every entry: it evaluates `lawsuite.taylor`,
d;!(0) = 0 and !(0);!(0) = !(0), on the matrices of d, !(0) and the zero
operator, which compose with `@`, that is `mat_compose`.
`ColumnOp.matrix`, the only code that truncates, keeps exactly the rows
that lie in the row space, and row (b, x) of d is reached only from column
b + x, a bag of at most D atoms, so d's matrix and d;!(0) hold their true
values.  Both comparisons report the first differing (row, column) key, in
`repr` order, among the columns they compare.  No law draws: every input is
enumerated, so a report reads neither `cases` nor the seed.

The public constructor `WeightedMatrix(...)` drops zero entries, and
`ColumnOp.matrix` builds through it, although it selects nonzero weights
only, so that a tracer of that constructor counts the matrices L21 builds
and their entries.  Everything else builds through the trusted
`WeightedMatrix._canonical`, which tests none, because a zero entry can
only come from a sum that cancels (the rig properties behind this are
listed in `rig.Rig`): `perm_matrix` moves nonzero entries; `tensor`
multiplies nonzero entries; `mat_compose` sums products of them
through `rig.accumulate`, as the column operators' `+` and `@` do,
which tests a sum only where two values meet at one key and only over a rig
with `has_negatives`; and the column formulas are weighted by
`one`, multiplicities `nat_value(k)` and inverses `nat_inverse(k)` with
k >= 1.

The model's law binding, `make_rel_binding`, ends this module.  Only L21
builds matrices; their `@` reads `mat_compose` as a module global when it
runs, so a tracer that patches it finds every call.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from itertools import combinations_with_replacement, product

from .lawsuite import ModelBinding, Operators, taylor
from .rig import Rig, accumulate

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


# bag sizes kept free below the truncation bound D: the column-operator laws
# read the source columns of at most D - MARGIN atoms
MARGIN = 2


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
    """The number of bag atoms in a point of the given space."""
    if isinstance(space, BagSpace):
        return len(point)
    if isinstance(space, PairSpace):
        return point_weight(space.left, point[0]) + point_weight(space.right, point[1])
    return 0


@functools.cache
def _band(space, limit: int) -> tuple:
    """The points of `space` of at most `limit` bag atoms, enumerated directly, once per space and limit."""
    if isinstance(space, BagSpace):
        return tuple(enumerate_bags(space.base, min(limit, space.max_size)))
    if isinstance(space, PairSpace):
        return tuple(
            (l, r) for l in _band(space.left, limit) for r in _band(space.right, limit - point_weight(space.left, l))
        )
    return _points(space)


def _generators(atoms: tuple) -> list:
    """The transposition (a b) and the cycle (a b ...) of `atoms`, each as its (atom, image) pairs.

    They generate every permutation of the atoms; at two atoms they are one
    permutation, and at one atom the identity.
    """
    images = dict.fromkeys((atoms[1::-1] + atoms[2:], atoms[1:] + atoms[:1]))
    return [tuple(zip(atoms, image)) for image in images]


@functools.cache
def _permuting(phi: tuple):
    """The atom permutation `phi`, given by its (atom, image) pairs, acting on points.

    An atom moves to its image, a bag to the sorted tuple of its atoms'
    images, and a pair componentwise.  A tuple is a bag when it is empty or
    starts and ends with an atom: a pair ends with a tuple or starts with one,
    and no space pairs two atoms.  An atom `phi` does not name stays, so the
    unit point and the bags of UNIT_BASE are fixed.  The image of each bag is
    memoized for the life of the process, as `_band` is; a pair's is rebuilt
    from its parts, so the memo stays as small as the bag spaces.
    """
    get, bags = dict(phi).get, {}

    def act(p):
        if p.__class__ is str:
            return get(p, p)
        if p and (p[0].__class__ is not str or p[-1].__class__ is not str):
            return (act(p[0]), act(p[1]))
        image = bags.get(p)
        if image is None:
            image = bags[p] = tuple(sorted(map(get, p, p)))
        return image

    return act


@functools.cache
def _images(space, limit: int, act) -> tuple:
    """The image under `act` of each point of `_band(space, limit)`, in band order."""
    return tuple(map(act, _band(space, limit)))


@functools.cache
def _atoms(space) -> tuple:
    """The atoms of the base sets `space` is built on, UNIT_BASE's aside, in sorted order, that of a bag."""
    if isinstance(space, PairSpace):
        return tuple(sorted({*_atoms(space.left), *_atoms(space.right)}))
    base = getattr(space, "base", UNIT_BASE)
    return () if base == UNIT_BASE else tuple(sorted(base.atoms))


def _refine(cells: tuple, values) -> tuple:
    """`cells`, split where two neighbouring atoms of a cell take different values.

    `cells` gives each atom, in sorted order, the index of the first atom of
    its cell, a run of atoms that no earlier factor tells apart.
    """
    out = []
    for i, v in enumerate(values):
        out.append(out[-1] if i and cells[i] == cells[i - 1] and v == values[i - 1] else i)
    return tuple(out)


def _multiplicities(cells: tuple, total: int, i: int = 0, previous: int = 0):
    """The multiplicity vectors of the atoms from index i on that sum to `total` and never rise within a cell,
    in descending lexicographic order, that is the order of their bags."""
    if i == len(cells):
        if total == 0:
            yield ()
        return
    top = total if i == 0 or cells[i] != cells[i - 1] else min(total, previous)
    for m in range(top, -1, -1):
        for rest in _multiplicities(cells, total - m, i + 1, m):
            yield (m, *rest)


def _canonical(space, limit: int, atoms: tuple, cells: tuple):
    """Each point of `_band(space, limit)` that no permutation keeping every cell of `cells` moves earlier in
    band order, in band order, with the cells of the atoms that still agree after it."""
    if not _atoms(space):  # the unit point and UNIT_BASE's spaces: fixed by every permutation
        for p in _band(space, limit):
            yield p, cells
    elif isinstance(space, PairSpace):
        for left, inner in _canonical(space.left, limit, atoms, cells):
            for right, out in _canonical(space.right, limit - point_weight(space.left, left), atoms, inner):
                yield (left, right), out
    elif _atoms(space) != atoms:
        raise ValueError("a space read one column per orbit is built on one base set besides UNIT_BASE")
    elif isinstance(space, BagSpace):
        for size in range(min(limit, space.max_size) + 1):
            for counts in _multiplicities(cells, size):
                yield tuple(a for a, m in zip(atoms, counts) for _ in range(m)), _refine(cells, counts)
    else:  # an atom, the first of its cell: the atom points come in sorted order, as every base's atoms do
        for i, x in enumerate(atoms):
            if i == 0 or cells[i] != cells[i - 1]:
                yield x, _refine(cells, [j == i for j in range(len(atoms))])


@functools.cache
def _orbit_reps(space, limit: int) -> tuple:
    """The first point, in band order, of each orbit of the atom permutations on `_band(space, limit)`.

    A permutation keeps every bag's size, so every point of an orbit has the
    same sizes, and band order compares two of them factor by factor (left
    before right), a bag by its sorted atoms: the earlier point gives the
    earlier atoms more of each factor.  So a point is the first of its orbit
    exactly when each atom, at the first factor where it differs from the
    atom before it, has less there: fewer copies in a bag, or, in an atom
    factor, not being the atom where the atom before it is.  `_canonical`
    builds these points directly, factor by factor, and keeps as cells the
    runs of atoms that agree so far; it applies no permutation and builds no
    other point.
    `space` is built on at most one base set besides UNIT_BASE, as is every
    space a law reads one column per orbit of (L22's two halves are read on
    every column); on none, each point is its own orbit.  Cached once per
    space and limit, as `_band` is.
    """
    atoms = _atoms(space)
    return tuple(p for p, _ in _canonical(space, limit, atoms, (0,) * len(atoms)))


def render_point(point) -> str:
    if isinstance(point, tuple) and all(isinstance(a, str) for a in point):
        return "[" + ",".join(point) + "]"
    if isinstance(point, tuple):
        return "(" + ", ".join(render_point(p) for p in point) + ")"
    return str(point)


# -- matrices ---------------------------------------------------------------


def _first_difference(rig: Rig, columns):
    """The first entry, in `repr` order of the (row, column) keys, where two maps disagree, rendered, or None.

    `columns` yields (c, a, b): column c of each map as {row: weight}.  Two
    equal dicts are skipped whole, since values equal under `==` are equal
    elements (`rig.Rig`); otherwise every row either reaches is compared.
    """
    zero, differ = rig.zero, {}
    for c, a, b in columns:
        if a != b:
            for r in a.keys() | b.keys():
                x, y = a.get(r, zero), b.get(r, zero)
                if not rig.eq(x, y):
                    differ[r, c] = x, y
    if not differ:
        return None
    r, c = key = min(differ, key=repr)
    x, y = differ[key]
    return f"entry ({render_point(r)}, {render_point(c)}): {rig.render(x)} != {rig.render(y)}"


class WeightedMatrix:
    """Sparse exact matrix between two enumerated index spaces; only the Taylor property (L21) builds one.

    `f @ g` is f;g, `mat_compose(f, g)`.
    """

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

    def __matmul__(self, other):
        # `mat_compose` is looked up when called, so a tracer that patches it counts this product
        return mat_compose(self, other)

    def _check_spaces(self, other):
        if self.row_space != other.row_space or self.col_space != other.col_space:
            raise ValueError("matrix space mismatch")

    def __eq__(self, other):
        if not isinstance(other, WeightedMatrix):
            return NotImplemented
        same_spaces = self.row_space == other.row_space and self.col_space == other.col_space
        return same_spaces and self.first_difference(other) is None

    def _columns(self) -> dict:
        columns = defaultdict(dict)
        for (r, c), w in self.entries.items():
            columns[c][r] = w
        return columns

    def first_difference(self, other):
        """First entry, in `repr` order of the (row, column) keys, where the matrices disagree, or None."""
        self._check_spaces(other)
        a, b = self._columns(), other._columns()
        return _first_difference(self.rig, ((c, a.get(c, {}), b.get(c, {})) for c in a.keys() | b.keys()))


def mat_compose(f: WeightedMatrix, g: WeightedMatrix) -> WeightedMatrix:
    """Matrix product: (f;g)(x, z) = sum_y f(x, y) * g(y, z)."""
    if f.col_space != g.row_space:
        raise ValueError("matrix space mismatch: f.col_space != g.row_space")
    rig = f.rig
    g_by_row = defaultdict(list)
    for (y, z), b in g.entries.items():
        g_by_row[y].append((z, b))
    mul = rig.mul
    products = (((x, z), mul(a, b)) for (x, y), a in f.entries.items() for z, b in g_by_row.get(y, ()))
    return WeightedMatrix._canonical(rig, f.row_space, g.col_space, accumulate(rig, {}, products))


def tensor(f: WeightedMatrix, g: WeightedMatrix) -> WeightedMatrix:
    """Kronecker product on pair spaces.

    No law calls it: the benchmark patches it, and a law that tensors acts on
    one factor of a pair with `ColumnOp.on_left` or `ColumnOp.on_right`.
    """
    rig = f.rig
    entries = {}
    for (r1, c1), a in f.entries.items():
        for (r2, c2), b in g.entries.items():
            entries[((r1, r2), (c1, c2))] = rig.mul(a, b)
    return WeightedMatrix._canonical(
        rig, PairSpace(f.row_space, g.row_space), PairSpace(f.col_space, g.col_space), entries
    )


def perm_matrix(rig, row_space, col_space, fn) -> WeightedMatrix:
    """Permutation matrix induced by a bijection on points.

    No law calls it: the benchmark patches it, and a law permutes with the
    column operator `relabel` builds.
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


class ColumnOp:
    """A linear map given by its columns: `column(c)` is column c as {row: weight}, nonzero weights only.

    The points of `col_space` are the columns a law reads; a formula also
    takes larger columns (`operators_rel` says how large) and truncates no
    row, so a composite is exact on every column.  With `memo`, each column
    is computed once and shared: a caller must not change it.  A map of
    points, which `relabel` builds, also carries its function of points as
    `point` (None for any other operator): column c is the one row point(c)
    with weight one.
    """

    __slots__ = ("rig", "col_space", "column", "point")

    def __init__(self, rig: Rig, col_space, column, memo: bool = False, point=None):
        self.rig = rig
        self.col_space = col_space
        self.column = functools.cache(column) if memo else column
        self.point = point

    def __add__(self, other: "ColumnOp") -> "ColumnOp":
        rig, f, g = self.rig, self.column, other.column
        return ColumnOp(rig, self.col_space, lambda c: accumulate(rig, dict(f(c)), g(c).items()))

    def __matmul__(self, other: "ColumnOp") -> "ColumnOp":
        """f;g, that is g then f: column c sums column y of f weighted by g(y, c), as `mat_compose` does.

        A map of points makes no product:
        - f and g both maps of points: f;g is the map of points g then f;
        - g a map of points: column c is column g.point(c) of f;
        - f a map of points: column c is g's column with each row y moved to
          f.point(y), the weights summed where two rows meet.
        Otherwise a column of g that is the single entry (y, one) gives column y of f itself.
        """
        rig, fc, gc, fp, gp = self.rig, self.column, other.column, self.point, other.point
        if fp and gp:
            return relabel(rig, other.col_space, lambda c: fp(gp(c)))
        if gp:
            return ColumnOp(rig, other.col_space, lambda c: fc(gp(c)))
        if fp:
            return ColumnOp(rig, other.col_space, lambda c: accumulate(rig, {}, ((fp(y), b) for y, b in gc(c).items())))

        def column(c):
            through = gc(c)
            if len(through) == 1:
                [(y, b)] = through.items()
                if rig.eq(b, rig.one):
                    return fc(y)
            mul = rig.mul
            return accumulate(rig, {}, ((r, mul(a, b)) for y, b in through.items() for r, a in fc(y).items()))

        return ColumnOp(rig, other.col_space, column)

    def on_left(self, space) -> "ColumnOp":
        """f x 1: this operator on the first factor of a pair whose second factor is a point of `space`."""
        f, p, pairs = self.column, self.point, PairSpace(self.col_space, space)
        if p:
            return relabel(self.rig, pairs, lambda c: (p(c[0]), c[1]))
        return ColumnOp(self.rig, pairs, lambda c: {(r, c[1]): w for r, w in f(c[0]).items()})

    def on_right(self, space) -> "ColumnOp":
        """1 x f: this operator on the second factor of a pair whose first factor is a point of `space`."""
        f, p, pairs = self.column, self.point, PairSpace(space, self.col_space)
        if p:
            return relabel(self.rig, pairs, lambda c: (c[0], p(c[1])))
        return ColumnOp(self.rig, pairs, lambda c: {(c[0], r): w for r, w in f(c[1]).items()})

    def matrix(self, row_space) -> WeightedMatrix:
        """The matrix of this operator on every point of `col_space`, truncated to the rows in `row_space`."""
        rows = _members(row_space)
        entries = {(r, c): w for c in _points(self.col_space) for r, w in self.column(c).items() if r in rows}
        return WeightedMatrix(self.rig, row_space, self.col_space, entries)

    def first_difference(self, other: "ColumnOp", limit: int, orbits: bool = True):
        """First entry, in `repr` order of the (row, column) keys, where the operators disagree on one column
        per orbit of the atom permutations among the columns of at most `limit` atoms (`_orbit_reps`), or on
        every one of them when `orbits` is false, or None; every row those columns reach is compared.  Two
        maps of points are compared point by point, and through their columns only where a point differs."""
        band = (_orbit_reps if orbits else _band)(self.col_space, limit)
        p, q = self.point, other.point
        if p and q and all(p(c) == q(c) for c in band):
            return None
        f, g = self.column, other.column
        return _first_difference(self.rig, ((c, f(c), g(c)) for c in band))

    def commutes(self, act, limit: int) -> bool:
        """Whether act;f = f;act on every column of at most `limit` atoms, for a bijection `act` of points
        that keeps their weight: column act(c) holds the rows act(r) of column c, with their weights.  A
        bijection meets no two rows, so nothing is summed; weights are compared by `==` (`rig.Rig`)."""
        band, p, col = _band(self.col_space, limit), self.point, self.column
        pairs = zip(band, _images(self.col_space, limit, act))
        if p:
            return all(act(p(c)) == p(image) for c, image in pairs)
        return all(col(image) == {act(r): w for r, w in col(c).items()} for c, image in pairs)


def relabel(rig: Rig, space, fn) -> ColumnOp:
    """The map of points `fn` as an operator: column c, a point of `space`, reaches the one row fn(c) with weight one.

    A bijection gives a permutation (sigma, the associators, the atom swap
    and pushes along atom permutations), and a projection away from a unit
    factor a unitor.  The operator carries `fn` as its `point`, so that `@`
    composes it as a function and forms no product.
    """
    return ColumnOp(rig, space, lambda c: {fn(c): rig.one}, point=fn)


def merge(rig: Rig, pairs: PairSpace) -> ColumnOp:
    """Delta and chi: the map of points taking (b1, b2) to the bag union b1 + b2; each union is computed once."""
    return relabel(rig, pairs, functools.cache(lambda c: bag(*c[0], *c[1])))


# -- operator sets ----------------------------------------------------------
# The monoidal unit is a singleton base set; its bags are, up to notation, the
# natural numbers.  The unit-level operators d_R, d°_R, s_R, K_R, J_R and
# their inverses are the general operators taken at UNIT_BASE, so d_R and s_R
# still carry the one-point atom factor (R x 1); only the monoidal maps work
# on bare unit bags.  With them a unit operator f moves to any base: m_{R,A}
# tags a bag with its size, f x 1 acts on the tag, and m_R x 1 forgets it
# (`lawsuite.via_unit`).


def operators_rel(base: BaseSet, rig: Rig, size: int) -> Operators:
    """d, d°, s, !(0), K, J, K^{-1}, J^{-1}, zero, the unit monoidal maps, Delta and the counit e on the bags
    of `base`, as column operators from the bags of at most `size` atoms (paired with an atom or a bag, or
    tagged, where the operator needs it).

    K = d°;d + !(0) is diagonal with weight |b| and J = d°;d + 1 with weight
    |b| + 1; both add to one d°;d.  d° and the unit monoidal maps are maps of
    points (`relabel`).  The points of d° and the columns of the other
    primitive operators and of K and J are memoized, once per operator set.
    s, K^{-1} and J^{-1} read one table of the inverses 1/n, n from 1 to
    size + 2, computed here, so a rig without them raises `NotInvertible`
    when the set is built, and they take the columns of at most size + 1
    atoms, three more than the sources of the table laws.  On
    UNIT_BASE these are the unit-level operators, and `atom` adds the
    one-point atom factor, column n reaching (n, *).  f x 1 is `on_left`,
    with the atoms (`x1`) or the bags (`tag`) as the second factor.
    Delta is the bag union (`merge`), column (b1, b2) reaching b1 + b2, so
    each bag's row holds all its ordered two-part splits, and the counit's one
    column, the unit point, reaches the empty bag; both are maps of points,
    built off UNIT_BASE only, since no law reads them on the unit set.  The
    constant rule (L2) reads e through !(0), and the linear rule (L5) the
    linear counit eps as d° on the pairs ((), x).
    """
    one = rig.one
    bags, atoms = BagSpace(base, size), AtomSpace(base)
    pairs = PairSpace(bags, atoms)
    inv = [one] + [rig.nat_inverse(n) for n in range(1, size + 3)]  # inv[0] is K^{-1} on the empty bag
    op = functools.partial(ColumnOp, rig, memo=True)  # a memoized operator: op(col_space, column)

    d = op(bags, lambda b: {(bag_remove(b, x), x): rig.nat_value(bag_count(b, x)) for x in set(b)})
    dc = relabel(rig, pairs, functools.cache(lambda c: bag(*c[0], c[1])))
    bang0 = op(bags, lambda b: {} if b else {b: one})
    id_bags = relabel(rig, bags, lambda b: b)
    dcd = dc @ d
    general = base != UNIT_BASE
    return Operators(
        d, dc, op(pairs, lambda c: {bag(*c[0], c[1]): inv[len(c[0]) + 1]}), bang0,
        op(bags, (dcd + bang0).column), op(bags, (dcd + id_bags).column),
        op(bags, lambda b: {b: inv[len(b)]}), op(bags, lambda b: {b: inv[len(b) + 1]}),
        id=id_bags, zero=ColumnOp(rig, bags, lambda b: {}),
        gate=relabel(rig, bags, lambda b: ((UNIT_POINT,) * len(b), b)),
        spread=relabel(rig, PairSpace(BagSpace(UNIT_BASE, size), bags), lambda c: c[1]),
        atom=None if general else relabel(rig, bags, lambda n: (n, UNIT_POINT)),
        tag=lambda f: f.on_left(bags), x1=lambda f: f.on_left(atoms),
        delta=merge(rig, PairSpace(bags, bags)) if general else None,
        counit=relabel(rig, UnitSpace(), lambda c: ()) if general else None,
    )


# -- bag splitting over a disjoint union ------------------------------------


def seely_rel(base_x: BaseSet, base_y: BaseSet, rig: Rig, size: int):
    """Split a bag over a disjoint union into its two parts.

    Returns (chi, chi_inv), column operators from the pairs of bags of at
    most `size` atoms each and from the combined bags of at most `size`
    atoms: chi is the bag union, as Delta is, and column b of chi_inv reaches
    the pair of b's atoms in base_x and in base_y.
    """
    if set(base_x.atoms) & set(base_y.atoms):
        raise ValueError("base sets must be disjoint")
    combined = BaseSet(tuple(sorted(base_x.atoms + base_y.atoms)))
    left = set(base_x.atoms)
    chi = merge(rig, PairSpace(BagSpace(base_x, size), BagSpace(base_y, size)))
    chi_inv = relabel(
        rig,
        BagSpace(combined, size),
        lambda b: (tuple(a for a in b if a in left), tuple(a for a in b if a not in left)),
    )
    return chi, chi_inv


# -- law binding ------------------------------------------------------------


# the atoms of a base of n are the first n names, generated in sorted order;
# the bag spaces grow as C(n + D, D), so larger bases are refused
MAX_BASE_SIZE = 6
ATOM_NAMES = tuple(chr(ord("a") + i) for i in range(MAX_BASE_SIZE))
# the names L23's labels give the supplied operators whose field name is not their notation
OPERATOR_NAMES = {
    "d": "derivative", "dc": "d°", "bang0": "!(0)", "K_inv": "K^{-1}", "J_inv": "J^{-1}", "delta": "Delta",
}


def make_rel_binding(
    rig: Rig,
    base_size: int = 2,
    truncation: int = 4,
) -> ModelBinding:
    """Exact law binding for the relational model.

    `operators_rel` builds one set of column operators on the model's base set
    and one on UNIT_BASE, where the general operators are the unit-level d_R,
    d°_R, s_R, K_R and J_R (d_R and s_R keep the one-point atom factor, as
    `R x 1` in the law citations); every operator is defined once per base
    set.  The laws with equations in their `lawsuite.LAWS` row, L2, L5, L10
    and L24 among them, run on these two sets; the other laws but L21 are lists of
    equations here between the same operators, Delta and the counit among
    them, and those of `seely_rel`, with `relabel` for every map of points.  Each
    side of an equation is evaluated, untruncated, on one source column per
    orbit of the atom permutations among those of at most D - MARGIN atoms,
    and every row those columns reach is compared; the Leibniz rule (L3)
    takes the columns of D - MARGIN + 1 atoms too, whose rows (b, x) have
    |b| <= D - MARGIN, and L22 every column of at most D atoms, since chi
    shifts no sizes and is natural only along the permutations that keep
    each half.  Naturality (L23) is the premise of the orbit reduction: along
    each of the two generators of the atom permutations, the transposition
    (a b) and the cycle (a b ...), it checks each supplied operator, the
    column operators of the general set in field order
    (d, d°, s, !(0), K, J, K^{-1}, J^{-1}, id, zero, m_{R,A}, m_R x 1, Delta
    and the counit), on every column of its space: a point holds at most 2D
    atoms, m_R x 1's (tag, bag) pairs, which L10 and L17 read up to
    2(D - MARGIN + 1).  Delta it checks on the columns of at most
    D - MARGIN + 1 atoms, the largest that L1 and L3 read.  Each check runs
    `ColumnOp.commutes`, and a failing one renders pi;f against f;pi.  That
    is 28 comparisons from base 3 and 14 at base 2, where the generators are
    one permutation; at base 1 it is the identity, and d's one comparison
    stands for all.  The unit set needs no premise: its bags hold no atom of
    the base.  A law yields one comparison
    `cmp(lhs, rhs, label[, limit, orbits])` per equation, built when the runner reads
    it, so the runner stops at the first difference and `cases` counts the
    comparisons made.  The Taylor property (L21) evaluates
    `lawsuite.taylor` on a copy of the operator set whose d, !(0) and zero
    are matrices over the bags of at most D atoms, which are exact there,
    and compares every entry of each of its two equations, one case each.
    No law draws or reads `cases`.  D is at least MARGIN + 1: at D = MARGIN
    every law but L3, L22 and L23 reads only the empty bag's column.
    """
    if not 1 <= base_size <= MAX_BASE_SIZE:
        raise ValueError(f"base_size must be between 1 and {MAX_BASE_SIZE}")
    if truncation <= MARGIN:
        raise ValueError(f"truncation bound must exceed the margin {MARGIN}")
    base = BaseSet(ATOM_NAMES[:base_size])
    limit = truncation - MARGIN

    bags = BagSpace(base, truncation)
    atoms = AtomSpace(base)
    pair_ba = PairSpace(bags, atoms)
    pair_baa = PairSpace(pair_ba, atoms)

    o, u = operators_rel(base, rig, truncation), operators_rel(UNIT_BASE, rig, truncation)
    d = o.d
    # sigma of L6 and L7: ((b, x), y) -> ((b, y), x)
    swap_atoms = relabel(rig, pair_baa, lambda p: ((p[0][0], p[1]), p[0][1]))

    def identity(space):
        return relabel(rig, space, lambda p: p)

    def found(diff, label):
        return None if diff is None else f"{label}: {diff}"

    def cmp(lhs, rhs, label, lim=limit, orbits=True):
        """The counterexample of lhs = rhs on the columns of at most `lim` atoms, one per orbit of the
        atom permutations unless `orbits` is false, or None."""
        return found(lhs.first_difference(rhs, lim, orbits), label)

    def l1(rng, cases):
        delta = o.delta
        triples = PairSpace(bags, PairSpace(bags, bags))
        reassoc = relabel(rig, triples, lambda p: ((p[0], p[1][0]), p[1][1]))
        lhs = delta @ delta.on_left(bags) @ reassoc
        yield cmp(lhs, delta @ delta.on_right(bags), "comultiplication not coassociative")
        # counit laws, with the unit factor projected away
        lhs = delta @ o.counit.on_left(bags) @ relabel(rig, bags, lambda b: (UNIT_POINT, b))
        yield cmp(lhs, o.id, "left counit fails")
        lhs = delta @ o.counit.on_right(bags) @ relabel(rig, bags, lambda b: (b, UNIT_POINT))
        yield cmp(lhs, o.id, "right counit fails")
        swapped = delta @ relabel(rig, delta.col_space, lambda p: (p[1], p[0]))
        yield cmp(swapped, delta, "comultiplication not cocommutative")

    def l3(rng, cases):
        split = o.delta.on_left(atoms)  # ((b1, b2), x) -> (b1 + b2, x)
        # summand that differentiates the left split part: ((b, x), b2) -> ((b, b2), x)
        left = relabel(rig, PairSpace(pair_ba, bags), lambda p: ((p[0][0], p[1]), p[0][1]))
        # summand that differentiates the right split part: (b1, (b, x)) -> ((b1, b), x)
        right = relabel(rig, PairSpace(bags, pair_ba), lambda p: ((p[0], p[1][0]), p[1][1]))
        rhs = split @ left @ d.on_left(bags) + split @ right @ d.on_right(bags)
        yield cmp(d @ o.delta, rhs, "Leibniz fails", limit + 1)

    def l6(rng, cases):
        lhs = d.on_left(atoms) @ d
        yield cmp(lhs, swap_atoms @ lhs, "interchange fails")

    def l7(rng, cases):
        rhs = o.dc.on_left(atoms) @ swap_atoms @ d.on_left(atoms) + o.x1(o.id)
        yield cmp(d @ o.dc, rhs, "derive/coderive exchange fails")

    def l21(rng, cases):
        # on matrices, not column operators: the benchmark counts the matrix entries and `mat_compose` calls of L21
        m = o._replace(d=d.matrix(pair_ba), bang0=o.bang0.matrix(bags), zero=WeightedMatrix(rig, pair_ba, bags))
        for lhs, rhs, label in taylor(m, m):
            yield found(lhs.first_difference(rhs), label)

    def l22(rng, cases):
        half = max(1, base_size // 2)
        chi, chi_inv = seely_rel(BaseSet(base.atoms[:half]), BaseSet(base.atoms[half:]), rig, truncation)
        # chi is natural only along the permutations that keep each half, so every column is compared
        yield cmp(chi @ chi_inv, identity(chi_inv.col_space), "split;merge is not the identity", truncation, False)
        yield cmp(chi_inv @ chi, identity(chi.col_space), "merge;split is not the identity", truncation, False)

    def l23(rng, cases):
        # the premise of the other laws' orbit reduction: each supplied operator f commutes with both
        # generators pi, pi;f = f;pi; at base 1 the one generator is the identity, along which every
        # operator is natural, and d's comparison stands for all
        supplied = [(n, f) for n, f in o._asdict().items() if isinstance(f, ColumnOp)]
        for phi in _generators(base.atoms):
            act = _permuting(phi)
            for name, f in supplied if base_size > 1 else supplied[:1]:
                # every column of f's space, whose points hold at most 2D atoms (spread's (tag, bag) pairs),
                # but Delta's only up to the largest columns L1 and L3 read it at
                lim = limit + 1 if name == "delta" else 2 * truncation
                if f.commutes(act, lim):
                    yield None
                else:  # judged by `rig.eq` and rendered as pi;f against f;pi; `@` does not read pi's space
                    label = f"{OPERATOR_NAMES.get(name, name)} is not natural along atom permutations"
                    yield cmp(relabel(rig, None, act) @ f, f @ relabel(rig, f.col_space, act), label, lim, False)

    checks = {"L1": l1, "L3": l3, "L6": l6, "L7": l7, "L21": l21, "L22": l22, "L23": l23}
    skips = {"L4": "the double-exponential chain rule is out of scope for this model"}
    if not rig.idempotent:
        skips["L24"] = "integral/coderive collapse needs an additively idempotent rig"
    return ModelBinding(
        "rel",
        rig.name,
        checks,
        skips,
        {"base_size": base_size, "truncation": truncation, "margin": MARGIN},
        lambda law, at, rng, cases: (cmp(lhs, rhs, label) for lhs, rhs, label in law(o if at == "general" else u, u)),
    )
