"""Finite multisets and exact weighted matrices over enumerated index spaces.

Objects are small enumerated base sets; the exponential of a base set is the
space of bags (finite multisets) of its atoms, truncated at a maximum size so
every composition sum is finite and exact.  Morphisms are sparse matrices over
a rig.  The operator family mirrors the polynomial model: `d_rel` puts one
element into a bag (weighted by the resulting multiplicity), `dcirc_rel` pulls
one out coefficient-free, `s_rel` pulls one out weighted by the inverse bag
size, and `K_rel`/`J_rel` are the diagonal bag-size scalings built from them.
Each operator is defined once for every base set: the unit-level operators
are the general ones at the one-point base `UNIT_BASE`.  Permutations of
tensor factors are applied as key relabels (`WeightedMatrix.relabel`), which
cost O(nnz) and build no permutation matrix.

Every operator shifts bag sizes by a fixed amount (+1, -1 or 0), so equations
between composites of at most two size-shifting operators are exact on the
"safe band" of bags whose size stays at least `MARGIN` below the truncation
bound.  All law checks quantify over that band only.  Row r of f;g depends
only on row r of f, so a law may evaluate a composite from the safe-band rows
of its first factor (`WeightedMatrix.restrict_rows`) outward, and
`compose_tensor` evaluates f;(g x h) without materializing g x h.

The public constructor `WeightedMatrix(...)` drops zero entries.  Everything
else builds through the trusted `WeightedMatrix._canonical`, which tests
none, because a zero entry can only come from a sum that cancels (the rig
properties behind this are listed in `rig.Rig`): `relabel`, `restrict_rows`,
`transpose`, `identity` and `perm_matrix` move or select nonzero entries;
`tensor` multiplies nonzero entries; `mat_compose`, `compose_tensor` and `+`
sum products of them, and drop a cancelled sum only over a rig with
`has_negatives`; and the operator matrices below are weighted by `one`,
multiplicities `nat_value(k)` and inverses `nat_inverse(k)` with k >= 1.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import combinations_with_replacement, product

from .rig import Rig, drop_cancelled

UNIT_POINT = "*"


@dataclass(frozen=True)
class BaseSet:
    atoms: tuple

    def __post_init__(self):
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError("atoms must be distinct")

    def __iter__(self):
        return iter(self.atoms)


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


@dataclass(frozen=True)
class Truncation:
    """Maximum bag size D; the safe band is the bags of at most D - MARGIN atoms."""

    D: int

    def __post_init__(self):
        if self.D < MARGIN:
            raise ValueError(f"truncation bound smaller than the margin {MARGIN}")

    @property
    def safe_limit(self) -> int:
        return self.D - MARGIN


# -- index spaces -----------------------------------------------------------


@dataclass(frozen=True)
class UnitSpace:
    def points(self):
        return [UNIT_POINT]


@dataclass(frozen=True)
class AtomSpace:
    base: BaseSet

    def points(self):
        return list(self.base.atoms)


@dataclass(frozen=True)
class BagSpace:
    base: BaseSet
    max_size: int

    def points(self):
        return enumerate_bags(self.base, self.max_size)


@dataclass(frozen=True)
class PairSpace:
    left: object
    right: object

    def points(self):
        return [(l, r) for l, r in product(self.left.points(), self.right.points())]


def point_weight(space, point) -> int:
    """Largest bag size occurring inside a point of the given space."""
    if isinstance(space, BagSpace):
        return len(point)
    if isinstance(space, PairSpace):
        return max(point_weight(space.left, point[0]), point_weight(space.right, point[1]))
    return 0


def _in_band(space, points, limit: int) -> set:
    """The members of `points` whose largest bag has at most `limit` atoms."""
    return {p for p in points if point_weight(space, p) <= limit}


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
        rows = _in_band(self.row_space, {r for r, _ in self.entries}, limit)
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

    def equal_on_safe_band(self, other, limit: int) -> bool:
        return self.first_difference(other, limit) is None


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
    """Permutation matrix induced by a bijection on points."""
    entries = {(p, fn(p)): rig.one for p in row_space.points()}
    return WeightedMatrix._canonical(rig, row_space, col_space, entries)


# -- operator matrices ------------------------------------------------------


def spaces(base: BaseSet, trunc: Truncation):
    bags = BagSpace(base, trunc.D)
    atoms = AtomSpace(base)
    return bags, atoms


def d_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    """Insert one element into a bag, weighted by its multiplicity afterwards."""
    bags, atoms = spaces(base, trunc)
    entries = {}
    for b in bags.points():
        if len(b) >= trunc.D:
            continue
        for x in base.atoms:
            b2 = bag_add(b, x)
            entries[((b, x), b2)] = rig.nat_value(bag_count(b2, x))
    return WeightedMatrix._canonical(rig, PairSpace(bags, atoms), bags, entries)


def dcirc_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    """Remove one element from a bag, coefficient-free."""
    bags, atoms = spaces(base, trunc)
    entries = {}
    for b in bags.points():
        for x in set(b):
            entries[(b, (bag_remove(b, x), x))] = rig.one
    return WeightedMatrix._canonical(rig, bags, PairSpace(bags, atoms), entries)


def bang_zero_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    """Projection onto the empty bag."""
    bags, _ = spaces(base, trunc)
    return WeightedMatrix._canonical(rig, bags, bags, {((), ()): rig.one})


def s_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    """Remove one element, weighted by the inverse of the source bag size."""
    bags, atoms = spaces(base, trunc)
    entries = {}
    for b in bags.points():
        if not b:
            continue
        w = rig.nat_inverse(len(b))
        for x in set(b):
            entries[(b, (bag_remove(b, x), x))] = w
    return WeightedMatrix._canonical(rig, bags, PairSpace(bags, atoms), entries)


def K_rel(base: BaseSet, rig: Rig, trunc: Truncation, dcd: WeightedMatrix | None = None) -> WeightedMatrix:
    """Remove-then-insert plus the empty-bag projection; diagonal with weight |b|.

    `dcd` is d°;d on the same bags, for a caller that has already built it.
    """
    if dcd is None:
        dcd = _dcirc_d(base, rig, trunc)
    return dcd + bang_zero_rel(base, rig, trunc)


def J_rel(base: BaseSet, rig: Rig, trunc: Truncation, dcd: WeightedMatrix | None = None) -> WeightedMatrix:
    """Remove-then-insert plus the identity; diagonal with weight |b| + 1.

    `dcd` is d°;d on the same bags, for a caller that has already built it.
    """
    if dcd is None:
        dcd = _dcirc_d(base, rig, trunc)
    bags, _ = spaces(base, trunc)
    return dcd + WeightedMatrix.identity(rig, bags)


def _dcirc_d(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    return mat_compose(dcirc_rel(base, rig, trunc), d_rel(base, rig, trunc))


def K_inv_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    bags, _ = spaces(base, trunc)
    entries = {}
    for b in bags.points():
        entries[(b, b)] = rig.one if not b else rig.nat_inverse(len(b))
    return WeightedMatrix._canonical(rig, bags, bags, entries)


def J_inv_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> WeightedMatrix:
    bags, _ = spaces(base, trunc)
    entries = {(b, b): rig.nat_inverse(len(b) + 1) for b in bags.points()}
    return WeightedMatrix._canonical(rig, bags, bags, entries)


@dataclass
class Comonoid:
    delta: WeightedMatrix  # bag -> all ordered two-part splits, coefficient-free
    counit: WeightedMatrix  # bag -> unit, supported on the empty bag
    eps: WeightedMatrix  # bag -> atom, supported on singletons


def comonoid_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> Comonoid:
    bags, atoms = spaces(base, trunc)
    unit = UnitSpace()
    delta_entries = {}
    for b in bags.points():
        for b1, b2 in _sub_bags(b):
            delta_entries[(b, (b1, b2))] = rig.one
    delta = WeightedMatrix._canonical(rig, bags, PairSpace(bags, bags), delta_entries)
    counit = WeightedMatrix._canonical(rig, bags, unit, {((), UNIT_POINT): rig.one})
    eps = WeightedMatrix._canonical(rig, bags, atoms, {((x,), x): rig.one for x in base.atoms})
    return Comonoid(delta, counit, eps)


def _sub_bags(b: Bag):
    """Each sub-bag of b with its complement in b, both read off one choice of multiplicities."""
    counts = Counter(b)
    atoms = sorted(counts)
    for pick in product(*(range(counts[a] + 1) for a in atoms)):
        sub, rest = [], []
        for a, k in zip(atoms, pick):
            sub.extend([a] * k)
            rest.extend([a] * (counts[a] - k))
        yield tuple(sub), tuple(rest)


# -- unit-object matrices ---------------------------------------------------
# The monoidal unit is a singleton base set; its bag space is, up to notation,
# the natural numbers below the truncation bound.  The unit-level operators
# d_R, d°_R, s_R, K_R, J_R and their inverses are the general operators taken
# at UNIT_BASE, so d_R and s_R still carry the one-point atom factor (R x 1);
# only the monoidal maps below work on bare unit bags.  With them a unit
# operator f moves to any base: m_{R,A} tags a bag with its size, f x 1 acts
# on the tag, and m_R x 1 (`spread_rel`) forgets it (`lawsuite.via_unit`).


def unit_bags(trunc: Truncation) -> BagSpace:
    return BagSpace(UNIT_BASE, trunc.D)


def _nbag(n: int) -> Bag:
    return (UNIT_POINT,) * n


def spread_rel(rig: Rig, space, trunc: Truncation) -> WeightedMatrix:
    """(m_R x 1) on `space`: pair every point with every unit bag, all entries one."""
    return WeightedMatrix._canonical(
        rig,
        space,
        PairSpace(unit_bags(trunc), space),
        {(p, (_nbag(n), p)): rig.one for p in space.points() for n in range(trunc.D + 1)},
    )


@dataclass
class UnitMonoidal:
    m_R: WeightedMatrix  # unit point -> every unit bag, all entries one
    m_RA: WeightedMatrix  # (unit bag of size n, bag b) -> b, gated on n = |b|


def m_unit_rel(base: BaseSet, rig: Rig, trunc: Truncation) -> UnitMonoidal:
    ubags = unit_bags(trunc)
    bags = BagSpace(base, trunc.D)
    m_R = WeightedMatrix._canonical(
        rig, UnitSpace(), ubags, {(UNIT_POINT, _nbag(n)): rig.one for n in range(trunc.D + 1)}
    )
    entries = {((_nbag(len(b)), b), b): rig.one for b in bags.points()}
    m_RA = WeightedMatrix._canonical(rig, PairSpace(ubags, bags), bags, entries)
    return UnitMonoidal(m_R, m_RA)


# -- bag splitting over a disjoint union ------------------------------------


def seely_rel(base_x: BaseSet, base_y: BaseSet, rig: Rig, trunc: Truncation):
    """Split a bag over a disjoint union into its two parts.

    Returns (chi, chi_inv); chi is a permutation matrix and chi_inv its
    transpose.
    """
    if set(base_x.atoms) & set(base_y.atoms):
        raise ValueError("base sets must be disjoint")
    combined = BaseSet(tuple(sorted(base_x.atoms + base_y.atoms)))
    bags_xy = BagSpace(combined, trunc.D)
    bags_x = BagSpace(base_x, trunc.D)
    bags_y = BagSpace(base_y, trunc.D)
    xset = set(base_x.atoms)

    def split(b):
        left = tuple(a for a in b if a in xset)
        right = tuple(a for a in b if a not in xset)
        return (left, right)

    entries = {(b, split(b)): rig.one for b in bags_xy.points()}
    chi = WeightedMatrix._canonical(rig, bags_xy, PairSpace(bags_x, bags_y), entries)
    return chi, chi.transpose()
