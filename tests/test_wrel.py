"""Bag-matrix model: frozen entry oracles and structural invariants."""

import random
from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

import pytest

import dctool.wrel as wr
from dctool.lawsuite import LAWS, all_pass, run_law, run_suite
from dctool.rig import BOOLEAN, NONNEG_RATIONAL, RIGS, NonNegRationalRig
from dctool.wrel import (
    ATOM_NAMES,
    AtomSpace,
    BagSpace,
    BaseSet,
    PairSpace,
    UNIT_BASE,
    UNIT_POINT,
    UnitSpace,
    WeightedMatrix,
    bag,
    make_rel_binding,
    mat_compose,
    tensor,
)

R = NONNEG_RATIONAL
B = BOOLEAN
XY = BaseSet(("x", "y"))


def nb(n):
    return (UNIT_POINT,) * n


def entry(op, row, col):
    """The weight of column `col` of a column operator at `row`, zero where the column has no entry."""
    return op.column(col).get(row, op.rig.zero)


def columns(op):
    """Every column of `op` at a point of its column space."""
    return {c: op.column(c) for c in op.col_space.points()}


# -- bags and spaces ---------------------------------------------------------


def test_bag_helpers():
    b = bag("y", "x", "y")
    assert b == ("x", "y", "y")
    assert wr.bag(*b, "x") == ("x", "x", "y", "y")
    assert wr.bag_remove(b, "y") == ("x", "y")
    assert wr.bag_count(b, "y") == 2


def test_enumerate_bags_counts():
    bags = wr.enumerate_bags(XY, 3)
    # sizes 0..3 over two atoms: 1 + 2 + 3 + 4
    assert len(bags) == 10
    assert bags[0] == ()


def test_truncation_validation():
    """At D = MARGIN every law but L3, L22 and L23 reads only the empty bag's column, so D starts one above it."""
    for truncation in (1, 2):
        with pytest.raises(ValueError, match="truncation bound must exceed the margin 2"):
            make_rel_binding(R, truncation=truncation)
    assert make_rel_binding(R, truncation=3).params == {"base_size": 2, "truncation": 3, "margin": 2}


def test_base_set_rejects_duplicates():
    with pytest.raises(ValueError):
        BaseSet(("x", "x"))


def test_spaces_are_immutable_values_of_their_own_type():
    same = BaseSet(("x", "y"))
    assert same == XY and hash(same) == hash(XY)
    assert BagSpace(same, 2) == BagSpace(XY, 2) and hash(BagSpace(same, 2)) == hash(BagSpace(XY, 2))
    assert PairSpace(BagSpace(same, 2), AtomSpace(same)) == PairSpace(BagSpace(XY, 2), AtomSpace(XY))
    assert UnitSpace() == UnitSpace() and hash(UnitSpace()) == hash(UnitSpace())
    assert BagSpace(XY, 2) != BagSpace(XY, 3)
    # equal fields never make values of different types equal
    assert BagSpace(XY, 2) != PairSpace(XY, 2) and PairSpace(XY, 2) != BagSpace(XY, 2)
    assert AtomSpace(XY) != (XY,) and (XY,) != AtomSpace(XY)
    assert len({BagSpace(XY, 2), BagSpace(same, 2), PairSpace(XY, 2), AtomSpace(XY), (XY,)}) == 4
    values = {"max_size": BagSpace(XY, 2), "base": AtomSpace(XY), "size": UnitSpace(), "atoms": XY}
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert BagSpace(XY, 2).max_size == 2 and XY.atoms == ("x", "y")


# -- derivation operators ----------------------------------------------------


def test_d_unit_formula_instances():
    d = wr.operators_rel(UNIT_BASE, R, 4).d
    assert entry(d, (nb(1), UNIT_POINT), nb(2)) == Fraction(2)
    assert entry(d, (nb(0), UNIT_POINT), nb(1)) == Fraction(1)
    assert entry(d, (nb(2), UNIT_POINT), nb(2)) == Fraction(0)


def test_d_rel_multiplicity_coefficient():
    d = wr.operators_rel(XY, R, 4).d
    assert entry(d, ((), "x"), ("x",)) == Fraction(1)
    assert entry(d, (("y",), "x"), ("x", "y")) == Fraction(1)
    assert entry(d, (("x",), "x"), ("x", "x")) == Fraction(2)
    assert entry(d, (("x", "x"), "x"), ("x", "x", "x")) == Fraction(3)


def test_dcirc_instances():
    dc = wr.operators_rel(UNIT_BASE, R, 4).dc
    assert entry(dc, nb(3), (nb(2), UNIT_POINT)) == Fraction(1)
    dcx = wr.operators_rel(XY, R, 4).dc
    assert all(() not in column for column in columns(dcx).values())
    assert entry(dcx, ("x", "y"), (("y",), "x")) == Fraction(1)
    assert entry(dcx, ("x", "x"), (("x",), "x")) == Fraction(1)


def test_bang_zero_instances():
    b0 = wr.operators_rel(XY, R, 4).bang0
    assert entry(b0, (), ()) == Fraction(1)
    assert entry(b0, ("x",), ()) == Fraction(0)
    assert columns(b0 @ b0) == columns(b0)


def test_s_unit_formula_instances():
    s = wr.operators_rel(UNIT_BASE, R, 4).s
    assert entry(s, nb(1), (nb(0), UNIT_POINT)) == Fraction(1)
    for m in range(4):
        assert entry(s, nb(0), (nb(m), UNIT_POINT)) == Fraction(0)
    assert entry(s, nb(3), (nb(2), UNIT_POINT)) == Fraction(1, 3)


def test_s_rel_instances():
    s = wr.operators_rel(XY, R, 4).s
    assert entry(s, ("x", "x"), (("x",), "x")) == Fraction(1, 2)
    assert all(() not in column for column in columns(s).values())
    assert entry(s, ("x", "y"), (("y",), "x")) == Fraction(1, 2)


def test_boolean_integral_is_coderive():
    o = wr.operators_rel(XY, B, 4)
    assert columns(o.s) == columns(o.dc)


# -- K and J -----------------------------------------------------------------


def test_unit_K_diagonal():
    K = wr.operators_rel(UNIT_BASE, R, 5).K
    expected = [1, 1, 2, 3, 4, 5]  # entries for n = 0..5: no column is truncated
    for n, v in enumerate(expected):
        assert entry(K, nb(n), nb(n)) == Fraction(v)


def test_K_inverse_inverts_on_safe_band():
    o = wr.operators_rel(XY, R, 4)
    ident = {b: {b: R.one} for b in BagSpace(XY, 4).points()}
    assert columns(o.K_inv @ o.K) == ident
    assert columns(o.K @ o.K_inv) == ident


def test_boolean_K_is_identity():
    K = wr.operators_rel(XY, B, 4).K
    assert columns(K) == {b: {b: B.one} for b in BagSpace(XY, 4).points()}


def test_rel_binding_builds_d_and_dcirc_once_per_base_set_and_shares_them_with_K_and_J(monkeypatch):
    built = Counter()
    operators_rel = wr.operators_rel

    def counting(base, rig, size):
        built[base] += 1
        return operators_rel(base, rig, size)

    monkeypatch.setattr(wr, "operators_rel", counting)
    base = BaseSet(("a", "b", "c"))
    make_rel_binding(R, base_size=3, truncation=6)
    assert built == {base: 1, UNIT_BASE: 1}
    # K and J read the set's own memoized d and d°: each column of d is computed once for both
    o = operators_rel(base, R, 6)
    bags = BagSpace(base, 6).points()
    for b in bags:
        o.K.column(b), o.J.column(b)
    assert (o.d.column.cache_info().misses, o.d.column.cache_info().hits) == (len(bags), len(bags))


# -- comonoid ----------------------------------------------------------------


def test_delta_split_count():
    delta = wr.comonoid_rel(XY, R, 4).delta
    row = {c: column for c, column in columns(delta).items() if ("x", "y") in column}
    assert all(column == {("x", "y"): R.one} for column in row.values())
    assert set(row) == {((), ("x", "y")), (("x",), ("y",)), (("y",), ("x",)), (("x", "y"), ())}


def test_counit_support():
    com = wr.comonoid_rel(XY, R, 4)
    assert columns(com.counit) == {UNIT_POINT: {(): R.one}}
    assert entry(com.counit, ("x",), UNIT_POINT) == Fraction(0)


def test_delta_cocommutative():
    delta = wr.comonoid_rel(XY, R, 4).delta
    for (b1, b2), column in columns(delta).items():
        assert delta.column((b2, b1)) == column


@pytest.mark.parametrize("D", [4, 5, 6])
@pytest.mark.parametrize("base_size", [1, 2, 3, 4])
def test_delta_matches_a_reference_built_from_multiset_differences(base_size, D):
    base = BaseSet(("a", "b", "c", "d")[:base_size])
    reference = {}
    for b in BagSpace(base, D).points():
        # every sub-multiset, as the distinct choices of positions of b
        for sub in {bag(*c) for r in range(len(b) + 1) for c in combinations(b, r)}:
            rest = Counter(b) - Counter(sub)
            reference[(b, (sub, bag(*rest.elements())))] = R.one
    # the splits of the bags of at most D atoms, read from the columns of Delta that reach them
    delta = wr.comonoid_rel(base, R, D).delta
    assert {(r, c): w for c, column in columns(delta).items() for r, w in column.items() if len(r) <= D} == reference


# -- unit monoidal maps ------------------------------------------------------


def test_m_unit_laws():
    o, u = wr.operators_rel(XY, R, 4), wr.operators_rel(UNIT_BASE, R, 4)
    ubags, bags = BagSpace(UNIT_BASE, 4).points(), BagSpace(XY, 4).points()
    # m_R x 1 forgets the tag with weight one: m_R takes every unit bag to the unit point
    assert columns(o.spread) == {(n, b): {b: R.one} for n in ubags for b in bags}
    assert columns(o.gate) == {b: {(nb(len(b)), b): R.one} for b in bags}
    assert columns(o.spread @ o.gate) == {b: {b: R.one} for b in bags}
    # m_R eps = 1 and m_R e = 1: a bag of one atom is tagged with eps's [*], the empty bag with e's []
    assert o.gate.column(("x",)) == {(nb(1), ("x",)): R.one} and o.gate.column(()) == {(nb(0), ()): R.one}
    # m_R d° = m_R: the unit coderive adds one point to the tag, which m_R forgets
    assert columns(u.spread @ u.tag(u.dc @ u.atom)) == columns(u.spread)


# -- Seely -------------------------------------------------------------------


def test_seely_instances():
    bx = BaseSet(("x",))
    by = BaseSet(("y",))
    chi, chi_inv = wr.seely_rel(bx, by, R, 4)
    assert entry(chi, ("x", "y", "y"), (("x",), ("y", "y"))) == Fraction(1)
    assert entry(chi, (), ((), ())) == Fraction(1)
    assert entry(chi_inv, (("x",), ("y", "y")), ("x", "y", "y")) == Fraction(1)
    combined = BagSpace(BaseSet(("x", "y")), 4)
    assert chi_inv.col_space == combined
    assert columns(chi @ chi_inv) == {b: {b: R.one} for b in combined.points()}
    assert columns(chi_inv @ chi) == {p: {p: R.one} for p in chi.col_space.points()}


def test_seely_requires_disjoint_atoms():
    with pytest.raises(ValueError):
        wr.seely_rel(BaseSet(("x",)), BaseSet(("x", "y")), R, 4)


# -- reconstruction ----------------------------------------------------------


def test_unit_reconstruction_matches_direct_operators():
    binding = make_rel_binding(R, base_size=2, truncation=4)
    assert run_law("L17", binding, cases=10, seed=0).status == "pass"


def test_unit_reconstruction_boolean_integral_is_coderive():
    # over boolean the reconstructed integral is the direct s (L17), which is d° (L24)
    binding = make_rel_binding(B, base_size=2, truncation=4)
    assert [run_law(law_id, binding, cases=10, seed=0).status for law_id in ("L17", "L24")] == ["pass", "pass"]


# -- base size ----------------------------------------------------------------


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_base_five_passes_every_checked_law(rig):
    reports = run_suite(make_rel_binding(rig, base_size=5, truncation=4), cases=10, seed=0)
    assert [r.law_id for r in reports if r.status == "fail"] == []
    assert sum(r.status == "pass" for r in reports) >= 22


def test_atom_names_are_sorted_and_bases_above_six_are_refused():
    # the first four names are those of the golden reports
    assert ATOM_NAMES == ("a", "b", "c", "d", "e", "f")
    with pytest.raises(ValueError, match="between 1 and 6"):
        make_rel_binding(R, base_size=7)


# -- composition oracle and structure ----------------------------------------


def test_boolean_composition_matches_relational_oracle():
    rng = random.Random(0)
    atoms = wr.AtomSpace(BaseSet(("a", "b", "c")))
    points = atoms.points()
    for _ in range(20):
        rel_f = {(r, c) for r in points for c in points if rng.random() < 0.4}
        rel_g = {(r, c) for r in points for c in points if rng.random() < 0.4}
        f = WeightedMatrix(B, atoms, atoms, {k: True for k in rel_f})
        g = WeightedMatrix(B, atoms, atoms, {k: True for k in rel_g})
        composed = mat_compose(f, g)
        oracle = {(x, z) for (x, y1) in rel_f for (y2, z) in rel_g if y1 == y2}
        assert set(composed.entries) == oracle


def test_operators_shift_bag_sizes_by_fixed_amounts():
    o = wr.operators_rel(XY, R, 4)
    for col, column in columns(o.d).items():
        assert all(len(col) == len(b) + 1 for b, _x in column)
    for op in (o.dc, o.s):
        for (b, _x), column in columns(op).items():
            assert all(len(b) == len(row) - 1 for row in column)
    for col, column in columns(o.K).items():
        assert all(len(row) == len(col) for row in column)


def test_generator_matrices_respect_margin():
    # every entry of every operator's matrix lies in its declared row and column
    # spaces: a column formula reaching a row outside them is truncated there
    o, u, com = wr.operators_rel(XY, R, 4), wr.operators_rel(UNIT_BASE, R, 4), wr.comonoid_rel(XY, R, 4)
    chi, chi_inv = wr.seely_rel(BaseSet(("x",)), BaseSet(("y",)), R, 4)
    bags, ubags = BagSpace(XY, 4), BagSpace(UNIT_BASE, 4)
    pairs = PairSpace(bags, AtomSpace(XY))
    mats = {name: getattr(o, name).matrix(bags) for name in ("dc", "s", "bang0", "K", "J", "K_inv", "J_inv")}
    mats |= {
        "d": o.d.matrix(pairs), "Delta": com.delta.matrix(bags), "counit": com.counit.matrix(bags),
        "m_R x 1": o.spread.matrix(bags), "m_{R,A}": o.gate.matrix(PairSpace(ubags, bags)),
        "atom": u.atom.matrix(PairSpace(ubags, AtomSpace(UNIT_BASE))),
        "chi": chi.matrix(chi_inv.col_space), "chi^-1": chi_inv.matrix(chi.col_space),
    }
    for name, mat in mats.items():
        assert mat.entries, name
        rows, cols = set(mat.row_space.points()), set(mat.col_space.points())
        for (r, c) in mat.entries:
            assert r in rows and c in cols, (name, r, c)
    # column (b, x) of d° and s reaches the bag b + x, outside the bags when |b| = D,
    # so the matrix drops that row and the column operator keeps it
    for name in ("dc", "s"):
        sizes = {len(b) for _, (b, _x) in mats[name].entries}
        assert sizes == set(range(4))
        assert [len(r) for r in getattr(o, name).column((("x",) * 4, "y"))] == [5]
    # column (b1, b2) of Delta reaches the bag b1 + b2 of up to 2D atoms, and its matrix keeps the rows of at most D
    assert {len(r) for r, _c in mats["Delta"].entries} == set(range(5))
    assert com.delta.column((("x",) * 4, ("y",) * 4)) == {("x",) * 4 + ("y",) * 4: R.one}


def test_matrix_space_mismatch_raises():
    a = WeightedMatrix(R, BagSpace(XY, 2), BagSpace(XY, 2))
    b = WeightedMatrix(R, BagSpace(XY, 3), BagSpace(XY, 3))
    with pytest.raises(ValueError):
        mat_compose(a, b)
    # a pair space with the fields of a bag space is still another space
    f = WeightedMatrix(R, UnitSpace(), BagSpace(XY, 2))
    with pytest.raises(ValueError):
        mat_compose(f, WeightedMatrix(R, PairSpace(XY, 2), UnitSpace()))


def _random_fill(rng, rows, cols, n, rig=R):
    row_pts, col_pts = rows.points(), cols.points()
    entries = {(rng.choice(row_pts), rng.choice(col_pts)): rig.sample(rng) for _ in range(n)}
    return WeightedMatrix(rig, rows, cols, entries)


# -- permutations and comparisons --------------------------------------------


def test_relabel_equals_composing_with_the_permutation_matrix():
    bags = BagSpace(XY, 3)
    bb = PairSpace(bags, bags)
    left, right = PairSpace(bb, bags), PairSpace(bags, bb)

    def reassoc(p):  # not an involution: it changes the space
        return (p[0][0], (p[0][1], p[1]))

    def unassoc(p):
        return ((p[0], p[1][0]), p[1][1])

    def swap(p):
        return (p[1], p[0])

    # column c of the relabel reaches fn(c): the permutation matrix of the inverse map
    for space, fn, target, inverse in ((left, reassoc, right, unassoc), (bb, swap, bb, swap)):
        assert wr.relabel(R, space, fn).matrix(target) == wr.perm_matrix(R, target, space, inverse)
    # composing with a permutation permutes the columns of the other operator
    delta, swapped = wr.comonoid_rel(XY, R, 3).delta, wr.relabel(R, bb, swap)
    for b1, b2 in bb.points():
        assert (delta @ swapped).column((b1, b2)) == delta.column((b2, b1))


def test_band_enumerates_the_points_of_at_most_limit_atoms():
    bags, atoms = BagSpace(XY, 4), AtomSpace(XY)
    for space in (bags, PairSpace(bags, atoms), PairSpace(bags, PairSpace(bags, bags)), PairSpace(UnitSpace(), bags)):
        for limit in range(6):
            expected = {p for p in space.points() if wr.point_weight(space, p) <= limit}
            assert sorted(wr._band(space, limit)) == sorted(expected), (space, limit)
    # a point weighs every bag atom it holds, a pair the sum of its two parts
    assert wr.point_weight(PairSpace(bags, PairSpace(bags, atoms)), (("x",), (("x", "y"), "y"))) == 3


def _moved(space, perm, p):
    """The point p of `space` moved by the atom permutation `perm`, read from the structure of the space."""
    if isinstance(space, PairSpace):
        return _moved(space.left, perm, p[0]), _moved(space.right, perm, p[1])
    if isinstance(space, BagSpace):
        return bag(*(perm.get(a, a) for a in p))
    return perm.get(p, p) if isinstance(space, AtomSpace) else p


@pytest.mark.parametrize("base_size", [1, 2, 3, 4])
def test_orbit_representatives_are_the_first_point_of_each_orbit_through_every_permutation(monkeypatch, base_size):
    """On every space and limit a rel law reads one column per orbit of, at D 3-6, `_orbit_reps` is what a
    filter through all n! permutations keeps: the first point in band order of each orbit, so the
    representatives lie in distinct orbits, cover the band and come in band order."""
    read = set()
    first_difference = wr.ColumnOp.first_difference

    def recording(self, other, limit, orbits=True):
        if orbits:
            read.add((self.col_space, limit))
        return first_difference(self, other, limit, orbits)

    monkeypatch.setattr(wr.ColumnOp, "first_difference", recording)
    for D in range(3, 7):
        assert all_pass(run_suite(make_rel_binding(R, base_size=base_size, truncation=D), cases=50, seed=0))
    atoms = ATOM_NAMES[:base_size]
    perms = [dict(zip(atoms, image)) for image in permutations(atoms)]
    assert len({space for space, _ in read}) >= 10
    reduced = 0
    for space, limit in read:
        band, first, seen = wr._band(space, limit), [], set()
        for p in band:
            orbit = frozenset(_moved(space, perm, p) for perm in perms)
            if orbit not in seen:
                first.append(p)
                seen.add(orbit)
        assert wr._orbit_reps(space, limit) == tuple(first), (space, limit)
        reduced += len(first) < len(band)
    assert (reduced > 0) == (base_size > 1)


def test_naturality_covers_every_column_a_passing_suite_reads(monkeypatch):
    """Each law but L23 reads each supplied operator, on its own or inside a composite, only at columns
    of the band L23 checks it on: every column of its space, at most 2D atoms, but Delta's of at most
    D - MARGIN + 1 atoms, which L3 reaches.  m_R x 1 reads (tag, bag) pairs, whose tag weighs as much as
    its bag, up to 2(D - MARGIN + 1) atoms (L17).  A recording operator replaces each one of the general
    set and of the comonoid; the unit set needs no premise."""
    read = defaultdict(set)
    operators_rel, comonoid_rel = wr.operators_rel, wr.comonoid_rel

    def recording(name, f):
        seen = read[name]

        def column(c):
            seen.add(c)
            return f.column(c)

        def point(c):
            seen.add(c)
            return f.point(c)

        return wr.ColumnOp(f.rig, f.col_space, column, point=point if f.point else None)

    def wrapped(ops):
        return ops._replace(**{n: recording(n, f) for n, f in ops._asdict().items() if isinstance(f, wr.ColumnOp)})

    def operators(base, rig, size):
        o = operators_rel(base, rig, size)
        return o if base == UNIT_BASE else wrapped(o)

    monkeypatch.setattr(wr, "operators_rel", operators)
    monkeypatch.setattr(wr, "comonoid_rel", lambda base, rig, size: wrapped(comonoid_rel(base, rig, size)))
    for base_size, D in ((2, 4), (3, 5), (3, 6)):
        base, limit = BaseSet(ATOM_NAMES[:base_size]), D - wr.MARGIN
        supplied = {**wr.operators_rel(base, R, D)._asdict(), **wr.comonoid_rel(base, R, D)._asdict()}
        read.clear()
        binding = make_rel_binding(R, base_size=base_size, truncation=D)
        for law in LAWS:
            if law.id != "L23":
                assert run_law(law.id, binding, cases=50, seed=0).status != "fail", law.id
        assert len(read) == 14
        for name, columns in read.items():
            space = supplied[name].col_space
            assert columns <= set(wr._band(space, limit + 1 if name == "delta" else 2 * D)), (name, base_size, D)
        weight = {name: max(wr.point_weight(supplied[name].col_space, c) for c in read[name]) for name in read}
        # L3 reads Delta at its columns of D - MARGIN + 1 atoms, so L23 must check it there
        assert weight["delta"] == limit + 1
        assert weight["spread"] == 2 * (limit + 1) > D


def test_a_rel_suite_permutes_by_relabel_only(monkeypatch):
    calls = 0
    perm_matrix = wr.perm_matrix

    def counting(*args):
        nonlocal calls
        calls += 1
        return perm_matrix(*args)

    monkeypatch.setattr(wr, "perm_matrix", counting)
    for rig in RIGS.values():
        assert all_pass(run_suite(make_rel_binding(rig, base_size=3, truncation=5), cases=10, seed=0))
    assert calls == 0


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_a_derivative_weighted_by_the_atom_it_inserts_fails_naturality(monkeypatch, rig):
    """d weighted by the index of the atom it inserts (a by 0, b by 1, c by 2) is not natural along
    atom permutations, over every rig: the boolean one still loses the entries of a."""
    operators_rel = wr.operators_rel

    def d_mutant(base, rig, size):
        o = operators_rel(base, rig, size)
        weight = {x: rig.nat_value(i) for i, x in enumerate(base.atoms)}
        d = o.d.column
        return o._replace(
            d=wr.ColumnOp(
                rig,
                o.d.col_space,
                lambda c: {(b, x): rig.mul(v, weight[x]) for (b, x), v in d(c).items() if not rig.is_zero(weight[x])},
            )
        )

    assert run_law("L23", make_rel_binding(rig, base_size=3), cases=10, seed=0).status == "pass"
    monkeypatch.setattr(wr, "operators_rel", d_mutant)
    report = run_law("L23", make_rel_binding(rig, base_size=3), cases=10, seed=0)
    assert report.status == "fail"
    assert report.counterexample.startswith("derivative is not natural along atom permutations: entry ")


@pytest.mark.parametrize("D", [4, 5, 6])
@pytest.mark.parametrize("base_size", [1, 2, 3])
def test_band_first_composite_is_the_full_composite_on_the_safe_band_rows(base_size, D):
    """L21's d;f, built from d's matrix on the bags of at most D atoms, equals the untruncated column
    composite on every entry: row (b, x) of d is reached only from column b + x."""
    rng = random.Random(base_size * 10 + D)
    base = BaseSet(("a", "b", "c")[:base_size])
    bags, atoms = BagSpace(base, D), AtomSpace(base)
    d = wr.operators_rel(base, R, D).d
    d_matrix, largest = d.matrix(PairSpace(bags, atoms)), 0
    for _ in range(3):
        f = _random_fill(rng, bags, atoms, 40)
        by_column = wr.ColumnOp(R, atoms, lambda x: {r: w for (r, c), w in f.entries.items() if c == x})
        composite = d @ by_column
        exact = {(r, x): w for x in atoms.points() for r, w in composite.column(x).items()}
        assert mat_compose(d_matrix, f) == WeightedMatrix(R, d_matrix.row_space, atoms, exact)
        largest = max([largest] + [len(b) for (b, _), _ in exact])
    # rows of more than D - 2 atoms are compared too
    assert largest == D - 1


def test_column_first_difference_reports_the_first_key_in_repr_order_on_every_row():
    """On every column of the band (`orbits` false), and on one per orbit of the atom permutations by default:
    `other` is not natural, so the orbit of [x] hides what it does at [y]."""
    bags = BagSpace(XY, 2)
    ident = wr.relabel(R, bags, lambda b: b)
    changed = {("y",): {("y",): R.nat_value(3)}, ("x",): {("x",): R.nat_value(2)}}
    other = wr.ColumnOp(R, bags, lambda b: changed.get(b, {b: R.one}))
    for orbits in (False, True):
        assert ident.first_difference(other, 2, orbits) == "entry ([x], [x]): 1 != 2"
        assert other.first_difference(ident, 2, orbits) == "entry ([x], [x]): 2 != 1"
    # no row is truncated: column [y] also reaches a bag of five atoms, which is compared
    changed[("y",)][("x",) * 5] = R.one
    assert ident.first_difference(other, 1, False) == "entry ([x,x,x,x,x], [y]): 0 != 1"
    assert ident.first_difference(other, 0, False) is None
    assert ident.first_difference(ident, 2, False) is None
    del changed[("x",)]
    assert ident.first_difference(other, 2, False) == "entry ([x,x,x,x,x], [y]): 0 != 1"
    assert ident.first_difference(other, 2) is None


def test_first_difference_reports_the_first_safe_band_key_in_repr_order():
    """The first differing key in `repr` order, whatever the size of its bags; equal matrices give None."""
    bags = BagSpace(XY, 4)
    ident = {(b, b): R.one for b in bags.points()}
    changed = {
        (("x", "x", "x"), ("x", "x", "x")): R.nat_value(2),
        ((), ("x", "x", "y")): R.one,
        (("y",), ("y",)): R.nat_value(3),
        (("x",), ("x",)): R.nat_value(2),
    }
    a = WeightedMatrix(R, bags, bags, ident)
    b = WeightedMatrix(R, bags, bags, {**ident, **changed})
    # repr puts ('x', 'x', 'x') before ('x',), and both before ()
    assert a.first_difference(b) == "entry ([x,x,x], [x,x,x]): 1 != 2"
    del changed[(("x", "x", "x"), ("x", "x", "x"))]
    b = WeightedMatrix(R, bags, bags, {**ident, **changed})
    assert a.first_difference(b) == "entry ([x], [x]): 1 != 2"
    del changed[(("x",), ("x",))]
    b = WeightedMatrix(R, bags, bags, {**ident, **changed, (("x", "y"), ("x", "y")): R.zero})
    # repr puts ('x', 'y') before ('x',) and ('y',)
    assert a.first_difference(b) == "entry ([x,y], [x,y]): 1 != 0"
    assert b.first_difference(a) == "entry ([x,y], [x,y]): 0 != 1"
    b = WeightedMatrix(R, bags, bags, {**ident, **changed})
    assert a.first_difference(b) == "entry ([y], [y]): 1 != 3"
    del changed[(("y",), ("y",))]
    b = WeightedMatrix(R, bags, bags, {**ident, **changed})
    assert a.first_difference(b) == "entry ([], [x,x,y]): 0 != 1"
    assert a != b and a == WeightedMatrix(R, bags, bags, dict(ident))
    assert a.first_difference(a) is None


# -- maps of points -------------------------------------------------------------


def _reference_column(f, g, c):
    """Column c of f;g summed as the matrix product reads it: every fc(y) * b over column c of g, no shortcut."""
    rig, out = f.rig, {}
    for y, b in g.column(c).items():
        for r, a in f.column(y).items():
            out[r] = rig.add(out[r], rig.mul(a, b)) if r in out else rig.mul(a, b)
    return {r: w for r, w in out.items() if not rig.is_zero(w)}


def _plain(op):
    """The same operator built from its columns alone, without its `point`: `@` and comparisons take the column path."""
    return wr.ColumnOp(op.rig, op.col_space, op.column)


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_composites_of_maps_of_points_equal_the_column_sums_in_every_case_of_at(rig):
    """f @ g for each of the four cases (f, g a map of points or not) equals the reference on every column."""
    o, com = wr.operators_rel(XY, rig, 4), wr.comonoid_rel(XY, rig, 4)
    bags, atoms = BagSpace(XY, 4), AtomSpace(XY)
    delta = com.delta
    swap = wr.relabel(rig, delta.col_space, lambda p: (p[1], p[0]))
    reassoc = wr.relabel(rig, PairSpace(bags, PairSpace(bags, bags)), lambda p: ((p[0], p[1][0]), p[1][1]))
    swap_atoms = wr.relabel(rig, PairSpace(PairSpace(bags, atoms), atoms), lambda p: ((p[0][0], p[1]), p[0][1]))
    right = wr.relabel(rig, PairSpace(bags, PairSpace(bags, atoms)), lambda p: ((p[0], p[1][0]), p[1][1]))
    cases = {
        "delta;sigma": (delta, swap, True, True),
        "(delta x 1);reassoc": (delta.on_left(bags), reassoc, True, True),
        "d° x 1;sigma": (o.dc.on_left(atoms), swap_atoms, True, True),
        "d;delta": (o.d, delta, False, True),
        "d;d°": (o.d, o.dc, False, True),
        "(d x 1);(d° x 1)": (o.d.on_left(atoms), o.dc.on_left(atoms), False, True),
        "d°;d": (o.dc, o.d, True, False),
        "(delta x 1);right;(1 x d)": (delta.on_left(atoms) @ right, o.d.on_right(bags), True, False),
        "(d x 1);d": (o.d.on_left(atoms), o.d, False, False),
        "K;d°": (o.K, o.dc, False, True),
    }
    # f x 1 and 1 x f of a map of points are maps of points with the columns the column path gives
    for f, space in ((delta, bags), (o.dc, atoms), (swap, atoms)):
        assert f.on_left(space).point and f.on_right(space).point
        for c in PairSpace(f.col_space, space).points():
            assert f.on_left(space).column(c) == _plain(f).on_left(space).column(c)
        for c in PairSpace(space, f.col_space).points():
            assert f.on_right(space).column(c) == _plain(f).on_right(space).column(c)
    for name, (f, g, f_points, g_points) in cases.items():
        assert (f.point is not None, g.point is not None) == (f_points, g_points), name
        composite = f @ g
        assert (composite.point is not None) == (f_points and g_points), name
        for c in g.col_space.points():
            assert composite.column(c) == _reference_column(f, g, c), (name, c)
            assert composite.column(c) == (_plain(f) @ _plain(g)).column(c), (name, c)


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_maps_of_points_that_differ_at_one_point_report_what_their_columns_report(rig):
    bags = BagSpace(XY, 2)
    ident = wr.relabel(rig, bags, lambda b: b)
    moved = wr.relabel(rig, bags, lambda b: ("y",) if b == ("x",) else b)
    assert ident.point and moved.point
    text = ident.first_difference(moved, 2)
    assert text == _plain(ident).first_difference(_plain(moved), 2) == "entry ([x], [x]): 1 != 0"
    assert moved.first_difference(ident, 2) == _plain(moved).first_difference(_plain(ident), 2)
    # the moved point lies outside the band of no atoms
    assert ident.first_difference(moved, 0) is None and _plain(ident).first_difference(_plain(moved), 0) is None
    # composites of maps of points are maps of points and report alike
    delta = wr.comonoid_rel(XY, rig, 2).delta
    pairs = delta.col_space
    swap = wr.relabel(rig, pairs, lambda p: (p[1], p[0]))
    bent = wr.relabel(rig, pairs, lambda p: (p[1], p[0]) if p != ((), ("y",)) else ((), ("x",)))
    lhs, rhs = delta @ swap, delta @ bent
    assert lhs.point and rhs.point
    plain_lhs, plain_rhs = _plain(delta) @ _plain(swap), _plain(delta) @ _plain(bent)
    # bent is not natural and moves a column that represents no orbit, so every column is compared
    assert lhs.first_difference(rhs, 2, False) == plain_lhs.first_difference(plain_rhs, 2, False)
    assert lhs.first_difference(rhs, 2, False) == "entry ([x], ([], [y])): 0 != 1"


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_a_composite_of_maps_of_points_makes_no_product(rig):
    """Neither a composite of two maps of points nor one re-keyed through a map of points calls `rig.mul`;
    the column path multiplies by one, or tests each weight against one, for every entry it sums through."""
    calls = Counter()

    def counted(name):
        def method(self, a, b):
            calls[name] += 1
            return getattr(type(rig), name)(self, a, b)

        return method

    counting = type(f"Counting{type(rig).__name__}", (type(rig),), {"mul": counted("mul"), "eq": counted("eq")})()
    bags = BagSpace(XY, 4)
    delta, o = wr.comonoid_rel(XY, counting, 4).delta, wr.operators_rel(XY, counting, 4)
    reassoc = wr.relabel(counting, PairSpace(bags, PairSpace(bags, bags)), lambda p: ((p[0], p[1][0]), p[1][1]))
    lhs, rhs = delta @ delta.on_left(bags) @ reassoc, delta @ delta.on_right(bags)
    assert all(lhs.column(c) == rhs.column(c) for c in rhs.col_space.points())
    assert lhs.first_difference(rhs, 4) is None
    assert calls == {}
    (_plain(delta) @ _plain(delta.on_left(bags)) @ _plain(reassoc)).column(((), ((), ())))
    assert calls["eq"] > 0 and calls["mul"] == 0
    calls.clear()
    for b in bags.points():
        (o.dc @ o.d).column(b)
    assert calls["mul"] == 0
    for b in bags.points():
        (_plain(o.dc) @ o.d).column(b)
    assert calls["mul"] > 0


# -- the zero rule -------------------------------------------------------------


def _reference(rig, rows, cols, products):
    """The matrix of the sums of `products(r, c)`, built by the public constructor,
    and the number of nonempty sums that cancelled to zero."""
    entries, cancelled = {}, 0
    for r in rows.points():
        for c in cols.points():
            terms = products(r, c)
            if terms:
                entries[(r, c)] = total = reduce(rig.add, terms)
                cancelled += rig.is_zero(total)
    return WeightedMatrix(rig, rows, cols, entries), cancelled


def _unit_fill(rng, rows, cols, n, rig):
    """Entries one, or minus one where the rig has it, so that sums often cancel."""
    minus = rig.neg(rig.one) if rig.has_negatives else rig.one
    row_pts, col_pts = rows.points(), cols.points()
    entries = {(rng.choice(row_pts), rng.choice(col_pts)): rng.choice((rig.one, minus)) for _ in range(n)}
    return WeightedMatrix(rig, rows, cols, entries)


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_composites_sums_and_tensors_have_no_zero_entry(rig):
    rng = random.Random(29)
    bags, atoms = BagSpace(XY, 2), wr.AtomSpace(XY)
    cancelled = 0
    for fill in (_random_fill, _unit_fill):
        for _ in range(8):
            f, g = fill(rng, bags, bags, 12, rig), fill(rng, bags, bags, 12, rig)
            h = fill(rng, atoms, atoms, 3, rig)
            cases = [
                (
                    mat_compose(f, g),
                    lambda r, c: [
                        rig.mul(a, g.entries[(y, c)]) for (x, y), a in f.entries.items() if x == r and (y, c) in g.entries
                    ],
                ),
                (
                    tensor(f, h),
                    lambda r, c: [rig.mul(f.entries[(r[0], c[0])], h.entries[(r[1], c[1])])]
                    if (r[0], c[0]) in f.entries and (r[1], c[1]) in h.entries
                    else [],
                ),
            ]
            for result, products in cases:
                assert not any(rig.is_zero(v) for v in result.entries.values())
                expected, n = _reference(rig, result.row_space, result.col_space, products)
                assert result == expected
                cancelled += n
    # the rational sums do cancel, and only they can
    assert (cancelled > 0) == rig.has_negatives


def test_a_cancelling_sum_in_every_rel_accumulation_leaves_no_zero_entry():
    """Over `rational`, a column sum, a column composite and a matrix product each cancel at one entry: none
    keeps a zero weight, and each equals what the validating constructor builds from its plain sums."""
    Q = RIGS["rational"]
    atoms = AtomSpace(XY)
    f = wr.ColumnOp(Q, atoms, lambda c: {"x": 1, "y": -1} if c == "x" else {"x": -1, "y": 2})
    g = wr.ColumnOp(Q, atoms, lambda c: {"x": 3, "y": 1} if c == "x" else {"x": 1, "y": 1})
    # f + g: column x is {x: 4, y: 0}; f;g (g, then f): column y is f(x) + f(y) = {x: 0, y: 1}
    for op, plain in (
        (f + g, {("x", "x"): 4, ("y", "x"): 0, ("x", "y"): 0, ("y", "y"): 3}),
        (f @ g, {("x", "x"): 2, ("y", "x"): -1, ("x", "y"): 0, ("y", "y"): 1}),
    ):
        cols = columns(op)
        assert all(0 not in col.values() for col in cols.values()), cols
        assert {(r, c): w for c, col in cols.items() for r, w in col.items()} == WeightedMatrix(Q, atoms, atoms, plain).entries
    out = mat_compose(f.matrix(atoms), g.matrix(atoms))
    assert 0 not in out.entries.values(), out.entries
    expected = WeightedMatrix(Q, atoms, atoms, {("x", "x"): 2, ("y", "x"): -1, ("x", "y"): 0, ("y", "y"): 1})
    assert out == expected and out.entries == expected.entries


def test_operator_weights_stay_ints():
    base = BaseSet(("a", "b", "c"))
    com = wr.comonoid_rel(base, R, 5)
    o = wr.operators_rel(base, R, 5)
    for op in (com.delta, com.counit, o.d, o.dc, o.K, o.J, o.spread, o.gate):
        weights = [v for column in columns(op).values() for v in column.values()]
        assert weights and all(type(v) is int for v in weights)


def test_rel_suite_work_counts():
    """`rig.mul`, `rig.add` and `rig.is_zero` calls of one binding build and suite at base 3, D 6,
    nonneg-rational, 50 cases, seed 0, counted by a recording rig.

    A count, not a timing.  `@` forms no product when either factor is a
    map of points (`relabel`, `merge`, d°, the counit, chi^{-1} and the
    unit monoidal maps): 3,691 when it multiplied by the weight one of each
    such column it summed through, and 4,912 when the composites also
    nested to the right, a;(b;c).  Over this rig, which has no negatives, `is_zero` is called
    only by the validating `WeightedMatrix` constructor, through `ColumnOp.matrix`, once per entry
    of L21's matrices of d and !(0), 168 and 1; L21's one product is !(0);!(0).  The suite made
    698 products and 84 zero tests when L21 built h = 1, one test per bag of at most D atoms, and
    1,592 products, 516 sums and 507 zero tests when L21 drew 10 random f and h.  It made 697
    products and 512 sums when every law but L21 compared every column of its band, not one per orbit
    of the atom permutations; L23's naturality premise compares columns and forms neither.
    """
    counts = Counter()

    class CountingRig(NonNegRationalRig):
        def mul(self, a, b):
            counts["mul"] += 1
            return a * b

        def add(self, a, b):
            counts["add"] += 1
            return a + b

        def is_zero(self, a):
            counts["is_zero"] += 1
            return not a

    assert all_pass(run_suite(make_rel_binding(CountingRig(), base_size=3, truncation=6), cases=50, seed=0))
    assert counts == {"mul": 247, "add": 351, "is_zero": 169}


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_rel_reports_read_neither_cases_nor_seed(rig):
    """Every rel law enumerates its inputs: a report, `ms` aside, is the same whatever `cases` and `seed` are."""
    for base_size, truncation in ((1, 3), (2, 4), (3, 6)):
        binding = make_rel_binding(rig, base_size=base_size, truncation=truncation)
        reports = [
            [report._replace(ms=0.0) for report in run_suite(binding, cases=cases, seed=seed)]
            for cases, seed in ((50, 0), (1, 0), (50, 42), (7, 123))
        ]
        assert all(other == reports[0] for other in reports[1:]), (base_size, truncation)
