"""Bag-matrix model: frozen entry oracles and structural invariants."""

import random
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import combinations

import pytest

import dctool.wrel as wr
from dctool.lawsuite import run_law, run_suite
from dctool.rig import BOOLEAN, NONNEG_RATIONAL, RIGS
from dctool.wrel import (
    ATOM_NAMES,
    AtomSpace,
    BagSpace,
    BaseSet,
    PairSpace,
    Truncation,
    UNIT_BASE,
    UNIT_POINT,
    UnitSpace,
    WeightedMatrix,
    bag,
    compose_tensor,
    make_rel_binding,
    mat_compose,
    tensor,
)

R = NONNEG_RATIONAL
B = BOOLEAN
XY = BaseSet(("x", "y"))
T4 = Truncation(4)


def nb(n):
    return (UNIT_POINT,) * n


# -- bags and spaces ---------------------------------------------------------


def test_bag_helpers():
    b = bag("y", "x", "y")
    assert b == ("x", "y", "y")
    assert wr.bag_add(b, "x") == ("x", "x", "y", "y")
    assert wr.bag_remove(b, "y") == ("x", "y")
    assert wr.bag_count(b, "y") == 2


def test_enumerate_bags_counts():
    bags = wr.enumerate_bags(XY, 3)
    # sizes 0..3 over two atoms: 1 + 2 + 3 + 4
    assert len(bags) == 10
    assert bags[0] == ()


def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(1)
    assert Truncation(5).safe_limit == 3


def test_base_set_rejects_duplicates():
    with pytest.raises(ValueError):
        BaseSet(("x", "x"))


def test_spaces_are_immutable_values_of_their_own_type():
    same = BaseSet(("x", "y"))
    assert same == XY and hash(same) == hash(XY)
    assert BagSpace(same, 2) == BagSpace(XY, 2) and hash(BagSpace(same, 2)) == hash(BagSpace(XY, 2))
    assert PairSpace(BagSpace(same, 2), AtomSpace(same)) == PairSpace(BagSpace(XY, 2), AtomSpace(XY))
    assert UnitSpace() == UnitSpace() and hash(UnitSpace()) == hash(UnitSpace())
    assert BagSpace(XY, 2) != BagSpace(XY, 3) and Truncation(4) == T4 != Truncation(5)
    # equal fields never make values of different types equal
    assert BagSpace(XY, 2) != PairSpace(XY, 2) and PairSpace(XY, 2) != BagSpace(XY, 2)
    assert AtomSpace(XY) != (XY,) and (XY,) != AtomSpace(XY)
    assert len({BagSpace(XY, 2), BagSpace(same, 2), PairSpace(XY, 2), AtomSpace(XY), (XY,)}) == 4
    values = {"max_size": BagSpace(XY, 2), "base": AtomSpace(XY), "size": UnitSpace(), "atoms": XY, "D": T4}
    for name, value in values.items():
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert BagSpace(XY, 2).max_size == 2 and XY.atoms == ("x", "y")


# -- derivation operators ----------------------------------------------------


def test_d_unit_formula_instances():
    d = wr.d_rel(UNIT_BASE, R, T4)
    assert d.entry((nb(1), UNIT_POINT), nb(2)) == Fraction(2)
    assert d.entry((nb(0), UNIT_POINT), nb(1)) == Fraction(1)
    assert d.entry((nb(2), UNIT_POINT), nb(2)) == Fraction(0)


def test_d_rel_multiplicity_coefficient():
    d = wr.d_rel(XY, R, T4)
    assert d.entry(((), "x"), ("x",)) == Fraction(1)
    assert d.entry((("y",), "x"), ("x", "y")) == Fraction(1)
    assert d.entry((("x",), "x"), ("x", "x")) == Fraction(2)
    assert d.entry((("x", "x"), "x"), ("x", "x", "x")) == Fraction(3)


def test_dcirc_instances():
    dc = wr.dcirc_rel(UNIT_BASE, R, T4)
    assert dc.entry(nb(3), (nb(2), UNIT_POINT)) == Fraction(1)
    assert all(r != nb(0) for (r, _c) in wr.dcirc_rel(XY, R, T4).entries)
    dcx = wr.dcirc_rel(XY, R, T4)
    assert dcx.entry(("x", "y"), (("y",), "x")) == Fraction(1)
    assert dcx.entry(("x", "x"), (("x",), "x")) == Fraction(1)


def test_bang_zero_instances():
    b0 = wr.bang_zero_rel(XY, R, T4)
    assert b0.entry((), ()) == Fraction(1)
    assert b0.entry(("x",), ()) == Fraction(0)
    assert mat_compose(b0, b0) == b0


def test_s_unit_formula_instances():
    s = wr.s_rel(UNIT_BASE, R, T4)
    assert s.entry(nb(1), (nb(0), UNIT_POINT)) == Fraction(1)
    for m in range(4):
        assert s.entry(nb(0), (nb(m), UNIT_POINT)) == Fraction(0)
    assert s.entry(nb(3), (nb(2), UNIT_POINT)) == Fraction(1, 3)


def test_s_rel_instances():
    s = wr.s_rel(XY, R, T4)
    assert s.entry(("x", "x"), (("x",), "x")) == Fraction(1, 2)
    assert all(r != () for (r, _c) in s.entries)
    assert s.entry(("x", "y"), (("y",), "x")) == Fraction(1, 2)


def test_boolean_integral_is_coderive():
    assert wr.s_rel(XY, B, T4) == wr.dcirc_rel(XY, B, T4)


# -- K and J -----------------------------------------------------------------


def test_unit_K_diagonal():
    K = wr.K_rel(UNIT_BASE, R, Truncation(5))
    expected = [1, 1, 2, 3]  # entries for n = 0..3 (safe under the truncation)
    for n, v in enumerate(expected):
        assert K.entry(nb(n), nb(n)) == Fraction(v)


def test_K_inverse_inverts_on_safe_band():
    K = wr.K_rel(XY, R, T4)
    K_inv = wr.K_inv_rel(XY, R, T4)
    ident = WeightedMatrix.identity(R, BagSpace(XY, T4.D))
    assert mat_compose(K_inv, K).equal_on_safe_band(ident, T4.safe_limit)
    assert mat_compose(K, K_inv).equal_on_safe_band(ident, T4.safe_limit)


def test_boolean_K_is_identity():
    K = wr.K_rel(XY, B, T4)
    ident = WeightedMatrix.identity(B, BagSpace(XY, T4.D))
    assert K.equal_on_safe_band(ident, T4.safe_limit)


def test_rel_binding_builds_d_and_dcirc_once_per_base_set_and_shares_them_with_K_and_J(monkeypatch):
    built = Counter()
    for name in ("d_rel", "dcirc_rel"):
        original = getattr(wr, name)

        def counting(base, rig, trunc, name=name, original=original):
            built[name, base] += 1
            return original(base, rig, trunc)

        monkeypatch.setattr(wr, name, counting)
    base = BaseSet(("a", "b", "c"))
    make_rel_binding(R, base_size=3, truncation=6)
    assert built == {(name, b): 1 for name in ("d_rel", "dcirc_rel") for b in (base, UNIT_BASE)}
    # the shared d°;d gives the K and J of the stand-alone constructors
    trunc = Truncation(6)
    for b in (base, UNIT_BASE):
        dcd = mat_compose(wr.dcirc_rel(b, R, trunc), wr.d_rel(b, R, trunc))
        assert wr.K_rel(b, R, trunc, dcd) == wr.K_rel(b, R, trunc)
        assert wr.J_rel(b, R, trunc, dcd) == wr.J_rel(b, R, trunc)


# -- comonoid ----------------------------------------------------------------


def test_delta_split_count():
    com = wr.comonoid_rel(XY, R, T4)
    row = [(key, v) for key, v in com.delta.entries.items() if key[0] == ("x", "y")]
    assert len(row) == 4
    assert all(v == Fraction(1) for _k, v in row)
    splits = {key[1] for key, _v in row}
    assert splits == {((), ("x", "y")), (("x",), ("y",)), (("y",), ("x",)), (("x", "y"), ())}


def test_counit_and_eps_support():
    com = wr.comonoid_rel(XY, R, T4)
    assert com.counit.entry((), UNIT_POINT) == Fraction(1)
    assert com.counit.entry(("x",), UNIT_POINT) == Fraction(0)
    assert com.eps.entry(("x",), "x") == Fraction(1)
    assert com.eps.entry(("x", "y"), "x") == Fraction(0)


def test_delta_cocommutative():
    com = wr.comonoid_rel(XY, R, T4)
    for (b, (b1, b2)), v in com.delta.entries.items():
        assert com.delta.entry(b, (b2, b1)) == v


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
    com = wr.comonoid_rel(base, R, Truncation(D))
    assert com.delta == WeightedMatrix(R, com.delta.row_space, com.delta.col_space, reference)


# -- unit monoidal maps ------------------------------------------------------


def test_m_unit_laws():
    um = wr.m_unit_rel(XY, R, T4)
    bags = BagSpace(XY, T4.D)
    spread = wr.spread_rel(R, bags, T4)
    ident = WeightedMatrix.identity(R, bags)
    assert mat_compose(spread, um.m_RA).equal_on_safe_band(ident, T4.safe_limit)
    ucom = wr.comonoid_rel(UNIT_BASE, R, T4)
    m_eps = mat_compose(um.m_R, ucom.eps)
    assert m_eps.entry(UNIT_POINT, UNIT_POINT) == Fraction(1)
    m_e = mat_compose(um.m_R, ucom.counit)
    assert m_e.entry(UNIT_POINT, UNIT_POINT) == Fraction(1)


# -- Seely -------------------------------------------------------------------


def test_seely_instances():
    bx = BaseSet(("x",))
    by = BaseSet(("y",))
    chi, chi_inv = wr.seely_rel(bx, by, R, T4)
    assert chi.entry(("x", "y", "y"), (("x",), ("y", "y"))) == Fraction(1)
    assert chi.entry((), ((), ())) == Fraction(1)
    combined = BagSpace(BaseSet(("x", "y")), T4.D)
    assert mat_compose(chi, chi_inv) == WeightedMatrix.identity(R, combined)


def test_seely_requires_disjoint_atoms():
    with pytest.raises(ValueError):
        wr.seely_rel(BaseSet(("x",)), BaseSet(("x", "y")), R, T4)


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
    d = wr.d_rel(XY, R, T4)
    for ((b, _x), col) in d.entries:
        assert len(col) == len(b) + 1
    dc = wr.dcirc_rel(XY, R, T4)
    for (row, (b, _x)) in dc.entries:
        assert len(b) == len(row) - 1
    for (row, col) in wr.K_rel(XY, R, T4).entries:
        assert len(row) == len(col)
    s = wr.s_rel(XY, R, T4)
    for (row, (b, _x)) in s.entries:
        assert len(b) == len(row) - 1


def test_generator_matrices_respect_margin():
    # entries emitted by the operator builders never exceed the declared bound
    for mat in (wr.d_rel(XY, R, T4), wr.s_rel(XY, R, T4), wr.K_rel(XY, R, T4)):
        for (r, c) in mat.entries:
            assert wr.point_weight(mat.row_space, r) <= T4.D
            assert wr.point_weight(mat.col_space, c) <= T4.D


def test_matrix_space_mismatch_raises():
    a = WeightedMatrix.identity(R, BagSpace(XY, 2))
    b = WeightedMatrix.identity(R, BagSpace(XY, 3))
    with pytest.raises(ValueError):
        mat_compose(a, b)
    # a pair space with the fields of a bag space is still another space
    f = WeightedMatrix.zero(R, UnitSpace(), BagSpace(XY, 2))
    with pytest.raises(ValueError):
        mat_compose(f, WeightedMatrix.zero(R, PairSpace(XY, 2), UnitSpace()))
    with pytest.raises(ValueError):
        f + WeightedMatrix.zero(R, UnitSpace(), PairSpace(XY, 2))


# -- key relabels ------------------------------------------------------------


def _random_fill(rng, rows, cols, n, rig=R):
    row_pts, col_pts = rows.points(), cols.points()
    entries = {(rng.choice(row_pts), rng.choice(col_pts)): rig.sample(rng) for _ in range(n)}
    return WeightedMatrix(rig, rows, cols, entries)


def test_relabel_equals_composing_with_the_permutation_matrix():
    rng = random.Random(3)
    bags = BagSpace(XY, 3)
    bb = PairSpace(bags, bags)
    left, right = PairSpace(bb, bags), PairSpace(bags, bb)

    def reassoc(p):  # not an involution: it changes the space
        return (p[0][0], (p[0][1], p[1]))

    def swap(p):
        return (p[1], p[0])

    for space, fn, target in ((left, reassoc, right), (bb, swap, bb)):
        m = _random_fill(rng, space, space, 300)
        perm = wr.perm_matrix(R, space, target, fn)
        assert m.relabel(fn, target) == mat_compose(m, perm)
        assert m.relabel(fn, target, rows=True) == mat_compose(perm.transpose(), m)


def test_relabel_rejects_a_non_injective_map():
    bags = BagSpace(XY, 2)
    column = WeightedMatrix(R, bags, bags, {(b, ()): R.one for b in bags.points()})
    with pytest.raises(ValueError):
        column.relabel(lambda b: (), bags, rows=True)
    with pytest.raises(ValueError):
        column.transpose().relabel(lambda b: (), bags)


# -- composites with a tensor, from the safe-band rows -----------------------


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_compose_tensor_equals_composing_with_the_kronecker_product(rig):
    rng = random.Random(11)
    bags, atoms = BagSpace(XY, 4), wr.AtomSpace(XY)
    limit = T4.safe_limit
    for g_rows, g_cols, h_rows, h_cols in ((bags, bags, bags, bags), (bags, atoms, atoms, bags)):
        f = _random_fill(rng, bags, PairSpace(g_rows, h_rows), 120, rig)
        # f's columns reach rows of g and h outside the safe band
        assert any(wr.point_weight(f.col_space, c) > limit for _, c in f.entries)
        for _ in range(3):
            g = _random_fill(rng, g_rows, g_cols, 40, rig)
            h = _random_fill(rng, h_rows, h_cols, 40, rig)
            assert compose_tensor(f, g, h) == mat_compose(f, tensor(g, h))
    with pytest.raises(ValueError):  # f's columns are bags x atoms, not atoms x bags
        compose_tensor(f, h, g)


@pytest.mark.parametrize("D", [4, 5, 6])
@pytest.mark.parametrize("base_size", [1, 2, 3])
def test_band_first_composite_is_the_full_composite_on_the_safe_band_rows(base_size, D):
    base, trunc = BaseSet(("a", "b", "c")[:base_size]), Truncation(D)
    limit = trunc.safe_limit
    com, d = wr.comonoid_rel(base, R, trunc), wr.d_rel(base, R, trunc)
    ident = WeightedMatrix.identity(R, BagSpace(base, D))
    delta = com.delta.restrict_rows(limit)
    for g, h in ((com.delta, ident), (ident, com.delta), (com.counit, ident)):
        full = mat_compose(com.delta, tensor(g, h))
        band_first = compose_tensor(delta, g, h)
        assert band_first == full.restrict_rows(limit)
    assert mat_compose(d.restrict_rows(limit), com.delta) == mat_compose(d, com.delta).restrict_rows(limit)


def test_first_difference_reports_the_first_safe_band_key_in_repr_order():
    bags = BagSpace(XY, 4)
    ident = {(b, b): R.one for b in bags.points()}
    changed = {
        (("x", "x", "x"), ("x", "x", "x")): R.nat_value(2),  # row and column outside the band
        ((), ("x", "x", "y")): R.one,  # column outside the band
        (("y",), ("y",)): R.nat_value(3),
        (("x",), ("x",)): R.nat_value(2),
    }
    a = WeightedMatrix(R, bags, bags, ident)
    b = WeightedMatrix(R, bags, bags, {**ident, **changed})
    assert a.first_difference(b, T4.safe_limit) == "entry ([x], [x]): 1 != 2"
    del changed[(("x",), ("x",))]
    b = WeightedMatrix(R, bags, bags, {**ident, **changed, (("x", "y"), ("x", "y")): R.zero})
    # repr puts ('x', 'y') before ('x',) and ('y',)
    assert a.first_difference(b, T4.safe_limit) == "entry ([x,y], [x,y]): 1 != 0"
    assert b.first_difference(a, T4.safe_limit) == "entry ([x,y], [x,y]): 0 != 1"
    b = WeightedMatrix(R, bags, bags, {**ident, **changed})
    assert a.first_difference(b, 1) == "entry ([y], [y]): 1 != 3"
    assert a.first_difference(b, 0) is None


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
    pairs = PairSpace(bags, atoms)
    cancelled = 0
    for fill in (_random_fill, _unit_fill):
        for _ in range(8):
            f, g = fill(rng, bags, bags, 12, rig), fill(rng, bags, bags, 12, rig)
            h = fill(rng, atoms, atoms, 3, rig)
            fp = fill(rng, bags, pairs, 14, rig)
            cases = [
                (f + g, lambda r, c: [m.entries[(r, c)] for m in (f, g) if (r, c) in m.entries]),
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
                (
                    compose_tensor(fp, g, h),
                    lambda r, c: [
                        rig.mul(rig.mul(a, g.entries[(y1, c[0])]), h.entries[(y2, c[1])])
                        for (x, (y1, y2)), a in fp.entries.items()
                        if x == r and (y1, c[0]) in g.entries and (y2, c[1]) in h.entries
                    ],
                ),
            ]
            for result, products in cases:
                assert not any(rig.is_zero(v) for v in result.entries.values())
                expected, n = _reference(rig, result.row_space, result.col_space, products)
                assert result == expected
                cancelled += n
    # the rational sums do cancel, and only they can
    assert (cancelled > 0) == rig.has_negatives


def test_operator_weights_stay_ints():
    base, trunc = BaseSet(("a", "b", "c")), Truncation(5)
    com = wr.comonoid_rel(base, R, trunc)
    for m in (
        wr.d_rel(base, R, trunc), wr.dcirc_rel(base, R, trunc), wr.K_rel(base, R, trunc), wr.J_rel(base, R, trunc),
        com.delta, com.counit, com.eps,
    ):
        assert m.entries and all(type(v) is int for v in m.entries.values())
