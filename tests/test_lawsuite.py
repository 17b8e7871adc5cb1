"""Suite runner: table closure, determinism, whole-table coverage, and the negative control."""

import ast
import re
from collections import Counter
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import dctool.lawsuite as ls
import dctool.polyform as pf
import dctool.smoothnum as sm
import dctool.wrel as wrel
from dctool import cli, exprcalc
from dctool.polyform import make_poly_binding
from dctool.rig import BOOLEAN, NONNEG_RATIONAL, RATIONAL, RIGS, NonNegRationalRig
from dctool.smoothnum import NonFinite, make_smooth_binding
from dctool.wrel import make_rel_binding


def test_law_table_is_closed_and_annotated():
    assert len(ls.LAWS) == 24
    assert [law.id for law in ls.LAWS] == [f"L{i}" for i in range(1, 25)]
    for law in ls.LAWS:
        assert law.name.strip()
        assert law.citation.strip()
    assert set(ls.LAW_BY_ID) == {law.id for law in ls.LAWS}


def test_every_real_binding_reports_all_laws_in_table_order():
    poly = make_poly_binding(NONNEG_RATIONAL)
    rel = make_rel_binding(NONNEG_RATIONAL)
    rel_bool = make_rel_binding(BOOLEAN)
    smooth = make_smooth_binding()
    for binding in (poly, rel, rel_bool, smooth):
        reports = ls.run_suite(binding, cases=5, seed=0)
        assert [r.law_id for r in reports] == [law.id for law in ls.LAWS], (binding.name, binding.semiring)
    assert set(poly.skips) == {"L24"}
    assert set(rel.skips) == {"L4", "L24"}
    assert set(rel_bool.skips) == {"L4"}
    assert "L24" not in rel_bool.checks  # its LAWS row checks it
    assert set(smooth.checks) == {"L3", "L4", "L6", "L21"}


def test_reports_are_deterministic():
    binding = make_poly_binding(NONNEG_RATIONAL, variables=2, max_degree=4)
    a = ls.run_suite(binding, cases=10, seed=7)
    b = ls.run_suite(binding, cases=10, seed=7)
    assert [(r.law_id, r.status, r.cases, r.counterexample) for r in a] == [
        (r.law_id, r.status, r.cases, r.counterexample) for r in b
    ]


def test_different_seeds_allowed_same_statuses():
    binding = make_rel_binding(NONNEG_RATIONAL)
    a = ls.run_suite(binding, cases=5, seed=1)
    b = ls.run_suite(binding, cases=5, seed=2)
    assert [r.status for r in a] == [r.status for r in b]


def test_full_suites_pass():
    for binding in (
        make_poly_binding(NONNEG_RATIONAL),
        make_rel_binding(NONNEG_RATIONAL),
        make_rel_binding(BOOLEAN),
    ):
        reports = ls.run_suite(binding, cases=25, seed=0)
        assert ls.all_pass(reports), [
            (r.law_id, r.counterexample) for r in reports if r.status == "fail"
        ]
        for r in reports:
            if r.status == "skipped":
                assert r.skip_reason


def test_boolean_rel_includes_collapse_law():
    reports = ls.run_suite(make_rel_binding(BOOLEAN), cases=5, seed=0)
    l24 = next(r for r in reports if r.law_id == "L24")
    assert l24.status == "pass"


def test_boolean_poly_checks_collapse_law():
    binding = make_poly_binding(BOOLEAN, variables=2, max_degree=4)
    assert not binding.skips
    reports = ls.run_suite(binding, cases=10, seed=0)
    assert ls.all_pass(reports)
    l24 = next(r for r in reports if r.law_id == "L24")
    # the 6 bundle monomials of degree <= 1, one of degree 2 and one of degree 3, and 5 probes
    assert (l24.status, l24.cases) == ("pass", 13)


def test_both_exact_models_evaluate_the_operator_table():
    table = [law.id for law in ls.LAWS if law.equations]
    assert table == ["L2", "L5", *(f"L{n}" for n in range(8, 21)), "L24"]
    # the rational rigs skip L24, so the boolean bindings run it
    for rig in (RATIONAL, BOOLEAN):
        for binding in (make_poly_binding(rig, variables=2, max_degree=4), make_rel_binding(rig)):
            for law_id in table:
                expected = "skipped" if law_id == "L24" and not rig.idempotent else "pass"
                assert ls.run_law(law_id, binding, cases=10, seed=0).status == expected, (binding.name, rig.name, law_id)


def test_no_binding_overrides_a_table_law():
    """Every binding of every model over every rig answers the laws whose rows have equations by those
    rows: it has `equations` and no check of such a law.  Smooth answers L2, L5 and L18-L20 by their
    rows, and no binding has a check of the constant rule (L2)."""
    table = {law.id for law in ls.LAWS if law.equations}
    assert "L2" in table
    bindings = [make_smooth_binding(max_dim=dim) for dim in (1, 2, 3)]
    for rig in RIGS.values():
        bindings += [make_poly_binding(rig), make_rel_binding(rig)]
    for binding in bindings:
        assert binding.equations is not None and not table & set(binding.checks), (binding.name, binding.semiring)
        assert "L2" not in binding.skips, (binding.name, binding.semiring)
    for binding in bindings[:3]:
        assert set(binding.checks) | {"L6"} == {"L3", "L4", "L6", "L21"}  # dim 1 skips L6
        assert table - set(binding.skips) == {"L2", "L5", "L18", "L19", "L20"}


def test_a_table_law_is_answered_by_its_row_even_where_the_binding_has_a_check():
    read = []

    def equations(law, at, rng, cases):
        read.append((law, at))
        yield None

    binding = ls.ModelBinding("both", "none", {"L18": lambda rng, cases: ["the check answered"]}, equations=equations)
    report = ls.run_law("L18", binding, cases=5, seed=0)
    assert (report.status, report.cases, report.counterexample) == ("pass", 1, None)
    assert read == [(ls.LAW_BY_ID["L18"].equations, "general")]
    # a law whose row has no equations is still answered by the check
    assert ls.run_law("L3", binding._replace(checks={"L3": lambda rng, cases: [None]}), 5, 0).status == "pass"


def _mutate_rel_operators(monkeypatch, **mutants):
    """Every rel operator set built from now on has each named operator replaced by `mutant(o, rig)`."""
    operators_rel = wrel.operators_rel

    def mutated(base, rig, size):
        o = operators_rel(base, rig, size)
        return o._replace(**{name: mutant(o, rig) for name, mutant in mutants.items()})

    monkeypatch.setattr(wrel, "operators_rel", mutated)


def _s_without_row_a(o, rig):
    s = o.s.column
    return wrel.ColumnOp(rig, o.s.col_space, lambda c: {r: w for r, w in s(c).items() if r != ("a",)})


def _s_over_n_plus_one(o, rig):
    """s weighted by 1/(n + 1), n the size of the bag it reaches."""
    return wrel.ColumnOp(rig, o.s.col_space, lambda c: {wrel.bag(*c[0], c[1]): rig.nat_inverse(len(c[0]) + 2)})


def _gate_one_too_large(o, rig):
    """m_{R,A} tagging each bag b with the unit bag of |b| + 1 points."""
    return wrel.ColumnOp(rig, o.gate.col_space, lambda b: {((wrel.UNIT_POINT,) * (len(b) + 1), b): rig.one})


def test_a_broken_integral_fails_the_collapse_law_in_both_exact_models(monkeypatch):
    """Over the boolean rig s = d° (L24): an s without the row of bag [a], or blind to the last bundle component, fails it."""
    s_op = pf.s_op

    def s_op_mutant(b):
        return s_op(pf.PolyBundle(b.components[:-1] + (pf.Polynomial.zero(b.rig, b.arity),)))

    def l24():
        bindings = (make_rel_binding(BOOLEAN), make_poly_binding(BOOLEAN))
        return [ls.run_law("L24", binding, cases=10, seed=0) for binding in bindings]

    assert [(r.status, r.cases) for r in l24()] == [("pass", 1), ("pass", 13)]
    _mutate_rel_operators(monkeypatch, s=_s_without_row_a)
    monkeypatch.setattr(pf, "s_op", s_op_mutant)
    rel, poly = l24()
    label = "integral does not collapse to the coderive: "
    assert (rel.status, rel.cases, rel.counterexample) == ("fail", 1, label + "entry ([a], ([], a)): 0 != 1")
    # the third input is the constant bundle on the last component
    assert (poly.status, poly.cases, poly.counterexample) == ("fail", 3, label + "input = [0, 0, 1]; lhs = 0; rhs = z")


@pytest.mark.parametrize("name", ["K", "J", "K_inv", "J_inv"])
def test_doubling_K_J_or_an_inverse_fails_L8_in_both_exact_models(monkeypatch, name):
    """L8 is K;K^{-1} = 1 = J;J^{-1}, so a doubled operator on either side fails it."""

    def doubled(op):
        def twice(*args):
            r = op(*args)
            return r + r

        return twice

    monkeypatch.setattr(pf, f"{name}_op", doubled(getattr(pf, f"{name}_op")))
    _mutate_rel_operators(monkeypatch, **{name: lambda o, rig: getattr(o, name) + getattr(o, name)})
    op = name[0]
    for binding in (make_poly_binding(NONNEG_RATIONAL), make_rel_binding(NONNEG_RATIONAL)):
        report = ls.run_law("L8", binding, cases=10, seed=0)
        assert report.status == "fail", (binding.name, name)
        assert report.counterexample.startswith(f"{op};{op}^{{-1}} is not the identity"), report.counterexample


def test_integral_weighted_by_one_over_n_plus_one_fails_the_second_fundamental_theorem(monkeypatch):
    """s weighted by 1/(n+1) instead of 1/n, patched in before the bindings are built."""

    def s_op_mutant(b):
        return pf.J_inv_op(pf.mul_in(b))

    def statuses():
        bindings = (make_poly_binding(NONNEG_RATIONAL), make_rel_binding(NONNEG_RATIONAL))
        return [{law_id: ls.run_law(law_id, b, cases=10, seed=0).status for law_id in ("L12", "L18")} for b in bindings]

    assert statuses() == [{"L12": "pass", "L18": "pass"}] * 2
    monkeypatch.setattr(pf, "s_op", s_op_mutant)
    _mutate_rel_operators(monkeypatch, s=_s_over_n_plus_one)
    assert statuses() == [{"L12": "fail", "L18": "fail"}] * 2
    # every law that reads s fails, in both models, and no other law does
    for binding in (make_poly_binding(NONNEG_RATIONAL), make_rel_binding(NONNEG_RATIONAL)):
        failing = [r.law_id for r in ls.run_suite(binding, cases=10, seed=0) if r.status == "fail"]
        assert failing == [f"L{n}" for n in range(12, 21)], (binding.name, failing)


def _mutate_rel(monkeypatch, name, mutant):
    """Every result of the rel builder `wrel.<name>` from now on is replaced by `mutant(result)`, but the unit
    operator set, whose Delta and counit are None, is left alone."""
    build = getattr(wrel, name)
    monkeypatch.setattr(
        wrel, name, lambda base, *args: build(base, *args) if base == wrel.UNIT_BASE else mutant(build(base, *args))
    )


def _first_atom(op):
    """The first atom of the base set of an operator whose columns are (bag, atom) pairs: a, or * on the unit."""
    return op.col_space.right.base.atoms[0]


def _delta_weighting_one_two_splits_by_two(o):
    delta = o.delta.column
    rig = o.delta.rig

    def column(c):
        return {r: rig.nat_value(2) if tuple(map(len, c)) == (1, 2) else w for r, w in delta(c).items()}

    return o._replace(delta=wrel.ColumnOp(rig, o.delta.col_space, column))


def test_comultiplication_weighting_one_two_splits_fails_exactly_the_comonoid_and_leibniz_laws(monkeypatch):
    """Delta weights the splits with |b1| = 1 and |b2| = 2 by 2: L1 and L3 see it."""
    _mutate_rel(monkeypatch, "operators_rel", _delta_weighting_one_two_splits_by_two)
    for rig in (NONNEG_RATIONAL, RATIONAL):
        reports = ls.run_suite(make_rel_binding(rig, base_size=3, truncation=6), cases=10, seed=0)
        failing = {r.law_id: r.counterexample for r in reports if r.status == "fail"}
        assert failing == {
            "L1": "comultiplication not coassociative: entry ([a,a,a], ([a], ([a], [a]))): 1 != 2",
            "L3": "Leibniz fails: entry (([a,a], a), ([a], [a,a])): 6 != 3",
        }, rig.name


def _counit_reaching_a(o):
    rig = o.counit.rig
    return o._replace(counit=wrel.ColumnOp(rig, o.counit.col_space, lambda c: {("a",): rig.one}))


def _delta_without_lopsided_splits(o):
    """Delta without the splits (b1, b2) with |b1| > |b2| + 1."""
    delta = o.delta.column
    return o._replace(
        delta=wrel.ColumnOp(o.delta.rig, o.delta.col_space, lambda c: {} if len(c[0]) > len(c[1]) + 1 else delta(c))
    )


def _chi_inv_splitting_off_the_first_atom(seely):
    chi, chi_inv = seely
    return chi, wrel.ColumnOp(chi_inv.rig, chi_inv.col_space, lambda b: {(b[:1], b[1:]): chi_inv.rig.one})


def _m_R_weighted_size_plus_one(o, rig):
    """m_R x 1 weighting the column (n, b) by |n| + 1, m_R weighting the unit bag n by its size plus one."""
    return wrel.ColumnOp(rig, o.spread.col_space, lambda c: {c[1]: rig.nat_value(len(c[0]) + 1)})


def _d_doubled_removing_the_smallest_atom(o, rig):
    d = o.d.column
    return wrel.ColumnOp(
        rig, o.d.col_space, lambda b: {(r, x): rig.add(w, w) if x == b[0] else w for (r, x), w in d(b).items()}
    )


def _d_doubled_removing_the_last_atom(o, rig):
    """d doubled where it removes the base's last atom, which (a b) fixes and the cycle (a b c) moves."""
    d, last = o.d.column, o.dc.col_space.right.base.atoms[-1]
    return wrel.ColumnOp(
        rig, o.d.col_space, lambda b: {(r, x): rig.add(w, w) if x == last else w for (r, x), w in d(b).items()}
    )


def _d_doubled_where_the_successor_stays(o, rig):
    """d doubled where the removed atom's cyclic successor (a to b, ..., the last atom to a) is in the bag:
    the cycle (a b c) keeps each atom's successor, and (a b) does not."""
    d, atoms = o.d.column, o.dc.col_space.right.base.atoms
    successor = dict(zip(atoms, atoms[1:] + atoms[:1]))
    return wrel.ColumnOp(
        rig, o.d.col_space, lambda b: {(r, x): rig.add(w, w) if successor[x] in b else w for (r, x), w in d(b).items()}
    )


def _d_doubled_at_b_b(o, rig):
    d = o.d.column
    return wrel.ColumnOp(
        rig, o.d.col_space, lambda b: {r: rig.add(w, w) for r, w in d(b).items()} if b == ("b", "b") else d(b)
    )


def _d_of_the_empty_bag_reaching_the_first_atom(o, rig):
    d, first = o.d.column, _first_atom(o.dc)
    return wrel.ColumnOp(rig, o.d.col_space, lambda b: d(b) if b else {((), first): rig.one})


def _dc_doubled_on_the_first_atom(o, rig):
    dc, first = o.dc.column, _first_atom(o.dc)
    return wrel.ColumnOp(
        rig, o.dc.col_space, lambda c: {r: rig.add(w, w) if c[1] == first else w for r, w in dc(c).items()}
    )


# (mutant, laws it fails at base 3, D 6): each patches a rel builder where the binding reads it
REL_MUTANTS = {
    "s-over-n-plus-one": (partial(_mutate_rel_operators, s=_s_over_n_plus_one), [f"L{n}" for n in range(12, 21)]),
    "K-inverse-is-J-inverse": (
        partial(_mutate_rel_operators, K_inv=lambda o, rig: o.J_inv), ["L8", "L15", "L16", "L17"]
    ),
    "gate-one-too-large": (partial(_mutate_rel_operators, gate=_gate_one_too_large), ["L11", "L14", "L17"]),
    # L2 reads e through !(0), not the counit; the counit's one column reaching a is not natural (L23)
    "counit-reaching-a": (partial(_mutate_rel, name="operators_rel", mutant=_counit_reaching_a), ["L1", "L23"]),
    "delta-without-lopsided-splits": (
        partial(_mutate_rel, name="operators_rel", mutant=_delta_without_lopsided_splits), ["L1", "L3"]
    ),
    "chi-inverse-splitting-off-the-first-atom": (
        partial(_mutate_rel, name="seely_rel", mutant=_chi_inv_splitting_off_the_first_atom), ["L22"]
    ),
    "m_R-weighted-size-plus-one": (
        partial(_mutate_rel_operators, spread=_m_R_weighted_size_plus_one), ["L10", "L14", "L17"]
    ),
    "K-plus-empty-bag-projection": (
        partial(_mutate_rel_operators, K=lambda o, rig: o.K + o.bang0), ["L8", "L9", "L16"]
    ),
    "d-doubled-removing-the-smallest-atom": (
        partial(_mutate_rel_operators, d=_d_doubled_removing_the_smallest_atom),
        ["L3", "L5", "L6", "L7", "L12", "L15", "L16", "L18", "L19", "L20", "L23"],
    ),
    # not L6, which sees it only at the bags [b] and [c], whose orbit L6 reads at [a]
    "d-of-the-empty-bag-reaching-the-first-atom": (
        partial(_mutate_rel_operators, d=_d_of_the_empty_bag_reaching_the_first_atom),
        ["L2", "L3", "L7", "L12", "L15", "L16", "L18", "L21", "L23"],
    ),
    "dc-doubled-on-the-first-atom": (
        partial(_mutate_rel_operators, dc=_dc_doubled_on_the_first_atom),
        ["L5", "L7", "L10", "L13", "L15", "L16", "L17", "L23"],
    ),
    # natural along the transposition (a b), so only L23's second permutation, the cycle, catches it;
    # not L5, which sees it only at the columns ((), c), whose orbit L5 reads at ((), a)
    "d-doubled-removing-the-last-atom": (
        partial(_mutate_rel_operators, d=_d_doubled_removing_the_last_atom),
        ["L7", "L12", "L15", "L16", "L18", "L19", "L20", "L23"],
    ),
    # wrong at one column that represents no orbit: only L23, and L3, which reads d at [b, b] through a
    # split of a representative, see it
    "d-doubled-at-b-b": (partial(_mutate_rel_operators, d=_d_doubled_at_b_b), ["L3", "L23"]),
    # natural along the cycle (a b c), so only L23's first permutation, the transposition, catches it
    "d-doubled-where-the-successor-stays": (
        partial(_mutate_rel_operators, d=_d_doubled_where_the_successor_stays),
        ["L3", "L6", "L7", "L12", "L15", "L16", "L18", "L19", "L20", "L23"],
    ),
    # K and J are built from the unmutated !(0); over the boolean rig 1 + 1 = 1, so it is no mutant there
    "bang0-doubled": (
        partial(_mutate_rel_operators, bang0=lambda o, rig: o.bang0 + o.bang0), ["L12", "L15", "L16", "L18", "L21"]
    ),
}


@pytest.mark.parametrize("mutate, failing", REL_MUTANTS.values(), ids=REL_MUTANTS)
def test_each_rel_operator_mutant_fails_exactly_its_laws(monkeypatch, mutate, failing):
    """The operator mutants of the relational model, each failing a fixed set of laws at base 3, D 6."""
    mutate(monkeypatch)
    reports = ls.run_suite(make_rel_binding(NONNEG_RATIONAL, base_size=3, truncation=6), cases=50, seed=0)
    assert [r.law_id for r in reports if r.status == "fail"] == failing


@pytest.mark.parametrize(
    "mutant, case", [("d-doubled-removing-the-last-atom", 15), ("d-doubled-where-the-successor-stays", 1)]
)
def test_each_generator_of_the_atom_permutations_catches_a_d_natural_along_the_other(monkeypatch, mutant, case):
    """L23 fails at the comparison of d along the generator the mutant is not natural along: each
    generator checks the 14 supplied operators in turn, d first, so d along the transposition (a b) is
    case 1 and along the cycle (a b c) case 15.  Over the boolean rig a doubled weight is the weight
    itself, so the two rigs with a 2 are the ones checked."""
    mutate, failing = REL_MUTANTS[mutant]
    mutate(monkeypatch)
    for rig in (NONNEG_RATIONAL, RATIONAL):
        reports = ls.run_suite(make_rel_binding(rig, base_size=3, truncation=6), cases=50, seed=0)
        assert [r.law_id for r in reports if r.status == "fail"] == failing, rig.name
        assert {r.law_id: r.cases for r in reports}["L23"] == case, rig.name


# (column, row) of each operator the rel binding supplies: the column, which represents no orbit of the
# atom permutations at base 3, gains one at the row; the counit's one column, the unit point, is an orbit
UNNATURAL_AT_ONE_COLUMN = {
    "d": (("b", "b"), (("b",), "b")),
    "dc": ((("b", "b"), "a"), ("a", "b", "b")),
    "s": ((("b", "b"), "a"), ("a", "b", "b")),
    "bang0": (("b", "b"), ("b", "b")),
    **{name: (("b", "b"), ("b", "b")) for name in ("K", "J", "K_inv", "J_inv", "id")},
    "zero": (("b", "b"), (("b",), "b")),
    "gate": (("b", "b"), (("*", "*"), ("b", "b"))),
    "spread": (((), ("b", "b")), ("b", "b")),
    "delta": ((("b",), ("b",)), ("b", "b")),
    "counit": ("*", ("b",)),
}


def _one_more_at(op, column, row):
    """`op` with one added at (row, column), a map of points no longer: every other column is op's."""
    rig, f = op.rig, op.column

    def broken(c):
        out = dict(f(c))
        if c == column:
            out[row] = rig.add(out.get(row, rig.zero), rig.one)
        return out

    return wrel.ColumnOp(rig, op.col_space, broken)


@pytest.mark.parametrize("name", UNNATURAL_AT_ONE_COLUMN)
def test_each_supplied_operator_broken_at_one_column_that_represents_no_orbit_fails_naturality(monkeypatch, name):
    """L23 checks each operator the binding supplies on its whole band, so a defect at one column that the
    other laws' representatives never read still fails it.  Over the boolean rig 1 + 1 = 1, so the two
    rigs where adding one changes a weight are the ones checked."""
    column, row = UNNATURAL_AT_ONE_COLUMN[name]
    base = wrel.BaseSet(wrel.ATOM_NAMES[:3])
    space = getattr(wrel.operators_rel(base, NONNEG_RATIONAL, 6), name).col_space
    assert column in wrel._band(space, 6)
    assert column not in wrel._orbit_reps(space, 6) or name == "counit"

    def broken(o):
        return _one_more_at(getattr(o, name), column, row)

    _mutate_rel(monkeypatch, "operators_rel", lambda o: o._replace(**{name: broken(o)}))
    label = f"{wrel.OPERATOR_NAMES.get(name, name)} is not natural along atom permutations: entry "
    for rig in (NONNEG_RATIONAL, RATIONAL):
        report = ls.run_law("L23", make_rel_binding(rig, base_size=3, truncation=6), cases=50, seed=0)
        assert report.status == "fail" and report.counterexample.startswith(label), (rig.name, report)


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_rel_naturality_compares_one_permutation_at_bases_1_and_2_and_two_from_base_3(rig):
    """L23 reads the transposition and the cycle, which coincide at bases 1 and 2, and compares each of
    the 14 supplied operators along each; at base 1 the one permutation is the identity, and d's one
    comparison stands for all.  It draws nothing (its rng is None here) and does not cap them by `cases`."""
    for base_size in range(1, wrel.MAX_BASE_SIZE + 1):
        binding = make_rel_binding(rig, base_size=base_size)
        expected = {1: 1, 2: 14}.get(base_size, 28)
        assert list(binding.checks["L23"](None, 1)) == [None] * expected, base_size
        report = ls.run_law("L23", binding, cases=50, seed=0)
        assert (report.status, report.cases) == ("pass", expected), base_size


def test_a_doubled_empty_bag_projection_fails_the_same_laws_over_the_rationals(monkeypatch):
    """The mutant table runs over nonneg-rational; the rationals, which also have 1 + 1 != 1, agree."""
    mutate, failing = REL_MUTANTS["bang0-doubled"]
    mutate(monkeypatch)
    reports = ls.run_suite(make_rel_binding(RATIONAL, base_size=3, truncation=6), cases=50, seed=0)
    assert [r.law_id for r in reports if r.status == "fail"] == failing


@pytest.mark.parametrize("rig, seed", [(NONNEG_RATIONAL, 0), (BOOLEAN, 2)], ids=["nonneg-rational", "boolean"])
def test_the_taylor_property_fails_a_derivative_of_the_empty_bag_at_the_default_size(monkeypatch, rig, seed):
    """L21's generic pair f = 0, g = !(0) reads d;!(0), which this mutant makes nonzero: the premise,
    L2's equation, fails in its first comparison.  When L21 drew its f and h, it passed at these seeds."""
    REL_MUTANTS["d-of-the-empty-bag-reaching-the-first-atom"][0](monkeypatch)
    report = ls.run_law("L21", make_rel_binding(rig, base_size=2, truncation=4), cases=50, seed=seed)
    assert (report.status, report.cases) == ("fail", 1)
    assert report.counterexample == "derivative of a constant is nonzero: entry (([], a), []): 1 != 0"


def test_the_taylor_property_fails_the_sabotaged_gradient_in_one_case():
    """When L21 drew its p and q = p + c, one case passed whenever c was drawn zero, as at seed 6."""
    report = ls.run_law("L21", make_poly_binding(NONNEG_RATIONAL, sabotage=True), cases=1, seed=6)
    assert (report.status, report.cases) == ("fail", 1)


@pytest.mark.parametrize("rig", [NONNEG_RATIONAL, RATIONAL], ids=lambda rig: rig.name)
def test_the_leibniz_rule_fails_the_sabotaged_gradient_in_its_first_case_at_every_seed(rig):
    """Each L3 factor has a nonzero constant term, so the sabotaged d, which keeps constant terms, adds
    p(0) q(0) to one side's constant term and 2 p(0) q(0) to the other's.  When L3 read its draws as
    they came, one case passed at 103 of these seeds, wherever neither factor had a constant term."""
    sabotaged, plain = make_poly_binding(rig, sabotage=True), make_poly_binding(rig)
    for seed in range(200):
        assert ls.run_law("L3", sabotaged, cases=1, seed=seed).status == "fail", seed
    assert all(ls.run_law("L3", plain, cases=1, seed=seed).status == "pass" for seed in range(200))


def test_every_law_the_rel_binding_checks_fails_under_a_named_mutant():
    # L24, which only the boolean binding checks, fails under the broken integral of
    # test_a_broken_integral_fails_the_collapse_law_in_both_exact_models
    caught = {law_id for _, failing in REL_MUTANTS.values() for law_id in failing} | {"L24"}
    checked = set()
    for rig in (NONNEG_RATIONAL, BOOLEAN):
        binding = make_rel_binding(rig, base_size=3, truncation=6)
        checked |= {law.id for law in ls.LAWS} - set(binding.skips)
    assert caught == checked


def _arguments_reversed(substitute):
    return lambda ps, args: substitute(ps, tuple(reversed(args)))


def _derivative_along_x(cartesian_derivative):
    """D[f](x, v) replaced by D[f](x, x): the direction is the base point."""

    def mutant(f):
        df = cartesian_derivative(f)
        xs = tuple(pf.Polynomial.variable(f.rig, df.in_arity, i) for i in range(f.in_arity))
        return pf.PolyMap(df.in_arity, df.out_arity, pf.substitute(df.coordinates, xs + xs))

    return mutant


def _halves_swapped(seely_merge):
    def mutant(t):
        swapped = {(r, l): c for (l, r), c in t.terms.items()}
        return seely_merge(pf.SplitTensor(t.rig, t.right_arity, t.left_arity, swapped))

    return mutant


def _split_one_variable_too_far(seely_split):
    """seely_split cutting each exponent vector after k + 1 variables while declaring k on the left.

    It agrees with its own merge, so merge after split still gives p back.
    """

    def mutant(p, k):
        t = seely_split(p, min(k + 1, p.arity))
        return pf.SplitTensor(t.rig, k, p.arity - k, t.terms)

    return mutant


def _entry_0_0_doubled(apply_linear):
    def mutant(matrix, ps):
        rows = [list(row) for row in matrix]
        rows[0][0] = ps[0].rig.add(rows[0][0], rows[0][0])
        return apply_linear(rows, ps)

    return mutant


def _doubled_at_arity_one(mul_in):
    return lambda b: mul_in(b) + mul_in(b) if b.arity == 1 else mul_in(b)


def _constant_term_doubled(eval_at_one):
    def mutant(q):
        r = eval_at_one(q)
        return r + pf.eval0(r)

    return mutant


def _doubled(bang0):
    """!(0) f read as f(0) + f(0), in the polynomial (`eval0`) and the smooth (`origin`) model alike."""
    return lambda f: bang0(f) + bang0(f)


def _plus_eval0(J_op):
    return lambda p: J_op(p) + pf.eval0(p)


def _y_partial_doubled_on_x_terms(grad):
    """grad whose second component counts twice the terms of p that contain x."""

    def mutant(p):
        b = grad(p)
        if p.arity < 2:
            return b
        with_x = pf.Polynomial(p.rig, p.arity, {e: c for e, c in p.terms.items() if e[0]})
        return pf.PolyBundle((b.components[0], b.components[1] + grad(with_x).components[1]) + b.components[2:])

    return mutant


def _next_generator(mul_in):
    """mul_in multiplying component i by generator i + 1 (the first after the last): the components rotate."""
    return lambda b: mul_in(pf.PolyBundle(b.components[-1:] + b.components[:-1]))


def _tag_one_too_large(t_grade):
    """m_{R,A} tagging the degree-n block with t^(n + 1)."""
    return lambda p: pf.on_tag(lambda q: pf.Polynomial.variable(q.rig, 1, 0) * q, t_grade(p))


# (function of `polyform` replaced, mutant of it, laws it fails at the default size over nonneg-rational);
# each mutant calls the function it replaces.  Over the boolean rig a doubling changes nothing.
POLY_MUTANTS = {
    "substitute-arguments-reversed": ("substitute", _arguments_reversed, ["L1", "L4", "L23"]),
    "derivative-along-x": ("cartesian_derivative", _derivative_along_x, ["L4"]),
    "seely-merge-halves-swapped": ("seely_merge", _halves_swapped, ["L22"]),
    "seely-split-one-variable-too-far": ("seely_split", _split_one_variable_too_far, ["L22"]),
    "apply-linear-entry-0-0-doubled": ("apply_linear", _entry_0_0_doubled, ["L23"]),
    # the identity at arity one, so every unit law holds
    "mul-in-by-the-next-generator": (
        "mul_in", _next_generator, ["L5", "L7", "L8", "L9", "L11", "L18", "L20"]
    ),
    "mul-in-doubled-at-arity-one": (
        "mul_in", _doubled_at_arity_one, ["L10", "L11", "L12", "L13", "L14", "L15", "L16", "L17", "L19"]
    ),
    "eval-at-one-constant-term-doubled": ("eval_at_one", _constant_term_doubled, ["L10", "L14", "L17"]),
    "J-plus-eval0": ("J_op", _plus_eval0, ["L8", "L9", "L13", "L14"]),
    # K = d°;d + !(0) doubles constants with it and K^{-1} does not; L2 differentiates a constant, which
    # doubling keeps constant, so L21 fails at its conclusion, !(0);!(0) = !(0)
    "eval0-doubled": ("eval0", _doubled, ["L8", "L9", "L12", "L15", "L16", "L18", "L21"]),
    "grad-y-partial-doubled-on-x-terms": (
        "grad", _y_partial_doubled_on_x_terms, ["L3", "L4", "L6", "L7", "L8", "L9", "L11", "L18", "L20", "L23"]
    ),
    # not L10: (m_R x 1) m_{R,A} = 1 evaluates the tag at one, where t^(n + 1) and t^n agree
    "t-grade-one-too-large": ("t_grade", _tag_one_too_large, ["L11", "L14", "L17"]),
}


@pytest.mark.parametrize("name, mutant, failing", POLY_MUTANTS.values(), ids=POLY_MUTANTS)
def test_each_poly_mutant_fails_exactly_its_laws(monkeypatch, name, mutant, failing):
    """The operator mutants of the polynomial model, patched in before the binding is built."""
    monkeypatch.setattr(pf, name, mutant(getattr(pf, name)))
    reports = ls.run_suite(make_poly_binding(NONNEG_RATIONAL), cases=50, seed=0)
    assert [r.law_id for r in reports if r.status == "fail"] == failing


@pytest.mark.parametrize("rig", [NONNEG_RATIONAL, RATIONAL, BOOLEAN], ids=lambda rig: rig.name)
def test_a_split_that_agrees_with_its_own_merge_fails_splitting_at_every_size(monkeypatch, rig):
    """L22 draws the tensor of its second equation, so split after merge is checked on more than
    the splits of p, whose merge the first equation already checks."""
    name, make, _ = POLY_MUTANTS["seely-split-one-variable-too-far"]
    monkeypatch.setattr(pf, name, make(getattr(pf, name)))
    for variables in (1, 2, 3, 4):
        report = ls.run_law("L22", make_poly_binding(rig, variables=variables), cases=50, seed=0)
        assert report.status == "fail" and report.cases <= 3, (variables, report)
        assert report.counterexample.startswith("split after merge is not the identity: t = "), report


@pytest.mark.parametrize("rig", [NONNEG_RATIONAL, RATIONAL, BOOLEAN], ids=lambda rig: rig.name)
def test_a_split_too_far_renders_every_exponent_it_moves(monkeypatch, rig):
    """The too-far split's keys disagree with the arities it declares: its lhs still shows each exponent,
    a zero one included, so lhs and rhs read differently at every size."""
    name, make, _ = POLY_MUTANTS["seely-split-one-variable-too-far"]
    monkeypatch.setattr(pf, name, make(getattr(pf, name)))
    for variables in (1, 2, 3, 4):
        report = ls.run_law("L22", make_poly_binding(rig, variables=variables), cases=50, seed=0)
        lhs, rhs = re.fullmatch(r".*; lhs = (.*); rhs = (.*)", report.counterexample).groups()
        assert lhs != rhs, (variables, report.counterexample)
        if variables == 2 and rig is NONNEG_RATIONAL:
            assert (lhs, rhs) == ("1/3*(x^6*y^3 | 1) + 2*(x^6*y | 1)", "1/3*(x^6 | y^3) + 2*(x^6 | y)")


def test_every_law_the_poly_binding_checks_fails_under_a_named_mutant():
    # the sabotaged gradient is the negative control; L24, which only the boolean binding checks, fails
    # under the broken integral of test_a_broken_integral_fails_the_collapse_law_in_both_exact_models
    sabotaged = ls.run_suite(make_poly_binding(NONNEG_RATIONAL, sabotage=True), cases=50, seed=0)
    caught = {law_id for _, _, failing in POLY_MUTANTS.values() for law_id in failing} | {"L24"}
    caught |= {r.law_id for r in sabotaged if r.status == "fail"}
    checked = set()
    for rig in (NONNEG_RATIONAL, BOOLEAN):
        binding = make_poly_binding(rig)
        checked |= {law.id for law in ls.LAWS} - set(binding.skips)
    assert caught == checked


def _poly_failures(monkeypatch, mutant=None, sabotage=False):
    """{law: counterexample} of the failing laws of a default nonneg-rational poly suite, with `mutant` patched in."""
    with monkeypatch.context() as patch:
        if mutant:
            name, make, _ = POLY_MUTANTS[mutant]
            patch.setattr(pf, name, make(getattr(pf, name)))
        reports = ls.run_suite(make_poly_binding(NONNEG_RATIONAL, sabotage=sabotage), cases=50, seed=0)
    return {r.law_id: r.counterexample for r in reports if r.status == "fail"}


@pytest.mark.parametrize("mutant", [None, *POLY_MUTANTS])
def test_every_failing_poly_counterexample_shows_its_inputs_and_both_sides(monkeypatch, mutant):
    """Bespoke and table laws render alike: `label: name = value; ...; lhs = ...; rhs = ...`, the same every run."""
    failures = _poly_failures(monkeypatch, mutant, sabotage=mutant is None)
    assert failures
    for law, text in failures.items():
        assert "; lhs = " in text and "; rhs = " in text, (law, text)
        assert "object at 0x" not in text, (law, text)
    assert _poly_failures(monkeypatch, mutant, sabotage=mutant is None) == failures


def test_poly_interchange_reports_the_first_asymmetric_pair_in_row_major_order(monkeypatch):
    # the mutant changes only the y component, so d_y b_x = d_x b_y fails first at (i, j) = (0, 1)
    text = _poly_failures(monkeypatch, "grad-y-partial-doubled-on-x-terms")["L6"]
    assert text.startswith("mixed partials differ: p = ")
    assert "; i = 0; j = 1; lhs = " in text


def test_a_failing_poly_naturality_report_replays_from_its_text(monkeypatch):
    """L23 shows p and the substitution matrix it drew, so its lhs can be rebuilt from the text alone."""
    text = _poly_failures(monkeypatch, "apply-linear-entry-0-0-doubled")["L23"]
    label, shown = text.split(": ", 1)
    fields = dict(part.split(" = ", 1) for part in shown.split("; "))
    assert label == "gradient is not natural in linear substitution"
    assert list(fields) == ["p", "matrix", "lhs", "rhs"]
    assert fields["p"] == "5/2*x^2*y^2*z + 7/4*x*y*z + 10/3"
    assert fields["matrix"] == "[[1, 0, 3], [1, 3, 1], [1, 3, 2]]"
    p = exprcalc.eval_expr(fields["p"], NONNEG_RATIONAL, arity=3)
    name, make, _ = POLY_MUTANTS["apply-linear-entry-0-0-doubled"]
    monkeypatch.setattr(pf, name, make(getattr(pf, name)))
    assert pf.grad(pf.apply_linear(ast.literal_eval(fields["matrix"]), [p])[0]).render() == fields["lhs"]


def _plus_1e_6(fd_directional_derivative):
    return lambda f, x, v: fd_directional_derivative(f, x, v) + 1e-6


def _keeps_the_constant_term(fd_directional_derivative):
    """D[f](x, v) + f(0) * v[0]: the derivative keeps f's constant term, as the poly `--sabotage` gradient does."""
    return lambda f, x, v: fd_directional_derivative(f, x, v) + f(np.zeros_like(x)) * np.asarray(v)[0]


def _plus_1e_6_x1_v0(fd_directional_derivative):
    """D[f](x, v) + 1e-6 * x[1] * v[0] at a point of two or more coordinates: a derivative whose
    derivative is not symmetric, d/dx0 of the x1 derivative being 1e-6 * x1 smaller than d/dx1 of the
    x0 one."""

    def mutant(f, x, v):
        x = np.asarray(x)
        return fd_directional_derivative(f, x, v) + (1e-6 * x[1] * np.asarray(v)[0] if len(x) > 1 else 0.0)

    return mutant


def _weighted_by_t(line_integral_S):
    """S weighting its nodes by t, so it computes the integral of t * g(t*x, x)."""

    def mutant(g, x, cfg=sm.DEFAULT_CONFIG):
        x = np.asarray(x)[..., None]
        ts, ws = sm.gauss_legendre(cfg.order)
        nodes = x * ts
        return np.sum(g(nodes, np.broadcast_to(x, nodes.shape)) * ws * ts, axis=-1)

    return mutant


# (function of `smoothnum` replaced, mutant of it, laws it fails at dim 3, 50 cases, seed 0); each
# mutant calls the function it replaces but `_weighted_by_t`
SMOOTH_MUTANTS = {
    # L21's premise is L2's equation, d;!(0) = 0.  The derivative is one rule, the complex step outside
    # any other derivative and a Dual inside one, and a mutant of it changes both.  Not L6 or L20: s
    # integrates the inner shift into a constant, which the outer d differentiates away before it adds
    # its own 1e-6, as d f and each of L6's mixed partials do
    "complex-step-plus-1e-6": (
        "fd_directional_derivative", _plus_1e_6, ["L2", "L3", "L4", "L5", "L18", "L19", "L21"]
    ),
    # not L6: its outer derivative along e_0 adds D[f](0, e_1), the first partial at the origin, to one
    # side only, and that is zero for every potential of the corpus
    "complex-step-keeps-the-constant-term": (
        "fd_directional_derivative", _keeps_the_constant_term, ["L2", "L3", "L4", "L18", "L21"]
    ),
    "integral-weighted-by-t": ("line_integral_S", _weighted_by_t, ["L18", "L19", "L20"]),
    # L2 differentiates a constant, which doubling keeps constant
    "origin-doubled": ("origin", _doubled, ["L18", "L21"]),
    # not L19, which reads the 1-D maps only
    "derivative-plus-1e-6-x1-v0": (
        "fd_directional_derivative", _plus_1e_6_x1_v0, ["L2", "L3", "L4", "L5", "L6", "L18", "L20", "L21"]
    ),
}


def _smooth_reports(monkeypatch, mutant):
    """The reports of a dim-3 smooth suite at 50 cases, seed 0, with `mutant` patched in."""
    name, make, _ = SMOOTH_MUTANTS[mutant]
    monkeypatch.setattr(sm, name, make(getattr(sm, name)))
    return ls.run_suite(make_smooth_binding(max_dim=3), cases=50, seed=0)


@pytest.mark.parametrize("mutant", SMOOTH_MUTANTS)
def test_each_smooth_mutant_fails_exactly_its_laws(monkeypatch, mutant):
    reports = _smooth_reports(monkeypatch, mutant)
    assert [r.law_id for r in reports if r.status == "fail"] == SMOOTH_MUTANTS[mutant][2]


def _patched(module, mutants, mutant):
    """The monkeypatch of a `POLY_MUTANTS` or `SMOOTH_MUTANTS` entry, as a `REL_MUTANTS` entry applies it."""
    name, make, _ = mutants[mutant]
    return lambda monkeypatch: monkeypatch.setattr(module, name, make(getattr(module, name)))


def test_every_model_fails_the_taylor_property_at_the_same_equation(monkeypatch):
    """L21 is `lawsuite.taylor` in every model: a doubled !(0) keeps d;!(0) = 0, L2's equation and
    L21's premise, and fails L21's conclusion, !(0);!(0) = !(0); a d that does not vanish on
    constants fails the premise.  Each model's first L21 counterexample carries that equation's label."""
    unit = ls.Op(None, None)
    stub = ls.Operators._make([unit] * len(ls.Operators._fields))
    premise, conclusion = (label for _, _, label in ls.taylor(stub, stub))
    assert [label for _, _, label in ls.LAW_BY_ID["L2"].equations(stub, stub)] == [premise]
    rel, poly = partial(make_rel_binding, NONNEG_RATIONAL, 3, 6), partial(make_poly_binding, NONNEG_RATIONAL)
    runs = {
        "rel bang0-doubled": (rel, REL_MUTANTS["bang0-doubled"][0]),
        "poly eval0-doubled": (poly, _patched(pf, POLY_MUTANTS, "eval0-doubled")),
        "smooth origin-doubled": (make_smooth_binding, _patched(sm, SMOOTH_MUTANTS, "origin-doubled")),
        "rel d-of-the-empty-bag-reaching-the-first-atom": (
            rel, REL_MUTANTS["d-of-the-empty-bag-reaching-the-first-atom"][0]
        ),
        "poly --sabotage": (partial(poly, sabotage=True), lambda monkeypatch: None),
        "smooth complex-step-keeps-the-constant-term": (
            make_smooth_binding, _patched(sm, SMOOTH_MUTANTS, "complex-step-keeps-the-constant-term")
        ),
    }
    labels = {}
    for run, (make_binding, mutate) in runs.items():
        with monkeypatch.context() as patch:
            mutate(patch)
            report = ls.run_law("L21", make_binding(), cases=50, seed=0)
        text = report.counterexample or ""
        labels[run] = next((label for label in (premise, conclusion) if text.startswith(label + ": ")), text)
    assert labels == dict.fromkeys(list(runs)[:3], conclusion) | dict.fromkeys(list(runs)[3:], premise)


def test_every_law_the_smooth_binding_checks_fails_under_a_named_mutant():
    caught = {law_id for _, _, failing in SMOOTH_MUTANTS.values() for law_id in failing}
    assert caught == {law.id for law in ls.LAWS} - set(make_smooth_binding(max_dim=3).skips)


def test_an_asymmetric_derivative_fails_each_law_at_its_first_broken_column(monkeypatch):
    """The failing laws, their case counts and counterexamples of the derivative plus 1e-6 * x[1] * v[0].

    The mutant reaches only maps of two or more variables, so each law fails first at the first such
    map in its item order.  L6 fails at its first column, that of prod2, by 1e-6 * (1 - x[1]), and L2
    and L21 at the first point of prod2 where the derivative of its constant !(0) f, 1e-6 * x[1] * v[0],
    exceeds the tolerance.
    """
    reports = _smooth_reports(monkeypatch, "derivative-plus-1e-6-x1-v0")
    failing = {r.law_id: (r.cases, r.counterexample) for r in reports if r.status == "fail"}
    assert failing == {
        "L2": (
            31,
            "derivative of a constant is nonzero: map=prod2 x=[1.786238 1.404413] v=[-0.807394 -0.844912] "
            "lhs=[-1.1339146715e-06] rhs=[0.]",
        ),
        "L3": (
            37,
            "Leibniz fails: map=prod2 x=[-1.628225  0.357027] v=[-0.181792  0.161431] "
            "lhs=[0.3810561372] rhs=[0.3810562775]",
        ),
        "L4": (
            37,
            "chain rule fails (linear2 o linear2): map=linear2 x=[-1.503272 -0.540077] v=[-1.047963 -1.216496] "
            "lhs=[-5.9139463809 -1.2164954382] rhs=[-5.913943369  -1.2164935582]",
        ),
        "L5": (
            25,
            "derivative of a linear map is not constant: map=linear2 x=[0.09083  0.239241] v=[-1.734152  1.999095] "
            "lhs=[-4.1488024817e-07] rhs=[0.]",
        ),
        "L6": (1, "mixed partials differ: map=prod2 x=[ 1.402858 -1.664159] lhs=[0.9999983358] rhs=[1.000001]"),
        "L18": (
            31,
            "second fundamental theorem fails: map=prod2 x=[0.209345 1.495686] lhs=[0.3131145426] rhs=[0.3131143861]",
        ),
        "L20": (
            31,
            "derivative of the integral loses the field: map=prod2 x=[ 1.535068 -0.799548] v=[ 0.374106 -0.910937] "
            "lhs=[-1.6974669939] rhs=[-1.6974661451]",
        ),
        "L21": (
            31,
            "derivative of a constant is nonzero: map=prod2 x=[1.671901 1.974334] v=[0.652375 0.18841 ] "
            "lhs=[1.2880066957e-06] rhs=[0.]",
        ),
    }
    assert {r.status for r in reports if r.law_id not in failing} == {"pass", "skipped"}


def test_a_failing_field_comparison_replays_from_its_printed_point_and_direction(monkeypatch):
    """L20 compares the fields d;s;d f and d f at (x, v): the x and v its counterexample prints, to 6
    digits, rebuild its lhs, the derivative of the line integral of D[prod2], to 1e-5, and its gap to
    the rhs, which the mutant puts at 1e-6 * (x[0] * v[1] + x[1] * v[0]) / 2, to 1e-3."""
    reports = _smooth_reports(monkeypatch, "derivative-plus-1e-6-x1-v0")
    text = next(r.counterexample for r in reports if r.law_id == "L20")
    shown = {name: np.array(values.split(), float) for name, values in re.findall(r"(\w+)=\[([^\]]*)\]", text)}
    assert list(shown) == ["x", "v", "lhs", "rhs"]
    x, v = shown["x"], shown["v"]
    prod2 = next(f for f in sm.builtin_corpus() if f.label == "prod2")
    integral = sm.SmoothMap(2, 1, lambda y: sm.line_integral_S(sm.bilinearize(prod2), y), "S[D[prod2]]")
    lhs, rhs = sm.fd_directional_derivative(integral, x, v), sm.bilinearize(prod2)(x, v)
    assert np.allclose(lhs, shown["lhs"], rtol=1e-5, atol=0)
    gap = shown["lhs"] - shown["rhs"]
    assert np.allclose(lhs - rhs, gap, rtol=1e-3, atol=0)
    assert np.allclose(gap, 1e-6 * (x[0] * v[1] + x[1] * v[0]) / 2, rtol=1e-3, atol=0)


class _InverseRig(NonNegRationalRig):
    """The non-negative rationals with `nat_inverse(k)` replaced by `inverse(k)`."""

    def __init__(self, inverse):
        self.inverse = inverse

    def nat_inverse(self, k):
        return self.inverse(k)


TABLE_LAWS = [law.id for law in ls.LAWS if law.equations]
# every table law that applies K^{-1}, J^{-1} or s to an input
READS_AN_INVERSE = ["L8", "L12", "L13", "L14", "L15", "L16", "L18", "L19", "L20"]


def _failing_table_laws(rig, **size):
    binding = make_poly_binding(rig, **size)
    return [law for law in TABLE_LAWS if ls.run_law(law, binding, cases=50, seed=0).status == "fail"]


@pytest.mark.parametrize("k", range(1, 9))
def test_an_inverse_wrong_at_one_degree_fails_the_general_table_at_4_by_8(k):
    """At 4 variables the basis reaches degree 3 and one seeded monomial of each degree 4 .. 8 the rest,
    so L8 (K;K^{-1} = 1 = J;J^{-1}, stated at 4 variables) reads every 1/n up to 1/8."""
    rig = _InverseRig(lambda n: Fraction(2 if n == k else 1, n))
    assert "L8" in _failing_table_laws(rig, variables=4, max_degree=8)


WRONG_FROM_SOME_DEGREE_UP = {
    # 1/n capped at 1/cap is wrong only from n = cap + 1, which the probes' 61-bit degrees reach; 50 random
    # inputs of degree at most 6 failed 2, 0 and 0 table laws under these three
    **{f"capped-at-one-over-{cap}": lambda n, cap=cap: Fraction(1, min(n, cap)) for cap in (6, 8, 9)},
    **{f"doubled-from-{j}": lambda n, j=j: Fraction(2 if n >= j else 1, n) for j in range(1, 7)},
}


@pytest.mark.parametrize("inverse", WRONG_FROM_SOME_DEGREE_UP.values(), ids=WRONG_FROM_SOME_DEGREE_UP)
def test_an_inverse_wrong_from_some_degree_up_fails_at_the_default_size(inverse):
    assert _failing_table_laws(_InverseRig(inverse)) == READS_AN_INVERSE


def test_rel_table_laws_compose_no_matrix(monkeypatch):
    """Every rel law but L21, the table laws among them, evaluates column operators: L21 alone calls
    `mat_compose`, and no law calls `tensor`."""
    calls = Counter()
    law = None
    for name in ("mat_compose", "tensor"):
        original = getattr(wrel, name)

        def counting(*args, name=name, original=original):
            calls[law, name] += 1
            return original(*args)

        monkeypatch.setattr(wrel, name, counting)
    for rig in (NONNEG_RATIONAL, BOOLEAN):
        binding = make_rel_binding(rig, base_size=3, truncation=6)
        for law in [law.id for law in ls.LAWS]:
            assert ls.run_law(law, binding, cases=50, seed=0).status != "fail"
    assert {key for key in calls} == {("L21", "mat_compose")}


# Entries each rel law compares at base 3, D 6 (nonneg-rational, 50 cases, seed 0): the distinct
# (row, column) keys on either side of the compared columns, summed over the law's comparisons.
# The structural laws compared these many when they compared truncated matrices on the safe band;
# L3 now also reads the columns of D - MARGIN + 1 atoms, and L22 every pair of halves of at most D atoms.
# L10's unit equation m_R d° = m_R reads the 15 pairs of unit bags (n, b) of at most D - MARGIN atoms
# where it read the 5 unit bags, and m_R eps = 1 and m_R e = 1 (a key each) are now the first equation's.
# L21 compares every entry of its matrices: 674 when it drew f and h, where the 673 entries of f's terms
# compared f with itself; at its generic pair f = 0, h = 1 it compares !(0);!(0) with !(0).  L23 compared
# d along five drawn atom permutations on the safe band (300); it now compares it along the transposition
# and the cycle on every bag of at most D atoms.
PARENT_STRUCTURAL_KEYS = {
    "L1": 995, "L2": 0, "L3": 918, "L5": 3, "L6": 90, "L7": 225, "L10": 42, "L22": 124, "L23": 300,
}
# The entries on every column of each law's band, which each law but L23 compared before it read one
# column per orbit of the atom permutations: the orbits of the columns it now compares cover them all.
BAND_KEYS = PARENT_STRUCTURAL_KEYS | {"L3": 1008, "L10": 50, "L22": 168} | {
    "L8": 70, "L9": 169, "L11": 70, "L12": 5, "L13": 5, "L14": 15, "L15": 10, "L16": 15,
    "L17": 175, "L18": 35, "L19": 5, "L20": 60, "L21": 1,
}
BAND_KEYS.pop("L23")
# One column per orbit; L21 compares matrices and L22 every column, as before.  L23 compared d along the
# two generators on every bag of at most D atoms (336); it now checks each of the 14 supplied operators
# along both on its whole band, the rows of each column counted once.
REL_KEYS = {
    "L1": 229, "L2": 0, "L3": 221, "L5": 1, "L6": 28, "L7": 46, "L8": 22, "L9": 44, "L10": 26, "L11": 22,
    "L12": 5, "L13": 5, "L14": 15, "L15": 10, "L16": 15, "L17": 44, "L18": 11, "L19": 5, "L20": 18, "L21": 1,
    "L22": 168, "L23": 4456,
}


def test_each_rel_law_compares_a_pinned_set_of_entries(monkeypatch):
    """A count of the entries compared, so no law can silently compare fewer, and of those on every
    column of each law's band, which the orbits of the compared columns cover; one comparison touches
    at most 10,000."""
    keys, band_keys, largest, law = Counter(), Counter(), 0, None
    column_difference, matrix_difference = wrel.ColumnOp.first_difference, wrel.WeightedMatrix.first_difference
    commutes = wrel.ColumnOp.commutes

    def count(n):
        nonlocal largest
        keys[law] += n
        largest = max(largest, n)

    def entries(f, g, columns):
        return sum(len(f.column(c).keys() | g.column(c).keys()) for c in columns)

    def counting_columns(self, other, limit, orbits=True):
        count(entries(self, other, (wrel._orbit_reps if orbits else wrel._band)(self.col_space, limit)))
        band_keys[law] += entries(self, other, wrel._band(self.col_space, limit))
        return column_difference(self, other, limit, orbits)

    def counting_matrix(self, other):
        count(len(self.entries.keys() | other.entries.keys()))
        band_keys[law] += len(self.entries.keys() | other.entries.keys())
        return matrix_difference(self, other)

    def counting_commutes(self, act, limit):
        count(entries(self, self, wrel._band(self.col_space, limit)))
        return commutes(self, act, limit)

    monkeypatch.setattr(wrel.ColumnOp, "first_difference", counting_columns)
    monkeypatch.setattr(wrel.WeightedMatrix, "first_difference", counting_matrix)
    monkeypatch.setattr(wrel.ColumnOp, "commutes", counting_commutes)
    binding = make_rel_binding(NONNEG_RATIONAL, base_size=3, truncation=6)
    for law in REL_KEYS:
        assert ls.run_law(law, binding, cases=50, seed=0).status == "pass", law
    assert keys == REL_KEYS
    assert band_keys == BAND_KEYS
    assert keys["L23"] >= PARENT_STRUCTURAL_KEYS["L23"]
    assert 0 < largest <= 10_000


def test_rel_suite_never_builds_a_matrix_beyond_the_safe_band_rows(monkeypatch):
    """A count, not a timing: the full Kronecker products of L1 held 77,616 entries at base 3, D 6."""
    largest = 0
    init = wrel.WeightedMatrix.__init__
    canonical = wrel.WeightedMatrix._canonical

    def counting_init(self, rig, row_space, col_space, entries=None):
        nonlocal largest
        largest = max(largest, len(entries or ()))
        init(self, rig, row_space, col_space, entries)

    def counting_canonical(cls, rig, row_space, col_space, entries):
        nonlocal largest
        largest = max(largest, len(entries))
        return canonical(rig, row_space, col_space, entries)

    # The validating constructor of L21's f and h and the trusted one of everything else.
    monkeypatch.setattr(wrel.WeightedMatrix, "__init__", counting_init)
    monkeypatch.setattr(wrel.WeightedMatrix, "_canonical", classmethod(counting_canonical))
    for rig in (NONNEG_RATIONAL, BOOLEAN):
        assert ls.all_pass(ls.run_suite(make_rel_binding(rig, base_size=3, truncation=6), cases=50, seed=0))
    assert 0 < largest <= 10_000


def test_an_exception_in_one_check_fails_only_that_law(monkeypatch, capsys):
    def passes(rng, cases):
        return [None] * cases

    def raises(rng, cases):
        raise NonFinite("probe returned nan")

    checks = {law.id: passes for law in ls.LAWS}
    checks["L3"] = raises
    binding = ls.ModelBinding(name="fragile", semiring="none", checks=checks)
    reports = ls.run_suite(binding, cases=3, seed=0)
    assert [r.law_id for r in reports] == [law.id for law in ls.LAWS]
    by_id = {r.law_id: r for r in reports}
    assert (by_id["L3"].status, by_id["L3"].counterexample) == ("fail", "raised NonFinite: probe returned nan")
    assert all(r.status == "pass" for r in reports if r.law_id != "L3")

    monkeypatch.setattr(cli, "_make_binding", lambda args: binding)
    assert cli.main(["check", "smooth"]) == 1
    assert "raised NonFinite" in capsys.readouterr().out


def _one_law_binding(check):
    return ls.ModelBinding(name="fake", semiring="none", checks={"L3": check})


def test_a_check_that_yields_no_case_fails():
    report = ls.run_law("L3", _one_law_binding(lambda rng, cases: iter(())), cases=5, seed=0)
    assert (report.status, report.cases, report.counterexample) == ("fail", 0, "no case was checked")


def test_the_runner_stops_at_the_first_counterexample_and_counts_the_cases_read():
    evaluated = []

    def check(rng, cases):
        for n in range(1, cases + 1):
            evaluated.append(n)
            yield f"case {n} fails" if n >= 3 else None

    report = ls.run_law("L3", _one_law_binding(check), cases=10, seed=0)
    assert (report.status, report.cases, report.counterexample) == ("fail", 3, "case 3 fails")
    assert evaluated == [1, 2, 3]


def test_a_check_that_raises_after_passing_cases_reads_zero_cases():
    def check(rng, cases):
        yield None
        yield None
        raise NonFinite("third probe returned nan")

    report = ls.run_law("L3", _one_law_binding(check), cases=10, seed=0)
    assert (report.status, report.cases) == ("fail", 0)
    assert report.counterexample == "raised NonFinite: third probe returned nan"


def test_smooth_suite_is_inexact_everywhere():
    reports = ls.run_suite(make_smooth_binding(), cases=10, seed=0)
    assert ls.all_pass(reports)


def test_no_law_passes_on_zero_cases():
    smooth_by_dim = {dim: make_smooth_binding(max_dim=dim) for dim in (1, 2, 3)}
    for binding in (
        make_poly_binding(NONNEG_RATIONAL),
        make_rel_binding(NONNEG_RATIONAL),
        make_rel_binding(BOOLEAN),
        *smooth_by_dim.values(),
    ):
        for r in ls.run_suite(binding, cases=5, seed=0):
            assert r.status != "pass" or r.cases >= 1, (binding.name, binding.params, r.law_id)
        with pytest.raises(ValueError):
            ls.run_law("L2", binding, cases=0, seed=0)
    assert set(smooth_by_dim[1].skips) == set(smooth_by_dim[3].skips) | {"L6"}


def test_negative_control_fails_with_counterexample():
    binding = make_poly_binding(NONNEG_RATIONAL, sabotage=True)
    reports = ls.run_suite(binding, cases=10, seed=0)
    assert not ls.all_pass(reports)
    l2 = next(r for r in reports if r.law_id == "L2")
    assert l2.status == "fail"
    assert l2.counterexample


def test_unbound_operator_raises():
    binding = ls.ModelBinding(name="hollow", semiring="none", checks={})
    with pytest.raises(ls.UnboundOperator):
        ls.run_law("L1", binding, cases=1, seed=0)


def test_a_suite_over_a_binding_that_lacks_a_law_raises_unbound_operator():
    """The suite runs every row of the table, so a law the binding answers by nothing is an error, not a gap."""
    checks = {law.id: lambda rng, cases: [None] * cases for law in ls.LAWS if law.id != "L7"}
    binding = ls.ModelBinding(name="partial", semiring="none", checks=checks, skips={"L1": "not modelled"})
    with pytest.raises(ls.UnboundOperator, match="partial has no check bound for L7"):
        ls.run_suite(binding, cases=1, seed=0)


def test_skip_report_shape():
    binding = make_rel_binding(NONNEG_RATIONAL)
    report = ls.run_law("L4", binding, cases=1, seed=0)
    assert report.status == "skipped"
    assert report.cases == 0
    assert report.skip_reason
    payload = report.to_dict()
    assert payload["status"] == "skipped"
    assert "counterexample" not in payload
