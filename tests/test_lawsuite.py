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
    """Every result of the rel builder `wrel.<name>` from now on is replaced by `mutant(result)`."""
    build = getattr(wrel, name)
    monkeypatch.setattr(wrel, name, lambda *args: mutant(build(*args)))


def _first_atom(op):
    """The first atom of the base set of an operator whose columns are (bag, atom) pairs: a, or * on the unit."""
    return op.col_space.right.base.atoms[0]


def _delta_weighting_one_two_splits_by_two(com):
    delta = com.delta.column
    rig = com.delta.rig

    def column(c):
        return {r: rig.nat_value(2) if tuple(map(len, c)) == (1, 2) else w for r, w in delta(c).items()}

    return com._replace(delta=wrel.ColumnOp(rig, com.delta.col_space, column))


def test_comultiplication_weighting_one_two_splits_fails_exactly_the_comonoid_and_leibniz_laws(monkeypatch):
    """Delta weights the splits with |b1| = 1 and |b2| = 2 by 2: L1 and L3 see it."""
    _mutate_rel(monkeypatch, "comonoid_rel", _delta_weighting_one_two_splits_by_two)
    for rig in (NONNEG_RATIONAL, RATIONAL):
        reports = ls.run_suite(make_rel_binding(rig, base_size=3, truncation=6), cases=10, seed=0)
        failing = {r.law_id: r.counterexample for r in reports if r.status == "fail"}
        assert failing == {
            "L1": "comultiplication not coassociative: entry ([a,a,a], ([a], ([a], [a]))): 1 != 2",
            "L3": "Leibniz fails: entry (([a,a], a), ([a], [a,a])): 6 != 3",
        }, rig.name


def _counit_reaching_a(com):
    rig = com.counit.rig
    return com._replace(counit=wrel.ColumnOp(rig, com.counit.col_space, lambda c: {("a",): rig.one}))


def _delta_without_lopsided_splits(com):
    """Delta without the splits (b1, b2) with |b1| > |b2| + 1."""
    delta = com.delta.column
    return com._replace(
        delta=wrel.ColumnOp(com.delta.rig, com.delta.col_space, lambda c: {} if len(c[0]) > len(c[1]) + 1 else delta(c))
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
    # L2 reads e through !(0), not the counit
    "counit-reaching-a": (partial(_mutate_rel, name="comonoid_rel", mutant=_counit_reaching_a), ["L1"]),
    "delta-without-lopsided-splits": (
        partial(_mutate_rel, name="comonoid_rel", mutant=_delta_without_lopsided_splits), ["L1", "L3"]
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
    "d-of-the-empty-bag-reaching-the-first-atom": (
        partial(_mutate_rel_operators, d=_d_of_the_empty_bag_reaching_the_first_atom),
        ["L2", "L3", "L6", "L7", "L12", "L15", "L16", "L18", "L21", "L23"],
    ),
    "dc-doubled-on-the-first-atom": (
        partial(_mutate_rel_operators, dc=_dc_doubled_on_the_first_atom),
        ["L5", "L7", "L10", "L13", "L15", "L16", "L17"],
    ),
    # natural along the transposition (a b), so only L23's second permutation, the cycle, catches it
    "d-doubled-removing-the-last-atom": (
        partial(_mutate_rel_operators, d=_d_doubled_removing_the_last_atom),
        ["L5", "L7", "L12", "L15", "L16", "L18", "L19", "L20", "L23"],
    ),
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
    "mutant, case", [("d-doubled-removing-the-last-atom", 2), ("d-doubled-where-the-successor-stays", 1)]
)
def test_each_generator_of_the_atom_permutations_catches_a_d_natural_along_the_other(monkeypatch, mutant, case):
    """L23 fails at the comparison along the generator the mutant is not natural along: the
    transposition (a b) is case 1 and the cycle (a b c) case 2.  Over the boolean rig a doubled
    weight is the weight itself, so the two rigs with a 2 are the ones checked."""
    mutate, failing = REL_MUTANTS[mutant]
    mutate(monkeypatch)
    for rig in (NONNEG_RATIONAL, RATIONAL):
        reports = ls.run_suite(make_rel_binding(rig, base_size=3, truncation=6), cases=50, seed=0)
        assert [r.law_id for r in reports if r.status == "fail"] == failing, rig.name
        assert {r.law_id: r.cases for r in reports}["L23"] == case, rig.name


@pytest.mark.parametrize("rig", list(RIGS.values()), ids=list(RIGS))
def test_rel_naturality_compares_one_permutation_at_bases_1_and_2_and_two_from_base_3(rig):
    """L23 reads the transposition and the cycle, which coincide at bases 1 and 2; it draws nothing
    (its rng is None here) and does not cap them by `cases`."""
    for base_size in range(1, wrel.MAX_BASE_SIZE + 1):
        binding = make_rel_binding(rig, base_size=base_size)
        assert list(binding.checks["L23"](None, 1)) == [None] * (1 if base_size <= 2 else 2), base_size
        report = ls.run_law("L23", binding, cases=50, seed=0)
        assert (report.status, report.cases) == ("pass", 1 if base_size <= 2 else 2), base_size


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
    """D[f](x, v) + f(0) * v[0]: the complex step keeps f's constant term, as the poly `--sabotage` gradient does."""
    return lambda f, x, v: fd_directional_derivative(f, x, v) + f(np.zeros_like(x)) * np.asarray(v)[0]


def _weighted_by_t(line_integral_S):
    """S weighting its nodes by t, so it computes the integral of t * g(t*x, x)."""

    def mutant(g, x, cfg=sm.DEFAULT_CONFIG):
        x = np.asarray(x)[..., None]
        ts, ws = sm.gauss_legendre(cfg.order)
        nodes = x * ts
        return np.sum(g(nodes, np.broadcast_to(x, nodes.shape)) * ws * ts, axis=-1)

    return mutant


def _gauss3_broken_past_x0_equal_1(builtin_corpus):
    """gauss3's closed-form derivative doubles the direction's first coordinate where x[0] > 1.

    The broken closed form is complex-analytic off x[0].real = 1, so the complex step sees the same break.
    """

    def corpus():
        maps = builtin_corpus()
        for f in maps:
            if f.label == "gauss3":

                def broken(x, v, exact=f.exact_derivative):
                    w = np.array(v)
                    w[0] = np.where(x[0].real > 1.0, 2.0, 1.0) * v[0]
                    return exact(x, w)

                f.exact_derivative = broken
        return maps

    return corpus


# (function of `smoothnum` replaced, mutant of it, laws it fails at dim 3, 50 cases, seed 0); each
# mutant calls the function it replaces but `_weighted_by_t`
SMOOTH_MUTANTS = {
    # L21's premise is L2's equation, d;!(0) = 0
    "complex-step-plus-1e-6": (
        "fd_directional_derivative", _plus_1e_6, ["L2", "L3", "L4", "L5", "L19", "L20", "L21"]
    ),
    # L6 takes a complex step on both sides, and L18 reads only closed forms
    "complex-step-keeps-the-constant-term": (
        "fd_directional_derivative", _keeps_the_constant_term, ["L2", "L3", "L4", "L21"]
    ),
    "integral-weighted-by-t": ("line_integral_S", _weighted_by_t, ["L18", "L19", "L20"]),
    # L2 differentiates a constant, which doubling keeps constant
    "origin-doubled": ("origin", _doubled, ["L18", "L21"]),
    "gauss3-derivative-broken-past-x0-equal-1": (
        "builtin_corpus", _gauss3_broken_past_x0_equal_1, ["L3", "L4", "L6", "L18", "L20"]
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


def test_a_derivative_broken_past_x0_equal_1_fails_each_law_at_its_first_broken_column(monkeypatch):
    """The failing laws, their case counts and counterexamples of the gauss3 mutant.

    Those of L3, L4 and L6 were computed when each law still evaluated one
    probe point at a time: batching an item's points must keep the rng
    stream and stop at the same column.  L18 and L20 evaluate their table
    rows on the scalar maps, five points each.
    """
    reports = _smooth_reports(monkeypatch, "gauss3-derivative-broken-past-x0-equal-1")
    failing = {r.law_id: (r.cases, r.counterexample) for r in reports if r.status == "fail"}
    assert failing == {
        "L3": (
            42,
            "Leibniz fails: map=poly3 x=[ 1.339396 -0.879792  1.54241 ] v=[0.384057 0.799161 0.243878] "
            "lhs=[0.5439071901] rhs=[0.5456679083]",
        ),
        "L4": (
            78,
            "chain rule fails (id1 o gauss3): map=gauss3 x=[ 1.777488 -0.864492 -0.53423 ] "
            "v=[-1.79191   1.270026 -0.746982] lhs=[0.6808976549] rhs=[1.2392769013]",
        ),
        # the fourth potential, 12 points: its fifth column
        "L6": (
            41,
            "mixed partials differ: map=gauss3 x=[ 1.76496  -0.690859 -0.221356] "
            "lhs=[-0.1226612998] rhs=[-0.2453225997]",
        ),
        # gauss3 is the last of the ten scalar maps: its second column
        "L18": (
            47,
            "second fundamental theorem fails: map=gauss3 x=[1.854115 0.18272  1.286892] "
            "lhs=[0.007502118] rhs=[0.2775360183]",
        ),
        # and its fifth column
        "L20": (
            50,
            "derivative of the integral loses the field: map=gauss3 x=[ 1.712529  1.267991 -1.589019] "
            "v=[ 0.405883 -1.769741  1.366241] lhs=[0.073401017] rhs=[0.2585470273]",
        ),
    }
    assert {r.status for r in reports if r.law_id not in failing} == {"pass", "skipped"}


def test_a_failing_field_comparison_replays_from_its_printed_point_and_direction(monkeypatch):
    """L20 compares the fields d;s;d f and d f at (x, v): the x and v its counterexample prints, to 6
    digits, rebuild its lhs, the complex step of the line integral of D[gauss3], to 1e-5."""
    reports = _smooth_reports(monkeypatch, "gauss3-derivative-broken-past-x0-equal-1")
    text = next(r.counterexample for r in reports if r.law_id == "L20")
    shown = {name: np.array(values.split(), float) for name, values in re.findall(r"(\w+)=\[([^\]]*)\]", text)}
    assert list(shown) == ["x", "v", "lhs", "rhs"]
    gauss3 = next(f for f in sm.builtin_corpus() if f.label == "gauss3")
    integral = sm.SmoothMap(3, 1, lambda y: sm.line_integral_S(sm.bilinearize(gauss3), y), "S[D[gauss3]]")
    lhs = sm.directional_derivative(integral, shown["x"], shown["v"])
    assert np.allclose(lhs, shown["lhs"], rtol=1e-5, atol=0)
    assert not np.allclose(lhs, shown["rhs"], rtol=1e-2, atol=0)


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
REL_KEYS = PARENT_STRUCTURAL_KEYS | {"L3": 1008, "L10": 50, "L22": 168, "L23": 336} | {
    "L8": 70, "L9": 169, "L11": 70, "L12": 5, "L13": 5, "L14": 15, "L15": 10, "L16": 15,
    "L17": 175, "L18": 35, "L19": 5, "L20": 60, "L21": 1,
}


def test_each_rel_law_compares_a_pinned_set_of_entries(monkeypatch):
    """A count of the entries compared, so no law can silently compare fewer; one comparison touches at most 10,000."""
    keys, largest, law = Counter(), 0, None
    column_difference, matrix_difference = wrel.ColumnOp.first_difference, wrel.WeightedMatrix.first_difference

    def count(n):
        nonlocal largest
        keys[law] += n
        largest = max(largest, n)

    def counting_columns(self, other, limit):
        count(sum(len(self.column(c).keys() | other.column(c).keys()) for c in wrel._band(self.col_space, limit)))
        return column_difference(self, other, limit)

    def counting_matrix(self, other):
        count(len(self.entries.keys() | other.entries.keys()))
        return matrix_difference(self, other)

    monkeypatch.setattr(wrel.ColumnOp, "first_difference", counting_columns)
    monkeypatch.setattr(wrel.WeightedMatrix, "first_difference", counting_matrix)
    binding = make_rel_binding(NONNEG_RATIONAL, base_size=3, truncation=6)
    for law in REL_KEYS:
        assert ls.run_law(law, binding, cases=50, seed=0).status == "pass", law
    assert keys == REL_KEYS
    assert all(keys[law] >= n for law, n in PARENT_STRUCTURAL_KEYS.items())
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
