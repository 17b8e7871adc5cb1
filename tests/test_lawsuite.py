"""Suite runner: table closure, determinism, masks, and the negative control."""

from collections import Counter
from functools import partial

import pytest

import dctool.lawsuite as ls
import dctool.polyform as pf
import dctool.wrel as wrel
from dctool import cli
from dctool.polyform import _asymmetry, make_poly_binding
from dctool.rig import BOOLEAN, NONNEG_RATIONAL, RATIONAL
from dctool.smoothnum import NonFinite, make_smooth_binding
from dctool.wrel import make_rel_binding


def test_law_table_is_closed_and_annotated():
    assert len(ls.LAWS) == 24
    assert [law.id for law in ls.LAWS] == [f"L{i}" for i in range(1, 25)]
    for law in ls.LAWS:
        assert law.name.strip()
        assert law.citation.strip()
    assert set(ls.LAW_BY_ID) == {law.id for law in ls.LAWS}


def test_masks_cover_the_table():
    poly = make_poly_binding(NONNEG_RATIONAL)
    rel = make_rel_binding(NONNEG_RATIONAL)
    rel_bool = make_rel_binding(BOOLEAN)
    smooth = make_smooth_binding()
    all_ids = {law.id for law in ls.LAWS}
    assert poly.mask == all_ids
    assert rel.mask == all_ids
    assert rel_bool.mask == all_ids
    assert smooth.mask == all_ids
    assert set(poly.skips) == {"L24"}
    assert set(rel.skips) == {"L4", "L24"}
    assert set(rel_bool.skips) == {"L4"}
    assert "L24" not in rel_bool.checks  # its LAWS row checks it
    assert set(smooth.checks) == {"L2", "L3", "L4", "L5", "L6", "L18", "L19", "L20", "L21"}


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
    assert (l24.status, l24.cases) == ("pass", 10)


def test_both_exact_models_evaluate_the_operator_table():
    table = [law.id for law in ls.LAWS if law.equations]
    assert table == ["L8", "L9", "L11", "L12", "L13", "L14", "L15", "L16", "L17", "L18", "L19", "L20", "L24"]
    # the rational rigs skip L24, so the boolean bindings run it
    for rig in (RATIONAL, BOOLEAN):
        for binding in (make_poly_binding(rig, variables=2, max_degree=4), make_rel_binding(rig)):
            for law_id in table:
                expected = "skipped" if law_id == "L24" and not rig.idempotent else "pass"
                assert ls.run_law(law_id, binding, cases=10, seed=0).status == expected, (binding.name, rig.name, law_id)


def test_no_exact_binding_overrides_a_table_law():
    """`run_law` prefers a binding's own check, which would silently replace the table's equations."""
    table = {law.id for law in ls.LAWS if law.equations}
    for rig in (NONNEG_RATIONAL, RATIONAL, BOOLEAN):
        for binding in (make_poly_binding(rig), make_rel_binding(rig)):
            assert not table & set(binding.checks), (binding.name, rig.name)


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
    return wrel.ColumnOp(rig, o.s.col_space, lambda c: {wrel.bag_add(*c): rig.nat_inverse(len(c[0]) + 2)})


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

    assert [(r.status, r.cases) for r in l24()] == [("pass", 1), ("pass", 10)]
    _mutate_rel_operators(monkeypatch, s=_s_without_row_a)
    monkeypatch.setattr(pf, "s_op", s_op_mutant)
    rel, poly = l24()
    label = "integral does not collapse to the coderive: "
    assert (rel.status, rel.cases, rel.counterexample) == ("fail", 1, label + "entry ([a], ([], a)): 0 != 1")
    assert (poly.status, poly.cases) == ("fail", 4)
    assert poly.counterexample.startswith(label + "input = ")


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


def _eps_reaching_a_pair(com):
    rig = com.eps.rig
    return com._replace(eps=wrel.ColumnOp(rig, com.eps.col_space, lambda x: {(x, x): rig.one}))


def _delta_without_lopsided_splits(com):
    """Delta without the splits (b1, b2) with |b1| > |b2| + 1."""
    delta = com.delta.column
    return com._replace(
        delta=wrel.ColumnOp(com.delta.rig, com.delta.col_space, lambda c: {} if len(c[0]) > len(c[1]) + 1 else delta(c))
    )


def _chi_inv_splitting_off_the_first_atom(seely):
    chi, chi_inv = seely
    return chi, wrel.ColumnOp(chi_inv.rig, chi_inv.col_space, lambda b: {(b[:1], b[1:]): chi_inv.rig.one})


def _m_R_weighted_size_plus_one(m_R):
    rig = m_R.rig
    return wrel.ColumnOp(rig, m_R.col_space, lambda n: {wrel.UNIT_POINT: rig.nat_value(len(n) + 1)})


def _d_doubled_removing_the_smallest_atom(o, rig):
    d = o.d.column
    return wrel.ColumnOp(
        rig, o.d.col_space, lambda b: {(r, x): rig.add(w, w) if x == b[0] else w for (r, x), w in d(b).items()}
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
    "counit-reaching-a": (partial(_mutate_rel, name="comonoid_rel", mutant=_counit_reaching_a), ["L1", "L2"]),
    "eps-reaching-a-pair": (partial(_mutate_rel, name="comonoid_rel", mutant=_eps_reaching_a_pair), ["L5"]),
    "delta-without-lopsided-splits": (
        partial(_mutate_rel, name="comonoid_rel", mutant=_delta_without_lopsided_splits), ["L1", "L3"]
    ),
    "chi-inverse-splitting-off-the-first-atom": (
        partial(_mutate_rel, name="seely_rel", mutant=_chi_inv_splitting_off_the_first_atom), ["L22"]
    ),
    "m_R-weighted-size-plus-one": (partial(_mutate_rel, name="m_R_rel", mutant=_m_R_weighted_size_plus_one), ["L10"]),
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
        partial(_mutate_rel_operators, dc=_dc_doubled_on_the_first_atom), ["L7", "L10", "L13", "L15", "L16", "L17"]
    ),
}


@pytest.mark.parametrize("mutate, failing", REL_MUTANTS.values(), ids=REL_MUTANTS)
def test_each_rel_operator_mutant_fails_exactly_its_laws(monkeypatch, mutate, failing):
    """The operator mutants of the relational model, each failing a fixed set of laws at base 3, D 6."""
    mutate(monkeypatch)
    reports = ls.run_suite(make_rel_binding(NONNEG_RATIONAL, base_size=3, truncation=6), cases=50, seed=0)
    assert [r.law_id for r in reports if r.status == "fail"] == failing


def test_every_law_the_rel_binding_checks_fails_under_a_named_mutant():
    # L24, which only the boolean binding checks, fails under the broken integral of
    # test_a_broken_integral_fails_the_collapse_law_in_both_exact_models
    caught = {law_id for _, failing in REL_MUTANTS.values() for law_id in failing} | {"L24"}
    checked = set()
    for rig in (NONNEG_RATIONAL, BOOLEAN):
        binding = make_rel_binding(rig, base_size=3, truncation=6)
        checked |= binding.mask - set(binding.skips)
    assert caught == checked


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
PARENT_STRUCTURAL_KEYS = {
    "L1": 995, "L2": 0, "L3": 918, "L5": 3, "L6": 90, "L7": 225, "L10": 42, "L22": 124, "L23": 300,
}
REL_KEYS = PARENT_STRUCTURAL_KEYS | {"L3": 1008, "L22": 168} | {
    "L8": 70, "L9": 169, "L11": 70, "L12": 5, "L13": 5, "L14": 15, "L15": 10, "L16": 15,
    "L17": 175, "L18": 35, "L19": 5, "L20": 60, "L21": 390,
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

    def counting_matrix(self, other, limit):
        band = [
            (r, c)
            for r, c in self.entries.keys() | other.entries.keys()
            if wrel.point_weight(self.row_space, r) <= limit and wrel.point_weight(self.col_space, c) <= limit
        ]
        count(len(band))
        return matrix_difference(self, other, limit)

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

    # The validating constructor of L21's random maps and the trusted one of everything else.
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
    checks["L2"] = raises
    binding = ls.ModelBinding(name="fragile", semiring="none", checks=checks)
    reports = ls.run_suite(binding, cases=3, seed=0)
    assert [r.law_id for r in reports] == [law.id for law in ls.LAWS]
    by_id = {r.law_id: r for r in reports}
    assert (by_id["L2"].status, by_id["L2"].counterexample) == ("fail", "raised NonFinite: probe returned nan")
    assert all(r.status == "pass" for r in reports if r.law_id != "L2")

    monkeypatch.setattr(cli, "_make_binding", lambda args: binding)
    assert cli.main(["check", "smooth"]) == 1
    assert "raised NonFinite" in capsys.readouterr().out


def _one_law_binding(check):
    return ls.ModelBinding(name="fake", semiring="none", checks={"L2": check})


def test_a_check_that_yields_no_case_fails():
    report = ls.run_law("L2", _one_law_binding(lambda rng, cases: iter(())), cases=5, seed=0)
    assert (report.status, report.cases, report.counterexample) == ("fail", 0, "no case was checked")


def test_the_runner_stops_at_the_first_counterexample_and_counts_the_cases_read():
    evaluated = []

    def check(rng, cases):
        for n in range(1, cases + 1):
            evaluated.append(n)
            yield f"case {n} fails" if n >= 3 else None

    report = ls.run_law("L2", _one_law_binding(check), cases=10, seed=0)
    assert (report.status, report.cases, report.counterexample) == ("fail", 3, "case 3 fails")
    assert evaluated == [1, 2, 3]


def test_a_check_that_raises_after_passing_cases_reads_zero_cases():
    def check(rng, cases):
        yield None
        yield None
        raise NonFinite("third probe returned nan")

    report = ls.run_law("L2", _one_law_binding(check), cases=10, seed=0)
    assert (report.status, report.cases) == ("fail", 0)
    assert report.counterexample == "raised NonFinite: third probe returned nan"


def test_poly_asymmetry_scan_finds_the_first_asymmetric_pair():
    x = [pf.Polynomial.variable(NONNEG_RATIONAL, 3, i) for i in range(3)]
    zero = pf.Polynomial.zero(NONNEG_RATIONAL, 3)
    assert _asymmetry(pf.grad(x[0] * x[1] * x[2])) is None
    # d_2 b_1 = 1 but d_1 b_2 = 0; the pairs (0, 1) and (0, 2) are symmetric
    assert _asymmetry(pf.PolyBundle((zero, x[2], zero))) == (1, 2)
    assert _asymmetry(pf.PolyBundle((x[2], x[2], zero))) == (0, 2)


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
    assert set(smooth_by_dim[1].skips) == set(smooth_by_dim[3].skips) | {"L6", "L20"}


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


def test_skip_report_shape():
    binding = make_rel_binding(NONNEG_RATIONAL)
    report = ls.run_law("L4", binding, cases=1, seed=0)
    assert report.status == "skipped"
    assert report.cases == 0
    assert report.skip_reason
    payload = report.to_dict()
    assert payload["status"] == "skipped"
    assert "counterexample" not in payload
