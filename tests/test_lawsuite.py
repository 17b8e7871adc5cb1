"""Suite runner: table closure, determinism, masks, and the negative control."""

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
    assert "L24" in rel_bool.checks
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
    assert set(ls.OPERATOR_LAWS) == {"L8", "L9", "L11", "L12", "L13", "L14", "L15", "L16", "L17", "L18", "L19", "L20"}
    for binding in (make_poly_binding(RATIONAL, variables=2, max_degree=4), make_rel_binding(RATIONAL)):
        for law_id in ls.OPERATOR_LAWS:
            assert ls.run_law(law_id, binding, cases=10, seed=0).status == "pass", (binding.name, law_id)


@pytest.mark.parametrize("name", ["K", "J", "K_inv", "J_inv"])
def test_doubling_K_J_or_an_inverse_fails_L8_in_both_exact_models(monkeypatch, name):
    """L8 is K;K^{-1} = 1 = J;J^{-1}, so a doubled operator on either side fails it."""

    def doubled(op):
        def twice(*args):
            r = op(*args)
            return r + r

        return twice

    monkeypatch.setattr(pf, f"{name}_op", doubled(getattr(pf, f"{name}_op")))
    monkeypatch.setattr(wrel, f"{name}_rel", doubled(getattr(wrel, f"{name}_rel")))
    op = name[0]
    for binding in (make_poly_binding(NONNEG_RATIONAL), make_rel_binding(NONNEG_RATIONAL)):
        report = ls.run_law("L8", binding, cases=10, seed=0)
        assert report.status == "fail", (binding.name, name)
        assert report.counterexample.startswith(f"{op};{op}^{{-1}} is not the identity"), report.counterexample


def test_integral_weighted_by_one_over_n_plus_one_fails_the_second_fundamental_theorem(monkeypatch):
    """s weighted by 1/(n+1) instead of 1/n, patched in before the bindings are built."""

    def s_op_mutant(b):
        return pf.J_inv_op(pf.mul_in(b))

    def s_rel_mutant(base, rig, trunc):
        bags = wrel.BagSpace(base, trunc.D)
        entries = {
            (b, (wrel.bag_remove(b, x), x)): rig.nat_inverse(len(b) + 1) for b in bags.points() for x in set(b)
        }
        return wrel.WeightedMatrix(rig, bags, wrel.PairSpace(bags, wrel.AtomSpace(base)), entries)

    def statuses():
        bindings = (make_poly_binding(NONNEG_RATIONAL), make_rel_binding(NONNEG_RATIONAL))
        return [{law_id: ls.run_law(law_id, b, cases=10, seed=0).status for law_id in ("L12", "L18")} for b in bindings]

    assert statuses() == [{"L12": "pass", "L18": "pass"}] * 2
    monkeypatch.setattr(pf, "s_op", s_op_mutant)
    monkeypatch.setattr(wrel, "s_rel", s_rel_mutant)
    assert statuses() == [{"L12": "fail", "L18": "fail"}] * 2
    # every law that reads s fails, in both models, and no other law does
    for binding in (make_poly_binding(NONNEG_RATIONAL), make_rel_binding(NONNEG_RATIONAL)):
        failing = [r.law_id for r in ls.run_suite(binding, cases=10, seed=0) if r.status == "fail"]
        assert failing == [f"L{n}" for n in range(12, 21)], (binding.name, failing)


def test_comultiplication_weighting_one_two_splits_fails_exactly_the_comonoid_and_leibniz_laws(monkeypatch):
    """Delta weights the splits with |b1| = 1 and |b2| = 2 by 2: L1 and L3 still see it in the safe band."""
    comonoid_rel = wrel.comonoid_rel

    def comonoid_mutant(base, rig, trunc):
        com = comonoid_rel(base, rig, trunc)
        entries = {
            (b, (b1, b2)): rig.nat_value(2) if (len(b1), len(b2)) == (1, 2) else v
            for (b, (b1, b2)), v in com.delta.entries.items()
        }
        delta = wrel.WeightedMatrix(rig, com.delta.row_space, com.delta.col_space, entries)
        return wrel.Comonoid(delta, com.counit, com.eps)

    monkeypatch.setattr(wrel, "comonoid_rel", comonoid_mutant)
    for rig in (NONNEG_RATIONAL, RATIONAL):
        reports = ls.run_suite(make_rel_binding(rig, base_size=3, truncation=6), cases=10, seed=0)
        failing = {r.law_id: r.counterexample for r in reports if r.status == "fail"}
        assert failing == {
            "L1": "comultiplication not coassociative: entry ([a,a,a], ([a], ([a], [a]))): 1 != 2",
            "L3": "Leibniz fails: entry (([a,a], a), ([a], [a,a])): 6 != 3",
        }, rig.name


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

    # The validating constructor and the trusted one of relabel, restrict_rows and the identities.
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
