"""Tests of the benchmark itself: the verdict gate and the tracer.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import harness
import tracing
from dctool import bindings, polyform, wrel
from harness import Workload

SMALL = {
    "poly": Workload("poly-small", "poly", ("nonneg-rational", "rational"), {"variables": 2, "max_degree": 3}),
    "rel": Workload("rel-small", "rel", ("nonneg-rational", "boolean"), {"base_size": 2, "truncation": 4}),
    "smooth": Workload("smooth-small", "smooth", ("real",), {"dim": 2, "order": 8}),
}

LAYER_OF_MODEL = {"poly": "polyform", "rel": "wrel", "smooth": "smoothnum"}


def _laws(statuses: dict) -> list:
    return [
        {"id": law_id, "status": status, "cases": 0 if status == "skipped" else 5}
        for law_id, status in statuses.items()
    ]


def _reference_laws(model, semiring) -> dict:
    skips = harness.REFERENCE_SKIPS[(model, semiring)]
    return {law_id: "skipped" if law_id in skips else "pass" for law_id in harness.ALL_LAWS}


def test_sabotaged_poly_is_flagged_on_exactly_seven_laws():
    result = harness.run_check("poly", "nonneg-rational", {"variables": 3, "max_degree": 6}, seed=42, sabotage=True)
    assert result.error is None
    assert result.wrong == ["L2", "L3", "L12", "L15", "L16", "L18", "L21"]


def test_unsabotaged_poly_passes_the_gate():
    result = harness.run_check("poly", "nonneg-rational", {"variables": 3, "max_degree": 6}, seed=42)
    assert result.ok and result.laws_checked == 23


def test_gate_flags_skip_mismatch_missing_law_and_zero_case_pass():
    statuses = _reference_laws("rel", "nonneg-rational")
    assert harness.wrong_laws("rel", "nonneg-rational", _laws(statuses)) == []
    statuses["L24"] = "pass"  # checked although the reference skips it
    statuses["L4"] = "pass"
    del statuses["L9"]
    laws = _laws(statuses)
    laws[0]["cases"] = 0  # L1 passes on zero cases
    assert harness.wrong_laws("rel", "nonneg-rational", laws) == ["L1", "L4", "L9", "L24"]


def test_escaped_exception_is_a_wrong_verdict():
    result = harness.run_check("rel", "boolean", {"base_size": 9, "truncation": 4}, seed=0)
    assert not result.ok and result.error.startswith("ValueError")


def test_traced_run_restores_every_patched_attribute():
    before = tracing.snapshot()
    originals = (wrel.mat_compose, bindings.mat_compose, polyform.Polynomial.__init__, polyform.grad)
    run, metrics = harness.measure_traced(SMALL["poly"], seed=3, seconds=0)
    assert run.failed == 0 and metrics
    after = tracing.snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is before[key] for key in before)
    assert (wrel.mat_compose, bindings.mat_compose, polyform.Polynomial.__init__, polyform.grad) == originals
    assert not hasattr(wrel.mat_compose, "__wrapped__")


def test_tracer_restores_after_an_exception():
    before = tracing.snapshot()
    try:
        with tracing.Tracer():
            raise KeyError("inside a traced region")
    except KeyError:
        pass
    assert all(tracing.snapshot()[key] is before[key] for key in before)


def _counts(metrics) -> dict:
    return {
        name: sample.value
        for name, (sample, _) in metrics.items()
        if name.endswith((".calls", ".terms_in", ".entries_in", ".map_evals"))
    }


def test_two_traced_runs_on_one_seed_count_the_same_work():
    for workload in SMALL.values():
        first = _counts(harness.measure_traced(workload, seed=5, seconds=0)[1])
        second = _counts(harness.measure_traced(workload, seed=5, seconds=0)[1])
        assert first == second, workload.name


def test_each_layer_counts_only_on_its_own_model():
    for model, workload in SMALL.items():
        run, metrics = harness.measure_traced(workload, seed=7, seconds=0)
        assert run.failed == 0
        counts = _counts(metrics)
        assert set(harness.PER_LAYER_COUNTS) <= set(counts)
        for name, value in counts.items():
            layer = name.split(".")[0]
            expected = layer == LAYER_OF_MODEL[model] or (layer == "rig" and model != "smooth")
            assert (value > 0) == expected, (model, name, value)
        assert set(metrics) == set(harness.PER_LAYER_COUNTS) | {
            f"{n}.self_s" for n in harness.PER_LAYER_SELF
        } | set(harness.PER_LAYER_TIMES) | {"trace.overhead_ratio"}
