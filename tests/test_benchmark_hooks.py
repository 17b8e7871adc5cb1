"""The benchmark traces the program from outside by patching its names; each one must still be there.

`bench/tracing.py` replaces every `(owner, attr)` of its `patch_points()` with
a counting wrapper, so a traced run crashes when one of them is renamed away,
and a per-layer count reads 0 when its name is no longer called.
"""

import importlib.util
import sys
from pathlib import Path

from dctool.lawsuite import run_suite
from dctool.rig import NONNEG_RATIONAL
from dctool.wrel import WeightedMatrix, make_rel_binding

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_attribute_the_benchmark_tracer_patches_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # read bench/, write nothing there
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    points = tracing.patch_points()
    assert points
    assert [(owner, attr) for owner, attr in points if not hasattr(owner, attr)] == []


def test_a_rel_suite_calls_the_public_matrix_constructor(monkeypatch):
    # the benchmark's `wrel.init` metric counts these calls on the rel workloads
    calls = []
    init = WeightedMatrix.__init__

    def counting(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(WeightedMatrix, "__init__", counting)
    run_suite(make_rel_binding(NONNEG_RATIONAL), cases=10, seed=0)
    assert calls
