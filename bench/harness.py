"""Workloads, the verdict gate and the measurements behind `bench/run.py`.

A check is what `dctool check <model>` does, in-process and through the same
public calls: `bindings.make_*_binding`, then `lawsuite.run_suite`, then
`cli.report_payload` and the JSON dump.  One client runs checks in a closed
loop: a check starts when the previous one ends.  Checks are grouped in
rounds of one check per semiring of the workload, in a fixed order, and every
end-to-end timing is reported as a trimmed mean over rounds of the round's
mean per check (see `Sample`), scaled to the reference host speed (see
`speed_probe`).

The benchmark always measures the dctool sources of the tree it sits in
(`<root>/src`), never an installed copy.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

if not (SRC / "dctool" / "__init__.py").is_file():
    raise SystemExit(f"bench: no dctool sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
# one BLAS thread, pinned before numpy is first imported
os.environ.update({var: BLAS_THREADS for var in BLAS_THREAD_VARS})

import numpy  # noqa: E402

import dctool  # noqa: E402
from dctool import bindings, cli, lawsuite  # noqa: E402
from dctool.rig import RIGS  # noqa: E402
from dctool.smoothnum import QuadratureConfig  # noqa: E402

CASES = 50
TRIM = 0.1  # share of samples dropped at each end by a trimmed mean
PROBE_LOOPS = 300_000
# Time of `speed_probe` on the reference host: a 2-vCPU Intel Xeon at 2.1 GHz
# with Python 3.11.7, as the trimmed mean over a run.
PROBE_REF_S = 0.025
ALL_LAWS = tuple(law.id for law in lawsuite.LAWS)

# Laws each (model, semiring) binding reports as skipped; every other law of
# the table must be checked and pass.
REFERENCE_SKIPS = {
    ("poly", "nonneg-rational"): frozenset({"L24"}),
    ("poly", "rational"): frozenset({"L24"}),
    ("rel", "nonneg-rational"): frozenset({"L4", "L24"}),
    ("rel", "boolean"): frozenset({"L4"}),
    ("smooth", "real"): frozenset(
        {"L1", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14", "L15", "L16", "L17", "L22", "L23", "L24"}
    ),
}

# The semiring `dctool check <model>` uses when none is given.
CLI_DEFAULT_SEMIRING = {"poly": "nonneg-rational", "rel": "nonneg-rational", "smooth": "real"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; BENCHMARK.json and bench/README.md say why each exists."""

    name: str
    model: str
    semirings: tuple  # one check per semiring per round, in this order
    params: dict
    # Share of a run's time spent on cold CLI checks, set so that a
    # 35-second run holds ten or more cold checks and ten or more rounds
    # where the check is short enough to allow it.
    cold_share: float = 0.2


WORKLOADS = {
    w.name: w
    for w in (
        Workload("poly-wide", "poly", ("nonneg-rational", "rational"), {"variables": 4, "max_degree": 8}, 0.4),
        Workload("rel-band", "rel", ("nonneg-rational", "boolean"), {"base_size": 3, "truncation": 6}, 0.1),
        Workload("smooth-quad", "smooth", ("real",), {"dim": 3, "order": 64}, 0.4),
    )
}


def build_binding(model: str, semiring: str, params: dict, sabotage: bool = False):
    """The binding `dctool check` would build for these flags."""
    if model == "poly":
        return bindings.make_poly_binding(
            RIGS[semiring], variables=params["variables"], max_degree=params["max_degree"], sabotage=sabotage
        )
    if model == "rel":
        return bindings.make_rel_binding(
            RIGS[semiring], base_size=params["base_size"], truncation=params["truncation"]
        )
    cfg = QuadratureConfig(order=params["order"])
    return bindings.make_smooth_binding(cfg, max_dim=params["dim"])


def wrong_laws(model: str, semiring: str, laws: list) -> list:
    """Law ids of a rendered report whose verdict differs from the reference.

    A law is wrong when it fails, when it passes on zero cases, when it is
    checked but should be skipped or the other way round, or when it is
    missing from or foreign to the law table.
    """
    skips = REFERENCE_SKIPS[(model, semiring)]
    seen = {law["id"]: law for law in laws}
    wrong = set(seen) - set(ALL_LAWS)
    for law_id in ALL_LAWS:
        law = seen.get(law_id)
        if law is None:
            wrong.add(law_id)
        elif (law["status"] == "skipped") != (law_id in skips):
            wrong.add(law_id)
        elif law["status"] == "fail" or (law["status"] == "pass" and law["cases"] < 1):
            wrong.add(law_id)
    return sorted(wrong, key=lambda i: (len(i), i))


@dataclass
class CheckResult:
    """One check: its phase times in seconds and the laws the gate flagged."""

    setup_s: float = 0.0
    suite_s: float = 0.0
    report_s: float = 0.0
    laws_ms: dict = field(default_factory=dict)
    laws_checked: int = 0
    wrong: list = field(default_factory=list)
    error: str | None = None

    @property
    def check_s(self) -> float:
        return self.setup_s + self.suite_s + self.report_s

    @property
    def ok(self) -> bool:
        return self.error is None and not self.wrong


def run_check(model: str, semiring: str, params: dict, seed: int, tracer=None, sabotage=False) -> CheckResult:
    """Build, run and render one check; the gate reads the rendered JSON back."""
    gc.collect()  # start every check from the same heap state, outside the timing
    result = CheckResult()
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    try:
        with span("check"):  # the root that every span of this check descends from
            t0 = time.perf_counter()
            with span("bindings.build"):
                binding = build_binding(model, semiring, params, sabotage)
            t1 = time.perf_counter()
            with span("lawsuite.run_suite"):
                reports = lawsuite.run_suite(binding, cases=CASES, seed=seed)
            t2 = time.perf_counter()
            with span("cli.report"):
                text = json.dumps(cli.report_payload(binding, reports, seed), indent=2)
            t3 = time.perf_counter()
    except Exception as exc:  # an escaped exception is a wrong verdict, not a crash
        result.error = f"{type(exc).__name__}: {exc}"
        return result
    result.setup_s, result.suite_s, result.report_s = t1 - t0, t2 - t1, t3 - t2
    laws = json.loads(text)["laws"]
    result.laws_ms = {law["id"]: law["ms"] for law in laws}
    result.laws_checked = sum(1 for law in laws if law["status"] != "skipped")
    result.wrong = wrong_laws(model, semiring, laws)
    return result


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cold_check(model: str, seed: int) -> tuple:
    """Wall time of a fresh `python -m dctool.cli check <model> --format json`.

    Returns (seconds, wrong law ids or an error string).
    """
    cmd = [sys.executable, "-m", "dctool.cli", "check", model, "--format", "json", "--seed", str(seed)]
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - t0, "timed out after 120 s"
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        return elapsed, f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}"
    try:
        laws = json.loads(proc.stdout)["laws"]
    except (ValueError, KeyError) as exc:
        return elapsed, f"unreadable report: {exc}"
    return elapsed, wrong_laws(model, CLI_DEFAULT_SEMIRING[model], laws)


def cli_import_s() -> float:
    """Time to import dctool.cli in a fresh interpreter, measured inside it."""
    code = "import time; t = time.perf_counter(); import dctool.cli; print(time.perf_counter() - t)"
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=cli_env(), capture_output=True, text=True, timeout=60, check=True
    )
    return float(proc.stdout.strip())


def git_commit() -> str:
    """The commit of the tree, read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def env_stamp(workload: str, seed: int) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "dctool": dctool.__version__,
        "commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg": list(os.getloadavg()),
    }


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes: a gauge of the host's current speed.

    The speed of a shared host drifts by a third to a half over tens of
    seconds, for every process on it alike, and a run of half a minute
    cannot average that out.  The probe runs before every timed check and
    every cold check.  Each timing is then reported as its wall time times
    `PROBE_REF_S / probe time`, with both times trimmed means over the run:
    the time the check would take on the reference host.  The probe is code of
    the benchmark, not of dctool, so a change to dctool cannot move it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class Sample:
    """A summary of one list of values: its value, quartiles and count.

    The value is the median, or with `trimmed=True` the mean of the values
    left after dropping the lowest and highest `TRIM` share.  Wall times use
    the trimmed mean.  A shared host switches between a fast and a slow
    speed every few seconds; the median of such a mixture jumps to one
    speed or the other, while the mean follows the mix, so the trimmed mean
    of a run spreads less from run to run.
    """

    value: float
    n: int
    q1: float
    q3: float
    stat: str = "median"

    @classmethod
    def of(cls, values, trimmed=False):
        values = sorted(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = values[0]
        if not trimmed:
            return cls(statistics.median(values), len(values), q1, q3)
        k = int(TRIM * len(values))
        return cls(statistics.fmean(values[k:len(values) - k]), len(values), q1, q3, f"{TRIM:.0%}-trimmed mean")

    def scaled(self, factor: float):
        return Sample(self.value * factor, self.n, self.q1 * factor, self.q3 * factor, self.stat)


@dataclass
class Run:
    """Everything one benchmark invocation observed, before it becomes metrics."""

    workload: Workload
    seed: int
    rounds: list = field(default_factory=list)  # list of list[CheckResult], timed
    cold: list = field(default_factory=list)  # wall times of cold CLI checks
    probes: list = field(default_factory=list)  # speed_probe times, one before each untraced or cold check
    attempted: int = 0
    failures: list = field(default_factory=list)  # human-readable lines

    def __post_init__(self):
        self._seeds = random.Random(f"{self.workload.name}:{self.seed}")

    def next_seed(self) -> int:
        return self._seeds.randrange(2**31)

    def record(self, label: str, result: CheckResult) -> None:
        self.attempted += 1
        if result.error:
            self.failures.append(f"{label}: exception {result.error}")
        elif result.wrong:
            self.failures.append(f"{label}: wrong verdict on {', '.join(result.wrong)}")

    def check_round(self, seed: int, tracer=None) -> list:
        w = self.workload
        results = []
        for semiring in w.semirings:
            if tracer is None:
                self.probes.append(speed_probe())
            result = run_check(w.model, semiring, w.params, seed, tracer=tracer)
            self.record(f"{w.model}/{semiring} seed {seed}", result)
            results.append(result)
        return results

    def timed_rounds(self, seconds: float, min_rounds: int, between=None) -> list:
        """Closed-loop rounds for `seconds`, at least `min_rounds`; only rounds without failures count.

        `between(elapsed)` runs after each round, inside the time budget.
        Stops before a round that would, at the mean round time so far, end
        after `seconds`.
        """
        start = time.perf_counter()
        seeds, done = [], 0
        while done < min_rounds or (time.perf_counter() - start) * (done + 1) / done <= seconds:
            seed = self.next_seed()
            results = self.check_round(seed)
            done += 1
            if all(r.ok for r in results):
                self.rounds.append(results)
                seeds.append(seed)
            if between is not None:
                between(time.perf_counter() - start)
        return seeds

    @property
    def failed(self) -> int:
        return len(self.failures)


def round_mean(results, attr) -> float:
    return sum(getattr(r, attr) for r in results) / len(results)


def measure(workload: Workload, seed: int, seconds: float) -> tuple:
    """The untraced run: returns (Run, end-to-end metrics as name -> (Sample, unit))."""
    run = Run(workload, seed)
    # warm-up: one untimed check, so lazy imports and allocator growth are done
    run.record("warm-up", run_check(workload.model, workload.semirings[0], workload.params, run.next_seed()))

    # Cold checks take the workload's share of the run, spread between the
    # rounds: the speed of a shared host drifts over seconds, and one block
    # of cold checks would sample a single moment of it.
    cold_s = 0.0

    def cold_checks(elapsed):
        nonlocal cold_s
        while cold_s < workload.cold_share * elapsed:
            s = run.next_seed()
            run.probes.append(speed_probe())
            took, wrong = cold_check(workload.model, s)
            cold_s += took
            run.attempted += 1
            if wrong:
                run.failures.append(f"cold {workload.model} seed {s}: {wrong}")
            else:
                run.cold.append(took)

    run.timed_rounds(seconds, min_rounds=3, between=cold_checks)
    metrics = {}
    if run.rounds and run.cold:
        checks = [r for rnd in run.rounds for r in rnd]
        speed = PROBE_REF_S / Sample.of(run.probes, trimmed=True).value

        def timing(values):
            return Sample.of(values, trimmed=True).scaled(speed), "s"

        metrics = {
            "check_s": timing(round_mean(rnd, "check_s") for rnd in run.rounds),
            "setup_s": timing(round_mean(rnd, "setup_s") for rnd in run.rounds),
            "cold_check_s": timing(run.cold),
            "peak_rss_mb": (Sample.of([peak_rss_mb()]), "MB"),
            "verdict_ok_ratio": (Sample.of([(run.attempted - run.failed) / run.attempted]), "ratio"),
            "laws_checked": (Sample.of([statistics.fmean(r.laws_checked for r in checks)]), "count"),
        }
    return run, metrics


PER_LAYER_COUNTS = (
    "rig.add.calls", "rig.mul.calls", "rig.eq.calls", "rig.nat_value.calls", "rig.nat_inverse.calls",
    "polyform.init.calls", "polyform.terms_in",
    "wrel.init.calls", "wrel.entries_in", "wrel.mat_compose.calls",
    "smoothnum.line_integral_S.calls", "smoothnum.fd_directional_derivative.calls", "smoothnum.map_evals",
)
PER_LAYER_SELF = (
    "polyform.init", "polyform.mul", "polyform.add", "polyform.grad", "polyform.substitute",
    "polyform.apply_linear", "polyform.s_op",
    "wrel.init", "wrel.mat_compose", "wrel.tensor", "wrel.perm_matrix", "wrel.points", "wrel.first_difference",
    "smoothnum.line_integral_S", "smoothnum.fd_directional_derivative",
)
PER_LAYER_TIMES = (
    "bindings.build_s", *(f"law.{i}_s" for i in ALL_LAWS), "lawsuite.overhead_s", "cli.report_s", "cli.import_s",
)


def measure_traced(workload: Workload, seed: int, seconds: float, spans_path=None) -> tuple:
    """The traced run: untraced rounds for half the time, then one traced round.

    Counts and self times come from the traced round, which reuses the seed
    of the first untraced round, so two traced runs on one seed count the
    same work.  Build, per-law, suite-overhead and report times are medians
    over the untraced rounds of the round's total.
    """
    from tracing import Tracer

    run = Run(workload, seed)
    run.record("warm-up", run_check(workload.model, workload.semirings[0], workload.params, run.next_seed()))
    seeds = run.timed_rounds(seconds / 2.0, min_rounds=1)
    metrics = {}
    if not run.rounds:
        return run, metrics

    tracer = Tracer()
    with tracer:
        traced = run.check_round(seeds[0], tracer=tracer)
    if spans_path is not None:
        tracer.write_spans(spans_path)

    counts = tracer.counts
    for name in PER_LAYER_COUNTS:
        metrics[name] = (Sample.of([counts.get(name, 0)]), "count")
    self_s = tracer.self_times()
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = (Sample.of([self_s.get(name, 0.0)]), "s")

    def over_rounds(fn):
        return Sample.of(fn(rnd) for rnd in run.rounds)

    metrics["bindings.build_s"] = (over_rounds(lambda rnd: sum(r.setup_s for r in rnd)), "s")
    for law_id in ALL_LAWS:
        metrics[f"law.{law_id}_s"] = (
            over_rounds(lambda rnd: sum(r.laws_ms.get(law_id, 0.0) for r in rnd) / 1000.0), "s"
        )
    metrics["lawsuite.overhead_s"] = (
        over_rounds(lambda rnd: sum(r.suite_s - sum(r.laws_ms.values()) / 1000.0 for r in rnd)), "s"
    )
    metrics["cli.report_s"] = (over_rounds(lambda rnd: sum(r.report_s for r in rnd)), "s")
    metrics["cli.import_s"] = (Sample.of(cli_import_s() for _ in range(3)), "s")
    untraced_s = sum(r.check_s for r in run.rounds[0])
    metrics["trace.overhead_ratio"] = (Sample.of([sum(r.check_s for r in traced) / untraced_s]), "ratio")
    return run, metrics
