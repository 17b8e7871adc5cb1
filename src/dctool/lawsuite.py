"""The closed table of operator laws and the model-generic suite runner.

Each law is a pair of operator composites; a model binding supplies one
deterministic check per law it supports (and a skip reason for laws it
deliberately does not).  The runner evaluates checks on seeded inputs,
short-circuits a law on its first counterexample, but always runs every law
in the binding so one failure never hides another.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping


class UnboundOperator(Exception):
    """A binding claims a law it has no check for."""


@dataclass(frozen=True)
class Law:
    id: str
    name: str
    citation: str  # the equation or rule the law asserts, in operator notation


LAWS: tuple[Law, ...] = (
    Law("L1", "comonoid / substitution unit", "Delta cocommutative comonoid; coKleisli composition associative and unital"),
    Law("L2", "constant rule", "d ; e = 0  (derivative of a constant vanishes)"),
    Law("L3", "Leibniz rule", "d ; Delta = (Delta x 1)(1 x sigma)(d x 1) + (Delta x 1)(1 x d)"),
    Law("L4", "chain rule", "D[g o f](x, v) = D[g](f(x), D[f](x, v))"),
    Law("L5", "linear rule", "d ; eps = e x 1  (derivative of a linear map is constant)"),
    Law("L6", "interchange rule", "(d x 1) ; d = (1 x sigma)(d x 1) ; d"),
    Law("L7", "derive/coderive exchange", "d ; d° = (d° x 1)(1 x sigma)(d x 1) + 1"),
    Law("L8", "K and J definitions", "K = d° ; d + !(0)   and   J = d° ; d + 1"),
    Law("L9", "K/J absorption and intertwining", "K !(0) = !(0) = !(0) K;  K d° = d° (J x 1);  d K = (J x 1) d"),
    Law("L10", "unit monoidal laws", "(m_R x 1) m_{R,A} = 1;  m_R eps = 1;  m_R e = 1;  m_R d° = m_R"),
    Law("L11", "K/J respect the unit pairing", "(K_R x 1) m_{R,A} = m_{R,A} K_A  (and the J version)"),
    Law("L12", "second fundamental theorem at the unit", "s_R d_R + !(0) = 1"),
    Law("L13", "s against J", "s_R J_R = d°_R"),
    Law("L14", "J inverse from unit integration", "J_R^{-1} = (m_R x 1)(s_R x 1) m_{R,R}"),
    Law("L15", "K inverse from unit integration", "K_R^{-1} = s_R J_R^{-1} d_R + !(0);  s_R = K_R^{-1} d°_R"),
    Law("L16", "unit round-trip", "s_R with s_R d_R + !(0) = 1 inverts K_R, and K_R^{-1} d°_R satisfies the same identity"),
    Law("L17", "reconstruction from the unit", "K^{-1}, J^{-1}, s rebuilt from s_R equal the direct operators"),
    Law("L18", "second fundamental theorem", "s d + !(0) = 1  on every object"),
    Law("L19", "first fundamental theorem at the unit", "d_R s_R = 1"),
    Law("L20", "Poincare condition", "symmetric f implies d ; s ; f = f"),
    Law("L21", "Taylor property", "d f = d g implies f + !(0) g = g + !(0) f"),
    Law("L22", "bag/variable splitting is invertible", "chi ; chi^{-1} = 1 = chi^{-1} ; chi"),
    Law("L23", "naturality of the derivative", "d commutes with relabelling along linear/base maps"),
    Law("L24", "idempotent collapse of the integral", "additively idempotent coefficients: s = d°"),
)

LAW_BY_ID = {law.id: law for law in LAWS}


@dataclass
class CheckOutcome:
    passed: bool
    cases: int
    counterexample: str | None = None


# A check takes (rng, cases) and returns a CheckOutcome.
LawCheck = Callable[[random.Random, int], CheckOutcome]


@dataclass
class ModelBinding:
    """Everything the runner needs: per-law checks, skips, and metadata."""

    name: str
    semiring: str
    exact: bool
    checks: Mapping[str, LawCheck]
    skips: Mapping[str, str] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)

    @property
    def mask(self):
        return set(self.checks) | set(self.skips)


@dataclass
class LawReport:
    law_id: str
    citation: str
    model: str
    status: str  # pass | fail | skipped
    cases: int
    counterexample: str | None
    ms: float
    exact: bool
    skip_reason: str | None = None

    def to_dict(self) -> dict:
        out = {
            "id": self.law_id,
            "citation": self.citation,
            "status": self.status,
            "cases": self.cases,
            "ms": self.ms,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.skip_reason is not None:
            out["skip_reason"] = self.skip_reason
        return out


def run_law(law_id: str, binding: ModelBinding, cases: int, seed: int) -> LawReport:
    """Evaluate one law; deterministic per (binding, seed, cases)."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    law = LAW_BY_ID[law_id]
    if law_id in binding.skips:
        return LawReport(
            law_id, law.citation, binding.name, "skipped", 0, None, 0.0, binding.exact,
            skip_reason=binding.skips[law_id],
        )
    check = binding.checks.get(law_id)
    if check is None:
        raise UnboundOperator(f"{binding.name} has no check bound for {law_id}")
    rng = random.Random(f"{seed}:{law_id}")
    t0 = time.perf_counter()
    outcome = check(rng, cases)
    ms = (time.perf_counter() - t0) * 1000.0
    status = "pass" if outcome.passed else "fail"
    return LawReport(
        law_id, law.citation, binding.name, status, outcome.cases, outcome.counterexample,
        ms, binding.exact,
    )


def run_suite(binding: ModelBinding, cases: int = 50, seed: int = 0) -> list[LawReport]:
    """Run every law in the binding's mask, in table order."""
    return [run_law(law.id, binding, cases, seed) for law in LAWS if law.id in binding.mask]


def all_pass(reports) -> bool:
    return all(r.status != "fail" for r in reports)
