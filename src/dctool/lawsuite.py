"""The closed table of operator laws and the model-generic suite runner.

Each law is a pair of operator composites; a model binding supplies one
deterministic check per law it supports (and a skip reason for laws it
deliberately does not).  A check is a callable `(rng, cases)` that yields, for
each case it checks in turn, the case's rendered counterexample or None when
the case holds.  `run_law` is the only reader of these results: it stops at
the first counterexample, and a law's `cases` counts the cases read up to and
including it.  A check that yields no case fails.  The runner always runs
every law in the binding so one failure never hides another: an exception
raised inside a check fails that law with `cases` 0 and the exception as its
counterexample.

The operator-algebra laws L8, L9, L11-L20 and L24 are written once, in their
rows of the law table `LAWS`: each row names the object the law is stated on
and a generator of (lhs, rhs, label) equations between composites of d, d°,
s, !(0), K, J, K^{-1}, J^{-1} and the unit monoidal maps m_{R,A} and
m_R x 1, taken from an `Operators` set on that object and the one on the
monoidal unit R.  Composites read in matrix-vector order (`f;g` applied to v
is f(g(v))).  The unit reconstructions (L14, L17) move a unit operator f to
the object A along `via_unit`: tag each bag with its size, apply f to the
tag, forget the tag.  The Poincare condition (L20), d;s;f = f for a
symmetric f, is stated on the exact maps f = d;g, which are the symmetric
maps the models generate, as d;s;d = d.  The idempotent collapse (L24) is
s = d°; a binding over a rig that is not additively idempotent skips it.
Each exact model supplies both operator sets and one equality check: the
relational model evaluates both sides, untruncated, on every column of at
most D - MARGIN atoms and compares every row they reach; the polynomial model
applies both sides to seeded inputs.  The smooth model has no operator sets;
its L18-L20 compare the two sides of the same equations, `_ftc2`, `_ftc1`
and `_poincare`, at probe points.  The other laws need operators the sets do
not have (Delta, sigma, e and eps, chi) or take premises or random maps, so
each binding states them itself.  The relational binding writes each of them
but the Taylor property (L21) as (lhs, rhs, label) equations between its
column operators and compares them as it compares the table laws; L21 draws
random maps and compares matrices.

Each model's binding ends that model's module (`polyform.make_poly_binding`,
`wrel.make_rel_binding`, `smoothnum.make_smooth_binding`), so a run imports
only the model it checks; the exact bindings share `repeat_case`.
"""

from __future__ import annotations

import random
import time
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple


class UnboundOperator(Exception):
    """A binding claims a law it has no check for."""


class Operators(NamedTuple):
    """One model's operators on one object, for the equations of the table laws.

    `seq(f, g)` is g then f, `x1(f)` is f x 1, and composites add with `+`.
    The unit monoidal maps: `gate` = m_{R,A} tags each bag with its size,
    `spread` = m_R x 1 forgets the tag, `tag(f)` = f x 1 applies a unit-set
    operator f on bare unit bags to the tag, and `atom` is bags = bags x atoms
    on the one-point base (None on any other base).
    """

    d: Any
    dc: Any  # d°
    s: Any
    bang0: Any  # !(0)
    K: Any
    J: Any
    K_inv: Any
    J_inv: Any
    id: Any  # identity on bags
    gate: Any
    spread: Any
    atom: Any
    tag: Callable[[Any], Any]
    seq: Callable[[Any, Any], Any]
    x1: Callable[[Any], Any]


def via_unit(o: Operators, f):
    """The unit-set operator f moved to the object of `o`: (m_R x 1)(f x 1) m_{R,A}."""
    return o.seq(o.spread, o.seq(o.tag(f), o.gate))


def _unit_j_inv(o: Operators, u: Operators):
    """J^{-1} from unit integration, (m_R x 1)(s_R x 1) m_{R,A}."""
    return via_unit(o, u.seq(u.s, u.atom))


def _inverses(o: Operators, u: Operators):
    # K and J are built as d°;d + !(0) and d°;d + 1 and their inverses are the
    # closed-form degree scalings, so each equation holds exactly when the
    # built operator is the degree scaling the citation defines
    for name, op, inv in (("K", o.K, o.K_inv), ("J", o.J, o.J_inv)):
        yield o.seq(op, inv), o.id, f"{name};{name}^{{-1}} is not the identity"


def _ftc2(o: Operators, u: Operators):
    yield o.seq(o.s, o.d) + o.bang0, o.id, "second fundamental theorem fails"


def _absorption(o: Operators, u: Operators):
    for name, op in (("K", o.K), ("J", o.J)):
        yield o.seq(op, o.bang0), o.bang0, f"{name} does not absorb the empty-bag projection"
        yield o.seq(o.bang0, op), o.bang0, f"empty-bag projection does not absorb {name}"
    yield o.seq(o.K, o.dc), o.seq(o.dc, o.x1(o.J)), "K/coderive intertwining fails"
    yield o.seq(o.d, o.K), o.seq(o.x1(o.J), o.d), "derive/K intertwining fails"


def _unit_pairing(o: Operators, u: Operators):
    for name, unit_op, op in (("K", u.K, o.K), ("J", u.J, o.J)):
        yield o.seq(o.tag(unit_op), o.gate), o.seq(o.gate, op), f"{name} does not respect the unit pairing"


def _s_against_j(o: Operators, u: Operators):
    yield o.seq(o.s, o.x1(o.J)), o.dc, "s;(J x 1) differs from the coderive"


def _j_inverse(o: Operators, u: Operators):
    yield _unit_j_inv(o, u), o.J_inv, "unit J-inverse formula fails"
    yield o.seq(o.J, o.J_inv), o.id, "J;J^{-1} is not the identity"
    yield o.seq(o.J_inv, o.J), o.id, "J^{-1};J is not the identity"


def _kinv_formula(o: Operators):
    return o.seq(o.seq(o.s, o.x1(o.J_inv)), o.d) + o.bang0


def _k_inverse(o: Operators, u: Operators):
    yield _kinv_formula(o), o.K_inv, "unit K-inverse formula fails"
    yield o.seq(o.K_inv, o.dc), o.s, "K^{-1};d° differs from unit integration"


def _round_trip(o: Operators, u: Operators):
    kinv = _kinv_formula(o)
    yield o.seq(kinv, o.K), o.id, "constructed inverse fails on the left"
    yield o.seq(o.K, kinv), o.id, "constructed inverse fails on the right"
    yield o.seq(o.seq(o.K_inv, o.dc), o.d) + o.bang0, o.id, "extracted integral violates the fundamental theorem"


def _reconstruction(o: Operators, u: Operators):
    # K_R^{-1}, not _kinv_formula(u): L15 already ties the two together, and
    # the formula reads d, so a broken derivative would fail this law too
    kinv = via_unit(o, u.K_inv)
    yield kinv, o.K_inv, "reconstructed K-inverse differs"
    yield _unit_j_inv(o, u), o.J_inv, "reconstructed J-inverse differs"
    yield o.seq(kinv, o.dc), o.s, "reconstructed integral differs"


def _ftc1(o: Operators, u: Operators):
    yield o.seq(o.d, o.s), o.x1(o.id), "first fundamental theorem fails"


def _poincare(o: Operators, u: Operators):
    # every symmetric f the models generate is exact, f = d;g, and d;s;f = f
    # holds for every g exactly when d;s;d = d
    yield o.seq(o.seq(o.d, o.s), o.d), o.d, "derivative of the integral loses the field"


def _collapse(o: Operators, u: Operators):
    yield o.s, o.dc, "integral does not collapse to the coderive"


class Law(NamedTuple):
    """One row of the law table.

    A table law also names the object its equations are stated on, `at`
    ("general" or "unit"), and `equations(o, u)`, the generator of its
    (lhs, rhs, label) equations on that object's operators o and the unit's u.
    """

    id: str
    name: str
    citation: str  # the equation or rule the law asserts, in operator notation
    at: str | None = None
    equations: Callable[[Operators, Operators], Iterator[tuple]] | None = None


LAWS: tuple[Law, ...] = (
    Law("L1", "comonoid / substitution unit", "Delta cocommutative comonoid; coKleisli composition associative and unital"),
    Law("L2", "constant rule", "d ; e = 0  (derivative of a constant vanishes)"),
    Law("L3", "Leibniz rule", "d ; Delta = (Delta x 1)(1 x sigma)(d x 1) + (Delta x 1)(1 x d)"),
    Law("L4", "chain rule", "D[g o f](x, v) = D[g](f(x), D[f](x, v))"),
    Law("L5", "linear rule", "d ; eps = e x 1  (derivative of a linear map is constant)"),
    Law("L6", "interchange rule", "(d x 1) ; d = (1 x sigma)(d x 1) ; d"),
    Law("L7", "derive/coderive exchange", "d ; d° = (d° x 1)(1 x sigma)(d x 1) + 1"),
    Law("L8", "K and J definitions", "K = d° ; d + !(0)   and   J = d° ; d + 1", "general", _inverses),
    Law("L9", "K/J absorption and intertwining", "K !(0) = !(0) = !(0) K;  K d° = d° (J x 1);  d K = (J x 1) d", "general", _absorption),
    Law("L10", "unit monoidal laws", "(m_R x 1) m_{R,A} = 1;  m_R eps = 1;  m_R e = 1;  m_R d° = m_R"),
    Law("L11", "K/J respect the unit pairing", "(K_R x 1) m_{R,A} = m_{R,A} K_A  (and the J version)", "general", _unit_pairing),
    Law("L12", "second fundamental theorem at the unit", "s_R d_R + !(0) = 1", "unit", _ftc2),
    Law("L13", "s against J", "s_R J_R = d°_R", "unit", _s_against_j),
    Law("L14", "J inverse from unit integration", "J_R^{-1} = (m_R x 1)(s_R x 1) m_{R,R}", "unit", _j_inverse),
    Law("L15", "K inverse from unit integration", "K_R^{-1} = s_R J_R^{-1} d_R + !(0);  s_R = K_R^{-1} d°_R", "unit", _k_inverse),
    Law("L16", "unit round-trip", "s_R with s_R d_R + !(0) = 1 inverts K_R, and K_R^{-1} d°_R satisfies the same identity", "unit", _round_trip),
    Law("L17", "reconstruction from the unit", "K^{-1} and s = K^{-1} d° rebuilt from K_R^{-1}, and J^{-1} from s_R, equal the direct operators", "general", _reconstruction),
    Law("L18", "second fundamental theorem", "s d + !(0) = 1  on every object", "general", _ftc2),
    Law("L19", "first fundamental theorem at the unit", "d_R s_R = 1", "unit", _ftc1),
    Law("L20", "Poincare condition", "symmetric f implies d ; s ; f = f", "general", _poincare),
    Law("L21", "Taylor property", "d f = d g implies f + !(0) g = g + !(0) f"),
    Law("L22", "bag/variable splitting is invertible", "chi ; chi^{-1} = 1 = chi^{-1} ; chi"),
    Law("L23", "naturality of the derivative", "d commutes with relabelling along linear/base maps"),
    Law("L24", "idempotent collapse of the integral", "additively idempotent coefficients: s = d°", "general", _collapse),
)

LAW_BY_ID = {law.id: law for law in LAWS}


# A check takes (rng, cases) and yields a counterexample or None per case checked.
LawCheck = Callable[[random.Random, int], Iterable[str | None]]


def repeat_case(rng, cases, one_case):
    """The counterexamples (or None) of `cases` seeded runs of one_case, each drawn when read."""
    return (one_case(rng) for _ in range(cases))


class ModelBinding(NamedTuple):
    """Everything the runner needs: per-law checks, skips, and metadata.

    Each check is a `LawCheck`: `check(rng, cases)` yields one rendered
    counterexample, or None, per case it checks, and builds each case only
    when the runner reads it, so the runner can stop at the first
    counterexample.  The `cases` argument asks for a run size; each model
    spreads it over its inputs in its own way, and the report counts the
    cases the runner read.  `equations(law, at, rng, cases)`, when given,
    is the model's check for every law whose `LAWS` row has equations, with
    the same yield: it checks the (lhs, rhs, label) equations `law(o, u)`
    yields, where o is the model's operator set `at`, "general" or "unit",
    and u its unit set.  A table law has no entry in `checks`, which would
    override its row.  Bindings build it positionally: right after a garbage
    collection, when a build is timed, a keyword call costs a microsecond more.
    """

    name: str
    semiring: str
    checks: Mapping[str, LawCheck]
    # the defaults are read-only, so no two bindings share a mutable mapping
    skips: Mapping[str, str] = MappingProxyType({})
    params: Mapping[str, object] = MappingProxyType({})
    equations: Callable[..., Iterable[str | None]] | None = None

    @property
    def mask(self):
        table = {law.id for law in LAWS if law.equations} if self.equations else set()
        return set(self.checks) | set(self.skips) | table


class LawReport(NamedTuple):
    law_id: str
    citation: str
    status: str  # pass | fail | skipped
    cases: int
    counterexample: str | None
    ms: float
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
        return LawReport(law_id, law.citation, "skipped", 0, None, 0.0, binding.skips[law_id])
    check = binding.checks.get(law_id)
    if check is None and binding.equations and law.equations:
        check = partial(binding.equations, law.equations, law.at)
    if check is None:
        raise UnboundOperator(f"{binding.name} has no check bound for {law_id}")
    rng = random.Random(f"{seed}:{law_id}")
    read, counterexample = 0, None
    t0 = time.perf_counter()
    try:
        for read, counterexample in enumerate(check(rng, cases), 1):
            if counterexample:
                break
        else:
            counterexample = None if read else "no case was checked"
    except Exception as exc:  # a crashing check fails its own law only
        read, counterexample = 0, f"raised {type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    status = "fail" if counterexample else "pass"
    return LawReport(law_id, law.citation, status, read, counterexample, ms)


def run_suite(binding: ModelBinding, cases: int = 50, seed: int = 0) -> list[LawReport]:
    """Run every law in the binding's mask, in table order."""
    mask = binding.mask
    return [run_law(law.id, binding, cases, seed) for law in LAWS if law.id in mask]


def all_pass(reports) -> bool:
    return all(r.status != "fail" for r in reports)
