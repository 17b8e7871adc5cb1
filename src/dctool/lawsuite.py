"""The closed table of operator laws and the model-generic suite runner.

Each law is a pair of operator composites, and a model binding answers every
law: by the law's row of the table (the binding's `equations`), by a
deterministic check of its own, or by a skip reason for a law it
deliberately does not check.  A check is a callable `(rng, cases)` that
yields, for each case it checks in turn, the case's rendered counterexample
or None when the case holds.  `run_law` is the only reader of these results:
it stops at the first counterexample, and a law's `cases` counts the cases
read up to and including it.  A check that yields no case fails.  The runner
always runs every law of the table, so one failure never hides another: an
exception raised inside a check fails that law with `cases` 0 and the
exception as its counterexample.

The operator-algebra laws L2, L5, L8-L20 and L24 are written once, in their
rows of the law table `LAWS`: each row names the object the law is stated on
and a generator of (lhs, rhs, label) equations between composites of d, d°,
s, !(0), K, J, K^{-1}, J^{-1}, the zero operator and the unit monoidal maps
m_{R,A} and m_R x 1, taken from an `Operators` set on that object and the
one on the monoidal unit R.  A composite is written as its citation reads,
`f @ g` for f;g, in matrix-vector order (f;g applied to v is f(g(v))), so
"s_R J_R^{-1} d_R + !(0)" is `s @ x1(J_inv) @ d + bang0`.  The constant rule
(L2), d;e = 0, reads e through !(0), which is e after the counit, as
d;!(0) = 0.  The unit reconstructions (L14, L17) move a unit operator f to
the object A along `via_unit`: tag each bag with its size, apply f to the
tag, forget the tag.  The linear rule (L5), d;eps = e x 1, reads eps as d°
on the pairs ((), x), where e x 1 is !(0) x 1, and the unit monoidal laws
(L10) state m_R d° = m_R on the unit set.  The Poincare condition (L20),
d;s;f = f for a symmetric f, is stated on the exact maps f = d;g, which are
the symmetric maps the models generate, as d;s;d = d.  The idempotent
collapse (L24) is s = d°; a binding over a rig that is not additively
idempotent skips it.
Each model supplies its operator sets and one comparison, and chooses the
inputs of the table laws itself: the relational model evaluates both sides,
untruncated, on one column per orbit of the atom permutations among those
of at most D - MARGIN atoms and compares every row they reach, whatever
`cases` asks, and its naturality law (L23) checks that every operator it
supplies commutes with those permutations on every column, the premise that
makes one column per orbit enough; the polynomial model applies both
sides to every monomial up to the degree that a basis of `cases` inputs
reaches, one seeded monomial of each higher degree up to its maximum
degree, and five huge-exponent probes (`polyform.table_inputs`).  Neither
reaches a defect at one exponent pattern (a bag, a monomial) that no input
hits: a bag above D - MARGIN atoms, or a monomial above the basis degree
that no seeded input is.  The smooth model evaluates both sides at seeded
probe points of its corpus maps and compares them to a tolerance; it has
d, d°, s, !(0) and zero but no K, J, inverses or unit monoidal maps, so it
answers L2, L5 and L18-L20 by their rows and skips the laws that read the
others.  The polynomial and the smooth model wrap each operator as an `Op`.
The other laws need operators the sets do not have (Delta, sigma, chi) or
take random maps, so each binding states them itself, all but the Taylor
property (L21), d f = d g implies f + !(0) g = g + !(0) f.  L21 is written
once, as the generator `taylor`, at one generic pair, f = 0 and
g = f + !(0)h with h = 1: any pair g = f + !(0)h is this one composed with
h, with f added to both sides, where it cancels, so its equations are the
constant rule's d;!(0) = 0 and the idempotence !(0);!(0) = !(0).  Its row
has no equations, since the benchmark reads rel's L21 through matrices:
the polynomial and the smooth binding apply their table-law check to
`taylor`, and the relational binding evaluates `taylor` on a copy of its
operator set whose d, !(0) and zero are matrices over the bags of at most
D atoms.  The relational binding writes each of the other laws as
(lhs, rhs, label) equations between its column operators and compares them
as it compares the table laws.  The polynomial binding writes each of them
as equations too, over inputs it draws per case, and one rule compares and
renders them and the table laws alike.

Each model's binding ends that model's module (`polyform.make_poly_binding`,
`wrel.make_rel_binding`, `smoothnum.make_smooth_binding`), so a run imports
only the model it checks.
"""

from __future__ import annotations

import random
import time
from functools import partial
from types import MappingProxyType
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple


class UnboundOperator(Exception):
    """A binding answers a law by nothing: no check, no table row and no skip."""


class Operators(NamedTuple):
    """One model's operators on one object, for the equations of the table laws.

    Operators compose with `@`, `f @ g` being f;g, that is g then f, and add
    with `+`; `x1(f)` is f x 1.  `zero` is the zero operator from bags to the
    values of d, the right side of the constant rule (L2).  The unit monoidal
    maps: `gate` = m_{R,A} tags each bag with its size, `spread` = m_R x 1
    forgets the tag, `tag(f)` = f x 1 applies a unit-set operator f on bare
    unit bags to the tag, and `atom` is bags = bags x atoms on the one-point
    base (None on any other base).  A model leaves None an
    operator that only the laws it skips read.
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
    zero: Any
    gate: Any
    spread: Any
    atom: Any
    tag: Callable[[Any], Any]
    x1: Callable[[Any], Any]


class Op:
    """An operator `fn` on inputs of type `src`, which each model names (poly: ("poly", arity), ...).

    `f + g` adds the two values, and `f @ g` is f;g, that is g then f, on g's inputs.
    """

    def __init__(self, src, fn: Callable):
        self.src, self.fn = src, fn

    def __add__(self, other: "Op") -> "Op":
        return Op(self.src, lambda v: self.fn(v) + other.fn(v))

    def __matmul__(self, other: "Op") -> "Op":
        f, g = self.fn, other.fn
        return Op(other.src, lambda v: f(g(v)))


def via_unit(o: Operators, f):
    """The unit-set operator f moved to the object of `o`: (m_R x 1)(f x 1) m_{R,A}."""
    return o.spread @ o.tag(f) @ o.gate


def _unit_j_inv(o: Operators, u: Operators):
    """J^{-1} from unit integration, (m_R x 1)(s_R x 1) m_{R,A}."""
    return via_unit(o, u.s @ u.atom)


def _constant(o: Operators, u: Operators):
    # d;e = 0 read through !(0), which is e after the counit
    yield o.d @ o.bang0, o.zero, "derivative of a constant is nonzero"


def taylor(o: Operators, u: Operators):
    # d f = d g implies f + !(0) g = g + !(0) f, at the generic pair f = 0, g = !(0): its premise is the
    # constant rule and its conclusion the idempotence of !(0)
    yield from _constant(o, u)
    yield o.bang0 @ o.bang0, o.bang0, "Taylor fails: !(0) is not idempotent"


def _linear(o: Operators, u: Operators):
    # d;eps = e x 1 read through !(0) x 1, which keeps the pairs ((), x)
    constant = o.x1(o.bang0)
    yield o.d @ o.dc @ constant, constant, "derivative of a linear map is not constant"


def _unit_monoidal(o: Operators, u: Operators):
    # spread is m_R x 1, and gate tags a bag of one atom with eps's bag [*] and
    # the empty bag with e's [], so the cited m_R eps = 1 and m_R e = 1 are the
    # first equation at the bags of one atom and of none
    yield o.spread @ o.gate, o.id, "m_R x 1 does not split m_{R,A}"
    yield u.spread @ u.tag(u.dc @ u.atom), u.spread, "m_R is not fixed by the unit coderive"


def _inverses(o: Operators, u: Operators):
    # K and J are built as d°;d + !(0) and d°;d + 1 and their inverses are the
    # closed-form degree scalings, so each equation holds exactly when the
    # built operator is the degree scaling the citation defines
    for name, op, inv in (("K", o.K, o.K_inv), ("J", o.J, o.J_inv)):
        yield op @ inv, o.id, f"{name};{name}^{{-1}} is not the identity"


def _ftc2(o: Operators, u: Operators):
    yield o.s @ o.d + o.bang0, o.id, "second fundamental theorem fails"


def _absorption(o: Operators, u: Operators):
    for name, op in (("K", o.K), ("J", o.J)):
        yield op @ o.bang0, o.bang0, f"{name} does not absorb the empty-bag projection"
        yield o.bang0 @ op, o.bang0, f"empty-bag projection does not absorb {name}"
    yield o.K @ o.dc, o.dc @ o.x1(o.J), "K/coderive intertwining fails"
    yield o.d @ o.K, o.x1(o.J) @ o.d, "derive/K intertwining fails"


def _unit_pairing(o: Operators, u: Operators):
    for name, unit_op, op in (("K", u.K, o.K), ("J", u.J, o.J)):
        yield o.tag(unit_op) @ o.gate, o.gate @ op, f"{name} does not respect the unit pairing"


def _s_against_j(o: Operators, u: Operators):
    yield o.s @ o.x1(o.J), o.dc, "s;(J x 1) differs from the coderive"


def _j_inverse(o: Operators, u: Operators):
    yield _unit_j_inv(o, u), o.J_inv, "unit J-inverse formula fails"
    yield o.J @ o.J_inv, o.id, "J;J^{-1} is not the identity"
    yield o.J_inv @ o.J, o.id, "J^{-1};J is not the identity"


def _kinv_formula(o: Operators):
    return o.s @ o.x1(o.J_inv) @ o.d + o.bang0


def _k_inverse(o: Operators, u: Operators):
    yield _kinv_formula(o), o.K_inv, "unit K-inverse formula fails"
    yield o.K_inv @ o.dc, o.s, "K^{-1};d° differs from unit integration"


def _round_trip(o: Operators, u: Operators):
    kinv = _kinv_formula(o)
    yield kinv @ o.K, o.id, "constructed inverse fails on the left"
    yield o.K @ kinv, o.id, "constructed inverse fails on the right"
    yield o.K_inv @ o.dc @ o.d + o.bang0, o.id, "extracted integral violates the fundamental theorem"


def _reconstruction(o: Operators, u: Operators):
    # K_R^{-1}, not _kinv_formula(u): L15 already ties the two together, and
    # the formula reads d, so a broken derivative would fail this law too
    kinv = via_unit(o, u.K_inv)
    yield kinv, o.K_inv, "reconstructed K-inverse differs"
    yield _unit_j_inv(o, u), o.J_inv, "reconstructed J-inverse differs"
    yield kinv @ o.dc, o.s, "reconstructed integral differs"


def _ftc1(o: Operators, u: Operators):
    yield o.d @ o.s, o.x1(o.id), "first fundamental theorem fails"


def _poincare(o: Operators, u: Operators):
    # every symmetric f the models generate is exact, f = d;g, and d;s;f = f
    # holds for every g exactly when d;s;d = d
    yield o.d @ o.s @ o.d, o.d, "derivative of the integral loses the field"


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
    Law("L2", "constant rule", "d ; e = 0  (derivative of a constant vanishes)", "general", _constant),
    Law("L3", "Leibniz rule", "d ; Delta = (Delta x 1)(1 x sigma)(d x 1) + (Delta x 1)(1 x d)"),
    Law("L4", "chain rule", "D[g o f](x, v) = D[g](f(x), D[f](x, v))"),
    Law("L5", "linear rule", "d ; eps = e x 1  (derivative of a linear map is constant)", "general", _linear),
    Law("L6", "interchange rule", "(d x 1) ; d = (1 x sigma)(d x 1) ; d"),
    Law("L7", "derive/coderive exchange", "d ; d° = (d° x 1)(1 x sigma)(d x 1) + 1"),
    Law("L8", "K and J definitions", "K = d° ; d + !(0)   and   J = d° ; d + 1", "general", _inverses),
    Law("L9", "K/J absorption and intertwining", "K !(0) = !(0) = !(0) K;  K d° = d° (J x 1);  d K = (J x 1) d", "general", _absorption),
    Law("L10", "unit monoidal laws", "(m_R x 1) m_{R,A} = 1;  m_R eps = 1;  m_R e = 1;  m_R d° = m_R", "general", _unit_monoidal),
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


class ModelBinding(NamedTuple):
    """Everything the runner needs: per-law checks, skips, and metadata.

    A binding answers every law of `LAWS`: by its skip if it has one, else
    by the law's table row through `equations` when both exist, else by its
    check.  Each check is a `LawCheck`: `check(rng, cases)` yields one
    rendered counterexample, or None, per case it checks, and builds each
    case only when the runner reads it, so the runner can stop at the first
    counterexample.  The `cases` argument asks for a run size; each model
    spreads it over its inputs in its own way, and the report counts the
    cases the runner read.  `equations(law, at, rng, cases)`, when given,
    is the model's check for every law whose `LAWS` row has equations, with
    the same yield: it checks the (lhs, rhs, label) equations `law(o, u)`
    yields, where o is the model's operator set `at`, "general" or "unit",
    and u its unit set.  A check of a law whose row has equations is never
    read when the binding has `equations`.  Bindings build it positionally:
    right after a garbage collection, when a build is timed, a keyword call
    costs a microsecond more.
    """

    name: str
    semiring: str
    checks: Mapping[str, LawCheck]
    # the defaults are read-only, so no two bindings share a mutable mapping
    skips: Mapping[str, str] = MappingProxyType({})
    params: Mapping[str, object] = MappingProxyType({})
    equations: Callable[..., Iterable[str | None]] | None = None


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
    if binding.equations and law.equations:  # the row, never a check of its own
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
    """Run every row of `LAWS`, in table order; a law the binding answers by nothing raises `UnboundOperator`."""
    return [run_law(law.id, binding, cases, seed) for law in LAWS]


def all_pass(reports) -> bool:
    return all(r.status != "fail" for r in reports)
