"""Exact commutative semirings (rigs) used as coefficient domains.

Every coefficient that flows through the polynomial and matrix layers is an
opaque value owned by one of these rig instances.  All arithmetic is exact:
rationals are `fractions.Fraction`, booleans are plain `bool`.  No floating
point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class NotInvertible(Exception):
    """nat_inverse(k) has no solution in the given rig."""

    def __init__(self, rig_name: str, k: int):
        super().__init__(f"{k} (as a sum of ones) is not invertible in {rig_name}")
        self.rig_name = rig_name
        self.k = k


class Rig:
    """A commutative semiring with decidable exact equality.

    Subclasses fix the element representation and provide `zero`, `one`,
    `add`, `mul`, `eq` and a seeded `sample`.  Values are immutable; every
    operation is pure.  `is_zero` and `nat_value` have generic definitions
    here; a subclass may override them with a closed form that agrees.
    """

    name: str = "abstract"
    idempotent: bool = False
    has_negatives: bool = False

    zero: object
    one: object

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def eq(self, a, b) -> bool:
        return a == b

    def is_zero(self, a) -> bool:
        return self.eq(a, self.zero)

    def sample(self, rng):
        """Draw a small element, deterministic per rng state."""
        raise NotImplementedError

    def render(self, a) -> str:
        return str(a)

    def nat_value(self, k: int):
        """The element 1 + 1 + ... + 1 (k times); k = 0 gives zero."""
        if k < 0:
            raise ValueError("nat_value requires k >= 0")
        acc = self.zero
        for _ in range(k):
            acc = self.add(acc, self.one)
        return acc

    def nat_inverse(self, k: int):
        """An element r with r * nat_value(k) = one, for k >= 1."""
        raise NotInvertible(self.name, k)


class NonNegRationalRig(Rig):
    """Non-negative rationals with exact arbitrary-precision arithmetic."""

    name = "nonneg-rational"

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return not a

    def sample(self, rng):
        return Fraction(rng.randrange(0, 8), rng.randrange(1, 7))

    def nat_value(self, k: int):
        if k < 0:
            raise ValueError("nat_value requires k >= 0")
        return Fraction(k)

    def nat_inverse(self, k: int):
        if k < 1:
            raise ValueError("nat_inverse requires k >= 1")
        return Fraction(1, k)


class RationalRig(NonNegRationalRig):
    """Full rational field; supplies negatives where a test needs subtraction."""

    name = "rational"
    has_negatives = True

    def sample(self, rng):
        return Fraction(rng.randrange(-7, 8), rng.randrange(1, 7))

    def neg(self, a):
        return -a


class BooleanRig(Rig):
    """The two-element rig: add = or, mul = and.  Additively idempotent."""

    name = "boolean"
    idempotent = True

    zero = False
    one = True

    def add(self, a, b):
        return a or b

    def mul(self, a, b):
        return a and b

    def is_zero(self, a) -> bool:
        return not a

    def sample(self, rng):
        return rng.random() < 0.5

    def nat_value(self, k: int):
        if k < 0:
            raise ValueError("nat_value requires k >= 0")
        return k > 0

    def render(self, a) -> str:
        return "1" if a else "0"

    def nat_inverse(self, k: int):
        if k < 1:
            raise ValueError("nat_inverse requires k >= 1")
        # one * nat_value(k) = one since 1 + 1 = 1
        return self.one


NONNEG_RATIONAL = NonNegRationalRig()
RATIONAL = RationalRig()
BOOLEAN = BooleanRig()

RIGS = {r.name: r for r in (NONNEG_RATIONAL, RATIONAL, BOOLEAN)}


class AxiomResult(NamedTuple):
    axiom: str
    passed: bool
    counterexample: str | None


def rig_laws_check(rig: Rig, samples: int = 100, seed: int = 0) -> list[AxiomResult]:
    """Evaluate the commutative-semiring axioms on seeded random triples.

    Returns one result per axiom, with a rendered counterexample on failure.
    Also cross-checks the `idempotent` flag against the instance's actual
    behaviour.
    """
    import random

    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = random.Random(seed)
    triples = [(rig.sample(rng), rig.sample(rng), rig.sample(rng)) for _ in range(samples)]

    axioms = [
        ("add-associative", lambda a, b, c: rig.eq(rig.add(rig.add(a, b), c), rig.add(a, rig.add(b, c)))),
        ("add-commutative", lambda a, b, c: rig.eq(rig.add(a, b), rig.add(b, a))),
        ("add-zero-unit", lambda a, b, c: rig.eq(rig.add(a, rig.zero), a)),
        ("mul-associative", lambda a, b, c: rig.eq(rig.mul(rig.mul(a, b), c), rig.mul(a, rig.mul(b, c)))),
        ("mul-commutative", lambda a, b, c: rig.eq(rig.mul(a, b), rig.mul(b, a))),
        ("mul-one-unit", lambda a, b, c: rig.eq(rig.mul(a, rig.one), a)),
        ("distributivity", lambda a, b, c: rig.eq(rig.mul(a, rig.add(b, c)), rig.add(rig.mul(a, b), rig.mul(a, c)))),
        ("zero-annihilates", lambda a, b, c: rig.is_zero(rig.mul(a, rig.zero))),
    ]

    results = []
    for name, law in axioms:
        bad = None
        for a, b, c in triples:
            if not law(a, b, c):
                bad = f"a={rig.render(a)} b={rig.render(b)} c={rig.render(c)}"
                break
        results.append(AxiomResult(name, bad is None, bad))

    idem = rig.eq(rig.add(rig.one, rig.one), rig.one)
    results.append(
        AxiomResult(
            "idempotent-flag",
            idem == rig.idempotent,
            None if idem == rig.idempotent else f"1+1={'1' if idem else '!=1'} but flag says {rig.idempotent}",
        )
    )
    return results
