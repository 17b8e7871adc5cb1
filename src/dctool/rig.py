"""Exact commutative semirings (rigs) used as coefficient domains.

Every coefficient that flows through the polynomial and matrix layers is an
opaque value owned by one of these rig instances.  All arithmetic is exact:
a rational is an `int` when it is integral and a `fractions.Fraction`
otherwise (Python mixes the two exactly, and both render alike), booleans are
plain `bool`.  So the natural-number weights of the operators (multiplicities,
identities, comultiplication entries) stay `int` and never pay for a
`Fraction` product.  No floating point enters this module.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import NamedTuple


class NotInvertible(Exception):
    """nat_inverse(k) has no solution in the given rig."""

    def __init__(self, rig_name: str, k: int):
        super().__init__(f"{k} (as a sum of ones) is not invertible in {rig_name}")
        self.rig_name = rig_name
        self.k = k


def randbelow(rng, n: int) -> int:
    """`rng.randrange(n)` by the same draws, CPython 3.10-3.13's `_randbelow_with_getrandbits` loop.

    A width n < 1 raises a `ValueError`, where the loop would never end.
    """
    if n < 1:
        raise ValueError(f"empty range for a draw below {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class Rig:
    """A commutative semiring with decidable exact equality.

    Subclasses fix the element representation and provide `zero`, `one`,
    `add`, `mul`, `eq` and a seeded `draw`, which `sample` joins.  Values
    are immutable; every operation is pure.  Values equal under `==` are
    equal elements, so a caller may compare whole collections of them with
    `==` before it asks `eq`.  `is_zero` and `nat_value` have
    generic definitions here; a subclass may override them with a closed
    form that agrees.

    The polynomial and matrix layers test a coefficient for zero only where a
    zero can appear (the rule of `accumulate`), and rely on three properties
    that `rig_laws_check` checks as axioms:

    - no zero divisors: a * b = 0 only if a = 0 or b = 0, so a product of
      nonzero coefficients is never dropped;
    - nat values are nonzero: nat_value(k) != 0 for k >= 1, so a
      multiplicity never vanishes;
    - zero-sum-free unless `has_negatives`: a + b = 0 only if a = b = 0, so
      only a sum over a rig with negatives can cancel.
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

    def draw(self, rng):
        """A small element drawn from `rng`, as the (n, d) of `split`."""
        raise NotImplementedError

    def sample(self, rng):
        """The joined `draw`: a small element, deterministic per rng state."""
        return self.join(*self.draw(rng))

    def render(self, a) -> str:
        return str(a)

    def split(self, c):
        """`c` as (n, d), a numerator of this rig and a positive int, with join(n, d) = c.

        The polynomial layer keeps one d per polynomial, adds and multiplies
        numerators with `add` and `mul` and compares them with `==`, so the
        numerators must be closed under both and `==` must be their equality.
        A rig whose d can exceed 1 needs `int` numerators, which that layer
        also scales, cross-multiplies and reduces as ints.  Every coefficient
        enters that layer here: a value that is not an element of the rig
        raises a `ValueError` that names it.  This generic rig takes every
        value as its own numerator over d = 1.
        """
        return c, 1

    def join(self, n, d: int):
        """The element n / d, for a numerator n and a d made from `split` results by int arithmetic."""
        return n

    def nat_value(self, k: int):
        """The element 1 + 1 + ... + 1 (k times); k = 0 gives zero.

        Summed by doubling, in at most 2 * k.bit_length() - 1 additions.
        """
        if k < 0:
            raise ValueError("nat_value requires k >= 0")
        acc, power = self.zero, self.one
        while k:
            if k & 1:
                acc = self.add(acc, power)
            k >>= 1
            if k:
                power = self.add(power, power)
        return acc

    def nat_inverse(self, k: int):
        """An element r with r * nat_value(k) = one, for k >= 1."""
        raise NotInvertible(self.name, k)


def _small(q: Fraction):
    """q as an `int` when it is integral, else q itself."""
    return q.numerator if q.denominator == 1 else q


class NonNegRationalRig(Rig):
    """Non-negative rationals with exact arbitrary-precision arithmetic."""

    name = "nonneg-rational"
    low, span = 0, 8  # `draw` gives n / d for n uniform in low .. low + span - 1 and d in 1 .. 6

    zero = 0
    one = 1

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return not a

    def draw(self, rng):
        n, d = self.low + randbelow(rng, self.span), 1 + randbelow(rng, 6)
        g = gcd(n, d)
        return n // g, d // g

    def split(self, c):
        # an int is its own numerator over 1; a bool is not a rational here
        if isinstance(c, (int, Fraction)) and not isinstance(c, bool) and (self.has_negatives or c >= 0):
            return c.numerator, c.denominator
        raise ValueError(f"coefficient {c!r} is not an element of {self.name}")

    def join(self, n, d: int):
        return n if d == 1 else _small(Fraction(n, d))

    def nat_value(self, k: int):
        if k < 0:
            raise ValueError("nat_value requires k >= 0")
        return k

    def nat_inverse(self, k: int):
        if k < 1:
            raise ValueError("nat_inverse requires k >= 1")
        return _small(Fraction(1, k))


class RationalRig(NonNegRationalRig):
    """Full rational field; supplies negatives where a test needs subtraction."""

    name = "rational"
    has_negatives = True
    low, span = -7, 15

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

    def draw(self, rng):
        return rng.random() < 0.5, 1

    def nat_value(self, k: int):
        if k < 0:
            raise ValueError("nat_value requires k >= 0")
        return k > 0

    def render(self, a) -> str:
        return "1" if a else "0"

    def split(self, c):
        if type(c) is not bool:
            raise ValueError(f"coefficient {c!r} is not an element of {self.name}")
        return c, 1

    def nat_inverse(self, k: int):
        if k < 1:
            raise ValueError("nat_inverse requires k >= 1")
        # one * nat_value(k) = one since 1 + 1 = 1
        return self.one


def accumulate(rig: Rig, into: dict, pairs) -> dict:
    """`into`, mapping keys to nonzero values of `rig`, with each (key, value) of `pairs` added; returned.

    The zero rule of both exact models: a value is nonzero when it enters, so
    only a sum at a key already present can vanish, and only over a rig with
    `has_negatives`.  There the sum is tested and a zero one deletes its key;
    a later value at that key is inserted afresh.
    """
    add, is_zero = rig.add, rig.is_zero if rig.has_negatives else None
    for k, v in pairs:
        if k in into:
            v = add(into[k], v)
            if is_zero is not None and is_zero(v):
                del into[k]
                continue
        into[k] = v
    return into


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
    Besides the semiring axioms it checks the three properties the zero rule
    of the polynomial and matrix layers relies on (see `Rig`), the
    nat-value one for k = 1 .. `samples`, and cross-checks the `idempotent`
    flag against the instance's actual behaviour.
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
    # properties of a pair, checked on every pair of sampled values: a zero
    # product or sum of two random draws is rare
    pair_axioms = [
        ("no-zero-divisors", lambda a, b: not rig.is_zero(rig.mul(a, b)) or rig.is_zero(a) or rig.is_zero(b)),
        (
            "zero-sum-free-unless-negatives",
            lambda a, b: rig.has_negatives or not rig.is_zero(rig.add(a, b)) or (rig.is_zero(a) and rig.is_zero(b)),
        ),
    ]

    results = []
    for name, law in axioms:
        bad = None
        for a, b, c in triples:
            if not law(a, b, c):
                bad = f"a={rig.render(a)} b={rig.render(b)} c={rig.render(c)}"
                break
        results.append(AxiomResult(name, bad is None, bad))
    values = [x for triple in triples for x in triple]
    for name, law in pair_axioms:
        bad = next(
            (f"a={rig.render(a)} b={rig.render(b)}" for a, b in combinations(values, 2) if not law(a, b)), None
        )
        results.append(AxiomResult(name, bad is None, bad))

    vanishing = next((k for k in range(1, samples + 1) if rig.is_zero(rig.nat_value(k))), None)
    results.append(
        AxiomResult("nat-values-nonzero", vanishing is None, None if vanishing is None else f"nat_value({vanishing}) = 0")
    )

    idem = rig.eq(rig.add(rig.one, rig.one), rig.one)
    results.append(
        AxiomResult(
            "idempotent-flag",
            idem == rig.idempotent,
            None if idem == rig.idempotent else f"1+1={'1' if idem else '!=1'} but flag says {rig.idempotent}",
        )
    )
    return results
