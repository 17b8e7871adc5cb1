"""Semiring layer: frozen examples, axiom checker, and negative controls."""

import random
import re
from fractions import Fraction

import pytest
import stream_oracle

from dctool.rig import (
    BOOLEAN,
    NONNEG_RATIONAL,
    RATIONAL,
    RIGS,
    NotInvertible,
    NonNegRationalRig,
    RationalRig,
    BooleanRig,
    Rig,
    rig_laws_check,
)

ALL_RIGS = (NONNEG_RATIONAL, RATIONAL, BOOLEAN)


def test_nat_value_examples():
    assert NONNEG_RATIONAL.nat_value(3) == Fraction(3)
    assert BOOLEAN.nat_value(5) is True
    for rig in ALL_RIGS:
        assert rig.eq(rig.nat_value(0), rig.zero)
        assert rig.eq(rig.nat_value(1), rig.one)


def test_nat_value_is_additive_and_multiplicative():
    for rig in ALL_RIGS:
        for a in range(6):
            for b in range(6):
                assert rig.eq(rig.nat_value(a + b), rig.add(rig.nat_value(a), rig.nat_value(b)))
                assert rig.eq(rig.nat_value(a * b), rig.mul(rig.nat_value(a), rig.nat_value(b)))


def test_nat_value_closed_forms_equal_the_sum_of_ones():
    for rig in ALL_RIGS:
        ones = rig.zero
        for k in range(65):
            for value in (rig.nat_value(k), Rig.nat_value(rig, k)):
                assert rig.eq(value, ones), (rig.name, k)
                assert type(value) is type(ones), (rig.name, k)
            ones = rig.add(ones, rig.one)


def test_generic_nat_value_adds_by_doubling():
    class Counting(NonNegRationalRig):
        nat_value = Rig.nat_value
        adds = 0

        def add(self, a, b):
            self.adds += 1
            return super().add(a, b)

    rig = Counting()
    assert rig.nat_value(10**13) == 10**13
    assert rig.adds <= 2 * 44


def test_nat_value_rejects_negative_k():
    for rig in ALL_RIGS:
        with pytest.raises(ValueError):
            rig.nat_value(-1)


def test_is_zero_agrees_with_eq_zero():
    rng = random.Random(3)
    for rig in ALL_RIGS:
        values = [rig.sample(rng) for _ in range(200)] + [rig.zero, rig.one]
        values += [False] if rig is BOOLEAN else [Fraction(0), Fraction(0, 5)]
        assert any(rig.eq(a, rig.zero) for a in values) and not all(rig.eq(a, rig.zero) for a in values)
        for a in values:
            assert rig.is_zero(a) == rig.eq(a, rig.zero) == Rig.is_zero(rig, a), (rig.name, a)


def test_nat_inverse_examples():
    assert NONNEG_RATIONAL.nat_inverse(4) == Fraction(1, 4)
    assert BOOLEAN.eq(BOOLEAN.mul(BOOLEAN.nat_inverse(7), BOOLEAN.nat_value(7)), BOOLEAN.one)
    for rig in ALL_RIGS:
        assert rig.eq(rig.nat_inverse(1), rig.one)
        for k in range(1, 20):
            assert rig.eq(rig.mul(rig.nat_inverse(k), rig.nat_value(k)), rig.one)


def test_idempotent_collapses_nat_value():
    for k in range(1, 10):
        assert BOOLEAN.eq(BOOLEAN.nat_value(k), BOOLEAN.one)
        assert BOOLEAN.eq(BOOLEAN.nat_inverse(k), BOOLEAN.one)


def test_nat_inverse_error_carries_context():
    class NatRig(Rig):
        name = "naturals"
        zero = 0
        one = 1

        def add(self, a, b):
            return a + b

        def mul(self, a, b):
            return a * b

        def sample(self, rng):
            return rng.randrange(5)

    with pytest.raises(NotInvertible) as exc:
        NatRig().nat_inverse(3)
    assert exc.value.rig_name == "naturals"
    assert exc.value.k == 3


def test_nat_inverse_rejects_zero():
    with pytest.raises(ValueError):
        NONNEG_RATIONAL.nat_inverse(0)


def test_registry_names():
    assert set(RIGS) == {"nonneg-rational", "rational", "boolean"}
    assert RIGS["boolean"].idempotent
    assert not RIGS["rational"].idempotent
    assert RIGS["rational"].has_negatives
    assert not RIGS["nonneg-rational"].has_negatives


def test_axioms_pass_on_all_instances():
    for rig in ALL_RIGS:
        results = rig_laws_check(rig, samples=100, seed=0)
        failing = [r for r in results if not r.passed]
        assert not failing, failing


def test_boolean_axioms_exhaustive():
    rig = BOOLEAN
    values = (False, True)
    for a in values:
        for b in values:
            for c in values:
                assert rig.add(a, b) == rig.add(b, a)
                assert rig.mul(a, b) == rig.mul(b, a)
                assert rig.add(rig.add(a, b), c) == rig.add(a, rig.add(b, c))
                assert rig.mul(rig.mul(a, b), c) == rig.mul(a, rig.mul(b, c))
                assert rig.mul(a, rig.add(b, c)) == rig.add(rig.mul(a, b), rig.mul(a, c))
    assert rig.add(rig.one, rig.one) == rig.one


def test_broken_instance_is_detected():
    class BrokenRig(NonNegRationalRig):
        name = "broken"

        def mul(self, a, b):
            return a + 2 * b  # not commutative, breaks distributivity too

    results = rig_laws_check(BrokenRig(), samples=100, seed=0)
    failed = {r.axiom for r in results if not r.passed}
    assert "mul-commutative" in failed
    bad = next(r for r in results if r.axiom == "mul-commutative")
    assert bad.counterexample is not None


def test_wrong_idempotent_flag_is_detected():
    class MisflaggedBool(BooleanRig):
        name = "misflagged"
        idempotent = False

    results = rig_laws_check(MisflaggedBool(), samples=10, seed=0)
    flag = next(r for r in results if r.axiom == "idempotent-flag")
    assert not flag.passed


def _failed(rig, samples=100):
    return {r.axiom for r in rig_laws_check(rig, samples=samples, seed=0) if not r.passed}


def test_zero_divisors_are_detected():
    class PairRig(Rig):
        """Pairs of naturals, componentwise: (1, 0) * (0, 1) = 0."""

        name = "nat-pairs"
        zero = (0, 0)
        one = (1, 1)

        def add(self, a, b):
            return (a[0] + b[0], a[1] + b[1])

        def mul(self, a, b):
            return (a[0] * b[0], a[1] * b[1])

        def sample(self, rng):
            return (rng.randrange(3), rng.randrange(3))

    assert _failed(PairRig()) == {"no-zero-divisors"}


def test_a_vanishing_nat_value_is_detected():
    class Z2(Rig):
        """Integers mod 2: 1 + 1 = 0, so nat_value(2) vanishes."""

        name = "z2"
        has_negatives = True
        zero = 0
        one = 1

        def add(self, a, b):
            return (a + b) % 2

        def mul(self, a, b):
            return a * b

        def sample(self, rng):
            return rng.randrange(2)

    assert _failed(Z2(), samples=10) == {"nat-values-nonzero"}
    bad = next(r for r in rig_laws_check(Z2(), samples=10) if r.axiom == "nat-values-nonzero")
    assert bad.counterexample == "nat_value(2) = 0"


def test_negatives_behind_a_false_flag_are_detected():
    class Unflagged(RationalRig):
        name = "unflagged-rational"
        has_negatives = False

    assert _failed(Unflagged()) == {"zero-sum-free-unless-negatives"}


def test_integral_samples_are_ints_and_the_draws_are_unchanged():
    for rig, low in ((NONNEG_RATIONAL, 0), (RATIONAL, -7)):
        rng, ref = random.Random(4), random.Random(4)
        for _ in range(200):
            c = rig.sample(rng)
            assert c == Fraction(ref.randrange(low, 8), ref.randrange(1, 7))
            assert type(c) is (int if c.denominator == 1 else Fraction), c
    assert type(NONNEG_RATIONAL.zero) is type(NONNEG_RATIONAL.one) is type(NONNEG_RATIONAL.nat_value(5)) is int


def test_randbelow_draws_what_randrange_draws():
    """Values and generator state equal `randrange(n)`'s for every width 1-70 over 200 seeds."""
    stream_oracle.check_randbelow()


def test_draw_and_sample_draw_what_the_reference_samples_draw():
    stream_oracle.check_rig_draws()


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.name)
def test_split_and_join_invert_each_other(rig):
    rng = random.Random(6)
    for _ in range(200):
        c = rig.sample(rng)
        n, d = rig.split(c)
        assert type(d) is int and d >= 1 and (d == 1 or rig is not BOOLEAN)
        back = rig.join(n, d)
        assert rig.eq(back, c) and type(back) is type(c), (c, n, d)
    if rig is not BOOLEAN:
        # a pair the polynomial layer made need not be in lowest terms
        assert rig.join(2, 4) == Fraction(1, 2) and type(rig.join(4, 2)) is int


@pytest.mark.parametrize("rig", ALL_RIGS, ids=lambda r: r.name)
def test_split_refuses_what_is_not_an_element(rig):
    outside = [0.5, "1", None] + ([True] if rig is not BOOLEAN else [1, 0, Fraction(1)])
    if rig is NONNEG_RATIONAL:
        outside.append(Fraction(-1, 2))
    for value in outside:
        with pytest.raises(ValueError, match=re.escape(f"coefficient {value!r} is not an element of {rig.name}")):
            rig.split(value)
