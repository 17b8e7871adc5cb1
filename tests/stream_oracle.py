"""Reference draws written with the public `random` API, and checks that dctool's draws equal them.

`rig.randbelow`, `Rig.draw`, `polyform.random_poly` and the seeded parts of
`polyform.table_inputs` read the generator's raw bits the way CPython's
`randrange` does.  Each check here draws the same things through
`randrange`/`random`/`getrandbits` and the validating `Polynomial`
constructor, and asserts the same values and the same generator state after.
The pytest cases in `test_rig.py` and `test_polyform.py` call these checks;
they need neither pytest nor numpy, so they also run as a plain script under
an interpreter that has neither:

    PYTHONPATH=src python tests/stream_oracle.py
"""

import random
import signal
from fractions import Fraction
from itertools import product

from dctool import polyform as pf
from dctool.rig import RIGS, randbelow

REFERENCE_SAMPLES = {
    "nonneg-rational": lambda rng: Fraction(rng.randrange(0, 8), rng.randrange(1, 7)),
    "rational": lambda rng: Fraction(rng.randrange(-7, 8), rng.randrange(1, 7)),
    "boolean": lambda rng: rng.random() < 0.5,
}


def reference_terms(rng, rig, arity, max_degree):
    """The terms of random_poly, drawn through `randint`/`randrange` and summed as rig values."""
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, max_degree)
        exps = [0] * arity
        for _ in range(deg):
            exps[rng.randrange(arity)] += 1
        c = REFERENCE_SAMPLES[rig.name](rng)
        key = tuple(exps)
        terms[key] = rig.add(terms[key], c) if key in terms else c
    return terms


def _same_poly(p, terms):
    """p holds the nonzero `terms`, with the numerators, order and den of the validating constructor."""
    q = pf.Polynomial(p.rig, p.arity, terms)
    assert (list(p.num.items()), p.den) == (list(q.num.items()), q.den), (p, q)
    assert all(type(n) is type(m) for n, m in zip(p.num.values(), q.num.values())), (p, q)
    assert dict(p.terms) == {e: c for e, c in terms.items() if c}, (p, terms)


def check_randbelow(seeds=200, widths=range(1, 71)):
    for seed in range(seeds):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in widths:
            for _ in range(5):
                assert randbelow(rng, n) == ref.randrange(n), (seed, n)
            assert rng.getstate() == ref.getstate(), (seed, n)


def check_rig_draws(seeds=200):
    for rig in RIGS.values():
        reference = REFERENCE_SAMPLES[rig.name]
        for seed in range(seeds):
            rng, ref = random.Random(seed), random.Random(seed)
            c = reference(ref)
            n, d = rig.draw(rng)
            assert (n, d) == ((c, 1) if rig.name == "boolean" else (c.numerator, c.denominator)), (rig.name, seed)
            assert type(n) is type(c.numerator if isinstance(c, Fraction) else c) and type(d) is int
            c, value = reference(ref), rig.sample(rng)
            expected_type = type(c) if isinstance(c, bool) or c.denominator > 1 else int
            assert value == c and type(value) is expected_type, (rig.name, seed)
            assert rng.getstate() == ref.getstate(), (rig.name, seed)


def check_random_polys(seeds=300, arities=range(1, 6), degrees=range(1, 11)):
    for rig in RIGS.values():
        for seed in range(seeds):
            rng, ref = random.Random(seed), random.Random(seed)
            for arity in arities:
                for degree in degrees:
                    _same_poly(pf.random_poly(rng, rig, arity, degree), reference_terms(ref, rig, arity, degree))
                    assert rng.getstate() == ref.getstate(), (rig.name, seed, arity, degree)
            arity, degree = arities[seed % len(arities)], degrees[seed % len(degrees)]
            bundle = pf.random_bundle(rng, rig, arity, degree)
            for p in bundle.components:
                _same_poly(p, reference_terms(ref, rig, arity, degree))
            out = 1 + seed % 3
            polymap = pf.random_polymap(rng, rig, arity, out, degree)
            assert (polymap.in_arity, polymap.out_arity, len(polymap.coordinates)) == (arity, out, out)
            for p in polymap.coordinates:
                _same_poly(p, reference_terms(ref, rig, arity, degree))
            assert rng.getstate() == ref.getstate(), (rig.name, seed)


def reference_monomials(arity, k):
    """Every exponent tuple of total degree <= k: by degree, then graded-lex (x^n before y^n)."""
    exps = (e for e in product(range(k + 1), repeat=arity) if sum(e) <= k)
    return sorted(exps, key=lambda e: (sum(e), [-x for x in e]))


def reference_table_inputs(ref, rig, kind, arity, top, budget):
    """`polyform.table_inputs`: the basis from `product`, the draws through `randrange` and `getrandbits`."""
    parts = arity if kind == "bundle" else 1
    k = 0
    while k < top and parts * len(reference_monomials(arity, k + 1)) <= budget:
        k += 1

    def value(terms):
        """The input with `terms`, a list of (component, exponents, coefficient), summed as rig values."""
        comps = [{} for _ in range(parts)]
        for i, exps, c in terms:
            comps[i][exps] = rig.add(comps[i][exps], c) if exps in comps[i] else c
        polys = [pf.Polynomial(rig, arity, c) for c in comps]
        return pf.PolyBundle(polys) if kind == "bundle" else polys[0]

    def component():
        return ref.randrange(arity) if kind == "bundle" else 0

    inputs = [value([(i, e, rig.one)]) for e in reference_monomials(arity, k) for i in range(parts)]
    for n in range(k + 1, top + 1):
        i, exps = component(), [0] * arity
        for _ in range(n):
            exps[ref.randrange(arity)] += 1
        inputs.append(value([(i, tuple(exps), rig.one)]))
    for _ in range(5):
        terms = []
        for _ in range(2):
            i, exps = component(), tuple(ref.getrandbits(61) for _ in range(arity))
            c = REFERENCE_SAMPLES[rig.name](ref)
            while not c:
                c = REFERENCE_SAMPLES[rig.name](ref)
            terms.append((i, exps, c))
        inputs.append(value(terms))
    return inputs


def check_table_inputs(seeds=6, arities=range(1, 6), tops=(0, 1, 2, 5, 8), budgets=(1, 50)):
    for rig in RIGS.values():
        for seed in range(seeds):
            rng, ref = random.Random(seed), random.Random(seed)
            for kind, arity, top, budget in product(("poly", "bundle"), arities, tops, budgets):
                got = pf.table_inputs(rng, rig, kind, arity, top, budget)
                expected = reference_table_inputs(ref, rig, kind, arity, top, budget)
                assert len(got) == len(expected), (rig.name, seed, kind, arity, top, budget)
                for v, w in zip(got, expected):
                    for p, q in zip(*(x.components if kind == "bundle" else [x] for x in (v, w))):
                        _same_poly(p, dict(q.terms))
                assert rng.getstate() == ref.getstate(), (rig.name, seed, kind, arity, top, budget)


def check_refused_promptly(call, seconds=5):
    """`call()` raises the ValueError of an empty range; an alarm stops it if it runs past `seconds`."""

    def hung(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        call()
    except ValueError as e:
        assert "empty range" in str(e), e
    else:
        raise AssertionError("an empty range was drawn from")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def check_empty_widths():
    # getrandbits(0) is always 0, so a bare loop on a width of 0 would never end
    for width in (0, -1):
        check_refused_promptly(lambda: randbelow(random.Random(0), width))
    for rig in RIGS.values():
        # a term of degree >= 1 needs a variable; seed 0 draws one at the first term
        check_refused_promptly(lambda: pf.random_poly(random.Random(0), rig, 0, 1000))
        check_refused_promptly(lambda: pf.random_poly(random.Random(0), rig, 2, -1))


if __name__ == "__main__":
    import sys

    for check in (check_randbelow, check_rig_draws, check_random_polys, check_table_inputs, check_empty_widths):
        check()
        print(f"{check.__name__}: ok")
    print(f"all draws match on Python {sys.version.split()[0]}")
