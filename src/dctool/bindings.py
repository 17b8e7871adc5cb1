"""Per-model law bindings: seeded generators plus one check per supported law.

Each `make_*_binding` closes over a model configuration and returns a
ModelBinding whose checks evaluate both sides of the corresponding law,
exactly for the polynomial and relational models and to tolerance for the
numerical one.  Each check yields one counterexample or None per case, and
`lawsuite.run_law` reads and counts them.  Counterexamples are rendered in
the model's canonical text form so reports are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import polyform as pf
from . import smoothnum as sm
from . import wrel
from .lawsuite import ModelBinding, Operators
from .polyform import Polynomial, PolyBundle, PolyMap
from .rig import Rig
from .wrel import (
    AtomSpace,
    BagSpace,
    BaseSet,
    PairSpace,
    Truncation,
    UnitSpace,
    UNIT_BASE,
    WeightedMatrix,
    compose_tensor,
    mat_compose,
    perm_matrix,
    tensor,
)


def _loop(rng, cases, one_case):
    """The counterexamples (or None) of `cases` seeded runs of one_case, each drawn when read."""
    return (one_case(rng) for _ in range(cases))


# ===========================================================================
# polynomial model
# ===========================================================================


def random_poly(rng, rig: Rig, arity: int, max_degree: int) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(1, 4)):
        deg = rng.randint(0, max_degree)
        exps = [0] * arity
        for _ in range(deg):
            exps[rng.randrange(arity)] += 1
        c = rig.sample(rng)
        key = tuple(exps)
        terms[key] = rig.add(terms[key], c) if key in terms else c
    return Polynomial(rig, arity, terms)


def random_bundle(rng, rig: Rig, arity: int, max_degree: int) -> PolyBundle:
    return PolyBundle(tuple(random_poly(rng, rig, arity, max_degree) for _ in range(arity)))


def random_polymap(rng, rig: Rig, in_arity: int, out_arity: int, max_degree: int) -> PolyMap:
    return PolyMap(
        in_arity,
        out_arity,
        tuple(random_poly(rng, rig, in_arity, max_degree) for _ in range(out_arity)),
    )


@dataclass(frozen=True)
class PolyOp:
    """An operator `fn` between two types, each ("poly", arity), ("bundle", arity) or ("tagged", arity).

    A ("tagged", n) value is a `t_grade`-style polynomial of arity n + 1.
    """

    src: tuple
    dst: tuple
    fn: Callable

    def __add__(self, other: "PolyOp") -> "PolyOp":
        return PolyOp(self.src, self.dst, lambda v: self.fn(v) + other.fn(v))


def _bundle_map(fn, b: PolyBundle) -> PolyBundle:
    return PolyBundle(tuple(fn(c) for c in b.components))


def _asymmetry(b: PolyBundle):
    """The first (i, j), in row-major order, where d_j b_i != d_i b_j, or None when b is symmetric."""
    partials = [pf.grad(c).components for c in b.components]
    for i, row in enumerate(partials):
        # (j, i) with j < i was compared as (i, j) before
        for j in range(i + 1, len(partials)):
            if row[j] != partials[j][i]:
                return i, j
    return None


def make_poly_binding(
    rig: Rig,
    variables: int = 3,
    max_degree: int = 6,
    sabotage: bool = False,
) -> ModelBinding:
    """Exact law binding for the polynomial model.

    The laws of `lawsuite.OPERATOR_LAWS` run on the operators at `variables`
    and at arity 1 (d = grad, d° = mul_in, s = s_op, !(0) = eval0; the unit
    monoidal maps are t_grade, eval_at_one and on_tag, and the one-point
    atom factor wraps an arity-1 polynomial as a one-component bundle).  Both
    sides of each equation are applied to `cases` seeded inputs of its input
    type, one `random_poly` or `random_bundle` per type and case; no law
    takes a tagged input.  L24 is checked over an additively idempotent rig.

    `sabotage` deliberately breaks the gradient so it keeps constant terms;
    used as the negative control that the suite actually detects failures.
    The sabotaged gradient is the d of both operator sets.
    """
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")

    grad = pf.grad
    if sabotage:
        def grad(p):
            b = pf.grad(p)
            return PolyBundle((b.components[0] + pf.eval0(p),) + b.components[1:])

    def operators(at):
        """The operator set `at`: "general" at `variables`, "unit" at arity 1."""
        arity = variables if at == "general" else 1
        poly, bundle, tagged = ("poly", arity), ("bundle", arity), ("tagged", arity)

        def op(fn, src=poly, dst=poly):
            return PolyOp(src, dst, fn)

        return Operators(
            op(grad, dst=bundle), op(pf.mul_in, src=bundle), op(pf.s_op, src=bundle), op(pf.eval0),
            op(pf.K_op), op(pf.J_op), op(pf.K_inv_op), op(pf.J_inv_op),
            id=op(lambda p: p),
            gate=op(pf.t_grade, dst=tagged),
            spread=op(pf.eval_at_one, src=tagged),
            atom=op(lambda q: PolyBundle((q,)), dst=bundle) if arity == 1 else None,
            tag=lambda f: op(partial(pf.on_tag, f.fn), tagged, tagged),
            seq=lambda f, g: PolyOp(g.src, f.dst, lambda v: f.fn(g.fn(v))),
            x1=lambda f: op(lambda b: _bundle_map(f.fn, b), bundle, bundle),
        )

    def rp(rng, arity=None, deg=None):
        return random_poly(rng, rig, arity or variables, deg or max_degree)

    def fail(label, *polys):
        rendered = "; ".join(
            f"{n} = {v.render() if hasattr(v, 'render') else v}" for n, v in polys
        )
        return f"{label}: {rendered}"

    def equations(law, at, rng, cases):
        """Apply both sides of each (lhs, rhs, label) `law` yields on the operator set `at` to `cases` seeded inputs."""
        u = operators("unit")
        eqs = list(law(u if at == "unit" else operators(at), u))
        types = list(dict.fromkeys(lhs.src for lhs, _, _ in eqs))
        draw = {"poly": random_poly, "bundle": random_bundle}
        degree = {"poly": max_degree, "bundle": max_degree - 1}

        def one(rng):
            inputs = {(kind, n): draw[kind](rng, rig, n, degree[kind]) for kind, n in types}
            for lhs, rhs, label in eqs:
                v = inputs[lhs.src]
                a, b = lhs.fn(v), rhs.fn(v)
                if a != b:
                    return fail(label, ("input", v), ("lhs", a), ("rhs", b))
            return None

        return _loop(rng, cases, one)

    # -- individual laws ---------------------------------------------------

    def l1(rng, cases):
        def one(rng):
            p, q, r = rp(rng), rp(rng), rp(rng)
            if (p * q) * r != p * (q * r):
                return fail("product not associative", ("p", p), ("q", q), ("r", r))
            if p * q != q * p:
                return fail("product not commutative", ("p", p), ("q", q))
            if p * Polynomial.one(rig, p.arity) != p:
                return fail("one not a unit", ("p", p))
            f = random_polymap(rng, rig, 2, 2, 2)
            g = random_polymap(rng, rig, 2, 2, 2)
            h = random_polymap(rng, rig, 2, 2, 2)
            lhs = pf.cokleisli_compose(pf.cokleisli_compose(h, g), f)
            rhs = pf.cokleisli_compose(h, pf.cokleisli_compose(g, f))
            if lhs != rhs:
                return fail("composition not associative", ("f", f.render()), ("g", g.render()))
            ident = PolyMap.identity(rig, 2)
            if pf.cokleisli_compose(f, ident) != f or pf.cokleisli_compose(ident, f) != f:
                return fail("identity not a unit", ("f", f.render()))
            return None

        return _loop(rng, cases, one)

    def l2(rng, cases):
        def one(rng):
            c = Polynomial.const(rig, variables, rig.sample(rng))
            if not grad(c).is_zero():
                return fail("gradient of a constant is nonzero", ("c", c), ("grad", grad(c).render()))
            p = rp(rng)
            if grad(p + c) != grad(p):
                return fail("constant shifts the gradient", ("p", p), ("c", c))
            return None

        return _loop(rng, cases, one)

    def l3(rng, cases):
        def one(rng):
            p, q = rp(rng), rp(rng)
            lhs = grad(p * q)
            rhs = _bundle_map(lambda c: p * c, grad(q)) + _bundle_map(lambda c: q * c, grad(p))
            if lhs != rhs:
                return fail("Leibniz fails", ("p", p), ("q", q), ("lhs", lhs.render()), ("rhs", rhs.render()))
            return None

        return _loop(rng, cases, one)

    def l4(rng, cases):
        def one(rng):
            n = rng.randint(1, 3)
            m = rng.randint(1, 3)
            k = rng.randint(1, 3)
            f = random_polymap(rng, rig, n, m, 3)
            g = random_polymap(rng, rig, m, k, 3)
            lhs = pf.cartesian_derivative(pf.cokleisli_compose(g, f))
            # (x, v) -> (f(x), D[f](x, v)), then D[g]
            df = pf.cartesian_derivative(f)
            lifted = tuple(pf.extend_arity(c, 2 * n, 0) for c in f.coordinates)
            pairing = PolyMap(2 * n, 2 * m, lifted + df.coordinates)
            rhs = pf.cokleisli_compose(pf.cartesian_derivative(g), pairing)
            if lhs != rhs:
                return fail("chain rule fails", ("f", f.render()), ("g", g.render()))
            return None

        return _loop(rng, cases, one)

    def l5(rng, cases):
        def one(rng):
            p = rp(rng, deg=1)
            b = grad(p)
            if any(c.total_degree() > 0 for c in b.components):
                return fail("gradient of an affine map is not constant", ("p", p))
            lin = PolyMap(
                variables,
                variables,
                tuple(
                    Polynomial.variable(rig, variables, i).scale(rig.sample(rng))
                    for i in range(variables)
                ),
            )
            dlin = pf.cartesian_derivative(lin)
            for c in dlin.coordinates:
                if any(any(e[:variables]) for e in c.terms):
                    return fail("derivative of a linear map depends on the base point", ("map", lin.render()))
            return None

        return _loop(rng, cases, one)

    def l6(rng, cases):
        def one(rng):
            p = rp(rng)
            ij = _asymmetry(grad(p))
            if ij is not None:
                return fail("mixed partials differ", ("p", p), ("i", str(ij[0])), ("j", str(ij[1])))
            return None

        return _loop(rng, cases, one)

    def l7(rng, cases):
        def one(rng):
            b = random_bundle(rng, rig, variables, max_degree - 1)
            lhs = pf.grad(pf.mul_in(b))
            comps = []
            for j in range(variables):
                acc = b.components[j]
                for i in range(variables):
                    xi = Polynomial.variable(rig, variables, i)
                    acc = acc + xi * pf.grad(b.components[i]).components[j]
                comps.append(acc)
            rhs = PolyBundle(tuple(comps))
            if lhs != rhs:
                return fail("derive/coderive exchange fails", ("b", b.render()))
            return None

        return _loop(rng, cases, one)

    def l10(rng, cases):
        def one(rng):
            p = rp(rng)
            if pf.eval_at_one(pf.t_grade(p)) != p:
                return fail("degree tagging is not split by evaluation at one", ("p", p))
            q = rp(rng, arity=1)
            if not rig.eq(pf.mul_in(PolyBundle((q,))).evaluate((rig.one,)), q.evaluate((rig.one,))):
                return fail("unit coderive does not collapse under evaluation at one", ("q", q))
            return None

        return _loop(rng, cases, one)

    def l21(rng, cases):
        def one(rng):
            p = rp(rng)
            c = Polynomial.const(rig, variables, rig.sample(rng))
            q = p + c
            if grad(p) != grad(q):
                return fail("generator broke the equal-derivative premise", ("p", p))
            if p + pf.eval0(q) != q + pf.eval0(p):
                return fail("Taylor (additive form) fails", ("p", p), ("q", q))
            if rig.has_negatives:
                minus_one = rig.neg(rig.one)
                lhs = p + pf.eval0(p).scale(minus_one)
                rhs = q + pf.eval0(q).scale(minus_one)
                if lhs != rhs:
                    return fail("Taylor (subtraction form) fails", ("p", p), ("q", q))
            return None

        return _loop(rng, cases, one)

    def l22(rng, cases):
        def one(rng):
            p = rp(rng)
            k = rng.randint(0, variables)
            t = pf.seely_split(p, k)
            if pf.seely_merge(t) != p:
                return fail("merge after split is not the identity", ("p", p))
            if pf.seely_split(pf.seely_merge(t), k) != t:
                return fail("split after merge is not the identity", ("p", p))
            return None

        return _loop(rng, cases, one)

    def l23(rng, cases):
        def one(rng):
            p = rp(rng)
            rows = rng.randint(1, 3)
            matrix = [
                [rig.nat_value(rng.randint(0, 3)) for _ in range(variables)] for _ in range(rows)
            ]
            lhs = pf.grad(pf.apply_linear(matrix, p))
            images = [pf.apply_linear(matrix, c) for c in pf.grad(p).components]
            comps = []
            for i in range(rows):
                acc = Polynomial.zero(rig, rows)
                for j, image in enumerate(images):
                    acc = acc + image.scale(matrix[i][j])
                comps.append(acc)
            rhs = PolyBundle(tuple(comps))
            if lhs != rhs:
                return fail("gradient is not natural in linear substitution", ("p", p))
            return None

        return _loop(rng, cases, one)

    checks = {
        "L1": l1, "L2": l2, "L3": l3, "L4": l4, "L5": l5, "L6": l6, "L7": l7,
        "L10": l10, "L21": l21, "L22": l22, "L23": l23,
    }
    skips = {}
    if rig.idempotent:
        def collapse(o, u):
            yield o.s, o.dc, "integral does not collapse to the coderive"

        checks["L24"] = partial(equations, collapse, "general")
    else:
        skips["L24"] = "integral/coderive collapse needs an additively idempotent coefficient rig"
    return ModelBinding(
        name="poly",
        semiring=rig.name,
        checks=checks,
        skips=skips,
        params={"variables": variables, "max_degree": max_degree, "sabotage": sabotage},
        equations=equations,
    )


# ===========================================================================
# weighted relational model
# ===========================================================================


ATOM_NAMES = ("a", "b", "c", "d")


def _random_matrix(rng, rig, row_space, col_space, density=0.3):
    cols = col_space.points()
    entries = {}
    for r in row_space.points():
        if rng.random() < density:
            c = cols[rng.randrange(len(cols))]
            v = rig.sample(rng)
            entries[(r, c)] = v
    return WeightedMatrix(rig, row_space, col_space, entries)


def make_rel_binding(
    rig: Rig,
    base_size: int = 2,
    truncation: int = 4,
) -> ModelBinding:
    """Exact law binding for the truncated bag-matrix model.

    Each operator is built once per base set: on the model's base set and on
    UNIT_BASE, where the general operators are the unit-level d_R, d°_R, s_R,
    K_R and J_R (d_R and s_R keep the one-point atom factor, as `R x 1` in the
    law citations).  The laws of `lawsuite.OPERATOR_LAWS` run on these two
    operator sets, composing by matrix product.  Their unit monoidal maps are
    m_{R,A} from `m_unit_rel` (also read by L10), m_R x 1 = `spread_rel`, f x 1
    as a tensor with the identity on bags and, on UNIT_BASE only, the
    ((n, *), n) matrix that adds the one-point atom factor.  A law that is a
    list of equations yields one comparison `cmp(lhs, rhs, label[, limit])`
    per equation, built when the runner reads it, so the runner stops at the
    first difference and `cases` counts the comparisons made.  Tensor-factor
    permutations are key relabels, not compositions with permutation matrices.
    The bespoke laws with a large first factor (L1, L3, L7, L21)
    restrict that factor to the safe-band rows, and L1, L3 and L7 evaluate
    each f;(g x h) with `compose_tensor`, so their tensor factors are never
    materialized.
    """
    if not 1 <= base_size <= len(ATOM_NAMES):
        raise ValueError("base_size out of range")
    base = BaseSet(ATOM_NAMES[:base_size])
    trunc = Truncation(truncation)
    limit = trunc.safe_limit

    bags = BagSpace(base, trunc.D)
    atoms = AtomSpace(base)
    pair_ba = PairSpace(bags, atoms)
    pair_baa = PairSpace(pair_ba, atoms)
    ubags = wrel.unit_bags(trunc)
    uatoms = AtomSpace(UNIT_BASE)

    def operators(b):
        """d, d°, s, !(0), K, J, K^{-1}, J^{-1} and the unit monoidal maps on the bags of base set b."""
        b_bags, b_atoms = BagSpace(b, trunc.D), AtomSpace(b)
        id_b, id_atoms = WeightedMatrix.identity(rig, b_bags), WeightedMatrix.identity(rig, b_atoms)
        atom = None
        if b == UNIT_BASE:
            atom = WeightedMatrix(
                rig, PairSpace(ubags, uatoms), ubags, {((n, wrel.UNIT_POINT), n): rig.one for n in ubags.points()}
            )
        d, dc = wrel.d_rel(b, rig, trunc), wrel.dcirc_rel(b, rig, trunc)
        # K and J share one d°;d
        dcd = mat_compose(dc, d)
        return Operators(
            d, dc, wrel.s_rel(b, rig, trunc), wrel.bang_zero_rel(b, rig, trunc),
            wrel.K_rel(b, rig, trunc, dcd), wrel.J_rel(b, rig, trunc, dcd),
            wrel.K_inv_rel(b, rig, trunc), wrel.J_inv_rel(b, rig, trunc),
            id=id_b,
            gate=wrel.m_unit_rel(b, rig, trunc).m_RA,
            spread=wrel.spread_rel(rig, b_bags, trunc),
            atom=atom,
            tag=lambda f: tensor(f, id_b),
            seq=lambda f, g: mat_compose(f, g),
            x1=lambda f: tensor(f, id_atoms),
        )

    o, u = operators(base), operators(UNIT_BASE)
    d, dc, s, bang0, x1, id_bags = o.d, o.dc, o.s, o.bang0, o.x1, o.id
    id_atoms = WeightedMatrix.identity(rig, atoms)
    com = wrel.comonoid_rel(base, rig, trunc)
    ucom = wrel.comonoid_rel(UNIT_BASE, rig, trunc)
    m_R = wrel.m_unit_rel(UNIT_BASE, rig, trunc).m_R

    def swap_atoms(p):
        """((b, x), y) -> ((b, y), x): the symmetry sigma of L6 and L7."""
        (b, x), y = p
        return ((b, y), x)

    def cmp(lhs, rhs, label, lim=limit):
        """The counterexample of lhs = rhs on rows and columns up to `lim`, or None."""
        diff = lhs.first_difference(rhs, lim)
        return None if diff is None else f"{label}: {diff}"

    def l1(rng, cases):
        delta = com.delta.restrict_rows(limit)
        lhs = compose_tensor(delta, com.delta, id_bags)
        yield cmp(
            lhs.relabel(lambda p: (p[0][0], (p[0][1], p[1])), PairSpace(bags, PairSpace(bags, bags))),
            compose_tensor(delta, id_bags, com.delta),
            "comultiplication not coassociative",
        )
        # counit laws, with the unit factor projected away
        lhs = compose_tensor(delta, com.counit, id_bags)
        yield cmp(lhs.relabel(lambda p: p[1], bags), id_bags, "left counit fails")
        lhs = compose_tensor(delta, id_bags, com.counit)
        yield cmp(lhs.relabel(lambda p: p[0], bags), id_bags, "right counit fails")
        swapped = delta.relabel(lambda p: (p[1], p[0]), delta.col_space)
        yield cmp(swapped, delta, "comultiplication not cocommutative")

    def l2(rng, cases):
        zero = WeightedMatrix.zero(rig, pair_ba, UnitSpace())
        yield cmp(mat_compose(d, com.counit), zero, "derivative of a constant is nonzero")

    def l3(rng, cases):
        split = x1(com.delta.restrict_rows(limit))  # ((b1, b2), x) columns
        # summand that differentiates the left split part
        term1 = compose_tensor(
            split.relabel(lambda p: ((p[0][0], p[1]), p[0][1]), PairSpace(pair_ba, bags)), d, id_bags
        )
        # summand that differentiates the right split part
        term2 = compose_tensor(
            split.relabel(lambda p: (p[0][0], (p[0][1], p[1])), PairSpace(bags, pair_ba)), id_bags, d
        )
        yield cmp(mat_compose(d.restrict_rows(limit), com.delta), term1 + term2, "Leibniz fails")

    def l5(rng, cases):
        rhs = WeightedMatrix(rig, pair_ba, atoms, {(((), x), x): rig.one for x in base.atoms})
        yield cmp(mat_compose(d, com.eps), rhs, "derivative of a linear map is not constant")

    def l6(rng, cases):
        lhs = mat_compose(x1(d), d)
        yield cmp(lhs, lhs.relabel(swap_atoms, pair_baa, rows=True), "interchange fails")

    def l7(rng, cases):
        rhs = compose_tensor(x1(dc.restrict_rows(limit)).relabel(swap_atoms, pair_baa), d, id_atoms)
        rhs = rhs + WeightedMatrix.identity(rig, pair_ba)
        yield cmp(mat_compose(d.restrict_rows(limit), dc), rhs, "derive/coderive exchange fails")

    def l10(rng, cases):
        yield cmp(mat_compose(o.spread, o.gate), id_bags, "unit pairing is not split by the all-ones row")
        one_mat = WeightedMatrix(rig, UnitSpace(), uatoms, {(wrel.UNIT_POINT, wrel.UNIT_POINT): rig.one})
        yield cmp(mat_compose(m_R, ucom.eps), one_mat, "m_R against the linear counit fails")
        unit_id = WeightedMatrix.identity(rig, UnitSpace())
        yield cmp(mat_compose(m_R, ucom.counit), unit_id, "m_R against the comonoid counit fails")
        yield cmp(mat_compose(mat_compose(m_R, u.dc), u.atom), m_R, "m_R is not fixed by the unit coderive")

    def l21(rng, cases):
        d_band = d.restrict_rows(limit)  # !(0) has one row, the empty bag, so it is band-only already

        def one(rng):
            f = _random_matrix(rng, rig, bags, atoms)
            h = _random_matrix(rng, rig, bags, atoms)
            g = f + mat_compose(bang0, h)
            return cmp(mat_compose(d_band, f), mat_compose(d_band, g), "generator broke the premise") or cmp(
                f + mat_compose(bang0, g), g + mat_compose(bang0, f), "Taylor fails"
            )

        return _loop(rng, min(cases, 10), one)

    def l22(rng, cases):
        half = max(1, base_size // 2)
        chi, chi_inv = wrel.seely_rel(BaseSet(base.atoms[:half]), BaseSet(base.atoms[half:]), rig, trunc)
        id_xy = WeightedMatrix.identity(rig, chi.row_space)
        yield cmp(mat_compose(chi, chi_inv), id_xy, "split;merge is not the identity", trunc.D)
        # a pair of half-bags only merges back when the combined size fits under
        # the truncation bound, so quantify over halves of at most D // 2
        id_split = WeightedMatrix.identity(rig, chi.col_space)
        yield cmp(mat_compose(chi_inv, chi), id_split, "merge;split is not the identity", min(limit, trunc.D // 2))

    def l23(rng, cases):
        def one(rng):
            image = list(base.atoms)
            rng.shuffle(image)
            phi = dict(zip(base.atoms, image))
            push_bags = perm_matrix(rig, bags, bags, lambda b: tuple(sorted(phi[a] for a in b)))
            push_pair = perm_matrix(rig, pair_ba, pair_ba, lambda p: (tuple(sorted(phi[a] for a in p[0])), phi[p[1]]))
            return cmp(
                mat_compose(d, push_bags), mat_compose(push_pair, d), "derivative is not natural along atom permutations"
            )

        return _loop(rng, min(cases, 5), one)

    def l24(rng, cases):
        yield cmp(s, dc, "integral does not collapse to the coderive", trunc.D)

    checks = {
        "L1": l1, "L2": l2, "L3": l3, "L5": l5, "L6": l6, "L7": l7,
        "L10": l10, "L21": l21, "L22": l22, "L23": l23,
    }
    skips = {"L4": "the double-exponential chain rule is out of scope for this model"}
    if rig.idempotent:
        checks["L24"] = l24
    else:
        skips["L24"] = "integral/coderive collapse needs an additively idempotent rig"
    return ModelBinding(
        name="rel",
        semiring=rig.name,
        checks=checks,
        skips=skips,
        params={"base_size": base_size, "truncation": truncation, "margin": wrel.MARGIN},
        equations=lambda law, at, rng, cases: (cmp(*eq) for eq in law(o if at == "general" else u, u)),
    )


# ===========================================================================
# numerical smooth-map model
# ===========================================================================


def _points(rng, dim, k):
    """k seeded points of R^dim, drawn one after another, as the columns of one (dim, k) batch."""
    return np.column_stack([sm.sample_point(rng, dim) for _ in range(k)])


class _Batch:
    """A shape class of a law's probe points: k columns of X (and directions V) per item, in item
    order; `index` holds the items' places in the law's list and owners[j] the maps of column j."""

    def __init__(self, rows, k):
        self.index, self.items, drawn = zip(*rows)
        self.X, *V = (np.concatenate(points, axis=1) for points in zip(*drawn))
        self.V = V[0] if V else None
        self.k = k
        self.owners = [maps for maps in self.items for _ in range(k)]

    def family(self, i=0):
        return sm.family([maps[i] for maps in self.items])


def _sample(rng, cases, items, directions=False):
    """The whole law's probe points, one `_Batch` per shape class of its items.

    An item is a map or a tuple of maps, the first the points belong to, and
    its shape class is its maps' dimensions.  Each item gets `cases //
    len(items)` (at least one) seeded points, then, with `directions`, one
    direction per point: the rng stream of drawing the items one by one.
    """
    k = max(1, cases // len(items))
    classes = {}
    for index, item in enumerate(items):
        maps = item if isinstance(item, tuple) else (item,)
        drawn = [_points(rng, maps[0].in_dim, k) for _ in range(1 + directions)]
        classes.setdefault(tuple((f.in_dim, f.out_dim) for f in maps), []).append((index, maps, drawn))
    return [_Batch(rows, k) for rows in classes.values()]


def _check(rng, cases, items, decide, directions=False):
    """decide(batch), one verdict per column of each of `_sample`'s batches, yielded item by item in
    item order; a batch is decided when the first of its items is reached."""
    where = {i: (b, r) for b in _sample(rng, cases, items, directions) for r, i in enumerate(b.index)}
    decided = {}
    for b, r in (where[i] for i in range(len(items))):
        if id(b) not in decided:
            decided[id(b)] = decide(b)
        yield from decided[id(b)][r * b.k : (r + 1) * b.k]


def _verdicts(label, b, bad, lhs, rhs):
    """Per column j of batch b: the counterexample where bad[j] holds, else None."""
    return [_fail(label, b, j, lhs, rhs) if wrong else None for j, wrong in enumerate(bad)]


def _fail(label, b, j, lhs, rhs):
    maps = b.owners[j]
    return (
        f"{label if isinstance(label, str) else label(*maps)}: map={maps[0].label} "
        f"x={np.array2string(b.X[:, j], precision=6)} "
        f"lhs={np.array2string(np.atleast_1d(np.asarray(lhs[..., j], float)), precision=10)} "
        f"rhs={np.array2string(np.atleast_1d(np.asarray(rhs[..., j], float)), precision=10)}"
    )


def make_smooth_binding(cfg: sm.QuadratureConfig | None = None, max_dim: int = 3) -> ModelBinding:
    """Tolerance-based law binding for the numerical smooth-map model.

    Each law draws all its probe points first and evaluates each side once per
    shape class of its items, through family maps that call each corpus map
    once; it yields one counterexample or None per column, in item order.
    """
    cfg = cfg or sm.QuadratureConfig()
    if not 1 <= max_dim <= 3:
        raise ValueError("max_dim must be between 1 and 3")
    corpus = [f for f in sm.builtin_corpus() if f.in_dim <= max_dim]

    def close(label, b, lhs, rhs):
        """Per column of batch b: None when lhs and rhs agree to the configured tolerances, else the counterexample."""
        return _verdicts(label, b, ~sm.rel_close(lhs, rhs, cfg.tol_rel, cfg.tol_abs), lhs, rhs)

    def derivative(f, b, V=None):
        return sm.directional_derivative(f, b.X, b.V if V is None else V)

    def fd(f, b, X=None):
        return sm.fd_directional_derivative(f, b.X if X is None else X, b.V)

    def l2(rng, cases):
        def decide(b):
            got = fd(b.family(), b)
            return close("constant has nonzero derivative", b, got, np.zeros_like(got))

        return _check(rng, cases, [f for f in corpus if f.label.startswith("const")], decide, True)

    def l3(rng, cases):
        def decide(b):
            F, G = b.family(0), b.family(1)
            lhs = fd(sm.SmoothMap(F.in_dim, 1, lambda z: F(z) * G(z), "prod"), b)
            return close("Leibniz fails", b, lhs, F(b.X) * derivative(G, b) + G(b.X) * derivative(F, b))

        scalars = [f for f in corpus if f.out_dim == 1]
        return _check(rng, cases, [(f, g) for f in scalars for g in scalars if f.in_dim == g.in_dim], decide, True)

    def l4(rng, cases):
        def decide(b):
            F, G = b.family(0), b.family(1)
            lhs = fd(sm.SmoothMap(F.in_dim, G.out_dim, lambda z: G(F(z)), "comp"), b)
            rhs = sm.directional_derivative(G, F(b.X), derivative(F, b))
            return close(lambda f, g: f"chain rule fails ({g.label} o {f.label})", b, lhs, rhs)

        return _check(rng, cases, [(f, g) for f in corpus for g in corpus if g.in_dim == f.out_dim], decide, True)

    def l5(rng, cases):
        def decide(b):
            F = b.family()
            return close("linear derivative depends on base point", b, fd(F, b), fd(F, b, np.zeros_like(b.X)))

        yield from _check(rng, cases, [f for f in corpus if f.label.startswith(("id", "linear"))], decide, True)
        # linearity of the derivative in the direction argument, one point per map
        for f in corpus[: max(1, cases // 10)]:
            b = _sample(rng, 1, [f], directions=True)[0]
            w = _points(rng, f.in_dim, 1)
            s, t = rng.uniform(-2, 2), rng.uniform(-2, 2)
            lhs, rhs = derivative(f, b, s * b.V + t * w), s * derivative(f, b) + t * derivative(f, b, w)
            yield from close("derivative not linear in direction", b, lhs, rhs)

    # scalar maps of two or more variables: the inputs of L6 and L20
    potentials = [f for f in corpus if f.out_dim == 1 and f.in_dim >= 2]

    def l6(rng, cases):
        def decide(b):
            F = b.family()
            # the first two unit directions, as (n, 1) columns to broadcast against a batch
            ei, ej = np.eye(F.in_dim)[:2, :, None]

            # closed-form derivative inside, complex step outside, so
            # the two orders really are computed along different routes
            def partial(e):
                return sm.SmoothMap(
                    F.in_dim, 1, lambda z: sm.directional_derivative(F, z, np.broadcast_to(e, z.shape)), "d"
                )

            lhs = sm.fd_directional_derivative(partial(ej), b.X, np.broadcast_to(ei, b.X.shape))
            rhs = sm.fd_directional_derivative(partial(ei), b.X, np.broadcast_to(ej, b.X.shape))
            return close("mixed partials differ", b, lhs, rhs)

        return _check(rng, cases, potentials, decide)

    # L18-L20 state the two sides of the table equations `_ftc2`, `_ftc1` and
    # `_poincare` at probe points, with bilinearize as d and line_integral_S as s
    def l18(rng, cases):
        # s;d + !(0) = 1: S[Df](x) + f(0) against f(x)
        def decide(b):
            F = b.family()
            lhs = sm.line_integral_S(sm.bilinearize(F), b.X, cfg) + F(np.zeros_like(b.X))
            return close("second fundamental theorem fails", b, lhs, F(b.X))

        return _check(rng, cases, corpus, decide)

    def derived_integral(label, g, b):
        """d;s;g = g: D[S[g]](x, v) against g(x, v), per column of batch b."""
        integral = sm.SmoothMap(g.in_dim, g.out_dim, lambda z: sm.line_integral_S(g, z, cfg), f"S[{g.label}]")
        return close(label, b, fd(integral, b), g(b.X, b.V))

    def l19(rng, cases):
        def decide(b):
            F = b.family()
            lin = sm.BilinearizedMap(1, 1, lambda x, y: F(x) * y, f"lin[{F.label}]")
            return derived_integral("first fundamental theorem fails", lin, b)

        return _check(rng, cases, [f for f in corpus if f.in_dim == f.out_dim == 1], decide, True)

    def l20(rng, cases):
        def decide(b):
            return derived_integral("derivative of the integral loses the field", sm.bilinearize(b.family()), b)

        return _check(rng, cases, potentials, decide, True)

    def l21(rng, cases):
        # draws each map's shift c before its points, so it keeps its own loop
        for f in corpus[:6]:
            c = rng.uniform(-1, 1)
            g = sm.SmoothMap(f.in_dim, f.out_dim, lambda z, f=f, c=c: f(z) + c, "shift")
            b = _sample(rng, cases // 6, [f], directions=True)[0]
            X, zero = b.X, np.zeros_like(b.X)
            derivatives = close("shifted map changed the derivative", b, fd(f, b), fd(g, b))
            values = close("maps with equal derivatives differ beyond a constant", b, f(X) - f(zero), g(X) - g(zero))
            yield from (d or v for d, v in zip(derivatives, values))

    checks = {
        "L2": l2, "L3": l3, "L4": l4, "L5": l5, "L6": l6,
        "L18": l18, "L19": l19, "L20": l20, "L21": l21,
    }
    skips = {
        law_id: "needs the exact operator algebra of the symbolic models"
        for law_id in ("L1", "L7", "L8", "L9", "L10", "L11", "L12", "L13", "L14", "L15", "L16", "L17", "L22", "L23")
    }
    skips["L24"] = "real coefficients are not additively idempotent"
    if not potentials:
        for law_id in ("L6", "L20"):
            del checks[law_id]
            skips[law_id] = "the corpus has no scalar map of two or more variables"
    return ModelBinding(
        name="smooth",
        semiring="real",
        checks=checks,
        skips=skips,
        params={"max_dim": max_dim, "order": cfg.order, "tol_abs": cfg.tol_abs, "tol_rel": cfg.tol_rel},
    )
