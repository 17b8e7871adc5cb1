"""Law bindings of the two exact models: seeded generators plus one check per supported law.

`make_poly_binding` and `make_rel_binding` close over a model configuration
and return a ModelBinding whose checks evaluate both sides of the
corresponding law exactly.  Each check yields one counterexample or None per
case, and `lawsuite.run_law` reads and counts them.  Counterexamples are
rendered in the model's canonical text form so reports are stable across
runs.

The numerical model's binding lives in `smoothnum`, with the numpy it needs;
`make_smooth_binding` here imports it at its first call, so that the exact
models never load numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import polyform as pf
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


def make_smooth_binding(cfg=None, max_dim: int = 3) -> ModelBinding:
    """`smoothnum.make_smooth_binding`, importing smoothnum (and numpy) at the first call.

    That call also puts smoothnum's function in this one's place, so later
    calls through `bindings` run no import statement, whose cost is tens of
    microseconds right after a garbage collection.
    """
    global make_smooth_binding
    from .smoothnum import make_smooth_binding

    return make_smooth_binding(cfg, max_dim)


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
            partials = [pf.grad(c).components for c in b.components]
            comps = []
            for j in range(variables):
                acc = b.components[j]
                for i in range(variables):
                    xi = Polynomial.variable(rig, variables, i)
                    acc = acc + xi * partials[i][j]
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


# the atoms of a base of n are the first n names, generated in sorted order;
# the bag spaces grow as C(n + D, D), so larger bases are refused
MAX_BASE_SIZE = 6
ATOM_NAMES = tuple(chr(ord("a") + i) for i in range(MAX_BASE_SIZE))


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
    if not 1 <= base_size <= MAX_BASE_SIZE:
        raise ValueError(f"base_size must be between 1 and {MAX_BASE_SIZE}")
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
