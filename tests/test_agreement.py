"""Cross-model agreement: the exact relational operators are the polynomial operators on monomials.

A vector over bags is the coefficient table of a polynomial: a bag's
multiplicities are the exponents of its monomial, and a (bag b, atom x) point
is the monomial x^b in bundle slot x.  So column c of a rel operator's matrix
must equal the poly operator applied to the monomial of c.  The laws check how
operators relate to each other; this checks which operators each model built,
against a second model written independently.
"""

from collections import defaultdict

import pytest

import dctool.polyform as pf
import dctool.wrel as wr
from dctool.rig import RIGS

# rel operator -> the poly operator it must agree with
OPERATORS = {
    "d": pf.grad,
    "dc": pf.mul_in,
    "s": pf.s_op,
    "bang0": pf.eval0,
    "K": pf.K_op,
    "J": pf.J_op,
    "K_inv": pf.K_inv_op,
    "J_inv": pf.J_inv_op,
    "gate": pf.t_grade,  # m_{R,A}
    "spread": pf.eval_at_one,  # m_R x 1
}


def _exponents(base, b):
    return tuple(b.count(a) for a in base.atoms)


def _bag(base, exps):
    return tuple(a for a, k in zip(base.atoms, exps) for _ in range(k))


def _monomial(rig, base, space, point):
    """The polynomial, bundle or tagged polynomial whose one term is `point` of `space`."""
    n = len(base.atoms)
    if isinstance(space, wr.BagSpace):
        return pf.Polynomial(rig, n, {_exponents(base, point): rig.one})
    left, right = point
    if isinstance(space.right, wr.AtomSpace):  # (bag, atom): the bag's monomial in the atom's slot
        return pf.PolyBundle(
            pf.Polynomial(rig, n, {_exponents(base, left): rig.one} if a == right else {}) for a in base.atoms
        )
    # (unit bag, bag): the bag's monomial tagged t^|unit bag|
    return pf.Polynomial(rig, n + 1, {(len(left),) + _exponents(base, right): rig.one})


def _column(base, space, value):
    """A poly operator's result as the rel column it stands for: row point -> coefficient."""
    if isinstance(value, pf.PolyBundle):
        return {(_bag(base, e), x): c for x, comp in zip(base.atoms, value.components) for e, c in comp.terms.items()}
    if isinstance(space, wr.BagSpace):
        return {_bag(base, e): c for e, c in value.terms.items()}
    return {((wr.UNIT_POINT,) * e[0], _bag(base, e[1:])): c for e, c in value.terms.items()}


def disagreements(rig, base_size, D):
    """(operator, column) for every safe-band column where the rel matrix and the poly operator differ."""
    base, trunc = wr.BaseSet(wr.ATOM_NAMES[:base_size]), wr.Truncation(D)
    ops = wr.operators_rel(base, rig, trunc)
    out = []
    for name, poly_op in OPERATORS.items():
        m = getattr(ops, name)
        columns = defaultdict(dict)
        for (r, c), v in m.entries.items():
            columns[c][r] = v
        for c in m.col_space.points():
            if wr.point_weight(m.col_space, c) > trunc.safe_limit:
                continue
            want = _column(base, m.row_space, poly_op(_monomial(rig, base, m.col_space, c)))
            got = columns.get(c, {})
            if got.keys() != want.keys() or not all(rig.eq(v, want[r]) for r, v in got.items()):
                out.append((name, c))
    return out


@pytest.mark.parametrize("rig", sorted(RIGS))
def test_every_rel_operator_column_is_the_poly_operator_on_its_monomial(rig):
    for base_size in (1, 2, 3):
        for D in (4, 5, 6):
            assert disagreements(RIGS[rig], base_size, D) == [], (base_size, D)


def test_a_derivative_without_its_multiplicity_weight_disagrees(monkeypatch):
    """d weighted one on every entry differs from grad on each band column with a repeated atom, and so
    do K = d°;d + !(0) and J = d°;d + 1, which are built from it."""
    d_rel = wr.d_rel

    def unweighted(base, rig, trunc):
        d = d_rel(base, rig, trunc)
        return wr.WeightedMatrix(rig, d.row_space, d.col_space, dict.fromkeys(d.entries, rig.one))

    monkeypatch.setattr(wr, "d_rel", unweighted)
    found = disagreements(RIGS["nonneg-rational"], 2, 4)
    assert {name for name, _ in found} == {"d", "K", "J"}
    assert ("d", ("a", "a")) in found
