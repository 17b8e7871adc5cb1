"""Cross-model agreement: the exact relational operators are the polynomial operators on monomials.

A vector over bags is the coefficient table of a polynomial: a bag's
multiplicities are the exponents of its monomial, and a (bag b, atom x) point
is the monomial x^b in bundle slot x.  So column c of a rel column operator
must equal the poly operator applied to the monomial of c, row for row:
neither model truncates a column.  The laws check how
operators relate to each other; this checks which operators each model built,
against a second model written independently.
"""

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


def _column(base, value):
    """A poly operator's result as the rel column it stands for: row point -> coefficient."""
    if isinstance(value, pf.PolyBundle):
        return {(_bag(base, e), x): c for x, comp in zip(base.atoms, value.components) for e, c in comp.terms.items()}
    if value.arity == len(base.atoms):
        return {_bag(base, e): c for e, c in value.terms.items()}
    # a tagged polynomial: its first variable t counts the unit bag's size
    return {((wr.UNIT_POINT,) * e[0], _bag(base, e[1:])): c for e, c in value.terms.items()}


def disagreements(rig, base_size, D, checked=None):
    """(operator, column) for every column of at most D atoms where the rel operator and the poly operator
    differ; `checked`, a list, gets one item per column compared."""
    base = wr.BaseSet(wr.ATOM_NAMES[:base_size])
    ops = wr.operators_rel(base, rig, D)
    out = []
    for name, poly_op in OPERATORS.items():
        op = getattr(ops, name)
        for c in op.col_space.points():
            want = _column(base, poly_op(_monomial(rig, base, op.col_space, c)))
            got = op.column(c)
            if got.keys() != want.keys() or not all(rig.eq(v, want[r]) for r, v in got.items()):
                out.append((name, c))
            if checked is not None:
                checked.append((name, c))
    return out


@pytest.mark.parametrize("rig", sorted(RIGS))
def test_every_rel_operator_column_is_the_poly_operator_on_its_monomial(rig):
    checked = []
    for base_size in (1, 2, 3):
        for D in (4, 5, 6):
            assert disagreements(RIGS[rig], base_size, D, checked) == [], (base_size, D)
    assert len(checked) == 14_241 // len(RIGS)


def test_a_derivative_without_its_multiplicity_weight_disagrees(monkeypatch):
    """d weighted one on every entry differs from grad on each column with a repeated atom, and so
    do K = d°;d + !(0) and J = d°;d + 1, which are built from it."""
    monkeypatch.setattr(wr, "bag_count", lambda b, x: 1)
    found = disagreements(RIGS["nonneg-rational"], 2, 4)
    assert {name for name, _ in found} == {"d", "K", "J"}
    assert ("d", ("a", "a")) in found
