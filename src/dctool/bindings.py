"""The names the benchmark reads, re-exported from the model modules that define them.

Nothing in the package imports this module.  Of the rel laws, only the Taylor property (L21) looks up
`mat_compose` in `wrel`, through `WeightedMatrix.__matmul__`, when it evaluates `lawsuite.taylor` on
matrices; every other law evaluates column operators, and no law calls `tensor` or `perm_matrix`, which
stay because the benchmark patches them.  A tracer that patches the three here and in `wrel` counts each
call once.
"""

from .polyform import make_poly_binding
from .smoothnum import make_smooth_binding
from .wrel import make_rel_binding, mat_compose, perm_matrix, tensor

__all__ = ["make_poly_binding", "make_rel_binding", "make_smooth_binding", "mat_compose", "perm_matrix", "tensor"]
