"""The names the benchmark reads, re-exported from the model modules that define them.

Nothing in the package imports this module.  The rel binding's bespoke laws look up `mat_compose` and
`tensor` in `wrel`, its table laws evaluate column operators and call neither, and no law calls
`perm_matrix`, so a tracer that patches the three here and in `wrel` counts each call once.
"""

from .polyform import make_poly_binding
from .smoothnum import make_smooth_binding
from .wrel import make_rel_binding, mat_compose, perm_matrix, tensor

__all__ = ["make_poly_binding", "make_rel_binding", "make_smooth_binding", "mat_compose", "perm_matrix", "tensor"]
