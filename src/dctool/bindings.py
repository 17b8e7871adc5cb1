"""The names the benchmark reads, re-exported from the model modules that define them.

Nothing in the package imports this module.  The rel binding calls `mat_compose`, `tensor` and
`perm_matrix` through `wrel`, so a tracer that patches them here and in `wrel` counts each call once.
`make_smooth_binding` imports smoothnum (and numpy) at its first call, then puts smoothnum's function
in its own place: later calls run no import statement, which costs tens of microseconds right after
a garbage collection.
"""

from .polyform import make_poly_binding
from .wrel import make_rel_binding, mat_compose, perm_matrix, tensor

__all__ = ["make_poly_binding", "make_rel_binding", "make_smooth_binding", "mat_compose", "perm_matrix", "tensor"]


def make_smooth_binding(cfg=None, max_dim: int = 3):
    """`smoothnum.make_smooth_binding`, importing smoothnum (and numpy) at the first call."""
    global make_smooth_binding
    from .smoothnum import make_smooth_binding

    return make_smooth_binding(cfg, max_dim)
