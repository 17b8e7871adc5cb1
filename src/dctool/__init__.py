"""Exact and numerical models of differentiation with antiderivatives.

Three executable models of the same operator family (derive, coderive, the
degree operators K and J with their inverses, and the antiderivative integral
s), a commutative-semiring coefficient layer, a generic law suite, and a
command-line runner.

The names below are imported at their first use (PEP 562), so `import dctool`
loads no model, and a run loads only the model it checks.
"""

from importlib import import_module

__version__ = "1.0.0"

# exported name -> the module that defines it
_HOMES = {
    **dict.fromkeys(("BOOLEAN", "NONNEG_RATIONAL", "RATIONAL", "RIGS", "Rig", "NotInvertible"), "rig"),
    **dict.fromkeys(("LAWS", "run_law", "run_suite", "all_pass"), "lawsuite"),
    "make_poly_binding": "polyform",
    "make_rel_binding": "wrel",
    "make_smooth_binding": "smoothnum",
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
