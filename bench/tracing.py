"""Per-layer tracing for the benchmark, installed from outside the program.

`Tracer.install()` replaces the public functions and methods of each dctool
layer with wrappers and `Tracer.restore()` puts every original back, so an
untraced run never carries wrapper cost.  Two kinds of wrapper exist:

* counted: bumps one counter only.  Used for the rig methods and the
  smooth-map evaluators, which run millions of times per check.
* spanned: records a span (id, parent id, name, start, end) in memory and
  bumps the same call count.  Self time of a span is its duration minus the
  duration of its direct children.

Names are patched where they are looked up: module functions on their own
module and on every module that imported them by name (`bindings` imports
`mat_compose`, `tensor` and `perm_matrix` that way), rig methods on each
concrete rig class.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from dctool import bindings, polyform, rig, smoothnum, wrel

_MISSING = object()

RIG_METHODS = ("add", "mul", "eq", "nat_value", "nat_inverse")
RIG_CLASSES = tuple(sorted({type(r) for r in rig.RIGS.values()}, key=lambda c: c.__name__))

# (owner, attribute, metric name) of every spanned function or method.
SPANNED = (
    (polyform.Polynomial, "__init__", "polyform.init"),
    (polyform.Polynomial, "__add__", "polyform.add"),
    (polyform.Polynomial, "__mul__", "polyform.mul"),
    (polyform, "grad", "polyform.grad"),
    (polyform, "substitute", "polyform.substitute"),
    (polyform, "apply_linear", "polyform.apply_linear"),
    (polyform, "s_op", "polyform.s_op"),
    (wrel.WeightedMatrix, "__init__", "wrel.init"),
    (wrel, "mat_compose", "wrel.mat_compose"),
    (bindings, "mat_compose", "wrel.mat_compose"),
    (wrel, "tensor", "wrel.tensor"),
    (bindings, "tensor", "wrel.tensor"),
    (wrel, "perm_matrix", "wrel.perm_matrix"),
    (bindings, "perm_matrix", "wrel.perm_matrix"),
    (wrel.UnitSpace, "points", "wrel.points"),
    (wrel.AtomSpace, "points", "wrel.points"),
    (wrel.BagSpace, "points", "wrel.points"),
    (wrel.PairSpace, "points", "wrel.points"),
    (wrel.WeightedMatrix, "first_difference", "wrel.first_difference"),
    (smoothnum, "line_integral_S", "smoothnum.line_integral_S"),
    (smoothnum, "fd_directional_derivative", "smoothnum.fd_directional_derivative"),
)

# (owner, attribute, counter name) of every counted function or method.
COUNTED = tuple(
    (cls, method, f"rig.{method}.calls") for cls in RIG_CLASSES for method in RIG_METHODS
) + (
    (smoothnum.SmoothMap, "__call__", "smoothnum.map_evals"),
    (smoothnum.BilinearizedMap, "__call__", "smoothnum.map_evals"),
)

# Constructors whose input size is counted: metric name -> (size counter,
# position of the mapping argument counting `self`, its keyword name).
SIZED = {
    "polyform.init": ("polyform.terms_in", 3, "terms"),
    "wrel.init": ("wrel.entries_in", 4, "entries"),
}


def patch_points():
    """Every (owner, attribute) the tracer replaces."""
    return [(owner, attr) for owner, attr, _ in SPANNED + COUNTED]


def snapshot():
    """The current value of every patched attribute, as stored on its owner."""
    return {(owner, attr): vars(owner).get(attr, _MISSING) for owner, attr in patch_points()}


class Tracer:
    """Holds counts and spans of one traced run; install, run, restore."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.spans: list = []  # (id, parent id or -1, name, start, end)
        self._stack: list = []
        self._saved: dict | None = None

    # -- wrappers ------------------------------------------------------------

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _spanned(self, fn, name):
        counts, spans, stack = self.counts, self.spans, self._stack
        key = f"{name}.calls"
        size_key, size_pos, size_kw = SIZED.get(name, (None, 0, None))
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            counts[key] += 1
            if size_key is not None:
                sized = args[size_pos] if len(args) > size_pos else kwargs.get(size_kw)
                counts[size_key] += len(sized or ())
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def span(self, name):
        """A span around benchmark code, such as one check or its binding build."""
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, start, end)

    # -- install / restore ---------------------------------------------------

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = snapshot()
        # resolve every original first: RationalRig inherits from
        # NonNegRationalRig and must not wrap its parent's wrapper
        originals = {(owner, attr): getattr(owner, attr) for owner, attr in patch_points()}
        try:
            for owner, attr, name in SPANNED:
                setattr(owner, attr, self._spanned(originals[owner, attr], name))
            for owner, attr, key in COUNTED:
                setattr(owner, attr, self._counted(originals[owner, attr], key))
        except BaseException:
            self.restore()
            raise

    def restore(self):
        if self._saved is None:
            return
        for (owner, attr), original in self._saved.items():
            if original is _MISSING:
                if attr in vars(owner):
                    delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._saved = None

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- results -------------------------------------------------------------

    def self_times(self) -> dict:
        """Total self time per span name, in seconds."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            out[name] += (end - start) - child[sid]
        return dict(out)

    def write_spans(self, path) -> None:
        """Write spans as gzipped JSON: a name table plus rows (id, parent, name index, start, end)."""
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][3] if self.spans else 0.0
        rows = [
            [sid, parent, index[name], round(start - t0, 9), round(end - t0, 9)]
            for sid, parent, name, start, end in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": names, "columns": ["id", "parent", "name", "start_s", "end_s"], "spans": rows}, fh)
