"""Closed forms of the smooth corpus's first and second derivatives, written by hand as a test oracle.

`smoothnum` reads every derivative off a map's body (`fd_directional_derivative`);
these are the textbook formulas it must agree with.  Each takes a point x and
directions of its shape, (n,) or a batch (n, k), and returns shape (m,) or (m, k):

* DERIVATIVES[label](x, v) = D[f](x, v), the directional derivative along v;
* HESSIANS[label](x, v, w) = the second derivative of f at x along v and w.
"""

import numpy as np

LINEAR = {
    "id1": [[1.0]],
    "linear2": [[1.0, 2.0], [0.0, 1.0]],
    "linear3": [[1.0, 0.0, -1.0], [2.0, 1.0, 0.0], [0.0, 0.5, 1.0]],
}


def _zero(m):
    return lambda x, *directions: np.zeros((m,) + x.shape[1:])


def _gauss(x):
    return np.exp(-np.sum(x * x, axis=0) / 4.0)


DERIVATIVES = {
    **{label: lambda x, v, A=np.array(A): A @ v for label, A in LINEAR.items()},
    **{f"const{n}": _zero(n) for n in (1, 2, 3)},
    "square1": lambda x, v: 2.0 * x * v,
    "quartic1": lambda x, v: (4.0 * x**3 - 6.0 * x + 2.0) * v,
    "sin1": lambda x, v: np.cos(x) * v,
    "exp1": lambda x, v: 0.3 * np.exp(0.3 * x) * v,
    "prod2": lambda x, v: np.array([x[1] * v[0] + x[0] * v[1]]),
    "poly2": lambda x, v: np.array([2.0 * x[0] * x[1] * v[0] + x[0] ** 2 * v[1], v[0] + 3.0 * x[1] ** 2 * v[1]]),
    "sincos2": lambda x, v: np.array([np.cos(x[0]) * np.cos(x[1]) * v[0] - np.sin(x[0]) * np.sin(x[1]) * v[1]]),
    "poly3": lambda x, v: np.array([(x[1] * x[2] + 2.0 * x[0]) * v[0] + x[0] * x[2] * v[1] + x[0] * x[1] * v[2]]),
    "gauss3": lambda x, v: np.array([_gauss(x) * -np.sum(x * v, axis=0) / 2.0]),
}


def _sym(v, w, i, j):
    """v[i] w[j] + v[j] w[i]: the symmetric part of a mixed second partial."""
    return v[i] * w[j] + v[j] * w[i]


HESSIANS = {
    **{label: _zero(len(A)) for label, A in LINEAR.items()},
    **{f"const{n}": _zero(n) for n in (1, 2, 3)},
    "square1": lambda x, v, w: 2.0 * v * w,
    "quartic1": lambda x, v, w: (12.0 * x**2 - 6.0) * v * w,
    "sin1": lambda x, v, w: -np.sin(x) * v * w,
    "exp1": lambda x, v, w: 0.09 * np.exp(0.3 * x) * v * w,
    "prod2": lambda x, v, w: np.array([_sym(v, w, 0, 1)]),
    "poly2": lambda x, v, w: np.array([2.0 * x[1] * v[0] * w[0] + 2.0 * x[0] * _sym(v, w, 0, 1), 6.0 * x[1] * v[1] * w[1]]),
    "sincos2": lambda x, v, w: np.array([
        -np.sin(x[0]) * np.cos(x[1]) * (v[0] * w[0] + v[1] * w[1]) - np.cos(x[0]) * np.sin(x[1]) * _sym(v, w, 0, 1)
    ]),
    "poly3": lambda x, v, w: np.array([
        2.0 * v[0] * w[0] + x[2] * _sym(v, w, 0, 1) + x[1] * _sym(v, w, 0, 2) + x[0] * _sym(v, w, 1, 2)
    ]),
    "gauss3": lambda x, v, w: np.array([
        _gauss(x) * (np.sum(x * v, axis=0) * np.sum(x * w, axis=0) / 4.0 - np.sum(v * w, axis=0) / 2.0)
    ]),
}
