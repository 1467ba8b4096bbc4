"""Quadrature rules and a breakpoint-aware adaptive integrator.

All other modules integrate through the rules built here. Nodes and weights
come from numpy's orthogonal-polynomial routines. The canonical n-point
Legendre and Hermite rules are computed once per n and cached (the last
128 of them); a Legendre rule on [a, b] is an affine map of the cached
canonical one. Nodes and weights are read-only, so the rules of
``gauss_legendre`` and ``gauss_hermite`` are immutable and thread-safe;
a rule built from your own arrays is a read-only view that shows your
later writes. The owners of the argument contract (README) live here too:
every public count, real, positive real and seed goes through one of them.
They raise ValueError naming the parameter, and they are plain scalar
Python, since the recovery ladders call them thousands of times a batch.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import NumericError

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_hermite",
    "adaptive_integrate",
]


def _evaluate(f: Callable, x: np.ndarray) -> np.ndarray:
    """One value of ``f`` per entry (point or row) along the first axis of
    ``x``: the vectorised result if its shape is ``(len(x),)``, else a loop."""
    try:
        vals = np.asarray(f(x), dtype=float)
        if vals.shape == (len(x),):
            return vals
    except (TypeError, ValueError, IndexError):
        pass
    return np.array([float(f(xi)) for xi in x])


_MASS_TOL = 1e-12  # probabilities must sum to 1 within this
_HERMITE_MAX = 370  # numpy's Hermite weights underflow beyond this n
_SEED_MAX = 2**128 - 1  # the largest Philox key


def _count(value, name: str, low: int = 1, high: int | None = None) -> int:
    """``value`` as an int in low..high, no ceiling if ``high`` is None. A bool,
    a float or another non-integer says ``<name> must be an integer``; NaN, ±inf
    and integers out of range say ``<name> must be >= low and ...``."""
    if type(value) is int:
        n = value
    elif isinstance(value, float) and not math.isfinite(value):
        n = None  # NaN and ±inf are out of range
    elif type(value) is not bool and isinstance(value, numbers.Integral):
        n = operator.index(value)
    else:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if n is not None and low <= n and (high is None or n <= high):
        return n
    ceiling = "finite" if high is None else f"<= {high}"
    raise ValueError(f"{name} must be >= {low} and {ceiling}, got {value!r}")


def _number(value, name: str) -> float:
    """``value`` as a float, NaN and +-inf included. A bool, a str or another
    non-number says ``<name> must be a real number``."""
    if type(value) is bool or not isinstance(value, (float, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _real_array(items, name: str) -> np.ndarray:
    """``items`` as a float64 array of any shape, NaN and +-inf included
    (``items`` itself when it is one already). The dtype is checked, not
    each element: an array of bools, strs or other objects (None
    included) says ``<name> must be real numbers``."""
    arr = np.asarray(items)
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"{name} must be real numbers, got an array of dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _numbers(items, name: str) -> np.ndarray:
    """``items`` as a 1-d float64 array, checked by ``_real_array``; any
    other shape (a bare scalar, a nested sequence) says ``<name> must be
    one-dimensional``."""
    arr = _real_array(items, name)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def _real(value, name: str, positive: bool = False) -> float:
    """``value`` as a finite float, and > 0 if ``positive``. A non-number is
    refused by ``_number``; a real out of range says ``<name> must be
    finite`` (``positive and finite``)."""
    x = _number(value, name)
    if (0.0 if positive else -math.inf) < x < math.inf:
        return x
    rule = "positive and finite" if positive else "finite"
    raise ValueError(f"{name} must be {rule}, got {value!r}")


def _positive(value, name: str) -> float:
    """A positive finite real, such as a tolerance."""
    return _real(value, name, True)


def _seed(value, name: str = "seed") -> int:
    """A Philox key: a count in 0..2**128 - 1."""
    return _count(value, name, 0, _SEED_MAX)


def _check_probabilities(probs: np.ndarray) -> None:
    if np.any(probs < 0) or not np.all(np.isfinite(probs)):
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(probs.sum() - 1.0) > _MASS_TOL:
        raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")


def _check_finite(vals: np.ndarray, x: np.ndarray) -> None:
    """Raise ``NumericError`` at the first value that is not finite: at
    abscissa ``x[k]``, or on path k, row k of an (M, N) batch ``x``."""
    bad = ~np.isfinite(vals)
    if bad.any():
        k = int(np.argmax(bad))
        point = float(x[k]) if x.ndim == 1 else tuple(x[k].tolist())
        where = f"at x={point!r}" if x.ndim == 1 else f"on path {k} at {point}"
        raise NumericError(f"integrand not finite {where}", point=point)


def _cut(a, b, *point_sets):
    """Each interval [a[i], b[i]], or the one [a, b] for scalar ends, cut
    at the points of ``point_sets`` strictly inside it: (the interval of
    each segment, segment starts, segment ends), the segments of one
    interval in order. Each set is a sequence or 1-d array of finite reals
    (``ValueError`` naming ``breakpoints`` otherwise); a point listed
    twice, or at or beyond an end, cuts nothing."""
    a, b = np.atleast_1d(a, b)
    points = np.sort(np.concatenate([_numbers(p, "breakpoints") for p in point_sets]))
    bad = points[~np.isfinite(points)]
    if bad.size:
        raise ValueError(f"breakpoints must be finite, got {bad[0]}")
    cuts = np.concatenate([a[:, None], np.minimum(np.maximum(points, a[:, None]), b[:, None]),
                           b[:, None]], axis=1)
    keep = cuts[:, 1:] > cuts[:, :-1]
    return np.nonzero(keep)[0], cuts[:, :-1][keep], cuts[:, 1:][keep]


@lru_cache(maxsize=128)
def _ladder_indices(limit: int) -> tuple[int, ...]:
    """Doubling ladder 1, 2, 4, ... capped by ``limit``, which always ends it;
    each ladder is built once, since every rung of a recovery walks one."""
    out = [1]
    while out[-1] * 2 <= limit:
        out.append(out[-1] * 2)
    if out[-1] != limit:
        out.append(limit)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Node/weight pair; ``nodes`` and ``weights`` are read-only arrays,
    and ``==`` and ``hash`` go by identity."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # read-only views: the caller's arrays keep their flags, and their later writes show
        nodes = _real_array(self.nodes, "nodes").view()
        weights = _real_array(self.weights, "weights").view()
        nodes.flags.writeable = weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ValueError("a quadrature rule needs at least one node")
        if nodes.size > 1 and not np.all(np.diff(nodes) > 0):
            raise ValueError("nodes must be strictly increasing")
        if not np.all(weights > 0):
            raise ValueError("weights must all be positive")

    def integrate(self, f: Callable) -> float:
        """Apply the rule to ``f``: sum of weights times node values."""
        vals = _evaluate(f, self.nodes)
        _check_finite(vals, self.nodes)
        return float(np.dot(self.weights, vals))


@lru_cache(maxsize=128)
def _canonical_rule(kind: str, n: int) -> QuadratureRule:
    """numpy's n-point rule on [-1, 1] (Legendre) or on the line (Hermite)."""
    gauss = {
        "legendre": np.polynomial.legendre.leggauss,
        "hermite": np.polynomial.hermite.hermgauss,
    }[kind]
    return QuadratureRule(*gauss(n))


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b].

    Exact for polynomials of degree <= 2n-1. The weights sum to b - a.
    The rule is the affine image of the cached canonical rule on [-1, 1].
    n is a count >= 1 and a, b are finite reals (``ValueError`` otherwise).
    """
    n = _count(n, "node count n")
    a, b = _real(a, "a"), _real(b, "b")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    unit = _canonical_rule("legendre", n)
    nodes = 0.5 * (b - a) * unit.nodes + 0.5 * (b + a)
    weights = 0.5 * (b - a) * unit.weights
    return QuadratureRule(nodes, weights)


def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule for the weight exp(-u^2) on the line.

    Integrates u -> p(u) exp(-u^2) exactly for polynomials p of degree
    <= 2n-1; the weights sum to sqrt(pi). The rule is built once per n and
    cached, so every call with the same n returns the same rule. Beyond
    n = 370 numpy's weights underflow, so n is a count in 1..370
    (``ValueError`` otherwise).
    """
    return _canonical_rule("hermite", _count(n, "node count n", 1, _HERMITE_MAX))


def _guarded_lobatto7(gap: float) -> tuple[np.ndarray, np.ndarray]:
    """7-point rule on [-1, 1]: the Gauss-Lobatto nodes (both ends, 0 and
    the roots +-sqrt((5 -+ 2 sqrt(5/3)) / 11) of P_6') with the ends moved
    inward by ``gap``, and interpolatory weights, so polynomials of degree
    <= 7 are exact. Weight i integrates the Lagrange polynomial of node i,
    of degree 6, exactly with the 4-point Gauss-Legendre rule."""
    inner = [math.sqrt((5.0 + s * 2.0 * math.sqrt(5.0 / 3.0)) / 11.0) for s in (1.0, -1.0)]
    nodes = np.array([gap - 1.0, -inner[0], -inner[1], 0.0, inner[1], inner[0], 1.0 - gap])
    u, w = np.polynomial.legendre.leggauss(4)
    lagrange = [np.prod([(u - xk) / (x - xk) for xk in np.delete(nodes, i)], axis=0)
                for i, x in enumerate(nodes)]
    return nodes, np.array([np.dot(w, row) for row in lagrange])


# The adaptive integrator's estimate and error rules (see adaptive_integrate):
# a kink within 2**-30 half-widths of a panel end is the only one both miss.
_HIGH = np.polynomial.legendre.leggauss(15)
_LOW = _guarded_lobatto7(2.0**-30)
_PAIR_NODES = np.concatenate([_HIGH[0], _LOW[0]])
_N_HIGH = len(_HIGH[0])
_MAX_DEPTH = 48  # bisections before a panel is accepted as is


def _sum_in_order(values: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    """For each group g < n, the sum of the values whose ``groups`` entry is
    g, added one after the other in order from 0.0: a sum that depends only
    on its own terms, and a term 0.0 anywhere changes no bit of it."""
    out = np.zeros(n)
    np.add.at(out, groups, values)
    return out


def _bisect(integrand: Callable, lo: np.ndarray, hi: np.ndarray, budget: np.ndarray) -> np.ndarray:
    """The integral over each panel [lo[i], hi[i]] to its ``budget[i]``.

    ``integrand(t, rows)`` returns the values on the nodes t, shape (P, 22),
    of P panels, where ``rows`` gives each panel's index i. A panel takes
    its 15-point Gauss-Legendre estimate when the distance to the 7-point
    rule is within its budget, or once it has been bisected 48 times; any
    other panel is bisected, each half with half the budget, and all the
    halves of one level are evaluated together. A bisected panel is the
    sum of its halves, left + right, so each integral depends only on its
    own panel. Each panel's rules are summed along one row, not by BLAS,
    so no bit depends on the thread count. A value of the estimate rule
    that is not finite raises ``NumericError`` at its abscissa.
    """
    levels = []
    rows = np.arange(len(lo))
    for depth in range(_MAX_DEPTH + 1):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        t = half[:, None] * _PAIR_NODES + mid[:, None]
        vals = integrand(t, rows)
        _check_finite(vals[:, :_N_HIGH].ravel(), t[:, :_N_HIGH].ravel())
        est = half * (vals[:, :_N_HIGH] * _HIGH[1]).sum(axis=1)
        err = np.abs(est - half * (vals[:, _N_HIGH:] * _LOW[1]).sum(axis=1))
        split = ~(err <= budget) & (depth < _MAX_DEPTH)
        levels.append((est, split))
        if not split.any():
            break
        ends = np.column_stack([lo[split], mid[split], hi[split]])
        lo, hi = ends[:, :2].ravel(), ends[:, 1:].ravel()
        budget, rows = np.repeat(0.5 * budget[split], 2), np.repeat(rows[split], 2)
    value = levels[-1][0]
    for est, split in reversed(levels[:-1]):
        est[split] = value[0::2] + value[1::2]
        value = est
    return value


def adaptive_integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    breakpoints: Sequence[float] | None = None,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Bisection with a 15-point Gauss-Legendre estimate per panel, whose
    error is its distance to a 7-point rule on the Gauss-Lobatto nodes
    with the ends moved 2**-30 half-widths into the panel; the error
    budget is split between halves at each subdivision. That rule sees a
    kink right next to a panel end, which no Gauss node does, and the
    integrand is never evaluated at a panel end itself. Supplying
    ``breakpoints`` forces subdivision at known kinks, which is the
    intended way to handle piecewise-smooth integrands; a point listed
    twice splits once. For integrands with undeclared kinks the result
    is best effort: after 48 bisections a panel is accepted as is. ``tol``
    is a positive real, a, b are finite reals and ``breakpoints`` a
    sequence or 1-d array of finite reals (``ValueError`` otherwise).
    """
    tol = _positive(tol, "tol")
    a, b = _real(a, "a"), _real(b, "b")
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError(f"need a <= b, got a={a}, b={b}")

    _, lo, hi = _cut(a, b, () if breakpoints is None else breakpoints)
    values = _bisect(lambda t, rows: _evaluate(f, t.ravel()).reshape(t.shape),
                     lo, hi, tol * (hi - lo) / (b - a))
    return float(_sum_in_order(values, np.zeros(len(values), dtype=int), 1)[0])
