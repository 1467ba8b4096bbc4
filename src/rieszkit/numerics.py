"""Quadrature rules and a breakpoint-aware adaptive integrator.

All other modules integrate through the rules built here. Nodes and weights
come from numpy's orthogonal-polynomial routines. The canonical n-point
Legendre and Hermite rules are computed once per n and cached (the last
128 of them); a Legendre rule on [a, b] is an affine map of the cached
canonical one. Nodes and weights are read-only, so the rules of
``gauss_legendre`` and ``gauss_hermite`` are immutable and thread-safe;
a rule built from your own arrays is a read-only view that shows your
later writes. The argument checks several modules share live here too.
"""

from __future__ import annotations

import math
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


def _as_int(value, what: str) -> int:
    """``value`` as an int; ``ValueError`` for a bool, a float or another non-integer."""
    if type(value) is not bool:
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _check_tol(tol) -> None:
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _check_limit(name: str, value) -> None:
    # an infinite ladder limit would double the ladder forever
    if not 1 <= value < math.inf:
        raise ValueError(f"{name} must be >= 1 and finite, got {value}")


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


def _split(a: float, b: float, points) -> list[float]:
    """[a, the distinct points strictly inside (a, b) in order, b]."""
    return [a, *sorted({x for x in points if a < x < b}), b]


def _ladder_indices(limit: int) -> list[int]:
    """Doubling ladder 1, 2, 4, ... capped by ``limit``, which always ends it."""
    out = [1]
    while out[-1] * 2 <= limit:
        out.append(out[-1] * 2)
    if out[-1] != limit:
        out.append(limit)
    return out


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Node/weight pair; ``nodes`` and ``weights`` are read-only arrays,
    and ``==`` and ``hash`` go by identity."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        # read-only views: the caller's arrays keep their flags, and their later writes show
        nodes = np.asarray(self.nodes, dtype=float).view()
        weights = np.asarray(self.weights, dtype=float).view()
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
    An n that is not an integer >= 1 (a bool or a float included) raises
    ``ValueError``.
    """
    n = _as_int(n, "node count n")
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
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
    n = 370 numpy's weights underflow, so n must be an integer in 1..370
    (``ValueError`` otherwise, for a bool or a float too).
    """
    n = _as_int(n, "node count n")
    if not 1 <= n <= _HERMITE_MAX:
        raise ValueError(f"need 1 <= n <= {_HERMITE_MAX} Hermite nodes, got n={n}")
    return _canonical_rule("hermite", n)


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


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """High-order estimate on [a, b] and the low/high discrepancy; ``f``
    is called once on the nodes of both rules."""
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    x = half * _PAIR_NODES + mid
    vals = _evaluate(f, x)
    _check_finite(vals[:_N_HIGH], x[:_N_HIGH])
    hi = half * float(np.dot(_HIGH[1], vals[:_N_HIGH]))
    lo = half * float(np.dot(_LOW[1], vals[_N_HIGH:]))
    return hi, abs(hi - lo)


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
    is best effort: after 48 bisections a panel is accepted as is. A
    ``tol`` that is not positive and finite (NaN included) raises
    ``ValueError``.
    """
    _check_tol(tol)
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError(f"need a <= b, got a={a}, b={b}")

    edges = _split(a, b, () if breakpoints is None else breakpoints)
    total = 0.0
    length = b - a
    for lo, hi in zip(edges[:-1], edges[1:]):
        # budget proportional to segment length
        stack = [(lo, hi, tol * (hi - lo) / length, 0)]
        while stack:
            x0, x1, budget, depth = stack.pop()
            est, err = _panel(f, x0, x1)
            if err <= budget or depth >= _MAX_DEPTH:
                total += est
            else:
                mid = 0.5 * (x0 + x1)
                stack.append((x0, mid, 0.5 * budget, depth + 1))
                stack.append((mid, x1, 0.5 * budget, depth + 1))
    return total
