"""Quadrature rules and a breakpoint-aware adaptive integrator.

All other modules integrate through the rules built here. Nodes and weights
come from numpy's orthogonal-polynomial routines. The canonical n-point
Legendre and Hermite rules are computed once per n and cached (the last
128 of them); a Legendre rule on [a, b] is an affine map of the cached
canonical one. The nodes and weights of every rule are read-only, so
rules are immutable and safe to share across threads.
"""

from __future__ import annotations

import math
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


def _check_finite(vals: np.ndarray, x: np.ndarray) -> None:
    """Raise ``NumericError`` at the first point where ``vals`` is not finite."""
    bad = ~np.isfinite(vals)
    if bad.any():
        x_bad = float(x[bad][0])
        raise NumericError(f"integrand not finite at x={x_bad!r}", point=x_bad)


def _ladder_indices(limit: int) -> list[int]:
    """Doubling ladder 1, 2, 4, ... capped by ``limit``, which always ends it."""
    out = [1]
    while out[-1] * 2 <= limit:
        out.append(out[-1] * 2)
    if out[-1] != limit:
        out.append(limit)
    return out


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable node/weight pair; ``nodes`` and ``weights`` are read-only.

    ``kind`` is ``"legendre"`` for a rule on a finite interval (weight 1)
    or ``"hermite"`` for a rule on the whole line with weight exp(-u^2).
    """

    nodes: np.ndarray
    weights: np.ndarray
    kind: str = "legendre"

    def __post_init__(self):
        # read-only views: the caller's arrays keep their flags, the rule's cannot change
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
        if self.kind not in ("legendre", "hermite"):
            raise ValueError(f"unknown rule kind {self.kind!r}")

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
    return QuadratureRule(*gauss(n), kind=kind)


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b].

    Exact for polynomials of degree <= 2n-1. The weights sum to b - a.
    The rule is the affine image of the cached canonical rule on [-1, 1].
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    unit = _canonical_rule("legendre", int(n))
    nodes = 0.5 * (b - a) * unit.nodes + 0.5 * (b + a)
    weights = 0.5 * (b - a) * unit.weights
    return QuadratureRule(nodes, weights, kind="legendre")


def gauss_hermite(n: int) -> QuadratureRule:
    """n-point Gauss-Hermite rule for the weight exp(-u^2) on the line.

    Integrates u -> p(u) exp(-u^2) exactly for polynomials p of degree
    <= 2n-1; the weights sum to sqrt(pi). The rule is built once per n and
    cached, so every call with the same n returns the same rule.
    """
    if n < 1:
        raise ValueError(f"need at least one node, got n={n}")
    return _canonical_rule("hermite", int(n))


# Embedded low/high pair used per subinterval by the adaptive integrator.
_LOW = np.polynomial.legendre.leggauss(7)
_HIGH = np.polynomial.legendre.leggauss(15)


def _panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """High-order estimate on [a, b] and the low/high discrepancy."""
    half, mid = 0.5 * (b - a), 0.5 * (b + a)
    x_hi = half * _HIGH[0] + mid
    vals_hi = _evaluate(f, x_hi)
    _check_finite(vals_hi, x_hi)
    vals_lo = _evaluate(f, half * _LOW[0] + mid)
    hi = half * float(np.dot(_HIGH[1], vals_hi))
    lo = half * float(np.dot(_LOW[1], vals_lo))
    return hi, abs(hi - lo)


def adaptive_integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    breakpoints: Sequence[float] | None = None,
    max_depth: int = 48,
) -> float:
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    Bisection with an embedded 7/15-point Gauss-Legendre pair; the error
    budget is split between halves at each subdivision. Supplying
    ``breakpoints`` forces subdivision at known kinks, which is the
    intended way to handle piecewise-smooth integrands. For integrands
    with undeclared kinks the result is best effort: after ``max_depth``
    bisections a panel is accepted as is. A ``tol`` that is not positive
    and finite (NaN included) raises ``ValueError``.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not a < b:
        if a == b:
            return 0.0
        raise ValueError(f"need a <= b, got a={a}, b={b}")

    edges = [a]
    if breakpoints is not None:
        edges.extend(sorted(x for x in breakpoints if a < x < b))
    edges.append(b)

    total = 0.0
    length = b - a
    for lo, hi in zip(edges[:-1], edges[1:]):
        # budget proportional to segment length
        stack = [(lo, hi, tol * (hi - lo) / length, 0)]
        while stack:
            x0, x1, budget, depth = stack.pop()
            est, err = _panel(f, x0, x1)
            if err <= budget or depth >= max_depth:
                total += est
            else:
                mid = 0.5 * (x0 + x1)
                stack.append((x0, mid, 0.5 * budget, depth + 1))
                stack.append((mid, x1, 0.5 * budget, depth + 1))
    return total
