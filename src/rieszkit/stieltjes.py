"""Lebesgue-Stieltjes integration and CDF recovery from expectation oracles.

A right-continuous nondecreasing generator plays the role of the
distribution function. Integration against it is done by refined
Riemann-Stieltjes sums with declared jump points handled atomically, or,
for the ramp and cutoff probes, by parts, piece by piece.
Going the other way, a black-box expectation functional is probed with
ramp and cutoff functions; the double limit (cutoff first, then ramp
slope) recovers the distribution function pointwise.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, ConvergenceError
from .numerics import (_check_finite, _check_limit, _check_tol, _evaluate, _ladder_indices,
                       _split, adaptive_integrate)

__all__ = [
    "CdfLike",
    "ExpectationOracle",
    "RampSpec",
    "ls_measure_interval",
    "ls_integrate",
    "make_ramp",
    "make_cutoff",
    "recover_cdf",
    "total_mass",
    "RecoveredCdf",
    "uniform_cdf",
    "triangular_cdf",
    "two_atom_cdf",
    "point_mass_cdf",
    "oracle_from_cdf",
    "oracle_from_samples",
]


@dataclass(frozen=True)
class CdfLike:
    """Right-continuous nondecreasing generator of a Lebesgue-Stieltjes measure.

    ``c_minus`` and ``c_plus`` record the limits at -inf and +inf;
    ``breakpoints`` lists known jump abscissae so integration can treat
    them atomically. ``kinks`` lists the abscissae where the generator is
    continuous but not smooth (its density jumps). Both lists default to
    ``()`` and are stored sorted, each point once; a point that is not
    finite raises ``ValueError`` naming its list.
    """

    eval: Callable
    c_minus: float
    c_plus: float
    breakpoints: tuple[float, ...] = ()
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        if not self.c_minus <= self.c_plus:
            raise ValueError(f"c_minus={self.c_minus} exceeds c_plus={self.c_plus}")
        for name in ("breakpoints", "kinks"):
            given = getattr(self, name)
            points = tuple(sorted(set(map(float, given))))
            if not all(map(math.isfinite, points)):
                raise ValueError(f"{name} must be finite, got {given}")
            object.__setattr__(self, name, points)

    def __call__(self, x):
        return self.eval(x)


def uniform_cdf(lo: float = 0.0, hi: float = 1.0) -> CdfLike:
    """CDF of the uniform law on (lo, hi); its kinks are lo and hi."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo}, {hi}")
    return CdfLike(
        lambda x: np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0),
        0.0,
        1.0,
        kinks=(lo, hi),
    )


def triangular_cdf(lo: float = 0.0, mode: float = 0.5, hi: float = 1.0) -> CdfLike:
    """CDF of the triangular law with the given support and mode; its
    kinks are lo, mode and hi."""
    if not lo < hi or not lo <= mode <= hi:
        raise ValueError(f"need lo <= mode <= hi with lo < hi, got {lo}, {mode}, {hi}")

    def F(x):
        x = np.asarray(x, dtype=float)
        up = (
            (x - lo) ** 2 / ((hi - lo) * (mode - lo))
            if mode > lo
            else np.ones_like(x)
        )
        down = (
            1.0 - (hi - x) ** 2 / ((hi - lo) * (hi - mode))
            if mode < hi
            else np.ones_like(x)
        )
        return np.where(
            x <= lo, 0.0, np.where(x >= hi, 1.0, np.where(x <= mode, up, down))
        )

    return CdfLike(F, 0.0, 1.0, kinks=(lo, mode, hi))


def two_atom_cdf(x1: float, p1: float, x2: float) -> CdfLike:
    """CDF of the law putting mass p1 at x1 and 1 - p1 at x2."""
    if not x1 < x2:
        raise ValueError(f"need x1 < x2, got {x1}, {x2}")
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")

    def F(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < x1, 0.0, np.where(x < x2, p1, 1.0))

    return CdfLike(F, 0.0, 1.0, breakpoints=(x1, x2))


def point_mass_cdf(at: float = 0.0) -> CdfLike:
    """CDF of the unit point mass at ``at``."""

    def F(x):
        return np.where(np.asarray(x, dtype=float) >= at, 1.0, 0.0)

    return CdfLike(F, 0.0, 1.0, breakpoints=(at,))


def ls_measure_interval(alpha: CdfLike, a: float, b: float) -> float:
    """Mass of the half-open interval (a, b] under the measure of ``alpha``."""
    if not a <= b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    return float(alpha.eval(b)) - float(alpha.eval(a))


def _rs_segment(f, alpha, a, b, n_cells):
    """Riemann-Stieltjes sum over (a, b] on ``n_cells`` equal cells with
    midpoint tags. When b is a declared jump of alpha, the last cell is
    tagged at b so the jump contributes f(b) * mass exactly at every
    refinement level. A value of f that is not finite raises
    ``NumericError`` at its tag.
    """
    nodes = np.linspace(a, b, n_cells + 1)
    masses = np.diff(_evaluate(alpha.eval, nodes))
    tags = 0.5 * (nodes[:-1] + nodes[1:])
    if b in alpha.breakpoints:
        tags[-1] = b
    values = _evaluate(f, tags)
    _check_finite(values, tags)
    return float(np.dot(values, masses))


def _check_support(name: str, support) -> tuple[float, float]:
    """``support`` as floats (lo, hi); ``ValueError`` unless -inf < lo <= hi < inf."""
    lo, hi = map(float, support)
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"{name} must be finite and ordered, got {support}")
    return lo, hi


def _check_point(x) -> None:
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")


class _Probe:
    """Ramp, cutoff or their product: a product of at most two
    piecewise-linear factors.

    Each factor is an ``np.interp`` table ``(knots, values, left, right)``
    and the probe's value is the product of the factors' values, in
    order. ``breakpoints`` lists every knot and cuts the line into pieces:
    piece 0 lies below the first breakpoint, piece p >= 1 runs from
    breakpoint p - 1 up to the next (or beyond the last). On a piece each
    factor is affine, so the probe is a polynomial of degree <= 2 there,
    read exactly from the knot tables by ``piece``; on piece 0 and the
    last piece it is constant.
    """

    def __init__(self, *factors):
        self._factors = factors
        self.breakpoints = tuple(sorted(set().union(*(f[0] for f in factors))))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = None
        for knots, values, left, right in self._factors:
            value = np.interp(t, knots, values, left=left, right=right)
            out = value if out is None else out * value
        return out

    def inside(self, lo: float, hi: float) -> tuple[int, tuple[float, ...]]:
        """(the piece that holds lo, the breakpoints strictly inside (lo, hi))."""
        first = bisect.bisect_right(self.breakpoints, lo)
        return first, self.breakpoints[first:bisect.bisect_left(self.breakpoints, hi)]

    def piece(self, p: int) -> tuple[float, float, float]:
        """(c0, c1, c2) with f(a + u) = c0 + c1 u + c2 u**2 on piece p, where
        a is its left breakpoint (-inf on piece 0); (0, 0, 0) as soon as a
        factor is 0 on the piece."""
        a = self.breakpoints[p - 1] if p else -math.inf
        c0, c1, c2 = 1.0, 0.0, 0.0
        for knots, values, left, right in self._factors:
            # one affine factor v + s u at a time
            k = bisect.bisect_right(knots, a) - 1
            if k < 0:
                v, s = left, 0.0
            elif k == len(knots) - 1:
                v, s = right, 0.0
            else:
                s = (values[k + 1] - values[k]) / (knots[k + 1] - knots[k])
                v = values[k] + s * (a - knots[k])
            if v == s == 0.0:
                return 0.0, 0.0, 0.0
            c0, c1, c2 = c0 * v, c1 * v + c0 * s, c2 * v + c1 * s
        return c0, c1, c2


# The by-parts branch spends this share of ls_integrate's tol on the
# ordinary integrals of its sloped pieces, and never asks them for less
# than this many ulps of the integrand's scale per unit length.
_BY_PARTS_SHARE = 1e-2
_ROUNDING_ULPS = 100


def _integrate_by_parts(f: _Probe, alpha: CdfLike, lo: float, hi: float, tol: float) -> float:
    """Integral of the probe f over (lo, hi] against alpha, piece by piece.

    On a piece (a, b] between adjacent breakpoints, Stieltjes integration
    by parts in centred form gives
    f(b) (alpha(b) - alpha(a)) - int_a^b (alpha(t) - alpha(a)) f'(t) dt.
    alpha is evaluated at all piece ends in one call; where f' = 0 or
    alpha does not move, the ordinary integral is 0 and is not computed.
    Otherwise ``adaptive_integrate`` computes it, split at alpha's
    declared jumps and kinks, to a budget of ``_BY_PARTS_SHARE * tol``
    spread over (lo, hi] by length. Between those split points a law with
    a piecewise-polynomial CDF of degree <= 2 makes the integrand a cubic
    at most, which one panel integrates. Per unit length the budget never
    drops below 100 ulps of max|alpha| * max|f'| on the piece, the scale
    of the rounding in the integrand, so however small ``tol`` is, panels
    that differ only by rounding are accepted and the bisection ends.
    """
    first, inner = f.inside(lo, hi)
    edges = np.array([lo, *inner, hi])
    heights = _evaluate(alpha.eval, edges)
    values = f(edges[1:])
    splits = alpha.breakpoints + alpha.kinks
    rate = _BY_PARTS_SHARE * tol / (hi - lo)
    total = 0.0
    pieces = zip(edges[:-1], edges[1:], values, heights[:-1], heights[1:])
    for p, (a, b, fb, ha, hb) in enumerate(pieces, first):
        part = fb * (hb - ha)
        _, c1, c2 = f.piece(p)
        if (c1, c2) != (0.0, 0.0) and hb != ha:
            # f'(t) = d0 + d1 (t - anchor)
            anchor, d0, d1 = f.breakpoints[p - 1], c1, 2.0 * c2
            scale = max(abs(ha), abs(hb)) * max(abs(d0 + d1 * (a - anchor)),
                                                abs(d0 + d1 * (b - anchor)))
            budget = max(rate, _ROUNDING_ULPS * np.finfo(float).eps * scale) * (b - a)
            part -= adaptive_integrate(
                lambda t: (alpha.eval(t) - ha) * (d0 + d1 * (t - anchor)),
                a, b, max(budget, math.ulp(0.0)), splits,  # a tiny piece's budget can underflow
            )
        total += part
    return float(total)


def ls_integrate(
    f: Callable,
    alpha: CdfLike,
    support: tuple[float, float],
    tol: float = 1e-8,
    max_depth: int = 22,
) -> float:
    """Integral of a continuous f against the measure generated by alpha.

    Refines Riemann-Stieltjes sums over (support[0], support[1]] until
    two successive halvings move the estimate by less than ``tol``.
    Declared jumps of alpha are tagged atomically; if f carries a
    ``breakpoints`` attribute (its kink locations), panels are aligned
    with them, which speeds convergence but is never required.

    The support is cut at alpha's declared jumps and f's breakpoints.
    At a refinement level of n cells per segment, ``alpha.eval`` is
    called once on the n + 1 nodes and ``f`` once on the n tags of each
    segment, one segment after the other, so peak memory is that of one
    segment. A value of f that is not finite raises ``NumericError``
    carrying its abscissa as ``point``. The support endpoints must be
    finite and ordered, and ``tol`` positive and finite (``ValueError``
    otherwise; a NaN ``tol`` counts as not positive).

    A probe built by ``make_ramp`` or ``make_cutoff``, or a product of
    the two as ``recover_cdf`` and ``total_mass`` use them, is integrated
    by parts instead (see ``_integrate_by_parts``): a piece where the
    probe is constant costs two values of alpha, a sloped piece one
    ``adaptive_integrate`` call on alpha. That branch never raises
    ``ConvergenceError`` and ignores ``max_depth``. Any other f takes the
    Riemann-Stieltjes path.
    """
    lo, hi = _check_support("support", support)
    _check_tol(tol)
    if lo == hi:
        return 0.0
    if isinstance(f, _Probe):
        return _integrate_by_parts(f, alpha, lo, hi, tol)

    edges = _split(lo, hi, [*alpha.breakpoints, *getattr(f, "breakpoints", ())])
    estimates: list[float] = []
    for depth in range(3, max_depth + 1):
        n_cells = 2**depth
        estimates.append(sum(_rs_segment(f, alpha, a, b, n_cells)
                             for a, b in zip(edges[:-1], edges[1:])))
        if (
            len(estimates) >= 3
            and abs(estimates[-1] - estimates[-2]) < tol
            and abs(estimates[-2] - estimates[-3]) < tol
        ):
            return estimates[-1]
    raise ConvergenceError(
        f"Riemann-Stieltjes refinement did not settle below tol={tol} "
        f"within depth {max_depth}",
        estimates=tuple(estimates[-2:]),
    )


@dataclass(frozen=True)
class RampSpec:
    """Descending ramp: 1 up to x, affine down to 0 across width 1/j. A
    non-finite x, or a j below 1 or not finite, raises ``ValueError``."""

    x: float
    j: int

    def __post_init__(self):
        _check_point(self.x)
        _check_limit("slope parameter j", self.j)


def make_ramp(spec: RampSpec) -> Callable:
    """Continuous f with f=1 on (-inf, x], affine on [x, x+1/j], 0 beyond."""
    x, width = spec.x, 1.0 / spec.j
    return _Probe(((x, x + width), (1.0, 0.0), 1.0, 0.0))


def make_cutoff(j: int) -> Callable:
    """Compact-support plateau: 1 on [-j, j], affine to 0 at +-(j+1)."""
    _check_limit("cutoff index", j)
    return _Probe(
        ((-(j + 1.0), -float(j), float(j), j + 1.0), (0.0, 1.0, 1.0, 0.0), 0.0, 0.0)
    )


def _probe_product(ramp: _Probe, cutoff: _Probe) -> _Probe:
    return _Probe(*ramp._factors, *cutoff._factors)


@dataclass(frozen=True)
class ExpectationOracle:
    """Black-box expectation functional on compact-support continuous functions.

    The functional is positive: the oracle promises |L(f)| <= sup|f| for
    the probe functions used here (all bounded by 1), and the recovery
    routines enforce that bound.

    ``support``, when given as ``(a, b)``, is a second promise: L(f)
    depends only on the values of f on the closed interval [a, b]. Once a
    cutoff is 1 on all of [a, b], the cutoff limit is reached exactly, so
    ``recover_cdf`` and ``total_mass`` end each cutoff ladder at the first
    index m with -m <= a and b <= m. The endpoints must be
    finite with a <= b (``ValueError`` otherwise); ``None`` promises
    nothing and the ladders run until two values agree.
    """

    apply: Callable
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.support is not None:
            object.__setattr__(self, "support", _check_support("oracle support", self.support))

    def _covered_by(self, m: int) -> bool:
        """Is the support inside [-m, m], where the cutoff of index m is 1?"""
        return self.support is not None and -m <= self.support[0] and self.support[1] <= m


def oracle_from_cdf(
    alpha: CdfLike, support: tuple[float, float], tol: float = 1e-8
) -> ExpectationOracle:
    """Oracle L(f) = integral of f against the measure of ``alpha``.

    ``support`` must cover the measure's mass; probe functions outside it
    contribute nothing. The integral only reads f on (support[0],
    support[1]], so the oracle carries ``support`` as its promised
    support. Its endpoints must be finite and ordered (``ValueError``).
    """
    return ExpectationOracle(
        apply=lambda f: ls_integrate(f, alpha, support, tol),
        support=support,
    )


def oracle_from_samples(samples: Sequence[float]) -> ExpectationOracle:
    """Empirical-mean oracle L(f) = mean of f over the sample points.

    The samples are sorted once, into one copy: O(n log n) time here and
    n floats of memory. A probe (ramp, cutoff or their product) costs
    O(K log n) for its K breakpoints plus the samples where it slopes:
    ``searchsorted`` counts the samples in each piece between
    breakpoints, a piece where the probe is constant adds count * value,
    a sloped piece the sum of the probe over its samples, and the pieces
    are summed in order and divided by n. Any other callable gets
    ``float(np.mean(f(xs)))`` over the samples in the order given. The
    two differ only by rounding.

    The oracle's promised support is [min, max] of the samples, and it
    changes no bit: only breakpoints strictly inside (min, max) cut the
    samples, so every cutoff that covers them splits them alike. Raises
    ValueError for samples that are not one-dimensional, for no samples,
    or for a non-finite one (NaN or +-inf).
    """
    xs = np.asarray(samples, dtype=float)
    if xs.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {xs.shape}")
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    ordered = np.sort(xs)
    lo, hi = float(ordered[0]), float(ordered[-1])

    def apply(f):
        if not isinstance(f, _Probe):
            return float(np.mean(_evaluate(f, xs)))
        # the probe is continuous, so a sample on a breakpoint may sit in
        # either piece beside it; only breakpoints inside (lo, hi) cut
        first, inner = f.inside(lo, hi)
        total, start = 0.0, 0
        for p, stop in enumerate([*ordered.searchsorted(inner).tolist(), xs.size], first):
            if stop > start:
                c0, c1, c2 = f.piece(p)
                total += (stop - start) * c0 if c1 == c2 == 0.0 else f(ordered[start:stop]).sum()
            start = stop
        return float(total / xs.size)

    return ExpectationOracle(apply=apply, support=(lo, hi))


def _cutoff_limit(
    oracle: ExpectationOracle, ramp, m_max: int, slack: float, agree: float, at=None
) -> tuple[float, int]:
    """Limit of L over the cutoffs of index m, each times ``ramp`` unless it
    is None; returns (value, m). A value may fall at most ``slack`` below
    the last; the ladder stops when two agree within ``agree``, or at the
    first cutoff that covers the support. ``at`` is the ramp's (x, j)."""
    prev = None
    for m in _ladder_indices(m_max):
        probe = make_cutoff(m)
        if ramp is not None:
            probe = _probe_product(ramp, probe)
        value = float(oracle.apply(probe))
        if not abs(value) <= 1.0 + 1e-8:  # every probe is bounded by 1 in sup norm; NaN fails
            raise ContractViolationError(
                f"oracle returned {value!r} for a probe bounded by 1; "
                "|L(f)| <= sup|f| is violated"
            )
        if prev is not None:
            if value < prev - slack:
                where = "" if at is None else f" (x={at[0]}, j={at[1]})"
                raise ContractViolationError(
                    f"cutoff ladder decreased at m={m}{where}: {prev!r} -> {value!r}",
                    index=m,
                )
            if abs(value - prev) < agree:
                return value, m
        if oracle._covered_by(m):
            return value, m
        prev = value
    return value, m  # the ladder always ends at m_max


def _ramp_ladder(L, x, js, upper, m_max: int, tol: float, known=None):
    """Yield (j, value, m) for each j in ``js``: the cutoff limit of the
    ramp at (x, j) and the cutoff index its ladder stopped at, or
    ``known[j]``, a rung already walked, which asks the oracle nothing.
    Each value may exceed the one before it (``upper`` for the first, None
    for none) by at most ``tol``."""
    for j in js:
        rung = known.get(j) if known else None
        if rung is None:
            rung = _cutoff_limit(L, make_ramp(RampSpec(float(x), j)), m_max, tol, tol / 2, (x, j))
        value, m = rung
        if upper is not None and value > upper + tol:
            raise ContractViolationError(
                f"ramp ladder increased at j={j} (x={x}): {upper!r} -> {value!r}", index=j
            )
        yield j, value, m
        upper = value


def _richardson(js: Sequence[int], values: Sequence[float], slack: float) -> float | None:
    """F with the c/j term removed from the last two ladder values, if the
    last three decay like c/j within relative ``slack``; else None."""
    d1 = values[-3] - values[-2]
    d2 = values[-2] - values[-1]
    expected = (1.0 / js[-2] - 1.0 / js[-1]) / (1.0 / js[-3] - 1.0 / js[-2])
    if d1 <= 0 or not (1.0 - slack) * expected <= d2 / d1 <= (1.0 + slack) * expected:
        return None
    return (js[-1] * values[-1] - js[-2] * values[-2]) / (js[-1] - js[-2])


_PLATEAU = 1e-12  # a ramp-ladder step this small is a plateau, taken as it is


def _recover(L, x, j_max: int, m_max: int, tol: float):
    """``recover_cdf`` on checked arguments: (value, method, js, ramp
    ladder, m_reached)."""
    js, values = [], []
    for j, value, m_reached in _ramp_ladder(L, x, _ladder_indices(j_max), None, m_max, tol):
        js.append(j)
        values.append(value)
        d = abs(value - values[-2]) if len(values) >= 2 else math.inf
        # a plateau ends the ladder; one difference below tol can be a
        # fluke (the ladder is linear, not settled, when an atom sits just
        # right of x), so that stop asks for two
        if d < _PLATEAU or (len(values) >= 3 and d < tol and abs(values[-2] - values[-3]) < tol):
            break

    raw = values[-1]
    plateau = len(values) >= 2 and abs(raw - values[-2]) < _PLATEAU
    extrapolated = None
    if not plateau and len(values) >= 3:
        extrapolated = _richardson(js, values, slack=0.25)
        # the doubling ladder may straddle a regime change (support edge
        # inside the last ramp window); retry on a tail of more closely
        # spaced j just below the last one before settling for raw
        tail = [(3 * js[-1]) // 4, (7 * js[-1]) // 8, js[-1]]
        if extrapolated is None and js[-2] < tail[0] < tail[1] < tail[2]:
            walk = _ramp_ladder(L, x, tail, values[-2], m_max, tol, {js[-1]: (raw, m_reached)})
            extrapolated = _richardson(tail, [value for _, value, _ in walk], slack=0.2)
    method = "plateau" if plateau else "raw" if extrapolated is None else "extrapolated"
    value = raw if extrapolated is None else min(max(extrapolated, 0.0), raw)
    return value, method, js, values, m_reached


def recover_cdf(
    L: ExpectationOracle,
    x: float,
    j_max: int = 64,
    m_max: int = 64,
    tol: float = 1e-6,
    full_output: bool = False,
):
    """Distribution-function value F(x) recovered from the oracle.

    Evaluates the oracle on products of the descending ramp at ``x`` with
    growing cutoffs, takes the cutoff limit first, then the ramp-slope limit
    over j = 1, 2, 4, ..., ``j_max``, which stops early at a plateau (two
    values within 1e-12) or once two successive differences are below
    ``tol``. The raw ramp values approach F(x) from above, with excess about
    density/(2j) when the law has a density near x, so the final doubling
    step is extrapolated whenever that 1/j decay is confirmed by the ladder
    itself; when it is not (atom near x, or no mass at all in the ramp
    window), extrapolation is retried on the closer ladder 3j/4, 7j/8, j and
    otherwise the raw value at the largest j is returned, which is then
    already exact up to the unresolvable window. All candidate values are
    clamped to [0, a_last] since the ramps dominate the indicator.

    Each cutoff ladder stops when two successive values agree within
    ``tol / 2``, or at once when the oracle promises a ``support`` that
    the cutoff covers; the value is the same either way, since every
    covering cutoff gives the same probe on the support.

    With ``full_output=True`` returns ``(value, info)`` where ``info``
    carries the final (j, m) reached, the raw ramp ladder, and which of
    plateau / extrapolated / raw produced the value. ``m_reached`` is the
    cutoff index at which the last ramp's ladder stopped: the first
    covering index for an oracle with a support, else the index of the
    second of the two agreeing values (or ``m_max``). A non-finite ``x``,
    a ``j_max`` or ``m_max`` that is below 1 or not finite, or a ``tol``
    that is not positive and finite (NaN included), raises ``ValueError``.
    """
    _check_point(x)
    _check_limit("j_max", j_max)
    _check_limit("m_max", m_max)
    _check_tol(tol)
    result, method, js, values, m_reached = _recover(L, x, j_max, m_max, tol)
    if full_output:
        info = {
            "j_reached": js[-1],
            "m_reached": m_reached,
            "ramp_ladder": tuple(values),
            "method": method,
        }
        return result, info
    return result


def total_mass(L: ExpectationOracle, m_max: int = 64) -> float:
    """Total mass of the represented measure: the limit of L over cutoffs.

    It is the cutoff limit that ``recover_cdf`` takes inside every ramp,
    run on the bare cutoffs: the ladder stops when two successive values
    agree within 1e-12, or at the first cutoff that covers the oracle's
    ``support``, and may not decrease by more than 1e-12. ``m_max`` must
    be at least 1 and finite.
    """
    _check_limit("m_max", m_max)
    return _cutoff_limit(L, None, m_max, 1e-12, 1e-12)[0]


class RecoveredCdf:
    """Dense queryable distribution function backed by pointwise recovery.

    Point evaluations are memoized (dict insert is atomic under the GIL,
    so concurrent queries at distinct points are safe and independent of
    order). Jump locations are detected by comparing values across a
    small symmetric window. ``j_max``, ``m_max`` and ``tol`` are checked
    at construction, with the ``ValueError`` that ``recover_cdf`` raises.
    """

    def __init__(
        self,
        oracle: ExpectationOracle,
        j_max: int = 64,
        m_max: int = 64,
        tol: float = 1e-6,
    ):
        _check_limit("j_max", j_max)
        _check_limit("m_max", m_max)
        _check_tol(tol)
        self.oracle = oracle
        self.j_max = j_max
        self.m_max = m_max
        self.tol = tol
        self._cache: dict[float, float] = {}

    def _point(self, x: float) -> float:
        key = float(x)
        if key not in self._cache:
            _check_point(key)
            self._cache[key] = _recover(self.oracle, key, self.j_max, self.m_max, self.tol)[0]
        return self._cache[key]

    def eval(self, x):
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            return self._point(float(xs))
        return np.array([self._point(xi) for xi in xs.ravel()]).reshape(xs.shape)

    __call__ = eval

    def detect_breakpoints(self, grid) -> tuple[float, ...]:
        """Grid points x where the recovered F rises by more than 10 * tol from
        x - 1e-4 to x + 1e-4: atoms, but also every x where the density exceeds
        10 * tol / 2e-4 (0.05 at tol=1e-6), so a law with no atom gets jumps."""
        found = []
        for x in np.asarray(grid, dtype=float):
            if self._point(x + 1e-4) - self._point(x - 1e-4) > 10.0 * self.tol:
                found.append(float(x))
        return tuple(found)

    def as_cdf(self, grid=None) -> CdfLike:
        """Package the recovery as a CdfLike generator (normalized: c- = 0)."""
        breakpoints = self.detect_breakpoints(grid) if grid is not None else ()
        return CdfLike(
            eval=self.eval,
            c_minus=0.0,
            c_plus=total_mass(self.oracle, self.m_max),
            breakpoints=breakpoints,
        )
