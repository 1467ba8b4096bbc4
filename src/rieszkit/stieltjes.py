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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, ConvergenceError
from .numerics import (_bisect, _check_finite, _count, _cut, _evaluate, _ladder_indices,
                       _number, _numbers, _positive, _real, _sum_in_order)

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
    finite raises ``ValueError`` naming its list. ``c_minus`` and
    ``c_plus`` are finite reals with c_minus <= c_plus.
    """

    eval: Callable
    c_minus: float
    c_plus: float
    breakpoints: tuple[float, ...] = ()
    kinks: tuple[float, ...] = ()

    def __post_init__(self):
        for name in ("c_minus", "c_plus"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        if not self.c_minus <= self.c_plus:
            raise ValueError(f"c_minus={self.c_minus} exceeds c_plus={self.c_plus}")
        for name in ("breakpoints", "kinks"):
            points = {_real(x, name) for x in getattr(self, name)}
            object.__setattr__(self, name, tuple(sorted(points)))

    def __call__(self, x):
        return self.eval(x)


def uniform_cdf(lo: float = 0.0, hi: float = 1.0) -> CdfLike:
    """CDF of the uniform law on (lo, hi); its kinks are lo and hi."""
    lo, hi = _real(lo, "lo"), _real(hi, "hi")
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
    lo, mode, hi = _real(lo, "lo"), _real(mode, "mode"), _real(hi, "hi")
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
    x1, p1, x2 = _real(x1, "x1"), _real(p1, "p1"), _real(x2, "x2")
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
    at = _real(at, "at")

    def F(x):
        return np.where(np.asarray(x, dtype=float) >= at, 1.0, 0.0)

    return CdfLike(F, 0.0, 1.0, breakpoints=(at,))


def ls_measure_interval(alpha: CdfLike, a: float, b: float) -> float:
    """Mass of the half-open interval (a, b] under the measure of ``alpha``;
    a and b are finite reals with a <= b (``ValueError`` otherwise)."""
    a, b = _number(a, "a"), _number(b, "b")
    if not a <= b:  # NaN included
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    a, b = _real(a, "a"), _real(b, "b")
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
    """``support`` as reals (lo, hi); ``ValueError`` unless -inf < lo <= hi < inf."""
    lo, hi = (_number(end, name) for end in support)
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"{name} must be finite and ordered, got {support}")
    return lo, hi


class _Probe:
    """A batch of probes of one shape: ramps, cutoffs or their products,
    each a product of at most two piecewise-linear factors.

    Each factor is ``(knots, values, left, right)`` with ``knots`` an
    (n, q) array, one row per probe: the factor of probe i is ``left``
    below knots[i, 0], ``right`` from knots[i, -1] on (its last value), and
    between them linear from each knot's value to the next one's (see
    ``_forms``). The probe's value is the product of its factors' values,
    in order. The probe a caller sees is a batch of one, which can be
    called on any array of points, and ``breakpoints`` lists its knots.
    """

    def __init__(self, *factors):
        self._factors = factors

    @property
    def breakpoints(self) -> tuple[float, ...]:
        return tuple(sorted(set(np.concatenate([f[0][0] for f in self._factors]).tolist())))

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        row = t.reshape(1, -1)
        out = _product(row, [_forms(row, *factor) for factor in self._factors])
        return out.reshape(t.shape)[()]


def _forms(t: np.ndarray, rows: np.ndarray, values, left: float, right: float):
    """(x0, f0, s) at each point of t, shape (n, P), for the factor whose
    knots are the rows of ``rows``, shape (n, q): on the knot interval that
    holds the point the factor is s * (u - x0) + f0 at u, with x0 the
    interval's first knot, f0 its value and s = (next value - f0) / gap,
    the bits of linear interpolation in numpy. Below the first knot s = 0
    and f0 = left, from the last on s = 0 and f0 = right."""
    n, q = rows.shape
    k = np.count_nonzero(rows[:, None, :] <= t[:, :, None], axis=2)  # the knots at or below
    starts = np.empty((n, q + 1))
    starts[:, 0], starts[:, 1:] = rows[:, 0], rows
    gaps = rows[:, 1:] - rows[:, :-1]
    slopes = np.zeros((n, q + 1))
    np.divide([v1 - v0 for v0, v1 in zip(values[:-1], values[1:])], gaps,
              out=slopes[:, 1:q], where=gaps > 0)
    flat = k + (q + 1) * np.arange(n)[:, None]
    return starts.ravel()[flat], np.array([left, *values[:-1], right])[k], slopes.ravel()[flat]


def _product(t: np.ndarray, forms) -> np.ndarray:
    """The probe at t, the product of its factors' (x0, f0, s) forms."""
    out = None
    for x0, f0, s in forms:
        value = s * (t - x0) + f0
        out = value if out is None else out * value
    return out


def _pieces(probes: _Probe, end: float):
    """The piece model of a batch of probes of one shape.

    Returns the knots of each probe, sorted (n, K); the anchors, the knots
    and then ``end`` (n, K + 1); the probe's value and its factors' forms
    at each anchor; and (c1, c2), each (n, K). Piece p >= 1 runs from knot
    p - 1 (its anchor a) up to knot p (or beyond the last), and there
    f(a + u) = f(a) + c1 u + c2 u**2 with the coefficients of column p - 1.
    Piece 0 lies below every knot, where the probe is constant.
    """
    knots = np.sort(np.concatenate([f[0] for f in probes._factors], axis=1), axis=1)
    anchors = np.empty((len(knots), knots.shape[1] + 1))
    anchors[:, :-1], anchors[:, -1] = knots, end
    c0, c1, c2, forms = 1.0, 0.0, 0.0, []
    for factor in probes._factors:
        x0, f0, s = form = _forms(anchors, *factor)
        v = s * (anchors - x0) + f0
        c0, c1, c2 = c0 * v, c1 * v + c0 * s, c2 * v + c1 * s
        forms.append(form)
    return knots, anchors, c0, forms, (c1[:, :-1], c2[:, :-1])


# The by-parts branch spends this share of ls_integrate's tol on the
# ordinary integrals of its sloped pieces, and never asks them for less
# than this many ulps of the integrand's scale per unit length.
_BY_PARTS_SHARE = 1e-2
_ROUNDING_ULPS = 100 * np.finfo(float).eps


def _by_parts(probes: _Probe, alpha: CdfLike, lo: float, hi: float, tol: float) -> np.ndarray:
    """Integral of each probe of the batch over (lo, hi] against alpha.

    The knots, clipped to [lo, hi], cut (lo, hi] into pieces (a, b]; on each
    Stieltjes integration by parts in centred form gives
    f(b) (alpha(b) - alpha(a)) - int_a^b (alpha(t) - alpha(a)) f'(t) dt.
    alpha is evaluated at all piece ends in one call; where f' = 0 or
    alpha does not move, the ordinary integral is 0 and is not computed.
    The others are split at alpha's declared jumps and kinks and go to
    ``_bisect`` together, each to a budget of ``_BY_PARTS_SHARE * tol``
    spread over (lo, hi] by length. Between those split points a law with
    a piecewise-polynomial CDF of degree <= 2 makes the integrand a cubic
    at most, which one panel integrates. Per unit length the budget never
    drops below 100 ulps of max|alpha| * max|f'| on the piece, the scale
    of the rounding in the integrand, so however small ``tol`` is, panels
    that differ only by rounding are accepted and the bisection ends. The
    pieces of a probe are added in order, so its bits depend on it alone:
    a knot outside (lo, hi) gives a piece of length 0, which adds 0.0.
    """
    n = len(probes._factors[0][0])
    if lo == hi:
        return np.zeros(n)
    knots, anchors, values, _, (c1, c2) = _pieces(probes, hi)
    edges = np.empty((n, knots.shape[1] + 2))
    edges[:, 0], edges[:, -1] = lo, hi
    np.minimum(np.maximum(knots, lo), hi, out=edges[:, 1:-1])
    heights = _evaluate(alpha.eval, edges.ravel()).reshape(edges.shape)
    # f(b) is the value at the knot b, or at hi where b is clipped to it
    parts = np.where(anchors < hi, values, values[:, -1:]) * (heights[:, 1:] - heights[:, :-1])
    # piece p >= 1 is (a, b] = (edges[p], edges[p + 1]], with column p - 1 of c1, c2
    a, b, ha, hb = edges[:, 1:-1], edges[:, 2:], heights[:, 1:-1], heights[:, 2:]
    sloped = (b > a) & ((c1 != 0.0) | (c2 != 0.0)) & (hb != ha)
    if sloped.any():
        # f'(t) = d0 + d1 (t - anchor) on each sloped piece
        a, b, ha, hb, anchor = a[sloped], b[sloped], ha[sloped], hb[sloped], knots[sloped]
        d0, d1 = c1[sloped], 2.0 * c2[sloped]
        scale = np.fmax(np.abs(ha), np.abs(hb)) * np.fmax(np.abs(d0 + d1 * (a - anchor)),
                                                          np.abs(d0 + d1 * (b - anchor)))
        rate = _BY_PARTS_SHARE * tol / (hi - lo)
        budget = np.fmax(rate, _ROUNDING_ULPS * scale) * (b - a)
        budget = np.maximum(budget, math.ulp(0.0))  # a tiny piece's budget can underflow
        piece, starts, stops = _cut(a, b, alpha.breakpoints, alpha.kinks)

        def integrand(t, rows):
            p = piece[rows, None]
            return ((_evaluate(alpha.eval, t.ravel()).reshape(t.shape) - ha[p])
                    * (d0[p] + d1[p] * (t - anchor[p])))

        integrals = _bisect(integrand, starts, stops,
                            budget[piece] * (stops - starts) / (b - a)[piece])
        parts[:, 1:][sloped] -= _sum_in_order(integrals, piece, len(a))
    return _sum_in_order(parts.ravel(), np.repeat(np.arange(n), parts.shape[1]), n)


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
    ``breakpoints`` attribute (its kink locations, a sequence of finite
    reals), panels are aligned with them, which speeds convergence but is
    never required.

    The support is cut at alpha's declared jumps and f's breakpoints.
    At a refinement level of n cells per segment, ``alpha.eval`` is
    called once on the n + 1 nodes and ``f`` once on the n tags of each
    segment, one segment after the other, so peak memory is that of one
    segment. A value of f that is not finite raises ``NumericError``
    carrying its abscissa as ``point``. The support endpoints must be
    finite and ordered, ``tol`` is a positive real and ``max_depth`` a
    count >= 5, since the stop needs three estimates and they start at
    depth 3 (``ValueError`` otherwise).

    A probe built by ``make_ramp`` or ``make_cutoff``, or a product of
    the two as ``recover_cdf`` and ``total_mass`` use them, is integrated
    by parts instead, as a batch of one (see ``_by_parts``, which
    ``oracle_from_cdf`` also runs on a whole column of ramps): alpha is
    called once on the probe's piece ends and once per bisection level on
    the panels of its sloped pieces. That branch never raises
    ``ConvergenceError`` and ignores ``max_depth``. Any other f takes the
    Riemann-Stieltjes path.
    """
    lo, hi = _check_support("support", support)
    tol = _positive(tol, "tol")
    max_depth = _count(max_depth, "max_depth", 5)
    if lo == hi:
        return 0.0
    if isinstance(f, _Probe):
        return float(_by_parts(f, alpha, lo, hi, tol)[0])

    _, starts, stops = _cut(lo, hi, alpha.breakpoints, getattr(f, "breakpoints", ()))
    estimates: list[float] = []
    for depth in range(3, max_depth + 1):
        n_cells = 2**depth
        estimates.append(sum(_rs_segment(f, alpha, a, b, n_cells)
                             for a, b in zip(starts, stops)))
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
    """Descending ramp: 1 up to x, affine down to 0 across width 1/j. x is
    a finite real and j a count >= 1 (``ValueError`` otherwise)."""

    x: float
    j: int

    def __post_init__(self):
        object.__setattr__(self, "x", _real(self.x, "x"))
        object.__setattr__(self, "j", _count(self.j, "slope parameter j"))


# (values, left, right) of the ramp's and the cutoff's factors
_RAMP = ((1.0, 0.0), 1.0, 0.0)
_CUTOFF = ((0.0, 1.0, 1.0, 0.0), 0.0, 0.0)


def _cutoff_knots(j):
    return -(j + 1.0), -float(j), float(j), j + 1.0


def make_ramp(spec: RampSpec) -> Callable:
    """Continuous f with f=1 on (-inf, x], affine on [x, x+1/j], 0 beyond."""
    return _Probe((np.array([[spec.x, spec.x + 1.0 / spec.j]]), *_RAMP))


def make_cutoff(j: int) -> Callable:
    """Compact-support plateau: 1 on [-j, j], affine to 0 at +-(j+1); j is
    a count >= 1 (``ValueError`` otherwise)."""
    return _Probe((np.array([_cutoff_knots(_count(j, "cutoff index j"))]), *_CUTOFF))


def _probe_product(ramp: _Probe, cutoff: _Probe) -> _Probe:
    return _Probe(*ramp._factors, *cutoff._factors)


def _ramps(x: float, js: Sequence[int], m: int) -> _Probe:
    """``_probe_product(make_ramp(RampSpec(x, j)), make_cutoff(m))`` for
    each j in ``js``, as one batch."""
    ramps = np.empty((len(js), 2))
    ramps[:, 0] = x
    ramps[:, 1] = x + 1.0 / np.asarray(js, dtype=float)
    cutoffs = np.array([_cutoff_knots(m)]).repeat(len(js), axis=0)
    return _Probe((ramps, *_RAMP), (cutoffs, *_CUTOFF))


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
    support. Its endpoints must be finite and ordered, and ``tol`` is a
    positive real (``ValueError`` otherwise).

    Its apply calls ``ls_integrate(f, alpha, support, tol)``. The recovery
    ladders ask it for a column of ramps at a time (one x, every slope of
    the ladder, one cutoff), which it integrates by parts in one
    vectorised pass over the column with the same bits.
    """
    tol = _positive(tol, "tol")
    lo, hi = _check_support("oracle support", support)

    def apply(f):
        return ls_integrate(f, alpha, support, tol)

    apply._batch = lambda probes: _by_parts(probes, alpha, lo, hi, tol)
    return ExpectationOracle(apply=apply, support=(lo, hi))


def _sample_sums(probes: _Probe, ordered: np.ndarray) -> np.ndarray:
    """Sum of each probe of the batch over the sorted samples.

    ``searchsorted`` counts the samples in each piece between knots. A
    piece where the probe is constant adds count * value; on a sloped
    piece the probe is evaluated on its samples only, and they are added
    with one ``np.add.reduceat`` per batch. The pieces of a probe are
    added in order. The probe is continuous, so a sample on a knot may sit
    in either piece beside it; a knot at or beyond the last sample cuts
    nothing, so every cutoff that covers the samples splits them alike.
    """
    knots, _, values, forms, (c1, c2) = _pieces(probes, ordered[-1])
    n, size = len(knots), len(ordered)
    cuts = np.where(knots >= ordered[-1], size, np.searchsorted(ordered, knots))
    bounds = np.zeros((n, cuts.shape[1] + 2), dtype=int)
    bounds[:, 1:-1], bounds[:, -1] = cuts, size
    counts = bounds[:, 1:] - bounds[:, :-1]
    # piece 0 lies below every knot, where each factor is its left value
    parts = counts * np.concatenate([np.full((n, 1), math.prod(f[2] for f in probes._factors)),
                                     values[:, :-1]], axis=1)
    sloped = (counts[:, 1:] > 0) & ((c1 != 0.0) | (c2 != 0.0))
    if sloped.any():
        length = counts[:, 1:][sloped]
        offsets = np.cumsum(length) - length
        index = np.repeat(cuts[sloped] - offsets, length) + np.arange(length.sum())
        on_samples = [tuple(np.repeat(c[:, :-1][sloped], length) for c in form) for form in forms]
        parts[:, 1:][sloped] = np.add.reduceat(_product(ordered[index], on_samples), offsets)
    return _sum_in_order(parts.ravel(), np.repeat(np.arange(n), parts.shape[1]), n)


def oracle_from_samples(samples: Sequence[float]) -> ExpectationOracle:
    """Empirical-mean oracle L(f) = mean of f over the sample points.

    The samples are sorted once, into one copy: O(n log n) time here and
    n floats of memory. A probe (ramp, cutoff or their product) costs
    O(K log n) for its K knots plus the samples where it slopes (see
    ``_sample_sums``), and the recovery ladders ask for a column of ramps
    at a time (one x, every slope of the ladder, one cutoff), answered in
    one vectorised pass with the same bits. The sum is divided by n. Any
    other callable gets ``float(np.mean(f(xs)))`` over the samples in the
    order given. The two differ only by rounding.

    The oracle's promised support is [min, max] of the samples, and it
    changes no bit. Raises ValueError for samples that are not
    one-dimensional or not of a real dtype (bool, str or object), for no
    samples, or for a non-finite one (NaN or +-inf).
    """
    xs = _numbers(samples, "samples")
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    ordered = np.sort(xs)

    def mean(probes):
        return _sample_sums(probes, ordered) / xs.size

    def apply(f):
        if isinstance(f, _Probe):
            return float(mean(f)[0])
        return float(np.mean(_evaluate(f, xs)))

    apply._batch = mean
    return ExpectationOracle(apply=apply, support=(float(ordered[0]), float(ordered[-1])))


def _cutoff_limit(
    oracle: ExpectationOracle, value: Callable, m_max: int, slack: float, agree: float, at=None
) -> tuple[float, int]:
    """Limit over the cutoff indices m of ``value(m)``, L on the cutoff of
    index m (times a ramp); returns (value, m). A value may fall at most
    ``slack`` below the last; the ladder stops when two agree within
    ``agree``, or at the first cutoff that covers the support. ``at`` is
    the ramp's (x, j)."""
    prev = None
    for m in _ladder_indices(m_max):
        value_m = float(value(m))
        if not abs(value_m) <= 1.0 + 1e-8:  # every probe is bounded by 1 in sup norm; NaN fails
            raise ContractViolationError(
                f"oracle returned {value_m!r} for a probe bounded by 1; "
                "|L(f)| <= sup|f| is violated"
            )
        if prev is not None:
            if value_m < prev - slack:
                where = "" if at is None else f" (x={at[0]}, j={at[1]})"
                raise ContractViolationError(
                    f"cutoff ladder decreased at m={m}{where}: {prev!r} -> {value_m!r}",
                    index=m,
                )
            if abs(value_m - prev) < agree:
                return value_m, m
        if oracle._covered_by(m):
            return value_m, m
        prev = value_m
    return value_m, m  # the ladder always ends at m_max


def _ramp_ladder(L, x, js, upper, m_max: int, tol: float, known=None):
    """Yield (j, value, m) for each j in ``js``: the cutoff limit of the
    ramp at (x, j) and the cutoff index its ladder stopped at, or
    ``known[j]``, a rung already walked, which asks the oracle nothing.
    Each value may exceed the one before it (``upper`` for the first, None
    for none) by at most ``tol``.

    A built-in apply carries ``_batch(probes)``, its values on a batch of
    probes in one pass with the bits of its calls one by one; it is asked
    at the first miss at cutoff index m for that m and every j not known,
    in one call. Any other apply, a wrapped built-in one too, is asked
    once per probe, as the walk reads them. A column that raised is asked
    probe by probe too, so an error surfaces only at a probe the walk
    reads, as that probe's own."""
    batch = getattr(L.apply, "_batch", None)
    todo = [j for j in js if not known or j not in known]
    columns: dict[int, dict] = {}

    def value(j, m):
        if batch is not None and m not in columns:
            try:
                columns[m] = dict(zip(todo, batch(_ramps(x, todo, m)).tolist()))
            except Exception:  # raised again below, by the probe the walk reads
                columns[m] = {}
        if j in columns.get(m, ()):
            return columns[m][j]
        return L.apply(_ramps(x, (j,), m))

    for j in js:
        rung = known.get(j) if known else None
        if rung is None:
            rung = _cutoff_limit(L, lambda m: value(j, m), m_max, tol, tol / 2, (x, j))
        value_j, m = rung
        if upper is not None and value_j > upper + tol:
            raise ContractViolationError(
                f"ramp ladder increased at j={j} (x={x}): {upper!r} -> {value_j!r}", index=j
            )
        yield j, value_j, m
        upper = value_j


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
    covering cutoff gives the same probe on the support. The apply of
    ``oracle_from_cdf`` or ``oracle_from_samples`` is asked for a column
    of ramps at a time (every doubling j at one cutoff index, then the
    tail 3j/4, 7j/8), in one vectorised pass; any other apply, a wrapped
    built-in one too, gets one call per probe, in the order of the walk.
    Values, exits and errors are the same either way.

    With ``full_output=True`` returns ``(value, info)`` where ``info``
    carries the final (j, m) reached, the raw ramp ladder, and which of
    plateau / extrapolated / raw produced the value. ``m_reached`` is the
    cutoff index at which the last ramp's ladder stopped: the first
    covering index for an oracle with a support, else the index of the
    second of the two agreeing values (or ``m_max``). ``x`` is a finite
    real, ``j_max`` and ``m_max`` are counts >= 1 and ``tol`` is a positive
    real (``ValueError`` otherwise, for ``x`` first).
    """
    x = _real(x, "x")
    j_max, m_max = _count(j_max, "j_max"), _count(m_max, "m_max")
    tol = _positive(tol, "tol")
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
    ``support``, and may not decrease by more than 1e-12. ``m_max`` is a
    count >= 1 (``ValueError`` otherwise).
    """
    return _cutoff_limit(L, lambda m: L.apply(make_cutoff(m)), _count(m_max, "m_max"),
                         1e-12, 1e-12)[0]


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
        self.oracle = oracle
        self.j_max, self.m_max = _count(j_max, "j_max"), _count(m_max, "m_max")
        self.tol = _positive(tol, "tol")
        self._cache: dict[float, float] = {}

    def _point(self, x: float) -> float:
        key = _real(x, "x")
        if key not in self._cache:
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
