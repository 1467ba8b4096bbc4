"""Lebesgue-Stieltjes integration and CDF recovery from expectation oracles.

A right-continuous nondecreasing generator plays the role of the
distribution function. Integration against it is done by refined
Riemann-Stieltjes sums with declared jump points handled atomically.
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
from .numerics import _evaluate, _ladder_indices

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
    them atomically.
    """

    eval: Callable
    c_minus: float
    c_plus: float
    breakpoints: tuple[float, ...] | None = None

    def __post_init__(self):
        if not self.c_minus <= self.c_plus:
            raise ValueError(f"c_minus={self.c_minus} exceeds c_plus={self.c_plus}")
        if self.breakpoints is not None:
            object.__setattr__(self, "breakpoints", tuple(sorted(self.breakpoints)))

    def __call__(self, x):
        return self.eval(x)


def uniform_cdf(lo: float = 0.0, hi: float = 1.0) -> CdfLike:
    """CDF of the uniform law on (lo, hi)."""
    if not lo < hi:
        raise ValueError(f"need lo < hi, got {lo}, {hi}")
    return CdfLike(
        lambda x: np.clip((np.asarray(x, dtype=float) - lo) / (hi - lo), 0.0, 1.0),
        0.0,
        1.0,
    )


def triangular_cdf(lo: float = 0.0, mode: float = 0.5, hi: float = 1.0) -> CdfLike:
    """CDF of the triangular law with the given support and mode."""
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

    return CdfLike(F, 0.0, 1.0)


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
    if a > b:
        raise ValueError(f"need a <= b, got a={a}, b={b}")
    return float(alpha.eval(b)) - float(alpha.eval(a))


# Cells one refinement pass hands to alpha and f at most: segments share a
# pass while they fit, so from 2**14 cells per segment on a pass is one
# segment and peak memory does not grow with the number of breakpoints.
_CELLS_PER_PASS = 2**14


def _rs_level(f, alpha, lo, hi, tag_right_end, n_cells):
    """Riemann-Stieltjes sums with midpoint tags, one per segment.

    ``lo``, ``hi`` and ``tag_right_end`` are arrays over the segments;
    alpha and f are each called once on the flattened points of all of
    them. Row k of the node matrix is ``np.linspace(lo[k], hi[k],
    n_cells + 1)`` bit for bit. When a segment's right end is a declared
    jump, its last cell is tagged at that end so the jump contributes
    f(jump) * mass exactly at every refinement level.
    """
    nodes = np.arange(n_cells + 1.0) * ((hi - lo) / n_cells)[:, None] + lo[:, None]
    nodes[:, -1] = hi
    heights = _evaluate(alpha.eval, nodes.ravel()).reshape(nodes.shape)
    masses = heights[:, 1:] - heights[:, :-1]
    tags = 0.5 * (nodes[:, :-1] + nodes[:, 1:])
    tags[tag_right_end, -1] = hi[tag_right_end]
    del nodes, heights
    values = _evaluate(f, tags.ravel()).reshape(tags.shape)
    del tags
    return [float(np.dot(v, m)) for v, m in zip(values, masses)]


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

    Each refinement level calls ``alpha.eval`` once and ``f`` once over
    the cells of all segments, in passes of at most 2**14 cells; from
    2**14 cells per segment on, each pass takes one segment. Both
    callbacks therefore receive flat 1-d arrays that span several
    segments and must act pointwise. The support endpoints must be
    finite, and ``tol`` positive and finite (``ValueError`` otherwise; a
    NaN ``tol`` counts as not positive).
    """
    lo, hi = float(support[0]), float(support[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"support endpoints must be finite, got {support}")
    if lo > hi:
        raise ValueError(f"support must be ordered, got {support}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if lo == hi:
        return 0.0

    jumps = set()
    edges = {lo, hi}
    if alpha.breakpoints:
        interior = [x for x in alpha.breakpoints if lo < x <= hi]
        jumps.update(interior)
        edges.update(x for x in interior if x < hi)
    edges.update(x for x in getattr(f, "breakpoints", ()) if lo < x < hi)
    edges = np.array(sorted(edges))
    seg_lo, seg_hi = edges[:-1], edges[1:]
    seg_jump = np.array([b in jumps for b in seg_hi])

    estimates: list[float] = []
    for depth in range(3, max_depth + 1):
        n_cells = 2**depth
        per_pass = max(1, _CELLS_PER_PASS // n_cells)
        sums: list[float] = []
        for k in range(0, len(seg_lo), per_pass):
            sl = slice(k, k + per_pass)
            sums += _rs_level(f, alpha, seg_lo[sl], seg_hi[sl], seg_jump[sl], n_cells)
        estimates.append(sum(sums))
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
    """Descending ramp: 1 up to x, affine down to 0 across width 1/j."""

    x: float
    j: int

    def __post_init__(self):
        if self.j < 1:
            raise ValueError(f"slope parameter j must be >= 1, got {self.j}")


def make_ramp(spec: RampSpec) -> Callable:
    """Continuous f with f=1 on (-inf, x], affine on [x, x+1/j], 0 beyond."""
    x, width = spec.x, 1.0 / spec.j

    def ramp(t):
        return np.interp(
            np.asarray(t, dtype=float), [x, x + width], [1.0, 0.0], left=1.0, right=0.0
        )

    ramp.breakpoints = (x, x + width)
    return ramp


def make_cutoff(j: int) -> Callable:
    """Compact-support plateau: 1 on [-j, j], affine to 0 at +-(j+1)."""
    if j < 1:
        raise ValueError(f"cutoff index must be >= 1, got {j}")

    def cutoff(t):
        return np.interp(
            np.asarray(t, dtype=float),
            [-(j + 1.0), -float(j), float(j), j + 1.0],
            [0.0, 1.0, 1.0, 0.0],
            left=0.0,
            right=0.0,
        )

    cutoff.breakpoints = (-(j + 1.0), -float(j), float(j), j + 1.0)
    return cutoff


def _probe_product(ramp: Callable, cutoff: Callable) -> Callable:
    def g(t):
        return ramp(t) * cutoff(t)

    g.breakpoints = tuple(sorted(set(ramp.breakpoints) | set(cutoff.breakpoints)))
    return g


@dataclass(frozen=True)
class ExpectationOracle:
    """Black-box expectation functional on compact-support continuous functions.

    When ``positive`` is set the oracle promises |L(f)| <= sup|f| for the
    probe functions used here (all bounded by 1), and the recovery routines
    enforce that bound.

    ``support``, when given as ``(a, b)``, is a second promise: L(f)
    depends only on the values of f on the closed interval [a, b]. Once a
    cutoff is 1 on all of [a, b], the cutoff limit is reached exactly, so
    ``recover_cdf`` and ``total_mass`` end each cutoff ladder at the first
    index m with -m <= a and b <= m. The endpoints must be
    finite with a <= b (``ValueError`` otherwise); ``None`` promises
    nothing and the ladders run until two values agree.
    """

    apply: Callable
    positive: bool = True
    support: tuple[float, float] | None = None

    def __post_init__(self):
        if self.support is not None:
            a, b = (float(v) for v in self.support)
            if not (math.isfinite(a) and math.isfinite(b)):
                raise ValueError(f"oracle support must be finite, got {self.support}")
            if a > b:
                raise ValueError(f"oracle support must be ordered, got {self.support}")
            object.__setattr__(self, "support", (a, b))

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
        positive=True,
        support=support,
    )


def oracle_from_samples(samples: Sequence[float]) -> ExpectationOracle:
    """Empirical-mean oracle L(f) = mean of f over the sample points.

    The oracle's promised support is [min, max] of the samples. Raises
    ValueError for no samples or a non-finite one (NaN or +-inf).
    """
    xs = np.asarray(samples, dtype=float)
    if xs.size == 0:
        raise ValueError("need at least one sample")
    if not np.all(np.isfinite(xs)):
        raise ValueError("samples must be finite")
    return ExpectationOracle(
        apply=lambda f: float(np.mean(_evaluate(f, xs))),
        positive=True,
        support=(xs.min(), xs.max()),
    )


def _check_bound(oracle: ExpectationOracle, value: float) -> None:
    # probe functions are all bounded by 1 in sup norm
    if oracle.positive and abs(value) > 1.0 + 1e-8:
        raise ContractViolationError(
            f"oracle returned {value!r} for a probe bounded by 1; "
            "|L(f)| <= sup|f| is violated"
        )


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
        _check_bound(oracle, value)
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


def _ramp_order(x, j: int, upper: float | None, value: float, tol: float) -> float:
    """``value``, the ramp limit at j, unless it exceeds ``upper`` + tol."""
    if upper is not None and value > upper + tol:
        raise ContractViolationError(
            f"ramp ladder increased at j={j} (x={x}): {upper!r} -> {value!r}", index=j
        )
    return value


def _ramp_step(L, x, j: int, upper: float | None, m_max: int, tol: float):
    """(value, m): the cutoff limit of the ramp at (x, j), checked against
    ``upper``, the value at the next smaller j (None for the first)."""
    ramp = make_ramp(RampSpec(float(x), j))
    value, m = _cutoff_limit(L, ramp, m_max, tol, tol / 2, (x, j))
    return _ramp_order(x, j, upper, value, tol), m


def _fits_decay_model(js: Sequence[int], values: Sequence[float], slack: float) -> bool:
    """Do the last three ladder values decay like c/j, within relative slack?"""
    d1 = values[-3] - values[-2]
    d2 = values[-2] - values[-1]
    if d1 <= 0:
        return False
    expected = (1.0 / js[-2] - 1.0 / js[-1]) / (1.0 / js[-3] - 1.0 / js[-2])
    return (1.0 - slack) * expected <= d2 / d1 <= (1.0 + slack) * expected


def _extrapolate_pair(j1: int, a1: float, j2: int, a2: float) -> float:
    # removes the c/j term: F = (j2*a2 - j1*a1)/(j2 - j1)
    return (j2 * a2 - j1 * a1) / (j2 - j1)


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
    growing cutoffs, takes the cutoff limit first, then the ramp-slope
    limit. The raw ramp values approach F(x) from above, with excess
    about density/(2j) when the law has a density near x, so the final
    doubling step is extrapolated whenever that 1/j decay is confirmed by
    the ladder itself; when it is not (atom near x, or no mass at all in
    the ramp window), extrapolation is retried on a finer j-spacing and
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
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    if not (1 <= j_max < math.inf and 1 <= m_max < math.inf):
        raise ValueError(
            f"j_max and m_max must be >= 1 and finite, got {j_max}, {m_max}"
        )
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")

    values: list[float] = []
    js: list[int] = []
    plateau = False
    for j in _ladder_indices(j_max):
        upper = values[-1] if values else None
        value, m_reached = _ramp_step(L, x, j, upper, m_max, tol)
        values.append(value)
        js.append(j)
        if len(values) >= 2:
            d = abs(values[-1] - values[-2])
            if d < 1e-12:
                plateau = True
                break
            # one small difference can be a fluke (the ladder is linear,
            # not settled, when an atom sits just right of x); ask for two
            if len(values) >= 3 and d < tol and abs(values[-2] - values[-3]) < tol:
                break

    raw = values[-1]
    result = raw
    method = "plateau" if plateau else "raw"
    if not plateau and len(values) >= 3:
        if _fits_decay_model(js, values, slack=0.25):
            result = _extrapolate_pair(js[-2], values[-2], js[-1], raw)
            method = "extrapolated"
        else:
            # the doubling ladder may straddle a regime change (support
            # edge inside the last ramp window); retry on a tail of more
            # closely spaced j just below j_max before settling for raw
            j_last = js[-1]
            aux = [(3 * j_last) // 4, (7 * j_last) // 8, j_last]
            if js[-2] < aux[0] < aux[1] < aux[2]:
                a1, _ = _ramp_step(L, x, aux[0], values[-2], m_max, tol)
                a2, _ = _ramp_step(L, x, aux[1], a1, m_max, tol)
                _ramp_order(x, aux[2], a2, raw, tol)
                if _fits_decay_model(aux, [a1, a2, raw], slack=0.2):
                    result = _extrapolate_pair(aux[1], a2, aux[2], raw)
                    method = "extrapolated"
    result = min(max(result, 0.0), raw)

    if full_output:
        info = {
            "j_reached": js[-1],
            "m_reached": m_reached,
            "ramp_ladder": tuple(values),
            "method": method,
        }
        return result, info
    return result


def total_mass(L: ExpectationOracle, j_max: int = 64) -> float:
    """Total mass of the represented measure: the limit of L over cutoffs.

    It is the cutoff limit that ``recover_cdf`` takes inside every ramp,
    run on the bare cutoffs: the ladder stops when two successive values
    agree within 1e-12, or at the first cutoff that covers the oracle's
    ``support``, and may not decrease by more than 1e-12. ``j_max`` must
    be finite.
    """
    if not 1 <= j_max < math.inf:
        raise ValueError(f"j_max must be >= 1 and finite, got {j_max}")
    return _cutoff_limit(L, None, j_max, 1e-12, 1e-12)[0]


class RecoveredCdf:
    """Dense queryable distribution function backed by pointwise recovery.

    Point evaluations are memoized (dict insert is atomic under the GIL,
    so concurrent queries at distinct points are safe and independent of
    order). Jump locations are detected by comparing values across a
    small symmetric window.
    """

    def __init__(
        self,
        oracle: ExpectationOracle,
        j_max: int = 64,
        m_max: int = 64,
        tol: float = 1e-6,
    ):
        self.oracle = oracle
        self.j_max = j_max
        self.m_max = m_max
        self.tol = tol
        self._cache: dict[float, float] = {}

    def _point(self, x: float) -> float:
        key = float(x)
        if key not in self._cache:
            self._cache[key] = recover_cdf(
                self.oracle, key, self.j_max, self.m_max, self.tol
            )
        return self._cache[key]

    def eval(self, x):
        xs = np.asarray(x, dtype=float)
        if xs.ndim == 0:
            return self._point(float(xs))
        return np.array([self._point(xi) for xi in xs.ravel()]).reshape(xs.shape)

    __call__ = eval

    def detect_breakpoints(self, grid, h: float = 1e-4) -> tuple[float, ...]:
        """Grid points where the recovered F jumps by more than 10 * tol."""
        found = []
        for x in np.asarray(grid, dtype=float):
            if self._point(x + h) - self._point(x - h) > 10.0 * self.tol:
                found.append(float(x))
        return tuple(found)

    def as_cdf(self, grid=None) -> CdfLike:
        """Package the recovery as a CdfLike generator (normalized: c- = 0)."""
        breakpoints = self.detect_breakpoints(grid) if grid is not None else None
        return CdfLike(
            eval=self.eval,
            c_minus=0.0,
            c_plus=total_mass(self.oracle, self.j_max),
            breakpoints=breakpoints,
        )
