"""Pinned-diffusion path integrals: heat kernels, cylinder sets, bridges.

The measure on paths from x to y over [0, t] is specified through its
finite-dimensional marginals: a product of heat kernels over the time
increments, with total mass heat_kernel(x - y, t, D) rather than 1.
Functionals depending on finitely many path values are integrated
either by tensor quadrature (Gauss-Hermite along unconstrained axes,
Gauss-Legendre on box-constrained ones) or by Monte Carlo over bridge
paths drawn from the normalized conditional law and rescaled by the
total mass.

State is scalar; the kernels and chain structure extend to vector state
as a coordinate product, which is left as an extension point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, ConvergenceError, NumericError
from .numerics import _evaluate, gauss_hermite, gauss_legendre

__all__ = [
    "WienerParams",
    "CylindricalFunctional",
    "CylinderSet",
    "BridgePath",
    "heat_kernel",
    "check_compatibility",
    "cylinder_probability",
    "wiener_integral_quadrature",
    "node_refinement_table",
    "sample_bridge",
    "wiener_integral_mc",
    "integrate_pointwise_limit",
    "PointwiseLimitResult",
]

_WORK_BUDGET = 1e8
# half-width of the integration window per constrained axis, in units of
# sqrt(2*D*t); generous next to the widest bridge marginal (sqrt(D*t/2))
_WINDOW_SIGMAS = 12.0


@dataclass(frozen=True)
class WienerParams:
    """Endpoints x, y, horizon t and diffusion coefficient D.

    D defaults to 1/2 so that the free variance over a time span s is s.
    """

    x: float = 0.0
    y: float = 0.0
    t: float = 1.0
    D: float = 0.5

    def __post_init__(self):
        for name in ("x", "y", "t", "D"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (np.isfinite(self.x) and np.isfinite(self.y)):
            raise ValueError("endpoints must be finite")
        if not (self.t > 0 and np.isfinite(self.t)):
            raise ValueError(f"horizon t must be positive, got {self.t}")
        if not (self.D > 0 and np.isfinite(self.D)):
            raise ValueError(f"diffusion D must be positive, got {self.D}")


def _checked_times(times) -> tuple[float, ...]:
    ts = tuple(float(s) for s in times)
    if not ts:
        raise ValueError("need at least one time")
    if any(s <= 0 for s in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError(f"times must be strictly increasing and positive, got {ts}")
    return ts


@dataclass(frozen=True)
class CylindricalFunctional:
    """Path functional depending only on the values at finitely many times.

    ``fn`` receives an array whose last axis runs over the times (a batch
    of path snapshots) and should return one value per row; a plain
    per-point function of an N-vector also works. ``bound`` is an
    optional sup-norm bound on fn, required by the dominated-limit
    machinery and used nowhere else.
    """

    times: tuple[float, ...]
    fn: Callable
    bound: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "times", _checked_times(self.times))
        if self.bound is not None:
            b = float(self.bound)
            if not (b >= 0 and np.isfinite(b)):
                raise ValueError(f"bound must be finite and nonnegative, got {b}")
            object.__setattr__(self, "bound", b)

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        """Apply fn to an (M, N) batch, tolerating per-row implementations."""
        return _evaluate(self.fn, np.asarray(points, dtype=float))


@dataclass(frozen=True)
class CylinderSet:
    """Paths whose value at each listed time falls in the paired interval.

    Boxes are (lo, hi) pairs; use -inf/inf for unbounded sides. An empty
    box (lo >= hi) is legal and gives probability 0.
    """

    times: tuple[float, ...]
    boxes: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "times", _checked_times(self.times))
        boxes = tuple((float(a), float(b)) for a, b in self.boxes)
        object.__setattr__(self, "boxes", boxes)
        if len(boxes) != len(self.times):
            raise ValueError(
                f"{len(self.times)} times but {len(boxes)} boxes"
            )
        if any(math.isnan(a) or math.isnan(b) for a, b in boxes):
            raise ValueError("box edges must not be NaN")


@dataclass(frozen=True)
class BridgePath:
    """One sampled path restricted to its time grid; endpoints implied."""

    times: tuple[float, ...]
    positions: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "times", _checked_times(self.times))
        pos = tuple(float(v) for v in self.positions)
        object.__setattr__(self, "positions", pos)
        if len(pos) != len(self.times):
            raise ValueError("positions must align with times")
        if not all(np.isfinite(pos)):
            raise ValueError("positions must be finite")


def heat_kernel(dx, dt: float, D: float):
    """Transition density (4*pi*D*dt)^(-1/2) * exp(-dx^2 / (4*D*dt)).

    Vectorized over dx; dt and D must be finite positive scalars.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (D > 0 and math.isfinite(D)):
        raise ValueError(f"D must be finite and positive, got {D}")
    dx = np.asarray(dx, dtype=float)
    out = np.exp(-(dx**2) / (4.0 * D * dt)) / math.sqrt(4.0 * math.pi * D * dt)
    return float(out) if out.ndim == 0 else out


def check_compatibility(
    x: float, z: float, u: float, s: float, t: float, D: float, n_nodes: int = 64
) -> float:
    """Residual of the two-step transition identity at one configuration.

    Computes |integral of heat_kernel(x-y, t-s) * heat_kernel(y-z, s-u)
    over y, by Gauss-Hermite standardized on the narrower of the two
    kernels (so the remaining factor is wide and smooth), minus
    heat_kernel(x-z, t-u)|. Decays to zero as n_nodes grows. All of x,
    z, u, s, t and D must be finite (``ValueError`` otherwise).
    """
    if not all(math.isfinite(v) for v in (x, z, u, s, t, D)):
        raise ValueError(f"need finite x, z, u, s, t and D, got {(x, z, u, s, t, D)}")
    if not u < s < t:
        raise ValueError(f"need u < s < t, got u={u}, s={s}, t={t}")
    if n_nodes < 8:
        raise ValueError(f"need n_nodes >= 8, got {n_nodes}")
    rule = gauss_hermite(n_nodes)
    if t - s <= s - u:
        scale = math.sqrt(4.0 * D * (t - s))
        ys = x - scale * rule.nodes
        other = heat_kernel(ys - z, s - u, D)
    else:
        scale = math.sqrt(4.0 * D * (s - u))
        ys = z + scale * rule.nodes
        other = heat_kernel(x - ys, t - s, D)
    lhs = float(np.dot(rule.weights, other)) / math.sqrt(math.pi)
    rhs = heat_kernel(x - z, t - u, D)
    return abs(lhs - rhs)


def _check_horizon(times: Sequence[float], params: WienerParams) -> None:
    if times[-1] >= params.t:
        raise ValueError(
            f"interior times must stay below the horizon t={params.t}, got {times}"
        )


def _check_budget(n_axes: int, n_nodes: int) -> None:
    work = n_axes * float(n_nodes) ** n_axes
    if work > _WORK_BUDGET:
        raise BudgetError(
            f"tensor quadrature needs ~{work:.2e} kernel evaluations for "
            f"{n_axes} axes at {n_nodes} nodes (budget {_WORK_BUDGET:.0e}); "
            "use wiener_integral_mc instead"
        )


def _chain(params: WienerParams, times, boxes, n_nodes: int):
    """Markov sweep along the time axes, one node column per axis.

    Returns (cols, weights), or None if a box is empty. cols[k] holds the
    n^(k+1) path values at times[k] (n = n_nodes); its row r extends row
    r // n of cols[k-1]. weights absorbs every kernel along the chain,
    the final hop to the endpoint included. A step reads only the last
    column and the weights, so memory is a few floats per node
    combination. Free axes (box None or the whole line) use Gauss-Hermite
    standardized on the incoming kernel, which the weights absorb; boxed
    axes use Gauss-Legendre on the box clipped to a wide central window,
    times the incoming kernel. Raises ValueError for n_nodes < 8 or a
    time at or past the horizon, BudgetError above the work budget.
    """
    if n_nodes < 8:
        raise ValueError(f"need n_nodes >= 8 per axis, got {n_nodes}")
    _check_horizon(times, params)
    _check_budget(len(times), n_nodes)
    window = _WINDOW_SIGMAS * math.sqrt(2.0 * params.D * params.t)
    prev_t = 0.0
    prev = np.full(1, params.x)
    wts = np.ones(1)
    cols = []
    for s_i, box in zip(times, boxes):
        dt_i = s_i - prev_t
        if box is None or (box[0] == -np.inf and box[1] == np.inf):
            rule = gauss_hermite(n_nodes)
            new = prev[:, None] + math.sqrt(4.0 * params.D * dt_i) * rule.nodes[None, :]
            w = wts[:, None] * (rule.weights / math.sqrt(math.pi))[None, :]
        else:
            center = params.x + (s_i / params.t) * (params.y - params.x)
            lo = max(box[0], center - window)
            hi = min(box[1], center + window)
            if not lo < hi:
                return None
            rule = gauss_legendre(n_nodes, lo, hi)
            new = np.broadcast_to(rule.nodes[None, :], (len(wts), n_nodes))
            w = (
                wts[:, None]
                * rule.weights[None, :]
                * heat_kernel(new - prev[:, None], dt_i, params.D)
            )
        prev = new.reshape(-1)
        cols.append(prev)
        wts = w.reshape(-1)
        prev_t = s_i
    wts = wts * heat_kernel(params.y - prev, params.t - prev_t, params.D)
    return cols, wts


def cylinder_probability(
    C: CylinderSet, params: WienerParams, n_nodes: int = 32
) -> float:
    """Measure of the set of paths passing through the boxes.

    Integrates the product of transition kernels over the boxes. With
    every box equal to the whole line this collapses to
    heat_kernel(x - y, t, D), the total mass. Memory: a few floats per
    node combination (n_nodes^N for N times); no coordinates are built.
    """
    chain = _chain(params, C.times, C.boxes, n_nodes)
    return 0.0 if chain is None else float(np.sum(chain[1]))


def wiener_integral_quadrature(
    F: CylindricalFunctional, params: WienerParams, n_nodes: int = 32
) -> float:
    """Integral of a cylindrical functional by tensor Gauss-Hermite.

    Each axis is standardized on its incoming transition kernel; the
    final hop to the pinned endpoint enters as an explicit kernel factor,
    so a constant functional integrates to exactly the total mass.
    Memory: F receives the N path values of all n_nodes^N node
    combinations as one (n_nodes^N, N) array; the chain adds a few
    floats per combination, and F its own temporaries.
    """
    cols, wts = _chain(params, F.times, [None] * len(F.times), n_nodes)
    coords = np.empty((len(wts), len(cols)))
    for k in range(len(cols)):
        # row r of cols[k] fills a contiguous run of grid rows
        coords.reshape(len(cols[k]), -1, len(cols))[:, :, k] = cols[k][:, None]
    del cols  # leave F the room the columns took
    return float(np.dot(wts, F.evaluate(coords)))


def node_refinement_table(
    F: CylindricalFunctional,
    params: WienerParams,
    node_counts: Sequence[int] = (8, 16, 32, 64),
) -> tuple[tuple[int, float, float], ...]:
    """Rows (n_nodes, value, |delta from previous|) over growing node counts."""
    rows = []
    prev = None
    for n in node_counts:
        val = wiener_integral_quadrature(F, params, n)
        rows.append((int(n), val, abs(val - prev) if prev is not None else np.nan))
        prev = val
    return tuple(rows)


def sample_bridge(
    params: WienerParams, times: Sequence[float], rng: np.random.Generator
) -> BridgePath:
    """One path of the pinned diffusion restricted to the given times.

    Sequential conditioning: given the previous value a at time r, the
    value at time s is Gaussian with mean a + (s-r)/(t-r)*(y-a) and
    variance 2*D*(s-r)*(t-s)/(t-r). The marginal at time s then has mean
    x + (s/t)*(y-x) and variance 2*D*s*(t-s)/t.
    """
    ts = _checked_times(times)
    _check_horizon(ts, params)  # before drawing: ``rng`` belongs to the caller
    pos = _bridge_positions(params, ts, rng.standard_normal((1, len(ts))))
    return BridgePath(times=ts, positions=tuple(pos[0]))


def _bridge_positions(
    params: WienerParams, times: Sequence[float], z: np.ndarray
) -> np.ndarray:
    """(n_paths, N) bridge values; z[k, i] is the standard-normal innovation
    of path k at time i in the sequential conditioning of ``sample_bridge``."""
    ts = _checked_times(times)
    _check_horizon(ts, params)
    pos = np.empty(z.shape)
    prev_t = 0.0
    prev = np.full(z.shape[0], params.x)
    for i, s in enumerate(ts):
        gap = params.t - prev_t
        mean = prev + (s - prev_t) / gap * (params.y - prev)
        var = 2.0 * params.D * (s - prev_t) * (params.t - s) / gap
        prev = mean + math.sqrt(var) * z[:, i]
        pos[:, i] = prev
        prev_t = s
    return pos


def wiener_integral_mc(
    F: CylindricalFunctional, params: WienerParams, n_paths: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo integral of a cylindrical functional over bridge paths.

    Draws paths from the normalized bridge law and rescales by the total
    mass heat_kernel(x - y, t, D): estimate = mass * sample mean of fn,
    stderr = mass * sample standard error. Deterministic given (seed,
    n_paths).
    """
    if n_paths < 100:
        raise ValueError(f"need n_paths >= 100, got {n_paths}")
    # counter-based generator filled time by time: each (time, path) draw is
    # a fixed function of (seed, indices), independent of any schedule
    gen = np.random.Generator(np.random.Philox(key=seed))
    z = gen.standard_normal((len(F.times), n_paths)).T
    pos = _bridge_positions(params, F.times, z)
    vals = F.evaluate(pos)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        k = int(bad[0])
        raise NumericError(
            f"functional returned {vals[k]!r} on path {k} "
            f"(times={F.times}, positions={tuple(pos[k])})",
            point=tuple(pos[k]),
        )
    mass = heat_kernel(params.x - params.y, params.t, params.D)
    estimate = mass * float(np.mean(vals))
    spread = float(np.std(vals, ddof=1))
    stderr = mass * spread / math.sqrt(n_paths)
    return estimate, stderr


@dataclass(frozen=True)
class PointwiseLimitResult:
    """Limit of integrals along a functional sequence, with its delta trail."""

    value: float
    deltas: tuple[float, ...]
    stabilized_at: int


def integrate_pointwise_limit(
    F_sequence: Sequence[CylindricalFunctional],
    params: WienerParams,
    n_nodes: int = 32,
    tol: float = 1e-8,
) -> PointwiseLimitResult:
    """Integral of the pointwise limit of a dominated functional sequence.

    Every functional must declare a sup-norm bound (the domination
    hypothesis) and the time grids must be nested left to right. The
    sequence of quadrature values is followed until two consecutive
    values agree within tol.
    """
    fs = list(F_sequence)
    if not fs:
        raise ValueError("need a nonempty functional sequence")
    for f in fs:
        if f.bound is None:
            raise ValueError(
                "every functional in the sequence must carry a sup-norm bound"
            )
    for a, b in zip(fs, fs[1:]):
        if not set(a.times) <= set(b.times):
            raise ValueError(
                "time grids must refine left to right "
                f"({a.times} is not contained in {b.times})"
            )
    values = []
    deltas = []
    for k, f in enumerate(fs):
        values.append(wiener_integral_quadrature(f, params, n_nodes))
        if k:
            deltas.append(abs(values[-1] - values[-2]))
            if deltas[-1] < tol:
                return PointwiseLimitResult(
                    value=values[-1], deltas=tuple(deltas), stabilized_at=k
                )
    if len(fs) == 1:
        return PointwiseLimitResult(value=values[0], deltas=(), stabilized_at=0)
    raise ConvergenceError(
        f"no stabilization below tol={tol} within the sequence",
        estimates=tuple(values[-2:]),
    )
