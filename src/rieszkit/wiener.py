"""Pinned-diffusion path integrals: heat kernels, cylinder sets, bridges.

The measure on paths from x to y over [0, t] is specified through its
finite-dimensional marginals: a product of heat kernels over the time
increments, with total mass heat_kernel(x - y, t, D) rather than 1.
Functionals depending on finitely many path values are integrated
either by tensor Gauss-Hermite quadrature or by Monte Carlo over bridge
paths drawn from the normalized conditional law and rescaled by the
total mass. Cylinder sets are swept box by box on fixed Gauss-Legendre
nodes, with the unconstrained times integrated out exactly.

State is scalar; the kernels and chain structure extend to vector state
as a coordinate product, which is left as an extension point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, ConvergenceError
from .numerics import _as_int, _check_finite, _evaluate, gauss_hermite, gauss_legendre

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
# cells per kernel block in the cylinder sweep: each temporary stays at
# 128 KiB whatever the node count
_BLOCK_CELLS = 2**14


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
        # every bridge mean and heat-kernel exponent is built from these
        if not math.isfinite(self.y - self.x):
            raise ValueError(f"y - x overflows for x={self.x!r}, y={self.y!r}")
        if not math.isfinite(4.0 * self.D * self.t):
            raise ValueError(f"4*D*t overflows for D={self.D!r}, t={self.t!r}")


def _checked_times(times) -> tuple[float, ...]:
    ts = tuple(float(s) for s in times)
    if not ts:
        raise ValueError("need at least one time")
    # the chain 0 < t_1 < ... < t_N < inf, false where any t_i is NaN
    if not all(a < b < math.inf for a, b in zip((0.0, *ts), ts)):
        raise ValueError(f"times must be finite, positive and strictly increasing, got {ts}")
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
        """Apply fn to an (M, N) batch, tolerating per-row implementations.

        The batch keeps its memory layout. The integrators pass one whose N
        time columns are each contiguous (Fortran order), so a per-column
        fn runs on contiguous memory, and an fn that reduces across the
        times through BLAS (``points @ c``, say) may round differently
        from the same fn on a row-major copy.
        """
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
        if not all(map(math.isfinite, pos)):
            raise ValueError("positions must be finite")


# errstate as a decorator costs a third of a with-block per call
@np.errstate(over="ignore")
def heat_kernel(dx, dt: float, D: float):
    """Transition density (4*pi*D*dt)^(-1/2) * exp(-dx^2 / (4*D*dt)).

    Vectorized over dx; dt and D must be finite positive scalars, and
    4*D*dt must not underflow to 0 (``ValueError`` otherwise). Where
    dx^2 / (4*D*dt) overflows the exponent is -inf, and the value is the
    exact underflowed 0, without a warning.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValueError(f"dt must be finite and positive, got {dt}")
    if not (D > 0 and math.isfinite(D)):
        raise ValueError(f"D must be finite and positive, got {D}")
    spread = 4.0 * D * dt
    if spread == 0.0:
        raise ValueError(f"4*D*dt underflows to 0 (D={D}, dt={dt})")
    dx = np.asarray(dx, dtype=float)
    out = np.exp(-(dx**2) / spread) / math.sqrt(4.0 * math.pi * D * dt)
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
    _check_grid(n_nodes)
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


def _check_grid(n_nodes: int, n_axes: int = 0, sweep: bool = False) -> None:
    """ValueError for a node count that is not an integer (a bool or a float
    included) or is below 8 per axis; BudgetError above the work budget of
    n_axes * n_nodes**2 kernel evaluations for the cylinder sweep over n_axes
    boxed times, n_axes * n_nodes**n_axes for the tensor grid over n_axes times."""
    n_nodes = _as_int(n_nodes, "n_nodes")
    if n_nodes < 8:
        raise ValueError(f"need n_nodes >= 8 per axis, got {n_nodes}")
    work = n_axes * float(n_nodes) ** (2 if sweep else n_axes)
    if work > _WORK_BUDGET:
        what, axes = ("cylinder sweep", "boxed times") if sweep else ("tensor quadrature", "axes")
        raise BudgetError(
            f"{what} needs ~{work:.2e} kernel evaluations for {n_axes} {axes} at "
            f"{n_nodes} nodes (budget {_WORK_BUDGET:.0e}); use wiener_integral_mc instead"
        )


def _check_budget(n_axes: int, n_nodes: int) -> None:  # called by perfbench's self-check
    _check_grid(n_nodes, n_axes)


def _chain(params: WienerParams, times, n_nodes: int):
    """Tensor Gauss-Hermite chain along the time axes, one node column per axis.

    Returns (cols, weights). cols[k] holds the n^(k+1) path values at
    times[k] (n = n_nodes); its row r extends row r // n of cols[k-1].
    Each axis is standardized on its incoming transition kernel, which the
    weights absorb, and weights also carries the final hop to the
    endpoint. A step reads only the last column and the weights, so
    memory is a few floats per node combination. Raises ValueError for
    a time at or past the horizon or n_nodes < 8, BudgetError above the
    work budget.
    """
    _check_horizon(times, params)
    _check_grid(n_nodes, len(times))
    rule = gauss_hermite(n_nodes)
    unit_weights = rule.weights / math.sqrt(math.pi)
    prev_t = 0.0
    prev = np.full(1, params.x)
    wts = np.ones(1)
    cols = []
    for s_i in times:
        new = prev[:, None] + math.sqrt(4.0 * params.D * (s_i - prev_t)) * rule.nodes[None, :]
        w = wts[:, None] * unit_weights[None, :]
        prev = new.reshape(-1)
        cols.append(prev)
        wts = w.reshape(-1)
        prev_t = s_i
    wts = wts * heat_kernel(params.y - prev, params.t - prev_t, params.D)
    return cols, wts


def _kernel_step(v, prev, nodes, dt: float, D: float) -> np.ndarray:
    """v @ K with K[i, j] = heat_kernel(nodes[j] - prev[i], dt, D).

    K is built in row blocks of at most _BLOCK_CELLS cells, so no
    temporary grows with len(prev) * len(nodes); up to 128 nodes a step
    is one block and one matrix-vector product.
    """
    rows = max(1, _BLOCK_CELLS // len(nodes))
    out = np.zeros(len(nodes))
    for r in range(0, len(prev), rows):
        out += v[r:r + rows] @ heat_kernel(nodes[None, :] - prev[r:r + rows, None], dt, D)
    return out


def cylinder_probability(
    C: CylinderSet, params: WienerParams, n_nodes: int = 32
) -> float:
    """Measure of the set of paths passing through the boxes.

    A time whose box is the whole line drops out exactly: by the
    Chapman-Kolmogorov identity the kernels on either side of it merge
    into one kernel across the gap. The remaining boxed times form a
    Markov chain on fixed nodes, Gauss-Legendre on each box clipped to a
    wide central window, swept as v <- (v @ K_k) * w_k and closed by the
    hop to the pinned endpoint. Work is B * n_nodes^2 kernel evaluations
    for B boxed times and memory O(n_nodes); with every box the whole
    line the result is exactly heat_kernel(x - y, t, D), the total mass.
    An empty (clipped) box gives 0.0. Raises ValueError for a time at or
    past the horizon or n_nodes < 8, BudgetError above the work budget.
    """
    _check_horizon(C.times, params)
    boxed = [
        (s, box) for s, box in zip(C.times, C.boxes)
        if not (box[0] == -np.inf and box[1] == np.inf)
    ]
    _check_grid(n_nodes, len(boxed), sweep=True)
    window = _WINDOW_SIGMAS * math.sqrt(2.0 * params.D * params.t)
    prev_t = 0.0
    prev = np.full(1, params.x)
    v = np.ones(1)
    for s_i, box in boxed:
        center = params.x + (s_i / params.t) * (params.y - params.x)
        lo = max(box[0], center - window)
        hi = min(box[1], center + window)
        if not lo < hi:
            return 0.0
        rule = gauss_legendre(n_nodes, lo, hi)
        v = _kernel_step(v, prev, rule.nodes, s_i - prev_t, params.D) * rule.weights
        prev, prev_t = rule.nodes, s_i
    return float(np.dot(v, heat_kernel(params.y - prev, params.t - prev_t, params.D)))


def wiener_integral_quadrature(
    F: CylindricalFunctional, params: WienerParams, n_nodes: int = 32
) -> float:
    """Integral of a cylindrical functional by tensor Gauss-Hermite.

    Each axis is standardized on its incoming transition kernel; the
    final hop to the pinned endpoint enters as an explicit kernel factor,
    so a constant functional integrates to exactly the total mass.
    Memory: F receives the N path values of all n_nodes^N node
    combinations as one (n_nodes^N, N) array whose N time columns are
    each contiguous; the chain adds a few floats per combination, and F
    its own temporaries. An F that reduces across the times through BLAS
    may round differently from the same F on a row-major batch. A value
    of F that is not finite raises NumericError naming its node
    combination. n_nodes must be an integer >= 8 (ValueError otherwise).
    """
    cols, wts = _chain(params, F.times, n_nodes)
    coords = np.empty((len(cols), len(wts)))
    for k in range(len(cols)):
        # value r of cols[k] fills a contiguous run of row k
        coords[k].reshape(len(cols[k]), -1)[:] = cols[k][:, None]
    del cols  # leave F the room the columns took
    coords = coords.T  # (n^N, N), one contiguous column per time
    vals = F.evaluate(coords)
    total = float(np.dot(wts, vals))
    # the weights are >= 0, so any value that is not finite makes the sum so too
    if not math.isfinite(total):
        _check_finite(vals, coords)
    return total


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
    x + (s/t)*(y-x) and variance 2*D*s*(t-s)/t. Times that break the
    contract raise ``ValueError`` before ``rng`` is drawn from.
    """
    ts, pos = _bridge_positions(params, times, lambda n: rng.standard_normal(n).tolist())
    return BridgePath(times=ts, positions=pos.tolist())


def _bridge_positions(params: WienerParams, times: Sequence[float], draw: Callable):
    """Checked times, and the positions: (N,) for one path, or an (M, N) batch
    with one contiguous column per time. ``draw(N)`` runs after the checks and
    gives N standard-normal innovations in time order, floats for one path or
    arrays for a batch: the same bits either way."""
    ts = _checked_times(times)
    _check_horizon(ts, params)
    innovations = draw(len(ts))
    pos = np.empty(np.shape(innovations))
    prev_t, prev = 0.0, params.x
    for k, (s, z) in enumerate(zip(ts, innovations)):
        gap = params.t - prev_t
        mean = prev + (s - prev_t) / gap * (params.y - prev)
        var = 2.0 * params.D * (s - prev_t) * (params.t - s) / gap
        pos[k] = prev = mean + math.sqrt(var) * z
        prev_t = s
    return ts, pos.T


def wiener_integral_mc(
    F: CylindricalFunctional, params: WienerParams, n_paths: int, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo integral of a cylindrical functional over bridge paths.

    Draws paths from the normalized bridge law and rescales by the total
    mass heat_kernel(x - y, t, D): estimate = mass * sample mean of fn,
    stderr = mass * sample standard error. Deterministic given (seed,
    n_paths). F receives the (n_paths, N) batch with contiguous time
    columns. Needs an integer ``n_paths >= 100`` and every time of F below
    the horizon t (``ValueError`` otherwise).
    """
    n_paths = _as_int(n_paths, "n_paths")
    if n_paths < 100:
        raise ValueError(f"need n_paths >= 100, got {n_paths}")
    # counter-based generator filled time by time: each (time, path) draw is
    # a fixed function of (seed, indices), independent of any schedule
    gen = np.random.Generator(np.random.Philox(key=seed))
    _, pos = _bridge_positions(params, F.times, lambda n: gen.standard_normal((n, n_paths)))
    vals = F.evaluate(pos)
    _check_finite(vals, pos)
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
