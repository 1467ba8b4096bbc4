"""Seeded job batches for the three benchmark workloads.

A job is one user-level request: a sequence of public-API calls or one
in-process ``rieszkit`` CLI invocation. Every job carries its own
correctness check against a reference stated next to it; the check
returns the values that go into the run digest and the job's error
ratio, |result - reference| / tolerance (above 1 means the job failed).

Each batch has a fixed composition (so many jobs of each family, size
and point class, by job index); the seed only chooses the parameters
inside each class. That keeps the cost of every job, not only of the
batch, steady from seed to seed while the inputs still change.

Library functions are always reached through their module attribute
(``st.recover_cdf``, ``wn.cylinder_probability``, ...) so the traced run
can wrap them where callers look them up.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rieszkit.cli as cli_mod
import rieszkit.conditional as cd
import rieszkit.hilbert as hb
import rieszkit.stieltjes as st
import rieszkit.wiener as wn

WORKLOADS = ("cdf-recovery", "paths", "expectations")

# Largest tensor chain a generated job may build, in computed bytes (see
# tensor_bytes). N=4 at n=32 (~92 MB) fits; N=4 at n=70 (~2.1 GB), which
# the library's work budget still admits, does not.
TENSOR_CAP_BYTES = 96 * 2**20

J_MAX = 64  # recover_cdf default slope ladder top; sets the atom window 1/J_MAX


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list, float]]
    seeded_cli: bool = False


def tensor_bytes(n_times: int, n_nodes: int) -> int:
    """Computed peak bytes of the tensor chain for N times at n nodes.

    At the last axis the chain holds the repeated coordinate block
    (N-1 columns), the concatenated block (N columns), the new column,
    the weights and one kernel temporary: (2N + 3) float64 per row of
    n**N rows. This matches the ~85 B per row measured at N=4, n=32.
    """
    return n_nodes**n_times * 8 * (2 * n_times + 3)


def invoke_cli(args: list[str]) -> str:
    """Run ``rieszkit <args>`` in process and return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli_mod.main.main(args=list(args), prog_name="rieszkit", standalone_mode=False)
    return buf.getvalue()


def _cli_job(name, args, check, seeded=False) -> Job:
    # invoke_cli is looked up at call time, so a traced run sees its wrapper
    return Job(name, lambda: invoke_cli(args), check, seeded)


def _csv_rows(text: str) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[1:]


def _ratio(err: float, tol: float) -> float:
    return float(err) / tol


# --------------------------------------------------------------------------
# closed-form references for the CDF laws
# --------------------------------------------------------------------------


def _law_cdf(law, x):
    kind, p = law
    x = np.asarray(x, dtype=float)
    if kind == "uniform":
        lo, hi = p
        return np.clip((x - lo) / (hi - lo), 0.0, 1.0)
    if kind == "triangular":
        lo, mode, hi = p
        up = (x - lo) ** 2 / ((hi - lo) * (mode - lo))
        down = 1.0 - (hi - x) ** 2 / ((hi - lo) * (hi - mode))
        return np.where(x <= lo, 0.0, np.where(x >= hi, 1.0, np.where(x <= mode, up, down)))
    x1, p1, x2 = p
    return np.where(x < x1, 0.0, np.where(x < x2, p1, 1.0))


def _law_kinks(law):
    kind, p = law
    return (p[0], p[2]) if kind == "two-atom" else tuple(p)


def _law_support(law):
    kind, p = law
    lo, hi = (p[0], p[2]) if kind != "uniform" else p
    return lo - 0.5, hi + 0.5


def _cdf_tol(law, x: float) -> float:
    """Tolerance for recovered F(x).

    Away from a kink or atom: 5e-3 for densities, as in acceptance test
    03 (the 1/j extrapolation leaves up to ~1.5e-3 on the triangular law
    near its mode) and 1e-5 on the two-atom plateaus. Near one the ramps cannot resolve it, so the mass the
    reference puts in that band is added. The band is 2/J_MAX, not the
    1/J_MAX the README states: with an atom in (1/J_MAX, 2/J_MAX] right
    of x, the j = J_MAX/2 ramp still sees it and the final extrapolation
    step subtracts up to the atom's mass.
    """
    tol = 1e-5 if law[0] == "two-atom" else 5e-3
    w = 2.0 / J_MAX
    if any(abs(x - k) <= w for k in _law_kinks(law)):
        tol += float(_law_cdf(law, x + w) - _law_cdf(law, x - w - 1e-12))
    return tol


def _make_law(kind: str, rng):
    """A law whose support (widened by 0.5 each side, see _law_support)
    stays inside (-1, 1), under the plateau of the first cutoff, so every
    cutoff ladder stops at m = 2 and a point's cost is set by its class
    (see _pick_x) rather than by where the draw put the support relative
    to the cutoff kinks at +-1 and +-2."""
    lo, hi = rng.uniform(-0.45, -0.35), rng.uniform(0.35, 0.45)
    if kind == "uniform":
        return kind, (lo, hi)
    if kind == "triangular":
        return kind, (lo, lo + rng.uniform(0.3, 0.7) * (hi - lo), hi)
    return kind, (lo, rng.uniform(0.2, 0.8), hi)


def _law_factory(law):
    kind, p = law
    if kind == "uniform":
        return st.uniform_cdf(*p)
    if kind == "triangular":
        return st.triangular_cdf(*p)
    return st.two_atom_cdf(*p)


# Point classes, by where x falls against the law's first and last kink:
# well inside, within the 1/J_MAX ramp window on either side of an end,
# 1-2 windows left of the lower end (where recover_cdf loses an atom's
# mass, see _cdf_tol), or 0.1-0.15 outside. Each class fixes how far the
# slope ladder runs.
_WHERE = ("inside", "lo-in", "lo-out", "hi-in", "hi-out", "lo-out2", "left", "right")


def _pick_x(law, where: str, rng) -> float:
    kinks = _law_kinks(law)
    lo, hi = kinks[0], kinks[-1]
    near = rng.uniform(0.3, 0.7) / J_MAX
    return float({
        "inside": lo + rng.uniform(0.3, 0.7) * (hi - lo),
        "lo-in": lo + near,
        "lo-out": lo - near,
        "lo-out2": lo - near - 1.0 / J_MAX,
        "hi-in": hi - near,
        "hi-out": hi + near,
        "left": lo - rng.uniform(0.1, 0.15),
        "right": hi + rng.uniform(0.1, 0.15),
    }[where])


def _check_points(law, xs):
    def check(values):
        values = [float(v) for v in np.ravel(values)]
        ref = _law_cdf(law, np.asarray(xs))
        ratio = max(_ratio(abs(v - r), _cdf_tol(law, x)) for v, r, x in zip(values, ref, xs))
        return values, ratio

    return check


# --------------------------------------------------------------------------
# cdf-recovery
# --------------------------------------------------------------------------

_KINDS = ("uniform", "triangular", "two-atom")


def _cdf_point_job(i, rng, kind, n_points, where=_WHERE) -> Job:
    """Fresh oracle, 1-4 points: nothing is shared between the points.
    The points take the classes in ``where`` in turn, from the i-th on."""
    law = _make_law(kind, rng)
    xs = [_pick_x(law, where[(i + k) % len(where)], rng) for k in range(n_points)]

    def run():
        oracle = st.oracle_from_cdf(_law_factory(law), _law_support(law))
        return [st.recover_cdf(oracle, x) for x in xs]

    return Job(f"cdf-point-{law[0]}-{i}", run, _check_points(law, xs))


def _cdf_grid_job(i, rng) -> Job:
    """One oracle reused across a grid, plus total mass (and breakpoints
    on the two-atom law, where the grid holds both atoms)."""
    law = _make_law(_KINDS[i % 3], rng)
    kinks = _law_kinks(law)
    where = ("left", "inside", "hi-out", "right") if law[0] == "two-atom" else ("left", "inside", "right")
    xs = sorted(_pick_x(law, w, rng) for w in where)
    atoms = list(kinks) if law[0] == "two-atom" else []
    probe = sorted(atoms + [x for x in xs if min(abs(x - k) for k in kinks) > 4.0 / J_MAX])

    def run():
        oracle = st.oracle_from_cdf(_law_factory(law), _law_support(law))
        rc = st.RecoveredCdf(oracle)
        vals = rc.eval(np.asarray(xs))
        found = rc.detect_breakpoints(probe) if atoms else ()
        return vals, found, st.total_mass(oracle)

    point_check = _check_points(law, xs)

    def check(out):
        vals, found, mass = out
        values, ratio = point_check(vals)
        if tuple(found) != tuple(atoms):
            ratio = math.inf
        return values + list(found) + [mass], max(ratio, _ratio(abs(mass - 1.0), 1e-7))

    return Job(f"cdf-grid-{law[0]}-{i}", run, check)


def _cdf_mass_job(i, rng) -> Job:
    law = _make_law(_KINDS[i % 3], rng)

    def run():
        return st.total_mass(st.oracle_from_cdf(_law_factory(law), _law_support(law)))

    return Job(f"cdf-mass-{law[0]}-{i}", run, lambda m: ([m], _ratio(abs(m - 1.0), 1e-7)))


def _cdf_cli_job(i, rng) -> Job:
    law = _make_law(_KINDS[i % 3], rng)
    kinks = _law_kinks(law)
    lo, hi = kinks[0] - rng.uniform(0.1, 0.15), kinks[-1] + rng.uniform(0.1, 0.15)
    n = 3 + i % 2
    args = [
        "recover-cdf", "--law", law[0],
        "--law-args", ",".join(repr(float(v)) for v in law[1]),
        "--grid-lo", repr(lo), "--grid-hi", repr(hi), "--grid-n", str(n),
    ]

    def check(text):
        rows = _csv_rows(text)
        xs = [float(r[0]) for r in rows]
        values, ratio = _check_points(law, xs)([float(r[1]) for r in rows])
        return [text], ratio if len(rows) == n else math.inf

    return _cli_job(f"cdf-cli-{law[0]}-{i}", args, check)


def cdf_recovery_batch(rng) -> list[Job]:
    """Every job's cost is set by its law kind and point classes, which
    follow the job's index, so the latency percentiles hardly move with
    the seed: the cheap total-mass jobs fill the lowest quarter, 44
    two-atom jobs of three points hold the median and 20 triangular jobs
    of two points, each inside or within the ramp window of the lower
    end, the 90th percentile. Jobs are kept short so that each is timed
    often in a run."""
    jobs = []
    jobs += [_cdf_mass_job(i, rng) for i in range(30)]
    jobs += [_cdf_point_job(i, rng, "two-atom", 3) for i in range(44)]
    jobs += [_cdf_point_job(i, rng, "uniform", 1) for i in range(8)]
    jobs += [_cdf_point_job(i, rng, "triangular", 1) for i in range(6)]
    jobs += [_cdf_grid_job(i, rng) for i in range(6)]
    jobs += [_cdf_cli_job(i, rng) for i in range(6)]
    dear = ("inside", "lo-in", "lo-out", "left")
    jobs += [_cdf_point_job(i, rng, "triangular", 2, dear) for i in range(20)]
    return jobs


# --------------------------------------------------------------------------
# paths
# --------------------------------------------------------------------------


def _params(rng):
    return wn.WienerParams(
        x=rng.uniform(-1, 1), y=rng.uniform(-1, 1),
        t=rng.uniform(0.5, 2.0), D=rng.uniform(0.3, 1.0),
    )


def _times(rng, t, n):
    """n interior times in [0.1 t, 0.75 t], every gap at least t / (4 (n + 1)).

    The Hermite axes are standardized on the incoming kernel, so a short
    final hop to the pinned end converges slowly in the node count (5e-7
    relative at n=64 for a last gap of 0.13 t); keeping it at least t/4
    keeps the references below 1e-9 relative.
    """
    while True:
        ts = np.sort(rng.uniform(0.1 * t, 0.75 * t, n))
        gaps = np.diff(np.concatenate([[0.0], ts, [t]]))
        if np.all(gaps >= t / (4.0 * (n + 1))):
            return tuple(float(s) for s in ts)


def _mass(p):
    return wn.heat_kernel(p.x - p.y, p.t, p.D)


def _marginal(p, s):
    return p.x + s / p.t * (p.y - p.x), 2.0 * p.D * s * (p.t - s) / p.t


def _bridge_moment(p, times, powers) -> float:
    """E prod X_{s_i}^{k_i} under the normalized bridge, in closed form.

    X = m + L Z with L the Cholesky factor of the bridge covariance
    2D s_i (t - s_j) / t (s_i <= s_j); the product is expanded as a
    polynomial in Z and E Z^a = (a-1)!! for even a.
    """
    n = len(times)
    m = np.array([_marginal(p, s)[0] for s in times])
    C = np.array([[2.0 * p.D * min(a, b) * (p.t - max(a, b)) / p.t for b in times] for a in times])
    L = np.linalg.cholesky(C)
    poly = {(0,) * n: 1.0}
    for i, k in enumerate(powers):
        factor = {(0,) * n: m[i]}
        for j in range(i + 1):
            e = [0] * n
            e[j] = 1
            factor[tuple(e)] = L[i, j]
        for _ in range(k):
            out = {}
            for e1, c1 in poly.items():
                for e2, c2 in factor.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0.0) + c1 * c2
            poly = out

    def gauss(a):
        return 0.0 if a % 2 else float(np.prod(np.arange(a - 1, 0, -2))) if a else 1.0

    return sum(c * np.prod([gauss(a) for a in e]) for e, c in poly.items())


def _mono(powers):
    karr = np.array(powers, dtype=float)
    return lambda X: np.prod(np.asarray(X, dtype=float) ** karr, axis=-1)


def _mono_scale(p, times, powers):
    """Size of the mono integrand, mass * prod (|m_i| + sd_i)^k_i."""
    out = _mass(p)
    for s, k in zip(times, powers):
        m, v = _marginal(p, s)
        out *= (abs(m) + math.sqrt(v)) ** k
    return out


def _ladder_job(i, rng) -> Job:
    """node_refinement_table over 8/16/32/64 nodes, const or mono, N = 1-2."""
    p = _params(rng)
    n = 1 + i % 2
    ts = _times(rng, p.t, n)
    const = i % 4 == 0
    powers = (0,) * n if const else tuple(int(k) for k in rng.integers(0, 4, n))
    ref = _mass(p) * _bridge_moment(p, ts, powers)
    tol = 1e-12 * _mass(p) if const else 1e-9 * _mono_scale(p, ts, powers)
    F = wn.CylindricalFunctional(ts, _mono(powers))

    def run():
        return wn.node_refinement_table(F, p, (8, 16, 32, 64))

    def check(rows):
        vals = [r[1] for r in rows]
        return vals, _ratio(abs(vals[-1] - ref), tol)

    return Job(f"paths-ladder-N{n}-{'const' if const else 'mono'}-{i}", run, check)


def _compat_draw(rng):
    x, z = rng.uniform(-2, 2, 2)
    t = rng.uniform(0.5, 2.0)
    u = rng.uniform(0.0, 0.4 * t)
    s = rng.uniform(u + 0.1 * t, 0.9 * t)
    return float(x), float(z), float(u), float(s), float(t), float(rng.uniform(0.2, 1.5))


def _compat_job(i, rng) -> Job:
    """Transition-identity residual ladder; reference: 0 within 1e-8 at n=64."""
    cfg = _compat_draw(rng)

    def run():
        return [wn.check_compatibility(*cfg, n_nodes=n) for n in (8, 16, 32, 64)]

    return Job(f"paths-compat-{i}", run, lambda r: (list(r), _ratio(r[-1], 1e-8)))


def _box_case(p, ts, k, kind, rng):
    """Box on axis k only (finite, half-line or none) and its erf reference."""
    m, v = _marginal(p, ts[k])
    sd = math.sqrt(v)
    boxes = [(-np.inf, np.inf)] * len(ts)
    if kind == "full":
        return tuple(boxes), _mass(p)
    a = rng.uniform(-1.5, 0.5)
    b = a + rng.uniform(0.5, 2.0) if kind == "finite" else np.inf
    boxes[k] = (m + a * sd, m + b * sd)
    phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))  # noqa: E731
    return tuple(boxes), _mass(p) * (phi(b) - phi(a))


# Cylinder tolerance relative to the total mass. Worst seen over 30 draws
# per kind: finite boxes 4e-10 and no box 5e-10 at n=16; a half-line box is
# clipped to a 12-sigma window and converges slowly in n: 3.7e-3, 1.1e-3,
# 5.7e-5, 1.8e-6, 3e-7 at n = 16, 20, 24, 28, 32.
_CYL_TOL = {"finite": 1e-7, "full": 1e-7}
_HALF_TOL = {16: 2e-2, 20: 1e-2, 24: 5e-4, 28: 2e-5, 32: 3e-6}


def _cylinder_job(i, rng, n_times, n_nodes) -> Job:
    """Box cylinder constrained at its first time only; the free later
    times change nothing, so the reference is the one-time Gaussian
    marginal. (A box after a short free gap needs more Legendre nodes than
    n <= 32 to resolve the narrow incoming kernel.)"""
    if tensor_bytes(n_times, n_nodes) > TENSOR_CAP_BYTES:
        raise ValueError(f"job over the tensor cap: N={n_times}, n={n_nodes}")
    p = _params(rng)
    ts = _times(rng, p.t, n_times)
    kind = ("finite", "half", "full")[i % 3]
    boxes, ref = _box_case(p, ts, 0, kind, rng)
    tol = (_HALF_TOL[n_nodes] if kind == "half" else _CYL_TOL[kind]) * _mass(p)
    C = wn.CylinderSet(ts, boxes)

    def run():
        return wn.cylinder_probability(C, p, n_nodes)

    return Job(
        f"paths-cyl-N{n_times}-n{n_nodes}-{kind}-{i}", run,
        lambda v: ([v], _ratio(abs(v - ref), tol)),
    )


def _mc_job(i, rng) -> Job:
    """Bridge Monte Carlo; reference: closed-form moment within 5 stderr."""
    p = _params(rng)
    n = 1 + i % 2
    ts = _times(rng, p.t, n)
    powers = tuple(int(k) for k in rng.integers(1, 3, n))
    ref = _mass(p) * _bridge_moment(p, ts, powers)
    n_paths = (10_000, 30_000, 100_000)[i % 3]
    F = wn.CylindricalFunctional(ts, _mono(powers))
    seed = int(rng.integers(0, 2**31))

    def run():
        return wn.wiener_integral_mc(F, p, n_paths, seed)

    return Job(
        f"paths-mc-{n_paths}-{i}", run,
        lambda r: (list(r), _ratio(abs(r[0] - ref), 5.0 * r[1])),
    )


def _param_args(p):
    return ["--x", repr(p.x), "--y", repr(p.y), "--t", repr(p.t), "--D", repr(p.D)]


def _bridge_cli_job(i, rng) -> Job:
    """bridge-sample; reference: per-time sample mean and variance of the
    draws against the bridge marginals, within 5 standard errors."""
    p = _params(rng)
    ts = _times(rng, p.t, 3)
    n_paths = 200 + 100 * (i % 3)
    args = ["bridge-sample", "--times", ",".join(repr(s) for s in ts),
            *_param_args(p), "--paths", str(n_paths), "--seed", str(int(rng.integers(0, 2**31)))]

    def check(text):
        rows = _csv_rows(text)
        pos = np.array([float(r[2]) for r in rows]).reshape(n_paths, len(ts))
        ratio = 0.0 if len(rows) == n_paths * len(ts) else math.inf
        for k, s in enumerate(ts):
            m, v = _marginal(p, s)
            ratio = max(
                ratio,
                abs(pos[:, k].mean() - m) / (5.0 * math.sqrt(v / n_paths)),
                abs(pos[:, k].var(ddof=1) - v) / (5.0 * v * math.sqrt(2.0 / (n_paths - 1))),
            )
        return [text], ratio

    return _cli_job(f"paths-cli-bridge-{i}", args, check, seeded=True)


def _integrate_cli_job(i, rng) -> Job:
    """wiener-integrate: mono with a Monte Carlo row, or a one-time box."""
    p = _params(rng)
    if i % 2 == 0:
        n = 1 + (i // 2) % 2
        ts = _times(rng, p.t, n)
        powers = tuple(int(k) for k in rng.integers(1, 3, n))
        ref = _mass(p) * _bridge_moment(p, ts, powers)
        tol = 1e-9 * _mono_scale(p, ts, powers)
        spec = "mono:" + ",".join(str(k) for k in powers)
        extra = ["--nodes", "8,16,32,64", "--paths", "20000",
                 "--seed", str(int(rng.integers(0, 2**31)))]
    else:
        ts = _times(rng, p.t, 1)
        boxes, ref = _box_case(p, ts, 0, "finite", rng)
        tol = 1e-9 * _mass(p)
        spec = "box:%r:%r" % boxes[0]
        extra = ["--nodes", "24,32"]
    args = ["wiener-integrate", "--F", spec, "--times", ",".join(repr(s) for s in ts),
            *_param_args(p), *extra]

    def check(text):
        rows = _csv_rows(text)
        quad = [float(r[3]) for r in rows if r[0] == "quadrature"]
        ratio = _ratio(abs(quad[-1] - ref), tol)
        for r in rows:
            if r[0] == "mc":
                ratio = max(ratio, _ratio(abs(float(r[3]) - ref), 5.0 * float(r[4])))
        return [text], ratio

    return _cli_job(f"paths-cli-integrate-{i}", args, check, seeded=i % 2 == 0)


def _compat_cli_job(i, rng) -> Job:
    x, z, u, s, t, D = _compat_draw(rng)
    args = ["compat-check", "--x", repr(x), "--z", repr(z), "--u", repr(u),
            "--s", repr(s), "--t", repr(t), "--D", repr(D), "--nodes", "8,16,32,64"]
    return _cli_job(
        f"paths-cli-compat-{i}", args,
        lambda text: ([text], _ratio(float(_csv_rows(text)[-1][1]), 1e-8)),
    )


def paths_batch(rng) -> list[Job]:
    """Small jobs (node ladders, compatibility checks, N=3 cylinders, Monte
    Carlo) fill the lower 85%, so rule construction sets the median; 30 N=4
    cylinders at n=20 (~10 ms at the seed commit) hold the 90th percentile,
    so the tensor chain sets it. Four N=4 cylinders at n=28-32 (45-90 ms,
    up to 92 MB computed) set the peak memory."""
    jobs = []
    jobs += [_ladder_job(i, rng) for i in range(90)]
    jobs += [_compat_job(i, rng) for i in range(40)]
    jobs += [_cylinder_job(i, rng, 3, (24, 28, 32)[i % 3]) for i in range(24)]
    jobs += [_cylinder_job(i, rng, 4, 20) for i in range(30)]
    jobs += [_cylinder_job(i, rng, 4, n) for i, n in enumerate((28, 28, 32, 32))]
    jobs += [_mc_job(i, rng) for i in range(15)]
    jobs += [_bridge_cli_job(i, rng) for i in range(8)]
    jobs += [_integrate_cli_job(i, rng) for i in range(8)]
    jobs += [_compat_cli_job(i, rng) for i in range(6)]
    return jobs


# --------------------------------------------------------------------------
# expectations
# --------------------------------------------------------------------------


def _one_minus_t_coeffs(basis) -> np.ndarray:
    """Closed-form coefficients of t -> 1 - t."""
    c = np.zeros(basis.size)
    if basis.kind == "fourier_sine":
        k = np.arange(1, basis.size + 1)
        return math.sqrt(2.0) / (k * math.pi)
    c[0] = 0.5
    if basis.size > 1:
        c[1] = -math.sqrt(3.0) / 6.0
    return c


# Coefficient-distance tolerance of the prefix-indicator expectation: the
# 64-node omega rule is exact up to basis index ~126, beyond which the
# error saturates near 6e-3.
_DIST_TOL = {32: 1e-3, 256: 1.5e-2, 2048: 1.5e-2}


def _bochner_job(i, kind, size, what) -> Job:
    """prefix_indicator_law: expectation 1 - t, expected norm 2/3.

    The expected norm's truncation error is ~0.11/N (Legendre) and
    ~0.31/N (sine); the tolerance is 0.6/N.
    """

    def run():
        basis = hb.OrthonormalBasis(kind, size)
        law = hb.prefix_indicator_law(basis)
        mu = hb.bochner_expectation(law) if "mean" in what else None
        en = hb.expected_norm(law) if "norm" in what else None
        return mu, en

    def check(out):
        mu, en = out
        vals, ratio = [], 0.0
        if mu is not None:
            d = float(np.linalg.norm(mu.coeffs - _one_minus_t_coeffs(mu.basis)))
            vals.append(d)
            ratio = _ratio(d, _DIST_TOL[size])
        if en is not None:
            vals.append(en)
            ratio = max(ratio, _ratio(abs(en - 2.0 / 3.0), 0.6 / size))
        return vals, ratio

    return Job(f"exp-bochner-{kind}-{size}-{what}-{i}", run, check)


def _atom_law_job(i, rng) -> Job:
    size = (32, 256)[i % 2]
    kind = hb.BASIS_KINDS[(i // 2) % 2]
    k = int(rng.integers(5, 50))
    probs = rng.dirichlet(np.ones(k))
    probs[-1] = 1.0 - probs[:-1].sum()
    coeffs = rng.normal(0.0, 1.0, (k, size)) / np.sqrt(np.arange(1, size + 1))

    def run():
        basis = hb.OrthonormalBasis(kind, size)
        law = hb.DiscreteHValuedLaw.from_atoms(
            [(p, hb.HilbertVector(c, basis)) for p, c in zip(probs, coeffs)]
        )
        return hb.bochner_expectation(law), hb.expected_norm(law)

    ref_mean = probs @ coeffs
    ref_norm = float(probs @ np.linalg.norm(coeffs, axis=1))

    def check(out):
        mu, en = out
        err = max(float(np.max(np.abs(mu.coeffs - ref_mean))), abs(en - ref_norm))
        return list(mu.coeffs) + [en], _ratio(err, 1e-12 * max(1.0, ref_norm))

    return Job(f"exp-atoms-{kind}-{size}-{i}", run, check)


def _project_job(i, rng) -> Job:
    """project the indicator of (a, b) with breakpoints at a and b; the
    reference is the closed-form antiderivative coefficients."""
    size = 32
    kind = hb.BASIS_KINDS[i % 2]
    a, b = sorted(rng.uniform(0.05, 0.95, 2).tolist())

    def run():
        basis = hb.OrthonormalBasis(kind, size)
        f = lambda t: ((np.asarray(t) > a) & (np.asarray(t) < b)).astype(float)  # noqa: E731
        return hb.project(f, basis, breakpoints=[a, b])

    def check(v):
        ref = v.basis.indicator_coefficients(b) - v.basis.indicator_coefficients(a)
        return list(v.coeffs), _ratio(float(np.max(np.abs(v.coeffs - ref))), 1e-10)

    return Job(f"exp-project-{kind}-{size}-{i}", run, check)


def _blocks(rng, n, n_blocks):
    label = rng.integers(0, n_blocks, n)
    label[:n_blocks] = np.arange(n_blocks)  # no empty block
    return label


def _cond_ref(x, p, label, n_blocks):
    num = np.bincount(label, weights=x * p, minlength=n_blocks)
    den = np.bincount(label, weights=p, minlength=n_blocks)
    return (num / den)[label]


def _cond_job(i, rng, n, n_blocks, what, weighted=False) -> Job:
    """Build space, partition and variable; then condition.

    ``what`` is "cond" (cond_expectation + verify_duality; references:
    bincount block averages to 1e-12 relative and duality residuals below
    1e-12) or "l1" (the truncation ladder, which must equal the direct
    result bitwise once converged). The space is uniform, or carries
    Dirichlet weights when ``weighted``.
    """
    label = _blocks(rng, n, n_blocks)
    uniform = not weighted
    p = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
    x = rng.normal(0.0, 3.0, n)  # |x| < 64 = j_max, so the ladder converges
    x = np.clip(x, -60.0, 60.0)
    members = [np.flatnonzero(label == b).tolist() for b in range(n_blocks)]
    values = x.tolist()
    atoms = tuple((str(k + 1), float(q)) for k, q in enumerate(p))
    ref = _cond_ref(x, np.array([q for _, q in atoms]), label, n_blocks)

    def run():
        space = cd.FiniteMeasureSpace.uniform(n) if uniform else cd.FiniteMeasureSpace(atoms)
        G = cd.Partition(tuple(tuple(b) for b in members))
        X = cd.RandomVariable(values)
        if what == "l1":
            return cd.cond_expectation_l1(X, G, space), cd.cond_expectation(X, G, space)
        xi = cd.cond_expectation(X, G, space)
        return xi, cd.verify_duality(X, xi, G, space, 1e-12)

    def check(out):
        xi, other = out
        if what == "l1":
            same = xi.converged and xi.values == other.values
            return [xi.j_reached, len(xi.ladder)] + list(xi.values[:16]), 0.0 if same else math.inf
        err = float(np.max(np.abs(np.array(xi.values) - ref) / (1.0 + np.abs(ref))))
        ratio = max(_ratio(err, 1e-12), _ratio(max(other.residuals), 1e-12))
        return [max(other.residuals)] + list(xi.values[:16]), ratio

    space = "weighted" if weighted else "uniform"
    return Job(f"exp-cond-{what}-{space}-{n}-{n_blocks}-{i}", run, check)


def _samples_job(i, rng, n, n_points) -> Job:
    """Empirical oracle recovery; reference: the empirical CDF, with the
    sample mass within 2/J_MAX of x as tolerance (plus 1e-6)."""
    s = rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0), n)
    xs = np.quantile(s, rng.uniform(0.05, 0.95, n_points)).tolist()

    def run():
        oracle = st.oracle_from_samples(s)
        return [st.recover_cdf(oracle, x) for x in xs]

    return Job(f"exp-samples-{n}-{i}", run, _check_samples(s, xs))


def _check_samples(s, xs):
    def check(values):
        values = [float(v) for v in values]
        ratio = 0.0
        for v, x in zip(values, xs):
            emp = float(np.mean(s <= x))
            win = float(np.mean(np.abs(s - x) <= 2.0 / J_MAX))
            ratio = max(ratio, _ratio(abs(v - emp), win + 1e-6))
        return values, ratio

    return check


def _condexp_cli_job(i, rng, n, n_blocks, workdir) -> Job:
    """condexp on a generated (label, probability, value) CSV."""
    label = _blocks(rng, n, n_blocks)
    p = np.full(n, 1.0 / n)
    x = rng.normal(0.0, 3.0, n)
    path = os.path.join(workdir, f"condexp-{i}.csv")
    with open(path, "w") as fh:
        fh.write("label,probability,value\n")
        fh.writelines(f"a{k},{float(p[k])!r},{float(x[k])!r}\n" for k in range(n))
    spec = "|".join(
        ",".join(f"a{k}" for k in np.flatnonzero(label == b)) for b in range(n_blocks)
    )
    ref = _cond_ref(x, p, label, n_blocks)
    args = ["condexp", "--input", path, "--partition", spec, "--tol", "1e-12"]

    def check(text):
        rows = _csv_rows(text)
        xi = np.array([float(r[3]) for r in rows])
        resid = max(float(r[5]) for r in rows)
        if len(rows) != n:
            return [text], math.inf
        err = float(np.max(np.abs(xi - ref) / (1.0 + np.abs(ref))))
        return [text], max(_ratio(err, 1e-12), _ratio(resid, 1e-12))

    return _cli_job(f"exp-cli-condexp-{n}-{i}", args, check)


def _samples_cli_job(i, rng, n, workdir) -> Job:
    s = rng.normal(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 1.0), n)
    path = os.path.join(workdir, f"samples-{i}.txt")
    with open(path, "w") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in s)
    lo, hi = (float(v) for v in np.quantile(s, [0.1, 0.9]))
    args = ["recover-cdf", "--samples", path, "--grid-lo", repr(lo),
            "--grid-hi", repr(hi), "--grid-n", "4"]

    def check(text):
        rows = _csv_rows(text)
        xs = [float(r[0]) for r in rows]
        _, ratio = _check_samples(s, xs)([float(r[1]) for r in rows])
        return [text], ratio if len(rows) == 4 else math.inf

    return _cli_job(f"exp-cli-samples-{n}-{i}", args, check)


def expectations_batch(rng, workdir) -> list[Job]:
    """Percentiles are set by clusters of like-cost requests, so that the
    machine's uneven speed across job kinds cannot reorder the jobs around
    them: 80 sine N=256 expectations (~2.5 ms at the seed commit) span the
    middle third, with the cheap jobs (atom laws, small spaces and samples)
    below and the dearer ones above; the 90th percentile falls among 32
    ~25 ms jobs of three layers (Legendre N=32 expectations, L1 ladders and
    block averages, condexp on 2000-row files), with nine larger jobs above."""
    jobs = []
    # hilbert
    jobs += [_atom_law_job(i, rng) for i in range(30)]
    jobs += [_bochner_job(i, "fourier_sine", 32, "mean+norm") for i in range(8)]
    jobs += [_bochner_job(i, "fourier_sine", 256, "mean+norm") for i in range(80)]
    jobs += [_bochner_job(i, "shifted_legendre", 32, "mean+norm") for i in range(12)]
    jobs.append(_bochner_job(0, "shifted_legendre", 256, "mean+norm"))
    jobs.append(_bochner_job(0, "shifted_legendre", 2048, "norm"))
    jobs.append(_bochner_job(0, "fourier_sine", 2048, "mean+norm"))
    jobs += [_project_job(i, rng) for i in range(12)]
    # conditional
    jobs += [_cond_job(i, rng, 1000, 10, "cond") for i in range(14)]
    jobs += [_cond_job(i, rng, 1000, 10, "cond", weighted=True) for i in range(4)]
    jobs += [_cond_job(i, rng, 1000, 10, "l1", weighted=i % 2 == 1) for i in range(2)]
    jobs += [_cond_job(i, rng, 2000, 20, "l1", weighted=i % 2 == 1) for i in range(8)]
    jobs += [_cond_job(i, rng, 10_000, 100, "cond") for i in range(4)]
    jobs += [_cond_job(i, rng, 10_000, 100, "l1") for i in range(2)]
    jobs.append(_cond_job(0, rng, 100_000, 1000, "cond"))
    jobs.append(_cond_job(0, rng, 30_000, 300, "l1", weighted=True))
    # empirical oracles
    jobs += [_samples_job(i, rng, 1000, 1) for i in range(16)]
    jobs += [_samples_job(i, rng, 10_000, 2) for i in range(4)]
    jobs.append(_samples_job(0, rng, 100_000, 2))
    # cli file parsing
    jobs += [_condexp_cli_job(i, rng, 1000, 10, workdir) for i in range(4)]
    jobs += [_condexp_cli_job(4 + i, rng, 2000, 20, workdir) for i in range(8)]
    jobs += [_condexp_cli_job(12 + i, rng, 10_000, 100, workdir) for i in range(2)]
    jobs += [_samples_cli_job(i, rng, 2000, workdir) for i in range(4)]
    return jobs


def build_batch(workload: str, seed: int, workdir: str) -> list[Job]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "cdf-recovery":
        return cdf_recovery_batch(rng)
    if workload == "paths":
        return paths_batch(rng)
    return expectations_batch(rng, workdir)


def warmup_jobs(workload: str, workdir: str) -> list[Job]:
    """One small job per layer the workload touches, from a fixed seed."""
    rng = np.random.default_rng([2**31 - 1, WORKLOADS.index(workload)])
    if workload == "cdf-recovery":
        return [_cdf_point_job(0, rng, "uniform", 1), _cdf_cli_job(0, rng)]
    if workload == "paths":
        return [_ladder_job(1, rng), _cylinder_job(0, rng, 3, 24), _mc_job(0, rng),
                _bridge_cli_job(0, rng)]
    return [_bochner_job(0, "shifted_legendre", 32, "mean+norm"),
            _cond_job(0, rng, 1000, 10, "cond"), _samples_job(0, rng, 1000, 1),
            _condexp_cli_job(99, rng, 100, 4, workdir)]
