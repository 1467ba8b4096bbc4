import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from test_acceptance import _poly_functional, _spread_times

from rieszkit import wiener
from rieszkit.errors import BudgetError, ConvergenceError, NumericError
from rieszkit.numerics import _dot, adaptive_integrate, gauss_hermite, gauss_legendre
from rieszkit.wiener import (
    _WINDOW_SIGMAS,
    BridgePath,
    CylinderSet,
    CylindricalFunctional,
    WienerParams,
    check_compatibility,
    cylinder_probability,
    heat_kernel,
    integrate_pointwise_limit,
    node_refinement_table,
    sample_bridge,
    wiener_integral_mc,
    wiener_integral_quadrature,
)

PINNED = WienerParams()  # 0 -> 0 over [0, 1] with D = 1/2


def ones_fn(p):
    return np.ones(np.asarray(p).shape[:-1])


def test_heat_kernel_peak_normalizes_at_matching_diffusion():
    assert heat_kernel(0.0, 1.0, 1.0 / (4.0 * math.pi)) == 1.0


def test_heat_kernel_integrates_to_one():
    got = adaptive_integrate(
        lambda y: heat_kernel(y - 0.3, 0.7, 0.5), -20.0, 20.0, 1e-12
    )
    assert abs(got - 1.0) < 1e-12


def test_heat_kernel_standard_value():
    want = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
    assert abs(heat_kernel(1.0, 1.0, 0.5) - want) < 1e-15
    assert abs(heat_kernel(1.0, 1.0, 0.5) - 0.24197) < 1e-5


def test_heat_kernel_underflows_to_zero_where_its_exponent_overflows():
    # dx**2 overflows to inf, and exp(-inf) is the exact underflowed value
    assert heat_kernel(1e200, 1.0, 1.0) == 0.0
    vals = heat_kernel(np.array([-1e200, 0.0, 1e160]), 1.0, 1e-300)
    assert vals[0] == vals[2] == 0.0 and vals[1] == heat_kernel(0.0, 1.0, 1e-300)


def test_heat_kernel_symmetry_and_vectorization():
    xs = np.array([-1.5, -0.2, 0.0, 0.2, 1.5])
    vals = heat_kernel(xs, 0.8, 0.4)
    assert vals.shape == xs.shape
    assert np.array_equal(vals, vals[::-1])


def test_heat_kernel_validation():
    # 4*D*dt underflows to 0 although D and dt are positive
    with pytest.raises(ValueError, match="underflows"):
        heat_kernel(0.0, 5e-301, 1e-300)
    with pytest.raises(ValueError, match="underflows"):
        heat_kernel(np.array([0.0, 1.0]), 1e-200, 1e-200)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 0.0, 0.5)
    with pytest.raises(ValueError):
        heat_kernel(0.0, -1.0, 0.5)
    with pytest.raises(ValueError):
        heat_kernel(0.0, 1.0, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be finite"):
            heat_kernel(np.zeros(3), bad, 0.5)
        with pytest.raises(ValueError, match="D must be finite"):
            heat_kernel(np.zeros(3), 1.0, bad)


@pytest.mark.parametrize("slot", range(6))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_compatibility_rejects_non_finite_parameters(slot, bad):
    args = [0.0, 0.0, 0.0, 0.5, 1.0, 0.5]  # x, z, u, s, t, D
    args[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        check_compatibility(*args, 16)


def test_transition_identity_holds_at_64_nodes():
    assert check_compatibility(1.0, -1.0, 0.0, 0.3, 1.0, 0.5, 64) < 1e-10
    assert check_compatibility(0.7, 0.2, 0.1, 0.6, 1.3, 0.8, 64) < 1e-10


def test_transition_identity_residual_decays_with_nodes():
    ladder = [
        check_compatibility(0.0, 0.0, 0.0, 0.5, 1.0, 0.5, n)
        for n in (8, 16, 32, 64)
    ]
    assert all(b <= a for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] < 1e-12


def test_transition_identity_validation():
    with pytest.raises(ValueError):
        check_compatibility(0.0, 0.0, 0.5, 0.3, 1.0, 0.5)
    with pytest.raises(ValueError):
        check_compatibility(0.0, 0.0, 0.0, 0.5, 1.0, 0.5, n_nodes=4)


def test_full_line_cylinders_recover_total_mass():
    mass = heat_kernel(PINNED.x - PINNED.y, PINNED.t, PINNED.D)
    for n_times in (1, 2, 3):
        times = tuple((k + 1) / (n_times + 1) for k in range(n_times))
        C = CylinderSet(times, ((-np.inf, np.inf),) * n_times)
        assert abs(cylinder_probability(C, PINNED) - mass) < 1e-8


def test_symmetric_half_lines_split_the_mass():
    mass = heat_kernel(0.0, 1.0, 0.5)
    left = cylinder_probability(
        CylinderSet((0.5,), ((-np.inf, 0.0),)), PINNED, 64
    )
    right = cylinder_probability(
        CylinderSet((0.5,), ((0.0, np.inf),)), PINNED, 64
    )
    assert abs(left - right) < 1e-12
    assert abs(left + right - mass) < 1e-6
    assert abs(right - mass / 2.0) < 1e-6


def test_half_line_cylinder_agrees_with_monte_carlo():
    indicator = CylindricalFunctional(
        (0.5,), lambda p: (p[..., 0] > 0.0).astype(float)
    )
    est, err = wiener_integral_mc(indicator, PINNED, 20_000, seed=31)
    quad = cylinder_probability(CylinderSet((0.5,), ((0.0, np.inf),)), PINNED, 64)
    assert abs(est - quad) < 3.0 * err


def test_empty_and_far_boxes_have_zero_probability():
    assert cylinder_probability(
        CylinderSet((0.5,), ((1.0, -1.0),)), PINNED
    ) == 0.0
    assert cylinder_probability(
        CylinderSet((0.5,), ((100.0, 101.0),)), PINNED
    ) == 0.0


def test_box_enlargement_is_monotone():
    small = cylinder_probability(CylinderSet((0.5,), ((-1.0, 1.0),)), PINNED)
    large = cylinder_probability(CylinderSet((0.5,), ((-2.0, 2.0),)), PINNED)
    mass = heat_kernel(0.0, 1.0, 0.5)
    assert small <= large <= mass + 1e-12


def test_cylinder_validation():
    with pytest.raises(ValueError):
        CylinderSet((0.5, 0.25), ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError):
        CylinderSet((0.5,), ((-1.0, 1.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        CylinderSet((0.5,), ((float("nan"), 1.0),))
    C = CylinderSet((0.5,), ((-1.0, 1.0),))
    with pytest.raises(ValueError):
        cylinder_probability(C, PINNED, n_nodes=4)
    beyond = CylinderSet((1.0,), ((-1.0, 1.0),))
    with pytest.raises(ValueError):
        cylinder_probability(beyond, PINNED)


def test_tensor_quadrature_budget_guard():
    times = (0.1, 0.2, 0.3, 0.4, 0.5)
    # free times drop out of the cylinder sweep, so this costs no kernel step
    mass = heat_kernel(PINNED.x - PINNED.y, PINNED.t, PINNED.D)
    assert cylinder_probability(
        CylinderSet(times, ((-np.inf, np.inf),) * 5), PINNED, 64
    ) == mass
    with pytest.raises(BudgetError):
        wiener_integral_quadrature(
            CylindricalFunctional(times, ones_fn), PINNED, 64
        )


def test_cylinder_sweep_budget_guard_runs_before_any_kernel(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("evaluated past the budget guard")

    monkeypatch.setattr(wiener, "heat_kernel", fail)
    monkeypatch.setattr(wiener, "gauss_legendre", fail)
    # 2 boxed times at 8192 nodes: 1.3e8 kernel evaluations
    C = CylinderSet((0.2, 0.5, 0.8), ((-1.0, 1.0), (-np.inf, np.inf), (0.0, np.inf)))
    with pytest.raises(BudgetError, match="2 boxed times at 8192 nodes"):
        cylinder_probability(C, PINNED, 8192)


def _reference_chain(params, times, boxes, n_nodes):
    """The tensor chain before the Markov sweep: (coords, weights) with all
    node combinations rebuilt as an (M, k) matrix at every axis k."""
    prev_t = 0.0
    pts = np.full((1, 1), params.x)
    wts = np.ones(1)
    coords = np.empty((1, 0))
    for s_i, box in zip(times, boxes):
        dt_i = s_i - prev_t
        prev = pts[:, -1] if coords.shape[1] else np.full(len(wts), params.x)
        if box is None or (box[0] == -np.inf and box[1] == np.inf):
            rule = gauss_hermite(n_nodes)
            new = prev[:, None] + math.sqrt(4.0 * params.D * dt_i) * rule.nodes[None, :]
            w = wts[:, None] * (rule.weights / math.sqrt(math.pi))[None, :]
        else:
            center = params.x + (s_i / params.t) * (params.y - params.x)
            sd = math.sqrt(2.0 * params.D * s_i * (params.t - s_i) / params.t)
            window = _WINDOW_SIGMAS * sd
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
        coords = np.concatenate(
            [np.repeat(coords, n_nodes, axis=0), new.reshape(-1, 1)], axis=1
        )
        pts = coords
        wts = w.reshape(-1)
        prev_t = s_i
    wts = wts * heat_kernel(params.y - coords[:, -1], params.t - prev_t, params.D)
    return coords, wts


def _reference_bridge(params, times, z):
    """The (M, N) row-major batch of path values from the (M, N) standard
    normals z, by the bridge recurrence one column at a time."""
    cols = []
    prev_t, prev = 0.0, params.x
    for s, zk in zip(times, z.T):
        gap = params.t - prev_t
        mean = prev + (s - prev_t) / gap * (params.y - prev)
        var = 2.0 * params.D * (s - prev_t) * (params.t - s) / gap
        prev = mean + math.sqrt(var) * zk
        cols.append(prev)
        prev_t = s
    return np.column_stack(cols)


def _reference_grid(params, times, n_nodes):
    """The tensor quadrature's (coords, weights), row-major: the explicit
    (n^N, N) grid of probabilists' Hermite nodes mapped by the bridge
    recurrence, and per row the product of its normalised weights."""
    rule = gauss_hermite(n_nodes)
    picks = np.indices((n_nodes,) * len(times)).reshape(len(times), -1).T
    coords = _reference_bridge(params, times, math.sqrt(2.0) * rule.nodes[picks])
    wts = np.ones(len(picks))
    for col in picks.T:
        wts = wts * (rule.weights[col] / math.sqrt(math.pi))
    return coords, wts


def _random_box(rng, center, kind):
    if kind == "absent":
        return None
    if kind == "line":
        return (-np.inf, np.inf)
    a = center + rng.uniform(-1.5, 1.0)
    if kind == "finite":
        return (a, a + rng.uniform(0.05, 2.0))
    if kind == "half":
        return (a, np.inf) if rng.random() < 0.5 else (-np.inf, a)
    return (a, a - rng.uniform(0.0, 1.0))  # empty: lo >= hi


def test_markov_sweep_equals_the_coordinate_matrix_chain_bitwise():
    rng = np.random.default_rng(20240605)
    kinds = ("absent", "line", "finite", "half", "empty")
    for N in (1, 2, 3, 4):  # 4 x 3 x 18 = 216 draws
        for n in (8, 12, 16):
            for _ in range(18):
                params = WienerParams(
                    x=rng.uniform(-1, 1), y=rng.uniform(-1, 1),
                    t=rng.uniform(0.5, 2.0), D=rng.uniform(0.2, 1.0),
                )
                times = tuple(np.sort(rng.uniform(0.05, 0.95, N)) * params.t)
                # the empty kind is drawn less often, so most chains run to the end
                weights = [0.22, 0.22, 0.22, 0.22, 0.12]
                boxes = [
                    _random_box(rng, params.x + s / params.t * (params.y - params.x),
                                rng.choice(kinds, p=weights))
                    for s in times
                ]
                # F gets the reference's coordinates as contiguous time
                # columns, and a one-hot F picks out one weight exactly
                coords, wts = _reference_grid(params, times, n)
                mass = heat_kernel(params.x - params.y, params.t, params.D)
                seen = []
                batch = CylindricalFunctional(times, lambda p: seen.append(p) or np.ones(len(p)))
                wiener_integral_quadrature(batch, params, n)
                assert seen[0].flags.f_contiguous and np.array_equal(seen[0], coords)
                for j in np.linspace(0, n ** N - 1, 5).astype(int):
                    pick = CylindricalFunctional(times, lambda p, j=j: np.arange(len(p)) == j)
                    assert wiener_integral_quadrature(pick, params, n) == mass * wts[j]

                # the cylinder sweep drops the free times and sums the boxed
                # ones by matrix-vector products, in another order
                line = (-np.inf, np.inf)
                C = CylinderSet(times, [line if b is None else b for b in boxes])
                kept = [(s, b) for s, b in zip(C.times, C.boxes) if b != line]
                want = mass
                if kept:
                    ref = _reference_chain(params, *zip(*kept), n)
                    want = 0.0 if ref is None else float(np.sum(ref[1]))
                assert abs(cylinder_probability(C, params, n) - want) <= 1e-14 * mass
                assert cylinder_probability(CylinderSet(times, [line] * N), params, n) == mass

                c = rng.normal(size=N)
                F = CylindricalFunctional(times, lambda p: np.cos(p @ c) + p[..., -1] ** 2)
                # BLAS rounds p @ c on F's layout otherwise than on a
                # row-major copy
                want = mass * _dot(wts, F.evaluate(np.asfortranarray(coords)))
                assert wiener_integral_quadrature(F, params, n) == want


def test_cylinder_sweep_matches_the_all_axes_tensor_at_256_nodes():
    # The slow path Hermite-integrates every free time; at 256 nodes it is
    # the reference for the sweep at 32. Both paths put the same Legendre
    # rule on a half-line box clipped to 12 standard deviations of the
    # bridge marginal. Gaps of at least t/10 keep the reference converged:
    # after a free time with a gap of 0.016 * t to the next box it is
    # itself 1.2e-9 * mass off.
    rng = np.random.default_rng(20240606)
    kinds = ("absent", "line", "finite", "half", "empty")
    for N in (1, 2):
        for _ in range(30):
            params = WienerParams(
                x=rng.uniform(-1, 1), y=rng.uniform(-1, 1),
                t=rng.uniform(0.5, 2.0), D=rng.uniform(0.2, 1.0),
            )
            while True:
                times = np.sort(rng.uniform(0.1, 0.9, N)) * params.t
                if np.all(np.diff(np.concatenate([[0.0], times, [params.t]])) >= 0.1 * params.t):
                    break
            times = tuple(times)
            boxes = [
                _random_box(rng, params.x + s / params.t * (params.y - params.x),
                            rng.choice(kinds))
                for s in times
            ]
            ref = _reference_chain(params, times, boxes, 256)
            want = 0.0 if ref is None else float(np.sum(ref[1]))
            line = (-np.inf, np.inf)
            C = CylinderSet(times, [line if b is None else b for b in boxes])
            mass = heat_kernel(params.x - params.y, params.t, params.D)
            assert abs(cylinder_probability(C, params, 32) - want) <= 1e-9 * mass


def test_twenty_time_box_cylinder_agrees_with_monte_carlo():
    params = WienerParams(x=0.2, y=-0.3, t=1.0, D=0.5)
    times = tuple((k + 1) / 21 for k in range(20))
    boxes = []
    for s in times:
        mean = params.x + s / params.t * (params.y - params.x)
        sd = math.sqrt(2.0 * params.D * s * (params.t - s) / params.t)
        boxes.append((mean - 2.5 * sd, mean + 2.0 * sd))
    lo, hi = np.array(boxes).T
    indicator = CylindricalFunctional(
        times, lambda p: np.all((p >= lo) & (p <= hi), axis=-1).astype(float)
    )
    est, err = wiener_integral_mc(indicator, params, 100_000, seed=0)
    quad = cylinder_probability(CylinderSet(times, tuple(boxes)), params, 64)
    assert abs(est - quad) < 3.0 * err


def _traced_peak_mib(fn):
    fn()  # rules and imports outside the measurement
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_tensor_chain_memory_at_four_times_and_32_nodes():
    # 32^4 = 1M node combinations, 8 MiB per float column. The coordinate
    # matrix chain peaked at 73.0 MiB on this cylinder and at 83,887,560 B
    # (80.0013 MiB) on this monomial, whose own (M, N) power temporary takes
    # 32 MiB; the quadrature bound leaves 10 KiB for interpreter objects and
    # fails if the last time's node tensor outlives the build (88 MiB).
    times = (0.2, 0.4, 0.6, 0.8)
    C = CylinderSet(times, ((-1.0, 1.0), (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.5)))
    assert _traced_peak_mib(lambda: cylinder_probability(C, PINNED, 32)) <= 48.0
    karr = np.array([2.0, 1.0, 0.0, 1.0])
    F = CylindricalFunctional(times, lambda X: np.prod(np.asarray(X) ** karr, axis=-1))
    assert _traced_peak_mib(lambda: wiener_integral_quadrature(F, PINNED, 32)) <= 80.01


def test_cylinder_sweep_memory_is_linear_in_the_nodes():
    # no node tensor: O(n) vectors and kernel blocks of at most 2**14 cells
    times = (0.2, 0.4, 0.6, 0.8)
    C = CylinderSet(times, ((-1.0, 1.0), (-np.inf, np.inf), (0.0, np.inf), (-np.inf, 0.5)))
    assert _traced_peak_mib(lambda: cylinder_probability(C, PINNED, 32)) < 1.0
    C = CylinderSet((0.2, 0.5, 0.8), ((-1.0, 1.0), (0.0, np.inf), (-np.inf, 0.5)))
    assert _traced_peak_mib(lambda: cylinder_probability(C, PINNED, 2048)) <= 4.0


def test_cylinder_probability_bytes_do_not_depend_on_the_blas_thread_count():
    script = (
        "import numpy as np\n"
        "from rieszkit.wiener import CylinderSet, WienerParams, cylinder_probability\n"
        "C = CylinderSet((0.3, 0.7, 1.0, 1.4), ((-1.0, 1.0), (-np.inf, np.inf),"
        " (0.0, np.inf), (-np.inf, 0.5)))\n"
        "print(repr(cylinder_probability(C, WienerParams(0.3, -0.2, 1.7, 0.8), 256)))\n"
    )
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_constant_functional_integrates_to_total_mass():
    params = WienerParams(x=0.3, y=-0.2, t=1.7, D=0.8)
    mass = heat_kernel(params.x - params.y, params.t, params.D)
    for n_times in (1, 2, 3):
        times = tuple((k + 1) * params.t / (n_times + 1) for k in range(n_times))
        F = CylindricalFunctional(times, ones_fn)
        assert abs(wiener_integral_quadrature(F, params) - mass) < 1e-10


def test_odd_functional_vanishes_by_symmetry():
    F = CylindricalFunctional((0.5,), lambda p: p[..., 0] ** 3)
    assert abs(wiener_integral_quadrature(F, PINNED)) < 1e-12


def test_second_moment_matches_bridge_variance():
    # pinned 0 -> 0: Var at s is 2*D*s*(t-s)/t, and the integral carries
    # the total-mass factor
    s = 0.25
    F = CylindricalFunctional((s,), lambda p: p[..., 0] ** 2)
    mass = heat_kernel(0.0, 1.0, 0.5)
    want = mass * 2.0 * 0.5 * s * (1.0 - s) / 1.0
    assert abs(wiener_integral_quadrature(F, PINNED) - want) < 1e-8


def test_interleaving_an_ignored_time_changes_nothing():
    F2 = CylindricalFunctional((0.25, 0.75), lambda p: p[..., 0] * p[..., -1])
    F3 = CylindricalFunctional((0.25, 0.5, 0.75), lambda p: p[..., 0] * p[..., -1])
    a = wiener_integral_quadrature(F2, PINNED)
    b = wiener_integral_quadrature(F3, PINNED)
    assert abs(a - b) < 1e-10


def test_quadrature_is_linear():
    f = CylindricalFunctional((0.3, 0.6), lambda p: p[..., 0] ** 2)
    g = CylindricalFunctional((0.3, 0.6), lambda p: np.cos(p[..., 1]))
    combo = CylindricalFunctional(
        (0.3, 0.6), lambda p: 2.0 * p[..., 0] ** 2 - 0.5 * np.cos(p[..., 1])
    )
    want = 2.0 * wiener_integral_quadrature(
        f, PINNED
    ) - 0.5 * wiener_integral_quadrature(g, PINNED)
    assert abs(wiener_integral_quadrature(combo, PINNED) - want) < 1e-8


def test_quadrature_respects_the_mass_times_sup_bound():
    F = CylindricalFunctional(
        (0.4, 0.8), lambda p: np.cos(p[..., 0] + 0.7 * p[..., 1]), bound=1.0
    )
    mass = heat_kernel(0.0, 1.0, 0.5)
    assert abs(wiener_integral_quadrature(F, PINNED)) <= mass * F.bound + 1e-10


def test_refinement_table_shape_and_decay():
    F = CylindricalFunctional((0.25,), lambda p: p[..., 0] ** 2)
    rows = node_refinement_table(F, PINNED, (8, 16, 32))
    assert [r[0] for r in rows] == [8, 16, 32]
    assert math.isnan(rows[0][2])
    assert rows[-1][2] < 1e-10


def _bridge_moment(params, times, powers) -> float:
    """E prod X_{s_k}^{p_k} under the normalised bridge, in exact rationals.

    Given X_{k-1} = a, X_k is normal with mean alpha + beta * a and
    variance v, so conditioning backwards from the last time leaves a
    polynomial in the previous value at every step."""
    x, y, t, D = (Fraction(v) for v in (params.x, params.y, params.t, params.D))
    s = [Fraction(0)] + [Fraction(v) for v in times]
    poly = [Fraction(1)]  # coefficients, lowest degree first
    for k in range(len(times), 0, -1):
        poly = [Fraction(0)] * powers[k - 1] + poly
        gap = t - s[k - 1]
        alpha, beta = (s[k] - s[k - 1]) / gap * y, (t - s[k]) / gap
        v = 2 * D * (s[k] - s[k - 1]) * (t - s[k]) / gap
        # E (u + G)^d = sum over even j of C(d, j) u^(d-j) v^(j/2) (j-1)!!
        smooth = [Fraction(0)] * len(poly)
        for d, c in enumerate(poly):
            for j in range(0, d + 1, 2):
                gauss = v ** (j // 2) * math.prod(range(j - 1, 0, -2))
                smooth[d - j] += c * math.comb(d, j) * gauss
        poly = [Fraction(0)] * len(smooth)  # u = alpha + beta * a
        for d, c in enumerate(smooth):
            for i in range(d + 1):
                poly[i] += c * math.comb(d, i) * alpha ** (d - i) * beta ** i
    return float(sum(c * x ** i for i, c in enumerate(poly)))


def _abs_moment_bound(params, times, powers) -> float:
    """An upper bound on E prod |X_{s_k}|^{p_k}, the size its quadrature
    rounds against: by Hölder, prod (E |X_{s_k}|^K)^(p_k / K) with K the
    total degree, and E |X|^K <= E (|m| + sd |Z|)^K for the marginal mean
    m and standard deviation sd."""
    K = sum(powers)
    out = 1.0
    for s, k in zip(times, powers):
        m = abs(params.x + s / params.t * (params.y - params.x))
        sd = math.sqrt(2.0 * params.D * s * (params.t - s) / params.t)
        # E |Z|^j = 2^(j/2) Gamma((j + 1)/2) / sqrt(pi)
        moment = sum(math.comb(K, j) * m ** (K - j) * sd ** j * 2.0 ** (j / 2)
                     * math.gamma((j + 1) / 2) / math.sqrt(math.pi) for j in range(K + 1))
        out *= moment ** (k / max(K, 1))
    return out


def test_quadrature_is_exact_for_total_degree_up_to_2n_minus_1():
    # X_k depends on the normals of times 1..k, so a monomial of total
    # degree K has degree K in the first normal: n = 8 nodes are exact up
    # to K = 15, all of it on one time included, up to rounding
    rng = np.random.default_rng(20261020)
    for N in (1, 2, 3, 4):
        for trial in range(16):
            params = WienerParams(
                x=rng.uniform(-1, 1), y=rng.uniform(-1, 1),
                t=rng.uniform(0.5, 2.0), D=rng.uniform(0.2, 1.0),
            )
            times = np.sort(rng.uniform(0.05, 0.9, N)) * params.t
            if trial % 2:
                times[-1] = 0.97 * params.t  # a last hop of 0.03 t
            times = tuple(float(s) for s in np.sort(times))
            K = 15 if trial < 4 else int(rng.integers(0, 16))
            powers = np.bincount(rng.integers(0, N, K), minlength=N)
            if trial < 2:
                powers = 15 * np.eye(N, dtype=int)[-trial]  # all on the first or last time
            powers = tuple(int(k) for k in powers)
            karr = np.array(powers, dtype=float)
            F = CylindricalFunctional(times, lambda X: np.prod(X ** karr, axis=-1))
            mass = heat_kernel(params.x - params.y, params.t, params.D)
            want = mass * _bridge_moment(params, times, powers)
            scale = mass * _abs_moment_bound(params, times, powers)
            assert abs(wiener_integral_quadrature(F, params, 8) - want) <= 1e-14 * scale, powers


def test_quadrature_is_exact_on_the_acceptance_polynomials():
    # the 50 functionals of acceptance 07, degree <= 2 on 1 to 3 times, at 32 nodes
    rng = np.random.default_rng(2025)
    for _ in range(50):
        params = WienerParams(
            x=rng.uniform(-1, 1), y=rng.uniform(-1, 1),
            t=rng.uniform(0.5, 2.0), D=rng.uniform(0.3, 1.0),
        )
        n_times = int(rng.integers(1, 4))
        F = _poly_functional(rng, _spread_times(rng, params.t, n_times, 0.08))
        monos, coeffs = F.fn.__defaults__  # bound by _poly_functional
        mass = heat_kernel(params.x - params.y, params.t, params.D)
        want = mass * sum(c * _bridge_moment(params, F.times, tuple(int(k) for k in mono))
                          for c, mono in zip(coeffs, monos))
        assert abs(wiener_integral_quadrature(F, params, 32) - want) <= 1e-13 * mass


def test_bridge_sampler_matches_marginal_statistics():
    rng = np.random.Generator(np.random.Philox(key=5))
    times = (0.25, 0.5, 0.75)
    draws = np.array(
        [sample_bridge(PINNED, times, rng).positions for _ in range(100_000)]
    )
    # pinned 0 -> 0: mean 0, Var(W_0.5) = 0.25, Cov(W_0.25, W_0.75) = 0.0625
    assert abs(float(np.mean(draws[:, 1]))) < 0.0048
    assert abs(float(np.var(draws[:, 1], ddof=1)) - 0.25) < 0.0034
    cov = float(np.cov(draws[:, 0], draws[:, 2], ddof=1)[0, 1])
    assert abs(cov - 0.0625) < 0.0019


def test_bridge_path_validation():
    with pytest.raises(ValueError):
        BridgePath((0.5, 0.25), (0.0, 0.0))
    with pytest.raises(ValueError):
        BridgePath((0.25, 0.5), (0.0,))
    with pytest.raises(ValueError):
        BridgePath((0.5,), (float("inf"),))
    with pytest.raises(ValueError):
        BridgePath((float("nan"),), (0.0,))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_bridge(PINNED, (1.0,), rng)
    with pytest.raises(ValueError):
        sample_bridge(PINNED, (), rng)
    # a NaN time is refused as a time, not as a position it produced
    with pytest.raises(ValueError, match="times must be finite"):
        sample_bridge(PINNED, (0.5, float("nan")), rng)


def test_rejected_bridge_draw_leaves_the_generator_untouched():
    rng = np.random.default_rng(3)  # PCG64: its state compares with ==
    state = rng.bit_generator.state
    for times in ((0.5, 1.0), (float("nan"),), ()):
        with pytest.raises(ValueError):
            sample_bridge(PINNED, times, rng)
        assert rng.bit_generator.state == state, times


def test_mc_constant_functional_is_exact_with_zero_stderr():
    F = CylindricalFunctional((0.5,), ones_fn)
    est, err = wiener_integral_mc(F, PINNED, 500, seed=3)
    assert est == heat_kernel(0.0, 1.0, 0.5)
    assert err == 0.0


def test_mc_odd_functional_is_zero_within_three_sigma():
    F = CylindricalFunctional((0.5,), lambda p: p[..., 0])
    est, err = wiener_integral_mc(F, PINNED, 10_000, seed=12)
    assert err > 0.0
    assert abs(est) < 3.0 * err


def test_mc_agrees_with_quadrature():
    F = CylindricalFunctional((0.25, 0.75), lambda p: p[..., 0] * p[..., 1])
    est, err = wiener_integral_mc(F, PINNED, 20_000, seed=7)
    quad = wiener_integral_quadrature(F, PINNED)
    assert abs(est - quad) < 3.0 * err


def test_mc_is_deterministic_in_the_seed():
    F = CylindricalFunctional((0.3, 0.6), lambda p: np.cos(p[..., 0]) * p[..., 1])
    a = wiener_integral_mc(F, PINNED, 512, seed=42)
    b = wiener_integral_mc(F, PINNED, 512, seed=42)
    c = wiener_integral_mc(F, PINNED, 512, seed=43)
    assert a == b
    assert a != c


def test_mc_reports_the_offending_path():
    F = CylindricalFunctional((0.5,), lambda p: np.full(p.shape[:-1], np.nan))
    with pytest.raises(NumericError) as err:
        wiener_integral_mc(F, PINNED, 200, seed=1)
    assert len(err.value.point) == 1
    assert "path" in str(err.value)


def test_tensor_quadrature_reports_the_offending_node_combination():
    # NaN wherever the path is below 0 at the first time; np.where warns of nothing
    def F(times):
        return CylindricalFunctional(
            times, lambda p: np.where(p[..., 0] < 0.0, np.nan, 1.0), bound=1.0
        )

    for call in (
        lambda: wiener_integral_quadrature(F((0.3, 0.6)), PINNED, 8),
        lambda: node_refinement_table(F((0.3, 0.6)), PINNED, (8, 16)),
        lambda: integrate_pointwise_limit([F((0.3,)), F((0.3, 0.6))], PINNED, 8),
    ):
        with pytest.raises(NumericError, match="path") as err:
            call()
        assert err.value.point[0] < 0.0


def _reference_mc_batch(params, times, n_paths, seed):
    """The (n_paths, N) row-major batch built from the time-by-time Philox draws."""
    z = np.random.Generator(np.random.Philox(key=seed)).standard_normal((len(times), n_paths))
    return _reference_bridge(params, times, z.T)


def test_f_receives_contiguous_time_columns_with_the_row_major_values():
    params = WienerParams(x=0.3, y=-0.2, t=1.5, D=0.4)
    for N in (1, 2, 3, 4):
        times = tuple(params.t * (k + 1) / (N + 1) for k in range(N))
        seen = []

        def record(X):
            seen.append(X)
            return np.ones(len(X))

        F = CylindricalFunctional(times, record)
        wiener_integral_quadrature(F, params, 8)
        wiener_integral_mc(F, params, 300, seed=5)
        quad, mc = seen
        for X, want in (
            (quad, _reference_grid(params, times, 8)[0]),
            (mc, _reference_mc_batch(params, times, 300, 5)),
        ):
            assert X.shape == want.shape
            assert X.flags.f_contiguous
            assert np.array_equal(X, want)

        # a value that is not finite still names its row of the batch
        for call, want in (
            (lambda G: wiener_integral_quadrature(G, params, 8),
             _reference_grid(params, times, 8)[0]),
            (lambda G: wiener_integral_mc(G, params, 300, seed=5),
             _reference_mc_batch(params, times, 300, 5)),
        ):
            bad = CylindricalFunctional(times, lambda X: np.where(X[:, -1] > 0.1, np.nan, 1.0))
            with pytest.raises(NumericError) as err:
                call(bad)
            k = int(np.argmax(want[:, -1] > 0.1))
            assert err.value.point == tuple(want[k].tolist())


def test_every_node_and_path_count_must_be_an_integer():
    F = CylindricalFunctional((0.5,), ones_fn, bound=1.0)
    C = CylinderSet((0.5,), ((0.0, 1.0),))
    calls = {
        "quadrature": lambda n: wiener_integral_quadrature(F, PINNED, n),
        "cylinder": lambda n: cylinder_probability(C, PINNED, n),
        "compatibility": lambda n: check_compatibility(0.0, 0.1, 0.2, 0.5, 1.0, 0.5, n),
        "refinement": lambda n: node_refinement_table(F, PINNED, (8, n)),
        "limit": lambda n: integrate_pointwise_limit([F], PINNED, n),
    }
    for name, call in calls.items():
        for bad in (8.5, 12.7, 16.0, np.float64(16.0), True, "16"):
            with pytest.raises(ValueError, match="n_nodes must be an integer"):
                call(bad)
        call(np.int64(16))  # integer types pass
    for bad in (1000.5, 1000.0, np.float64(1000.0), True):
        with pytest.raises(ValueError, match="n_paths must be an integer"):
            wiener_integral_mc(F, PINNED, bad)
    assert wiener_integral_mc(F, PINNED, np.int64(100)) == wiener_integral_mc(F, PINNED, 100)


def test_mc_validation():
    F = CylindricalFunctional((0.5,), ones_fn)
    with pytest.raises(ValueError):
        wiener_integral_mc(F, PINNED, 99)
    beyond = CylindricalFunctional((1.5,), ones_fn)
    with pytest.raises(ValueError):
        wiener_integral_mc(beyond, PINNED, 500)
    with pytest.raises(ValueError):
        wiener_integral_mc(CylindricalFunctional((float("nan"),), ones_fn), PINNED, 500)


def test_pointwise_limit_of_truncated_squares():
    def clipped(j):
        return CylindricalFunctional(
            (0.5,), lambda p, j=j: np.minimum(p[..., 0] ** 2, float(j)), bound=float(j)
        )

    seq = [clipped(j) for j in (1, 2, 4, 8, 16, 32)]
    out = integrate_pointwise_limit(seq, PINNED, tol=1e-8)
    unclipped = wiener_integral_quadrature(
        CylindricalFunctional((0.5,), lambda p: p[..., 0] ** 2), PINNED
    )
    assert abs(out.value - unclipped) < 1e-6
    assert out.stabilized_at <= 5
    assert len(out.deltas) == out.stabilized_at


def test_pointwise_limit_single_term():
    F = CylindricalFunctional((0.5,), ones_fn, bound=1.0)
    out = integrate_pointwise_limit([F], PINNED)
    assert out.stabilized_at == 0
    assert out.deltas == ()


def test_pointwise_limit_requires_bounds_and_nesting():
    free = CylindricalFunctional((0.5,), ones_fn)
    with pytest.raises(ValueError):
        integrate_pointwise_limit([free], PINNED)
    a = CylindricalFunctional((0.5,), ones_fn, bound=1.0)
    b = CylindricalFunctional((0.25,), ones_fn, bound=1.0)
    with pytest.raises(ValueError):
        integrate_pointwise_limit([a, b], PINNED)
    with pytest.raises(ValueError):
        integrate_pointwise_limit([], PINNED)


def test_pointwise_limit_flags_oscillation():
    def const(c):
        return CylindricalFunctional(
            (0.5,), lambda p, c=c: np.full(p.shape[:-1], c), bound=1.0
        )

    seq = [const(1.0), const(-1.0), const(1.0), const(-1.0)]
    with pytest.raises(ConvergenceError) as err:
        integrate_pointwise_limit(seq, PINNED, tol=1e-8)
    assert len(err.value.estimates) == 2


def test_params_reject_scales_that_overflow():
    with pytest.raises(ValueError, match=r"^y - x overflows"):
        WienerParams(x=1e308, y=-1e308)
    with pytest.raises(ValueError, match=r"^4\*D\*t overflows"):
        WienerParams(t=2.0, D=1e308)
    # the largest scales that still fit are accepted
    WienerParams(x=-8e307, y=8e307, t=1.0, D=4e307)


def test_params_validation():
    with pytest.raises(ValueError):
        WienerParams(t=0.0)
    with pytest.raises(ValueError):
        WienerParams(D=-1.0)
    with pytest.raises(ValueError):
        WienerParams(x=float("inf"))
    with pytest.raises(ValueError):
        CylindricalFunctional((0.5, 0.5), ones_fn)
    with pytest.raises(ValueError):
        CylindricalFunctional((-0.5,), ones_fn)
    with pytest.raises(ValueError):
        CylindricalFunctional((0.5,), ones_fn, bound=-1.0)
