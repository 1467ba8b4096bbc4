import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.errors import ContractViolationError, ConvergenceError, RieszkitError
from rieszkit.numerics import _evaluate
from rieszkit.stieltjes import (
    CdfLike,
    ExpectationOracle,
    RampSpec,
    RecoveredCdf,
    ls_integrate,
    ls_measure_interval,
    _CELLS_PER_PASS,
    _probe_product,
    make_cutoff,
    make_ramp,
    oracle_from_cdf,
    oracle_from_samples,
    point_mass_cdf,
    recover_cdf,
    total_mass,
    triangular_cdf,
    two_atom_cdf,
    uniform_cdf,
)


def piecewise_affine(knots, heights):
    knots = np.asarray(knots, dtype=float)
    heights = np.asarray(heights, dtype=float)

    def f(t):
        return np.interp(np.asarray(t, dtype=float), knots, heights,
                         left=0.0, right=0.0)

    f.breakpoints = tuple(knots)
    return f


def test_measure_interval_examples():
    F = uniform_cdf()
    assert ls_measure_interval(F, 0.0, 1.0) == 1.0
    assert ls_measure_interval(F, 0.25, 0.5) == 0.25
    assert ls_measure_interval(F, 0.3, 0.3) == 0.0
    assert ls_measure_interval(two_atom_cdf(0.3, 0.6, 0.7), 0.2, 0.3) == 0.6
    with pytest.raises(ValueError):
        ls_measure_interval(F, 0.5, 0.25)


def test_ls_integrate_constant_against_uniform():
    got = ls_integrate(lambda t: np.ones_like(np.asarray(t, dtype=float)),
                       uniform_cdf(), (0.0, 1.0), 1e-8)
    assert abs(got - 1.0) < 1e-8


def test_ls_integrate_identity_against_uniform():
    got = ls_integrate(lambda t: np.asarray(t, dtype=float),
                       uniform_cdf(), (0.0, 1.0), 1e-8)
    assert abs(got - 0.5) < 1e-12


def test_ls_integrate_identity_against_point_mass():
    got = ls_integrate(lambda t: np.asarray(t, dtype=float),
                       point_mass_cdf(0.0), (-0.5, 0.5), 1e-10)
    assert got == 0.0


def test_ls_integrate_two_atoms_is_exact():
    got = ls_integrate(lambda t: np.asarray(t, dtype=float),
                       two_atom_cdf(0.3, 0.6, 0.7), (-0.5, 1.5), 1e-10)
    assert abs(got - 0.46) < 1e-12


def test_ls_integrate_kink_hint_speeds_nothing_but_changes_nothing():
    f = piecewise_affine([0.0, 0.4, 1.0], [0.0, 1.0, 0.0])
    with_hint = ls_integrate(f, uniform_cdf(), (0.0, 1.0), 1e-10)
    g = lambda t: f(t)  # same values, no declared kinks
    without = ls_integrate(g, uniform_cdf(), (0.0, 1.0), 1e-6)
    assert abs(with_hint - 0.5) < 1e-10
    assert abs(without - 0.5) < 1e-5


def test_ls_integrate_reports_nonconvergence():
    with pytest.raises(ConvergenceError) as err:
        ls_integrate(lambda t: np.asarray(t, dtype=float) ** 2,
                     uniform_cdf(), (0.0, 1.0), 1e-15, max_depth=6)
    last_two = err.value.estimates
    assert len(last_two) == 2
    assert all(abs(v - 1.0 / 3.0) < 1e-3 for v in last_two)


def test_ls_integrate_validation():
    F = uniform_cdf()
    assert ls_integrate(lambda t: 1.0, F, (0.5, 0.5), 1e-8) == 0.0
    with pytest.raises(ValueError):
        ls_integrate(lambda t: 1.0, F, (1.0, 0.0), 1e-8)
    for tol in (0.0, -1e-8, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            ls_integrate(lambda t: 1.0, F, (0.0, 1.0), tol)
    for support in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf),
                    (0.0, math.nan), (-math.inf, math.inf)):
        with pytest.raises(ValueError):
            ls_integrate(lambda t: 1.0, F, support, 1e-8)


# The per-segment refinement loop that ls_integrate batches across its
# segments, kept verbatim as the reference the batched passes must equal.
def _reference_rs_level(f, alpha, lo, hi, n_cells, tag_right_end):
    nodes = np.linspace(lo, hi, n_cells + 1)
    masses = np.diff(_evaluate(alpha.eval, nodes))
    tags = 0.5 * (nodes[:-1] + nodes[1:])
    if tag_right_end:
        tags[-1] = hi
    return float(np.dot(_evaluate(f, tags), masses))


def _reference_ls_integrate(f, alpha, support, tol=1e-8, max_depth=22):
    lo, hi = float(support[0]), float(support[1])
    if lo == hi:
        return 0.0
    jumps = set()
    edges = {lo, hi}
    if alpha.breakpoints:
        interior = [x for x in alpha.breakpoints if lo < x <= hi]
        jumps.update(interior)
        edges.update(x for x in interior if x < hi)
    edges.update(x for x in getattr(f, "breakpoints", ()) if lo < x < hi)
    edges = sorted(edges)
    estimates = []
    for depth in range(3, max_depth + 1):
        n_cells = 2**depth
        total = sum(
            _reference_rs_level(f, alpha, a, b, n_cells, b in jumps)
            for a, b in zip(edges[:-1], edges[1:])
        )
        estimates.append(total)
        if (
            len(estimates) >= 3
            and abs(estimates[-1] - estimates[-2]) < tol
            and abs(estimates[-2] - estimates[-3]) < tol
        ):
            return estimates[-1]
    raise ConvergenceError("reference did not settle", estimates=tuple(estimates[-2:]))


def _outcome(integrate, *args, **kwargs):
    """The value, or the estimates of the ConvergenceError, of one call."""
    try:
        return ("value", integrate(*args, **kwargs))
    except ConvergenceError as exc:
        return ("estimates", exc.estimates)


def _assert_matches_reference(f, alpha, support, **kwargs):
    got = _outcome(ls_integrate, f, alpha, support, **kwargs)
    assert got == _outcome(_reference_ls_integrate, f, alpha, support, **kwargs)
    return got


# (law, its support, an atom of it or None)
_LAWS = (
    (uniform_cdf(-0.4, 0.4), (-0.4, 0.4), None),
    (triangular_cdf(-0.4, 0.1, 0.4), (-0.4, 0.4), None),
    (two_atom_cdf(-0.3, 0.6, 0.2), (-0.3, 0.2), 0.2),
    (point_mass_cdf(0.1), (0.1, 0.1), 0.1),
)


@pytest.mark.parametrize("law, span, atom", _LAWS)
def test_ls_integrate_equals_the_per_segment_loop_on_probes(law, span, atom):
    lo, hi = span
    xs = [0.5 * (lo + hi), lo - 0.01, hi - 1.0 / 64]
    if atom is not None:
        xs.append(atom - 0.5 / 16)
    # cutoff kinks at +-1, +-2 lie outside the first support, inside the second
    for support in ((lo - 0.5, hi + 0.5), (-2.5, 2.5)):
        for x in xs:
            for j in (2, 16):
                probe = _probe_product(make_ramp(RampSpec(x, j)), make_cutoff(1))
                _assert_matches_reference(probe, law, support)


def test_ls_integrate_equals_the_per_segment_loop_on_scalar_callbacks():
    # math.exp and the clamp reject arrays, so _evaluate loops over points
    _assert_matches_reference(math.exp, uniform_cdf(), (0.0, 1.0), tol=1e-6)
    clamp = CdfLike(lambda x: min(max(x, 0.0), 1.0), 0.0, 1.0)
    _assert_matches_reference(lambda t: np.asarray(t, dtype=float) ** 2, clamp,
                              (-0.5, 1.5), tol=1e-6)
    step = CdfLike(lambda x: 0.0 if x < 0.3 else 1.0, 0.0, 1.0, breakpoints=(0.3,))
    assert _assert_matches_reference(math.exp, step, (0.0, 1.0)) == (
        "value", math.exp(0.3))


def test_ls_integrate_equals_the_per_segment_loop_with_and_without_kinks():
    f = piecewise_affine([0.0, 0.4, 1.0], [0.0, 1.0, 0.0])
    for alpha in (uniform_cdf(), triangular_cdf(), two_atom_cdf(0.3, 0.6, 0.7)):
        _assert_matches_reference(f, alpha, (0.0, 1.0), tol=1e-10)
        _assert_matches_reference(lambda t: f(t), alpha, (0.0, 1.0), tol=1e-6)


def _many_kinks(n_knots):
    knots = np.linspace(-0.45, 0.45, n_knots)
    bumps = piecewise_affine(knots, np.cos(7.0 * knots))

    def f(t):
        return np.exp(np.asarray(t, dtype=float)) + bumps(t)

    f.breakpoints = bumps.breakpoints
    return f


def test_ls_integrate_equals_the_per_segment_loop_across_several_passes():
    # 13 segments: from 2**11 cells on a level no longer fits one pass
    f = _many_kinks(12)
    smooth, atoms = uniform_cdf(-0.5, 0.5), two_atom_cdf(-0.2, 0.3, 0.25)
    mixture = CdfLike(lambda x: 0.5 * smooth(x) + 0.5 * atoms(x), 0.0, 1.0,
                      breakpoints=atoms.breakpoints)
    for alpha in (triangular_cdf(-0.5, 0.0, 0.5), mixture):
        kind, _ = _assert_matches_reference(f, alpha, (-0.5, 0.5), tol=1e-15,
                                            max_depth=14)
        assert kind == "estimates"


def test_ls_integrate_nonconvergence_estimates_equal_the_per_segment_loop():
    f = lambda t: np.asarray(t, dtype=float) ** 2
    kind, _ = _assert_matches_reference(f, uniform_cdf(), (0.0, 1.0), tol=1e-15,
                                        max_depth=6)
    assert kind == "estimates"


def test_ls_integrate_calls_alpha_and_f_once_per_level_in_bounded_passes():
    log = []

    def recording(name, fn):
        def call(x):
            log.append((name, np.size(x)))
            return fn(x)
        return call

    inner = _many_kinks(12)
    f = recording("f", inner)
    f.breakpoints = inner.breakpoints
    uniform = uniform_cdf(-0.5, 0.5)
    alpha = CdfLike(recording("alpha", uniform.eval), 0.0, 1.0)
    max_depth = 15
    with pytest.raises(ConvergenceError):
        ls_integrate(f, alpha, (-0.5, 0.5), tol=1e-15, max_depth=max_depth)

    segments = len(inner.breakpoints) + 1
    expected = []
    for depth in range(3, max_depth + 1):
        n_cells = 2**depth
        per_pass = max(1, _CELLS_PER_PASS // n_cells)
        if n_cells * segments <= _CELLS_PER_PASS:
            assert per_pass >= segments  # the whole level is one pass
        for k in range(0, segments, per_pass):
            taken = min(per_pass, segments - k)
            for name, size in (("alpha", taken * (n_cells + 1)), ("f", taken * n_cells)):
                assert size <= max(_CELLS_PER_PASS, n_cells) + segments
                expected.append((name, size))
    assert log == expected


def test_ramp_examples():
    r1 = make_ramp(RampSpec(0.0, 1))
    assert r1(0.5) == 0.5
    r4 = make_ramp(RampSpec(0.0, 4))
    assert r4(-3.0) == 1.0
    assert r4(0.25) == 0.0
    grid = np.linspace(-2, 2, 401)
    assert np.all((r4(grid) >= 0.0) & (r4(grid) <= 1.0))
    assert r4.breakpoints == (0.0, 0.25)
    with pytest.raises(ValueError):
        RampSpec(0.0, 0)


def test_cutoff_examples():
    psi = make_cutoff(1)
    assert psi(0.0) == 1.0
    assert psi(1.5) == 0.5
    assert psi(-1.5) == 0.5
    assert psi(3.0) == 0.0
    grid = np.linspace(-5, 5, 801)
    for j in (1, 2, 3):
        assert np.all(make_cutoff(j)(grid) <= make_cutoff(j + 1)(grid))
    with pytest.raises(ValueError):
        make_cutoff(0)


def test_recover_uniform_midpoint():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    assert abs(recover_cdf(oracle, 0.5) - 0.5) < 1e-3


def test_recover_left_of_support_is_zero():
    oracle = oracle_from_cdf(uniform_cdf(), (-2.0, 1.5))
    assert abs(recover_cdf(oracle, -1.0)) < 1e-6


def test_recover_right_of_support_is_total_mass():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 3.5))
    assert abs(recover_cdf(oracle, 3.0) - total_mass(oracle)) < 1e-6


def test_recover_point_mass_right_continuous_at_atom():
    oracle = oracle_from_cdf(point_mass_cdf(0.0), (-1.5, 1.5))
    assert abs(recover_cdf(oracle, 0.0) - 1.0) < 1e-6
    assert abs(recover_cdf(oracle, -1.0)) < 1e-6


def test_recover_error_near_an_atom_stays_within_two_windows():
    # At slope parameter j_max a point 1..2 windows (1/j_max) left of an
    # atom can still pick up part of its mass; from 2.5 windows on it is exact.
    x1, p1, x2 = -0.43775, 0.67367, -0.16984
    F = two_atom_cdf(x1, p1, x2)
    oracle = oracle_from_cdf(F, (x1 - 0.5, x2 + 0.5))
    for windows in (0.5, 1.05, 1.55, 1.6, 1.65, 1.95):
        x = x2 - windows / 64
        assert abs(recover_cdf(oracle, x, j_max=64) - p1) <= 1.0 - p1
    for windows in (2.5, 3.0):
        assert recover_cdf(oracle, x2 - windows / 64, j_max=64) == p1


def test_recover_reports_schedule():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    value, info = recover_cdf(oracle, 0.5, full_output=True)
    assert abs(value - 0.5) < 1e-3
    assert info["j_reached"] <= 64 and info["m_reached"] <= 64
    assert info["method"] in ("plateau", "extrapolated", "raw")
    assert len(info["ramp_ladder"]) >= 1


def test_recover_empirical_oracle():
    oracle = oracle_from_samples([0.1, 0.4, 0.6, 0.9])
    assert abs(recover_cdf(oracle, 0.5) - 0.5) < 1e-3
    assert abs(recover_cdf(oracle, 2.0) - 1.0) < 1e-6


def test_total_mass_examples():
    assert abs(total_mass(oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))) - 1.0) < 1e-6
    half = ExpectationOracle(
        apply=lambda f: 0.5 * ls_integrate(f, uniform_cdf(), (-0.5, 1.5), 1e-8)
    )
    assert abs(total_mass(half) - 0.5) < 1e-6
    zero = ExpectationOracle(apply=lambda f: 0.0)
    assert total_mass(zero) == 0.0


# A support ends the cutoff ladders early but skips none of their checks:
# (0, 0) is covered at the first rung, (-1.5, 1.5) at the second, where
# the oracles below break the decrease check.
def test_oracle_breaking_sup_bound_is_rejected():
    for support in (None, (0.0, 0.0), (-1.5, 1.5)):
        loud = ExpectationOracle(apply=lambda f: 2.0, positive=True, support=support)
        with pytest.raises(ContractViolationError):
            total_mass(loud)
        with pytest.raises(ContractViolationError):
            recover_cdf(loud, 0.0)


def test_decreasing_mass_ladder_is_rejected():
    for support in (None, (-1.5, 1.5)):
        feed = iter([1.0, 0.9, 0.8])
        shrinking = ExpectationOracle(apply=lambda f: next(feed), support=support)
        with pytest.raises(ContractViolationError) as err:
            total_mass(shrinking)
        assert err.value.index == 2


def test_decreasing_cutoff_ladder_inside_recover_is_rejected():
    for support in (None, (-1.5, 1.5)):
        feed = iter([0.8, 0.5, 0.4])
        shrinking = ExpectationOracle(apply=lambda f: next(feed), support=support)
        with pytest.raises(ContractViolationError) as err:
            recover_cdf(shrinking, 0.0)
        assert err.value.index == 2


def test_increasing_ramp_ladder_is_rejected():
    # constant in m (inner ladder settles in two calls), increasing in j
    state = {"calls": 0}

    def apply(f):
        state["calls"] += 1
        return 0.2 + 0.1 * ((state["calls"] - 1) // 2)

    with pytest.raises(ContractViolationError) as err:
        recover_cdf(ExpectationOracle(apply=apply), 0.0)
    assert err.value.index == 2


def _ramp_table_oracle(table):
    """Oracle whose value depends only on the slope j of the probe's ramp
    at x = 0, read from the probe itself; constant over the cutoffs."""

    def apply(f):
        return table[round((1.0 - float(f(1.0 / 256))) * 256)]

    return ExpectationOracle(apply=apply)


# the doubling ladder falls linearly, which is no c/j decay, so the
# finer tail j = 48, 56 then the raw value at 64 are each checked in turn
@pytest.mark.parametrize("tail, index", [
    ({48: 0.45, 56: 0.35}, 48),
    ({48: 0.35, 56: 0.38}, 56),
    ({48: 0.35, 56: 0.25}, 64),
])
def test_increasing_ramp_tail_is_rejected(tail, index):
    doubling = {1: 0.9, 2: 0.8, 4: 0.7, 8: 0.6, 16: 0.5, 32: 0.4, 64: 0.3}
    with pytest.raises(ContractViolationError, match="ramp ladder increased") as err:
        recover_cdf(_ramp_table_oracle({**doubling, **tail}), 0.0)
    assert err.value.index == index


def test_total_mass_probes_are_the_bare_cutoffs():
    law, span = uniform_cdf(-3.0, 3.0), (-3.5, 3.5)
    kinks = {m: (-(m + 1.0), -float(m), float(m), m + 1.0) for m in (1, 2, 4, 8)}
    for support, rungs in ((span, (1, 2, 4)), (None, (1, 2, 4, 8))):
        oracle = dataclasses.replace(oracle_from_cdf(law, span), support=support)
        probes = []

        def apply(f):
            probes.append((f.__qualname__, f.breakpoints))
            return oracle.apply(f)

        assert total_mass(dataclasses.replace(oracle, apply=apply)) == 1.0
        assert probes == [("make_cutoff.<locals>.cutoff", kinks[m]) for m in rungs]


def test_recover_validation():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    with pytest.raises(ValueError):
        recover_cdf(oracle, 0.5, j_max=0)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            recover_cdf(oracle, 0.5, tol=tol)
    with pytest.raises(ValueError):
        total_mass(oracle, j_max=0)
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            recover_cdf(oracle, x)


def test_an_infinite_tolerance_is_rejected():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        recover_cdf(oracle, 0.5, tol=math.inf)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        ls_integrate(lambda t: 1.0, uniform_cdf(), (0.0, 1.0), math.inf)


@pytest.mark.parametrize("limit", [math.inf, math.nan])
def test_an_infinite_or_nan_ladder_limit_is_rejected(limit):
    # an infinite limit would double the ladder forever; a NaN one passes
    # every `< 1` test and then fails the ladder with a ConvergenceError
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    with pytest.raises(ValueError, match="must be >= 1"):
        recover_cdf(oracle, 0.5, j_max=limit)
    with pytest.raises(ValueError, match="must be >= 1"):
        recover_cdf(oracle, 0.5, m_max=limit)
    with pytest.raises(ValueError, match="must be >= 1"):
        total_mass(oracle, j_max=limit)


def test_recovered_grid_is_monotone():
    oracle = oracle_from_cdf(triangular_cdf(), (-0.5, 1.5))
    xs = np.linspace(-0.1, 1.1, 13)
    vals = [recover_cdf(oracle, float(x)) for x in xs]
    assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))


def test_recovered_cdf_detects_atoms():
    oracle = oracle_from_cdf(two_atom_cdf(0.3, 0.6, 0.7), (-0.5, 1.5))
    rec = RecoveredCdf(oracle)
    found = rec.detect_breakpoints([0.1, 0.3, 0.5, 0.7, 0.9])
    assert found == (0.3, 0.7)


def test_recovered_cdf_memoizes_and_packages():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    rec = RecoveredCdf(oracle)
    first = rec(0.5)
    assert rec(0.5) == first
    arr = rec(np.array([0.25, 0.5]))
    assert arr.shape == (2,)
    packaged = rec.as_cdf()
    assert isinstance(packaged, CdfLike)
    assert packaged.c_minus == 0.0
    assert abs(packaged.c_plus - 1.0) < 1e-6


def test_functional_reproduction_through_recovered_cdf():
    rng = np.random.default_rng(3)
    for alpha in (uniform_cdf(), triangular_cdf()):
        oracle = oracle_from_cdf(alpha, (-0.5, 1.5))
        xs = np.linspace(-0.5, 1.5, 41)
        fv = np.array([recover_cdf(oracle, float(x)) for x in xs])
        rec = CdfLike(
            lambda x, xs=xs, fv=fv: np.interp(
                np.asarray(x, dtype=float), xs, fv, left=0.0, right=1.0
            ),
            0.0,
            1.0,
        )
        for _ in range(2):
            knots = np.sort(np.concatenate([[-0.5, 1.5],
                                            rng.uniform(-0.4, 1.4, 5)]))
            heights = np.concatenate([[0.0], rng.uniform(-1, 1, 5), [0.0]])
            f = piecewise_affine(knots, heights)
            direct = oracle.apply(f)
            through = ls_integrate(f, rec, (-0.5, 1.5), 1e-8)
            assert abs(direct - through) < 1e-2


@settings(max_examples=60, deadline=None)
@given(
    x=st.floats(min_value=-2.0, max_value=3.0),
    y=st.floats(min_value=-2.0, max_value=3.0),
)
def test_factory_cdfs_are_monotone_and_bounded(x, y):
    lo, hi = min(x, y), max(x, y)
    for F in (uniform_cdf(), triangular_cdf(), two_atom_cdf(0.3, 0.6, 0.7),
              point_mass_cdf(0.25)):
        assert F.eval(lo) <= F.eval(hi)
        assert F.c_minus <= F.eval(lo) and F.eval(hi) <= F.c_plus


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_positive_oracle_respects_sup_bound(data):
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    n = data.draw(st.integers(min_value=2, max_value=5))
    ks = sorted(
        data.draw(
            st.lists(
                st.floats(min_value=-0.4, max_value=1.4),
                min_size=n, max_size=n, unique=True,
            )
        )
    )
    hs = data.draw(
        st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=n, max_size=n)
    )
    f = piecewise_affine([-0.5] + ks + [1.5], [0.0] + hs + [0.0])
    assert abs(oracle.apply(f)) <= max(np.max(np.abs(hs)), 0.0) + 1e-8


def test_factory_validation():
    with pytest.raises(ValueError):
        uniform_cdf(1.0, 0.0)
    with pytest.raises(ValueError):
        triangular_cdf(0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        two_atom_cdf(0.7, 0.5, 0.3)
    with pytest.raises(ValueError):
        two_atom_cdf(0.3, 1.5, 0.7)
    with pytest.raises(ValueError):
        CdfLike(lambda x: x, 1.0, 0.0)
    with pytest.raises(ValueError):
        oracle_from_samples([])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            oracle_from_samples([0.1, bad, 0.9])


def test_cdf_breakpoints_are_sorted():
    F = CdfLike(lambda x: np.asarray(x, dtype=float), 0.0, 1.0,
                breakpoints=(0.7, 0.3))
    assert F.breakpoints == (0.3, 0.7)


# --- support-aware cutoff ladders -------------------------------------------


def _result(fn, *args, **kwargs):
    """The value of one call, or the type and message of what it raised."""
    try:
        return ("value", fn(*args, **kwargs))
    except (RieszkitError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def _recovery(oracle, x, j_max, m_max):
    # everything recover_cdf reports but m_reached, the one field a
    # support may lower
    value, info = recover_cdf(oracle, x, j_max=j_max, m_max=m_max, full_output=True)
    return value, info["ramp_ladder"], info["j_reached"], info["method"]


def _assert_support_changes_no_bit(oracle, xs, j_max=16, m_maxes=(1, 3, 5, 64)):
    blind = dataclasses.replace(oracle, support=None)
    for m_max in m_maxes:
        for x in xs:
            got = _result(_recovery, oracle, x, j_max, m_max)
            assert got == _result(_recovery, blind, x, j_max, m_max), (x, m_max)
        assert _result(total_mass, oracle, m_max) == _result(total_mass, blind, m_max)


def _factory_laws(lo, hi):
    mid = 0.5 * (lo + hi)
    return (uniform_cdf(lo, hi), triangular_cdf(lo, mid + 0.1, hi),
            two_atom_cdf(lo, 0.6, hi), point_mass_cdf(mid))


# law spans whose oracle ranges, as given or 0.5 wider on each side, lie
# inside [-1, 1], straddle +-1, straddle +-2, and are (-2.5, 3.0)
_SPANS = ((-0.4, 0.4), (-0.8, 0.7), (-0.6, 1.7), (-1.6, 1.3), (-2.0, 2.5))


@pytest.mark.parametrize("lo, hi", _SPANS)
def test_support_changes_no_bit_of_a_cdf_oracle(lo, hi):
    # inside, near the lower edge, next to the upper atom, right of the
    # law, and left and right of the oracle's range
    xs = (0.5 * (lo + hi) + 0.05, lo + 0.01, hi - 1.0 / 32, hi + 0.3,
          lo - 0.7, hi + 0.9)
    for law in _factory_laws(lo, hi):
        # the law's mass reaches the ends of the narrow range, so a ladder
        # that stopped before its cutoff covered the range would change bits
        for span in ((lo - 0.5, hi + 0.5), (lo, hi)):
            oracle = oracle_from_cdf(law, span, tol=1e-7)
            assert oracle.support == span
            _assert_support_changes_no_bit(oracle, xs)


def test_support_changes_no_raised_error():
    law, span = triangular_cdf(-1.6, -0.2, 1.3), (-2.1, 1.8)
    base = oracle_from_cdf(law, span, tol=1e-7)
    loud = ExpectationOracle(apply=lambda f: 1.5 * base.apply(f), support=span)
    stiff = ExpectationOracle(
        apply=lambda f: ls_integrate(f, law, span, 1e-15, max_depth=5), support=span
    )
    for oracle, error in ((loud, ContractViolationError), (stiff, ConvergenceError)):
        assert _result(recover_cdf, oracle, 1.5)[:2] == ("raised", error)
        _assert_support_changes_no_bit(oracle, (-2.5, 0.0, 1.5), m_maxes=(1, 5, 64))


def _sample_sets():
    rng = np.random.default_rng(11)
    return (
        [1.0],
        [-2.0, 2.0],
        [-1.0, 0.25, 1.0],
        rng.uniform(-0.9, 0.9, 17),
        np.concatenate([[-1.0, 1.0, -2.0, 2.0], rng.normal(0.0, 0.8, 996)]),
        np.concatenate([[-2.0, 2.0], rng.uniform(-2.4, 2.9, 9998)]),
    )


def test_support_changes_no_bit_of_a_sample_oracle():
    for samples in _sample_sets():
        oracle = oracle_from_samples(samples)
        lo, hi = oracle.support
        assert (lo, hi) == (min(samples), max(samples))
        xs = (0.0, 0.3, -1.0, 1.0, 2.0, lo - 0.1, hi + 0.1, samples[0] - 1.0 / 32)
        _assert_support_changes_no_bit(oracle, xs)


def _recording(oracle):
    """The oracle, logging for each call the kinks of the probe's ramp (the
    probe's kinks that are not the integers where the cutoffs bend)."""
    calls = []

    def apply(f):
        calls.append(tuple(b for b in f.breakpoints if b != round(b)))
        return oracle.apply(f)

    return dataclasses.replace(oracle, apply=apply), calls


@pytest.mark.parametrize("span, support, per_ramp", [
    ((-0.9, 0.9), (-0.9, 0.9), 1),
    ((-1.0, 1.0), (-1.0, 1.0), 1),
    ((-0.5, 1.5), (-0.5, 1.5), 2),
    ((-0.9, 0.9), None, 2),
    ((-0.5, 1.5), None, 2),
])
def test_cutoff_ladder_ends_at_the_first_covering_cutoff(span, support, per_ramp):
    oracle = dataclasses.replace(oracle_from_cdf(uniform_cdf(-0.4, 0.4), span),
                                 support=support)
    recording, calls = _recording(oracle)
    value, info = recover_cdf(recording, 0.1, full_output=True)
    per_ramp_calls = Counter(calls)
    assert len(per_ramp_calls) >= len(info["ramp_ladder"])
    assert set(per_ramp_calls.values()) == {per_ramp}
    assert info["m_reached"] == per_ramp
    calls.clear()
    assert total_mass(recording) == 1.0
    assert len(calls) == per_ramp


@pytest.mark.parametrize("support", [
    (math.nan, 1.0), (0.0, math.nan), (-math.inf, 0.0), (0.0, math.inf), (1.0, 0.5),
])
def test_invalid_oracle_support_is_rejected(support):
    with pytest.raises(ValueError, match="oracle support"):
        ExpectationOracle(apply=lambda f: 0.0, support=support)
    with pytest.raises(ValueError, match="oracle support"):
        oracle_from_cdf(uniform_cdf(), support)
