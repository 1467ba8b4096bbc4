import dataclasses
import itertools
import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import rieszkit.stieltjes as stieltjes
from rieszkit.errors import ContractViolationError, ConvergenceError, NumericError, RieszkitError
from rieszkit.numerics import _cut, _evaluate
from rieszkit.stieltjes import (
    CdfLike,
    ExpectationOracle,
    RampSpec,
    RecoveredCdf,
    ls_integrate,
    ls_measure_interval,
    _pieces,
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


def as_plain(probe):
    """The probe's values and breakpoints in a plain function, which
    ls_integrate refines by Riemann-Stieltjes sums."""

    def f(t):
        return probe(t)

    f.breakpoints = probe.breakpoints
    return f


@pytest.mark.parametrize("mode, exact", [
    (0.0, lambda x: 1.0 - (1.0 - x) ** 2),
    (1.0, lambda x: x ** 2),
])
def test_a_triangular_law_with_its_mode_at_an_end(mode, exact):
    F = triangular_cdf(0.0, mode, 1.0)
    assert F.kinks == (0.0, 1.0)
    xs = np.linspace(-0.5, 1.5, 201)
    assert np.max(np.abs(F(xs) - exact(np.clip(xs, 0.0, 1.0)))) <= 1e-15
    assert F(0.5) == exact(0.5)


def test_measure_interval_examples():
    F = uniform_cdf()
    assert ls_measure_interval(F, 0.0, 1.0) == 1.0
    assert ls_measure_interval(F, 0.25, 0.5) == 0.25
    assert ls_measure_interval(F, 0.3, 0.3) == 0.0
    assert ls_measure_interval(two_atom_cdf(0.3, 0.6, 0.7), 0.2, 0.3) == 0.6
    for a, b in ((0.5, 0.25), (math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan)):
        with pytest.raises(ValueError, match="need a <= b"):
            ls_measure_interval(F, a, b)


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


def test_ls_integrate_reports_a_non_finite_integrand_at_its_abscissa():
    # the first level has 8 cells on (0, 1]: the first tag past 0.6 is 0.6875
    for bad in (math.nan, math.inf, -math.inf):
        def f(t, bad=bad):
            return np.where(np.asarray(t, dtype=float) > 0.6, bad, 1.0)

        with pytest.raises(NumericError, match="not finite") as caught:
            ls_integrate(f, uniform_cdf(), (0.0, 1.0))
        assert caught.value.point == 0.6875
    # a declared jump is tagged at itself
    with pytest.raises(NumericError) as caught:
        ls_integrate(lambda t: np.where(np.asarray(t) >= 0.7, math.inf, 1.0),
                     two_atom_cdf(0.3, 0.6, 0.7), (0.0, 1.0))
    assert caught.value.point == 0.7


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


# A per-segment refinement loop written apart from the library: the
# reference that ls_integrate must equal bit for bit.
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
                _assert_matches_reference(as_plain(probe), law, support)


def test_ls_integrate_equals_the_per_segment_loop_on_scalar_callbacks():
    # math.exp and the clamp reject arrays, so _evaluate loops over points
    _assert_matches_reference(math.exp, uniform_cdf(), (0.0, 1.0), tol=1e-6)
    clamp = CdfLike(lambda x: min(max(x, 0.0), 1.0), 0.0, 1.0)
    _assert_matches_reference(lambda t: np.asarray(t, dtype=float) ** 2, clamp,
                              (-0.5, 1.5), tol=1e-6)
    step = CdfLike(lambda x: 0.0 if x < 0.3 else 1.0, 0.0, 1.0, breakpoints=(0.3,))
    assert _assert_matches_reference(math.exp, step, (0.0, 1.0)) == (
        "value", math.exp(0.3))


# ls_integrate on callables that are not probes, recorded before probes
# were integrated by parts, under one BLAS thread: that path keeps every
# bit. Deep refinement levels reduce 2**14 cells and more with np.dot,
# whose last bit depends on the thread count, so the pins run in a fresh
# interpreter with OPENBLAS_NUM_THREADS=1, as CI and the benchmark do.
_PLAIN_PINS = {
    "cos": "0x1.b809ff3be7950p-1",
    "tent-two-atom": "0x1.4cccccccccccdp-1",
    "tent-uniform": "0x1.fffffffffffffp-2",
    "probe-two-atom": "0x1.5c28f5c28f5c3p-1",
    "probe-uniform": "0x1.4000000000000p-1",
}
_PLAIN_PINS_SCRIPT = """
import numpy as np
from rieszkit.stieltjes import (RampSpec, _probe_product, ls_integrate, make_cutoff,
                                make_ramp, triangular_cdf, two_atom_cdf, uniform_cdf)

def tent(t):
    return np.interp(np.asarray(t, dtype=float), [0.0, 0.4, 1.0], [0.0, 1.0, 0.0],
                     left=0.0, right=0.0)
tent.breakpoints = (0.0, 0.4, 1.0)
probe = _probe_product(make_ramp(RampSpec(0.5, 4)), make_cutoff(1))
def plain(t):
    return probe(t)
plain.breakpoints = probe.breakpoints
two_atom = two_atom_cdf(0.3, 0.6, 0.7)
for name, f, law, support in (
    ("cos", np.cos, triangular_cdf(), (-0.5, 1.5)),
    ("tent-two-atom", tent, two_atom, (0.0, 1.0)),
    ("tent-uniform", tent, uniform_cdf(), (-0.5, 1.5)),
    ("probe-two-atom", plain, two_atom, (0.0, 1.0)),
    ("probe-uniform", plain, uniform_cdf(), (-0.5, 1.5)),
):
    print(name, ls_integrate(f, law, support).hex())
"""


def test_ls_integrate_keeps_the_bits_of_plain_callables():
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _PLAIN_PINS_SCRIPT], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert dict(line.split() for line in proc.stdout.splitlines()) == _PLAIN_PINS


def test_probes_keep_the_bits_of_the_interp_closures():
    # the ramp, cutoff and product as closures over np.interp, as they
    # were written before they became one class
    def ramp(x, j):
        return lambda t: np.interp(np.asarray(t, dtype=float), [x, x + 1.0 / j],
                                   [1.0, 0.0], left=1.0, right=0.0)

    def cutoff(m):
        return lambda t: np.interp(np.asarray(t, dtype=float),
                                   [-(m + 1.0), -float(m), float(m), m + 1.0],
                                   [0.0, 1.0, 1.0, 0.0], left=0.0, right=0.0)

    t = np.concatenate([np.linspace(-5.0, 5.0, 4001), [-3.0, -2.0, 0.1, 0.1 + 1.0 / 3]])
    for x, j, m in ((0.1, 3, 2), (-2.5, 1, 1), (1.7, 64, 4)):
        r, c = make_ramp(RampSpec(x, j)), make_cutoff(m)
        assert r(t).tobytes() == ramp(x, j)(t).tobytes()
        assert c(t).tobytes() == cutoff(m)(t).tobytes()
        assert _probe_product(r, c)(t).tobytes() == (ramp(x, j)(t) * cutoff(m)(t)).tobytes()
        assert _probe_product(r, c)(x) == ramp(x, j)(x) * cutoff(m)(x)
        assert _probe_product(r, c).breakpoints == tuple(sorted(
            {x, x + 1.0 / j, -(m + 1.0), -float(m), float(m), m + 1.0}))


def test_a_probe_is_np_interp_bit_for_bit_at_and_beside_every_knot():
    # a probe is evaluated through its piece forms; np.interp of each
    # factor, multiplied in order, is the reference, signed zeros included
    rng = np.random.default_rng(14)
    for probe in _random_probes(15, 300):
        knots = np.array(probe.breakpoints)
        t = np.concatenate([knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
                            rng.uniform(knots[0] - 1.0, knots[-1] + 1.0, 50)])
        expected = math.prod(np.interp(t, rows[0], values, left=left, right=right)
                             for rows, values, left, right in probe._factors)
        assert probe(t).tobytes() == expected.tobytes(), probe.breakpoints
        assert probe(t[:, None]).tobytes() == expected.tobytes()
        assert np.ndim(probe(t[0])) == 0 and probe(t[0]) == expected[0]


def _random_probes(seed, n):
    """Ramps, cutoffs and their products: n random draws of (x, j, m), each
    giving all three, after draws whose knots meet."""
    rng = np.random.default_rng(seed)
    draws = [(1.0, 1, 1), (-3.0, 1, 2), (2.0 - 1.0 / 64, 64, 2), (0.0, 3, 3)]
    draws += [(float(rng.uniform(-3.0, 3.0)), int(rng.choice([1, 2, 3, 16, 64])),
               int(rng.choice([1, 2, 3]))) for _ in range(n)]
    for x, j, m in draws:
        ramp, cutoff = make_ramp(RampSpec(x, j)), make_cutoff(m)
        yield from (ramp, cutoff, _probe_product(ramp, cutoff))


def _piece_span(knots, p):
    """(a, b) of piece p, with a half-line cut to one unit beside its knot."""
    return (knots[p - 1] if p else knots[0] - 1.0), (knots[p] if p < len(knots) else knots[-1] + 1.0)


def test_each_piece_of_a_probe_is_its_polynomial():
    fractions = np.array([1e-3, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0 - 1e-3])
    for probe in _random_probes(11, 200):
        knots, _, values, _, (c1, c2) = _pieces(probe, 0.25)
        knots, values, c1, c2 = knots[0], values[0], c1[0], c2[0]
        assert tuple(dict.fromkeys(knots)) == probe.breakpoints
        assert values[-1] == probe(0.25) and c1[-1] == c2[-1] == 0.0
        for p in range(len(knots) + 1):
            a, b = _piece_span(knots, p)
            if a == b:
                continue  # a knot listed twice
            t = a + fractions * (b - a)
            if p == 0:  # below every knot, where each factor is its left value
                coeffs, u = (math.prod(f[2] for f in probe._factors), 0.0, 0.0), 0.0
            else:
                coeffs, u = (values[p - 1], c1[p - 1], c2[p - 1]), t - a
            np.testing.assert_allclose(coeffs[0] + coeffs[1] * u + coeffs[2] * u * u, probe(t),
                                       rtol=0.0, atol=1e-15)
            flat = probe(a) == probe(0.5 * (a + b)) == probe(b)
            assert (coeffs[1:] == (0.0, 0.0)) == flat, (probe.breakpoints, p)


def test_the_pieces_inside_an_interval_are_those_split_cuts_at():
    rng = np.random.default_rng(12)
    for probe in _random_probes(13, 100):
        bps = probe.breakpoints
        ends = sorted([*rng.uniform(-5.0, 5.0, 6), *bps, bps[0] - 1.0, bps[-1] + 1.0])
        pairs = list(itertools.combinations(ends, 2))
        a, b = (np.array(side) for side in zip(*pairs))
        piece, starts, stops = _cut(a, b, bps)
        for i, (lo, hi) in enumerate(pairs):
            cuts = [lo, *sorted({x for x in bps if lo < x < hi}), hi]
            assert starts[piece == i].tolist() == cuts[:-1], (bps, lo, hi)
            assert stops[piece == i].tolist() == cuts[1:], (bps, lo, hi)
        piece, starts, stops = _cut(a, b, [])
        assert (piece == np.arange(len(a))).all() and (starts == a).all() and (stops == b).all()


def _closed_form(probe, law):
    """L(probe) exactly: a weighted sum over atoms, or the integral of probe
    times density, a polynomial of degree <= 3 between kinks, which three
    Gauss-Legendre nodes per piece integrate exactly."""
    kind, p = law
    if kind == "two-atom":
        x1, p1, x2 = p
        return p1 * float(probe(x1)) + (1.0 - p1) * float(probe(x2))
    lo, hi = p[0], p[-1]
    if kind == "uniform":
        def density(t):
            return np.full_like(t, 1.0 / (hi - lo))
    else:
        mode = p[1]

        def density(t):
            return np.where(t <= mode, 2.0 * (t - lo) / ((hi - lo) * (mode - lo)),
                            2.0 * (hi - t) / ((hi - lo) * (hi - mode)))
    cuts = sorted({*p, *(k for k in probe.breakpoints if lo < k < hi)})
    u, w = np.polynomial.legendre.leggauss(3)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        t = 0.5 * (b - a) * u + 0.5 * (a + b)
        total += 0.5 * (b - a) * float(np.dot(w, probe(t) * density(t)))
    return total


# (law for _closed_form, its CDF, the integration support)
_CLOSED_FORM_LAWS = (
    (("uniform", (0.0, 1.0)), uniform_cdf(), (-0.5, 1.5)),
    (("triangular", (0.0, 0.5, 1.0)), triangular_cdf(), (-0.5, 1.5)),
    (("two-atom", (0.3, 0.6, 0.7)), two_atom_cdf(0.3, 0.6, 0.7), (0.0, 1.0)),
    # the cutoff of index 2 bends inside the ramp: one piece is quadratic
    (("uniform", (-2.5, 2.5)), uniform_cdf(-2.5, 2.5), (-3.0, 3.0)),
)


@pytest.mark.parametrize("law, cdf, support", _CLOSED_FORM_LAWS)
def test_by_parts_matches_closed_forms_and_riemann_stieltjes(law, cdf, support):
    tol = 1e-8
    # x = 0.003 and 0.9376 put a kink of the uniform law 0.3% of the
    # piece's width inside its right end, past the outermost Gauss node
    xs = (-0.3, 0.003, 0.1, 0.3, 0.4997, 0.5, 0.69, 0.9376, 1.8)
    worst_parts = worst_rs = 0.0
    for x, j, m in itertools.product(xs, (1, 2, 16, 64), (1, 2)):
        probe = _probe_product(make_ramp(RampSpec(x, j)), make_cutoff(m))
        exact = _closed_form(probe, law)
        by_parts = ls_integrate(probe, cdf, support, tol)
        rs = ls_integrate(as_plain(probe), cdf, support, tol)
        assert abs(by_parts - exact) <= 1e-12, (x, j, m)
        assert abs(by_parts - rs) <= tol, (x, j, m)
        worst_parts = max(worst_parts, abs(by_parts - exact))
        worst_rs = max(worst_rs, abs(rs - exact))
    # the error against the closed form did not grow: on these probes the
    # Riemann-Stieltjes sums miss it by up to 1.8e-9, by parts by 6.3e-15
    assert worst_parts <= max(worst_rs, 1e-15)
    if law[0] == "uniform" and support == (-3.0, 3.0):
        probe = _probe_product(make_ramp(RampSpec(1.8, 1)), make_cutoff(2))
        assert (_pieces(probe, 3.0)[4][1] != 0.0).any()
        assert abs(ls_integrate(probe, cdf, support) - _closed_form(probe, law)) <= 1e-12


def test_by_parts_work_stays_bounded_at_a_tiny_tol():
    law = ("triangular", (0.0, 0.5, 1.0))
    points = []
    cdf = CdfLike(lambda x: points.append(np.size(x)) or triangular_cdf().eval(x), 0.0, 1.0)
    for x, j in ((0.4997, 4), (0.3, 1), (0.9644, 14)):
        probe = _probe_product(make_ramp(RampSpec(x, j)), make_cutoff(2))
        for tol in (1e-15, 1e-300):
            points.clear()
            value = ls_integrate(probe, cdf, (-0.5, 1.5), tol)
            assert abs(value - _closed_form(probe, law)) <= 1e-14
            # rounding, not tol, ends the bisection: a few hundred panels
            assert sum(points) < 10_000


# (law for _closed_form, its CDF, the support, probes (x, j, m) whose
# sloped pieces hold kinks of the law)
_KINKED_PROBES = (
    (("uniform", (0.0, 1.0)), uniform_cdf(), (-0.5, 1.5),
     ((0.9, 2, 2), (-0.2, 4, 1), (-0.3, 1, 2), (0.9644, 14, 2))),
    (("triangular", (0.0, 0.5, 1.0)), triangular_cdf(), (-0.5, 1.5),
     ((0.4997, 4, 2), (0.3, 1, 2), (0.9644, 14, 2), (-0.1, 1, 1))),
    # quadratic pieces: the cutoff of index 2 bends inside each ramp
    (("uniform", (-2.5, 2.5)), uniform_cdf(-2.5, 2.5), (-3.0, 3.0),
     ((1.8, 1, 2), (-2.7, 2, 2), (2.3, 4, 2))),
)


@pytest.mark.parametrize("law, cdf, support, probes", _KINKED_PROBES)
def test_by_parts_takes_one_panel_between_declared_kinks(law, cdf, support, probes):
    tol = 1e-8
    sizes = []

    def counting(x):
        sizes.append(np.size(x))
        return cdf.eval(x)

    counted = dataclasses.replace(cdf, eval=counting)
    unkinked = CdfLike(cdf.eval, cdf.c_minus, cdf.c_plus)
    splits = set(cdf.kinks)
    for x, j, m in probes:
        probe = _probe_product(make_ramp(RampSpec(x, j)), make_cutoff(m))
        sizes.clear()
        value = ls_integrate(probe, counted, support, tol)
        assert abs(value - _closed_form(probe, law)) <= 1e-12, (x, j, m)
        assert abs(value - ls_integrate(probe, unkinked, support, tol)) <= tol, (x, j, m)
        # one call on the piece ends (the support's and its six knots,
        # clipped to it), then one call with a 22-point panel per stretch
        # of a sloped piece between the law's kinks
        edges = sorted({*support, *(k for k in probe.breakpoints
                                    if support[0] < k < support[1])})
        stretches = held = 0
        for a, b in zip(edges[:-1], edges[1:]):
            sloped = not probe(a) == probe(0.5 * (a + b)) == probe(b)  # degree <= 2
            if sloped and cdf.eval(a) != cdf.eval(b):
                inside = sum(a < k < b for k in splits)
                stretches += 1 + inside
                held += inside
        assert held > 0, (x, j, m)
        assert sizes == [6 + 2, 22 * stretches], (x, j, m)


def test_cdf_kinks_are_sorted_once_each_and_finite():
    F = CdfLike(lambda x: np.asarray(x, dtype=float), 0.0, 1.0, kinks=(0.7, 0.3, 0.7),
                breakpoints=np.array([0.5, 0.2, 0.5]))
    assert F.kinks == (0.3, 0.7)
    assert F.breakpoints == (0.2, 0.5)
    assert CdfLike(F.eval, 0.0, 1.0).kinks == CdfLike(F.eval, 0.0, 1.0).breakpoints == ()
    assert RecoveredCdf(oracle_from_samples([0.25, 0.75])).as_cdf().breakpoints == ()
    assert uniform_cdf(-1.0, 2.0).kinks == (-1.0, 2.0)
    assert triangular_cdf().kinks == (0.0, 0.5, 1.0)
    assert triangular_cdf(0.0, 0.0, 1.0).kinks == (0.0, 1.0)
    assert two_atom_cdf(0.3, 0.6, 0.7).kinks == point_mass_cdf(0.2).kinks == ()
    for bad in (math.nan, math.inf, -math.inf):
        for name in ("kinks", "breakpoints"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                CdfLike(F.eval, 0.0, 1.0, **{name: (0.5, bad, 0.2)})


def test_by_parts_takes_jumps_of_alpha_at_face_value():
    # declared or not, at a probe knot or inside a sloped piece: L(f) = f(0.3)
    step = point_mass_cdf(0.3)
    undeclared = CdfLike(step.eval, 0.0, 1.0)
    for x, j in ((0.2, 4), (0.3, 2), (0.3 - 0.25 * (1 - 1e-7), 4), (0.05, 4), (-0.2, 2)):
        probe = _probe_product(make_ramp(RampSpec(x, j)), make_cutoff(1))
        for cdf in (step, undeclared):
            assert abs(ls_integrate(probe, cdf, (0.0, 1.0)) - float(probe(0.3))) <= 1e-15


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
    # 13 segments, refined to 2**14 cells each
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


def test_ls_integrate_calls_alpha_and_f_once_per_segment_and_level():
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

    # per level, each segment in turn: alpha on its n + 1 nodes, then f on its n tags
    segments = len(inner.breakpoints) + 1
    expected = []
    for depth in range(3, max_depth + 1):
        n_cells = 2**depth
        expected += [("alpha", n_cells + 1), ("f", n_cells)] * segments
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


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_a_ramp_at_a_point_that_is_not_finite_is_rejected(x):
    with pytest.raises(ValueError, match=f"^x must be finite, got {x}$"):
        RampSpec(x, 2)
    # recover_cdf names x before its other arguments
    with pytest.raises(ValueError, match="^x must be finite"):
        recover_cdf(oracle_from_cdf(uniform_cdf(), (-0.5, 1.5)), x, j_max=0)


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
        loud = ExpectationOracle(apply=lambda f: 2.0, support=support)
        with pytest.raises(ContractViolationError):
            total_mass(loud)
        with pytest.raises(ContractViolationError):
            recover_cdf(loud, 0.0)


def test_a_nan_from_the_oracle_breaks_the_sup_bound_at_the_first_probe():
    calls = []
    silent = ExpectationOracle(apply=lambda f: calls.append(f) or math.nan)
    for entry in (lambda L: recover_cdf(L, 0.3), total_mass, lambda L: RecoveredCdf(L).eval(0.3)):
        calls.clear()
        with pytest.raises(ContractViolationError, match="^oracle returned nan for a probe"):
            entry(silent)
        assert len(calls) == 1


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


_DOUBLING = {1: 0.9, 2: 0.8, 4: 0.7, 8: 0.6, 16: 0.5, 32: 0.4, 64: 0.3}
_EXIT_LAWS = {"uniform": uniform_cdf(), "triangular": triangular_cdf(),
              "two_atom": two_atom_cdf(0.3, 0.6, 0.7)}
_ALL_RUNGS = ((1, 2), (2, 2), (4, 2), (8, 2), (16, 2), (32, 2), (64, 2))


def _exit_oracle(source):
    if isinstance(source, dict):
        return _ramp_table_oracle({**_DOUBLING, **source})
    if source == "decreasing":
        feed = iter([0.8, 0.5, 0.4])
        return ExpectationOracle(apply=lambda f: next(feed))
    if source == "loud":
        return ExpectationOracle(apply=lambda f: 2.0)
    return oracle_from_cdf(_EXIT_LAWS[source], (-0.5, 1.5))


# Each way out of recover_cdf with the default limits: the value and
# info as float.hex, or the index and message of what was raised, and
# the probes in the order they were sent, as (j, last cutoff index) per
# ramp, whose cutoffs run 1, 2, ... In the tables the doubling ladder
# falls linearly, which is no c/j decay, so the finer tail j = 48, 56
# then the raw value at 64 are each checked in turn.
@pytest.mark.parametrize("source, x, expected, rungs", [
    ("two_atom", 0.5, ("0x1.3333333333333p-1", 16, (
        "0x1.d70a3d70a3d71p-1", "0x1.ae147ae147ae2p-1", "0x1.5c28f5c28f5c3p-1",
        "0x1.3333333333333p-1", "0x1.3333333333333p-1"), "plateau"), _ALL_RUNGS[:5]),
    ("triangular", 0.25, ("0x1.feaaaaaaaaaaap-4", 64, (
        "0x1.7aaaaaaaaaaaap-1", "0x1.0000000000000p-1", "0x1.2aaaaaaaaaaabp-2",
        "0x1.9555555555555p-3", "0x1.4555555555555p-3", "0x1.2155555555555p-3",
        "0x1.1055555555555p-3"), "extrapolated"), _ALL_RUNGS),
    ("uniform", 0.97, ("0x1.f0a3d70a3d710p-1", 64, (
        "0x1.ffc504816f007p-1", "0x1.ff8a0902de00dp-1", "0x1.ff141205bc01ap-1",
        "0x1.fe28240b78034p-1", "0x1.fc504816f0069p-1", "0x1.f8a0902de00d1p-1",
        "0x1.f4a3d70a3d70ap-1"), "extrapolated"), _ALL_RUNGS + ((48, 2), (56, 2))),
    ("uniform", 0.99, ("0x1.fe5c91d14e3bdp-1", 64, (
        "0x1.fff972474538fp-1", "0x1.fff2e48e8a71ep-1", "0x1.ffe5c91d14e3cp-1",
        "0x1.ffcb923a29c78p-1", "0x1.ff972474538efp-1", "0x1.ff2e48e8a71dep-1",
        "0x1.fe5c91d14e3bdp-1"), "raw"), _ALL_RUNGS + ((48, 2), (56, 2))),
    # the ramps at j = 1, 2, 4 all cover the mass above x, so two
    # differences fall below tol and the ladder stops at j = 4 with
    # 0.999998, 1.0e-3 above F(x) = 0.999
    ("uniform", 0.999, ("0x1.ffffbce4217d3p-1", 4, (
        "0x1.ffffef39085f5p-1", "0x1.ffffde7210be9p-1", "0x1.ffffbce4217d3p-1"), "raw"),
     _ALL_RUNGS[:3]),
    ({48: 0.45, 56: 0.35}, 0.0, (48, "ramp ladder increased at j=48 (x=0.0): 0.4 -> 0.45"),
     _ALL_RUNGS + ((48, 2),)),
    ({48: 0.35, 56: 0.38}, 0.0, (56, "ramp ladder increased at j=56 (x=0.0): 0.35 -> 0.38"),
     _ALL_RUNGS + ((48, 2), (56, 2))),
    ({48: 0.35, 56: 0.25}, 0.0, (64, "ramp ladder increased at j=64 (x=0.0): 0.25 -> 0.3"),
     _ALL_RUNGS + ((48, 2), (56, 2))),
    ("decreasing", 0.0, (2, "cutoff ladder decreased at m=2 (x=0.0, j=1): 0.8 -> 0.5"),
     ((1, 2),)),
    ("loud", 0.0, (None, "oracle returned 2.0 for a probe bounded by 1; "
                         "|L(f)| <= sup|f| is violated"), ((1, 1),)),
], ids=["plateau", "extrapolated", "tail_extrapolated", "raw", "two_small_differences",
        "tail_increase_48", "tail_increase_56", "tail_increase_64", "cutoff_decrease",
        "sup_bound"])
def test_every_recovery_exit_keeps_its_value_info_and_probes(source, x, expected, rungs):
    oracle = _exit_oracle(source)
    probes = []

    def apply(f):
        probes.append(f.breakpoints)
        return oracle.apply(f)

    recording = dataclasses.replace(oracle, apply=apply)
    if len(expected) == 2:
        with pytest.raises(ContractViolationError) as err:
            recover_cdf(recording, x, full_output=True)
        assert (err.value.index, str(err.value)) == expected
    else:
        value, info = recover_cdf(recording, x, full_output=True)
        assert (value.hex(), info["j_reached"], tuple(map(float.hex, info["ramp_ladder"])),
                info["method"]) == expected
        assert info["m_reached"] == 2
    assert probes == [
        tuple(sorted({x, x + 1.0 / j, -(m + 1.0), -float(m), float(m), m + 1.0}))
        for j, last in rungs for m in (1, 2, 4, 8, 16, 32, 64) if m <= last
    ]


def _recoveries(oracle, xs):
    out = []
    for x in xs:
        value, info = recover_cdf(oracle, float(x), full_output=True)
        out.append((value.hex(), info["method"], info["j_reached"], info["m_reached"],
                    tuple(map(float.hex, info["ramp_ladder"]))))
    return out


_LADDER_LAWS = (
    (uniform_cdf(-0.4, 0.4), (-0.4, 0.4)),
    (triangular_cdf(-0.4, 0.1, 0.4), (-0.4, 0.4)),
    (two_atom_cdf(-0.3, 0.6, 0.2), (-0.3, 0.2)),
    (point_mass_cdf(0.1), (0.1, 0.1)),
)


@pytest.mark.parametrize("source", [*range(len(_LADDER_LAWS)), "samples"])
def test_the_ladder_pass_keeps_every_bit_and_exit_of_the_probe_by_probe_walk(source):
    # the built-in applies answer a column of ramps in one pass; wrapped,
    # the same apply is asked probe by probe, and every value, method,
    # j_reached and m_reached must agree
    if source == "samples":
        cases = [(oracle_from_samples(s), 5) for s in _sample_sets()]
    else:
        law, (lo, hi) = _LADDER_LAWS[source]
        cases = [(oracle_from_cdf(law, (lo - 0.5, hi + 0.5)), 1)]
    for oracle, stride in cases:
        lo, hi = oracle.support
        xs = np.linspace(lo - 1.0, hi + 1.0, 2001)[::stride]
        wrapped = dataclasses.replace(oracle, apply=lambda f, oracle=oracle: oracle.apply(f))
        assert _recoveries(oracle, xs) == _recoveries(wrapped, xs)


def test_a_cdf_oracle_evaluates_its_law_once_per_column_and_bisection_level():
    law = triangular_cdf(-0.4, 0.1, 0.4)
    calls = []
    counted = dataclasses.replace(law, eval=lambda x: calls.append(np.size(x)) or law.eval(x))
    oracle = oracle_from_cdf(counted, (-0.9, 0.9))
    columns = []
    batch = oracle.apply._batch

    def counting(probes):
        # a column is ramp(x, j) * cutoff(m): knots x, x + 1/j and then -m - 1, -m, m, m + 1
        (ramps, *_), (cutoffs, *_) = probes._factors
        js = np.rint(1.0 / (ramps[:, 1] - ramps[:, 0])).astype(int)
        columns.append((tuple(js.tolist()), int(cutoffs[0, 2])))
        return batch(probes)

    oracle.apply._batch = counting
    for x in (-0.35, 0.05, 0.38, 0.9):
        calls.clear()
        columns.clear()
        value, info = recover_cdf(oracle, x, full_output=True)
        assert abs(value - float(law.eval(x))) <= 1e-3
        # the support lies inside [-1, 1]: one column of the doubling
        # ladder at m = 1, and one of the tail 3j/4, 7j/8 if the walk gets there
        assert columns[0] == ((1, 2, 4, 8, 16, 32, 64), 1)
        assert columns[1:] in ([], [((48, 56), 1)])
        # the piece ends of a column (its six knots and two ends per ramp)
        # in one call, then, if a piece needs an integral, its panels in one
        # call per bisection level; a law of degree <= 2 needs one level
        assert calls[0] == 7 * 8
        assert len(columns) <= len(calls) <= 2 * len(columns), (x, calls)
    assert calls == [7 * 8]  # at x = 0.9 every piece is flat or alpha is


def test_total_mass_probes_are_the_bare_cutoffs():
    law, span = uniform_cdf(-3.0, 3.0), (-3.5, 3.5)
    kinks = {m: (-(m + 1.0), -float(m), float(m), m + 1.0) for m in (1, 2, 4, 8)}
    for support, rungs in ((span, (1, 2, 4)), (None, (1, 2, 4, 8))):
        oracle = dataclasses.replace(oracle_from_cdf(law, span), support=support)
        probes = []

        def apply(f):
            probes.append(f.breakpoints)
            return oracle.apply(f)

        # a ramp times a cutoff would carry the ramp's two knots as well
        assert total_mass(dataclasses.replace(oracle, apply=apply)) == 1.0
        assert probes == [kinks[m] for m in rungs]


def test_recover_validation():
    oracle = oracle_from_cdf(uniform_cdf(), (-0.5, 1.5))
    with pytest.raises(ValueError):
        recover_cdf(oracle, 0.5, j_max=0)
    for tol in (0.0, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            recover_cdf(oracle, 0.5, tol=tol)
    with pytest.raises(ValueError, match="m_max must be >= 1"):
        total_mass(oracle, m_max=0)
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
    with pytest.raises(ValueError, match="m_max must be >= 1"):
        total_mass(oracle, m_max=limit)


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


@pytest.mark.parametrize("limits, message", [
    ({"j_max": 0}, "j_max must be >= 1"),
    ({"m_max": math.inf}, "m_max must be >= 1"),
    ({"tol": math.nan}, "tol must be positive"),
])
def test_recovered_cdf_checks_its_limits_at_construction(limits, message):
    with pytest.raises(ValueError, match=message):
        RecoveredCdf(oracle_from_cdf(uniform_cdf(), (-0.5, 1.5)), **limits)


def test_packaged_mass_runs_the_cutoff_ladder_to_m_max():
    # no support promise, so the mass ladder runs until two cutoffs agree;
    # capped at j_max = 2 it would stop at 0.875, below the recovered F(3)
    alpha = uniform_cdf(1.5, 2.5)
    oracle = ExpectationOracle(lambda f: ls_integrate(f, alpha, (1.0, 3.0), 1e-10))
    rec = RecoveredCdf(oracle, j_max=2, m_max=64)
    c_plus = rec.as_cdf().c_plus
    assert c_plus == total_mass(oracle, 64)
    assert c_plus >= rec.eval(3.0) == 1.0


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
    knots, heights = [-0.5] + ks + [1.5], [0.0] + hs + [0.0]
    # np.interp returns inf inside a knot gap too narrow for a finite slope
    # (a subnormal gap), and such an f is not bounded by max|h|
    with np.errstate(divide="ignore", over="ignore"):
        assume(np.all(np.isfinite(np.diff(heights) / np.diff(knots))))
    f = piecewise_affine(knots, heights)
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


def test_sample_oracle_rejects_samples_that_are_not_one_dimensional():
    for bad in (0.5, np.array(0.5), [[0.1, 0.9], [0.4, 0.6]], np.zeros((3, 1))):
        with pytest.raises(ValueError, match="one-dimensional"):
            oracle_from_samples(bad)


def _probes_near(samples, rng, count):
    """Ramps, cutoffs and their products whose knots fall on, between and
    around the samples: ramp ends and cutoff bends on sample values too."""
    samples = np.asarray(samples, dtype=float)
    lo, hi = float(samples.min()), float(samples.max())
    for _ in range(count):
        j = int(rng.choice([1, 2, 3, 7, 16, 64, 1000]))
        x = float(rng.choice([rng.choice(samples), rng.choice(samples) - 1.0 / j,
                              rng.uniform(lo - 1.0, hi + 1.0)]))
        m = max(1, int(rng.choice([abs(x), hi, -lo, rng.uniform(0.0, max(abs(lo), hi) + 2.0)])))
        ramp, cutoff = make_ramp(RampSpec(x, j)), make_cutoff(m)
        yield from (ramp, cutoff, _probe_product(ramp, cutoff))


_AGREEMENT_RNG = np.random.default_rng(22)
_AGREEMENT_SETS = {
    "ties": np.repeat(_AGREEMENT_RNG.uniform(-1.5, 1.5, 40), 5),
    "knots on samples": np.concatenate([np.arange(-3.0, 3.5, 0.5), np.arange(-64, 65) / 64,
                                        _AGREEMENT_RNG.normal(0.0, 1.0, 200)]),
    "single": np.array([0.3]),
    "shifted": 1e4 + _AGREEMENT_RNG.normal(0.0, 1.0, 500),
}


@pytest.mark.parametrize("name", _AGREEMENT_SETS)
def test_sample_oracle_agrees_with_the_plain_mean_of_a_probe(name):
    samples = _AGREEMENT_SETS[name]
    oracle = oracle_from_samples(samples)
    bound = 1e-14 * max(1.0, float(np.max(np.abs(samples))))
    for f in _probes_near(samples, np.random.default_rng(len(samples)), 300):
        ref = float(np.mean(f(samples)))
        assert abs(oracle.apply(f) - ref) <= bound, (f.breakpoints, ref)


def test_sample_oracle_gives_any_other_callable_the_plain_mean_in_sample_order():
    # summed in this order the mean is 1/4; sorted, it would be 0
    samples = [1e16, 1.0, -1e16, 1.0]
    assert oracle_from_samples(samples).apply(lambda t: t) == 0.25
    xs = np.random.default_rng(4).normal(0.0, 1.0, 1001)
    oracle = oracle_from_samples(xs)
    plain = as_plain(_probe_product(make_ramp(RampSpec(0.2, 8)), make_cutoff(1)))
    assert oracle.apply(plain) == float(np.mean(plain(xs)))
    assert oracle.apply(lambda t: math.sin(t)) == float(np.mean([math.sin(t) for t in xs]))


def test_sample_oracle_evaluates_a_probe_only_on_its_sloped_pieces(monkeypatch):
    samples = np.random.default_rng(3).normal(0.0, 1.0, 100_000)
    oracle = oracle_from_samples(samples)
    x, j = 0.1, 64
    probe = _probe_product(make_ramp(RampSpec(x, j)), make_cutoff(math.ceil(np.max(np.abs(samples)))))
    product, seen = stieltjes._product, []

    def counting(t, forms):
        seen.append(np.array(t, dtype=float))
        return product(t, forms)

    monkeypatch.setattr(stieltjes, "_product", counting)
    value = oracle.apply(probe)
    window = np.sort(samples[(x <= samples) & (samples < x + 1.0 / j)])
    assert 0 < window.size == sum(map(len, seen))
    np.testing.assert_array_equal(np.concatenate(seen), window)
    assert abs(value - float(np.mean(probe(samples)))) <= 1e-14 * np.max(np.abs(samples))


def test_a_cutoff_bending_at_an_end_sample_changes_no_bit_of_a_sample_oracle():
    """Samples tied at integer ends, under ramps whose window holds an end:
    every cutoff that covers them gives the same bits, the one that bends
    at an end among them."""
    rng = np.random.default_rng(7)
    for end in (1.0, 2.0):
        samples = np.concatenate([rng.uniform(-end, end, 40), [-end, end] * 3,
                                  rng.uniform(end - 0.3, end, 20), rng.uniform(-end, 0.3 - end, 20)])
        rng.shuffle(samples)
        oracle = oracle_from_samples(samples)
        for _ in range(100):
            j = int(rng.choice([4, 8, 16, 64]))
            ramp = make_ramp(RampSpec(float(rng.choice([end, -end])) - rng.uniform(0.0, 1.0 / j), j))
            values = {oracle.apply(_probe_product(ramp, make_cutoff(m)))
                      for m in (int(end), int(end) + 1, 64)}
            assert len(values) == 1, (ramp.breakpoints, values)
        _assert_support_changes_no_bit(oracle, (end - 1.0 / 32, 1.0 / 64 - end, end - 0.2))


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
    # by parts, a probe never raises ConvergenceError; Riemann-Stieltjes sums do
    stiff = ExpectationOracle(
        apply=lambda f: ls_integrate(as_plain(f), law, span, 1e-15, max_depth=5),
        support=span,
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
    with pytest.raises(ValueError, match="^support must be finite and ordered"):
        ls_integrate(lambda t: t, uniform_cdf(), support)
