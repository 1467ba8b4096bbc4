import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.errors import NumericError
from rieszkit.numerics import (
    QuadratureRule,
    adaptive_integrate,
    gauss_hermite,
    gauss_legendre,
)


def test_legendre_single_node_is_midpoint_rule():
    rule = gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes.tolist() == [0.0]
    assert rule.weights.tolist() == [2.0]


def test_legendre_two_nodes_integrate_square():
    got = gauss_legendre(2, -1.0, 1.0).integrate(lambda u: u**2)
    assert abs(got - 2.0 / 3.0) < 1e-14


def test_legendre_eight_nodes_on_sqrt():
    # sqrt has unbounded derivative at 0; 8 nodes still land within 1e-3
    got = gauss_legendre(8, 0.0, 1.0).integrate(np.sqrt)
    assert abs(got - 2.0 / 3.0) < 1e-3


@pytest.mark.parametrize("a,b", [(-1.0, 1.0), (0.0, 1.0), (-3.5, 2.25), (10.0, 10.5)])
def test_legendre_weights_sum_to_length(a, b):
    rule = gauss_legendre(12, a, b)
    assert abs(rule.weights.sum() - (b - a)) < 1e-12


def test_hermite_weights_sum_to_sqrt_pi():
    for n in (1, 2, 7, 40):
        assert abs(gauss_hermite(n).weights.sum() - math.sqrt(math.pi)) < 1e-12


def test_hermite_single_node():
    rule = gauss_hermite(1)
    assert rule.nodes.tolist() == [0.0]
    assert abs(rule.weights[0] - math.sqrt(math.pi)) < 1e-15


def test_hermite_second_moment():
    got = gauss_hermite(2).integrate(lambda u: u**2)
    assert abs(got - math.sqrt(math.pi) / 2.0) < 1e-14


def test_hermite_gaussian_product():
    # integral of exp(-u^2) * exp(-u^2/2) du = sqrt(2*pi/3)
    got = gauss_hermite(40).integrate(lambda u: np.exp(-(u**2) / 2.0))
    assert abs(got - math.sqrt(2.0 * math.pi / 3.0)) < 1e-10


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.lists(
        st.floats(min_value=-1.0, max_value=1.0), min_size=1, max_size=10
    ),
    bounds=st.tuples(
        st.floats(min_value=-2.0, max_value=0.0),
        st.floats(min_value=0.5, max_value=2.0),
    ),
)
def test_legendre_exactness_degree_property(coeffs, bounds):
    a, b = bounds
    degree = len(coeffs) - 1
    n = degree // 2 + 1  # smallest n with 2n-1 >= degree
    got = gauss_legendre(n, a, b).integrate(
        lambda u: np.polynomial.polynomial.polyval(u, coeffs)
    )
    anti = np.polynomial.polynomial.polyint(coeffs)
    exact = np.polynomial.polynomial.polyval(
        b, anti
    ) - np.polynomial.polynomial.polyval(a, anti)
    assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))


def test_adaptive_constant():
    assert abs(adaptive_integrate(lambda u: 1.0, 0.0, 1.0, 1e-10) - 1.0) < 1e-10


def test_adaptive_parabola():
    got = adaptive_integrate(lambda u: (1.0 - u) * u, 0.0, 1.0, 1e-10)
    assert abs(got - 1.0 / 6.0) < 1e-10


def test_adaptive_sqrt():
    got = adaptive_integrate(np.sqrt, 0.0, 1.0, 1e-8)
    assert abs(got - 2.0 / 3.0) < 1e-8


def test_adaptive_degenerate_interval_is_zero():
    assert adaptive_integrate(lambda u: 5.0, 2.0, 2.0, 1e-8) == 0.0


def test_adaptive_declared_kink():
    got = adaptive_integrate(
        lambda u: abs(u - 1.0 / 3.0), 0.0, 1.0, 1e-12, breakpoints=[1.0 / 3.0]
    )
    exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
    assert abs(got - exact) < 1e-12


def test_adaptive_sees_a_kink_next_to_a_panel_end():
    # 0.3% of the interval from its end, the kink lies beyond the outermost
    # of the 15 Gauss nodes (0.6% in): only the guarded ends of the low rule see it
    kink = 0.997
    got = adaptive_integrate(lambda u: np.abs(u - kink), 0.0, 1.0, 1e-12)
    assert abs(got - (kink**2 + (1.0 - kink) ** 2) / 2.0) < 1e-12


def test_adaptive_never_evaluates_a_panel_end():
    # a jump at a declared breakpoint costs one panel per side, however
    # often it is declared and whatever else is listed
    calls = []

    def step(u):
        u = np.asarray(u, dtype=float)
        calls.append(u.copy())
        return np.where(u < 0.5, 0.0, 1.0)

    for breakpoints in ([0.5], [0.5, 1.0, 0.5, 0.0], np.array([0.5, 0.5, 0.0])):
        calls.clear()
        assert adaptive_integrate(step, 0.0, 1.0, 1e-12, breakpoints=breakpoints) == 0.5
        assert len(calls) == 2
        assert not any(np.isin(u, (0.0, 0.5, 1.0)).any() for u in calls)


@settings(max_examples=40, deadline=None)
@given(
    cf=st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=5),
    cg=st.lists(st.floats(min_value=-1, max_value=1), min_size=1, max_size=5),
    alpha=st.floats(min_value=-2, max_value=2),
    beta=st.floats(min_value=-2, max_value=2),
)
def test_adaptive_linearity_property(cf, cg, alpha, beta):
    tol = 1e-9
    f = lambda u: np.polynomial.polynomial.polyval(u, cf)
    g = lambda u: np.polynomial.polynomial.polyval(u, cg)
    combo = adaptive_integrate(
        lambda u: alpha * f(u) + beta * g(u), 0.0, 1.0, tol
    )
    parts = alpha * adaptive_integrate(f, 0.0, 1.0, tol) + beta * adaptive_integrate(
        g, 0.0, 1.0, tol
    )
    assert abs(combo - parts) <= 2.0 * tol * (1.0 + abs(alpha) + abs(beta))


def test_adaptive_interval_additivity():
    tol = 1e-10
    f = lambda u: np.sin(3.0 * u) + u**2
    whole = adaptive_integrate(f, 0.0, 1.0, tol)
    split = adaptive_integrate(f, 0.0, 0.37, tol) + adaptive_integrate(
        f, 0.37, 1.0, tol
    )
    assert abs(whole - split) <= 2.0 * tol


def test_adaptive_nonfinite_integrand_reports_abscissa():
    def f(u):
        return float("nan") if u < 0.25 else 1.0

    with pytest.raises(NumericError) as err:
        adaptive_integrate(f, 0.0, 1.0, 1e-8)
    assert err.value.point is not None and err.value.point < 0.25


@pytest.mark.parametrize("n", [1, 8, 16, 24, 32, 64])
def test_rules_equal_numpy_bit_for_bit(n):
    x, w = np.polynomial.legendre.leggauss(n)
    for a, b in [(-1.0, 1.0), (0.0, 1.0), (-3.5, 2.25)]:
        rule = gauss_legendre(n, a, b)
        assert rule.nodes.tobytes() == (0.5 * (b - a) * x + 0.5 * (b + a)).tobytes()
        assert rule.weights.tobytes() == (0.5 * (b - a) * w).tobytes()
    x, w = np.polynomial.hermite.hermgauss(n)
    rule = gauss_hermite(n)
    assert rule.nodes.tobytes() == x.tobytes()
    assert rule.weights.tobytes() == w.tobytes()


@pytest.mark.parametrize(
    "build",
    [lambda: gauss_legendre(8, 0.0, 1.0), lambda: gauss_hermite(8)],
    ids=["legendre", "hermite"],
)
def test_rule_arrays_are_read_only(build):
    rule = build()
    before = (rule.nodes.tobytes(), rule.weights.tobytes())
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.5
    with pytest.raises(ValueError):
        rule.weights[:] = 1.0
    again = build()
    assert (again.nodes.tobytes(), again.weights.tobytes()) == before


def test_rule_construction_leaves_caller_arrays_writable():
    nodes, weights = np.array([0.0, 1.0]), np.array([1.0, 1.0])
    rule = QuadratureRule(nodes, weights)
    assert not rule.nodes.flags.writeable
    nodes[0] = -1.0
    assert nodes.flags.writeable and rule.nodes[0] == -1.0


def test_rule_integrate_nonfinite_reports_node():
    rule = gauss_legendre(5, 0.0, 1.0)
    with pytest.raises(NumericError) as err:
        rule.integrate(lambda u: np.full_like(u, np.inf))
    assert err.value.point == rule.nodes[0]


def test_invalid_rule_arguments():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        gauss_legendre(4, 2.0, 1.0)
    with pytest.raises(ValueError):
        gauss_hermite(0)
    # from 371 nodes numpy's Hermite weights underflow
    with pytest.raises(ValueError, match="370"):
        gauss_hermite(371)
    assert np.all(gauss_hermite(370).weights > 0)
    with pytest.raises(ValueError):
        adaptive_integrate(lambda u: u, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        adaptive_integrate(lambda u: u, 1.0, 0.0, 1e-8)


def test_rule_node_counts_must_be_integers():
    for bad in (2.5, 3.0, np.float64(3.0), True, False, "3", None):
        with pytest.raises(ValueError, match="node count n must be an integer"):
            gauss_legendre(bad, 0.0, 1.0)
        with pytest.raises(ValueError, match="node count n must be an integer"):
            gauss_hermite(bad)
    # integer types give the rule of the plain int
    assert gauss_hermite(np.int64(5)) is gauss_hermite(5)
    assert np.array_equal(gauss_legendre(np.int32(5), 0.0, 1.0).nodes,
                          gauss_legendre(5, 0.0, 1.0).nodes)


def test_adaptive_rejects_a_nan_tolerance_before_any_panel():
    # err <= nan is never true: a NaN tol that got through would bisect
    # every panel down to max_depth, so the integrand must never be called
    def untouchable(u):
        raise AssertionError("integrand called with tol=nan")

    with pytest.raises(ValueError, match="tol must be positive"):
        adaptive_integrate(untouchable, 0.0, 1.0, math.nan)


def test_adaptive_rejects_an_infinite_tolerance():
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        adaptive_integrate(lambda u: u, 0.0, 1.0, math.inf)


def test_rule_construction_validation():
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        QuadratureRule(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
