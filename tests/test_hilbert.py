import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.errors import IntegrabilityError, NumericError
from rieszkit.hilbert import (
    DiscreteHValuedLaw,
    HilbertVector,
    OrthonormalBasis,
    bochner_expectation,
    expected_norm,
    inner_product,
    prefix_indicator_law,
    project,
    riesz_representer,
)
from rieszkit.numerics import QuadratureRule, gauss_legendre

LEG32 = OrthonormalBasis(kind="shifted_legendre", size=32)


def one_minus_t(s):
    return 1.0 - np.asarray(s, dtype=float)


@pytest.mark.parametrize("kind", ["shifted_legendre", "fourier_sine"])
def test_gram_matrix_is_identity(kind):
    basis = OrthonormalBasis(kind=kind, size=32)
    gram = basis.gram_matrix()
    assert np.max(np.abs(gram - np.eye(32))) < 1e-8


def test_inner_product_orthonormality():
    e0 = HilbertVector.unit(LEG32, 0)
    e1 = HilbertVector.unit(LEG32, 1)
    assert inner_product(e0, e0) == 1.0
    assert inner_product(e0, e1) == 0.0


def test_inner_product_against_analytic_half():
    u = project(one_minus_t, LEG32)
    v = project(lambda s: np.ones_like(np.asarray(s, dtype=float)), LEG32)
    assert abs(inner_product(u, v) - 0.5) < 1e-8


def test_inner_product_agrees_with_quadrature_of_product():
    u = project(lambda s: np.asarray(s) ** 3, LEG32)
    v = project(lambda s: np.cos(2.0 * np.asarray(s)), LEG32)
    rule = gauss_legendre(128, 0.0, 1.0)
    direct = rule.integrate(lambda s: u.reconstruct(s) * v.reconstruct(s))
    assert abs(inner_product(u, v) - direct) < 1e-8


def test_project_reproduces_basis_function():
    w = project(lambda s: LEG32.evaluate(2, s), LEG32)
    target = np.zeros(32)
    target[2] = 1.0
    assert np.max(np.abs(w.coeffs - target)) < 1e-8


def test_project_linear_function_leading_coefficient():
    basis = OrthonormalBasis(kind="shifted_legendre", size=4)
    w = project(one_minus_t, basis)
    assert abs(w.coeffs[0] - 0.5) < 1e-12


def test_project_zero_function():
    w = project(lambda s: np.zeros_like(np.asarray(s, dtype=float)), LEG32)
    assert np.all(w.coeffs == 0.0)


def test_project_reconstruction_improves_with_size():
    f = lambda s: np.exp(np.asarray(s, dtype=float))
    grid = np.linspace(0.01, 0.99, 200)
    errs = []
    for n in (2, 4, 8):
        basis = OrthonormalBasis(kind="shifted_legendre", size=n)
        w = project(f, basis)
        errs.append(np.max(np.abs(w.reconstruct(grid) - f(grid))))
    assert errs[0] > errs[1] > errs[2]


def test_project_accepts_a_scalar_only_integrand():
    # math.cos rejects arrays, so project must fall back to one call per node
    scalar = project(lambda s: math.cos(s), LEG32)
    vector = project(lambda s: np.cos(np.asarray(s, dtype=float)), LEG32)
    assert abs(scalar.coeffs[0] - math.sin(1.0)) < 1e-14
    assert np.max(np.abs(scalar.coeffs - vector.coeffs)) < 1e-14


def test_project_nonfinite_raises():
    def f(s):
        s = np.asarray(s, dtype=float)
        return np.where(s > 0.5, np.inf, 1.0)

    with pytest.raises(NumericError):
        project(f, LEG32)


def test_project_with_breakpoint_matches_closed_form_indicator():
    # dual route for the indicator coefficients: panel-split quadrature
    # against the antiderivative formula
    omega = 0.37
    def chi(s):
        return (np.asarray(s, dtype=float) < omega).astype(float)

    chi_q = project(chi, LEG32, breakpoints=[omega])
    chi_c = LEG32.indicator_coefficients(omega)
    assert np.max(np.abs(chi_q.coeffs - chi_c)) < 1e-10


def test_representer_of_coordinate_functional_is_basis_vector():
    values = [0.0] * 32
    values[0] = 1.0
    w = riesz_representer(values, LEG32)
    assert np.array_equal(w.coeffs, HilbertVector.unit(LEG32, 0).coeffs)


def test_representer_of_tabulated_inner_product():
    mu = project(one_minus_t, LEG32)
    rule = LEG32.projection_rule()
    tab = [
        rule.integrate(lambda s, i=i: one_minus_t(s) * LEG32.evaluate(i, s))
        for i in range(32)
    ]
    w = riesz_representer(tab, LEG32)
    assert np.max(np.abs(w.coeffs - mu.coeffs)) < 1e-10
    # and w does represent the functional on an arbitrary probe
    u = project(lambda s: np.sin(np.asarray(s, dtype=float)), LEG32)
    assert abs(inner_product(u, w) - float(np.dot(u.coeffs, tab))) < 1e-14


def test_representer_zero_functional():
    w = riesz_representer(np.zeros(32), LEG32)
    assert np.all(w.coeffs == 0.0)


def test_representer_uniqueness_is_bitwise():
    tab = np.sin(np.arange(32) * 0.7)
    w1 = riesz_representer(list(tab), LEG32)
    w2 = riesz_representer(tuple(float(v) for v in tab), LEG32)
    assert np.array_equal(w1.coeffs, w2.coeffs)


def test_bochner_single_atom_law():
    v = project(lambda s: np.asarray(s) ** 2, LEG32)
    law = DiscreteHValuedLaw.from_atoms([(1.0, v)])
    assert np.array_equal(bochner_expectation(law).coeffs, v.coeffs)


def test_bochner_symmetric_atoms_cancel():
    v = project(one_minus_t, LEG32)
    neg = HilbertVector(-v.coeffs, LEG32)
    law = DiscreteHValuedLaw.from_atoms([(0.5, v), (0.5, neg)])
    assert np.all(bochner_expectation(law).coeffs == 0.0)


def test_bochner_segment_indicator_law_gives_one_minus_t():
    law = prefix_indicator_law(LEG32)
    mu = bochner_expectation(law)
    target = project(one_minus_t, LEG32)
    assert float(np.sqrt(np.sum((mu.coeffs - target.coeffs) ** 2))) < 1e-3


def test_bochner_mixture_linearity():
    rng = np.random.default_rng(5)
    vs = [HilbertVector(rng.normal(size=32), LEG32) for _ in range(4)]
    law1 = DiscreteHValuedLaw.from_atoms([(0.25, v) for v in vs])
    law2 = DiscreteHValuedLaw.from_atoms([(0.5, vs[0]), (0.5, vs[3])])
    alpha = 0.375
    mixed = DiscreteHValuedLaw.from_atoms(
        [(alpha * 0.25, v) for v in vs]
        + [((1 - alpha) * 0.5, vs[0]), ((1 - alpha) * 0.5, vs[3])]
    )
    combo = alpha * bochner_expectation(law1).coeffs + (
        1 - alpha
    ) * bochner_expectation(law2).coeffs
    assert np.max(np.abs(bochner_expectation(mixed).coeffs - combo)) < 1e-10


def test_bochner_consistency_with_direct_omega_quadrature():
    law = prefix_indicator_law(LEG32)
    u = project(lambda s: np.cos(np.asarray(s, dtype=float)), LEG32)
    via_expectation = inner_product(u, bochner_expectation(law))
    rule = gauss_legendre(64, 0.0, 1.0)
    direct = sum(
        w * inner_product(u, law.sampler(om))
        for w, om in zip(rule.weights, rule.nodes)
    )
    assert abs(via_expectation - direct) < 1e-6


@pytest.mark.parametrize("kind", ["shifted_legendre", "fourier_sine"])
@pytest.mark.parametrize("size", [1, 2, 32, 256])
def test_indicator_rows_match_per_omega_coefficients(kind, size):
    basis = OrthonormalBasis(kind=kind, size=size)
    weights, rows = prefix_indicator_law(basis).coefficient_matrix()
    rule = gauss_legendre(64, 0.0, 1.0)
    assert weights.tobytes() == rule.weights.tobytes()
    assert rows.shape == (64, size) and rows.flags.c_contiguous
    for om, row in zip(rule.nodes, rows):
        assert row.tobytes() == basis.indicator_coefficients(om).tobytes()


def test_indicator_law_equals_a_per_omega_sampler():
    # a user-written sampler takes the per-omega path; both give the same floats
    basis = OrthonormalBasis(kind="shifted_legendre", size=64)
    law = prefix_indicator_law(basis)
    by_hand = DiscreteHValuedLaw.from_sampler(lambda om: law.sampler(om), basis)
    mean, mean_by_hand = bochner_expectation(law), bochner_expectation(by_hand)
    assert mean.coeffs.tobytes() == mean_by_hand.coeffs.tobytes()
    assert expected_norm(law) == expected_norm(by_hand)


@pytest.mark.parametrize("n_atoms, size", [(5, 32), (17, 256), (49, 32)])
def test_atom_law_equals_the_sampler_law_of_its_atoms(n_atoms, size):
    # an atom law is the sampler law whose omega rule puts the atom
    # probabilities on one node per atom: the same weighted rows, bit for bit
    rng = np.random.default_rng(n_atoms)
    basis = OrthonormalBasis(kind="shifted_legendre", size=size)
    probs = rng.dirichlet(np.ones(n_atoms))
    vectors = [HilbertVector(rng.normal(size=size), basis) for _ in range(n_atoms)]
    atomic = DiscreteHValuedLaw.from_atoms(list(zip(probs, vectors)))
    nodes = (np.arange(n_atoms) + 0.5) / n_atoms
    by_node = dict(zip(nodes.tolist(), vectors))
    sampled = DiscreteHValuedLaw.from_sampler(
        lambda om: by_node[om], basis, QuadratureRule(nodes, probs)
    )
    mean, mean_sampled = bochner_expectation(atomic), bochner_expectation(sampled)
    assert mean.coeffs.tobytes() == mean_sampled.coeffs.tobytes()
    assert expected_norm(atomic) == expected_norm(sampled)
    # the atom-by-atom sums agree up to summation order: n_atoms roundings
    # of at most eps times the sum of |p * coefficient| each
    eps = np.finfo(float).eps
    loop = sum(p * v.coeffs for p, v in zip(probs, vectors))
    bound = n_atoms * eps * sum(p * np.abs(v.coeffs) for p, v in zip(probs, vectors))
    assert np.all(np.abs(mean.coeffs - loop) <= bound)
    loop_norm = sum(p * v.norm() for p, v in zip(probs, vectors))
    assert abs(expected_norm(atomic) - loop_norm) <= (n_atoms + size) * eps * loop_norm


def test_expected_norm_constants():
    unit = HilbertVector.unit(LEG32, 3)
    assert expected_norm(DiscreteHValuedLaw.from_atoms([(1.0, unit)])) == 1.0
    zero = HilbertVector.zero(LEG32)
    assert expected_norm(DiscreteHValuedLaw.from_atoms([(1.0, zero)])) == 0.0


def test_expected_norm_segment_indicator():
    basis = OrthonormalBasis(kind="shifted_legendre", size=2048)
    assert abs(expected_norm(prefix_indicator_law(basis)) - 2.0 / 3.0) < 1e-4


def test_non_integrable_law_is_rejected():
    # coefficients near the float ceiling: each vector is finite, but its
    # norm (and so the expected norm) overflows
    basis = OrthonormalBasis(kind="shifted_legendre", size=4)
    huge = HilbertVector([1e308, 1e308, 0.0, 0.0], basis)

    sampled = DiscreteHValuedLaw.from_sampler(lambda om: huge, basis)
    with pytest.raises(IntegrabilityError):
        expected_norm(sampled)
    with pytest.raises(IntegrabilityError):
        bochner_expectation(sampled)

    atomic = DiscreteHValuedLaw.from_atoms([(1.0, huge)])
    with pytest.raises(IntegrabilityError):
        expected_norm(atomic)
    with pytest.raises(IntegrabilityError):
        bochner_expectation(atomic)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cauchy_schwarz_bound_property(data):
    basis = OrthonormalBasis(kind="shifted_legendre", size=6)
    n_atoms = data.draw(st.integers(min_value=1, max_value=4))
    raw = data.draw(
        st.lists(
            st.floats(min_value=0.05, max_value=1.0),
            min_size=n_atoms,
            max_size=n_atoms,
        )
    )
    probs = np.array(raw) / np.sum(raw)
    coord = st.floats(min_value=-3.0, max_value=3.0)
    atoms = []
    for p in probs:
        c = data.draw(st.lists(coord, min_size=6, max_size=6))
        atoms.append((float(p), HilbertVector(np.array(c), basis)))
    u = HilbertVector(
        np.array(data.draw(st.lists(coord, min_size=6, max_size=6))), basis
    )
    law = DiscreteHValuedLaw.from_atoms(atoms)
    pairing = inner_product(u, bochner_expectation(law))
    assert abs(pairing) <= u.norm() * expected_norm(law) + 1e-8


def test_basis_and_law_validation():
    with pytest.raises(ValueError):
        OrthonormalBasis(kind="chebyshev", size=8)
    with pytest.raises(ValueError):
        OrthonormalBasis(size=0)
    with pytest.raises(ValueError):
        LEG32.evaluate(32, 0.5)
    with pytest.raises(ValueError):
        LEG32.indicator_coefficients(1.5)
    with pytest.raises(ValueError):
        LEG32.indicator_coefficients(np.array([0.5, float("nan")]))
    with pytest.raises(ValueError):
        HilbertVector(np.zeros(31), LEG32)
    with pytest.raises(ValueError):
        HilbertVector(np.full(32, np.nan), LEG32)
    v = HilbertVector.unit(LEG32, 0)
    with pytest.raises(ValueError):
        DiscreteHValuedLaw.from_atoms([(0.7, v)])
    with pytest.raises(ValueError):
        DiscreteHValuedLaw.from_atoms([(1.4, v), (-0.4, v)])
    with pytest.raises(ValueError):
        DiscreteHValuedLaw(basis=LEG32)
    with pytest.raises(ValueError):
        DiscreteHValuedLaw(basis=LEG32, atoms=((1.0, v),), sampler=lambda om: v)
    other = OrthonormalBasis(kind="shifted_legendre", size=8)
    with pytest.raises(ValueError):
        inner_product(v, HilbertVector.unit(other, 0))
    with pytest.raises(ValueError):
        bochner_expectation(prefix_indicator_law(LEG32), basis=other)
    with pytest.raises(ValueError):
        riesz_representer(np.zeros(8), LEG32)
