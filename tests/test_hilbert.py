import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.errors import IntegrabilityError, NumericError
from rieszkit.hilbert import (
    BASIS_KINDS,
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


def test_project_takes_breakpoints_as_any_sequence_with_repeats():
    def chi(s):
        return (np.asarray(s, dtype=float) < 0.3).astype(float)

    want = project(chi, LEG32, breakpoints=[0.3, 0.6]).coeffs
    for breakpoints in (np.array([0.3, 0.6]), (0.6, 0.3), [0.3, 0.6, 0.3, 1.0],
                        np.array([0.6, 0.3, 0.6])):
        got = project(chi, LEG32, breakpoints=breakpoints).coeffs
        assert got.tobytes() == want.tobytes()
    # no breakpoints, as None or empty, is the basis's own projection rule
    plain = project(chi, LEG32).coeffs.tobytes()
    for empty in ([], (), np.array([])):
        assert project(chi, LEG32, breakpoints=empty).coeffs.tobytes() == plain


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
        w * inner_product(u, HilbertVector(LEG32.indicator_coefficients(om), LEG32))
        for w, om in zip(rule.weights, rule.nodes)
    )
    assert abs(via_expectation - direct) < 1e-6


@pytest.mark.parametrize("kind", ["shifted_legendre", "fourier_sine"])
@pytest.mark.parametrize("size", [1, 2, 32, 256])
def test_indicator_rows_match_per_omega_coefficients(kind, size):
    basis = OrthonormalBasis(kind=kind, size=size)
    law = prefix_indicator_law(basis)
    weights, rows = law.weights, law.rows
    rule = gauss_legendre(64, 0.0, 1.0)
    assert weights.tobytes() == rule.weights.tobytes()
    assert rows.shape == (64, size) and rows.flags.c_contiguous
    for om, row in zip(rule.nodes, rows):
        assert row.tobytes() == basis.indicator_coefficients(om).tobytes()


def test_indicator_law_equals_a_per_omega_sampler():
    # a user-written sampler takes the per-omega path; both give the same floats
    basis = OrthonormalBasis(kind="shifted_legendre", size=64)
    law = prefix_indicator_law(basis)
    by_hand = DiscreteHValuedLaw.from_sampler(
        lambda om: HilbertVector(basis.indicator_coefficients(om), basis), basis
    )
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

    # every vector has norm 10, but the one omega weight sits near the float
    # ceiling, so E||X|| overflows: both functions raise, and quietly
    ten = HilbertVector([10.0, 0.0, 0.0, 0.0], basis)
    heavy = DiscreteHValuedLaw.from_sampler(
        lambda om: ten, basis, QuadratureRule([0.5], [1e308])
    )
    for fn in (expected_norm, bochner_expectation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrabilityError, match="not finite"):
                fn(heavy)


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


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize(
    "t", [0.3, np.linspace(0.01, 0.99, 7), np.linspace(0.05, 0.95, 6).reshape(2, 3)]
)
def test_evaluate_is_the_row_of_evaluate_all(kind, t):
    basis = OrthonormalBasis(kind=kind, size=12)
    rows = basis.evaluate_all(np.ravel(t))
    assert np.array_equal(basis.evaluate_all(t), rows)
    for i in (0, 5, 11):
        value = basis.evaluate(i, t)
        assert np.shape(value) == np.shape(t)
        assert np.max(np.abs(value - rows[i].reshape(np.shape(t)))) <= 1e-14


def test_array_dataclasses_compare_by_identity():
    v = HilbertVector.unit(LEG32, 0)
    rule = gauss_legendre(8, 0.0, 1.0)
    law = DiscreteHValuedLaw.from_atoms([(1.0, v)])
    for obj, twin in (
        (v, HilbertVector.unit(LEG32, 0)),
        (rule, QuadratureRule(rule.nodes, rule.weights)),
        (law, DiscreteHValuedLaw.from_atoms([(1.0, HilbertVector.unit(LEG32, 0))])),
    ):
        assert obj == obj and hash(obj) == hash(obj)
        assert obj != twin
        assert len({obj, twin}) == 2


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
        DiscreteHValuedLaw.from_atoms([(float("nan"), v)])
    with pytest.raises(ValueError):
        DiscreteHValuedLaw(LEG32, np.ones(1), np.zeros((1, 31)))
    with pytest.raises(ValueError):
        DiscreteHValuedLaw(LEG32, np.ones((1, 1)), np.zeros((1, 32)))
    other = OrthonormalBasis(kind="shifted_legendre", size=8)
    with pytest.raises(ValueError):
        inner_product(v, HilbertVector.unit(other, 0))
    with pytest.raises(ValueError):
        riesz_representer(np.zeros(8), LEG32)


def test_every_basis_check_names_both_bases():
    v = HilbertVector.unit(LEG32, 0)
    sine = OrthonormalBasis(kind="fourier_sine", size=8)
    w = HilbertVector.unit(sine, 0)
    checks = (
        (lambda: inner_product(v, w), "shifted_legendre/32 vs fourier_sine/8"),
        (lambda: DiscreteHValuedLaw.from_atoms([(0.5, v), (0.5, w)]),
         "fourier_sine/8 vs shifted_legendre/32"),
        (lambda: DiscreteHValuedLaw.from_sampler(lambda om: w, LEG32),
         "fourier_sine/8 vs shifted_legendre/32"),
    )
    for call, bases in checks:
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == f"basis mismatch: {bases}"


def test_vector_coefficients_are_read_only():
    arr = np.zeros(32)
    law = DiscreteHValuedLaw.from_atoms([(1.0, HilbertVector.unit(LEG32, 1))])
    for v in (HilbertVector(np.ones(32), LEG32), riesz_representer(arr, LEG32),
              bochner_expectation(law)):
        with pytest.raises(ValueError):
            v.coeffs[0] = 5.0
    # the caller's array keeps its flags
    assert arr.flags.writeable


def test_law_is_its_basis_weights_and_rows():
    assert [f.name for f in dataclasses.fields(DiscreteHValuedLaw)] == ["basis", "weights", "rows"]
    probs = [0.25, 0.75]
    vectors = [HilbertVector.unit(LEG32, 0), HilbertVector.unit(LEG32, 5)]
    law = DiscreteHValuedLaw.from_atoms(list(zip(probs, vectors)))
    assert law.basis == LEG32
    assert law.weights.tolist() == probs
    assert np.array_equal(law.rows, [v.coeffs for v in vectors])


def test_sampler_runs_once_per_omega_node():
    # the rows are built once, with the law; the mean and the norm read them
    calls = []

    def sampler(om):
        calls.append(om)
        return HilbertVector(LEG32.indicator_coefficients(om), LEG32)

    law = DiscreteHValuedLaw.from_sampler(sampler, LEG32)
    bochner_expectation(law)
    expected_norm(law)
    assert calls == gauss_legendre(64, 0.0, 1.0).nodes.tolist()


def test_prefix_indicator_law_builds_its_rows_in_one_call(monkeypatch):
    calls = []
    original = OrthonormalBasis.indicator_coefficients

    def counting(self, omega):
        calls.append(np.size(omega))
        return original(self, omega)

    monkeypatch.setattr(OrthonormalBasis, "indicator_coefficients", counting)
    for kind in BASIS_KINDS:
        law = prefix_indicator_law(OrthonormalBasis(kind=kind, size=16))
        bochner_expectation(law)
        expected_norm(law)
    assert calls == [64, 64]


@pytest.mark.parametrize("weights, rows", [
    (np.ones(2), np.zeros((3, 32))),
    (np.ones(2), np.zeros((2, 31))),
    (np.ones(2), np.zeros(32)),
    (np.ones((2, 1)), np.zeros((2, 32))),
    (np.float64(1.0), np.zeros((1, 32))),
    (np.array([0.5, -0.5]), np.zeros((2, 32))),
    (np.array([1.0, np.nan]), np.zeros((2, 32))),
    (np.array([-np.inf]), np.zeros((1, 32))),
])
def test_law_constructor_checks_shapes_and_weights(weights, rows):
    with pytest.raises(ValueError):
        DiscreteHValuedLaw(LEG32, weights, rows)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_rows_raise_integrability_error(bad):
    rows = np.zeros((2, 32))
    rows[1, 3] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        law = DiscreteHValuedLaw(LEG32, [0.5, 0.5], rows)
        for fn in (expected_norm, bochner_expectation):
            with pytest.raises(IntegrabilityError, match="not finite"):
                fn(law)


def test_law_arrays_are_read_only():
    weights, rows = np.array([0.5, 0.5]), np.zeros((2, 32))
    law = DiscreteHValuedLaw(LEG32, weights, rows)
    for arr in (law.weights, law.rows):
        with pytest.raises(ValueError):
            arr[0] = 5.0
    # the caller's arrays keep their flags
    assert weights.flags.writeable and rows.flags.writeable


@pytest.mark.parametrize("size", [2.5, 2.0, True, "3", None])
def test_basis_size_must_be_an_integer(size):
    with pytest.raises(ValueError, match="basis size must be an integer"):
        OrthonormalBasis(kind="fourier_sine", size=size)


def test_basis_size_takes_any_integer_type():
    basis = OrthonormalBasis(kind="fourier_sine", size=np.int64(3))
    assert type(basis.size) is int and basis == OrthonormalBasis(kind="fourier_sine", size=3)
    assert HilbertVector.zero(basis).coeffs.shape == (3,)


@pytest.mark.parametrize("index", [-1, 32, True, False, 1.0, np.float64(2.0), np.True_])
def test_unit_and_evaluate_reject_a_bad_index(index):
    with pytest.raises(ValueError):
        HilbertVector.unit(LEG32, index)
    with pytest.raises(ValueError):
        LEG32.evaluate(index, 0.5)


def test_unit_and_evaluate_take_any_integer_type():
    for index in (0, 31, np.int64(7), np.uint8(7)):
        v = HilbertVector.unit(LEG32, index)
        assert v.coeffs.sum() == 1.0 and v.coeffs[int(index)] == 1.0
        assert abs(LEG32.evaluate(index, 0.5) - LEG32.evaluate_all(0.5)[int(index), 0]) <= 1e-14
