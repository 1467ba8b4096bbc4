import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.conditional import (
    ConjugateExponents,
    FiniteMeasureSpace,
    Partition,
    RandomVariable,
    cond_expectation,
    cond_expectation_l1,
    holder_bound_check,
    verify_duality,
)

UNIF4 = FiniteMeasureSpace.uniform(4)
X1234 = RandomVariable((1.0, 2.0, 3.0, 4.0))
PAIRS = Partition(((0, 1), (2, 3)))


def test_block_average_golden():
    xi = cond_expectation(X1234, PAIRS, UNIF4)
    assert xi.values == (1.5, 1.5, 3.5, 3.5)
    assert xi.zero_mass_blocks == ()


def test_trivial_partition_gives_the_mean():
    xi = cond_expectation(X1234, Partition.trivial(4), UNIF4)
    assert xi.values == (2.5, 2.5, 2.5, 2.5)


def test_singleton_partition_reproduces_the_variable():
    xi = cond_expectation(X1234, Partition.singletons(4), UNIF4)
    assert xi.values == X1234.values


def test_zero_mass_block_is_flagged_and_zeroed():
    space = FiniteMeasureSpace((("a", 0.5), ("b", 0.5), ("c", 0.0)))
    xi = cond_expectation(
        RandomVariable((1.0, 3.0, 7.0)), Partition.singletons(3), space
    )
    assert xi.values == (1.0, 3.0, 0.0)
    assert xi.zero_mass_blocks == (2,)


def test_truncation_ladder_symmetric_cancellation():
    space = FiniteMeasureSpace.uniform(2)
    out = cond_expectation_l1(
        RandomVariable((10.0, -10.0)), Partition.trivial(2), space
    )
    assert out.values == (0.0, 0.0)
    assert out.converged
    assert out.j_reached == 16
    assert len(out.ladder) == 5  # levels 1, 2, 4, 8, 16


def test_truncation_ladder_small_cap_is_flagged():
    out = cond_expectation_l1(X1234, PAIRS, UNIF4, j_max=2)
    assert out.values == (1.5, 1.5, 2.0, 2.0)
    assert not out.converged
    assert out.j_reached == 2
    assert len(out.ladder) == 2


def test_truncation_ladder_matches_direct_average_exactly():
    X = RandomVariable((0.5, 3.0, 2.0, 1.0))
    out = cond_expectation_l1(X, PAIRS, UNIF4)
    assert out.converged
    assert out.values == cond_expectation(X, PAIRS, UNIF4).values


def test_positive_part_ladder_is_nondecreasing():
    out = cond_expectation_l1(X1234, PAIRS, UNIF4, j_max=8)
    for (_, lo, _), (_, hi, _) in zip(out.ladder, out.ladder[1:]):
        assert all(b >= a for a, b in zip(lo, hi))


def test_averaging_identity_holds_by_construction():
    xi = cond_expectation(X1234, PAIRS, UNIF4)
    report = verify_duality(X1234, xi, PAIRS, UNIF4)
    assert report.passed
    assert max(report.residuals) < 1e-14


def test_averaging_identity_rejects_a_shifted_candidate():
    space = FiniteMeasureSpace.uniform(2)
    report = verify_duality(
        RandomVariable((0.0, 0.0)),
        RandomVariable((1.0, 1.0)),
        Partition.trivial(2),
        space,
    )
    assert not report.passed
    assert report.residuals == (1.0,)


def test_averaging_identity_survives_coarsening():
    xi = cond_expectation(X1234, PAIRS, UNIF4)
    report = verify_duality(X1234, xi, Partition.trivial(4), UNIF4)
    assert report.passed


def test_tower_property():
    rng = np.random.default_rng(7)
    fine = Partition(((0, 1), (2,), (3, 4), (5,)))
    coarse = Partition(((0, 1, 2), (3, 4, 5)))
    space = FiniteMeasureSpace.uniform(6)
    for _ in range(50):
        X = RandomVariable(tuple(rng.uniform(-5, 5, 6)))
        inner = cond_expectation(X, fine, space)
        twice = cond_expectation(RandomVariable(inner.values), coarse, space)
        once = cond_expectation(X, coarse, space)
        assert max(abs(a - b) for a, b in zip(twice.values, once.values)) < 1e-12


def test_total_expectation():
    rng = np.random.default_rng(8)
    for _ in range(50):
        X = RandomVariable(tuple(rng.uniform(-5, 5, 4)))
        xi = cond_expectation(X, PAIRS, UNIF4)
        p = UNIF4.probabilities
        assert abs(float(np.dot(xi.array, p)) - float(np.dot(X.array, p))) < 1e-12


def test_linearity():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x = rng.uniform(-3, 3, 4)
        y = rng.uniform(-3, 3, 4)
        a, b = rng.uniform(-2, 2, 2)
        combo = cond_expectation(RandomVariable(tuple(a * x + b * y)), PAIRS, UNIF4)
        xa = cond_expectation(RandomVariable(tuple(x)), PAIRS, UNIF4).array
        yb = cond_expectation(RandomVariable(tuple(y)), PAIRS, UNIF4).array
        assert np.max(np.abs(combo.array - (a * xa + b * yb))) < 1e-12


def test_uniqueness_up_to_duality_tolerance():
    xi = cond_expectation(X1234, PAIRS, UNIF4)
    # a candidate passing the identity at 1e-14 can differ from the block
    # average by at most tol / block mass, which is far below 1e-12 here
    slack = 0.4e-14 / 0.5
    nudged = RandomVariable(tuple(v + slack for v in xi.values))
    report = verify_duality(X1234, nudged, PAIRS, UNIF4)
    assert report.passed
    assert max(abs(a - b) for a, b in zip(nudged.values, xi.values)) < 1e-12

    off = RandomVariable(tuple(v + 1e-10 for v in xi.values))
    assert not verify_duality(X1234, off, PAIRS, UNIF4).passed


def test_holder_equality_case():
    report = holder_bound_check(X1234, X1234, ConjugateExponents(2.0), UNIF4)
    assert report.passed
    assert abs(report.lhs - report.rhs) < 1e-12


def test_holder_orthogonal_case():
    X = RandomVariable((1.0, 1.0, -1.0, -1.0))
    Y = RandomVariable((1.0, -1.0, 1.0, -1.0))
    report = holder_bound_check(X, Y, ConjugateExponents(2.0), UNIF4)
    assert report.lhs == 0.0
    assert report.passed


def test_holder_random_pairs():
    rng = np.random.default_rng(10)
    exps = ConjugateExponents(3.0)
    assert exps.q == 1.5
    for _ in range(50):
        X = RandomVariable(tuple(rng.uniform(-4, 4, 4)))
        Y = RandomVariable(tuple(rng.uniform(-4, 4, 4)))
        assert holder_bound_check(X, Y, exps, UNIF4).passed


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_positivity_and_monotonicity_are_exact(n, seed):
    rng = np.random.default_rng(seed)
    space = FiniteMeasureSpace.uniform(n)
    assign = rng.integers(0, max(1, n // 2 + 1), n)
    blocks = tuple(
        tuple(np.flatnonzero(assign == g))
        for g in np.unique(assign)
    )
    G = Partition(blocks)
    x = rng.uniform(-5, 5, n)
    bump = np.abs(rng.uniform(0, 3, n))
    lo = cond_expectation(RandomVariable(tuple(x)), G, space)
    hi = cond_expectation(RandomVariable(tuple(x + bump)), G, space)
    assert all(b >= a for a, b in zip(lo.values, hi.values))
    pos = cond_expectation(RandomVariable(tuple(np.abs(x))), G, space)
    assert all(v >= 0.0 for v in pos.values)


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteMeasureSpace(())
    with pytest.raises(ValueError):
        FiniteMeasureSpace((("a", 0.5), ("a", 0.5)))
    with pytest.raises(ValueError):
        FiniteMeasureSpace((("a", -0.1), ("b", 1.1)))
    with pytest.raises(ValueError):
        FiniteMeasureSpace((("a", 0.5), ("b", 0.4)))
    with pytest.raises(ValueError):
        FiniteMeasureSpace.uniform(0)


def test_space_hands_out_fresh_probabilities_and_one_labels_tuple():
    atoms = (("a", 0.25), ("b", 0.5), ("c", 0.25))
    space = FiniteMeasureSpace(atoms)
    p, q = space.probabilities, space.probabilities
    assert p is not q and p.flags.writeable and q.flags.writeable
    assert p.tolist() == [0.25, 0.5, 0.25]
    p[0] = 9.0
    assert space.probabilities.tolist() == [0.25, 0.5, 0.25]
    assert space.labels == ("a", "b", "c") and space.labels is space.labels
    twin = FiniteMeasureSpace(atoms)
    assert space == twin and hash(space) == hash(twin)
    assert repr(space) == (
        "FiniteMeasureSpace(atoms=(('a', 0.25), ('b', 0.5), ('c', 0.25)))"
    )


def test_variable_validation():
    with pytest.raises(ValueError):
        RandomVariable((1.0, float("nan")))
    with pytest.raises(ValueError):
        RandomVariable((float("inf"),))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition(((0,), ()))
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(((-1,),))
    assert Partition.trivial(3).covers(3)
    assert not Partition.trivial(3).covers(4)
    assert Partition(((2, 0), (3,), (1,))).covers(4)  # exact cover
    assert not Partition(((0, 1), (3,))).covers(4)  # atom 2 missing
    assert not Partition(((0, 1), (2, 4))).covers(4)  # index 4 >= n
    assert not Partition(((0, 1), (2, 3))).covers(3)


def test_partition_from_spec():
    G = Partition.from_spec("a,b|c", ("a", "b", "c"))
    assert G.blocks == ((0, 1), (2,))
    with pytest.raises(ValueError):
        Partition.from_spec("a,b|z", ("a", "b", "c"))
    with pytest.raises(ValueError):
        Partition.from_spec("a,b|", ("a", "b", "c"))
    with pytest.raises(ValueError):
        Partition.from_spec("a|b", ("a", "b", "c"))


def test_exponent_validation():
    assert ConjugateExponents(2.0).q == 2.0
    with pytest.raises(ValueError):
        ConjugateExponents(1.0)
    with pytest.raises(ValueError):
        ConjugateExponents(float("inf"))
    with pytest.raises(ValueError):
        ConjugateExponents(2.0, 1.9)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
def test_duality_tolerance_must_be_positive(tol):
    xi = cond_expectation(X1234, PAIRS, UNIF4)
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_duality(X1234, xi, PAIRS, UNIF4, tol)


def test_alignment_validation():
    with pytest.raises(ValueError):
        cond_expectation(RandomVariable((1.0, 2.0)), PAIRS, UNIF4)
    with pytest.raises(ValueError):
        cond_expectation(X1234, Partition(((0, 1),)), UNIF4)
    with pytest.raises(ValueError):
        cond_expectation(X1234, Partition(((0, 1), (2, 4))), UNIF4)
    with pytest.raises(ValueError):
        verify_duality(X1234, X1234, Partition(((0, 1), (3,))), UNIF4)
    cond_expectation(X1234, Partition(((0, 3), (1, 2))), UNIF4)
    with pytest.raises(ValueError):
        cond_expectation_l1(X1234, PAIRS, UNIF4, j_max=0)
    with pytest.raises(ValueError):
        verify_duality(X1234, RandomVariable((1.0,)), PAIRS, UNIF4)
    with pytest.raises(ValueError):
        holder_bound_check(
            X1234, RandomVariable((1.0,)), ConjugateExponents(2.0), UNIF4
        )
