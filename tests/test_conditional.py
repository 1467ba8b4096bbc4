import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rieszkit.conditional import (
    ConditionedRV,
    ConjugateExponents,
    FiniteMeasureSpace,
    L1LadderResult,
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
    # a cap equal to the largest |X| already bounds both parts
    out = cond_expectation_l1(X1234, PAIRS, UNIF4, j_max=4)
    assert out.converged and out.j_reached == 4 and len(out.ladder) == 3


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


@pytest.mark.parametrize("scale", [1.0, 1e2, 1e6, 1e-120, 1e100])
def test_holder_equality_case_passes_at_any_scale(scale):
    # Y = X^2 with p = 3 makes |Y|^q proportional to |X|^p: Hölder's equality
    # case, where lhs and rhs differ by rounding only, relative to their size;
    # at 1e-120 the cubes underflow unless the check scales X and Y first
    rng = np.random.default_rng(3)
    space = FiniteMeasureSpace.uniform(5)
    exps = ConjugateExponents(3.0)
    for _ in range(200):
        x = rng.uniform(0.0, scale, 5)
        report = holder_bound_check(RandomVariable(x), RandomVariable(x**2), exps, space)
        assert abs(report.lhs - report.rhs) <= 1e-14 * report.rhs
        assert report.passed


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
    with pytest.raises(ValueError, match="'a' repeats"):
        FiniteMeasureSpace((("a", 0.5), ("a", 0.5)))
    with pytest.raises(ValueError, match="unique; 'a' repeats"):
        FiniteMeasureSpace((("b", 0.25), ("a", 0.25), ("a", 0.25), ("b", 0.25)))
    with pytest.raises(ValueError):
        FiniteMeasureSpace((("a", -0.1), ("b", 1.1)))
    with pytest.raises(ValueError):
        FiniteMeasureSpace((("a", 0.5), ("b", 0.4)))
    with pytest.raises(ValueError):
        FiniteMeasureSpace.uniform(0)


def test_uniform_space_needs_an_integer_atom_count():
    for bad in (2.5, 4.0, np.float64(4.0), True, "4"):
        with pytest.raises(ValueError, match="atom count n must be an integer"):
            FiniteMeasureSpace.uniform(bad)
    four = FiniteMeasureSpace.uniform(np.int64(4))
    assert four.atoms == UNIF4.atoms and four.labels == UNIF4.labels


def test_space_hands_out_fresh_probabilities_and_one_labels_tuple():
    atoms = (("a", 0.25), ("b", 0.5), ("c", 0.25))
    space = FiniteMeasureSpace(atoms)
    p, q = space.probabilities, space.probabilities
    assert p is not q and p.flags.writeable and q.flags.writeable
    assert p.tolist() == [0.25, 0.5, 0.25]
    p[0] = 9.0
    assert space.probabilities.tolist() == [0.25, 0.5, 0.25]
    assert space.labels == ("a", "b", "c") and space.labels is space.labels
    # a list, a one-shot iterator and a generator build the same space
    for given in (atoms, list(atoms), iter(atoms), (pair for pair in atoms)):
        twin = FiniteMeasureSpace(given)
        assert space.atoms == twin.atoms == atoms and space.labels == twin.labels


def test_variable_validation():
    with pytest.raises(ValueError):
        RandomVariable((1.0, float("nan")))
    with pytest.raises(ValueError):
        RandomVariable((float("inf"),))
    for malformed in ((None,), ((1, 2),), 5.0):
        with pytest.raises(ValueError):
            RandomVariable(malformed)


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
    assert ConjugateExponents(3.0).q == 1.5


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_duality_tolerance_must_be_positive(tol):
    xi = cond_expectation(X1234, PAIRS, UNIF4)
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_duality(X1234, xi, PAIRS, UNIF4, tol)


def test_alignment_validation():
    with pytest.raises(ValueError, match="^X has 2 values for 4 atoms$"):
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
    with pytest.raises(ValueError, match="^xi has 1 values for 4 atoms$"):
        verify_duality(X1234, RandomVariable((1.0,)), PAIRS, UNIF4)
    with pytest.raises(ValueError, match="^Y has 1 values for 4 atoms$"):
        holder_bound_check(
            X1234, RandomVariable((1.0,)), ConjugateExponents(2.0), UNIF4
        )
    with pytest.raises(ValueError, match="^X has 1 values for 4 atoms$"):
        holder_bound_check(
            RandomVariable((1.0,)), X1234, ConjugateExponents(2.0), UNIF4
        )


@pytest.mark.parametrize("j_max", [float("inf"), float("nan")])
def test_truncation_ladder_limit_must_be_finite(j_max):
    # an infinite limit would double the ladder forever
    with pytest.raises(ValueError, match="must be >= 1"):
        cond_expectation_l1(X1234, PAIRS, UNIF4, j_max=j_max)


# The per-block route: each block's values and masses gathered by its
# index array in the order the block lists them, the products x*p and the
# masses each summed by a one-segment np.add.reduceat. Every block sum of
# the library, one segmented reduceat over all blocks, must equal it bit
# for bit.
def _segment_sum(v):
    return float(np.add.reduceat(v, [0])[0])


def _reference_block_averages(x, p, blocks):
    """One average per block, in block order; 0 on a zero-mass block."""
    out = []
    for idx in map(np.array, blocks):
        mass = _segment_sum(p[idx])
        out.append(_segment_sum(x[idx] * p[idx]) / mass if mass != 0.0 else 0.0)
    return out


def _reference_average(x, p, blocks):
    """The block averages spread over the atoms, and the zero-mass blocks."""
    xi = np.zeros(len(x))
    zero = []
    for bi, (idx, avg) in enumerate(zip(map(np.array, blocks),
                                        _reference_block_averages(x, p, blocks))):
        xi[idx] = avg
        if _segment_sum(p[idx]) == 0.0:
            zero.append(bi)
    return tuple(xi.tolist()), tuple(zero)


def _reference_residuals(x, c, p, blocks):
    return tuple(
        abs(_segment_sum(x[idx] * p[idx]) - _segment_sum(c[idx] * p[idx]))
        for idx in map(np.array, blocks)
    )


def _random_space(rng, kind, n):
    if kind == "uniform":
        return FiniteMeasureSpace.uniform(n)
    p = rng.dirichlet(np.ones(n))
    if kind == "zero-mass":
        p[rng.random(n) < 0.3] = 0.0
        p[0] = max(p[0], 0.1)
        p /= p.sum()
    return FiniteMeasureSpace(tuple((f"a{k}", q) for k, q in enumerate(p.tolist())))


def _random_blocks(rng, n):
    """Blocks listed out of order, each with its atoms out of order."""
    label = rng.integers(0, int(rng.integers(1, n + 1)), n)
    blocks = (rng.permutation(np.flatnonzero(label == b)) for b in rng.permutation(n))
    return tuple(tuple(b.tolist()) for b in blocks if len(b))


@pytest.mark.parametrize("kind", ["uniform", "dirichlet", "zero-mass"])
def test_block_sums_are_bitwise_those_of_the_per_block_route(kind):
    rng = np.random.default_rng(["uniform", "dirichlet", "zero-mass"].index(kind))
    cases = [(4, ((2, 0), (3,), (1,)))]
    for _ in range(40):
        n = int(rng.integers(1, 400))
        cases.append((n, _random_blocks(rng, n)))
    for n, blocks in cases:
        space, G = _random_space(rng, kind, n), Partition(blocks)
        p = space.probabilities
        x = rng.normal(0.0, 20.0, n)
        X = RandomVariable(tuple(x))

        xi = cond_expectation(X, G, space)
        assert (xi.values, xi.zero_mass_blocks) == _reference_average(x, p, blocks)

        out = cond_expectation_l1(X, G, space, j_max=int(rng.integers(1, 80)))
        assert out.zero_mass_blocks == xi.zero_mass_blocks
        for j, xi_p, xi_m in out.ladder:
            tp = np.minimum(np.maximum(x, 0.0), float(j))
            tm = np.minimum(np.maximum(-x, 0.0), float(j))
            for row, part in ((xi_p, tp), (xi_m, tm)):
                assert row.dtype == np.float64 and not row.flags.writeable
                reference = np.array(_reference_block_averages(part, p, blocks))
                assert row.tobytes() == reference.tobytes()
        assert out.values == _reference_average(
            np.minimum(np.maximum(x, 0.0), float(j))
            - np.minimum(np.maximum(-x, 0.0), float(j)), p, blocks
        )[0]
        if out.converged:
            assert out.values == xi.values

        for c in (xi.array, x + rng.normal(0.0, 1e-3, n)):
            report = verify_duality(X, RandomVariable(tuple(c)), G, space, 1e-13)
            assert report.residuals == _reference_residuals(x, c, p, blocks)
            assert report.passed == all(r < 1e-13 for r in report.residuals)


def _plain(obj):
    """Whether obj is built only of tuples of built-in str, float, int, bool."""
    if type(obj) is tuple:
        return all(map(_plain, obj))
    return type(obj) in (str, float, int, bool)


def test_public_classes_keep_their_dataclass_behaviour():
    # frozen records that compare and hash by identity, whose public tuples
    # are plain tuples built on first read and then kept
    space = FiniteMeasureSpace((("a", 0.5), ("b", 0.5), ("c", 0.0), ("d", 0.0)))
    X = RandomVariable((1, np.float64(2.0), 3.0, 4.0))
    G = Partition(((np.int64(2), 0), [3], (1,)))
    cases = [
        (FiniteMeasureSpace.uniform(2), lambda: FiniteMeasureSpace.uniform(2),
         dict(atoms=(("1", 0.5), ("2", 0.5)), labels=("1", "2"))),
        (space, lambda: FiniteMeasureSpace(space.atoms),
         dict(atoms=(("a", 0.5), ("b", 0.5), ("c", 0.0), ("d", 0.0)),
              labels=("a", "b", "c", "d"))),
        (X, lambda: RandomVariable(X.values), dict(values=(1.0, 2.0, 3.0, 4.0))),
        (G, lambda: Partition(G.blocks), dict(blocks=((2, 0), (3,), (1,)))),
        (cond_expectation(X, G, space), lambda: ConditionedRV((1.0, 2.0, 1.0, 0.0), (1,)),
         dict(values=(1.0, 2.0, 1.0, 0.0), zero_mass_blocks=(1,))),
        (cond_expectation_l1(X, PAIRS, UNIF4, j_max=2),
         lambda: L1LadderResult((1.5, 1.5, 2.0, 2.0), (), False, 2, ()),
         dict(values=(1.5, 1.5, 2.0, 2.0), zero_mass_blocks=(), converged=False,
              j_reached=2)),
    ]
    for obj, build, public in cases:
        twin = build()
        assert type(obj) is type(twin)
        assert type(obj).__eq__ is object.__eq__ and type(obj).__hash__ is object.__hash__
        assert obj == obj and obj != twin and len({obj, twin}) == 2
        for name, value in public.items():
            got = getattr(obj, name)
            assert got == value and got == getattr(twin, name) and _plain(got)
            assert getattr(obj, name) is got
        for name in [*public, *(f.name for f in dataclasses.fields(obj))]:
            with pytest.raises(AttributeError):
                setattr(obj, name, getattr(obj, name))
        assert repr(obj).startswith(f"{type(obj).__name__}(")
    l1 = cases[-1][0]
    assert [(j, p.tolist(), m.tolist()) for j, p, m in l1.ladder] == [
        (1, [1.0, 1.0], [0.0, 0.0]), (2, [1.5, 2.0], [0.0, 0.0]),
    ]


def test_random_variable_hands_out_fresh_writable_arrays():
    source = np.array([1.0, 2.0, 3.0])
    X = RandomVariable(source)
    source[0] = 9.0
    for rv in (X, cond_expectation(X, Partition.trivial(3), FiniteMeasureSpace.uniform(3))):
        a, b = rv.array, rv.array
        assert a is not b and a.flags.writeable and b.flags.writeable
        before = rv.values
        a[0] = -7.0
        assert rv.values == before and rv.array.tolist() == list(before)
    assert X.values == (1.0, 2.0, 3.0)


def test_truncation_ladder_spreads_block_averages_once(monkeypatch):
    import rieszkit.conditional as cond

    spread = cond._BlockSums.average
    calls = []

    def counted(self, x):
        calls.append(len(x))
        return spread(self, x)

    monkeypatch.setattr(cond._BlockSums, "average", counted)
    X = RandomVariable((60.0, -3.0, 0.5, 12.0, -60.0, 7.0))
    G = Partition(((0, 3), (1, 4, 5), (2,)))
    space = FiniteMeasureSpace.uniform(6)
    out = cond_expectation_l1(X, G, space, j_max=64)
    assert len(out.ladder) == 7 and out.converged and out.j_reached == 64
    assert calls == [6]
    assert out.values == cond_expectation(X, G, space).values
