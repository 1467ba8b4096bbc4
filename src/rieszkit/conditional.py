"""Conditional expectation on finite measure spaces.

Everything here is exact finite linear algebra: a finite atom list
carries the probabilities, a partition of the atoms plays the role of
the sub-sigma-algebra, and conditional expectation is the block average.
The averaging identity (same integral over every block) is then
machine-checkable, and the L1 construction through truncation at
increasing levels stabilizes after finitely many steps.

Spaces, variables and partitions are stored as arrays. Their public
tuple fields (``atoms``, ``values``, ``blocks``) are built from the
arrays on first access and then kept, so equality, hashing and repr
are those of the tuples. Results are built by the same constructor as
user-built variables, so they get the same conversion, finiteness check
and read-only array. A partition keeps the block of every atom once an
average has been spread over its atoms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .numerics import _as_int, _check_limit, _check_probabilities, _check_tol, _ladder_indices

__all__ = [
    "FiniteMeasureSpace",
    "RandomVariable",
    "ConditionedRV",
    "L1LadderResult",
    "Partition",
    "ConjugateExponents",
    "cond_expectation",
    "cond_expectation_l1",
    "verify_duality",
    "DualityReport",
    "holder_bound_check",
    "HolderReport",
]


class _Views:
    """Views of the stored arrays, built on first access and kept.

    ``_VIEWS`` maps an attribute to its builder. A field that is a view is
    removed from the instance once its array is stored, so reading it,
    directly or through the dataclass equality, hash and repr, lands here.
    A view that is not a field, such as a partition's block ids, is
    derived the same way: once, when first read.
    """

    _VIEWS = {}

    def __getattr__(self, name):
        build = type(self)._VIEWS.get(name)
        if build is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = build(self)
        object.__setattr__(self, name, value)
        return value


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _as_floats(items) -> np.ndarray:
    """``items`` as a 1-d float64 array; ``ValueError`` for any other shape."""
    arr = np.array(items, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"need a flat sequence of reals, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class FiniteMeasureSpace(_Views):
    """Finite probability space: labelled atoms with nonnegative masses summing to 1."""

    atoms: tuple[tuple[str, float], ...]

    _VIEWS = {
        "atoms": lambda s: tuple(zip(s.labels, s._probs.tolist())),
        # only a uniform space leaves its labels to be built here
        "labels": lambda s: tuple(map(str, range(1, s.n + 1))),
    }

    def __post_init__(self):
        labels = [str(lab) for lab, _ in self.atoms]
        probs = _as_floats([p for _, p in self.atoms])
        if not labels:
            raise ValueError("need at least one atom")
        if len(set(labels)) != len(labels):
            seen = set()
            repeated = next(lab for lab in labels if lab in seen or seen.add(lab))
            raise ValueError(f"atom labels must be unique; {repeated!r} repeats")
        object.__delattr__(self, "atoms")
        object.__setattr__(self, "labels", tuple(labels))
        self._set_probs(probs)

    def _set_probs(self, probs: np.ndarray) -> None:
        _check_probabilities(probs)
        object.__setattr__(self, "_probs", _frozen(probs))

    @classmethod
    def uniform(cls, n: int) -> "FiniteMeasureSpace":
        n = _as_int(n, "atom count n")
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        space = object.__new__(cls)
        # labels "1".."n" are unique; they and the atoms wait to be asked for
        space._set_probs(np.full(n, 1.0 / n))
        return space

    @property
    def n(self) -> int:
        return len(self._probs)

    @property
    def probabilities(self) -> np.ndarray:
        """A fresh copy of the atom masses; callers may write into it."""
        return self._probs.copy()


@dataclass(frozen=True)
class RandomVariable(_Views):
    """Real values aligned with the atoms of a FiniteMeasureSpace."""

    values: tuple[float, ...]

    _VIEWS = {"values": lambda s: tuple(s._x.tolist())}

    def __post_init__(self):
        x = _as_floats(self.values)
        if not np.isfinite(x).all():
            raise ValueError("values must all be finite")
        object.__delattr__(self, "values")
        object.__setattr__(self, "_x", _frozen(x))

    @property
    def array(self) -> np.ndarray:
        """A fresh copy of the values; callers may write into it."""
        return self._x.copy()

    def __len__(self) -> int:
        return len(self._x)


@dataclass(frozen=True)
class ConditionedRV(RandomVariable):
    """Block-constant conditional expectation; zero-mass blocks hold 0 and are flagged."""

    zero_mass_blocks: tuple[int, ...] = ()


@dataclass(frozen=True)
class L1LadderResult(ConditionedRV):
    """Outcome of the truncation ladder, with per-level history.

    ``ladder`` holds (j, positive-part values, negative-part values) per
    level; ``converged`` records whether truncation became inactive
    (min(X+-, j) = X+-) before j_max, after which the result is exact.
    """

    converged: bool = True
    j_reached: int = 0
    ladder: tuple = ()


@dataclass(frozen=True)
class Partition(_Views):
    """Disjoint blocks of atom indices; stands in for a sub-sigma-algebra.

    Stored as ``_order``, the blocks concatenated in the order given, and
    ``_starts``, the offset of each block in it, then its length. ``_ids``,
    the read-only block of every atom, is built on first read and then
    kept; only a partition that covers its atoms can build it.
    """

    blocks: tuple[tuple[int, ...], ...]

    def _blocks(self) -> tuple[tuple[int, ...], ...]:
        flat, st = self._order.tolist(), self._starts.tolist()
        return tuple(tuple(flat[s:e]) for s, e in zip(st, st[1:]))

    def _atom_blocks(self) -> np.ndarray:
        ids = np.empty(len(self._order), dtype=np.intp)
        ids[self._order] = np.repeat(np.arange(len(self._starts) - 1), np.diff(self._starts))
        return _frozen(ids)

    _VIEWS = {"blocks": _blocks, "_ids": _atom_blocks}

    def __post_init__(self):
        blocks = [b if isinstance(b, (tuple, list)) else tuple(b) for b in self.blocks]
        sizes = [len(b) for b in blocks]
        order = np.fromiter(chain.from_iterable(blocks), dtype=np.intp, count=sum(sizes))
        if not blocks or 0 in sizes:
            raise ValueError("blocks must be nonempty")
        ranked = np.sort(order)
        lo, hi = int(ranked[0]), int(ranked[-1])
        if (ranked[1:] == ranked[:-1]).any():
            raise ValueError("blocks must be pairwise disjoint")
        if lo < 0:
            raise ValueError("negative atom index")
        starts = np.zeros(len(sizes) + 1, dtype=np.intp)
        np.cumsum(sizes, out=starts[1:])
        object.__delattr__(self, "blocks")
        object.__setattr__(self, "_order", _frozen(order))
        object.__setattr__(self, "_starts", _frozen(starts))
        object.__setattr__(self, "_hi", hi)

    @classmethod
    def trivial(cls, n: int) -> "Partition":
        return cls((tuple(range(n)),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls(tuple((k,) for k in range(n)))

    @classmethod
    def from_spec(cls, spec: str, labels: Sequence[str]) -> "Partition":
        """Parse "a,b|c,d" into blocks of the given atom labels."""
        index = {str(lab): k for k, lab in enumerate(labels)}
        blocks = []
        for chunk in spec.split("|"):
            names = list(filter(None, map(str.strip, chunk.split(","))))
            if not names:
                raise ValueError(f"empty block in partition spec {spec!r}")
            try:
                blocks.append(tuple(map(index.__getitem__, names)))
            except KeyError:
                missing = [s for s in names if s not in index]
                raise ValueError(f"unknown atom label(s) {missing} in {spec!r}") from None
        part = cls(tuple(blocks))
        if not part.covers(len(labels)):
            left_out = sorted(set(range(len(labels))).difference(part._order.tolist()))
            raise ValueError(
                f"partition spec {spec!r} does not cover atoms {left_out}"
            )
        return part

    def covers(self, n: int) -> bool:
        """Whether the blocks cover exactly the atom indices 0..n-1."""
        # disjoint nonnegative indices cover 0..n-1 iff there are n of them, all below n
        return len(self._order) == n and self._hi < n


@dataclass(frozen=True)
class ConjugateExponents:
    """Exponent pair with 1/p + 1/q = 1; q = p / (p - 1) is derived from p."""

    p: float
    q: float = field(init=False)

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {p}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", p / (p - 1.0))


def _check_alignment(space: FiniteMeasureSpace, G: Partition | None = None, **variables):
    """``ValueError`` unless each named variable has one value per atom and G covers them."""
    for name, v in variables.items():
        if len(v) != space.n:
            raise ValueError(f"{name} has {len(v)} values for {space.n} atoms")
    if G is not None and not G.covers(space.n):
        raise ValueError("partition does not cover the atom indices of the space")


class _BlockSums:
    """Per-block sums of x*p over one partition of one space.

    With the atoms in block order, every block sum, masses included, is one
    ``np.add.reduceat`` at the block starts (distinct: no block is empty).
    No loop over blocks and no BLAS call, so the cost is linear in the atoms
    and the bits, shared by every route, do not depend on the thread count.
    """

    def __init__(self, G: Partition, space: FiniteMeasureSpace):
        self.G, self.order, self.starts = G, G._order, G._starts[:-1]
        self.ps = space._probs[self.order]
        self.mass = np.add.reduceat(self.ps, self.starts)

    def sums(self, x: np.ndarray) -> np.ndarray:
        return np.add.reduceat(x[self.order] * self.ps, self.starts)

    def block_average(self, x: np.ndarray) -> np.ndarray:
        """(sum of x*p) / (sum of p), one value per block; zero-mass blocks hold 0."""
        avg = np.zeros(len(self.mass))
        np.divide(self.sums(x), self.mass, out=avg, where=self.mass != 0.0)
        return avg

    def average(self, x: np.ndarray) -> np.ndarray:
        """The block averages of x spread over the atoms."""
        return self.block_average(x)[self.G._ids]

    def zero_mass(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.mass == 0.0).tolist())


def cond_expectation(
    X: RandomVariable, G: Partition, space: FiniteMeasureSpace
) -> ConditionedRV:
    """Block-average conditional expectation.

    On each positive-mass block the value is (sum of X*p) / (sum of p),
    which makes the defining identity (equal integrals of X and the
    result over every block) hold to rounding. Zero-mass blocks get the
    value 0 and are reported in ``zero_mass_blocks``; any block-constant
    choice there would do, since those atoms carry no mass.
    """
    _check_alignment(space, G, X=X)
    blocks = _BlockSums(G, space)
    return ConditionedRV(blocks.average(X._x), zero_mass_blocks=blocks.zero_mass())


def cond_expectation_l1(
    X: RandomVariable, G: Partition, space: FiniteMeasureSpace, j_max: int = 64
) -> L1LadderResult:
    """Conditional expectation via the truncation ladder min(X, j).

    Splits X into positive and negative parts, truncates both at level j,
    and conditions the difference; levels double up to j_max. On a finite
    space the ladder stabilizes exactly once j bounds both parts, at
    which point min(X+-, j) = X+- bitwise and the result coincides with
    cond_expectation(X) exactly; if j_max is too small the last ladder
    state is returned with ``converged=False``. ``j_max`` must be finite.
    """
    _check_limit("j_max", j_max)
    _check_alignment(space, G, X=X)
    blocks = _BlockSums(G, space)
    xv = X._x
    x_plus = np.maximum(xv, 0.0)
    x_minus = np.maximum(-xv, 0.0)
    top = max(x_plus.max(initial=0.0), x_minus.max(initial=0.0))

    ids = G._ids.tolist()
    levels = _ladder_indices(j_max)
    history = []
    for j in levels:
        tp = np.minimum(x_plus, float(j))
        tm = np.minimum(x_minus, float(j))
        # one float object per block, shared by the block's atoms
        xi_p, xi_m = blocks.block_average(tp).tolist(), blocks.block_average(tm).tolist()
        history.append((j, tuple(map(xi_p.__getitem__, ids)), tuple(map(xi_m.__getitem__, ids))))
        if top <= j:
            break
    # the ladder stopped at the first j bounding both parts, else at the last
    return L1LadderResult(
        blocks.average(tp - tm),
        zero_mass_blocks=blocks.zero_mass(),
        converged=bool(top <= j),
        j_reached=j,
        ladder=tuple(history),
    )


@dataclass(frozen=True)
class DualityReport:
    """Per-block residuals of the averaging identity."""

    residuals: tuple[float, ...]
    tol: float
    passed: bool


def verify_duality(
    X: RandomVariable,
    xi: RandomVariable,
    G: Partition,
    space: FiniteMeasureSpace,
    tol: float = 1e-14,
) -> DualityReport:
    """Check that X and xi integrate identically over every block.

    ``tol`` must be positive and finite (``ValueError`` otherwise; NaN
    included).
    """
    _check_tol(tol)
    _check_alignment(space, G, X=X, xi=xi)
    blocks = _BlockSums(G, space)
    residuals = np.abs(blocks.sums(X._x) - blocks.sums(xi._x))
    return DualityReport(
        residuals=tuple(residuals.tolist()), tol=tol, passed=bool((residuals < tol).all())
    )


@dataclass(frozen=True)
class HolderReport:
    """Both sides of |E(XY)| <= ||X||_p * ||Y||_q on the finite space."""

    lhs: float
    rhs: float
    p: float
    q: float
    passed: bool


def holder_bound_check(
    X: RandomVariable,
    Y: RandomVariable,
    exps: ConjugateExponents,
    space: FiniteMeasureSpace,
) -> HolderReport:
    """Evaluate both sides of the pairing bound and compare: ``passed`` is
    lhs <= rhs * (1 + 1e-12) on X and Y scaled to max |.| = 1, where no power
    under- or overflows; the slack is relative, so it means the same at any scale."""
    _check_alignment(space, X=X, Y=Y)
    sx, sy = (float(np.abs(v._x).max()) or 1.0 for v in (X, Y))
    p, x, y = space._probs, X._x / sx, Y._x / sy
    lhs = abs(float(np.dot(x * y, p)))
    norm_x = float(np.dot(np.abs(x) ** exps.p, p)) ** (1.0 / exps.p)
    norm_y = float(np.dot(np.abs(y) ** exps.q, p)) ** (1.0 / exps.q)
    rhs = norm_x * norm_y
    return HolderReport(sx * sy * lhs, sx * sy * rhs, exps.p, exps.q, lhs <= rhs * (1 + 1e-12))
