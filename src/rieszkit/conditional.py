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
are those of the tuples.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Sequence

import numpy as np

from .numerics import _ladder_indices

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

_MASS_TOL = 1e-12


class _Views:
    """Tuple views of the stored arrays, built on first access and kept.

    ``_VIEWS`` maps an attribute to its builder. A field that is a view is
    removed from the instance once its array is stored, so reading it,
    directly or through the dataclass equality, hash and repr, lands here.
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
    """``items`` as a 1-d float64 array, each converted as ``float()`` would."""
    try:
        arr = np.array(items, dtype=float)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.ndim != 1 or np.isnan(arr).any():
        # numpy reads None as NaN and takes nested or scalar input by its
        # shape; one float() per item raises what it raises, or agrees
        arr = np.array([float(v) for v in items], dtype=float)
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
        labels, probs = [], []
        for lab, p in self.atoms:
            labels.append(str(lab))
            probs.append(p)
        probs = _as_floats(probs)
        if not labels:
            raise ValueError("need at least one atom")
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be unique")
        object.__delattr__(self, "atoms")
        object.__setattr__(self, "labels", tuple(labels))
        self._set_probs(probs)

    def _set_probs(self, probs: np.ndarray) -> None:
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        object.__setattr__(self, "_probs", _frozen(probs))

    @classmethod
    def uniform(cls, n: int) -> "FiniteMeasureSpace":
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        space = object.__new__(cls)
        # labels "1".."n" are unique; they and the atoms wait to be asked for
        space._set_probs(np.full(operator.index(n), 1.0 / n))
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
        object.__delattr__(self, "values")
        self._set_values(x)

    def _set_values(self, x: np.ndarray) -> None:
        if not np.isfinite(x).all():
            raise ValueError("values must all be finite")
        object.__setattr__(self, "_x", _frozen(x))

    @classmethod
    def _of(cls, x: np.ndarray, **fields):
        """An instance over the float64 array ``x``, which it takes over."""
        rv = object.__new__(cls)
        for name, value in fields.items():
            object.__setattr__(rv, name, value)
        rv._set_values(x)
        return rv

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
    ``_starts``, the offset of each block in it, then its length.
    """

    blocks: tuple[tuple[int, ...], ...]

    def _blocks(self) -> tuple[tuple[int, ...], ...]:
        flat, st = self._order.tolist(), self._starts.tolist()
        return tuple(tuple(flat[s:e]) for s, e in zip(st, st[1:]))

    _VIEWS = {"blocks": _blocks}

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
            names = [s.strip() for s in chunk.split(",") if s.strip()]
            if not names:
                raise ValueError(f"empty block in partition spec {spec!r}")
            missing = [s for s in names if s not in index]
            if missing:
                raise ValueError(f"unknown atom label(s) {missing} in {spec!r}")
            blocks.append(tuple(index[s] for s in names))
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
    """Exponent pair with 1/p + 1/q = 1; q is derived from p when omitted."""

    p: float
    q: float = None  # type: ignore[assignment]

    def __post_init__(self):
        p = float(self.p)
        if not (1.0 < p < np.inf):
            raise ValueError(f"p must lie in (1, inf), got {p}")
        q = p / (p - 1.0) if self.q is None else float(self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if abs(1.0 / p + 1.0 / q - 1.0) > 1e-12:
            raise ValueError(f"1/p + 1/q = {1.0/p + 1.0/q!r}, not 1")


def _check_alignment(X: RandomVariable, G: Partition, space: FiniteMeasureSpace):
    if len(X) != space.n:
        raise ValueError(f"variable has {len(X)} values for {space.n} atoms")
    if not G.covers(space.n):
        raise ValueError("partition does not cover the atom indices of the space")


def _block_ids(G: Partition) -> np.ndarray:
    """The block of every atom, for a partition that covers its atoms."""
    ids = np.empty(len(G._order), dtype=np.intp)
    ids[G._order] = np.repeat(np.arange(len(G._starts) - 1), np.diff(G._starts))
    return ids


class _BlockSums:
    """Per-block sums of x*p over one partition of one space.

    The atoms are permuted into block order once, so each block is one
    contiguous slice and its sum one ``np.dot``: the same terms in the same
    order as ``np.dot(x[idx], p[idx])`` on the block's index array, so the
    direct route, every ladder rung and the duality check share the bits.
    """

    def __init__(self, G: Partition, space: FiniteMeasureSpace):
        self.G, self.order = G, G._order
        self.ps = space._probs[self.order]
        st = G._starts.tolist()
        self.bounds = list(zip(st, st[1:]))
        self.mass = np.array([self.ps[s:e].sum() for s, e in self.bounds])

    def sums(self, x: np.ndarray) -> np.ndarray:
        xs, ps = x[self.order], self.ps
        return np.array([np.dot(xs[s:e], ps[s:e]) for s, e in self.bounds])

    @cached_property
    def ids(self) -> np.ndarray:
        return _block_ids(self.G)

    def average(self, x: np.ndarray) -> np.ndarray:
        """(sum of x*p) / (sum of p) on each block; zero-mass blocks hold 0."""
        avg = np.zeros(len(self.mass))
        np.divide(self.sums(x), self.mass, out=avg, where=self.mass != 0.0)
        return avg[self.ids]

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
    _check_alignment(X, G, space)
    blocks = _BlockSums(G, space)
    return ConditionedRV._of(blocks.average(X._x), zero_mass_blocks=blocks.zero_mass())


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
    if not 1 <= j_max < math.inf:
        raise ValueError(f"j_max must be >= 1 and finite, got {j_max}")
    _check_alignment(X, G, space)
    blocks = _BlockSums(G, space)
    xv = X._x
    x_plus = np.maximum(xv, 0.0)
    x_minus = np.maximum(-xv, 0.0)
    top = max(x_plus.max(initial=0.0), x_minus.max(initial=0.0))

    levels = _ladder_indices(j_max)
    history = []
    result = None
    converged = False
    j_reached = levels[-1]
    for j in levels:
        tp = np.minimum(x_plus, float(j))
        tm = np.minimum(x_minus, float(j))
        xi_p, xi_m = blocks.average(tp), blocks.average(tm)
        history.append((j, tuple(xi_p.tolist()), tuple(xi_m.tolist())))
        result = blocks.average(tp - tm)
        if top <= j:
            converged = True
            j_reached = j
            break
    return L1LadderResult._of(
        result,
        zero_mass_blocks=blocks.zero_mass(),
        converged=converged,
        j_reached=j_reached,
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
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_alignment(X, G, space)
    if len(xi) != space.n:
        raise ValueError(f"candidate has {len(xi)} values for {space.n} atoms")
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
    """Evaluate both sides of the pairing bound and compare."""
    if len(X) != space.n or len(Y) != space.n:
        raise ValueError("X and Y must align with the atoms of the space")
    p, x, y = space._probs, X._x, Y._x
    lhs = abs(float(np.dot(x * y, p)))
    norm_x = float(np.dot(np.abs(x) ** exps.p, p)) ** (1.0 / exps.p)
    norm_y = float(np.dot(np.abs(y) ** exps.q, p)) ** (1.0 / exps.q)
    rhs = norm_x * norm_y
    return HolderReport(
        lhs=lhs, rhs=rhs, p=exps.p, q=exps.q, passed=lhs <= rhs + 1e-12
    )
