"""Conditional expectation on finite measure spaces.

Everything here is exact finite linear algebra: a finite atom list
carries the probabilities, a partition of the atoms plays the role of
the sub-sigma-algebra, and conditional expectation is the block average.
The averaging identity (same integral over every block) is then
machine-checkable, and the L1 construction through truncation at
increasing levels stabilizes after finitely many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class FiniteMeasureSpace:
    """Finite probability space: labelled atoms with nonnegative masses summing to 1."""

    atoms: tuple[tuple[str, float], ...]

    def __post_init__(self):
        atoms = tuple((str(lab), float(p)) for lab, p in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        labels = tuple(lab for lab, _ in atoms)
        if len(set(labels)) != len(labels):
            raise ValueError("atom labels must be unique")
        probs = np.array([p for _, p in atoms])
        if np.any(probs < 0) or not np.all(np.isfinite(probs)):
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(probs.sum() - 1.0) > _MASS_TOL:
            raise ValueError(f"probabilities sum to {probs.sum()!r}, not 1")
        # built once; not fields, so equality and repr stay those of ``atoms``
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_probs", probs)

    @classmethod
    def uniform(cls, n: int) -> "FiniteMeasureSpace":
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        return cls(tuple((str(k + 1), 1.0 / n) for k in range(n)))

    @property
    def n(self) -> int:
        return len(self.atoms)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def probabilities(self) -> np.ndarray:
        """A fresh copy of the atom masses; callers may write into it."""
        return self._probs.copy()


@dataclass(frozen=True)
class RandomVariable:
    """Real values aligned with the atoms of a FiniteMeasureSpace."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(np.isfinite(vals)):
            raise ValueError("values must all be finite")

    @property
    def array(self) -> np.ndarray:
        return np.array(self.values)

    def __len__(self) -> int:
        return len(self.values)


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
class Partition:
    """Disjoint blocks of atom indices; stands in for a sub-sigma-algebra."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("blocks must be nonempty")
        flat = [i for b in blocks for i in b]
        if len(set(flat)) != len(flat):
            raise ValueError("blocks must be pairwise disjoint")
        if min(flat) < 0:
            raise ValueError("negative atom index")
        # disjoint nonnegative indices cover 0..n-1 iff there are n of them, all below n
        object.__setattr__(self, "_span", (len(flat), max(flat)))

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
            left_out = sorted(set(range(len(labels))).difference(*part.blocks))
            raise ValueError(
                f"partition spec {spec!r} does not cover atoms {left_out}"
            )
        return part

    def covers(self, n: int) -> bool:
        """Whether the blocks cover exactly the atom indices 0..n-1."""
        count, largest = self._span
        return count == n and largest < n


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


def _blocks(G: Partition, space: FiniteMeasureSpace) -> list:
    """(index array, probabilities, mass) of each block, computed once."""
    p = space.probabilities
    return [(idx, p[idx], float(p[idx].sum())) for idx in map(np.array, G.blocks)]


def _block_average(x: np.ndarray, blocks: list) -> np.ndarray:
    """(sum of x*p) / (sum of p) on each block; zero-mass blocks hold 0."""
    xi = np.zeros(len(x))
    for idx, p, mass in blocks:
        if mass != 0.0:
            xi[idx] = float(np.dot(x[idx], p)) / mass
    return xi


def _zero_mass(blocks: list) -> tuple[int, ...]:
    return tuple(bi for bi, (_, _, mass) in enumerate(blocks) if mass == 0.0)


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
    blocks = _blocks(G, space)
    xi = _block_average(X.array, blocks)
    return ConditionedRV(values=tuple(xi), zero_mass_blocks=_zero_mass(blocks))


def cond_expectation_l1(
    X: RandomVariable, G: Partition, space: FiniteMeasureSpace, j_max: int = 64
) -> L1LadderResult:
    """Conditional expectation via the truncation ladder min(X, j).

    Splits X into positive and negative parts, truncates both at level j,
    and conditions the difference; levels double up to j_max. On a finite
    space the ladder stabilizes exactly once j bounds both parts, at
    which point min(X+-, j) = X+- bitwise and the result coincides with
    cond_expectation(X) exactly; if j_max is too small the last ladder
    state is returned with ``converged=False``.
    """
    if j_max < 1:
        raise ValueError(f"j_max must be >= 1, got {j_max}")
    _check_alignment(X, G, space)
    blocks = _blocks(G, space)
    xv = X.array
    x_plus = np.maximum(xv, 0.0)
    x_minus = np.maximum(-xv, 0.0)

    levels = _ladder_indices(j_max)
    history = []
    result = None
    converged = False
    j_reached = levels[-1]
    for j in levels:
        tp = np.minimum(x_plus, float(j))
        tm = np.minimum(x_minus, float(j))
        xi_p, xi_m = _block_average(tp, blocks), _block_average(tm, blocks)
        history.append((j, tuple(xi_p.tolist()), tuple(xi_m.tolist())))
        result = _block_average(tp - tm, blocks)
        if np.all(x_plus <= j) and np.all(x_minus <= j):
            converged = True
            j_reached = j
            break
    return L1LadderResult(
        values=tuple(result),
        zero_mass_blocks=_zero_mass(blocks),
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

    ``tol`` must be positive (``ValueError`` otherwise; NaN included).
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    _check_alignment(X, G, space)
    if len(xi) != space.n:
        raise ValueError(f"candidate has {len(xi)} values for {space.n} atoms")
    xv, cv = X.array, xi.array
    residuals = [
        abs(float(np.dot(xv[idx], p)) - float(np.dot(cv[idx], p)))
        for idx, p, _ in _blocks(G, space)
    ]
    return DualityReport(
        residuals=tuple(residuals), tol=tol, passed=all(r < tol for r in residuals)
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
    p = space.probabilities
    lhs = abs(float(np.dot(X.array * Y.array, p)))
    norm_x = float(np.dot(np.abs(X.array) ** exps.p, p)) ** (1.0 / exps.p)
    norm_y = float(np.dot(np.abs(Y.array) ** exps.q, p)) ** (1.0 / exps.q)
    rhs = norm_x * norm_y
    return HolderReport(
        lhs=lhs, rhs=rhs, p=exps.p, q=exps.q, passed=lhs <= rhs + 1e-12
    )
