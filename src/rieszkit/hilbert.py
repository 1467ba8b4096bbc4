"""Riesz representers and vector-valued expectations on L2(0,1).

A separable Hilbert space is modelled by its coefficient space against a
fixed orthonormal basis truncated to N terms. Continuous linear functionals
are tabulated on the basis; their representers are then literal coefficient
vectors, and the expectation of a vector-valued random variable is the
representer of u -> E<u, X>.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrabilityError
from .numerics import (
    QuadratureRule, _check_finite, _check_probabilities, _count, _cut, _evaluate, _real_array,
    gauss_legendre,
)

__all__ = [
    "BASIS_KINDS",
    "OrthonormalBasis",
    "HilbertVector",
    "DiscreteHValuedLaw",
    "inner_product",
    "project",
    "riesz_representer",
    "bochner_expectation",
    "expected_norm",
    "prefix_indicator_law",
]

BASIS_KINDS = ("shifted_legendre", "fourier_sine")


def _omega_rule() -> QuadratureRule:
    """The default omega rule: 64 nodes resolve the segment indicator's coefficients."""
    return gauss_legendre(64, 0.0, 1.0)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis e_0..e_{N-1} of L2(0,1); N, the ``size``, is a count >= 1.

    Kinds:

    * ``shifted_legendre``: sqrt(2i+1) * P_i(2t-1), polynomial and exact for
      low-degree targets.
    * ``fourier_sine``: sqrt(2) * sin((i+1) pi t), kept around to expose
      Gibbs behaviour on discontinuous targets.
    """

    kind: str = "shifted_legendre"
    size: int = 32

    def __post_init__(self):
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        object.__setattr__(self, "size", _count(self.size, "basis size"))

    def evaluate(self, index: int, t) -> np.ndarray:
        """e_index at points t in (0,1), shaped as t: row ``index`` of
        ``evaluate_all(t)``, built on the basis truncated after e_index;
        ``index`` is a count in 0..size-1."""
        index = _count(index, "index", 0, self.size - 1)
        row = OrthonormalBasis(self.kind, index + 1).evaluate_all(t)[index]
        return row.reshape(np.shape(t))[()]

    def evaluate_all(self, t) -> np.ndarray:
        """Matrix of basis values at the flattened points t, shape (size, t.size)."""
        t = np.ravel(np.asarray(t, dtype=float))
        if self.kind == "shifted_legendre":
            V = np.polynomial.legendre.legvander(2.0 * t - 1.0, self.size - 1)
            scale = np.sqrt(2.0 * np.arange(self.size) + 1.0)
            return (V * scale).T
        k = np.arange(1, self.size + 1)
        return np.sqrt(2.0) * np.sin(np.outer(k, np.pi * t))

    def indicator_coefficients(self, omega) -> np.ndarray:
        """Exact coefficients of the indicator of (0, omega).

        Closed-form antiderivatives of the basis functions; used by the
        segment-indicator law where generic quadrature of a discontinuous
        integrand would be wasteful. A scalar omega gives one coefficient
        vector; an array of omegas gives one row per omega, each equal to
        the vector of that omega alone.
        """
        om = np.asarray(omega, dtype=float)
        w = np.atleast_1d(om)[:, None]
        inside = (w >= 0.0) & (w <= 1.0)
        if not inside.all():
            raise ValueError(f"omega must lie in [0, 1], got {w[~inside][0]}")
        n = self.size
        if self.kind == "fourier_sine":
            k = np.arange(1, n + 1)
            c = np.sqrt(2.0) * (1.0 - np.cos(k * np.pi * w)) / (k * np.pi)
        else:
            # int_0^w P_i(2t-1) dt = (P_{i+1} - P_{i-1})(2w-1) / (2(2i+1))
            P = np.polynomial.legendre.legvander(2.0 * w[:, 0] - 1.0, n)
            c = np.empty((len(w), n))
            c[:, 0] = w[:, 0]
            i = np.arange(1, n)
            c[:, 1:] = (P[:, 2:] - P[:, : n - 1]) / (2.0 * np.sqrt(2 * i + 1))
        return c[0] if om.ndim == 0 else c

    def _rule_size(self) -> int:
        """Gauss-Legendre nodes per projection panel. The sine kind needs
        roughly three per basis index to push the Gram matrix to 1e-8
        identity; the polynomial kind is exact at far fewer."""
        return max(64, 3 * self.size if self.kind == "fourier_sine" else self.size + 16)

    def projection_rule(self) -> QuadratureRule:
        """Quadrature for inner products against this basis, on (0, 1)."""
        return gauss_legendre(self._rule_size(), 0.0, 1.0)

    def gram_matrix(self) -> np.ndarray:
        rule = self.projection_rule()
        E = self.evaluate_all(rule.nodes)
        return (E * rule.weights) @ E.T


@dataclass(frozen=True, eq=False)
class HilbertVector:
    """Coefficient vector against an orthonormal basis; ``coeffs`` is
    read-only, and ``==`` and ``hash`` go by identity."""

    coeffs: np.ndarray
    basis: OrthonormalBasis

    def __post_init__(self):
        # a read-only view: a caller's float array keeps its flags, and its later writes show
        coeffs = _real_array(self.coeffs, "coeffs").view()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        if coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"expected {self.basis.size} coefficients, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coefficients must be finite")

    def norm(self) -> float:
        """Parseval norm at the truncation level; inf on overflow."""
        with np.errstate(over="ignore"):
            return float(np.sqrt(np.dot(self.coeffs, self.coeffs)))

    def reconstruct(self, t) -> np.ndarray:
        """Pointwise values of sum_i c_i e_i(t)."""
        return self.coeffs @ self.basis.evaluate_all(t)

    @classmethod
    def zero(cls, basis: OrthonormalBasis) -> "HilbertVector":
        return cls(np.zeros(basis.size), basis)

    @classmethod
    def unit(cls, basis: OrthonormalBasis, index: int) -> "HilbertVector":
        c = np.zeros(basis.size)
        c[_count(index, "index", 0, basis.size - 1)] = 1.0
        return cls(c, basis)


def _check_same_basis(a: OrthonormalBasis, b: OrthonormalBasis) -> None:
    if a != b:
        raise ValueError(f"basis mismatch: {a.kind}/{a.size} vs {b.kind}/{b.size}")


def inner_product(u: HilbertVector, v: HilbertVector) -> float:
    """<u, v> as the coefficient dot product (Parseval)."""
    _check_same_basis(u.basis, v.basis)
    return float(np.dot(u.coeffs, v.coeffs))


def project(
    f: Callable, basis: OrthonormalBasis, breakpoints: Sequence[float] | None = None
) -> HilbertVector:
    """Coefficients <f, e_i> of a square-integrable f by quadrature.

    ``breakpoints`` splits (0,1) at known discontinuities of f; it may be
    any sequence or 1-d array of finite reals (``ValueError`` otherwise),
    and a point listed twice splits once. Each smooth piece, or (0,1)
    itself with no breakpoints (None or empty), gets a Gauss-Legendre panel
    with as many nodes as the basis's projection rule, so on any split the
    coefficients of a basis function e_i are the unit vector to rounding.
    """
    _, starts, stops = _cut(0.0, 1.0, () if breakpoints is None else breakpoints)
    rules = [gauss_legendre(basis._rule_size(), lo, hi) for lo, hi in zip(starts, stops)]
    nodes = np.concatenate([r.nodes for r in rules])
    weights = np.concatenate([r.weights for r in rules])
    fv = _evaluate(f, nodes)
    _check_finite(fv, nodes)
    E = basis.evaluate_all(nodes)
    return HilbertVector(E @ (weights * fv), basis)


def riesz_representer(l_on_basis: Sequence[float], basis: OrthonormalBasis) -> HilbertVector:
    """Representer of the functional tabulated as L(e_i) = l_on_basis[i].

    In coordinates the representer is the tabulation itself: w with
    w_i = L(e_i) satisfies <u, w> = sum_i u_i L(e_i) for every u.
    """
    return HilbertVector(l_on_basis, basis)


@dataclass(frozen=True, eq=False)
class DiscreteHValuedLaw:
    """Law of a Hilbert-space-valued X as weighted coefficient rows.

    X has coefficients ``rows[k]`` with weight ``weights[k]``: atom
    probabilities and coefficients, or an omega rule's weights and one row
    per node (uniform omega on (0,1)). The arrays are read-only, ``==`` and
    ``hash`` go by identity, and E ||X|| is computed once, here.
    """

    basis: OrthonormalBasis
    weights: np.ndarray
    rows: np.ndarray

    def __post_init__(self):
        # read-only views: the caller's arrays keep their flags, and their later writes show
        weights = _real_array(self.weights, "weights").view()
        rows = _real_array(self.rows, "rows").view()
        weights.flags.writeable = rows.flags.writeable = False
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "rows", rows)
        if (weights.ndim, rows.shape) != (1, (weights.size, self.basis.size)):
            raise ValueError(f"weights {weights.shape} and rows {rows.shape} do not make "
                             f"(K,) and (K, {self.basis.size}) for one K")
        if not np.all(weights >= 0.0):
            raise ValueError("weights must be nonnegative, not NaN")
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
            object.__setattr__(self, "_expected_norm", float(np.dot(weights, norms)))

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, HilbertVector]]) -> "DiscreteHValuedLaw":
        """Law of ``(probability, vector)`` atoms, on the first vector's basis."""
        atoms = tuple(atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        basis = atoms[0][1].basis
        probs = np.array([float(p) for p, _ in atoms])
        _check_probabilities(probs)
        for _, v in atoms:
            _check_same_basis(v.basis, basis)
        return cls(basis, probs, np.array([v.coeffs for _, v in atoms]))

    @classmethod
    def from_sampler(cls, sampler: Callable[[float], HilbertVector], basis: OrthonormalBasis,
                     omega_rule: QuadratureRule | None = None) -> "DiscreteHValuedLaw":
        """Law of omega -> sampler(omega); the sampler runs here, once per omega node."""
        rule = _omega_rule() if omega_rule is None else omega_rule
        rows = np.empty((rule.nodes.size, basis.size))
        for k, om in enumerate(rule.nodes):
            v = sampler(om)
            _check_same_basis(v.basis, basis)
            rows[k] = v.coeffs
        return cls(basis, rule.weights, rows)


def _check_integrable(law: DiscreteHValuedLaw) -> None:
    if not np.isfinite(law._expected_norm):
        raise IntegrabilityError("expected norm of the law is not finite")


def bochner_expectation(law: DiscreteHValuedLaw) -> HilbertVector:
    """Expectation vector E(X): the representer of u -> E<u, X>.

    Coefficient i is E<X, e_i>, so the vector is ``law.weights @ law.rows``.
    Raises ``IntegrabilityError`` unless E ||X|| is finite; as |c_i| <= E ||X||,
    a finite E ||X|| gives a finite expectation.
    """
    _check_integrable(law)
    return HilbertVector(law.weights @ law.rows, law.basis)


def expected_norm(law: DiscreteHValuedLaw) -> float:
    """E ||X||: the law's weights dotted with the norms of its rows, the
    integrability functional of the law. Raises ``IntegrabilityError``
    when it is not finite."""
    _check_integrable(law)
    return law._expected_norm


def prefix_indicator_law(basis: OrthonormalBasis) -> DiscreteHValuedLaw:
    """Law of the segment indicator omega -> 1_(0,omega) under uniform omega.

    The worked example of the expectation construction: its expectation is
    the function t -> 1 - t, and its expected norm is 2/3. Its rows, one per
    node of the 64-point omega rule, come from closed-form antiderivatives in
    one call, so the only approximations are basis truncation and that rule.
    """
    rule = _omega_rule()
    return DiscreteHValuedLaw(basis, rule.weights, basis.indicator_coefficients(rule.nodes))
