"""Riesz representers and vector-valued expectations on L2(0,1).

A separable Hilbert space is modelled by its coefficient space against a
fixed orthonormal basis truncated to N terms. Continuous linear functionals
are tabulated on the basis; their representers are then literal coefficient
vectors, and the expectation of a vector-valued random variable is the
representer of u -> E<u, X>.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import IntegrabilityError
from .numerics import QuadratureRule, _check_finite, _evaluate, gauss_legendre

__all__ = [
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


@lru_cache(maxsize=32)
def _cached_rule(n_nodes: int) -> QuadratureRule:
    return gauss_legendre(n_nodes, 0.0, 1.0)


@dataclass(frozen=True)
class OrthonormalBasis:
    """Orthonormal basis e_0..e_{N-1} of L2(0,1).

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
        if self.size < 1:
            raise ValueError(f"basis size must be >= 1, got {self.size}")

    def evaluate(self, index: int, t) -> np.ndarray:
        """Value of e_index at points t in (0,1)."""
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} outside 0..{self.size - 1}")
        t = np.asarray(t, dtype=float)
        if self.kind == "shifted_legendre":
            coeff = np.zeros(index + 1)
            coeff[index] = np.sqrt(2 * index + 1)
            return np.polynomial.legendre.legval(2.0 * t - 1.0, coeff)
        return np.sqrt(2.0) * np.sin((index + 1) * np.pi * t)

    def evaluate_all(self, t) -> np.ndarray:
        """Matrix of basis values, shape (size, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "shifted_legendre":
            V = np.polynomial.legendre.legvander(2.0 * t - 1.0, self.size - 1)
            scale = np.sqrt(2.0 * np.arange(self.size) + 1.0)
            return (V * scale).T
        k = np.arange(1, self.size + 1)
        return np.sqrt(2.0) * np.sin(np.outer(k, np.pi * t))

    def indicator_coefficients(self, omega: float) -> np.ndarray:
        """Exact coefficients of the indicator of (0, omega).

        Closed-form antiderivatives of the basis functions; used by the
        segment-indicator law where generic quadrature of a discontinuous
        integrand would be wasteful.
        """
        if not 0.0 <= omega <= 1.0:
            raise ValueError(f"omega must lie in [0, 1], got {omega}")
        n = self.size
        if self.kind == "fourier_sine":
            k = np.arange(1, n + 1)
            return np.sqrt(2.0) * (1.0 - np.cos(k * np.pi * omega)) / (k * np.pi)
        # int_0^w P_i(2t-1) dt = (P_{i+1} - P_{i-1})(2w-1) / (2(2i+1))
        z = 2.0 * omega - 1.0
        P = np.polynomial.legendre.legvander(np.array([z]), n)[0]
        c = np.empty(n)
        c[0] = omega
        if n > 1:
            i = np.arange(1, n)
            c[1:] = (P[2 : n + 1] - P[0 : n - 1]) / (2.0 * np.sqrt(2 * i + 1))
        return c

    def projection_rule(self, n_nodes: int | None = None) -> QuadratureRule:
        """Default quadrature for inner products against this basis.

        The sine kind needs roughly three nodes per basis index to push the
        Gram matrix to 1e-8 identity; the polynomial kind is exact at
        far fewer.
        """
        if n_nodes is None:
            if self.kind == "fourier_sine":
                n_nodes = max(64, 3 * self.size)
            else:
                n_nodes = max(64, self.size + 16)
        return _cached_rule(int(n_nodes))

    def gram_matrix(self, n_nodes: int | None = None) -> np.ndarray:
        rule = self.projection_rule(n_nodes)
        E = self.evaluate_all(rule.nodes)
        return (E * rule.weights) @ E.T


@dataclass(frozen=True)
class HilbertVector:
    """Coefficient vector against an orthonormal basis."""

    coeffs: np.ndarray
    basis: OrthonormalBasis

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
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
        c[index] = 1.0
        return cls(c, basis)


def _check_same_basis(u: HilbertVector, v: HilbertVector) -> None:
    if u.basis != v.basis:
        raise ValueError(
            f"basis mismatch: {u.basis.kind}/{u.basis.size} vs {v.basis.kind}/{v.basis.size}"
        )


def inner_product(u: HilbertVector, v: HilbertVector) -> float:
    """<u, v> as the coefficient dot product (Parseval)."""
    _check_same_basis(u, v)
    return float(np.dot(u.coeffs, v.coeffs))


def project(
    f: Callable,
    basis: OrthonormalBasis,
    n_nodes: int | None = None,
    breakpoints: Sequence[float] | None = None,
) -> HilbertVector:
    """Coefficients <f, e_i> of a square-integrable f by quadrature.

    ``breakpoints`` splits (0,1) at known discontinuities of f so each
    smooth piece gets its own Gauss-Legendre panel.
    """
    if breakpoints:
        edges = [0.0] + sorted(x for x in breakpoints if 0.0 < x < 1.0) + [1.0]
        per_piece = n_nodes if n_nodes is not None else max(64, basis.size + 16)
        rules = [
            gauss_legendre(per_piece, lo, hi)
            for lo, hi in zip(edges[:-1], edges[1:])
            if hi > lo
        ]
        nodes = np.concatenate([r.nodes for r in rules])
        weights = np.concatenate([r.weights for r in rules])
    else:
        rule = basis.projection_rule(n_nodes)
        nodes, weights = rule.nodes, rule.weights

    fv = _evaluate(f, nodes)
    _check_finite(fv, nodes)
    E = basis.evaluate_all(nodes)
    return HilbertVector(E @ (weights * fv), basis)


def riesz_representer(l_on_basis: Sequence[float], basis: OrthonormalBasis) -> HilbertVector:
    """Representer of the functional tabulated as L(e_i) = l_on_basis[i].

    In coordinates the representer is the tabulation itself: w with
    w_i = L(e_i) satisfies <u, w> = sum_i u_i L(e_i) for every u.
    """
    values = np.asarray(l_on_basis, dtype=float)
    if values.shape != (basis.size,):
        raise ValueError(f"expected {basis.size} functional values, got {values.shape}")
    return HilbertVector(values, basis)


@dataclass(frozen=True)
class DiscreteHValuedLaw:
    """Law of a Hilbert-space-valued random variable.

    Either a finite list of ``(probability, vector)`` atoms, or a sampler
    omega -> vector on (0,1) integrated against ``omega_rule`` (uniform
    base measure).
    """

    basis: OrthonormalBasis
    atoms: tuple | None = None
    sampler: Callable[[float], HilbertVector] | None = None
    omega_rule: QuadratureRule | None = None

    def __post_init__(self):
        if (self.atoms is None) == (self.sampler is None):
            raise ValueError("provide exactly one of atoms or sampler")
        if self.atoms is not None:
            probs = np.array([p for p, _ in self.atoms], dtype=float)
            if np.any(probs < 0) or np.any(probs > 1):
                raise ValueError("atom probabilities must lie in [0, 1]")
            if abs(probs.sum() - 1.0) > 1e-12:
                raise ValueError(
                    f"atom probabilities sum to {probs.sum()!r}, expected 1 within 1e-12"
                )
            for _, v in self.atoms:
                if v.basis != self.basis:
                    raise ValueError("atom vectors must share the law's basis")

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, HilbertVector]]) -> "DiscreteHValuedLaw":
        atoms = tuple((float(p), v) for p, v in atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        return cls(basis=atoms[0][1].basis, atoms=atoms)

    @classmethod
    def from_sampler(
        cls,
        sampler: Callable[[float], HilbertVector],
        basis: OrthonormalBasis,
        omega_rule: QuadratureRule | None = None,
    ) -> "DiscreteHValuedLaw":
        return cls(basis=basis, sampler=sampler, omega_rule=omega_rule)

    def _rule(self) -> QuadratureRule:
        # 64 nodes resolve the piecewise-smooth coefficient integrands of
        # the segment-indicator example; callers can override.
        return self.omega_rule if self.omega_rule is not None else _cached_rule(64)

    def coefficient_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(weights, matrix) with one sampled coefficient row per omega node."""
        rule = self._rule()
        rows = np.empty((rule.nodes.size, self.basis.size))
        for k, om in enumerate(rule.nodes):
            v = self.sampler(om)
            if v.basis != self.basis:
                raise ValueError("sampler returned a vector on a different basis")
            rows[k] = v.coeffs
        return rule.weights, rows


def bochner_expectation(
    law: DiscreteHValuedLaw, basis: OrthonormalBasis | None = None
) -> HilbertVector:
    """Expectation vector E(X): the representer of u -> E<u, X>.

    Coefficient i is E<X, e_i>, a weighted sum over atoms or a quadrature
    over omega for sampler laws.
    """
    if basis is not None and basis != law.basis:
        raise ValueError("basis does not match the law's basis")
    if law.atoms is not None:
        c = np.zeros(law.basis.size)
        total = 0.0
        for p, v in law.atoms:
            c += p * v.coeffs
            total += p * v.norm()
        if not (np.isfinite(total) and np.all(np.isfinite(c))):
            raise IntegrabilityError("expected norm of the atom law is not finite")
        return HilbertVector(c, law.basis)
    weights, rows = law.coefficient_matrix()
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    c = weights @ rows
    if not (np.all(np.isfinite(norms)) and np.all(np.isfinite(c))):
        raise IntegrabilityError("expected norm of the sampled law is not finite")
    return HilbertVector(c, law.basis)


def expected_norm(law: DiscreteHValuedLaw) -> float:
    """E ||X||, the integrability functional of the law."""
    if law.atoms is not None:
        total = sum(p * v.norm() for p, v in law.atoms)
        if not np.isfinite(total):
            raise IntegrabilityError("expected norm is not finite")
        return float(total)
    weights, rows = law.coefficient_matrix()
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if not np.all(np.isfinite(norms)):
        raise IntegrabilityError("expected norm is not finite")
    return float(np.dot(weights, norms))


def prefix_indicator_law(
    basis: OrthonormalBasis, omega_rule: QuadratureRule | None = None
) -> DiscreteHValuedLaw:
    """Law of the segment indicator omega -> 1_(0,omega) under uniform omega.

    The worked example of the expectation construction: its expectation is
    the function t -> 1 - t, and its expected norm is 2/3. Coefficients are
    computed from closed-form antiderivatives, so the only approximations
    are basis truncation and the omega quadrature.
    """
    def sampler(omega: float) -> HilbertVector:
        return HilbertVector(basis.indicator_coefficients(omega), basis)

    return DiscreteHValuedLaw.from_sampler(sampler, basis, omega_rule)
