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
from .numerics import QuadratureRule, _check_finite, _evaluate, gauss_legendre

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
            if n > 1:
                i = np.arange(1, n)
                c[:, 1:] = (P[:, 2:] - P[:, : n - 1]) / (2.0 * np.sqrt(2 * i + 1))
        return c[0] if om.ndim == 0 else c

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
        return gauss_legendre(int(n_nodes), 0.0, 1.0)

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
        if self.omega_rule is not None:
            return self.omega_rule
        return gauss_legendre(64, 0.0, 1.0)

    def coefficient_matrix(self) -> tuple[np.ndarray, np.ndarray]:
        """(weights, rows): every law as weighted coefficient rows.

        Atom laws give their probabilities and their vectors' coefficients;
        sampler laws give the omega rule's weights and one row per node,
        filled in one call by ``prefix_indicator_law``'s sampler and by one
        call per node for any other sampler.
        """
        if self.atoms is not None:
            probs = np.array([p for p, _ in self.atoms], dtype=float)
            return probs, np.array([v.coeffs for _, v in self.atoms])
        rule = self._rule()
        sampler = self.sampler
        if isinstance(sampler, _PrefixIndicator) and sampler.basis == self.basis:
            return rule.weights, self.basis.indicator_coefficients(rule.nodes)
        rows = np.empty((rule.nodes.size, self.basis.size))
        for k, om in enumerate(rule.nodes):
            v = sampler(om)
            if v.basis != self.basis:
                raise ValueError("sampler returned a vector on a different basis")
            rows[k] = v.coeffs
        return rule.weights, rows


def bochner_expectation(
    law: DiscreteHValuedLaw, basis: OrthonormalBasis | None = None
) -> HilbertVector:
    """Expectation vector E(X): the representer of u -> E<u, X>.

    Coefficient i is E<X, e_i>: with (weights, rows) from
    ``law.coefficient_matrix()``, it is ``weights @ rows``.
    """
    if basis is not None and basis != law.basis:
        raise ValueError("basis does not match the law's basis")
    weights, rows = law.coefficient_matrix()
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    c = weights @ rows
    if not (np.all(np.isfinite(norms)) and np.all(np.isfinite(c))):
        raise IntegrabilityError("expected norm of the law is not finite")
    return HilbertVector(c, law.basis)


def expected_norm(law: DiscreteHValuedLaw) -> float:
    """E ||X||: the weights of ``law.coefficient_matrix()`` dotted with
    the norms of its rows, the integrability functional of the law."""
    weights, rows = law.coefficient_matrix()
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    if not np.all(np.isfinite(norms)):
        raise IntegrabilityError("expected norm is not finite")
    return float(np.dot(weights, norms))


@dataclass(frozen=True)
class _PrefixIndicator:
    """The sampler omega -> 1_(0,omega) of ``prefix_indicator_law``."""

    basis: OrthonormalBasis

    def __call__(self, omega: float) -> HilbertVector:
        return HilbertVector(self.basis.indicator_coefficients(omega), self.basis)


def prefix_indicator_law(
    basis: OrthonormalBasis, omega_rule: QuadratureRule | None = None
) -> DiscreteHValuedLaw:
    """Law of the segment indicator omega -> 1_(0,omega) under uniform omega.

    The worked example of the expectation construction: its expectation is
    the function t -> 1 - t, and its expected norm is 2/3. Coefficients are
    computed from closed-form antiderivatives, so the only approximations
    are basis truncation and the omega quadrature.
    """
    return DiscreteHValuedLaw.from_sampler(_PrefixIndicator(basis), basis, omega_rule)
