"""Quantum Fisher information: logarithmic derivatives, operators, and checks.

All superoperator solves go through the eigenbasis coefficient formula
c_f(l_i, l_j) = l_j f(l_i / l_j), which is exact for strictly positive states.
quantum_fisher returns the classical FisherOperator type, built from the Gram
factor whose columns are the directions scaled by (K^f)^{-1/2} in the state
eigenbasis.  The SLD factor is real (the d^2 real coordinates of Hermitian
matrices), so its Fisher matrix is real symmetric on tangent coordinates; RLD
and other complex-valued forms use the complex factor, and their Fisher
matrices are Hermitian on the complexified coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import FisherOperator, fisher_operator, model_from_povm
from .errors import InvalidOperandError
from .operator_core import (
    MonotoneFunction,
    RLD_FUNCTION,
    SLD_FUNCTION,
    TangentBasis,
    hs_inner,
    kf_superoperator,
    tangent_basis,
)
from .quantum import (
    KrausChannel,
    Povm,
    QuantumState,
    _as_state_matrix,
    pvm_of_observable,
)


@dataclass(frozen=True)
class LogDerivative:
    """Solution L of K^f_rho(L) = phi for a tangent direction phi."""

    direction: np.ndarray
    kind: str
    matrix: np.ndarray


def log_derivative(
    s: QuantumState | np.ndarray, phi: np.ndarray, f: MonotoneFunction = SLD_FUNCTION
) -> LogDerivative:
    """The f-logarithmic derivative in the direction phi.

    For the SLD function this solves (rho L + L rho) / 2 = phi and is
    Hermitian; for the RLD function it equals rho^{-1} phi.
    """
    rho = _as_state_matrix(s)
    phi = np.asarray(phi, dtype=complex)
    if phi.shape != rho.shape:
        raise InvalidOperandError("direction dimension mismatch")
    k = kf_superoperator(rho, f)
    return LogDerivative(direction=phi, kind=f.name, matrix=k.apply_inverse(phi))


def quantum_fisher(
    s: QuantumState | np.ndarray,
    f: MonotoneFunction = SLD_FUNCTION,
    pushforward: KrausChannel | None = None,
    basis: TangentBasis | None = None,
) -> FisherOperator:
    """f-Fisher information operator of the affine family (optionally pushed).

    Without a pushforward the entries are Tr[e_a L^f(e_b)] at the given state.
    With a channel E the model becomes theta -> E(rho0 + theta), so both the
    state and the basis directions are pushed through E before the solve.
    In the eigenbasis u of the state sigma the entries are Tr[h_a^H h_b] with
    h_a = (u^H X_a u) / sqrt(c_f), so the h_a are the columns of a Gram factor.
    """
    rho = _as_state_matrix(s)
    d = rho.shape[0]
    if basis is None:
        basis = tangent_basis(d)
    images = basis.elements
    sigma = rho
    if pushforward is not None:
        if pushforward.dim_in != d:
            raise InvalidOperandError("channel input dimension mismatch")
        sigma = pushforward(rho)
        images = np.array([pushforward(e) for e in basis.elements])
    k = kf_superoperator(sigma, f)
    u = k.state_eigenvectors
    h = (u.conj().T @ images @ u) / np.sqrt(k.coefficients)
    if f.name == SLD_FUNCTION.name:
        # h_a is Hermitian: its d^2 real coordinates carry the real form Tr[h_a h_b]
        upper = np.triu_indices(h.shape[1], 1)
        off = np.sqrt(2) * h[:, upper[0], upper[1]]
        h = np.concatenate([np.diagonal(h, axis1=1, axis2=2).real, off.real, off.imag], axis=1)
    return FisherOperator(h.reshape(h.shape[0], -1).T)


@dataclass(frozen=True)
class CramerRaoReport:
    sld_gap_min_eig: float
    rld_gap_min_eig: float
    holds: bool


def quantum_cr_check(
    s: QuantumState | np.ndarray, m: Povm, basis: TangentBasis | None = None
) -> CramerRaoReport:
    """Check J^M <= J^S and J^M <= J^R for a POVM on a full-rank state.

    The RLD gap is evaluated as a Hermitian form on the complexified
    coordinates, with the (real) classical Fisher matrix embedded.
    """
    rho = _as_state_matrix(s)
    if basis is None:
        basis = tangent_basis(rho.shape[0])
    jm = fisher_operator(model_from_povm(rho, m, basis)).matrix
    js = quantum_fisher(rho, SLD_FUNCTION, basis=basis).matrix
    jr = quantum_fisher(rho, RLD_FUNCTION, basis=basis).matrix
    sld_gap = float(np.linalg.eigvalsh(js - jm).min())
    rld_gap = float(np.linalg.eigvalsh(jr - jm.astype(complex)).min())
    holds = sld_gap >= -1e-8 * max(np.linalg.norm(js), 1.0) and rld_gap >= -1e-8 * max(
        np.linalg.norm(jr), 1.0
    )
    return CramerRaoReport(sld_gap_min_eig=sld_gap, rld_gap_min_eig=rld_gap, holds=holds)


def sld_optimal_pvm(s: QuantumState | np.ndarray, phi: np.ndarray) -> Povm:
    """The PVM in the eigenbasis of the SLD, which attains (phi, J^S phi).

    Measuring it gives a classical Fisher quadratic form along phi equal to
    the SLD quantum Fisher form.  The SLD of a Hermitian direction is
    Hermitian; its Hermitian part is taken because a large direction (one
    solved from a near-singular Fisher operator) carries a rounding residue
    that would fail the Hermiticity check.
    """
    l = log_derivative(s, phi, SLD_FUNCTION).matrix
    return pvm_of_observable((l + l.conj().T) / 2)


def monotone_metric_value(
    s: QuantumState | np.ndarray,
    f: MonotoneFunction,
    v: np.ndarray,
    w: np.ndarray,
) -> complex:
    """G^f_rho(V, W) = Tr[V^dagger (K^f_rho)^{-1} W]."""
    rho = _as_state_matrix(s)
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    if v.shape != rho.shape or w.shape != rho.shape:
        raise InvalidOperandError("tangent dimension mismatch")
    k = kf_superoperator(rho, f)
    return hs_inner(v, k.apply_inverse(w))
