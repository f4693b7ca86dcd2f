"""Quantum Fisher information: logarithmic derivatives, operators, and checks.

All superoperator solves go through the eigenbasis coefficient formula
c_f(l_i, l_j) = l_j f(l_i / l_j), which is exact for strictly positive states.
quantum_fisher returns the classical FisherOperator type, built from the Gram
factor whose columns are the directions scaled by (K^f)^{-1/2} in the state
eigenbasis, less a known null vector.  The SLD factor is real (the d^2 real
coordinates of Hermitian matrices), so its Fisher matrix is real symmetric on
tangent coordinates; RLD and other complex-valued forms use the complex
factor, and their Fisher matrices are Hermitian on the complexified
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import FisherOperator, _deflate, fisher_operator, model_from_povm
from .operator_core import (
    MonotoneFunction,
    RLD_FUNCTION,
    SLD_FUNCTION,
    SuperOperatorKf,
    _index_maps,
    kf_superoperator,
    tangent_basis,
)
from .quantum import (
    KrausChannel,
    Povm,
    QuantumState,
    _as_state,
    pvm_of_observable,
)


def log_derivative(
    s: QuantumState | np.ndarray, phi: np.ndarray, f: MonotoneFunction = SLD_FUNCTION
) -> np.ndarray:
    """The f-logarithmic derivative L in the direction phi: K^f_rho(L) = phi.

    For the SLD function this solves (rho L + L rho) / 2 = phi and is
    Hermitian; for the RLD function it equals rho^{-1} phi.
    """
    return kf_superoperator(_as_state(s).rho, f).apply_inverse(phi)


def quantum_fisher(
    s: QuantumState | np.ndarray,
    f: MonotoneFunction = SLD_FUNCTION,
    pushforward: KrausChannel | None = None,
) -> FisherOperator:
    """f-Fisher information operator of the affine family (optionally pushed).

    The e_a are the elements of tangent_basis(d) for the state's dimension d.
    Without a pushforward the entries are Tr[e_a L^f(e_b)] at the given state.
    With a channel E the model becomes theta -> E(rho0 + theta): the state is
    pushed through E and the basis directions through its Kraus operators.
    """
    return _pushed_fisher(_as_state(s).rho, f, pushforward)[0]


def _pushed_fisher(
    rho: np.ndarray, f: MonotoneFunction, pushforward: KrausChannel | None
) -> tuple[FisherOperator, SuperOperatorKf]:
    """quantum_fisher's operator and the K^f of sigma = E(rho) that it is built on.

    rho is pushed once and sigma diagonalized once; the error-disturbance witness
    solves its SLD with the same K^f.  In the eigenbasis u of sigma the entries are
    Tr[h_a^H h_b] with h_a = (u^H E(e_a) u) / sqrt(c_f), the columns of a Gram factor.
    With K' = u^H K (K' = u^H without a channel), the Choi-form tensor
    t[i,j,m,k] = sum_l K'_l[i,j] conj(K'_l[m,k]) is one matmul, and
    (u^H E(e_a) u)[i,m] = sum_jk e_a[j,k] t[i,j,m,k] = Tr[e_a^H t[i,:,m,:]^T], because e_a is
    Hermitian.  So is h_a.  The pair entries and diagonal of each t[i,:,m,:]^T are gathered
    straight out of t, one flat index each, at the pairs (i, m) the factor reads; t is freed,
    and TangentBasis._combine pairs them with every e_a.  The d' rows h_a[i,i], less their
    left-null vector sqrt(l) of sigma, come first, then sqrt(2) h_a[i,m] (i < m) as real and
    imaginary parts (SLD) or h_a[i,m] for i < m and then i > m.
    """
    sigma = rho if pushforward is None else pushforward(rho)
    k = kf_superoperator(sigma, f)
    uh = k.state_eigenvectors.conj().T
    kp = uh[None] if pushforward is None else uh @ pushforward.kraus
    _, dp, d = kp.shape
    flat, s = kp.reshape(-1, dp * d), dp * d
    t = (flat.T @ flat.conj()).reshape(-1)  # t[i,j,m,k] at (i s + j) s + m d + k
    sld = f is SLD_FUNCTION  # by identity: another f named "sld" need not be symmetric
    (r, c), n, parts = _index_maps(dp)[0], np.arange(dp), 2 if sld else 3
    i, m = np.concatenate([n, r, c][:parts]), np.concatenate([n, c, r][:parts])
    (j, q), at = _index_maps(d)[0], ((i * s + m) * d)[:, None]
    y = [t[at + o] for o in (q * s + j, j * s + q, np.arange(d) * (s + 1))]  # y_jq, y_qj, diag
    del t
    h = tangent_basis(d)._combine(*y)  # h[pair, a]
    h *= (1 / np.sqrt(k.coefficients[i, m]))[:, None]  # bit for bit numpy's h / sqrt(c), faster
    # c_f(l, l) = l f(1) = l, so sum_i sqrt(l_i) h_a[i, i] = Tr E(e_a) = 0
    diag, off = _deflate(h[:dp], np.sqrt(k.state_eigenvalues)), h[dp:]
    if sld:  # h_a is Hermitian: its d'^2 real coordinates carry the real form Tr[h_a h_b]
        off *= np.sqrt(2)
    factor = np.concatenate([diag.real, off.real, off.imag] if sld else [diag, off])
    del y, h, off  # the gather and h are freed before FisherOperator's own arrays
    return FisherOperator(factor), k


@dataclass(frozen=True)
class CramerRaoReport:
    """Loewner gaps J^S - J^M and J^R - J^M, with the SLD and RLD operators used."""

    sld_gap_min_eig: float
    rld_gap_min_eig: float
    holds: bool
    sld: FisherOperator
    rld: FisherOperator


def quantum_cr_check(s: QuantumState | np.ndarray, m: Povm) -> CramerRaoReport:
    """Check J^M <= J^S and J^M <= J^R for a POVM on a strictly positive state.

    The RLD gap is evaluated as a Hermitian form on the complexified
    coordinates, with the (real) classical Fisher matrix embedded.
    """
    s = _as_state(s)
    jm = fisher_operator(model_from_povm(s, m)).matrix
    sld = quantum_fisher(s, SLD_FUNCTION)
    rld = quantum_fisher(s, RLD_FUNCTION)
    js, jr = sld.matrix, rld.matrix
    sld_gap = float(np.linalg.eigvalsh(js - jm).min())
    rld_gap = float(np.linalg.eigvalsh(jr - jm).min())
    holds = sld_gap >= -1e-8 * max(np.linalg.norm(js), 1.0) and rld_gap >= -1e-8 * max(
        np.linalg.norm(jr), 1.0
    )
    return CramerRaoReport(
        sld_gap_min_eig=sld_gap, rld_gap_min_eig=rld_gap, holds=holds, sld=sld, rld=rld
    )


def sld_optimal_pvm(s: QuantumState | np.ndarray, phi: np.ndarray) -> Povm:
    """The PVM in the eigenbasis of the SLD, which attains (phi, J^S phi).

    Measuring it gives a classical Fisher quadratic form along phi equal to
    the SLD quantum Fisher form.  The SLD of a Hermitian direction is
    Hermitian; its Hermitian part is taken because a large direction (one
    solved from a near-singular Fisher operator) carries a rounding residue
    that would fail the Hermiticity check.
    """
    return _sld_pvm(kf_superoperator(_as_state(s).rho, SLD_FUNCTION), phi)


def _sld_pvm(k: SuperOperatorKf, phi: np.ndarray) -> Povm:
    """sld_optimal_pvm for the K^S of a positive definite matrix of any trace, e.g. E(rho)."""
    l = k.apply_inverse(phi)
    return pvm_of_observable((l + l.conj().T) / 2)
