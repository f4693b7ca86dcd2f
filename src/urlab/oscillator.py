"""Truncated Fock-space building blocks for the oscillator scenario."""

from __future__ import annotations

import numpy as np

from .errors import InvalidOperandError, _as_dim
from .quantum import KrausChannel, Povm, QuantumState, pvm_of_observable


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, _as_dim(dim))), 1).astype(complex)


def quadrature_q(dim: int) -> np.ndarray:
    """q = (a + a^dagger) / sqrt(2) on the truncated space."""
    a = annihilation(dim)
    return (a + a.conj().T) / np.sqrt(2)


def quadrature_p(dim: int) -> np.ndarray:
    """p = (a - a^dagger) / (i sqrt(2)) on the truncated space."""
    a = annihilation(dim)
    return (a - a.conj().T) / (1j * np.sqrt(2))


def thermal_state(dim: int, mean_photon: float) -> QuantumState:
    """Truncated thermal state, renormalized; its levels fall geometrically with n."""
    if not 0 < mean_photon < np.inf:
        raise InvalidOperandError("mean photon number must be positive and finite")
    n = np.arange(_as_dim(dim))
    lam = (mean_photon / (mean_photon + 1)) ** n / (mean_photon + 1)
    lam = lam / lam.sum()
    return QuantumState(base=np.diag(lam).astype(complex))


def homodyne_q_pvm(dim: int) -> Povm:
    """PVM of the truncated q quadrature (its eigenvalues are all simple)."""
    return pvm_of_observable(quadrature_q(dim))


def number_dephasing_channel(dim: int, strength: float) -> KrausChannel:
    """Partial dephasing in the Fock basis: X -> (1-s) X + s diag(X).

    Kraus operators are sqrt(1-s) I together with sqrt(s) |n><n| for each
    level; strength 1 is full dephasing, 0 is the identity.
    """
    if not 0.0 <= strength <= 1.0:
        raise InvalidOperandError("dephasing strength must be in [0, 1]")
    dim = _as_dim(dim)
    kraus = np.zeros((dim + 1, dim, dim), dtype=complex)
    kraus[0] = np.sqrt(1.0 - strength) * np.eye(dim)
    n = np.arange(dim)
    kraus[n + 1, n, n] = np.sqrt(strength)
    return KrausChannel(kraus=kraus)
