"""Random test objects: states, observables, POVMs, channels, instruments.

All generators take an explicit numpy Generator so sweeps are reproducible and
can be partitioned across workers with spawned seeds.
"""

from __future__ import annotations

import numpy as np

from .classical import StatisticalModel, StochasticKernel
from .operator_core import dagger
from .quantum import CpInstrument, KrausChannel, Povm, QuantumState


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = random_complex(rng, (dim, dim))
    return (g + g.conj().T) / 2


def random_state(rng: np.random.Generator, dim: int) -> QuantumState:
    """Random full-rank density matrix, mixed with the maximally mixed state.

    The mixing weight 0.05 is a floor that keeps eigenvalues away from zero
    so superoperator solves stay well conditioned.
    """
    g = random_complex(rng, (dim, dim))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    rho = 0.95 * rho + 0.05 * np.eye(dim) / dim
    return QuantumState(base=rho)


def random_povm(rng: np.random.Generator, dim: int, n_effects: int) -> Povm:
    """Random informationally unstructured POVM via symmetric normalization."""
    # the draws of n_effects random_complex(rng, (dim, dim)) calls in turn
    z = rng.normal(size=(n_effects, 2, dim, dim))
    g = z[:, 0] + 1j * z[:, 1]
    parts = dagger(g) @ g
    w, u = np.linalg.eigh(parts.sum(axis=0))
    inv_sqrt = u @ np.diag(1.0 / np.sqrt(w)) @ u.conj().T
    return Povm(outcomes=tuple(range(n_effects)), effects=inv_sqrt @ parts @ inv_sqrt)


def random_channel(rng: np.random.Generator, dim: int, n_kraus: int) -> KrausChannel:
    """Haar-style random CPTP map: orthonormal columns split into Kraus blocks."""
    g = random_complex(rng, (n_kraus * dim, dim))
    q, _ = np.linalg.qr(g)
    return KrausChannel(kraus=q.reshape(n_kraus, dim, dim))


def random_instrument(rng: np.random.Generator, dim: int, n_outcomes: int) -> CpInstrument:
    """Random instrument with one Kraus operator per outcome."""
    ch = random_channel(rng, dim, n_outcomes)
    return CpInstrument(
        outcomes=tuple(range(n_outcomes)),
        kraus_sets=tuple(ch.kraus[:, None]),
    )


def random_kernel(rng: np.random.Generator, n_out: int, n_in: int) -> StochasticKernel:
    m = rng.random((n_out, n_in)) + 1e-3
    return StochasticKernel(matrix=m / m.sum(axis=0))


def random_model(rng: np.random.Generator, n_outcomes: int, n_params: int) -> StatisticalModel:
    """Random finite model with zero-mean scores."""
    probs = rng.dirichlet(np.ones(n_outcomes) * 2.0)
    scores = rng.normal(size=(n_outcomes, n_params))
    scores = scores - probs @ scores
    return StatisticalModel(outcomes=tuple(range(n_outcomes)), probs=probs, scores=scores)
