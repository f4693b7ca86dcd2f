"""Shared fixtures and small matrix constants for the test suite."""

import numpy as np
import pytest

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY2 = np.eye(2, dtype=complex)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20240901))


@pytest.fixture
def svd_calls(monkeypatch):
    """(shape, compute_uv) of each np.linalg.svd call during the test, in call order."""
    calls = []
    real = np.linalg.svd

    def recording(a, full_matrices=True, compute_uv=True, **kwargs):
        calls.append((np.shape(a), compute_uv))
        return real(a, full_matrices, compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return calls


def qubit_state(rx=0.0, ry=0.0, rz=0.0):
    """Density matrix (I + r . sigma) / 2 for a Bloch vector inside the ball."""
    return (IDENTITY2 + rx * SIGMA_X + ry * SIGMA_Y + rz * SIGMA_Z) / 2
