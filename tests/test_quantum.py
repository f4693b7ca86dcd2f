"""States, POVMs, channels, instruments, and the statistics helpers."""

import numpy as np
import pytest

from urlab import (
    CpInstrument,
    KrausChannel,
    Povm,
    QuantumState,
    average_channel,
    correlation,
    expectation,
    grad_expectation,
    induced_povm,
    is_hermitian,
    pvm_of_observable,
    sample_outcomes,
    sym_correlation,
    variance,
)
from urlab.errors import InvalidOperandError
from urlab.quantum import identity_channel, outcome_probabilities
from urlab.randoms import random_complex, rng_from_seed
from urlab.scenarios import luders_z_instrument, unsharp_z_povm

from conftest import IDENTITY2, SIGMA_X, SIGMA_Y, SIGMA_Z, qubit_state


class TestQuantumState:
    def test_valid_state(self):
        s = QuantumState(base=qubit_state(rz=0.5))
        assert s.dim == 2
        np.testing.assert_allclose(s.rho, qubit_state(rz=0.5))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.eye(2, dtype=complex))

    def test_rejects_rank_deficient(self):
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.diag([1.0, 0.0]).astype(complex))

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.array([[0.5, 1.0], [0.0, 0.5]]))

    def test_rejects_stack_of_states(self):
        # Hermiticity checks accept stacks of effects; a state is one matrix
        with pytest.raises(InvalidOperandError):
            QuantumState(base=np.array([IDENTITY2 / 2, IDENTITY2 / 2]))
        with pytest.raises(InvalidOperandError):
            expectation(np.array([IDENTITY2 / 2, IDENTITY2 / 2]), SIGMA_Z)


class TestPovm:
    def test_incomplete_rejected(self):
        with pytest.raises(InvalidOperandError):
            Povm(outcomes=(0,), effects=(IDENTITY2 / 2,))

    def test_negative_effect_rejected(self):
        with pytest.raises(InvalidOperandError):
            Povm(outcomes=(0, 1), effects=(IDENTITY2 + SIGMA_Z, -SIGMA_Z))

    def test_projective_detection(self):
        pvm = pvm_of_observable(SIGMA_Z)
        assert pvm.is_projective()
        assert not unsharp_z_povm(0.8).is_projective()

    def test_hermiticity_is_checked_per_effect(self):
        # a large effect must not loosen the check of a small one in the stack
        small = np.array([[0.5, 1e-9], [0.0, 0.5]])
        assert is_hermitian(np.array([1e6 * IDENTITY2, IDENTITY2]))
        assert not is_hermitian(np.array([1e6 * IDENTITY2, small]))
        with pytest.raises(InvalidOperandError, match="not Hermitian"):
            Povm(outcomes=(0, 1), effects=(1e6 * IDENTITY2, small))

    def test_completeness_tolerance_is_1e_8(self):
        # a completeness defect of 1e-9 passes, one of 1e-7 does not
        Povm(outcomes=(0, 1), effects=((IDENTITY2 / 2) * (1 + 1e-9), IDENTITY2 / 2))
        with pytest.raises(InvalidOperandError, match="sum to the identity"):
            Povm(outcomes=(0, 1), effects=((IDENTITY2 / 2) * (1 + 1e-7), IDENTITY2 / 2))


class TestKrausChannel:
    def test_not_trace_preserving_rejected(self):
        with pytest.raises(InvalidOperandError):
            KrausChannel(kraus=(0.5 * np.eye(2),))

    def test_adjoint_duality(self, rng):
        ks = []
        g = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        q, _ = np.linalg.qr(g)
        ks = (q[:2], q[2:4], q[4:])
        ch = KrausChannel(kraus=ks)
        x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        y = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        lhs = np.trace(ch(x) @ y)
        rhs = np.trace(x @ ch.adjoint(y))
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_channel_and_adjoint_apply_to_stacks(self):
        # a rectangular channel from a qutrit to a qubit, applied to a
        # (2, 4, d, d) stack, against per-matrix Kraus sums
        gen = rng_from_seed(12)
        ch = KrausChannel(kraus=np.linalg.qr(random_complex(gen, (6, 3)))[0].reshape(3, 2, 3))
        xs = random_complex(gen, (2, 4, 3, 3))
        ys = random_complex(gen, (2, 4, 2, 2))
        images = ch(xs)
        preimages = ch.adjoint(ys)
        assert images.shape == ys.shape and preimages.shape == xs.shape
        for idx in np.ndindex(2, 4):
            naive = sum(k @ xs[idx] @ k.conj().T for k in ch.kraus)
            np.testing.assert_allclose(images[idx], naive, rtol=0, atol=1e-14)
            naive = sum(k.conj().T @ ys[idx] @ k for k in ch.kraus)
            np.testing.assert_allclose(preimages[idx], naive, rtol=0, atol=1e-14)
        with pytest.raises(InvalidOperandError):
            ch(ys)
        with pytest.raises(InvalidOperandError):
            ch.adjoint(xs)

    def test_identity_channel(self, rng):
        ch = identity_channel(3)
        x = rng.normal(size=(3, 3))
        np.testing.assert_allclose(ch(x), x, atol=1e-14)


def test_expectation_variance_known_qubit():
    rho = qubit_state(rz=0.6)
    assert expectation(rho, SIGMA_Z) == pytest.approx(0.6, abs=1e-12)
    assert variance(rho, SIGMA_Z) == pytest.approx(1 - 0.36, abs=1e-12)
    assert expectation(rho, SIGMA_X) == pytest.approx(0.0, abs=1e-12)


def test_correlations():
    rho = qubit_state(rz=0.5)
    # <sigma_x sigma_y> = <i sigma_z> = 0.5i, both means vanish
    assert correlation(rho, SIGMA_X, SIGMA_Y) == pytest.approx(0.5j, abs=1e-12)
    assert sym_correlation(rho, SIGMA_X, SIGMA_Y) == pytest.approx(0.0, abs=1e-12)
    assert sym_correlation(rho, SIGMA_Z, SIGMA_Z) == pytest.approx(
        variance(rho, SIGMA_Z), abs=1e-12
    )


def test_grad_expectation_is_traceless_projection(rng):
    rho = qubit_state(rx=0.2)
    a = rng.normal(size=(2, 2))
    a = a + a.T + 3 * np.eye(2)
    g = grad_expectation(rho, a)
    assert abs(np.trace(g)) < 1e-12
    np.testing.assert_allclose(g, a - np.trace(a) / 2 * np.eye(2), atol=1e-12)


class TestPvmOfObservable:
    def test_spectral_decomposition(self):
        pvm = pvm_of_observable(SIGMA_Z)
        assert len(pvm) == 2
        assert pvm.is_projective()
        np.testing.assert_allclose(sum(pvm.effects), IDENTITY2, atol=1e-12)
        # outcomes are the eigenvalues, ascending
        assert list(pvm.outcomes) == pytest.approx([-1.0, 1.0])

    def test_degenerate_eigenvalues_cluster(self):
        a = np.diag([1.0, 1.0, 0.0]).astype(complex)
        pvm = pvm_of_observable(a)
        assert len(pvm) == 2
        ranks = sorted(int(round(np.trace(e).real)) for e in pvm.effects)
        assert ranks == [1, 2]


def test_induced_povm_and_average_channel():
    ins = luders_z_instrument()
    m = induced_povm(ins)
    np.testing.assert_allclose(m.effects[0] + m.effects[1], IDENTITY2, atol=1e-12)
    assert m.is_projective()
    ch = average_channel(ins)
    out = ch(qubit_state(rx=0.8))
    # full z dephasing kills the x component
    np.testing.assert_allclose(out, IDENTITY2 / 2, atol=1e-12)


def test_outcome_probabilities_and_sampling():
    rho = qubit_state(rz=0.5)
    pvm = pvm_of_observable(SIGMA_Z)
    probs = outcome_probabilities(rho, pvm)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sorted(probs), [0.25, 0.75], atol=1e-12)

    draws = sample_outcomes(rho, pvm, 20000, seed=7)
    assert draws == sample_outcomes(rho, pvm, 20000, seed=7)
    freq = sum(1 for d in draws if d == pvm.outcomes[1]) / len(draws)
    assert freq == pytest.approx(probs[1], abs=0.02)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Povm(outcomes=(), effects=()),
        lambda: KrausChannel(kraus=(np.ones(2),)),
        lambda: CpInstrument(outcomes=(0, 1), kraus_sets=((), (np.eye(2),))),
    ],
    ids=["povm-without-effects", "vector-kraus-operator", "empty-kraus-set"],
)
def test_malformed_operator_family_is_invalid_operand(build):
    with pytest.raises(InvalidOperandError):
        build()


def test_instrument_requires_trace_preserving_total():
    half = np.sqrt(0.5) * np.eye(2, dtype=complex)
    CpInstrument(outcomes=(0, 1), kraus_sets=((half,), (half,)))
    with pytest.raises(InvalidOperandError):
        CpInstrument(outcomes=(0,), kraus_sets=((half,),))
