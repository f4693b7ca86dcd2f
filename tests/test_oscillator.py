"""Truncated Fock-space building blocks."""

import numpy as np
import pytest

from urlab import (
    RLD_FUNCTION,
    SLD_FUNCTION,
    FisherOperator,
    disturbance,
    fisher_operator,
    measurement_error,
    model_from_povm,
    quantum_fisher,
    variance,
)
from urlab.errors import InvalidOperandError
from urlab.oscillator import (
    annihilation,
    homodyne_q_pvm,
    number_dephasing_channel,
    quadrature_p,
    quadrature_q,
    thermal_state,
)


def test_annihilation_ladder_action():
    a = annihilation(5)
    # a |n> = sqrt(n) |n-1>
    for n in range(1, 5):
        vec = np.zeros(5)
        vec[n] = 1.0
        out = a @ vec
        assert out[n - 1] == pytest.approx(np.sqrt(n), abs=1e-12)


def test_canonical_commutator_on_interior():
    d = 12
    q, p = quadrature_q(d), quadrature_p(d)
    comm = q @ p - p @ q
    # truncation corrupts only the highest Fock level
    np.testing.assert_allclose(comm[: d - 1, : d - 1], 1j * np.eye(d - 1), atol=1e-12)


def test_thermal_state_mean_photon():
    # the truncated tail at cutoff 32 costs less than 1e-8 in mean photons
    d = 32
    nbar = 1.0
    s = thermal_state(d, nbar)
    number = np.diag(np.arange(d)).astype(complex)
    assert np.trace(s.rho @ number).real == pytest.approx(nbar, abs=1e-7)
    assert np.linalg.eigvalsh(s.rho).min() > 0


def test_thermal_state_rejects_nonpositive_mean():
    with pytest.raises(InvalidOperandError):
        thermal_state(8, 0.0)


@pytest.mark.parametrize("mean_photon", [np.nan, np.inf])
def test_thermal_state_rejects_nonfinite_mean(mean_photon):
    with pytest.raises(InvalidOperandError, match="positive and finite"):
        thermal_state(8, mean_photon)


def test_homodyne_pvm_is_projective_and_complete():
    pvm = homodyne_q_pvm(10)
    assert pvm.is_projective()
    assert len(pvm) == 10  # truncated q has simple spectrum
    np.testing.assert_allclose(sum(pvm.effects), np.eye(10), atol=1e-10)


def test_homodyne_measures_q_with_negligible_error():
    d = 16
    s = thermal_state(d, 1.0)
    res = measurement_error(s, quadrature_q(d), homodyne_q_pvm(d))
    assert abs(res.value) <= 1e-8


def test_number_dephasing_channel():
    d = 6
    rho = thermal_state(d, 0.5).rho
    coh = rho + 0.01 * (np.eye(d, k=1) + np.eye(d, k=-1))
    s = 0.3
    out = number_dephasing_channel(d, s)(coh)
    # off-diagonals shrink by 1 - s, diagonals are untouched
    np.testing.assert_allclose(np.diag(out), np.diag(coh), atol=1e-12)
    np.testing.assert_allclose(
        out - np.diag(np.diag(out)),
        (1 - s) * (coh - np.diag(np.diag(coh))),
        atol=1e-12,
    )


def test_dephasing_strength_bounds():
    with pytest.raises(InvalidOperandError):
        number_dephasing_channel(4, 1.5)


@pytest.mark.parametrize("strength", [1 - 1e-6, 1 - 1e-8])
def test_near_full_dephasing_disturbance_is_finite(strength):
    # the pushed SLD Fisher operator is nearly singular here: its rank must be
    # cut on the singular values of the Gram factor, not on those of J
    d = 8
    s = thermal_state(d, 1.0)
    q = quadrature_q(d)
    res = disturbance(s, q, number_dephasing_channel(d, strength))
    expect = variance(s.rho, q) * ((1 - strength) ** -2 - 1)
    assert not res.is_infinite
    assert res.value == pytest.approx(expect, rel=1e-8)


def test_full_dephasing_disturbance_is_infinite():
    d = 8
    s = thermal_state(d, 1.0)
    assert disturbance(s, quadrature_q(d), number_dephasing_channel(d, 1.0)).is_infinite


def test_classical_and_quantum_fisher_share_one_type():
    d = 4
    s = thermal_state(d, 1.0)
    ch = number_dephasing_channel(d, 0.3)
    assert isinstance(fisher_operator(model_from_povm(s, homodyne_q_pvm(d))), FisherOperator)
    assert isinstance(quantum_fisher(s, SLD_FUNCTION), FisherOperator)
    assert isinstance(quantum_fisher(s, RLD_FUNCTION), FisherOperator)
    assert isinstance(quantum_fisher(s, SLD_FUNCTION, pushforward=ch), FisherOperator)


@pytest.mark.parametrize("d", [24, 32, 40])
def test_dephasing_disturbance_oracle_at_large_cutoffs(d):
    # mean photon number 2 keeps the smallest level of the d=40 state above EPS_POS
    s = thermal_state(d, 2.0)
    q = quadrature_q(d)
    res = disturbance(s, q, number_dephasing_channel(d, 0.3))
    assert res.value == pytest.approx(variance(s.rho, q) * ((1 - 0.3) ** -2 - 1), rel=1e-12)


def test_pushed_sld_factor_takes_one_svd_of_its_diagonal_block(svd_shapes):
    # in the Fock basis every off-diagonal coordinate is its own 1x1 block, which
    # takes no SVD; the d diagonal entries against the d-1 diagonal Gell-Mann
    # directions form the one block left
    d = 32
    j = quantum_fisher(thermal_state(d, 2.0), SLD_FUNCTION,
                       pushforward=number_dephasing_channel(d, 0.3))
    assert svd_shapes == [(d, d - 1)]
    assert j.rank == d * d - 1
