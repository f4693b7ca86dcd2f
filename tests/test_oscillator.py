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
from urlab.errors import InvalidDimensionError, InvalidOperandError, SingularStateError
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: thermal_state(2.5, 1.0),
        lambda: annihilation(2.5),
        lambda: quadrature_q(2.5),
        lambda: homodyne_q_pvm(2.5),
        lambda: number_dephasing_channel(2.5, 0.3),
        lambda: thermal_state(0, 1.0),
        lambda: number_dephasing_channel(1, 0.3),
    ],
    ids=["thermal-2.5", "annihilation-2.5", "quadrature-2.5", "homodyne-2.5", "dephasing-2.5",
         "thermal-0", "dephasing-1"],
)
def test_builders_take_an_integer_number_of_levels_of_at_least_two(build):
    # 2.5 built 3-level operators, the dephasing channel raised a raw TypeError,
    # and a 0-level thermal state was refused as "not Hermitian"
    with pytest.raises(InvalidDimensionError):
        build()


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


@pytest.mark.parametrize(
    "nbar, d",
    [(2.0, 24), (2.0, 32), (2.0, 40), (1.0, 36), (1.0, 40)],
    ids=["24", "32", "40", "nbar1-36", "nbar1-40"],
)
def test_dephasing_disturbance_oracle_at_large_cutoffs(nbar, d):
    # at mean photon number 1 the smallest levels of the d=36 and d=40 states
    # are 1.5e-11 and 9.1e-13: far below any fixed floor of 1e-10, yet well
    # above the accuracy d eps max|lambda| of their eigenvalues
    s = thermal_state(d, nbar)
    q = quadrature_q(d)
    res = disturbance(s, q, number_dephasing_channel(d, 0.3))
    assert res.value == pytest.approx(variance(s.rho, q) * ((1 - 0.3) ** -2 - 1), rel=1e-12)


def test_pushed_sld_factor_takes_one_svd_of_its_diagonal_block(svd_calls):
    # in the Fock basis every off-diagonal coordinate is its own 1x1 block, which
    # takes no SVD; the d diagonal entries, less the deflated null vector
    # sqrt(lambda), against the d-1 diagonal Gell-Mann directions form the one
    # block left
    d = 32
    j = quantum_fisher(thermal_state(d, 2.0), SLD_FUNCTION,
                       pushforward=number_dephasing_channel(d, 0.3))
    assert svd_calls == [((d - 1, d - 1), True)]
    assert j.rank == d * d - 1


def test_state_below_the_eigh_accuracy_is_not_inverted():
    # the d=32 state at mean photon number 0.5 has smallest eigenvalue
    # 1.1e-15, below 32 eps max|lambda| = 4.7e-15: it is a state, but the
    # SLD solve of the disturbance cannot invert it
    d = 32
    s = thermal_state(d, 0.5)
    with pytest.raises(SingularStateError):
        disturbance(s, quadrature_q(d), number_dephasing_channel(d, 0.3))
