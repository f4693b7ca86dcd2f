"""Quantum Fisher operators: log derivatives, closed forms, CR checks."""

import numpy as np
import pytest

from urlab import (
    BOGOLIUBOV_FUNCTION,
    RLD_FUNCTION,
    SLD_FUNCTION,
    correlation,
    fisher_operator,
    grad_expectation,
    log_derivative,
    measurement_error,
    model_from_povm,
    monotone_metric_value,
    quantum_cr_check,
    quantum_fisher,
    sld_optimal_pvm,
    sym_correlation,
    tangent_basis,
    variance,
)
from urlab.randoms import (
    random_channel,
    random_hermitian,
    random_povm,
    random_state,
    rng_from_seed,
)

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, qubit_state


def test_sld_defining_equation(rng):
    s = random_state(rng_from_seed(1), 3)
    basis = tangent_basis(3)
    phi = basis.matrix(rng.normal(size=basis.size))
    l = log_derivative(s, phi, SLD_FUNCTION)
    np.testing.assert_allclose(
        (s.rho @ l.matrix + l.matrix @ s.rho) / 2, phi, atol=1e-11
    )
    np.testing.assert_allclose(l.matrix, l.matrix.conj().T, atol=1e-11)


def test_rld_is_state_inverse_times_direction(rng):
    s = random_state(rng_from_seed(2), 3)
    basis = tangent_basis(3)
    phi = basis.matrix(rng.normal(size=basis.size))
    l = log_derivative(s, phi, RLD_FUNCTION)
    np.testing.assert_allclose(np.linalg.inv(s.rho) @ phi, l.matrix, atol=1e-10)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 0.9])
def test_sld_fisher_qubit_closed_form(r):
    # J^S = diag(2, 2, 2 / (1 - r^2)) in the scaled Pauli basis; the
    # pseudoinverse pairing along z reproduces the variance 1 - r^2
    basis = tangent_basis(2)
    j = quantum_fisher(qubit_state(rz=r), SLD_FUNCTION, basis=basis)
    np.testing.assert_allclose(
        j.matrix, np.diag([2.0, 2.0, 2.0 / (1 - r**2)]), atol=1e-10
    )
    cz = basis.coords(SIGMA_Z)
    assert j.quad(cz) == pytest.approx(1 - r**2, rel=1e-10)


def test_sld_fisher_is_real_symmetric_psd(rng):
    s = random_state(rng_from_seed(3), 4)
    j = quantum_fisher(s, SLD_FUNCTION)
    assert not np.iscomplexobj(j.matrix) or np.abs(j.matrix.imag).max() < 1e-14
    np.testing.assert_allclose(j.matrix, j.matrix.T.conj(), atol=1e-12)
    assert np.linalg.eigvalsh(j.matrix).min() >= -1e-10


def test_rld_fisher_hermitian(rng):
    s = random_state(rng_from_seed(4), 3)
    j = quantum_fisher(s, RLD_FUNCTION)
    np.testing.assert_allclose(j.matrix, j.matrix.conj().T, atol=1e-12)


def test_correlation_identities(rng):
    # C^S(A, B) = (gb, (J^S)^+ ga) and C(A, B) = (gb, (J^R)^+ ga)
    gen = rng_from_seed(5)
    for d in (2, 3, 4):
        s = random_state(gen, d)
        basis = tangent_basis(d)
        a = random_hermitian(gen, d)
        b = random_hermitian(gen, d)
        ga = basis.coords(grad_expectation(s, a))
        gb = basis.coords(grad_expectation(s, b))
        js = quantum_fisher(s, SLD_FUNCTION, basis=basis)
        jr = quantum_fisher(s, RLD_FUNCTION, basis=basis)
        assert js.quad(gb, ga) == pytest.approx(sym_correlation(s, a, b), abs=1e-10)
        rld_pair = complex(gb @ jr.pinv @ ga)
        assert rld_pair == pytest.approx(complex(correlation(s, a, b)), abs=1e-10)


def test_scalar_variance_identity(rng):
    # (phi, (J^S)^+ phi) = (phi, (J^R)^+ phi) = Tr[rho phi^2] - Tr[rho phi]^2
    gen = rng_from_seed(6)
    s = random_state(gen, 3)
    basis = tangent_basis(3)
    phi = basis.matrix(gen.normal(size=basis.size))
    target = variance(s, phi)
    c = basis.coords(phi)
    assert quantum_fisher(s, SLD_FUNCTION, basis=basis).quad(c) == pytest.approx(
        target, abs=1e-10
    )
    assert quantum_fisher(s, RLD_FUNCTION, basis=basis).quad(c) == pytest.approx(
        target, abs=1e-10
    )


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_quantum_cramer_rao(seed):
    gen = rng_from_seed(seed)
    d = int(gen.integers(2, 5))
    s = random_state(gen, d)
    m = random_povm(gen, d, d * d)
    rep = quantum_cr_check(s, m)
    assert rep.holds
    assert rep.sld_gap_min_eig >= -1e-8 * max(
        1.0, np.linalg.norm(quantum_fisher(s, SLD_FUNCTION).matrix)
    )


@pytest.mark.parametrize("f", [SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION])
def test_pushforward_contracts_fisher(f):
    gen = rng_from_seed(7)
    d = 3
    s = random_state(gen, d)
    ch = random_channel(gen, d, 4)
    j = quantum_fisher(s, f).matrix
    jp = quantum_fisher(s, f, pushforward=ch).matrix
    gap = np.linalg.eigvalsh((j - jp + (j - jp).conj().T) / 2).min()
    assert gap >= -1e-8 * max(1.0, np.linalg.norm(j))


@pytest.mark.parametrize("f", [SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION])
def test_fisher_matrix_matches_metric_entries(f):
    # reference: every entry Tr[E(e_a) (K^f_E(rho))^{-1} E(e_b)] solved one
    # direction at a time, against the Gram product of the factor
    gen = rng_from_seed(10)
    d = 3
    s = random_state(gen, d)
    ch = random_channel(gen, d, 4)
    basis = tangent_basis(d)
    sigma = ch(s.rho)
    images = [ch(e) for e in basis.elements]
    ref = np.array([[monotone_metric_value(sigma, f, x, y) for y in images] for x in images])
    j = quantum_fisher(s, f, pushforward=ch, basis=basis).matrix
    np.testing.assert_allclose(j, ref, atol=1e-12 * np.abs(ref).max())


def test_sld_optimal_pvm_attains_fisher_form(rng):
    gen = rng_from_seed(8)
    s = random_state(gen, 3)
    basis = tangent_basis(3)
    phi = basis.matrix(gen.normal(size=basis.size))
    pvm = sld_optimal_pvm(s, phi)
    jm = fisher_operator(model_from_povm(s, pvm, basis)).matrix
    js = quantum_fisher(s, SLD_FUNCTION, basis=basis).matrix
    c = basis.coords(phi)
    assert c @ jm @ c == pytest.approx(c @ js @ c, rel=1e-10)


def test_sld_optimal_pvm_tolerates_rounding_in_large_direction():
    # a direction pushed through a channel with heavy cancellation carries an
    # anti-Hermitian rounding residue; at |L| ~ 1e4 it exceeds the Hermiticity
    # tolerance, and the PVM must come from the Hermitian part of L
    gen = rng_from_seed(11)
    s = random_state(gen, 4)
    basis = tangent_basis(4)
    phi = 1e4 * basis.matrix(gen.normal(size=basis.size))
    noisy = phi + 1e-7j * random_hermitian(gen, 4)
    pvm = sld_optimal_pvm(s, noisy)
    ref = sld_optimal_pvm(s, phi)
    assert pvm.outcomes == pytest.approx(ref.outcomes, rel=1e-9)
    for e, f in zip(pvm.effects, ref.effects):
        assert np.abs(e - f).max() <= 1e-9


def test_pvm_of_observable_has_zero_error(rng):
    gen = rng_from_seed(9)
    s = random_state(gen, 4)
    a = random_hermitian(gen, 4)
    from urlab import pvm_of_observable

    res = measurement_error(s, a, pvm_of_observable(a))
    assert not res.is_infinite
    assert abs(res.value) <= 1e-8


def test_monotone_metric_value_positive(rng):
    gen = rng_from_seed(10)
    s = random_state(gen, 3)
    v = random_hermitian(gen, 3)
    for f in (SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION):
        g = monotone_metric_value(s, f, v, v)
        assert abs(g.imag) < 1e-10
        assert g.real >= -1e-12
