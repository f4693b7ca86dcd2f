"""Quantum Fisher operators: log derivatives, closed forms, CR checks."""

import tracemalloc

import numpy as np
import pytest

from urlab import (
    BOGOLIUBOV_FUNCTION,
    RLD_FUNCTION,
    SLD_FUNCTION,
    KrausChannel,
    MonotoneFunction,
    correlation,
    fisher_operator,
    grad_expectation,
    log_derivative,
    measurement_error,
    model_from_povm,
    quantum_cr_check,
    quantum_fisher,
    sld_optimal_pvm,
    sym_correlation,
    tangent_basis,
    variance,
)
from urlab.classical import _deflate
from urlab.errors import InvalidOperandError
from urlab.operator_core import kf_superoperator
from urlab.oscillator import number_dephasing_channel, thermal_state
from urlab.randoms import (
    random_channel,
    random_hermitian,
    random_povm,
    random_state,
    rng_from_seed,
)

from conftest import SIGMA_Z, qubit_state


def test_sld_defining_equation(rng):
    s = random_state(rng_from_seed(1), 3)
    basis = tangent_basis(3)
    phi = basis.matrix(rng.normal(size=basis.size))
    l = log_derivative(s, phi, SLD_FUNCTION)
    np.testing.assert_allclose(
        (s.rho @ l + l @ s.rho) / 2, phi, atol=1e-11
    )
    np.testing.assert_allclose(l, l.conj().T, atol=1e-11)


def test_rld_is_state_inverse_times_direction(rng):
    s = random_state(rng_from_seed(2), 3)
    basis = tangent_basis(3)
    phi = basis.matrix(rng.normal(size=basis.size))
    l = log_derivative(s, phi, RLD_FUNCTION)
    np.testing.assert_allclose(np.linalg.inv(s.rho) @ phi, l, atol=1e-10)


@pytest.mark.parametrize("r", [0.0, 0.3, 0.6, 0.9])
def test_sld_fisher_qubit_closed_form(r):
    # J^S = diag(2, 2, 2 / (1 - r^2)) in the scaled Pauli basis; the
    # pseudoinverse pairing along z reproduces the variance 1 - r^2
    basis = tangent_basis(2)
    j = quantum_fisher(qubit_state(rz=r), SLD_FUNCTION)
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


@pytest.mark.parametrize(
    "f, same_as",
    [(MonotoneFunction("sld", lambda x: x), RLD_FUNCTION),
     (MonotoneFunction("mine", lambda x: (x + 1) / 2), SLD_FUNCTION)],
    ids=["rld-named-sld", "sld-named-mine"],
)
def test_real_sld_form_is_chosen_by_identity_not_by_name(f, same_as):
    # an "sld" RLD once took the real path and came back 11.3 off the RLD matrix
    s = random_state(rng_from_seed(1), 3)
    j, ref = quantum_fisher(s, f).matrix, quantum_fisher(s, same_as).matrix
    np.testing.assert_allclose(j, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


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
        js = quantum_fisher(s, SLD_FUNCTION)
        jr = quantum_fisher(s, RLD_FUNCTION)
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
    assert quantum_fisher(s, SLD_FUNCTION).quad(c) == pytest.approx(
        target, abs=1e-10
    )
    assert quantum_fisher(s, RLD_FUNCTION).quad(c) == pytest.approx(
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


# References for J_ab on the Hermitian images x_a = E(e_a) at sigma = E(rho), from each
# form's defining equation: none uses kf_superoperator or its coefficients c_f.
def _sld_reference(sigma, images):
    # J_ab = Tr[x_a L_b] with (sigma L_b + L_b sigma) / 2 = x_b, vectorized row-major
    # as (sigma (x) I + I (x) sigma^T) / 2 vec L_b = vec x_b (Paris, IJQI 7, 125 (2009))
    eye = np.eye(len(sigma))
    lyapunov = (np.kron(sigma, eye) + np.kron(eye, sigma.T)) / 2
    ls = np.linalg.solve(lyapunov, images.reshape(len(images), -1).T).T.reshape(images.shape)
    return np.einsum("aij,bji->ab", images, ls)


def _rld_reference(sigma, images):
    # J_ab = Tr[x_a sigma^-1 x_b]; the transposed Tr[x_b sigma^-1 x_a] differs by O(1)
    return np.einsum("aij,jk,bki->ab", images, np.linalg.inv(sigma), images)


def _bogoliubov_reference(sigma, images):
    # J_ab = int_0^inf Tr[x_a (sigma + u)^-1 x_b (sigma + u)^-1] du (Petz, LAA 244, 81
    # (1996)), by a 200-point Gauss-Legendre rule in v = u / (1 + u) on [0, 1)
    x, w = np.polynomial.legendre.leggauss(200)
    v = (x + 1) / 2
    weights = w / 2 / (1 - v) ** 2
    r = np.linalg.inv(sigma[None] + (v / (1 - v))[:, None, None] * np.eye(len(sigma)))
    return np.einsum("n,aij,njk,bkl,nli->ab", weights, images, r, images, r, optimize=True)


_REFERENCES = {
    SLD_FUNCTION: _sld_reference,
    RLD_FUNCTION: _rld_reference,
    BOGOLIUBOV_FUNCTION: _bogoliubov_reference,
}


@pytest.mark.parametrize("f", [SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION])
def test_fisher_matrix_matches_metric_entries(f):
    # the Gram product of the factor against every entry from the form's defining equation
    gen = rng_from_seed(10)
    d = 3
    s = random_state(gen, d)
    ch = random_channel(gen, d, 4)
    basis = tangent_basis(d)
    sigma = ch(s.rho)
    images = ch(basis.matrix(np.eye(basis.size)))
    ref = _REFERENCES[f](sigma, images)
    j = quantum_fisher(s, f, pushforward=ch).matrix
    np.testing.assert_allclose(j, ref, atol=1e-12 * np.abs(ref).max())


def _pair_stack_factor(rho, f, ch):
    # the pushed factor as _combine pairs it with the entries gathered from the (P, d, d)
    # stack of the slices t[i, :, m, :]^T at the pairs (i, m): no flat index into t is shared
    k = kf_superoperator(rho if ch is None else ch(rho), f)
    uh = k.state_eigenvectors.conj().T
    kp = uh[None] if ch is None else uh @ ch.kraus
    _, dp, d = kp.shape
    flat = kp.reshape(-1, dp * d)
    t = (flat.T @ flat.conj()).reshape(dp, d, dp, d)
    (r, c), n, parts = np.triu_indices(dp, 1), np.arange(dp), 2 if f is SLD_FUNCTION else 3
    i, m = np.concatenate([n, r, c][:parts]), np.concatenate([n, c, r][:parts])
    y, basis = t.transpose(0, 2, 3, 1)[i, m], tangent_basis(d)
    j, q = basis._pairs
    h = basis._combine(y[..., j, q], y[..., q, j], y.diagonal(0, -2, -1))
    h *= (1 / np.sqrt(k.coefficients[i, m]))[:, None]
    diag, off = _deflate(h[:dp], np.sqrt(k.state_eigenvalues)), h[dp:]
    if f is SLD_FUNCTION:
        off *= np.sqrt(2)
        return np.concatenate([diag.real, off.real, off.imag])
    return np.concatenate([diag, off])


@pytest.mark.parametrize("f", [SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION])
@pytest.mark.parametrize(
    "d_in, d_out, n_kraus",
    [(2, 3, 2), (3, 2, 3), (3, 1, 3), (3, 3, 2), (3, 3, 0), (16, 16, "oscillator")],
)
def test_pushed_fisher_matches_metric_entries_on_non_square_channels(f, d_in, d_out, n_kraus):
    # the Choi-form factor reshapes (k, d', d) Kraus stacks; d' != d tells the axes apart.
    # Onto one level every E(e_a) = Tr[e_a] is 0: there are no i < m rows, and the
    # reference is rounding, so its scale is floored.  n_kraus 0 is no channel; the
    # oscillator is the thermal state under number dephasing, as in the oscillator sweep
    gen = rng_from_seed(12)
    if n_kraus == "oscillator":
        s, ch = thermal_state(d_in, 1.0), number_dephasing_channel(d_in, 0.3)
    else:
        z = gen.normal(size=(n_kraus * d_out, d_in)) + 1j * gen.normal(size=(n_kraus * d_out, d_in))
        kraus = np.linalg.qr(z)[0].reshape(n_kraus, d_out, d_in)
        s, ch = random_state(gen, d_in), KrausChannel(kraus=kraus) if n_kraus else None
    j = quantum_fisher(s, f, pushforward=ch)
    if d_in < 16 or f is not BOGOLIUBOV_FUNCTION:  # at 16 its quadrature would take 200 MB
        basis = tangent_basis(d_in)
        push = (lambda x: x) if ch is None else ch
        ref = _REFERENCES[f](push(s.rho), push(basis.matrix(np.eye(basis.size))))
        np.testing.assert_allclose(j.matrix, ref, atol=1e-12 * max(np.abs(ref).max(), 1e-12))
    # the direct gather reads the entries the pair stack held, so the factor keeps every bit
    want = _pair_stack_factor(s.rho, f, ch)
    assert j.factor.dtype == want.dtype and j.factor.tobytes() == want.tobytes()
    if d_out == 1:
        assert j.factor.shape == (0, d_in * d_in - 1) and j.rank == 0


def test_pushed_fisher_holds_less_than_two_choi_tensors():
    # at d = 16 the Choi tensor t is 1 MiB; the build frees it before _combine and
    # holds beside it only the gathered pair entries, not a (P, d, d) stack copied out of t
    s, ch = thermal_state(16, 1.0), number_dephasing_channel(16, 0.3)
    quantum_fisher(s, SLD_FUNCTION, ch)  # the index maps are built once per dimension
    tracemalloc.start()
    try:
        quantum_fisher(s, SLD_FUNCTION, ch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (16 * 16) ** 2 * 16


def test_pushed_fisher_of_a_channel_trace_preserving_only_to_1e_10():
    # KrausChannel admits sum K^H K = I within 1e-10, so Tr sigma = 1 + 9e-11 here, and
    # the deflated null vector sqrt(l) of sigma must be normalized to keep the Gram matrix
    gen = rng_from_seed(3)
    ch = KrausChannel(kraus=random_channel(gen, 3, 2).kraus * np.sqrt(1 + 9e-11))
    s = random_state(gen, 3)
    images = ch(tangent_basis(3).matrix(np.eye(8)))
    ref = _sld_reference(ch(s.rho), images).real
    j = quantum_fisher(s, SLD_FUNCTION, pushforward=ch).matrix
    assert np.linalg.norm(j - ref) <= 1e-14 * np.linalg.norm(ref)


def test_pushed_fisher_applies_the_channel_once(monkeypatch):
    # to the state only: the basis directions go through the Kraus operators
    import urlab.quantum

    shapes = []
    real = urlab.quantum.apply_channel

    def counting(ch, x):
        shapes.append(np.shape(x))
        return real(ch, x)

    monkeypatch.setattr(urlab.quantum, "apply_channel", counting)
    gen = rng_from_seed(13)
    s = random_state(gen, 4)
    quantum_fisher(s, SLD_FUNCTION, pushforward=random_channel(gen, 4, 3))
    assert shapes == [(4, 4)]


def test_sld_optimal_pvm_attains_fisher_form(rng):
    gen = rng_from_seed(8)
    s = random_state(gen, 3)
    basis = tangent_basis(3)
    phi = basis.matrix(gen.normal(size=basis.size))
    pvm = sld_optimal_pvm(s, phi)
    jm = fisher_operator(model_from_povm(s, pvm)).matrix
    js = quantum_fisher(s, SLD_FUNCTION).matrix
    c = basis.coords(phi)
    assert c @ jm @ c == pytest.approx(c @ js @ c, rel=1e-10)


@pytest.mark.parametrize("solve", [log_derivative, sld_optimal_pvm])
def test_wrong_shape_direction_is_refused(solve):
    with pytest.raises(InvalidOperandError):
        solve(qubit_state(rx=0.3), np.eye(3))


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
