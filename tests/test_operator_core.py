"""Tangent-space basics: bases, pseudoinverses, Schur reports, K^f solvers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urlab import (
    BOGOLIUBOV_FUNCTION,
    RLD_FUNCTION,
    SLD_FUNCTION,
    MonotoneFunction,
    hs_inner,
    is_hermitian,
    kf_superoperator,
    mp_inverse,
    project_traceless,
    schur_positivity_report,
    tangent_basis,
)
from urlab.errors import (
    InvalidDimensionError,
    InvalidOperandError,
    SingularStateError,
    UrlabError,
)

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, qubit_state


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_tangent_basis_orthonormal_traceless(dim):
    basis = tangent_basis(dim)
    assert basis.size == dim * dim - 1
    for a in range(basis.size):
        assert abs(np.trace(basis.elements[a])) < 1e-12
        assert is_hermitian(basis.elements[a])
        for b in range(basis.size):
            expected = 1.0 if a == b else 0.0
            assert hs_inner(basis.elements[a], basis.elements[b]) == pytest.approx(
                expected, abs=1e-12
            )


def test_tangent_basis_dim2_is_scaled_pauli():
    basis = tangent_basis(2)
    np.testing.assert_allclose(basis.elements[0], SIGMA_X / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(basis.elements[1], SIGMA_Y / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(basis.elements[2], SIGMA_Z / np.sqrt(2), atol=1e-14)


def test_tangent_basis_rejects_dim_one():
    with pytest.raises(InvalidDimensionError):
        tangent_basis(1)


def test_coords_matrix_round_trip(rng):
    basis = tangent_basis(3)
    coeffs = rng.normal(size=basis.size)
    x = basis.matrix(coeffs)
    np.testing.assert_allclose(basis.coords(x), coeffs, atol=1e-12)
    np.testing.assert_allclose(basis.matrix(basis.coords(x)), x, atol=1e-12)


def test_project_traceless(rng):
    for d in (2, 4):
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = w + w.conj().T
        p = project_traceless(a)
        assert abs(np.trace(p)) < 1e-12
        np.testing.assert_allclose(project_traceless(p), p, atol=1e-12)
        # the removed part is the identity component
        np.testing.assert_allclose(a - p, np.trace(a) / d * np.eye(d), atol=1e-12)


def test_hs_inner_shape_mismatch():
    with pytest.raises(InvalidOperandError):
        hs_inner(np.eye(2), np.eye(3))


def _random_fixed_rank(rng, n, rank):
    u = rng.normal(size=(n, rank))
    return u @ u.T


def test_mp_inverse_penrose_conditions(rng):
    for n, rank in [(3, 3), (5, 2), (4, 1), (6, 4)]:
        s = _random_fixed_rank(rng, n, rank)
        res = mp_inverse(s)
        assert res.rank == rank
        p = res.pinv
        norm = np.linalg.norm(s)
        assert np.linalg.norm(s @ p @ s - s) <= 1e-10 * norm
        assert np.linalg.norm(p @ s @ p - p) <= 1e-10 * max(np.linalg.norm(p), 1.0)
        assert np.linalg.norm((s @ p).conj().T - s @ p) <= 1e-10
        assert np.linalg.norm((p @ s).conj().T - p @ s) <= 1e-10
        # kernel basis annihilates s and is orthonormal
        k = res.kernel_basis
        assert k.shape == (n, n - rank)
        assert np.linalg.norm(s @ k) <= 1e-10 * max(norm, 1.0)
        np.testing.assert_allclose(k.conj().T @ k, np.eye(n - rank), atol=1e-12)


def test_mp_inverse_preserves_real_dtype(rng):
    s = _random_fixed_rank(rng, 4, 2)
    res = mp_inverse(s)
    assert not np.iscomplexobj(res.pinv)


def test_mp_inverse_rejects_nonsquare():
    with pytest.raises(InvalidOperandError):
        mp_inverse(np.ones((2, 3)))
    with pytest.raises(InvalidOperandError):
        mp_inverse(np.eye(2), rank_tol=-1.0)


def test_schur_report_psd_block(rng):
    # generate a PSD block matrix by squaring a random one
    for _ in range(10):
        w = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = w @ w.conj().T
        rep = schur_positivity_report(m[:3, :3], m[:3, 3:], m[3:, 3:])
        assert rep.is_psd and rep.cond2 and rep.cond3


def test_schur_report_equivalence_on_indefinite(rng):
    # the three characterizations must agree whether or not the block is PSD
    for _ in range(25):
        w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = w + w.conj().T
        rep = schur_positivity_report(m[:2, :2], m[:2, 2:], m[2:, 2:])
        assert rep.is_psd == rep.cond2 == rep.cond3


def test_monotone_function_kernels():
    assert SLD_FUNCTION.kernel_coefficient(3.0, 1.0) == pytest.approx(2.0)
    assert RLD_FUNCTION.kernel_coefficient(3.0, 1.0) == pytest.approx(3.0)
    # (a - b) / (log a - log b)
    assert BOGOLIUBOV_FUNCTION.kernel_coefficient(3.0, 1.0) == pytest.approx(
        2.0 / np.log(3.0)
    )
    # continuous at a == b with limit a
    assert BOGOLIUBOV_FUNCTION.kernel_coefficient(0.7, 0.7) == pytest.approx(0.7)
    assert BOGOLIUBOV_FUNCTION.kernel_coefficient(0.7, 0.7 + 1e-14) == pytest.approx(
        0.7, rel=1e-6
    )


def test_monotone_function_normalization():
    for f in (SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION):
        assert f.evaluate(1.0) == pytest.approx(1.0)


def test_non_monotone_function_rejected():
    with pytest.raises(UrlabError):
        MonotoneFunction("decreasing", lambda x: 2.0 - x)


def test_inconsistent_kernel_rejected():
    with pytest.raises(UrlabError):
        MonotoneFunction("mismatch", lambda x: (x + 1) / 2, lambda a, b: a)


def test_kf_sld_matches_anticommutator(rng):
    rho = qubit_state(rz=0.4)
    k = kf_superoperator(rho, SLD_FUNCTION)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(k.apply(x), (rho @ x + x @ rho) / 2, atol=1e-12)


def test_kf_rld_is_left_multiplication(rng):
    rho = qubit_state(rx=0.3, rz=0.2)
    k = kf_superoperator(rho, RLD_FUNCTION)
    x = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(k.apply(x), rho @ x, atol=1e-12)


@pytest.mark.parametrize("f", [SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION])
def test_kf_inverse_round_trip(rng, f):
    diag = np.array([0.5, 0.3, 0.2])
    rho = np.diag(diag).astype(complex)
    u, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    rho = u @ rho @ u.conj().T
    k = kf_superoperator(rho, f)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    np.testing.assert_allclose(k.apply_inverse(k.apply(x)), x, atol=1e-10)
    np.testing.assert_allclose(k.apply(k.apply_inverse(x)), x, atol=1e-10)


def test_kf_requires_full_rank_state():
    rho = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SingularStateError):
        kf_superoperator(rho, SLD_FUNCTION)


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=1e-3, max_value=10.0),
    b=st.floats(min_value=1e-3, max_value=10.0),
)
def test_kernel_coefficients_bounded_between_means(a, b):
    # every normalized monotone-function coefficient lies between the
    # harmonic-type lower value min(a,b) and max(a,b)
    for f in (SLD_FUNCTION, RLD_FUNCTION, BOGOLIUBOV_FUNCTION):
        c = f.kernel_coefficient(a, b)
        assert min(a, b) - 1e-9 <= c <= max(a, b) + 1e-9
