"""Tangent-space basics: bases, pseudoinverses, Schur reports, K^f solvers."""

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urlab import (
    BOGOLIUBOV_FUNCTION,
    RLD_FUNCTION,
    SLD_FUNCTION,
    MonotoneFunction,
    StatisticalModel,
    disturbance,
    error_disturbance_report,
    error_error_report,
    is_hermitian,
    kf_superoperator,
    measurement_error,
    model_from_povm,
    monte_carlo_variance,
    mp_inverse,
    project_traceless,
    quantum_cr_check,
    quantum_fisher,
    schur_positivity_report,
    tangent_basis,
)
from urlab.errors import (
    InvalidDimensionError,
    InvalidOperandError,
    SingularStateError,
    UrlabError,
)
from urlab.randoms import (
    random_complex,
    random_hermitian,
    rng_from_seed,
)
from urlab.oscillator import thermal_state
from urlab.scenarios import ScenarioConfig, run_verify

from conftest import SIGMA_X, SIGMA_Y, SIGMA_Z, qubit_state

_MODEL = StatisticalModel(outcomes=(0, 1, 2), probs=np.full(3, 1 / 3), scores=np.zeros((3, 1)))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_tangent_basis_orthonormal_traceless(dim):
    basis = tangent_basis(dim)
    assert basis.size == dim * dim - 1
    elements = basis.matrix(np.eye(basis.size))
    for a in range(basis.size):
        assert abs(np.trace(elements[a])) < 1e-12
        assert is_hermitian(elements[a])
        for b in range(basis.size):
            expected = 1.0 if a == b else 0.0
            assert np.vdot(elements[a], elements[b]) == pytest.approx(expected, abs=1e-12)


def test_tangent_basis_dim2_is_scaled_pauli():
    elements = tangent_basis(2).matrix(np.eye(3))
    np.testing.assert_allclose(elements[0], SIGMA_X / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(elements[1], SIGMA_Y / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(elements[2], SIGMA_Z / np.sqrt(2), atol=1e-14)


def test_tangent_basis_rejects_dim_one():
    with pytest.raises(InvalidDimensionError):
        tangent_basis(1)


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: tangent_basis(2.5), InvalidDimensionError),
        (lambda: run_verify("all", trials=2.5), UrlabError),
        (lambda: run_verify("all", trials=1, dim_max=2.5), UrlabError),
        (lambda: run_verify("all", trials=1, seed=1.5), UrlabError),
        (lambda: monte_carlo_variance(_MODEL, np.zeros(3), 1000.5, 0), InvalidOperandError),
        (lambda: monte_carlo_variance(_MODEL, np.zeros(3), 1000, 0.5), InvalidOperandError),
        (lambda: run_verify("classical", trials=True), UrlabError),
        (lambda: run_verify("classical", seed=False), UrlabError),
        (lambda: ScenarioConfig("qubit-unsharp", seed=True), UrlabError),
        (lambda: monte_carlo_variance(_MODEL, np.zeros(3), 1000, True), InvalidOperandError),
    ],
    ids=["basis-dim", "verify-trials", "verify-dim-max", "verify-seed", "mc-n", "mc-seed",
         "verify-bool-trials", "verify-bool-seed", "config-bool-seed", "mc-bool-seed"],
)
def test_integer_parameters_take_operator_index(call, error):
    # 2.5 once built a basis of size 5.25, the others raised a raw TypeError,
    # and a bool ran as 0 or 1
    with pytest.raises(error, match=r"^\w+ must be an integer( >= \d+)?, got "):
        call()
    assert tangent_basis(np.int64(3)).size == 8


def test_bases_of_one_dimension_share_read_only_index_maps():
    # the maps are cached per dimension, so a write to one would corrupt every basis
    a, b = tangent_basis(4), tangent_basis(4)
    assert a._gell_mann is b._gell_mann and a._pairs is b._pairs
    for arr in (a._gell_mann, *a._pairs):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_no_function_takes_a_basis():
    # the state's dimension fixes the tangent basis, so a caller cannot pass a mismatched one
    for fn in (model_from_povm, quantum_fisher, quantum_cr_check, measurement_error,
               disturbance, error_error_report, error_disturbance_report):
        assert "basis" not in inspect.signature(fn).parameters, fn.__name__


def test_basis_matrix_rejects_wrong_coordinate_count():
    with pytest.raises(InvalidDimensionError):
        tangent_basis(3).matrix(np.zeros(3))
    with pytest.raises(InvalidDimensionError):
        tangent_basis(3).coords(np.eye(2))


def test_coords_matrix_round_trip(rng):
    basis = tangent_basis(3)
    coeffs = rng.normal(size=basis.size)
    x = basis.matrix(coeffs)
    np.testing.assert_allclose(basis.coords(x), coeffs, atol=1e-12)
    np.testing.assert_allclose(basis.matrix(basis.coords(x)), x, atol=1e-12)


def _inner(basis, y):
    # Tr[e_a^H y] for every matrix y of a stack: _combine of a test-local gather of y's
    # pair entries and diagonal into an entry-major output, the layout of the gathers
    (j, k), y = basis._pairs, np.asarray(y, complex)
    out = np.empty((basis.size,) + y.shape[:-2], complex).transpose(*range(1, y.ndim - 1), 0)
    return basis._combine(y[..., j, k], y[..., k, j], y.diagonal(0, -2, -1), out)


def _dense_basis(dim):
    # the explicit element-by-element construction, in the documented order
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2)
            mats.append(m)
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            mats.append(m)
    for l in range(1, dim):
        diag = np.zeros(dim)
        diag[:l] = 1.0
        diag[l] = -float(l)
        mats.append(np.diag(diag / np.linalg.norm(diag)).astype(complex))
    return np.array(mats)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 8])
def test_stacked_coords_and_matrix_match_dense_basis(dim):
    gen = rng_from_seed(20 + dim)
    basis = tangent_basis(dim)
    dense = _dense_basis(dim)
    np.testing.assert_allclose(basis.matrix(np.eye(basis.size)), dense, atol=1e-15)
    x = np.array([[random_hermitian(gen, dim) for _ in range(7)] for _ in range(2)])
    for stack in (x[0], x):
        want = np.einsum("aij,...ij->...a", dense.conj(), stack).real
        np.testing.assert_allclose(basis.coords(stack), want, atol=1e-14)
        c = gen.normal(size=stack.shape[:-2] + (basis.size,))
        np.testing.assert_allclose(basis.matrix(c), np.einsum("...a,aij->...ij", c, dense), atol=1e-14)
    # _combine is the complex pairing, also on non-Hermitian input (Choi slices)
    y = random_complex(gen, (2, 7, dim, dim))
    want = np.einsum("aij,...ij->...a", dense.conj(), y)
    np.testing.assert_allclose(_inner(basis, y), want, rtol=0, atol=1e-14)
    # a matrix with nonzero trace has the coordinates of its traceless part
    y = x[0, 0] + 3.0 * np.eye(dim)
    np.testing.assert_allclose(basis.coords(y), basis.coords(project_traceless(y)), atol=1e-14)
    np.testing.assert_allclose(basis.matrix(basis.coords(y)), project_traceless(y), atol=1e-14)


def _is_hermitian_loop(a):
    # the rule, matrix by matrix: finite, and max|a - a^H| <= 1e-12 max(max|a|, 1)
    return all(np.isfinite(m).all() and np.abs(m - m.conj().T).max() <= 1e-12 * max(np.abs(m).max(), 1.0)
               for m in a.reshape((-1,) + a.shape[-2:]))


def _laid_out(a, layout):
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "transposed":  # a view whose last two axes are swapped in memory
        return np.ascontiguousarray(np.swapaxes(a, -1, -2)).swapaxes(-1, -2)
    if layout == "sliced":  # every other row and column of a larger array
        big = np.zeros(a.shape[:-2] + (2 * a.shape[-2], 2 * a.shape[-1]), a.dtype)
        big[..., ::2, 1::2] = a
        return big[..., ::2, 1::2]
    return np.ascontiguousarray(a)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 5),
    n=st.sampled_from([None, 1, 3]),
    cplx=st.booleans(),
    magnitude=st.sampled_from([1e-3, 1.0, 1e6]),
    layout=st.sampled_from(["C", "fortran", "transposed", "sliced"]),
    edit=st.sampled_from(["none", "at-bound", "ulp-inside", "ulp-outside", "nan", "inf"]),
)
def test_is_hermitian_matches_the_per_matrix_loop(seed, d, n, cplx, magnitude, layout, edit):
    gen = np.random.default_rng(seed)
    shape = (n or 1, d, d)
    g = magnitude * (random_complex(gen, shape) if cplx else gen.normal(size=shape))
    a = np.triu(g) + np.swapaxes(np.triu(g, 1), -1, -2).conj()
    if cplx:
        a[:, range(d), range(d)] = a[:, range(d), range(d)].real  # exactly Hermitian
    m = a[gen.integers(len(a))]
    want = True
    if edit in ("nan", "inf"):
        m[gen.integers(d), gen.integers(d)] = np.nan if edit == "nan" else np.inf
        want = False
    elif edit != "none" and d > 1:
        j, k = sorted(gen.choice(d, 2, replace=False))
        m[j, k] = m[k, j] = 0.0
        bound = 1e-12 * max(np.abs(m).max(), 1.0)
        step = {"at-bound": bound, "ulp-inside": np.nextafter(bound, 0),
                "ulp-outside": np.nextafter(bound, np.inf)}[edit]
        m[j, k] = 1j * step if cplx else step  # |a_jk - conj(a_kj)| is exactly step
        want = edit != "ulp-outside"
    a = _laid_out(a if n else a[0], layout)
    assert _is_hermitian_loop(a) is want
    assert is_hermitian(a) is want


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_coords_are_the_real_part_of_inner(dim):
    # coords is Re Tr[e_a^H x], the real part of the one complex pairing, and must equal
    # it bit for bit on stacks and single matrices, Hermitian or not, in any layout
    gen = rng_from_seed(40 + dim)
    basis = tangent_basis(dim)
    herm = np.array([random_hermitian(gen, dim) for _ in range(6)])
    for y in (herm, herm.reshape(2, 3, dim, dim), random_complex(gen, (5, dim, dim)),
              _laid_out(random_complex(gen, (4, dim, dim)), "transposed"), herm[0], herm[:1]):
        got, want = basis.coords(y), _inner(basis, y).real
        assert got.dtype == np.float64 and got.shape == want.shape
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
    # a real input takes the same route; its imaginary parts read as zeros
    x = herm.real
    np.testing.assert_array_equal(basis.coords(x), _inner(basis, x).real)
    np.testing.assert_array_equal(basis.coords(x), basis.coords(x.astype(complex)))
    # _combine scales its gathers in place, so an integer or bool input is read as float
    z = np.rint(4 * x)
    for y in (z.astype(int), z.tolist(), z != 0):
        np.testing.assert_array_equal(basis.coords(y), basis.coords(np.asarray(y, float)))


def test_project_traceless(rng):
    for d in (2, 4):
        w = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        a = w + w.conj().T
        p = project_traceless(a)
        assert abs(np.trace(p)) < 1e-12
        np.testing.assert_allclose(project_traceless(p), p, atol=1e-12)
        # the removed part is the identity component
        np.testing.assert_allclose(a - p, np.trace(a) / d * np.eye(d), atol=1e-12)


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


def test_mp_inverse_preserves_real_dtype(rng):
    s = _random_fixed_rank(rng, 4, 2)
    res = mp_inverse(s)
    assert not np.iscomplexobj(res.pinv)


def test_mp_inverse_rejects_nonsquare():
    with pytest.raises(InvalidOperandError):
        mp_inverse(np.ones((2, 3)))


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


def test_unnormalized_function_rejected():
    # f(1) = 1/2 would halve every metric
    with pytest.raises(InvalidOperandError, match=r"f\(1\) = 0.5"):
        MonotoneFunction("half", lambda x: (x + 1) / 4)


def test_bogoliubov_kernel_is_accurate_at_large_ratios():
    # pairs in [1e-16, 1] with ratio 2 to 1e16 in both orders, and the d = 40,
    # nbar 1 thermal spectrum; the reference (a - b) / (log a - log b) is taken
    # in extended precision, since in float log a - log b loses up to 8e-15
    # at ratio 2 near 1e-16
    if np.finfo(np.longdouble).eps >= np.finfo(float).eps:
        pytest.skip("long double is no wider than double here")
    gen = np.random.default_rng(3)
    b = 10 ** gen.uniform(-16, 0, 2000)
    a = b * 10 ** gen.uniform(np.log10(2), 16, 2000)
    a, b = a[a <= 1], b[a <= 1]
    lam = np.diag(thermal_state(40, 1.0).rho).real
    i, j = np.nonzero(~np.eye(40, dtype=bool))
    a, b = np.concatenate([a, b, lam[i]]), np.concatenate([b, a, lam[j]])
    al, bl = a.astype(np.longdouble), b.astype(np.longdouble)
    ref = (al - bl) / (np.log(al) - np.log(bl))
    got = BOGOLIUBOV_FUNCTION.kernel_coefficient(a, b)
    assert np.max(np.abs(got - ref) / ref) <= 1e-15


@pytest.mark.parametrize("delta", [1e-12, 1e-10, 1e-9])
def test_bogoliubov_function_near_one(delta):
    # only x == 1 takes the limit: (x - 1) / log x is accurate right up to it
    want = delta / np.log1p(delta)
    assert abs(BOGOLIUBOV_FUNCTION.evaluate(1 + delta) - want) <= 1e-15 * want


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
