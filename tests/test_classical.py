"""Classical models: Fisher operators, pushforwards, estimators, Monte Carlo."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urlab import (
    FisherOperator,
    StatisticalModel,
    StochasticKernel,
    fisher_operator,
    locally_unbiased_estimator,
    markov_pushforward,
    model_from_povm,
    monotonicity_check,
    monte_carlo_variance,
    tangent_basis,
)
from urlab.classical import _deflate, _in_range
from urlab.errors import (
    InvalidOperandError,
    NoUnbiasedEstimatorError,
    SingularModelError,
)
from urlab.randoms import random_kernel, random_model, rng_from_seed
from urlab.scenarios import run_verify, unsharp_z_povm

from conftest import IDENTITY2, SIGMA_X, SIGMA_Z


def bernoulli_model(p):
    """One-parameter coin model with the derivative taken along p."""
    return StatisticalModel(
        outcomes=(0, 1),
        probs=np.array([p, 1 - p]),
        scores=np.array([[1 / p], [-1 / (1 - p)]]),
    )


@settings(max_examples=30, deadline=None)
@given(p=st.floats(min_value=0.05, max_value=0.95))
def test_bernoulli_fisher_closed_form(p):
    j = fisher_operator(bernoulli_model(p)).matrix
    assert j[0, 0] == pytest.approx(1 / (p * (1 - p)), rel=1e-12)


def test_model_validation():
    with pytest.raises(InvalidOperandError):
        StatisticalModel(outcomes=(0, 1), probs=np.array([0.6, 0.6]),
                         scores=np.zeros((2, 1)))
    with pytest.raises(InvalidOperandError):
        StatisticalModel(outcomes=(0, 1), probs=np.array([0.5, 0.5]),
                         scores=np.array([[1.0], [1.0]]))  # not zero mean


@pytest.mark.parametrize(
    "probs, scores",
    [([1.2, -0.1, -0.1], np.zeros((3, 1))),
     ([np.nan, 1.0], np.zeros((2, 1))),
     ([0.5, 0.5], np.array([[np.inf], [-np.inf]])),
     ([0.5, 0.5 + 0j], np.zeros((2, 1))),
     ([0.5, 0.5], [["1"], ["-1"]]),
     ([0.5, 0.5], [[1.0], [-1.0, 0.0]])],
    ids=["negative-probability", "nan-probability", "infinite-score", "complex-probability",
         "string-score", "ragged-scores"],
)
def test_model_rejects_negative_or_non_finite_inputs(probs, scores):
    with pytest.raises(InvalidOperandError, match="nonnegative and scores finite"):
        StatisticalModel(outcomes=range(len(probs)), probs=probs, scores=scores)


def test_model_needs_a_tangent_direction():
    with pytest.raises(InvalidOperandError, match="at least one tangent direction"):
        StatisticalModel(outcomes=(0, 1), probs=[0.5, 0.5], scores=np.zeros((2, 0)))


def gaussian(rng, size, complex_):
    return rng.normal(size=size) + 1j * rng.normal(size=size) if complex_ else rng.normal(size=size)


def block_factor(rng, shapes, zero_rows, zero_cols, complex_):
    """Well-conditioned blocks of scales 0.1 to 10 on a diagonal, padded with zero
    rows and columns, behind random row and column permutations.

    A wider spread of scales would test the dense reference, not the blocks: a
    dense SVD perturbs a small block's singular vectors by about eps * s_max / s.
    """
    m = sum(p for p, _ in shapes) + zero_rows
    n = sum(q for _, q in shapes) + zero_cols
    b = np.zeros((m, n), complex if complex_ else float)
    i = j = 0
    for p, q in shapes:
        k = min(p, q)
        u = np.linalg.qr(gaussian(rng, (p, k), complex_))[0]
        v = np.linalg.qr(gaussian(rng, (q, k), complex_))[0]
        s = rng.uniform(0.5, 2.0, size=k) * 10.0 ** rng.uniform(-1, 1)
        b[i : i + p, j : j + q] = (u * s) @ v.conj().T
        i, j = i + p, j + q
    return b[rng.permutation(m)][:, rng.permutation(n)]


def dense_reference(b):
    """Rank, whitening and range projector from one dense thin SVD."""
    _, sv, vh = np.linalg.svd(b, full_matrices=False)
    tol = max(b.shape) * np.finfo(float).eps * sv.max(initial=0)
    r = int(np.sum(sv > tol))
    return r, sv[:r], vh[:r]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    shapes=st.lists(st.tuples(st.integers(1, 4), st.integers(1, 4)), min_size=1, max_size=5),
    zero_rows=st.integers(0, 3),
    zero_cols=st.integers(0, 3),
    complex_=st.booleans(),
)
def test_block_svd_matches_dense_svd(seed, shapes, zero_rows, zero_cols, complex_):
    rng = np.random.default_rng(seed)
    b = block_factor(rng, shapes, zero_rows, zero_cols, complex_)
    assert_matches_dense_reference(rng, b, sum(min(p, q) for p, q in shapes), complex_)


def assert_matches_dense_reference(rng, b, rank, complex_):
    """FisherOperator(b)'s rank, quad, solve, kernel residual, range rule and pinv
    against one dense SVD; returns the operator."""
    j = FisherOperator(b)
    r, sv, vh = dense_reference(b)
    assert j.rank == r == rank
    n = b.shape[1]
    a, c = gaussian(rng, n, complex_), gaussian(rng, n, complex_)
    scale = np.sqrt(j.quad(a) * j.quad(c))
    assert abs(j.quad(a, c) - np.real(np.vdot(vh @ a / sv, vh @ c / sv))) <= 1e-12 * scale
    x = vh.conj().T @ (vh @ a / sv**2)
    assert np.linalg.norm(j.solve(a) - x) <= 1e-12 * np.linalg.norm(x)
    for x in (a, j.matrix @ c):  # a generic direction and one in the range
        ref = np.linalg.norm(x - vh.conj().T @ (vh @ x))
        assert abs(j.kernel_violation(x) - ref) <= 1e-12 * np.linalg.norm(x)
        assert _in_range(j.kernel_violation(x), x) == (ref <= 1e-8 * np.linalg.norm(x))
    pinv = (vh.conj().T / sv**2) @ vh
    np.testing.assert_allclose(j.pinv, pinv, rtol=0, atol=1e-12 * np.abs(pinv).max())
    return j


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 6),
    cols=st.integers(1, 5),
    complex_=st.booleans(),
)
@example(seed=0, rows=1, cols=3, complex_=False)
@example(seed=0, rows=1, cols=3, complex_=True)
def test_deflate_drops_one_row_and_keeps_the_gram_matrix(seed, rows, cols, complex_):
    # v is a unit vector like sqrt(p), zero entries included, and b is
    # projected off it so that v^T b = 0 up to rounding; one row leaves none
    rng = np.random.default_rng(seed)
    v = np.sqrt(rng.uniform(size=rows) ** 3 * (rng.uniform(size=rows) < 0.8))
    v[rng.integers(rows)] += 0.5
    v /= np.linalg.norm(v)
    b = gaussian(rng, (rows, cols), complex_)
    b -= v[:, None] * (v @ b)
    out = _deflate(b, v)
    assert out.shape == (rows - 1, cols)
    gram = b.conj().T @ b
    assert np.linalg.norm(out.conj().T @ out - gram) <= 1e-14 * np.linalg.norm(gram)


def test_fisher_operator_of_probabilities_summing_off_one():
    # a model admits sum p = 1 + 9e-11; the deflation must still keep sum_x p l l^T
    rng = np.random.default_rng(1)
    p = rng.uniform(size=5)
    p *= (1 + 9e-11) / p.sum()
    g = rng.normal(size=(5, 3))
    mod = StatisticalModel(outcomes=range(5), probs=p, scores=g - p @ g / p.sum())
    want = (mod.probs[:, None] * mod.scores).T @ mod.scores
    assert np.linalg.norm(fisher_operator(mod).matrix - want) <= 1e-14 * np.linalg.norm(want)


@pytest.mark.parametrize("shape", [(4, 5), (3, 0), (0, 3)], ids=["zero", "no-columns", "no-rows"])
def test_zero_and_empty_factors_have_rank_zero(shape):
    j = FisherOperator(np.zeros(shape))
    assert j.rank == 0
    if shape[1]:
        a = np.arange(1.0, shape[1] + 1)
        assert j.quad(a) == 0.0 and not _in_range(j.kernel_violation(a), a)
        assert j.kernel_violation(a) == np.linalg.norm(a)
        np.testing.assert_array_equal(j.pinv, np.zeros((shape[1], shape[1])))


def test_rank_cut_drops_a_negligible_block():
    # blocks of singular values 1e-30, 1e-3 and about 1; the cut keeps the largest three
    b = np.zeros((4, 6))
    b[0, 5] = 1e-30
    b[1, 1:4] = 1e-3
    b[2:, [0, 4]] = [[1.0, 0.5], [-0.5, 1.0]]
    j = FisherOperator(b)
    assert j.rank == 3
    assert not _in_range(j.kernel_violation(np.eye(6)[5]), np.eye(6)[5])
    assert j.quad(np.array([0.0, 1.0, 1.0, 1.0, 0.0, 0.0])) == pytest.approx(1e6, rel=1e-12)
    assert j.quad(np.eye(6)[0]) == pytest.approx(0.8, rel=1e-12)


def mixed_block_factor():
    """1x1 blocks at (0, 6) and (5, 2), a 2x3 block on rows 1, 3 and columns 0, 4, 7,
    a 2x2 block on rows 2, 4 and columns 1, 3, a zero row 6 and a zero column 5."""
    b = np.zeros((7, 8), complex)
    b[0, 6], b[5, 2] = -2.0, 3j
    b[np.ix_([1, 3], [0, 4, 7])] = [[1, 2, 0.5], [-1, 1, 3]]
    b[np.ix_([2, 4], [1, 3])] = [[1, 1j], [2, -1]]
    return b


@pytest.mark.parametrize(
    "b, svd_call, rank",
    [(np.random.default_rng(5).normal(size=(7, 4)), ((4, 4), False), 4),
     (mixed_block_factor(), ((4, 5), True), 6),
     (np.diag([2.0, -1.0, 0.5, 0.0]), None, 3),
     (np.random.default_rng(6).normal(size=(40, 6)), ((6, 6), False), 6)],
    ids=["no-zeros", "mixed-blocks", "diagonal", "tall"],
)
def test_one_svd_outside_the_1x1_blocks(svd_calls, b, svd_call, rank):
    # a full-rank factor without zeros and with rows >= cols takes only the
    # singular values of the (cols, cols) R of its QR; otherwise the nonzero
    # rows and columns outside the 1x1 blocks take one SVD, which may be empty
    assert FisherOperator(b).rank == rank
    assert [c for c in svd_calls if np.prod(c[0])] == ([svd_call] if svd_call else [])


@pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("rows", [lambda n: n, lambda n: n + 1, lambda n: 3 * n],
                         ids=["square", "one-more-row", "tall"])
@pytest.mark.parametrize("rank", [6, 4], ids=["full-rank", "rank-deficient"])
def test_dense_factor_with_rows_at_least_columns(svd_calls, rows, complex_, rank):
    # the singular values of its (n, n) triangle come first; a full-rank one
    # computes no singular vector and, J being invertible, gives no direction a
    # kernel component, not even a rounding residue; a cut one takes the SVD
    rng = np.random.default_rng(13)
    n = 6
    b = gaussian(rng, (rows(n), rank), complex_) @ gaussian(rng, (rank, n), complex_)
    FisherOperator(b)
    assert svd_calls[0] == ((n, n), False)
    assert [uv for _, uv in svd_calls[1:]] == ([] if rank == n else [True])
    j = assert_matches_dense_reference(rng, b, rank, complex_)
    violation = j.kernel_violation(gaussian(rng, n, complex_))
    assert violation == 0.0 if rank == n else violation > 0.1


@pytest.mark.parametrize("shape", [(16, 16), (64, 63)], ids=["square", "64x63"])
@pytest.mark.parametrize("factor", [1.25, 0.8], ids=["above", "below"])
def test_triangle_path_cuts_on_the_factor_shape(svd_calls, shape, factor):
    # s_min a little above or below max(m, n) eps s_max: the singular values of
    # R decide the path, and the rank agrees with one dense SVD of B
    rng = np.random.default_rng(15)
    m, n = shape
    eps = np.finfo(float).eps
    u = np.linalg.qr(rng.normal(size=(m, n)))[0]
    v = np.linalg.qr(rng.normal(size=(n, n)))[0]
    b = (u * np.r_[np.linspace(1.0, 0.1, n - 1), factor * m * eps]) @ v.T
    full = factor > 1
    s = np.linalg.svd(b if m == n else np.linalg.qr(b, mode="r"), compute_uv=False)
    assert (s[-1] > m * eps * s[0]) == full
    svd_calls.clear()
    j = FisherOperator(b)
    assert [uv for _, uv in svd_calls] == ([False] if full else [False, True])
    assert j.rank == dense_reference(b)[0] == (n if full else n - 1)


def test_tall_factor_matches_dense_reference():
    # 40x6 of rank 4: the QR-first path cuts the rank and whitens as one dense SVD
    rng = np.random.default_rng(11)
    b = gaussian(rng, (40, 4), True) @ gaussian(rng, (4, 6), True)
    assert_matches_dense_reference(rng, b, 4, True)


def test_tall_factor_rank_cut_uses_the_factor_shape():
    # s_min = 23 eps s_max lies between the cuts 6 eps s_max (R's shape) and
    # 40 eps s_max (B's shape): the rank is cut on B's shape, so s_min goes
    rng = np.random.default_rng(12)
    eps = np.finfo(float).eps
    u = np.linalg.qr(rng.normal(size=(40, 6)))[0]
    v = np.linalg.qr(rng.normal(size=(6, 6)))[0]
    b = (u * [1.0, 0.8, 0.5, 0.3, 0.1, 23 * eps]) @ v.T
    s_min = np.linalg.svd(np.linalg.qr(b, mode="r"), compute_uv=False)[-1]
    assert 6 * eps < s_min < 40 * eps
    assert FisherOperator(b).rank == dense_reference(b)[0] == 5


def test_full_rank_block_factor_has_no_kernel():
    # dense 3x3 and 2x2 blocks on the diagonal take the SVD path; J is
    # invertible, so no direction has a kernel component, not even the
    # rounding residue |a - V V^H a| (2e-16 before)
    rng = np.random.default_rng(17)
    b = np.zeros((5, 5))
    b[:3, :3], b[3:, 3:] = rng.normal(size=(3, 3)), rng.normal(size=(2, 2))
    j = assert_matches_dense_reference(rng, b, 5, False)
    assert j.kernel_violation(rng.normal(size=5)) == 0.0


@pytest.mark.parametrize("rows", [7, 18], ids=["7x6", "18x6"])
def test_cut_dense_factor_takes_one_qr(monkeypatch, svd_calls, rows):
    # a rank-4 factor: the SVD that finds the cut and the one that keeps V are
    # both of the (6, 6) triangle of the one QR
    qr_shapes = []
    qr = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode: qr_shapes.append(a.shape) or qr(a, mode))
    rng = np.random.default_rng(19)
    b = rng.normal(size=(rows, 4)) @ rng.normal(size=(4, 6))
    assert FisherOperator(b).rank == 4
    assert qr_shapes == [(rows, 6)]
    assert svd_calls == [((6, 6), False), ((6, 6), True)]


def test_model_from_povm_unsharp_qubit():
    eta = 0.8
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta))
    np.testing.assert_allclose(mod.probs, [0.5, 0.5], atol=1e-12)
    j = fisher_operator(mod)
    # only the z direction is informative: J = diag(0, 0, 2 eta^2)
    np.testing.assert_allclose(
        j.matrix, np.diag([0.0, 0.0, 2 * eta**2]), atol=1e-12
    )
    assert j.rank == 1


def test_model_from_povm_drops_null_effects_only():
    # a zero effect with zero probability is dropped silently
    from urlab import Povm

    pvm = Povm(
        outcomes=(0, 1, 2),
        effects=((IDENTITY2 + SIGMA_Z) / 2, (IDENTITY2 - SIGMA_Z) / 2,
                 np.zeros((2, 2), dtype=complex)),
    )
    mod = model_from_povm(IDENTITY2 / 2, pvm)
    assert mod.n_outcomes == 2

    # a non-negligible effect with vanishing probability flags singularity
    rho = np.diag([1.0 - 1e-13, 1e-13]).astype(complex)
    proj = pvm_effects = np.diag([0.0, 1.0]).astype(complex)
    pvm2 = Povm(outcomes=(0, 1), effects=(np.eye(2) - proj, proj))
    with pytest.raises(SingularModelError):
        model_from_povm(rho, pvm2)


def test_binary_symmetric_pushforward_oracle():
    p, q = 0.3, 0.1
    mod = bernoulli_model(p)
    flip = StochasticKernel(matrix=np.array([[1 - q, q], [q, 1 - q]]))
    pushed = markov_pushforward(mod, flip)
    p2 = (1 - q) * p + q * (1 - p)
    np.testing.assert_allclose(pushed.probs, [p2, 1 - p2], atol=1e-12)
    j2 = fisher_operator(pushed).matrix[0, 0]
    assert j2 == pytest.approx((1 - 2 * q) ** 2 / (p2 * (1 - p2)), rel=1e-12)


def test_kernel_validation():
    with pytest.raises(InvalidOperandError):
        StochasticKernel(matrix=np.array([[0.5, 0.5], [0.6, 0.5]]))
    with pytest.raises(InvalidOperandError):
        StochasticKernel(matrix=np.array([[1.2, 0.0], [-0.2, 1.0]]))
    with pytest.raises(InvalidOperandError, match="nonempty"):
        StochasticKernel(matrix=np.zeros((2, 0)))


def test_kernel_rejects_nan_entries():
    with pytest.raises(InvalidOperandError, match="nonnegative numbers"):
        StochasticKernel(matrix=np.array([[np.nan, 0.0], [np.nan, 1.0]]))


def test_one_outcome_pushforward_has_rank_zero():
    # pushing every outcome to one leaves p' = 1 and a score that is exactly 0:
    # J' = 0, so the deflated factor has no rows
    mod = random_model(rng_from_seed(5), 4, 3)
    pushed = markov_pushforward(mod, StochasticKernel(np.ones((1, 4))))
    assert fisher_operator(pushed).rank == 0


def test_classical_cramer_rao_row_at_rounding_level():
    # the estimator solves through the same deflated factor as (a, J^+ a), so
    # their gap stays within the row's absolute 1e-9
    assert run_verify("classical", trials=10, seed=3890103158).all_pass


def test_pushforward_shape_mismatch():
    mod = bernoulli_model(0.5)
    with pytest.raises(InvalidOperandError):
        markov_pushforward(mod, StochasticKernel(matrix=np.eye(3)))


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_monotonicity_random_models(seed):
    rng = rng_from_seed(seed)
    mod = random_model(rng, n_outcomes=6, n_params=3)
    k = random_kernel(rng, n_out=4, n_in=6)
    rep = monotonicity_check(mod, k)
    assert rep.holds
    assert rep.diff_min_eig >= -1e-9 * max(
        1.0, np.linalg.norm(fisher_operator(mod).matrix)
    )


def test_locally_unbiased_estimator_unsharp_oracle():
    eta = 0.8
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta))
    a = basis.coords(SIGMA_Z)
    est = locally_unbiased_estimator(mod, a, target_value=0.0)
    np.testing.assert_allclose(sorted(est.values), [-1 / eta, 1 / eta], atol=1e-12)
    assert est.variance == pytest.approx(1 / eta**2, abs=1e-12)


def test_locally_unbiased_estimator_moments():
    # mean reproduces the target and the score pairing reproduces the gradient
    rng = rng_from_seed(11)
    mod = random_model(rng, n_outcomes=7, n_params=4)
    j = fisher_operator(mod)
    a = j.matrix @ rng.normal(size=4)  # guaranteed in range
    est = locally_unbiased_estimator(mod, a, target_value=2.5)
    assert mod.probs @ est.values == pytest.approx(2.5, abs=1e-9)
    grad = mod.probs @ (mod.scores * est.values[:, None])
    np.testing.assert_allclose(grad, a, atol=1e-9)


def test_estimator_direction_needs_one_entry_per_parameter():
    with pytest.raises(InvalidOperandError, match=r"not \(1,\)"):
        locally_unbiased_estimator(bernoulli_model(0.5), np.ones(2), target_value=0.0)
    # a sequence target raised a raw ValueError; it must not broadcast against the outcomes
    with pytest.raises(InvalidOperandError, match=r"\(2,\), not \(1,\) and \(\)"):
        locally_unbiased_estimator(bernoulli_model(0.5), np.ones(1), target_value=[5.0, -3.0])


def test_no_unbiased_estimator_for_kernel_direction():
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(0.8))
    with pytest.raises(NoUnbiasedEstimatorError):
        locally_unbiased_estimator(mod, basis.coords(SIGMA_X), target_value=0.0)


def test_monte_carlo_variance_matches_model():
    eta = 0.8
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta))
    est = locally_unbiased_estimator(mod, basis.coords(SIGMA_Z), 0.0)
    res = monte_carlo_variance(mod, est.values, n=100_000, seed=123)
    assert abs(res.var - est.variance) <= 3 * res.stderr


def test_monte_carlo_needs_enough_samples():
    mod = bernoulli_model(0.5)
    with pytest.raises(InvalidOperandError):
        monte_carlo_variance(mod, np.array([0.0, 1.0]), n=10, seed=0)


def test_monte_carlo_needs_one_value_per_outcome():
    with pytest.raises(InvalidOperandError, match=r"not \(2,\)"):
        monte_carlo_variance(bernoulli_model(0.5), np.zeros(3), n=1000, seed=0)


def test_monte_carlo_rejects_a_negative_seed():
    with pytest.raises(InvalidOperandError, match="seed"):
        monte_carlo_variance(bernoulli_model(0.5), np.zeros(2), n=1000, seed=-1)
