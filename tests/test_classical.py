"""Classical models: Fisher operators, pushforwards, estimators, Monte Carlo."""

import numpy as np
import pytest
from hypothesis import given, settings
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
from urlab.classical import P_FLOOR
from urlab.errors import (
    InvalidOperandError,
    NoUnbiasedEstimatorError,
    SingularModelError,
)
from urlab.randoms import random_kernel, random_model, rng_from_seed
from urlab.scenarios import unsharp_z_povm

from conftest import IDENTITY2, SIGMA_X, SIGMA_Z, qubit_state


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
    j = FisherOperator(b)
    r, sv, vh = dense_reference(b)
    assert j.rank == r == sum(min(p, q) for p, q in shapes)
    n = b.shape[1]
    a, c = gaussian(rng, n, complex_), gaussian(rng, n, complex_)
    scale = np.sqrt(j.quad(a) * j.quad(c))
    assert abs(j.quad(a, c) - np.real(np.vdot(vh @ a / sv, vh @ c / sv))) <= 1e-12 * scale
    for x in (a, j.matrix @ c):  # a generic direction and one in the range
        ref = np.linalg.norm(x - vh.conj().T @ (vh @ x))
        assert abs(j.kernel_violation(x) - ref) <= 1e-12 * np.linalg.norm(x)
        assert j.in_range(x) == (ref <= 1e-8 * np.linalg.norm(x))
    pinv = (vh.conj().T / sv**2) @ vh
    np.testing.assert_allclose(j.pinv, pinv, rtol=0, atol=1e-12 * np.abs(pinv).max())


@pytest.mark.parametrize("shape", [(4, 5), (3, 0), (0, 3)], ids=["zero", "no-columns", "no-rows"])
def test_zero_and_empty_factors_have_rank_zero(shape):
    j = FisherOperator(np.zeros(shape))
    assert j.rank == 0
    if shape[1]:
        a = np.arange(1.0, shape[1] + 1)
        assert j.quad(a) == 0.0 and not j.in_range(a)
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
    assert not j.in_range(np.eye(6)[5])
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
    "b, svd_shape, rank",
    [(np.random.default_rng(5).normal(size=(7, 4)), (7, 4), 4),
     (mixed_block_factor(), (4, 5), 6),
     (np.diag([2.0, -1.0, 0.5, 0.0]), None, 3)],
    ids=["no-zeros", "mixed-blocks", "diagonal"],
)
def test_one_svd_outside_the_1x1_blocks(svd_shapes, b, svd_shape, rank):
    # a factor without zeros takes one dense SVD; otherwise the nonzero rows and
    # columns outside the 1x1 blocks take one SVD, which may be empty
    assert FisherOperator(b).rank == rank
    assert [s for s in svd_shapes if np.prod(s)] == ([svd_shape] if svd_shape else [])


def test_model_from_povm_unsharp_qubit():
    eta = 0.8
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta), basis)
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
    mod = model_from_povm(IDENTITY2 / 2, pvm, tangent_basis(2))
    assert mod.n_outcomes == 2

    # a non-negligible effect with vanishing probability flags singularity
    rho = np.diag([1.0 - 1e-13, 1e-13]).astype(complex)
    proj = pvm_effects = np.diag([0.0, 1.0]).astype(complex)
    pvm2 = Povm(outcomes=(0, 1), effects=(np.eye(2) - proj, proj))
    with pytest.raises(SingularModelError):
        model_from_povm(rho, pvm2, tangent_basis(2))


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
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta), basis)
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


def test_no_unbiased_estimator_for_kernel_direction():
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(0.8), basis)
    with pytest.raises(NoUnbiasedEstimatorError):
        locally_unbiased_estimator(mod, basis.coords(SIGMA_X), target_value=0.0)


def test_monte_carlo_variance_matches_model():
    eta = 0.8
    basis = tangent_basis(2)
    mod = model_from_povm(IDENTITY2 / 2, unsharp_z_povm(eta), basis)
    est = locally_unbiased_estimator(mod, basis.coords(SIGMA_Z), 0.0)
    res = monte_carlo_variance(mod, est.values, n=100_000, seed=123)
    assert abs(res.var - est.variance) <= 3 * res.stderr


def test_monte_carlo_needs_enough_samples():
    mod = bernoulli_model(0.5)
    with pytest.raises(InvalidOperandError):
        monte_carlo_variance(mod, np.array([0.0, 1.0]), n=10, seed=0)
