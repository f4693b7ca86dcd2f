"""Classical statistical models over finite outcome sets with matrix parameters.

A model holds outcome probabilities and the per-outcome score values along
each orthonormal tangent direction.  From it: the Fisher information operator,
Markov-kernel pushforwards, monotonicity checks, locally unbiased estimators,
and Monte Carlo variance estimates.  FisherOperator holds a Fisher matrix
through a Gram factor B with J = B^H B; the quantum Fisher informations of
qfisher use the same type, so error and disturbance share one quadratic form.
B's 1x1 blocks (entries alone in their row and column) are read off
directly and the rest of B takes one thin SVD; the rank is cut on B's singular
values at max(B.shape) * eps * s_max as for one dense SVD.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidOperandError,
    NoUnbiasedEstimatorError,
    SingularModelError,
)
from .operator_core import TangentBasis, tangent_basis
from .quantum import Povm, QuantumState, _as_state_matrix

# Outcomes with probability at or below this floor are dropped, provided their
# effect is numerically zero; otherwise the model is flagged singular.
P_FLOOR = 1e-12


@dataclass(frozen=True)
class StatisticalModel:
    """Finite-outcome model: probabilities and scores per tangent direction.

    scores[x, a] is the logarithmic derivative l(x; e_a) along the a-th basis
    direction.  Every constructed model satisfies the zero-mean score identity
    sum_x p(x) l(x; e_a) = 0.
    """

    outcomes: tuple
    probs: np.ndarray
    scores: np.ndarray  # shape (n_outcomes, m)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        scores = np.asarray(self.scores, dtype=float)
        if probs.ndim != 1 or scores.ndim != 2 or scores.shape[0] != probs.size:
            raise InvalidOperandError("probs/scores shape mismatch")
        if scores.shape[1] == 0:
            raise InvalidOperandError("scores need at least one tangent direction")
        if len(self.outcomes) != probs.size:
            raise InvalidOperandError("outcomes length mismatch")
        if abs(probs.sum() - 1.0) > 1e-10:
            raise InvalidOperandError(f"probabilities sum to {probs.sum()}")
        mean = probs @ scores
        if np.abs(mean).max() > 1e-9 * max(1.0, np.abs(scores).max()):
            raise InvalidOperandError("scores are not zero mean")
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "scores", scores)

    @property
    def n_outcomes(self) -> int:
        return self.probs.size


def _block_svd(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of b in descending order, and the matching rows of V^H.

    A factor with zero entries splits off its 1x1 blocks: an entry that is the
    only nonzero of its row and of its column has singular value |b_rc| and
    V^H row e_c (its phase goes to U, which is not kept).  The other nonzero
    rows and columns take one thin SVD; zero rows and columns are left out.
    """
    if np.count_nonzero(b) == b.size:
        return np.linalg.svd(b, full_matrices=False)[1:]
    nz = b != 0
    nrow, ncol = nz.sum(axis=1), nz.sum(axis=0)
    r = np.flatnonzero(nrow == 1)
    c = nz[r].argmax(axis=1)
    alone = ncol[c] == 1  # the row's only nonzero is also its column's only one
    r, c = r[alone], c[alone]
    rows, cols = nrow > 0, ncol > 0
    rows[r] = cols[c] = False
    sv, v = np.linalg.svd(b[rows][:, cols], full_matrices=False)[1:]
    sv = np.concatenate([np.abs(b[r, c]), sv])
    vh = np.zeros((sv.size, b.shape[1]), v.dtype)
    vh[np.arange(r.size), c] = 1
    vh[r.size:, cols] = v
    idx = np.argsort(-sv, kind="stable")
    return sv[idx], vh[idx]


class FisherOperator:
    """Fisher information J = B^H B, held through its Gram factor B.

    The SVD B = U S V^H (one thin SVD when B has no zero entry, otherwise
    B's 1x1 blocks read off directly and one thin SVD of the rest) fixes the
    numerical rank: singular values of B (not of J, which would square the
    condition number) at or below max(B.shape) * eps * s_max are cut.  The
    kept right singular vectors V_r span range(J), so (a, J^+ b) is the dot
    product of S^{-1} V_r^H a and S^{-1} V_r^H b, and a leaves the range by
    its residual a - V_r V_r^H a.
    The matrix J and its pseudoinverse are derived only on request.
    """

    def __init__(self, factor: np.ndarray):
        self.factor = factor
        sv, vh = _block_svd(factor)
        tol = max(factor.shape) * np.finfo(float).eps * sv.max(initial=0)
        self.rank = int(np.sum(sv > tol))
        self._sv = sv[: self.rank]
        self._vh = vh[: self.rank]

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.factor.conj().T @ self.factor

    @cached_property
    def pinv(self) -> np.ndarray:
        return (self._vh.conj().T / self._sv**2) @ self._vh

    def _whiten(self, a: np.ndarray) -> np.ndarray:
        return (self._vh @ np.asarray(a)) / self._sv

    def quad(self, a: np.ndarray, b: np.ndarray | None = None) -> float:
        """(a, J^+ b) with the Euclidean pairing on coordinates."""
        za = self._whiten(a)
        zb = za if b is None else self._whiten(b)
        return float(np.real(np.vdot(za, zb)))

    def kernel_violation(self, a: np.ndarray) -> float:
        """Norm of the component of a outside the row space of B (ker J)."""
        a = np.asarray(a)
        return float(np.linalg.norm(a - self._vh.conj().T @ (self._vh @ a)))

    def in_range(self, a: np.ndarray) -> bool:
        """Whether a's kernel violation is at most 1e-8 of its norm: (a, J^+ a) is finite."""
        return self.kernel_violation(a) <= 1e-8 * max(np.linalg.norm(a), 1e-300)


@dataclass(frozen=True)
class StochasticKernel:
    """Column-stochastic matrix mapping old outcomes to new outcomes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise InvalidOperandError("kernel must be a matrix")
        if m.min() < 0:
            raise InvalidOperandError("kernel entries must be nonnegative")
        if np.abs(m.sum(axis=0) - 1.0).max() > 1e-12:
            raise InvalidOperandError("kernel columns must sum to 1")
        object.__setattr__(self, "matrix", m)


def _model_on_support(outcomes, probs, numer, effects=None) -> StatisticalModel:
    """The renormalized model, scores numer / p, on the outcomes with p above P_FLOOR.

    Given the effects, dropping an outcome whose effect is not negligible raises.
    """
    keep = probs > P_FLOOR
    if effects is not None:
        singular = ~keep & (np.linalg.norm(effects, axis=(1, 2)) > 1e-10)
        if singular.any():
            x = singular.argmax()
            raise SingularModelError(f"outcome {outcomes[x]!r} has probability "
                                     f"{probs[x]:.3e} but a non-negligible effect")
    kept = probs[keep]
    return StatisticalModel(
        outcomes=tuple(o for o, k in zip(outcomes, keep) if k),
        probs=kept / kept.sum(),
        scores=numer[keep] / kept[:, None],
    )


def model_from_povm(
    s: QuantumState | np.ndarray, m: Povm, basis: TangentBasis | None = None
) -> StatisticalModel:
    """The classical model of measuring a POVM on the affine state family.

    p(x) = Tr[rho effect(x)] and l(x; e_a) = Tr[e_a effect(x)] / p(x).
    Outcomes with negligible probability are dropped only when their effect is
    itself negligible; otherwise the model is singular (the state is not
    strictly positive or the POVM is inconsistent).
    """
    rho = _as_state_matrix(s)
    d = rho.shape[0]
    if m.dim != d:
        raise InvalidOperandError("state and POVM dimension mismatch")
    if basis is None:
        basis = tangent_basis(d)
    probs = np.einsum("ij,xji->x", rho, m.effects).real
    return _model_on_support(m.outcomes, probs, basis.coords(m.effects), m.effects)


def fisher_operator(mod: StatisticalModel) -> FisherOperator:
    """J_ab = sum_x p(x) l(x; e_a) l(x; e_b), with factor rows sqrt(p(x)) l(x; .)."""
    return FisherOperator(np.sqrt(mod.probs)[:, None] * mod.scores)


def markov_pushforward(mod: StatisticalModel, k: StochasticKernel) -> StatisticalModel:
    """Push the model through a Markov kernel.

    probs' = K p; scores push by conditional expectation,
    l'(y; e_a) = sum_x K(y|x) p(x) l(x; e_a) / p'(y).
    """
    km = k.matrix
    if km.shape[1] != mod.n_outcomes:
        raise InvalidOperandError(
            f"kernel expects {km.shape[1]} outcomes, model has {mod.n_outcomes}"
        )
    numer = km @ (mod.probs[:, None] * mod.scores)
    return _model_on_support(range(km.shape[0]), km @ mod.probs, numer)


@dataclass(frozen=True)
class MonotonicityReport:
    diff_min_eig: float
    holds: bool


def monotonicity_check(mod: StatisticalModel, k: StochasticKernel) -> MonotonicityReport:
    """Check J >= J' for the pushforward through a Markov kernel."""
    j = fisher_operator(mod).matrix
    jp = fisher_operator(markov_pushforward(mod, k)).matrix
    diff_min = float(np.linalg.eigvalsh(j - jp).min())
    return MonotonicityReport(
        diff_min_eig=diff_min,
        holds=diff_min >= -1e-9 * max(np.linalg.norm(j), 1.0),
    )


@dataclass(frozen=True)
class Estimator:
    """Locally unbiased estimator: one real value per model outcome."""

    values: np.ndarray
    variance: float


def locally_unbiased_estimator(
    mod: StatisticalModel, a: np.ndarray, target_value: float
) -> Estimator:
    """The score-based locally unbiased estimator for the direction a.

    f(x) = target_value + kappa(x) . J^+ a; its mean is target_value, its mean
    gradient is a, and its variance attains the Cramer-Rao bound (a, J^+ a).
    Raises when a has a kernel component: no unbiased estimator exists.
    """
    a = np.asarray(a, dtype=float)
    j = fisher_operator(mod)
    if not j.in_range(a):
        raise NoUnbiasedEstimatorError(
            f"direction has kernel component {j.kernel_violation(a):.3e}"
        )
    weights = j.pinv @ a
    values = target_value + mod.scores @ weights
    return Estimator(values=values, variance=j.quad(a))


@dataclass(frozen=True)
class MonteCarloResult:
    mean: float
    var: float
    stderr: float


def monte_carlo_variance(
    mod: StatisticalModel, values: np.ndarray, n: int, seed: int
) -> MonteCarloResult:
    """Sample mean/variance of a per-outcome estimator over n i.i.d. draws.

    stderr is the normal-theory variance-of-variance approximation
    sqrt(2 / (n - 1)) * var.
    """
    if n < 1000:
        raise InvalidOperandError("need at least 1000 samples")
    values = np.asarray(values, dtype=float)
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(mod.n_outcomes, size=n, p=mod.probs)
    draws = values[idx]
    var = float(np.var(draws, ddof=1))
    return MonteCarloResult(
        mean=float(draws.mean()), var=var, stderr=float(np.sqrt(2.0 / (n - 1)) * var)
    )
