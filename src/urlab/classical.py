"""Classical statistical models over finite outcome sets with matrix parameters.

A model holds outcome probabilities and the per-outcome score values along
each orthonormal tangent direction.  From it: the Fisher information operator,
Markov-kernel pushforwards, monotonicity checks, locally unbiased estimators,
and Monte Carlo variance estimates.  FisherOperator holds a Fisher matrix
through a Gram factor B with J = B^H B; the quantum Fisher informations of
qfisher use the same type, so error and disturbance share one quadratic form
and one J^+ solve.  Each builder deflates the factor's left-null vector known
in closed form (sqrt(p) here, by the zero-mean score identity), so the rank
cut never meets its rounding residue.  A B (m x n) without zero entries and with
m >= n is reduced to the R of one QR: an invertible J whitens by R^{-H}, a cut R
takes one thin SVD.  Any other B: 1x1 blocks read off, one thin SVD of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    InvalidOperandError,
    NoUnbiasedEstimatorError,
    SingularModelError,
    _as_int,
)
from .operator_core import tangent_basis
from .quantum import Povm, QuantumState, _as_state

# Outcomes with probability at or below this floor are dropped, provided their
# effect is numerically zero; otherwise the model is flagged singular.
P_FLOOR = 1e-12


def _as_real(x, message: str, least: float | None = None) -> np.ndarray:
    """x as floats if it holds finite real numbers, none below least; else InvalidOperandError."""
    try:  # a ragged nest of sequences raises ValueError
        a = np.asarray(x)
    except ValueError:
        raise InvalidOperandError(message) from None
    if a.dtype.kind in "biuf" and np.isfinite(a).all() and (least is None or (a >= least).all()):
        return a.astype(float, copy=False)
    raise InvalidOperandError(message)


@dataclass(frozen=True, eq=False)
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
        bad = "probabilities must be nonnegative and scores finite real numbers"
        probs, scores = _as_real(self.probs, bad, 0.0), _as_real(self.scores, bad)
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


def _deflate(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rows 1: of H b, H = I - w w^T / (1 + u[0]), w = u + e_1, the reflection of u = v / |v|
    (v[0] >= 0) to -e_1; v^T b = 0 makes the dropped row 0 rounding.  Sum p and Tr sigma
    are 1 only to 1e-10, so v is normalized here."""
    v = v / np.linalg.norm(v)
    return b[1:] - v[1:, None] * ((v @ b + b[0]) / (1 + v[0]))


def _block_svd(b: np.ndarray, nz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of b, which has a zero entry (nz = b != 0), in descending
    order, and the matching rows of V^H.  An entry alone in its row and its column
    has singular value |b_rc| and V^H row e_c (its phase goes to U, not kept); the
    other nonzero rows and columns take one thin SVD."""
    nrow, ncol = np.count_nonzero(nz, axis=1), np.count_nonzero(nz, axis=0)
    r = np.flatnonzero(nrow == 1)
    c = nz[r].argmax(axis=1)
    alone = ncol[c] == 1  # the row's only nonzero is also its column's only one
    r, c = r[alone], c[alone]
    rows, cols = nrow > 0, ncol > 0
    rows[r] = cols[c] = False
    _, sv, v = np.linalg.svd(b[rows][:, cols], full_matrices=False)
    sv = np.concatenate([np.abs(b[r, c]), sv])
    order = np.argsort(-sv, kind="stable")
    at = np.argsort(order)  # the sorted position of each singular value
    vh = np.zeros((sv.size, b.shape[1]), v.dtype)
    vh[at[: r.size], c] = 1
    vh[at[r.size :, None], np.flatnonzero(cols)] = v
    return sv[order], vh


class FisherOperator:
    """Fisher information J = B^H B, held through its Gram factor B (m x n).

    The rank cuts singular values of B (not of J, which would square the
    condition number) at or below max(m, n) * eps * s_max.  A B with no zero
    entry and m >= n is reduced to the square R of one QR (B itself when
    square; same S and V); only R's singular values are taken, and when none
    is cut J^+ = J^{-1} = W^H W with W = R^{-H} and z = W a.  A cut R, a wide
    B, or what is left of a B with zeros once its 1x1 blocks are read off takes
    one thin SVD U S V^H: the kept V_r span range(J) and z = S^{-1} V_r^H a.
    Either way (a, J^+ b) is z_a . z_b.  The kernel rule is J's alone: at rank
    n, ker J = {0} and no a has a kernel component; below it, a leaves the
    range by a - V_r V_r^H a.  U is never kept; J and its pseudoinverse (a test
    reference) are derived only on request.
    """

    def __init__(self, factor: np.ndarray):
        self.factor = b = factor
        m, n = factor.shape
        tol = max(m, n) * np.finfo(float).eps
        nz = factor != 0
        dense = nz.all()
        if dense and m >= n > 0:
            b = np.linalg.qr(factor, mode="r") if m > n else factor  # R: B's S and V
            sv = np.linalg.svd(b, compute_uv=False)
            if sv[-1] > tol * sv[0]:  # nothing is cut: J is invertible
                self.rank, self._sv, self._vh = n, 1.0, None  # z = W a; no V
                self._w = np.linalg.inv(b).conj().T
                return
        sv, vh = np.linalg.svd(b, full_matrices=False)[1:] if dense else _block_svd(factor, nz)
        self.rank = int(np.sum(sv > tol * sv.max(initial=0)))
        self._sv, self._w = sv[: self.rank], vh[: self.rank]
        self._vh = None if self.rank == n else self._w  # None: ker J = {0}

    @cached_property
    def matrix(self) -> np.ndarray:
        return self.factor.conj().T @ self.factor

    @cached_property
    def pinv(self) -> np.ndarray:
        return (self._w.conj().T / self._sv**2) @ self._w

    def _whiten(self, a: np.ndarray) -> np.ndarray:
        return (self._w @ np.asarray(a)) / self._sv

    def solve(self, a: np.ndarray) -> np.ndarray:
        """J^+ a, the least-norm x with J x the projection of a onto range(J)."""
        return self._w.conj().T @ (self._whiten(a) / self._sv)

    def quad(self, a: np.ndarray, b: np.ndarray | None = None) -> float:
        """(a, J^+ b) with the Euclidean pairing on coordinates."""
        za = self._whiten(a)
        zb = za if b is None else self._whiten(b)
        return float(np.real(np.vdot(za, zb)))

    def kernel_violation(self, a: np.ndarray) -> float:
        """Norm of a's component outside the row space of B (ker J); exactly 0 at rank n."""
        if self._vh is None:
            return 0.0
        a = np.asarray(a)
        return float(np.linalg.norm(a - self._vh.conj().T @ (self._vh @ a)))


def _in_range(violation: float, a: np.ndarray) -> bool:
    """The range rule: a kernel violation at most 1e-8 of |a| puts a in range(J)."""
    return violation <= 1e-8 * max(np.linalg.norm(a), 1e-300)


@dataclass(frozen=True, eq=False)
class StochasticKernel:
    """Column-stochastic matrix mapping old outcomes to new outcomes."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_real(self.matrix, "kernel entries must be finite nonnegative numbers", 0.0)
        if m.ndim != 2 or not m.size:
            raise InvalidOperandError("kernel must be a nonempty matrix")
        if np.abs(m.sum(axis=0) - 1.0).max() > 1e-12:
            raise InvalidOperandError("kernel columns must sum to 1")
        object.__setattr__(self, "matrix", m)


def _model_on_support(outcomes, probs, numer, effects=None) -> StatisticalModel:
    """The renormalized model, scores numer / p, on the outcomes with p above P_FLOOR.

    Given the effects, dropping an outcome whose effect is not negligible raises.
    """
    keep = probs > P_FLOOR
    if not keep.all():
        if effects is not None:
            singular = ~keep & (np.linalg.norm(effects, axis=(1, 2)) > 1e-10)
            if singular.any():
                x = singular.argmax()
                raise SingularModelError(f"outcome {outcomes[x]!r} has probability "
                                         f"{probs[x]:.3e} but a non-negligible effect")
        outcomes = tuple(o for o, k in zip(outcomes, keep) if k)
        probs, numer = probs[keep], numer[keep]
    return StatisticalModel(
        outcomes=outcomes, probs=probs / probs.sum(), scores=numer / probs[:, None]
    )


def model_from_povm(s: QuantumState | np.ndarray, m: Povm) -> StatisticalModel:
    """The classical model of measuring a POVM on the affine state family.

    p(x) = Tr[rho effect(x)] and l(x; e_a) = Tr[e_a effect(x)] / p(x), with e_a
    the elements of tangent_basis(d), which the dimension d alone fixes.
    Outcomes with negligible probability are dropped only when their effect is
    itself negligible; otherwise the model is singular (the state is not
    strictly positive or the POVM is inconsistent).
    """
    rho = _as_state(s).rho
    d = rho.shape[0]
    if m.dim != d:
        raise InvalidOperandError("state and POVM dimension mismatch")
    # Tr[rho E_x] = sum_ji (E_x)_ji rho_ij: one GEMV reads the effects in memory order
    probs = (m.effects.reshape(len(m.effects), d * d) @ rho.T.reshape(d * d)).real
    return _model_on_support(m.outcomes, probs, tangent_basis(d).coords(m.effects), m.effects)


def fisher_operator(mod: StatisticalModel) -> FisherOperator:
    """J_ab = sum_x p(x) l(x; e_a) l(x; e_b): factor rows sqrt(p(x)) l(x; .), less
    their left-null vector sqrt(p)."""
    v = np.sqrt(mod.probs)
    return FisherOperator(_deflate(v[:, None] * mod.scores, v))


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


@dataclass(frozen=True, eq=False)
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
    a = _as_real(a, "the direction must be finite real numbers")
    target_value = _as_real(target_value, "the target value must be a finite real number")
    if a.shape != mod.scores.shape[1:] or target_value.shape:
        raise InvalidOperandError(f"direction and target value have shapes {a.shape} and "
                                  f"{target_value.shape}, not {mod.scores.shape[1:]} and ()")
    j = fisher_operator(mod)
    violation = j.kernel_violation(a)
    if not _in_range(violation, a):
        raise NoUnbiasedEstimatorError(f"direction has kernel component {violation:.3e}")
    return Estimator(values=target_value + mod.scores @ j.solve(a), variance=j.quad(a))


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
    n = _as_int(n, "n", InvalidOperandError, 1000)
    seed = _as_int(seed, "seed", InvalidOperandError, 0)
    values = _as_real(values, "estimator values must be finite real numbers")
    if values.shape != mod.probs.shape:
        raise InvalidOperandError(f"values have shape {values.shape}, not {mod.probs.shape}")
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(mod.n_outcomes, size=n, p=mod.probs)
    draws = values[idx]
    var = float(np.var(draws, ddof=1))
    return MonteCarloResult(
        mean=float(draws.mean()), var=var, stderr=float(np.sqrt(2.0 / (n - 1)) * var)
    )
