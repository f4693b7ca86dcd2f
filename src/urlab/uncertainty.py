"""Measurement error, disturbance, joint POVMs, and the uncertainty reports.

The error of an observable under a measurement is the excess of the best
locally-unbiased estimation bound (a, (J^M)^+ a) over the quantum fluctuation
sigma^2(A); the disturbance is the analogous excess with the SLD Fisher
operator of the channel-pushed family.  An observable A enters every error by
one step, _observable: grad<A> in tangent coordinates and sigma^2(A), where
quantum's operand rules refuse a non-finite or non-Hermitian A.  Both
reports then take the two right-hand-side terms, R and |<[A, B]>|^2 / 4, from
one correlation C(A, B), by _rhs_terms.  Infinite values arise when the
expectation gradient leaves the range of the relevant Fisher operator; they
are tagged, never fed into float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import FisherOperator, _in_range, fisher_operator, model_from_povm
from .errors import InvalidOperandError
from .operator_core import SLD_FUNCTION, dagger, tangent_basis
from .qfisher import _pushed_fisher, _sld_pvm, quantum_fisher
from .quantum import (
    CpInstrument,
    KrausChannel,
    Povm,
    QuantumState,
    _as_state,
    average_channel,
    correlation,
    grad_expectation,
    induced_povm,
    variance,
)

@dataclass(frozen=True)
class ErrorResult:
    """Outcome of a measurement-error or disturbance computation.

    quad_form is (a, J^+ a), variance is sigma^2(A), kernel_violation is the
    norm of the gradient's residual outside the row space of the Gram factor
    of J (its component in ker J), exactly 0 when J has full rank.  value is
    quad_form - variance when the gradient is in range, and math.inf
    otherwise; callers must branch on is_infinite before doing arithmetic.
    """

    quad_form: float
    variance: float
    kernel_violation: float
    is_infinite: bool

    @property
    def value(self) -> float:
        return math.inf if self.is_infinite else self.quad_form - self.variance


def _error_from_operator(j: FisherOperator, g: np.ndarray, var: float) -> ErrorResult:
    violation = j.kernel_violation(g)
    return ErrorResult(
        quad_form=j.quad(g),
        variance=var,
        kernel_violation=violation,
        is_infinite=not _in_range(violation, g),
    )


def _observable(s: QuantumState, a: np.ndarray) -> tuple[np.ndarray, float]:
    """The tangent coordinates of grad<A> and sigma^2(A)."""
    return tangent_basis(s.dim).coords(grad_expectation(s, a)), variance(s, a)


def measurement_error(s: QuantumState | np.ndarray, a: np.ndarray, m: Povm) -> ErrorResult:
    """epsilon(A; rho, M): estimation bound of <A> under M minus sigma^2(A)."""
    s = _as_state(s)
    return _error_from_operator(fisher_operator(model_from_povm(s, m)), *_observable(s, a))


def disturbance(s: QuantumState | np.ndarray, a: np.ndarray, e: KrausChannel) -> ErrorResult:
    """eta(A; rho, E): increase of the SLD-optimal bound caused by the channel."""
    s = _as_state(s)
    j = quantum_fisher(s, SLD_FUNCTION, pushforward=e)  # refuses a channel on another space
    return _error_from_operator(j, *_observable(s, a))


def joint_povm(ins: CpInstrument, pvm: Povm) -> Povm:
    """The canonical joint POVM of an instrument and a projective measurement.

    effect(x, y) = sum_k K_{x,k}^dagger Pi_y K_{x,k}: the instrument followed
    by the PVM Pi on its output.  Its first marginal is the POVM induced by
    the instrument; its second marginal is the average-channel adjoint of Pi.
    Any PVM on the output space will do.  The effects take two products: one
    GEMM [K_1^H; ...; K_n^H] [Pi_1 ... Pi_Y] over all Kraus operators and
    projectors, then, batched over the Kraus operators, the stacked blocks
    [K_k^H Pi_1; ...; K_k^H Pi_Y] times K_k, so each is (K^H Pi) K.  Only an
    instrument with a multi-operator Kraus set sums over its sets.
    """
    if not pvm.is_projective():
        raise InvalidOperandError("second argument must be a projective measurement")
    if pvm.dim != ins.channel.dim_out:
        raise InvalidOperandError("instrument output and PVM dimension mismatch")
    outcomes = tuple((x, y) for x in ins.outcomes for y in pvm.outcomes)
    k, pi = ins.channel.kraus, pvm.effects
    (n, rows, cols), ny = k.shape, len(pi)
    kh_pi = dagger(k).reshape(n * cols, rows) @ pi.swapaxes(0, 1).reshape(rows, ny * rows)
    effects = (kh_pi.reshape(n, cols * ny, rows) @ k).reshape(n, cols, ny, cols)
    if len(ins.starts) < n:
        effects = np.add.reduceat(effects, ins.starts)
    return Povm(outcomes=outcomes, effects=effects.swapaxes(1, 2).reshape(-1, cols, cols))


@dataclass(frozen=True)
class UncertaintyReport:
    """One verified instance of an error-error or error-disturbance bound.

    lhs is the product of the two errors (math.inf if either is infinite), rhs
    is r_term^2 + commutator_term, and gap = lhs - rhs.  The bound holds when
    margin >= 0, and trivially when lhs is infinite.
    """

    eps_a: ErrorResult
    eps_or_eta_b: ErrorResult
    r_term: float
    commutator_term: float

    @property
    def lhs(self) -> float:
        if self.eps_a.is_infinite or self.eps_or_eta_b.is_infinite:
            return math.inf
        return self.eps_a.value * self.eps_or_eta_b.value

    @property
    def rhs(self) -> float:
        return self.r_term**2 + self.commutator_term

    @property
    def gap(self) -> float:
        return math.inf if math.isinf(self.lhs) else self.lhs - self.rhs

    @property
    def margin(self) -> float:
        """gap + 1e-8 max(1, rhs): the gap with its tolerance, inf when lhs is."""
        return self.gap + 1e-8 * max(1.0, self.rhs)

    @property
    def holds(self) -> bool:
        return self.margin >= 0


def _rhs_terms(s, a, b, j, ga, gb) -> dict:
    """r_term and commutator_term of the bound, from one correlation C(A, B).

    For Hermitian A and B, Re C(A, B) is the symmetrized correlation C^S(A, B)
    and <[A, B]> = 2i Im C(A, B), so R^M(A, B) = (grad<A>, (J^M)^+ grad<B>) -
    Re C and |<[A, B]>|^2 / 4 = (Im C)^2.
    """
    c = correlation(s, a, b)
    return {"r_term": j.quad(ga, gb) - c.real, "commutator_term": c.imag**2}


def error_error_report(
    s: QuantumState | np.ndarray, a: np.ndarray, b: np.ndarray, m: Povm
) -> UncertaintyReport:
    """eps(A) eps(B) >= R^M(A,B)^2 + |<[A,B]>|^2 / 4 for a simultaneous POVM."""
    s = _as_state(s)
    j = fisher_operator(model_from_povm(s, m))
    (ga, var_a), (gb, var_b) = _observable(s, a), _observable(s, b)
    return UncertaintyReport(
        eps_a=_error_from_operator(j, ga, var_a),
        eps_or_eta_b=_error_from_operator(j, gb, var_b),
        **_rhs_terms(s, a, b, j, ga, gb),
    )


@dataclass(frozen=True)
class ErrorDisturbanceReport(UncertaintyReport):
    """Error-disturbance bound plus the joint-POVM domination checks.

    eps_a_joint / eps_b_joint are the errors in the joint POVM M of the
    instrument followed by the SLD-optimal PVM for <B> on its output (see
    error_disturbance_report); the theorem requires eps(A; I) >= eps(A; M) and
    eta(B; I) >= eps(B; M).
    """

    eps_a_joint: ErrorResult
    eps_b_joint: ErrorResult

    @staticmethod
    def _dominates(lhs: ErrorResult, rhs: ErrorResult) -> bool:
        if lhs.is_infinite:
            return True
        if rhs.is_infinite:
            return False
        return lhs.value >= rhs.value - 1e-8 * max(1.0, abs(rhs.value))

    @property
    def domination_a(self) -> bool:
        return self._dominates(self.eps_a, self.eps_a_joint)

    @property
    def domination_b(self) -> bool:
        return self._dominates(self.eps_or_eta_b, self.eps_b_joint)


def error_disturbance_report(
    s: QuantumState | np.ndarray, a: np.ndarray, b: np.ndarray, ins: CpInstrument
) -> ErrorDisturbanceReport:
    """eps(A; I) eta(B; I) >= R_M(A,B)^2 + |<[A,B]>|^2 / 4.

    The witness M is the joint POVM of the instrument followed by the PVM of
    the SLD L of E(rho) in the direction E(X), where E is the average channel
    and X = sum_a x_a e_a with x = (J^S_E)^+ grad<B> is taken from the same pushed
    Fisher operator that gives eta(B).  <B> + lambda_y on the second marginal
    is a locally unbiased estimator of <B> with variance (grad<B>,
    (J^S_E)^+ grad<B>), so eps(B; M) <= eta(B; I) by construction; the first
    marginal is the induced POVM, so eps(A; M) <= eps(A; I).  R_M is
    evaluated in the same M.  X is the least-norm solution, so M is defined
    even when eta(B) is infinite.  J^S_E and L come from one push of rho and
    one K^S of the matrix E(rho), not of a new state, so every CpInstrument
    has a witness.
    """
    s = _as_state(s)
    if ins.dim != s.dim:
        raise InvalidOperandError("state and instrument dimension mismatch")
    avg = average_channel(ins)
    (ga, var_a), (gb, var_b) = _observable(s, a), _observable(s, b)
    j_a = fisher_operator(model_from_povm(s, induced_povm(ins)))
    j_s, k_s = _pushed_fisher(s.rho, SLD_FUNCTION, avg)
    x = tangent_basis(s.dim).matrix(j_s.solve(gb))
    joint = joint_povm(ins, _sld_pvm(k_s, avg(x)))
    j_joint = fisher_operator(model_from_povm(s, joint))
    return ErrorDisturbanceReport(
        eps_a=_error_from_operator(j_a, ga, var_a),
        eps_or_eta_b=_error_from_operator(j_s, gb, var_b),
        **_rhs_terms(s, a, b, j_joint, ga, gb),
        eps_a_joint=_error_from_operator(j_joint, ga, var_a),
        eps_b_joint=_error_from_operator(j_joint, gb, var_b),
    )
