"""Measurement error, disturbance, joint POVMs, and the uncertainty reports.

The error of an observable under a measurement is the excess of the best
locally-unbiased estimation bound (a, (J^M)^+ a) over the quantum fluctuation
sigma^2(A); the disturbance is the analogous excess with the SLD Fisher
operator of the channel-pushed family.  Infinite values arise when the
expectation gradient leaves the range of the relevant Fisher operator; they
are tagged, never fed into float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import FisherOperator, fisher_operator, model_from_povm
from .errors import InvalidOperandError
from .operator_core import SLD_FUNCTION, TangentBasis, tangent_basis
from .qfisher import quantum_fisher, sld_optimal_pvm
from .quantum import (
    CpInstrument,
    KrausChannel,
    Povm,
    QuantumState,
    _as_state_matrix,
    average_channel,
    expectation,
    grad_expectation,
    induced_povm,
    sym_correlation,
    variance,
)

# Relative kernel-membership threshold for declaring an error infinite.
KERNEL_RTOL = 1e-8


@dataclass(frozen=True)
class ErrorResult:
    """Outcome of a measurement-error or disturbance computation.

    quad_form is (a, J^+ a), variance is sigma^2(A), kernel_violation is the
    norm of the gradient's residual outside the row space of the Gram factor
    of J (its component in ker J).  value is quad_form - variance when the
    gradient is in range, and math.inf otherwise; callers must branch on
    is_infinite before doing arithmetic.
    """

    quad_form: float
    variance: float
    kernel_violation: float
    is_infinite: bool

    @property
    def value(self) -> float:
        return math.inf if self.is_infinite else self.quad_form - self.variance


def _error_from_operator(j, a_coords: np.ndarray, var: float) -> ErrorResult:
    viol = j.kernel_violation(a_coords)
    infinite = viol > KERNEL_RTOL * max(np.linalg.norm(a_coords), 1e-300)
    quad = j.quad(a_coords)
    return ErrorResult(
        quad_form=quad, variance=var, kernel_violation=viol, is_infinite=infinite
    )


def measurement_error(
    s: QuantumState | np.ndarray,
    a: np.ndarray,
    m: Povm,
    basis: TangentBasis | None = None,
) -> ErrorResult:
    """epsilon(A; rho, M): estimation bound of <A> under M minus sigma^2(A)."""
    rho = _as_state_matrix(s)
    if basis is None:
        basis = tangent_basis(rho.shape[0])
    grad = grad_expectation(rho, a)
    j = fisher_operator(model_from_povm(rho, m, basis))
    return _error_from_operator(j, basis.coords(grad), variance(rho, a))


def _disturbance_and_fisher(
    rho: np.ndarray, a: np.ndarray, e: KrausChannel, basis: TangentBasis
) -> tuple[ErrorResult, FisherOperator, np.ndarray]:
    """eta(A; rho, E), the pushed SLD Fisher operator, and grad<A> coordinates."""
    if e.dim_in != rho.shape[0] or e.dim_out != np.asarray(a).shape[0]:
        raise InvalidOperandError("channel dimensions incompatible with observable")
    grad = basis.coords(grad_expectation(rho, a))
    j = quantum_fisher(rho, SLD_FUNCTION, pushforward=e, basis=basis)
    return _error_from_operator(j, grad, variance(rho, a)), j, grad


def disturbance(
    s: QuantumState | np.ndarray,
    a: np.ndarray,
    e: KrausChannel,
    basis: TangentBasis | None = None,
) -> ErrorResult:
    """eta(A; rho, E): increase of the SLD-optimal bound caused by the channel."""
    rho = _as_state_matrix(s)
    if basis is None:
        basis = tangent_basis(rho.shape[0])
    return _disturbance_and_fisher(rho, a, e, basis)[0]


def instrument_error_disturbance(
    s: QuantumState | np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ins: CpInstrument,
    basis: TangentBasis | None = None,
) -> tuple[ErrorResult, ErrorResult]:
    """(epsilon(A; induced POVM), eta(B; average channel)) of an instrument."""
    eps = measurement_error(s, a, induced_povm(ins), basis)
    eta = disturbance(s, b, average_channel(ins), basis)
    return eps, eta


def joint_povm(ins: CpInstrument, pvm: Povm) -> Povm:
    """The canonical joint POVM of an instrument and a projective measurement.

    effect(x, y) = sum_k K_{x,k}^dagger Pi_y K_{x,k}: the instrument followed
    by the PVM Pi on its output.  Its first marginal is the POVM induced by
    the instrument; its second marginal is the average-channel adjoint of Pi.
    Any PVM on the output space will do.
    """
    if not pvm.is_projective():
        raise InvalidOperandError("second argument must be a projective measurement")
    if pvm.dim != ins.kraus_sets[0][0].shape[0]:
        raise InvalidOperandError("instrument output and PVM dimension mismatch")
    outcomes = []
    effects = []
    for x, ks in zip(ins.outcomes, ins.kraus_sets):
        for y, proj in zip(pvm.outcomes, pvm.effects):
            outcomes.append((x, y))
            effects.append(sum(k.conj().T @ proj @ k for k in ks))
    return Povm(outcomes=tuple(outcomes), effects=tuple(effects))


@dataclass(frozen=True)
class UncertaintyReport:
    """One verified instance of an error-error or error-disturbance bound.

    lhs is the product of the two errors (math.inf if either is infinite), rhs
    is r_term^2 + commutator_term, and gap = lhs - rhs.  The bound holds
    trivially when lhs is infinite.
    """

    eps_a: ErrorResult
    eps_or_eta_b: ErrorResult
    r_term: float
    commutator_term: float
    relation: str

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
    def holds(self) -> bool:
        if math.isinf(self.lhs):
            return True
        return self.gap >= -1e-8 * max(1.0, self.rhs)


def _r_term(rho, a, b, j, basis) -> float:
    """R^M(A, B) = (grad<A>, (J^M)^+ grad<B>) - C^S(A, B)."""
    ga = basis.coords(grad_expectation(rho, a))
    gb = basis.coords(grad_expectation(rho, b))
    return j.quad(ga, gb) - sym_correlation(rho, a, b)


def _commutator_term(rho, a, b) -> float:
    comm = a @ b - b @ a
    return 0.25 * abs(complex(np.trace(rho @ comm))) ** 2


def error_error_report(
    s: QuantumState | np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    m: Povm,
    basis: TangentBasis | None = None,
) -> UncertaintyReport:
    """eps(A) eps(B) >= R^M(A,B)^2 + |<[A,B]>|^2 / 4 for a simultaneous POVM."""
    rho = _as_state_matrix(s)
    if basis is None:
        basis = tangent_basis(rho.shape[0])
    j = fisher_operator(model_from_povm(rho, m, basis))
    eps_a = _error_from_operator(j, basis.coords(grad_expectation(rho, a)), variance(rho, a))
    eps_b = _error_from_operator(j, basis.coords(grad_expectation(rho, b)), variance(rho, b))
    return UncertaintyReport(
        eps_a=eps_a,
        eps_or_eta_b=eps_b,
        r_term=_r_term(rho, a, b, j, basis),
        commutator_term=_commutator_term(rho, a, b),
        relation="error-error",
    )


@dataclass(frozen=True)
class ErrorDisturbanceReport(UncertaintyReport):
    """Error-disturbance bound plus the joint-POVM domination checks.

    eps_a_joint / eps_b_joint are the errors in the joint POVM M of the
    instrument followed by the SLD-optimal PVM for <B> on its output (see
    error_disturbance_report); the theorem requires eps(A; I) >= eps(A; M) and
    eta(B; I) >= eps(B; M).
    """

    eps_a_joint: ErrorResult = None  # type: ignore[assignment]
    eps_b_joint: ErrorResult = None  # type: ignore[assignment]

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
    s: QuantumState | np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    ins: CpInstrument,
    basis: TangentBasis | None = None,
) -> ErrorDisturbanceReport:
    """eps(A; I) eta(B; I) >= R_M(A,B)^2 + |<[A,B]>|^2 / 4.

    The witness M is the joint POVM of the instrument followed by the PVM of
    the SLD L of E(rho) in the direction E(X), where E is the average channel
    and X = basis.matrix((J^S_E)^+ grad<B>) is taken from the same pushed
    Fisher operator that gives eta(B).  <B> + lambda_y on the second marginal
    is a locally unbiased estimator of <B> with variance (grad<B>,
    (J^S_E)^+ grad<B>), so eps(B; M) <= eta(B; I) by construction; the first
    marginal is the induced POVM, so eps(A; M) <= eps(A; I).  R_M is
    evaluated in the same M.  X is the least-norm solution, so M is defined
    even when eta(B) is infinite.
    """
    rho = _as_state_matrix(s)
    if basis is None:
        basis = tangent_basis(rho.shape[0])
    avg = average_channel(ins)
    eps_a = measurement_error(rho, a, induced_povm(ins), basis)
    eta_b, j_s, gb = _disturbance_and_fisher(rho, b, avg, basis)
    x = basis.matrix(j_s.pinv @ gb)
    joint = joint_povm(ins, sld_optimal_pvm(avg(rho), avg(x)))
    j_joint = fisher_operator(model_from_povm(rho, joint, basis))
    ga = basis.coords(grad_expectation(rho, a))
    eps_a_joint = _error_from_operator(j_joint, ga, variance(rho, a))
    eps_b_joint = _error_from_operator(j_joint, gb, eta_b.variance)
    return ErrorDisturbanceReport(
        eps_a=eps_a,
        eps_or_eta_b=eta_b,
        r_term=_r_term(rho, a, b, j_joint, basis),
        commutator_term=_commutator_term(rho, a, b),
        relation="error-disturbance",
        eps_a_joint=eps_a_joint,
        eps_b_joint=eps_b_joint,
    )
