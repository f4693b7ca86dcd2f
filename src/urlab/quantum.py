"""Quantum states, observables, POVMs, channels and instruments.

Observables and tangent directions are plain Hermitian numpy arrays; states,
POVMs, channels and instruments are validated once and immutable.  A raw state
becomes a QuantumState once per call: finite, Hermitian, unit trace, smallest
eigenvalue at least -eigh_tol.  Operator families are single finite complex
(n, rows, cols) arrays, by _operator_stack; an instrument's sets are stacked once,
into its total channel.  Povm(...) runs the PSD test as one batched Cholesky of
E + tol I; only when that fails do the smallest eigenvalues decide and name the
effect.  The POVMs derived from admitted operands (induced, spectral, joint) skip
the Hermitian and PSD tests that their construction implies, by _derived_povm.
apply_channel and KrausChannel.adjoint each make two matrix products.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidOperandError
from .operator_core import (_norm, dagger, eigh_tol, is_hermitian, project_traceless,
                            require_hermitian)


@dataclass(frozen=True, eq=False)
class QuantumState:
    """Density matrix, validated once; rho is the validated matrix.

    Hermitian, unit trace, and PSD to eigh's accuracy: its smallest eigenvalue
    is at least -eigh_tol.  Rank-deficient states are admitted; kf_superoperator,
    which inverts a state, is where strict positivity is required.
    """

    base: np.ndarray

    def __post_init__(self):
        base = require_hermitian(self.base, "state")
        trace = base.trace().real
        if abs(trace - 1.0) > 1e-12 * base.shape[0]:
            raise InvalidOperandError(f"trace is {trace}, expected 1")
        w = np.linalg.eigvalsh(base)
        if w[0] < -eigh_tol(w):
            raise InvalidOperandError(f"state eigenvalue {w[0]:.3e} is negative")
        object.__setattr__(self, "base", base)

    @property
    def rho(self) -> np.ndarray:
        return self.base

    @property
    def dim(self) -> int:
        return self.base.shape[0]


def _as_state(s) -> QuantumState:
    """s itself when it is a QuantumState, else the QuantumState of the matrix s."""
    return s if isinstance(s, QuantumState) else QuantumState(base=s)


def _operator_stack(ops, what: str) -> np.ndarray:
    """ops as one finite complex array of shape (n, rows, cols) with n >= 1."""
    try:
        stack = np.asarray(ops, dtype=complex)
    except ValueError as exc:
        raise InvalidOperandError(f"{what} have inconsistent shapes") from exc
    if stack.ndim != 3 or 0 in stack.shape or not np.isfinite(stack).all():
        raise InvalidOperandError(f"{what} must form a nonempty finite (n, rows, cols) stack")
    return stack


@dataclass(frozen=True, eq=False)
class Povm:
    """Finite family of PSD effects, one (n, d, d) array, summing to I to 1e-8: all tested."""

    outcomes: tuple
    effects: np.ndarray

    def __post_init__(self):
        effects = _operator_stack(self.effects, "effects")
        if not is_hermitian(effects):
            raise InvalidOperandError("effect is not Hermitian")
        outcomes = tuple(self.outcomes)
        if len(outcomes) != len(effects):
            raise InvalidOperandError("outcomes and effects length mismatch")
        tol = 1e-10 * np.maximum(np.linalg.norm(effects, axis=(1, 2)), 1.0)
        shifted = effects.copy()  # E + tol I, with tol added on the diagonal
        shifted.reshape(len(effects), -1)[:, :: effects.shape[1] + 1] += tol[:, None]
        try:  # E + tol I is positive definite for every effect: each is PSD to tol
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:  # the eigenvalue rule decides and names the effect
            negative = np.linalg.eigvalsh(effects)[:, 0] < -tol
            if negative.any():
                raise InvalidOperandError(f"effect {outcomes[negative.argmax()]!r} is not PSD")
        self._complete(outcomes, effects)

    def _complete(self, outcomes: tuple, effects: np.ndarray) -> None:
        """Set the fields once the effects pass the completeness rule: they sum to I to 1e-8."""
        if np.abs(effects.sum(axis=0) - np.eye(effects.shape[1])).max() > 1e-8:
            raise InvalidOperandError("effects do not sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.effects)

    def is_projective(self) -> bool:
        """Whether every effect E has |E^2 - E|_max <= 1e-8 max(|E|_max, 1)."""
        e = self.effects
        scale = np.maximum(np.abs(e).max(axis=(1, 2)), 1.0)
        return bool(np.all(np.abs(e @ e - e).max(axis=(1, 2)) <= 1e-8 * scale))


def _derived_povm(outcomes, effects) -> Povm:
    """The Povm of effects Hermitian and PSD by construction from admitted operands (see
    each caller); only _operator_stack and the completeness rule, which rounding can break, run."""
    povm = object.__new__(Povm)
    povm._complete(tuple(outcomes), _operator_stack(effects, "effects"))
    return povm


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """CPTP map from a (k, d', d) array of Kraus operators; applies to (..., d, d) stacks."""

    kraus: np.ndarray

    def __post_init__(self):
        kraus = _operator_stack(self.kraus, "Kraus operators")
        # sum_k K^dagger K = I: the Kraus operators stacked vertically are an isometry
        v = kraus.reshape(-1, kraus.shape[2])
        if np.abs(v.conj().T @ v - np.eye(v.shape[1])).max() > 1e-10:
            raise InvalidOperandError("channel is not trace preserving")
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus.shape[2]

    @property
    def dim_out(self) -> int:
        return self.kraus.shape[1]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return apply_channel(self, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint: sum_k K^dagger y K."""
        y = np.asarray(y, dtype=complex)
        if y.shape[-2:] != (self.dim_out, self.dim_out):
            raise InvalidOperandError("operand dimension mismatch with channel output")
        return _kraus_sum(dagger(self.kraus), y)


@dataclass(frozen=True, eq=False)
class CpInstrument:
    """Outcome-indexed Kraus sets whose total map, kept as channel, is trace preserving.

    The sets are stacked once, and that stack is checked once, as channel's Kraus
    operators; kraus_sets[x] is a view of it from index starts[x] on.
    """

    outcomes: tuple
    kraus_sets: tuple  # one (k_x, d', d) array of Kraus operators per outcome

    def __post_init__(self):
        outcomes, sets = tuple(self.outcomes), tuple(self.kraus_sets)
        if len(outcomes) != len(sets) or not sets:
            raise InvalidOperandError("outcomes and kraus_sets length mismatch")
        try:  # a scalar, ragged or differently shaped set does not concatenate
            stack = np.concatenate(sets)
        except ValueError as exc:
            raise InvalidOperandError("Kraus sets have inconsistent shapes") from exc
        channel = KrausChannel(kraus=stack)  # a (k, d', d) stack, finite, trace preserving
        if not all(len(ks) for ks in sets):
            raise InvalidOperandError("a Kraus set is empty")
        bounds = np.cumsum([0] + [len(ks) for ks in sets]).tolist()
        views = tuple(channel.kraus[a:b] for a, b in zip(bounds, bounds[1:]))
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "kraus_sets", views)
        object.__setattr__(self, "channel", channel)
        object.__setattr__(self, "starts", tuple(bounds[:-1]))

    @property
    def dim(self) -> int:
        return self.channel.dim_in


def _operands(s, *ops) -> tuple:
    """The state's rho, then each operand as a finite complex matrix of rho's shape."""
    rho = _as_state(s).rho
    ops = [np.asarray(x, dtype=complex) for x in ops]
    if any(x.shape != rho.shape or not np.isfinite(x).all() for x in ops):
        raise InvalidOperandError("operand has the wrong dimension or is not finite")
    return rho, *ops


def expectation(s, a: np.ndarray) -> float:
    """<A> = Tr[rho A]; the imaginary residue must be negligible."""
    rho, a = _operands(s, a)
    val = complex(np.trace(rho @ a))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise InvalidOperandError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def correlation(s, a: np.ndarray, b: np.ndarray) -> complex:
    """C(A, B) = <A* B> - <A><B> (complex in general)."""
    rho, a, b = _operands(s, a, b)
    mean_a = complex(np.trace(rho @ a))
    mean_b = complex(np.trace(rho @ b))
    return complex(np.trace(rho @ a.conj().T @ b)) - mean_a.conjugate() * mean_b


def sym_correlation(s, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized correlation (C(A,B) + C(B,A)) / 2, real for Hermitian A, B."""
    s = _as_state(s)
    val = (correlation(s, a, b) + correlation(s, b, a)) / 2
    return val.real


def variance(s, a: np.ndarray) -> float:
    v = correlation(s, a, a).real
    if v < -1e-10:
        raise InvalidOperandError(f"negative variance {v:.3e}")
    return v


def grad_expectation(s, a: np.ndarray) -> np.ndarray:
    """Gradient of theta -> Tr[(rho0 + theta) A]: the traceless part of A.

    Independent of the parameter because the state family is affine.
    """
    return project_traceless(_operands(s, a)[1])


def _kraus_sum(kraus: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k K_k x K_k^dagger for a (k, d', d) Kraus stack and x of shape (..., d, d).

    Two products batched over x's leading axes: b = x [K_1^H ... K_k^H], then
    [K_1 ... K_k] times b's k blocks of shape (d, d') stacked vertically.
    """
    k, rows, cols = kraus.shape
    b = x @ kraus.reshape(-1, cols).conj().T
    b = b.reshape(*x.shape[:-1], k, rows).swapaxes(-3, -2).reshape(*x.shape[:-2], -1, rows)
    return kraus.swapaxes(0, 1).reshape(rows, -1) @ b


def apply_channel(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """sum_k K x K^dagger on a matrix or a stack (..., d, d); preserves trace and PSD-ness."""
    x = np.asarray(x, dtype=complex)
    if x.shape[-2:] != (ch.dim_in, ch.dim_in):
        raise InvalidOperandError(
            f"operand shape {x.shape} incompatible with channel input {ch.dim_in}"
        )
    return _kraus_sum(ch.kraus, x)


def induced_povm(ins: CpInstrument) -> Povm:
    """The instrument's POVM: effect(x) = sum_k K_{x,k}^H K_{x,k}, a sum of PSD Gram matrices."""
    k = ins.channel.kraus
    return _derived_povm(ins.outcomes, np.add.reduceat(dagger(k) @ k, ins.starts))


def average_channel(ins: CpInstrument) -> KrausChannel:
    """The non-selective evolution: all Kraus operators of all outcomes."""
    return ins.channel


def pvm_of_observable(a: np.ndarray) -> Povm:
    """Spectral measure of a Hermitian matrix, with degenerate levels clustered.

    Eigenvalues closer than 1e-8 max(||A||_F, 1), by _norm, merge into one spectral
    projection labelled by their mean; a spectrum whose d max|w| overflows is refused.
    A sum of outer products u u^H is Hermitian and PSD, so _derived_povm admits it.
    """
    a = require_hermitian(a, "observable")
    w, u = np.linalg.eigh(a)
    if not np.isfinite(float(np.abs(w).max()) * w.size):  # bounds every gap and cluster sum
        raise InvalidOperandError(f"observable spectrum {w} is not finite, or too large to cluster")
    tol = 1e-8 * max(_norm(a), 1.0)
    # eigenvalues are ascending: the first opens a cluster, and so does every gap above tol
    starts = np.flatnonzero(np.diff(w, prepend=-np.inf) > tol)
    outcomes = np.add.reduceat(w, starts) / np.diff(starts, append=w.size)
    effects = np.add.reduceat(u.T[:, :, None] * u.T.conj()[:, None, :], starts)  # u_i u_i^H
    return _derived_povm(tuple(outcomes.tolist()), effects)
