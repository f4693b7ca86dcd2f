"""Quantum states, observables, POVMs, channels, instruments, and sampling.

Observables and tangent directions are plain Hermitian numpy arrays; the
structured objects (states, POVMs, channels, instruments) validate their
defining constraints on construction and are immutable afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidOperandError
from .operator_core import (
    EPS_POS,
    is_hermitian,
    project_traceless,
    require_hermitian,
)


@dataclass(frozen=True)
class QuantumState:
    """Full-rank density matrix rho = base + displacement.

    The displacement is a traceless Hermitian perturbation of the base point,
    so the family theta -> base + theta is affine in the parameter.
    """

    base: np.ndarray
    displacement: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        base = require_hermitian(self.base, "base state")
        disp = self.displacement
        if disp is None:
            disp = np.zeros_like(base)
        else:
            disp = require_hermitian(disp, "displacement")
            if disp.shape != base.shape:
                raise InvalidOperandError("displacement shape mismatch")
            if abs(np.trace(disp)) > 1e-12 * max(1.0, np.abs(disp).max()):
                raise InvalidOperandError("displacement is not traceless")
        rho = base + disp
        if abs(np.trace(rho).real - 1.0) > 1e-12 * base.shape[0]:
            raise InvalidOperandError(f"trace is {np.trace(rho).real}, expected 1")
        if np.linalg.eigvalsh(rho).min() < EPS_POS:
            raise InvalidOperandError(
                f"state not strictly positive (floor {EPS_POS:.0e})"
            )
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "displacement", disp)

    @property
    def rho(self) -> np.ndarray:
        return self.base + self.displacement

    @property
    def dim(self) -> int:
        return self.base.shape[0]


def _check_effect_psd(effect: np.ndarray, label) -> None:
    norm = max(np.linalg.norm(effect), 1.0)
    if np.linalg.eigvalsh(effect).min() < -1e-10 * norm:
        raise InvalidOperandError(f"effect {label!r} is not PSD")


@dataclass(frozen=True)
class Povm:
    """Finite family of PSD effects summing to the identity.

    kind "discrete" is an ordinary finite POVM; kind "grid" represents a
    continuous POVM discretized on quadrature points, and completeness is
    checked to the looser grid tolerance because discretization error
    dominates.
    """

    outcomes: tuple
    effects: tuple
    kind: str = "discrete"

    def __post_init__(self):
        effects = tuple(require_hermitian(e, "effect") for e in self.effects)
        outcomes = tuple(self.outcomes)
        if len(outcomes) != len(effects):
            raise InvalidOperandError("outcomes and effects length mismatch")
        if self.kind not in ("discrete", "grid"):
            raise InvalidOperandError(f"unknown POVM kind {self.kind!r}")
        d = effects[0].shape[0]
        for lab, e in zip(outcomes, effects):
            if e.shape != (d, d):
                raise InvalidOperandError("effects have inconsistent dimensions")
            _check_effect_psd(e, lab)
        total = sum(effects)
        tol = 1e-6 if self.kind == "grid" else 1e-8
        if np.abs(total - np.eye(d)).max() > tol:
            raise InvalidOperandError("effects do not sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "effects", effects)

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    def __len__(self) -> int:
        return len(self.effects)

    def is_projective(self, tol: float = 1e-8) -> bool:
        return all(
            np.abs(e @ e - e).max() <= tol * max(1.0, np.abs(e).max())
            for e in self.effects
        )


@dataclass(frozen=True)
class KrausChannel:
    """CPTP map given by Kraus operators (possibly rectangular d' x d)."""

    kraus: tuple

    def __post_init__(self):
        kraus = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not kraus:
            raise InvalidOperandError("channel needs at least one Kraus operator")
        din = kraus[0].shape[1]
        for k in kraus:
            if k.ndim != 2 or k.shape[1] != din:
                raise InvalidOperandError("Kraus operators have inconsistent shapes")
        total = sum(k.conj().T @ k for k in kraus)
        if np.abs(total - np.eye(din)).max() > 1e-10:
            raise InvalidOperandError("channel is not trace preserving")
        object.__setattr__(self, "kraus", kraus)

    @property
    def dim_in(self) -> int:
        return self.kraus[0].shape[1]

    @property
    def dim_out(self) -> int:
        return self.kraus[0].shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return apply_channel(self, x)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """Heisenberg-picture adjoint: sum_k K^dagger y K."""
        y = np.asarray(y, dtype=complex)
        if y.shape != (self.dim_out, self.dim_out):
            raise InvalidOperandError("operand dimension mismatch with channel output")
        return sum(k.conj().T @ y @ k for k in self.kraus)


def identity_channel(dim: int) -> KrausChannel:
    return KrausChannel(kraus=(np.eye(dim),))


@dataclass(frozen=True)
class CpInstrument:
    """Outcome-indexed Kraus sets whose total map is trace preserving."""

    outcomes: tuple
    kraus_sets: tuple  # tuple of tuples of Kraus operators

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        sets = tuple(
            tuple(np.asarray(k, dtype=complex) for k in ks) for ks in self.kraus_sets
        )
        if len(outcomes) != len(sets) or not sets:
            raise InvalidOperandError("outcomes and kraus_sets length mismatch")
        din = sets[0][0].shape[1]
        total = np.zeros((din, din), dtype=complex)
        for ks in sets:
            for k in ks:
                if k.shape[1] != din:
                    raise InvalidOperandError("Kraus operators have inconsistent shapes")
                total += k.conj().T @ k
        if np.abs(total - np.eye(din)).max() > 1e-10:
            raise InvalidOperandError("instrument total map is not trace preserving")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "kraus_sets", sets)

    @property
    def dim(self) -> int:
        return self.kraus_sets[0][0].shape[1]


def _as_state_matrix(s) -> np.ndarray:
    return s.rho if isinstance(s, QuantumState) else require_hermitian(s, "state")


def expectation(s, a: np.ndarray) -> float:
    """<A> = Tr[rho A]; the imaginary residue must be negligible."""
    rho = _as_state_matrix(s)
    a = np.asarray(a, dtype=complex)
    if a.shape != rho.shape:
        raise InvalidOperandError("observable dimension mismatch")
    val = complex(np.trace(rho @ a))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise InvalidOperandError(f"expectation has imaginary residue {val.imag:.3e}")
    return val.real


def correlation(s, a: np.ndarray, b: np.ndarray) -> complex:
    """C(A, B) = <A* B> - <A><B> (complex in general)."""
    rho = _as_state_matrix(s)
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != rho.shape or b.shape != rho.shape:
        raise InvalidOperandError("operand dimension mismatch")
    mean_a = complex(np.trace(rho @ a))
    mean_b = complex(np.trace(rho @ b))
    return complex(np.trace(rho @ a.conj().T @ b)) - mean_a.conjugate() * mean_b


def sym_correlation(s, a: np.ndarray, b: np.ndarray) -> float:
    """Symmetrized correlation (C(A,B) + C(B,A)) / 2, real for Hermitian A, B."""
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
    rho = _as_state_matrix(s)
    a = np.asarray(a, dtype=complex)
    if a.shape != rho.shape:
        raise InvalidOperandError("observable dimension mismatch")
    return project_traceless(a)


def apply_channel(ch: KrausChannel, x: np.ndarray) -> np.ndarray:
    """sum_k K x K^dagger; preserves trace and PSD-ness."""
    x = np.asarray(x, dtype=complex)
    if x.shape != (ch.dim_in, ch.dim_in):
        raise InvalidOperandError(
            f"operand shape {x.shape} incompatible with channel input {ch.dim_in}"
        )
    return sum(k @ x @ k.conj().T for k in ch.kraus)


def induced_povm(ins: CpInstrument) -> Povm:
    """The POVM measured by the instrument: effect(x) = sum_k K_{x,k}^dagger K_{x,k}."""
    effects = tuple(
        sum(k.conj().T @ k for k in ks) for ks in ins.kraus_sets
    )
    return Povm(outcomes=ins.outcomes, effects=effects)


def average_channel(ins: CpInstrument) -> KrausChannel:
    """The non-selective evolution: all Kraus operators of all outcomes."""
    return KrausChannel(kraus=tuple(k for ks in ins.kraus_sets for k in ks))


def pvm_of_observable(a: np.ndarray, degeneracy_tol: float | None = None) -> Povm:
    """Spectral measure of a Hermitian matrix, with degenerate levels clustered.

    Eigenvalues closer than degeneracy_tol (default 1e-8 * ||A||) are merged
    into a single spectral projection; outcome labels are the mean eigenvalues
    of each cluster.
    """
    a = require_hermitian(a, "observable")
    w, u = np.linalg.eigh(a)
    if degeneracy_tol is None:
        degeneracy_tol = 1e-8 * max(np.linalg.norm(a), 1.0)
    clusters: list[list[int]] = [[0]]
    for i in range(1, w.size):
        if w[i] - w[clusters[-1][-1]] <= degeneracy_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    outcomes = []
    effects = []
    for idx in clusters:
        vecs = u[:, idx]
        effects.append(vecs @ vecs.conj().T)
        outcomes.append(float(np.mean(w[idx])))
    return Povm(outcomes=tuple(outcomes), effects=tuple(effects))


def outcome_probabilities(s, m: Povm) -> np.ndarray:
    rho = _as_state_matrix(s)
    if m.dim != rho.shape[0]:
        raise InvalidOperandError("state and POVM dimension mismatch")
    p = np.array([np.trace(rho @ e).real for e in m.effects])
    return p


def sample_outcomes(s, m: Povm, n: int, seed: int) -> list:
    """n i.i.d. outcome draws, reproducible for a fixed seed.

    Uses the counter-based Philox generator so parallel harnesses can derive
    disjoint streams from spawned seeds.
    """
    p = outcome_probabilities(s, m)
    p = np.clip(p, 0.0, None)
    p = p / p.sum()
    rng = np.random.Generator(np.random.Philox(seed))
    idx = rng.choice(len(p), size=n, p=p)
    return [m.outcomes[i] for i in idx]
