"""Foundational linear algebra on Hermitian matrices and the traceless tangent space.

Provides the orthonormal basis of the real Hilbert space of traceless Hermitian
d x d matrices, the Moore-Penrose pseudoinverse with explicit rank/kernel
metadata, Schur-complement positivity tests for block operators, and the
superoperator built from an operator monotone function and a strictly positive
state, together with its inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidDimensionError, InvalidOperandError, SingularStateError

# Strict-positivity floor for state eigenvalues.  Anything below this is
# treated as a singular state and rejected.
EPS_POS = 1e-10

# Default relative tolerance for hermiticity checks.
HERM_RTOL = 1e-12


def is_hermitian(a: np.ndarray, rtol: float = HERM_RTOL) -> bool:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(np.abs(a).max(), 1.0)
    return bool(np.abs(a - a.conj().T).max() <= rtol * scale)


def require_hermitian(a: np.ndarray, what: str = "operand") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a):
        raise InvalidOperandError(f"{what} is not Hermitian")
    return a


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr[a^dagger b].

    Real whenever both arguments are Hermitian.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise InvalidOperandError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def project_traceless(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a Hermitian matrix onto the traceless subspace.

    Returns a - (Tr a / d) * I.  This is the gradient of the expectation value
    theta -> Tr[(rho0 + theta) a] on the affine state family.
    """
    a = require_hermitian(a)
    d = a.shape[0]
    return a - (np.trace(a).real / d) * np.eye(d)


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal basis of the traceless Hermitian d x d matrices.

    The ordering is fixed: symmetric off-diagonal pairs (row-major),
    antisymmetric off-diagonal pairs (row-major), then diagonal elements
    (generalized Gell-Mann diagonals), so coordinate vectors are reproducible
    across runs.
    """

    dim: int
    elements: np.ndarray  # shape (dim^2 - 1, dim, dim)

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Real coordinates of a traceless Hermitian matrix in this basis."""
        x = np.asarray(x, dtype=complex)
        return np.einsum("aij,ij->a", self.elements.conj(), x).real

    def matrix(self, coords: Sequence[float]) -> np.ndarray:
        """Reassemble the matrix with the given coordinates."""
        c = np.asarray(coords)
        return np.einsum("a,aij->ij", c, self.elements)


def tangent_basis(dim: int) -> TangentBasis:
    """Orthonormal traceless Hermitian basis for the given dimension.

    For dim=2 this is the Pauli basis divided by sqrt(2).
    """
    if dim < 2:
        raise InvalidDimensionError(f"dim must be >= 2, got {dim}")
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
    return TangentBasis(dim=dim, elements=np.array(mats))


@dataclass(frozen=True)
class PinvResult:
    """Moore-Penrose inverse plus numerical rank and kernel metadata."""

    pinv: np.ndarray
    rank: int
    kernel_basis: np.ndarray  # shape (n, n - rank); columns span the null space


def mp_inverse(s: np.ndarray, rank_tol: float | str = "auto") -> PinvResult:
    """Moore-Penrose pseudoinverse via SVD with an explicit rank cutoff.

    rank_tol="auto" uses dim * machine-epsilon * sigma_max, the standard
    numerically stable choice.  The returned matrix satisfies the four Penrose
    conditions up to roundoff; the kernel basis spans the numerical null space
    of s (right singular vectors of the discarded singular values).
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidOperandError("pseudoinverse argument is not a square matrix")
    n = s.shape[0]
    u, sv, vh = np.linalg.svd(s)
    if rank_tol == "auto":
        tol = n * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    else:
        tol = float(rank_tol)
        if tol <= 0:
            raise InvalidOperandError("rank_tol must be positive or 'auto'")
    rank = int(np.sum(sv > tol))
    inv_sv = np.zeros_like(sv)
    inv_sv[:rank] = 1.0 / sv[:rank]
    pinv = vh.conj().T @ np.diag(inv_sv) @ u.conj().T
    kernel = vh[rank:].conj().T
    return PinvResult(pinv=pinv, rank=rank, kernel_basis=kernel)


def _min_eig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a).min()) if a.size else 0.0


@dataclass(frozen=True)
class SchurReport:
    """Equivalence data for block positivity of [[A, B], [B*, C]]."""

    is_psd: bool
    cond2: bool
    cond3: bool
    schur_ma: np.ndarray  # M/A = C - B* A^+ B
    schur_mc: np.ndarray  # M/C = A - B C^+ B*


def schur_positivity_report(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> SchurReport:
    """Check the three equivalent characterizations of block PSD-ness.

    cond1: the assembled block matrix is PSD.
    cond2: A >= 0, range(B) subset range(A), and C - B* A^+ B >= 0.
    cond3: C >= 0, range(B*) subset range(C), and A - B C^+ B* >= 0.
    """
    a = require_hermitian(np.atleast_2d(a), "block A")
    c = require_hermitian(np.atleast_2d(c), "block C")
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if b.shape != (a.shape[0], c.shape[0]):
        raise InvalidOperandError(
            f"block B has shape {b.shape}, expected {(a.shape[0], c.shape[0])}"
        )
    m = np.block([[a, b], [b.conj().T, c]])
    norm = max(np.linalg.norm(m), 1.0)
    is_psd = _min_eig(m) >= -1e-9 * norm

    pa = mp_inverse(a)
    pc = mp_inverse(c)
    schur_ma = c - b.conj().T @ pa.pinv @ b
    schur_mc = a - b @ pc.pinv @ b.conj().T
    # range(B) subset range(A)  <=>  A A^+ B = B
    range_b_in_a = np.linalg.norm(a @ pa.pinv @ b - b) <= 1e-9 * norm
    range_bt_in_c = np.linalg.norm(c @ pc.pinv @ b.conj().T - b.conj().T) <= 1e-9 * norm
    cond2 = (
        _min_eig(a) >= -1e-9 * norm
        and range_b_in_a
        and _min_eig(schur_ma) >= -1e-9 * norm
    )
    cond3 = (
        _min_eig(c) >= -1e-9 * norm
        and range_bt_in_c
        and _min_eig(schur_mc) >= -1e-9 * norm
    )
    return SchurReport(is_psd=is_psd, cond2=cond2, cond3=cond3,
                       schur_ma=schur_ma, schur_mc=schur_mc)


@dataclass(frozen=True)
class MonotoneFunction:
    """A scalar operator monotone function f with its two-point kernel.

    kernel_coefficient(a, b) = b * f(a / b) is the coefficient that multiplies
    the (i, j) entry of a matrix in the eigenbasis of a state with eigenvalues
    (a, b) = (lambda_i, lambda_j).  A custom kernel may be supplied when the
    generic form is numerically delicate (e.g. the Bogoliubov function at
    a == b); consistency with evaluate is checked on construction.

    Monotonicity is verified only for the scalar function on a grid; matrix
    monotonicity of custom functions is assumed, not certified.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    kernel_coefficient: Callable[[np.ndarray, np.ndarray], np.ndarray] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kernel_coefficient is None:
            f = self.evaluate
            object.__setattr__(
                self, "kernel_coefficient", lambda a, b: b * f(a / b)
            )
        grid = np.linspace(1e-3, 1e3, 1000)
        vals = np.asarray(self.evaluate(grid), dtype=float)
        if np.any(np.diff(vals) < -1e-12 * max(1.0, np.abs(vals).max())):
            raise InvalidOperandError(f"function {self.name!r} is not nondecreasing")
        a = np.array([0.3, 1.7, 2.0, 5.0])
        b = np.array([1.1, 0.4, 3.0, 5.0])
        expect = b * np.asarray(self.evaluate(a / b), dtype=float)
        got = np.asarray(self.kernel_coefficient(a, b), dtype=float)
        if np.abs(got - expect).max() > 1e-12 * max(1.0, np.abs(expect).max()):
            raise InvalidOperandError(
                f"kernel_coefficient of {self.name!r} disagrees with evaluate"
            )


SLD_FUNCTION = MonotoneFunction("sld", lambda x: (x + 1) / 2)
RLD_FUNCTION = MonotoneFunction("rld", lambda x: x)


def _bogoliubov_kernel(a, b):
    # logarithmic mean (a - b) / (log a - log b), written through
    # atanh((a - b) / (a + b)) so nearly equal arguments do not cancel
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = (a - b) / (a + b)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            t == 0.0,
            np.broadcast_to(a, np.broadcast_shapes(a.shape, b.shape)),
            (a - b) / (2.0 * np.arctanh(np.where(t == 0.0, 0.5, t))),
        )
    return out


def _bogoliubov_evaluate(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isclose(x, 1.0, rtol=1e-14), 1.0, (x - 1) / np.log(x))


BOGOLIUBOV_FUNCTION = MonotoneFunction("bogoliubov", _bogoliubov_evaluate, _bogoliubov_kernel)


@dataclass(frozen=True)
class SuperOperatorKf:
    """The map X -> sum_ij c_f(lambda_i, lambda_j) X_ij in the state eigenbasis.

    Built from a strictly positive state and an operator monotone function;
    caches the eigendecomposition and the coefficient matrix so repeated
    applications are two basis changes and an entrywise product.
    """

    state_eigenvalues: np.ndarray
    state_eigenvectors: np.ndarray
    function: MonotoneFunction
    coefficients: np.ndarray  # c_f(lambda_i, lambda_j)

    @property
    def dim(self) -> int:
        return self.state_eigenvalues.size

    def _check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise InvalidOperandError(
                f"operand shape {x.shape} incompatible with dimension {self.dim}"
            )
        return x

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        u = self.state_eigenvectors
        xt = u.conj().T @ x @ u
        return u @ (self.coefficients * xt) @ u.conj().T

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        x = self._check(x)
        u = self.state_eigenvectors
        xt = u.conj().T @ x @ u
        return u @ (xt / self.coefficients) @ u.conj().T


def kf_superoperator(rho: np.ndarray, f: MonotoneFunction) -> SuperOperatorKf:
    """Diagonalize a strictly positive state and build its K^f superoperator."""
    rho = require_hermitian(rho, "state")
    w, u = np.linalg.eigh(rho)
    if w.min() < EPS_POS:
        raise SingularStateError(
            f"state eigenvalue {w.min():.3e} below positivity floor {EPS_POS:.0e}"
        )
    coeff = f.kernel_coefficient(w[:, None], w[None, :])
    return SuperOperatorKf(
        state_eigenvalues=w, state_eigenvectors=u, function=f, coefficients=coeff
    )
