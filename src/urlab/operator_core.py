"""Foundational linear algebra on Hermitian matrices and the traceless tangent space.

Provides the orthonormal basis of the real Hilbert space of traceless Hermitian
d x d matrices, the Moore-Penrose pseudoinverse with its explicit rank,
Schur-complement positivity tests for block operators, and the superoperator
built from an operator monotone function and a strictly positive state,
together with its inverse.  A monotone function is one scalar callable f
with f(1) = 1, and its K^f coefficient is always b f(a / b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidDimensionError, InvalidOperandError, SingularStateError, _as_dim

# Relative tolerance for hermiticity checks.
HERM_RTOL = 1e-12


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., m, n)."""
    return np.swapaxes(np.conj(a), -1, -2)


def is_hermitian(a: np.ndarray) -> bool:
    """Whether a matrix, or each matrix of a stack (..., d, d), is Hermitian.

    Each is held to HERM_RTOL times its own max(|a|_max, 1), not the stack's, and
    one with a NaN or inf entry, whose scale is then not finite, is not Hermitian.
    a - a^H is formed in memory order: a^H is one contiguous copy of the swapped
    view, conjugated in place, and a - a^H overwrites it; both maxima run over
    each matrix's flattened entries, and one matrix takes scalar reductions.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not a.size:
        return False
    h = np.swapaxes(a, -1, -2).copy()
    np.conjugate(h, out=h)
    if a.ndim == 2:
        scale = float(np.abs(a).max())
        if not math.isfinite(scale):  # a - a^H is not formed for inf, where it would warn
            return False
        return float(np.abs(np.subtract(a, h, out=h)).max()) <= HERM_RTOL * max(scale, 1.0)
    flat = a.shape[:-2] + (-1,)
    scale = np.maximum(np.abs(a).reshape(flat).max(axis=-1), 1.0)
    if not np.isfinite(scale).all():
        return False
    diff = np.abs(np.subtract(a, h, out=h)).reshape(flat).max(axis=-1)
    return bool((diff <= HERM_RTOL * scale).all())


def require_hermitian(a: np.ndarray, what: str = "operand") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or not is_hermitian(a):
        raise InvalidOperandError(f"{what} is not Hermitian or not finite")
    return a


def eigh_tol(w: np.ndarray) -> float:
    """d eps max|lambda|, eigh's accuracy on the eigenvalues w of a d x d Hermitian matrix."""
    return w.size * np.finfo(float).eps * np.abs(w).max()


def project_traceless(a: np.ndarray) -> np.ndarray:
    """Orthogonal projection of a Hermitian matrix onto the traceless subspace.

    Returns a - (Tr a / d) * I.  This is the gradient of the expectation value
    theta -> Tr[(rho0 + theta) a] on the affine state family.
    """
    a = require_hermitian(a)
    d = a.shape[0]
    return a - (np.trace(a).real / d) * np.eye(d)


@cache
def _index_maps(d: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The (j < k) index pair and the (d - 1) x d Gell-Mann matrix, read-only and built
    once per dimension d >= 1: every basis, and quantum_fisher's pairs, share them."""
    # Gell-Mann row l - 1 is (1, ..., 1, -l, 0, ..., 0) / sqrt(l (l + 1)) with l ones
    n, l = np.arange(d), np.arange(1.0, d)[:, None]
    gell_mann = np.where(n < l, 1.0, np.where(n == l, -l, 0.0)) / np.sqrt(l * (l + 1))
    pairs = np.triu_indices(d, 1)
    for a in (*pairs, gell_mann):
        a.flags.writeable = False
    return pairs, gell_mann


@dataclass(frozen=True)
class TangentBasis:
    """Orthonormal basis of the traceless Hermitian d x d matrices, held implicitly.

    The ordering is fixed: symmetric off-diagonal pairs (row-major),
    antisymmetric off-diagonal pairs (row-major), then diagonal elements
    (generalized Gell-Mann diagonals), so coordinate vectors are reproducible
    across runs.  Only the (j < k) index pair and the (d - 1) x d Gell-Mann
    matrix G are kept.  _combine forms the complex pairings Tr[e_a^H y] from the
    pair entries and diagonal its caller gathers, O(d^2) per matrix (the pushed
    Fisher factor gathers them from its Choi tensor); coords gathers a stack and
    computes only the real coordinates; matrix is two scatters and a product with G.
    """

    dim: int

    def __post_init__(self):
        object.__setattr__(self, "dim", _as_dim(self.dim))
        pairs, gell_mann = _index_maps(self.dim)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_gell_mann", gell_mann)

    @property
    def size(self) -> int:
        return self.dim * self.dim - 1

    def _empty(self, lead: tuple, dtype) -> np.ndarray:
        """An empty (*lead, d^2 - 1) output of dtype laid out entry-major in memory, the
        layout numpy gives the gathers, so no ufunc that writes into it transposes."""
        return np.empty((self.size,) + lead, dtype).transpose(*range(1, len(lead) + 1), 0)

    def _combine(self, up: np.ndarray, lo: np.ndarray, diag: np.ndarray) -> np.ndarray:
        """Tr[e_a^H y] for every element e_a and every matrix y of a stack, from its complex
        y_jk (up) and y_kj (lo) over the pairs j < k and its diagonal, gathered by the
        caller.  With up and lo scaled by 1 / sqrt 2 in place (the caller gives them up):
        up + lo, i (up - lo), then G diag(y)."""
        w, p = 1 / 2**0.5, up.shape[-1]
        up *= w
        lo *= w
        out = self._empty(up.shape[:-1], complex)
        np.add(up, lo, out=out[..., :p])
        np.subtract(up, lo, out=out[..., p : 2 * p])
        out[..., p : 2 * p] *= 1j
        np.matmul(diag, self._gell_mann.T, out=out[..., 2 * p :])
        return out

    def coords(self, x: np.ndarray) -> np.ndarray:
        """Real coordinates Re Tr[e_a^H x] of every matrix x of a (..., d, d) stack.

        For a Hermitian x these are the coordinates of its traceless part.  They
        are _combine's real parts, computed from the real and imaginary parts alone
        with the same per-term scaling: with up = x_jk and lo = x_kj, Re up / sqrt 2
        + Re lo / sqrt 2, then Im lo / sqrt 2 - Im up / sqrt 2, then G Re diag(x).
        Only one matrix's G Re diag(x), which numpy hands to BLAS, may round apart.
        """
        x, w, (j, k) = np.asarray(x), 1 / 2**0.5, self._pairs
        if x.shape[-2:] != (self.dim, self.dim):
            raise InvalidDimensionError(f"shape {x.shape} does not end in {(self.dim,) * 2}")
        out, p = self._empty(x.shape[:-2], float), j.size  # before the gathers: after
        up, lo = x[..., j, k], x[..., k, j]  # them, a 520-effect call faults 174 pages, not 110
        np.add(up.real * w, lo.real * w, out=out[..., :p])
        np.subtract(lo.imag * w, up.imag * w, out=out[..., p : 2 * p])
        np.matmul(x.real.diagonal(0, -2, -1), self._gell_mann.T, out=out[..., 2 * p :])
        return out

    def matrix(self, coords: Sequence[float]) -> np.ndarray:
        """sum_a c_a e_a for every coordinate vector of a (..., d^2 - 1) stack."""
        c, w = np.asarray(coords), 1 / 2**0.5
        if c.shape[-1:] != (self.size,):
            raise InvalidDimensionError(f"shape {c.shape} does not end in ({self.size},)")
        d, (j, k) = self.dim, self._pairs
        p = j.size
        s, ia = c[..., :p] * w, 1j * (c[..., p : 2 * p] * w)
        out = np.zeros(c.shape[:-1] + (d, d), dtype=complex)
        out[..., j, k] = s - ia
        out[..., k, j] = s + ia
        out.reshape(c.shape[:-1] + (d * d,))[..., :: d + 1] = c[..., 2 * p :] @ self._gell_mann
        return out


def tangent_basis(dim: int) -> TangentBasis:
    """Orthonormal traceless Hermitian basis for the given dimension.

    For dim=2 this is the Pauli basis divided by sqrt(2).
    """
    return TangentBasis(dim)


@dataclass(frozen=True, eq=False)
class PinvResult:
    """Moore-Penrose inverse plus its numerical rank."""

    pinv: np.ndarray
    rank: int


def mp_inverse(s: np.ndarray) -> PinvResult:
    """Moore-Penrose pseudoinverse via SVD with an explicit rank cutoff.

    Singular values at or below dim * machine-epsilon * sigma_max, the
    standard numerically stable choice, are cut.  The returned matrix
    satisfies the four Penrose conditions up to roundoff.
    """
    s = np.asarray(s)
    if s.ndim != 2 or s.shape[0] != s.shape[1] or not np.isfinite(s).all():
        raise InvalidOperandError("pseudoinverse argument is not a finite square matrix")
    n = s.shape[0]
    u, sv, vh = np.linalg.svd(s)
    tol = n * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > tol))
    inv_sv = np.zeros_like(sv)
    inv_sv[:rank] = 1.0 / sv[:rank]
    pinv = vh.conj().T @ np.diag(inv_sv) @ u.conj().T
    return PinvResult(pinv=pinv, rank=rank)


def _min_eig(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(a).min()) if a.size else 0.0


@dataclass(frozen=True)
class SchurReport:
    """Equivalence data for block positivity of [[A, B], [B*, C]]."""

    is_psd: bool
    cond2: bool
    cond3: bool


def _schur_condition(a, b, c, pinv_a, tol) -> bool:
    """A >= 0, range(B) subset range(A) (that is, A A^+ B = B), and C - B* A^+ B >= 0."""
    return (
        _min_eig(a) >= -tol
        and np.linalg.norm(a @ pinv_a @ b - b) <= tol
        and _min_eig(c - b.conj().T @ pinv_a @ b) >= -tol
    )


def schur_positivity_report(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> SchurReport:
    """Check the three equivalent characterizations of block PSD-ness.

    cond1: the assembled block matrix is PSD.
    cond2: A >= 0, range(B) subset range(A), and C - B* A^+ B >= 0.
    cond3: C >= 0, range(B*) subset range(C), and A - B C^+ B* >= 0.
    """
    a = require_hermitian(np.atleast_2d(a), "block A")
    c = require_hermitian(np.atleast_2d(c), "block C")
    b = np.atleast_2d(np.asarray(b, dtype=complex))
    if b.shape != (a.shape[0], c.shape[0]) or not np.isfinite(b).all():
        raise InvalidOperandError(
            f"block B must be a finite {(a.shape[0], c.shape[0])} matrix, got shape {b.shape}"
        )
    m = np.block([[a, b], [b.conj().T, c]])
    tol = 1e-9 * max(np.linalg.norm(m), 1.0)
    return SchurReport(
        is_psd=_min_eig(m) >= -tol,
        cond2=_schur_condition(a, b, c, mp_inverse(a).pinv, tol),
        cond3=_schur_condition(c, b.conj().T, a, mp_inverse(c).pinv, tol),
    )


@dataclass(frozen=True)
class MonotoneFunction:
    """A scalar operator monotone function f with f(1) = 1, held only as evaluate.

    kernel_coefficient(a, b) = b * f(a / b), for every f, multiplies the (i, j)
    entry of a matrix in the eigenbasis of a state with eigenvalues (a, b) =
    (lambda_i, lambda_j) (Petz, Linear Algebra Appl. 244, 81 (1996)).  f(1) = 1
    is checked, and monotonicity only for the scalar function on a grid;
    matrix monotonicity is assumed, not certified.
    """

    name: str
    evaluate: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        one = float(np.asarray(self.evaluate(np.ones(1)), dtype=float)[0])
        if not abs(one - 1.0) <= 1e-12:
            raise InvalidOperandError(f"function {self.name!r} has f(1) = {one!r}, not 1")
        grid = np.linspace(1e-3, 1e3, 1000)
        vals = np.asarray(self.evaluate(grid), dtype=float)
        if not np.isfinite(vals).all():
            raise InvalidOperandError(f"function {self.name!r} is not finite")
        if np.any(np.diff(vals) < -1e-12 * max(1.0, np.abs(vals).max())):
            raise InvalidOperandError(f"function {self.name!r} is not nondecreasing")

    def kernel_coefficient(self, a, b):
        return b * self.evaluate(a / b)


SLD_FUNCTION = MonotoneFunction("sld", lambda x: (x + 1) / 2)
RLD_FUNCTION = MonotoneFunction("rld", lambda x: x)


def _bogoliubov_evaluate(x):
    # (x - 1) / log x is accurate up to x == 1, where x - 1 is exact; only 1 takes the limit
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 1.0, 1.0, (x - 1) / np.log(x))


BOGOLIUBOV_FUNCTION = MonotoneFunction("bogoliubov", _bogoliubov_evaluate)


@dataclass(frozen=True, eq=False)
class SuperOperatorKf:
    """The map X -> sum_ij c_f(lambda_i, lambda_j) X_ij in the state eigenbasis.

    Built from a strictly positive state and an operator monotone function;
    caches the eigendecomposition and the coefficient matrix so repeated
    applications are two basis changes and an entrywise product.
    """

    state_eigenvalues: np.ndarray
    state_eigenvectors: np.ndarray
    coefficients: np.ndarray  # c_f(lambda_i, lambda_j)

    @property
    def dim(self) -> int:
        return self.state_eigenvalues.size

    def _conjugate(self, x: np.ndarray, op) -> np.ndarray:
        """U op(U^H x U, c) U^H: apply takes np.multiply, apply_inverse np.divide."""
        x = np.asarray(x, dtype=complex)
        if x.shape != (self.dim, self.dim):
            raise InvalidOperandError(f"operand shape {x.shape} is not {(self.dim,) * 2}")
        u = self.state_eigenvectors
        return u @ op(u.conj().T @ x @ u, self.coefficients) @ u.conj().T

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._conjugate(x, np.multiply)

    def apply_inverse(self, x: np.ndarray) -> np.ndarray:
        return self._conjugate(x, np.divide)


def kf_superoperator(rho: np.ndarray, f: MonotoneFunction) -> SuperOperatorKf:
    """Diagonalize a state and build its K^f superoperator, which inverts the state.

    Raises SingularStateError unless the smallest eigenvalue exceeds eigh_tol.
    """
    rho = require_hermitian(rho, "state")
    w, u = np.linalg.eigh(rho)
    if w[0] <= eigh_tol(w):
        raise SingularStateError(f"state eigenvalue {w[0]:.3e} is not above {eigh_tol(w):.1e}")
    coeff = f.kernel_coefficient(w[:, None], w[None, :])
    return SuperOperatorKf(state_eigenvalues=w, state_eigenvectors=u, coefficients=coeff)
