"""Spin operator construction and dense Hermitian linear-algebra kernels.

Everything here works on plain complex numpy arrays.  The only composite
type is :class:`SpinRep`, the triple of angular-momentum matrices for one
irreducible representation; its arrays are frozen after construction so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure, SpectrumNotReal

__all__ = [
    "SpinRep",
    "build_spin_rep",
    "spin_moments",
    "j_direction",
    "expm_i",
    "spectral_absmax",
    "trace_norm",
    "singular_mask",
    "check_inverse",
    "sym_inverse",
]


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


def _as_square(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    return a


def require_hermitian(a, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as an array, raising if it is not Hermitian.

    ``a`` is one matrix or a stack ``(..., N, N)``, checked in one pass.
    Each matrix's residual ``||a - a^dag||`` is measured relative to its
    own ``max(||a||, 1)`` in the Frobenius norm.
    """
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    resid = np.linalg.norm(a - np.swapaxes(a.conj(), -1, -2), axis=(-2, -1))
    if np.any(resid > tol * np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)):
        raise InvalidInput(f"{name} is not Hermitian (residual {np.max(resid):.3e})")
    return a


def require_unit3(n, tol: float = 1e-10) -> np.ndarray:
    """Validate real direction vectors of unit norm, shape ``(..., 3)``."""
    n = np.asarray(n, dtype=float)
    if n.ndim < 1 or n.shape[-1] != 3:
        raise InvalidInput(f"direction vector must have 3 components, got shape {n.shape}")
    norm = np.sqrt((n * n).sum(axis=-1))
    if np.any(np.abs(norm - 1.0) > tol):
        raise InvalidInput(f"direction vector has norm {norm.tolist()!r}, expected 1")
    return n


@dataclass(frozen=True)
class SpinRep:
    """Irreducible su(2) representation of dimension ``N = 2s + 1``.

    Attributes
    ----------
    N : int
        Hilbert-space dimension, at least 2.
    s : float
        Spin quantum number ``(N - 1) / 2``; half-integers are allowed.
    jx, jy, jz : ndarray
        The three N x N Hermitian generators, satisfying the cyclic
        commutation relations ``[jx, jy] = 1j * jz`` and the Casimir
        identity ``jx^2 + jy^2 + jz^2 = s (s + 1) I``.
    """

    N: int
    s: float
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    def __post_init__(self):
        for name in ("jx", "jy", "jz"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))


def _ladder_elements(s: float, m: np.ndarray) -> np.ndarray:
    """``<m-1|J-|m> = sqrt(s(s+1) - m(m-1))`` for each ``m`` given."""
    return np.sqrt(s * (s + 1) - m * (m - 1))


def build_spin_rep(N: int) -> SpinRep:
    """Construct the spin-s representation acting on dimension ``N``.

    ``jz`` is diagonal with entries ``s, s-1, ..., -s`` and the ladder
    matrix elements are ``<m-1|J-|m> = sqrt(s(s+1) - m(m-1))``; ``jx`` and
    ``jy`` follow from the ladder combination.
    """
    if int(N) != N or N < 2:
        raise InvalidInput(f"representation dimension must be an integer >= 2, got {N!r}")
    N = int(N)
    s = (N - 1) / 2
    m = s - np.arange(N)
    jminus = np.zeros((N, N), dtype=complex)
    jminus[np.arange(1, N), np.arange(N - 1)] = _ladder_elements(s, m[:-1])
    jplus = jminus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    jz = np.diag(m).astype(complex)
    return SpinRep(N=N, s=s, jx=jx, jy=jy, jz=jz)


def spin_moments(psi) -> tuple[np.ndarray, np.ndarray]:
    """First and second spin moments of a state, without forming any N x N matrix.

    Returns ``(mean, second)`` with ``mean[k] = <J_k>`` (real, shape (3,))
    and ``second[k, m] = <J_k J_m>`` (complex, shape (3, 3)), in the basis
    of :func:`build_spin_rep` (Jz diagonal, entries s down to -s).  ``J+ psi``
    and ``J- psi`` are the state shifted by one entry and scaled by the
    ladder elements, so the cost is O(N).  The expectations assume ``psi``
    has unit norm.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size < 2:
        raise InvalidInput(f"state must be a vector of dimension >= 2, got shape {psi.shape}")
    s = (psi.size - 1) / 2
    m = s - np.arange(psi.size)
    ladder = _ladder_elements(s, m[:-1])
    jminus_psi = np.zeros_like(psi)
    jplus_psi = np.zeros_like(psi)
    jminus_psi[1:] = ladder * psi[:-1]
    jplus_psi[:-1] = ladder * psi[1:]
    v = np.stack([(jplus_psi + jminus_psi) / 2, (jplus_psi - jminus_psi) / 2j, m * psi])
    mean = (v @ psi.conj()).real
    second = v.conj() @ v.T
    return mean, second


def j_direction(rep: SpinRep, n) -> np.ndarray:
    """Spin component ``n . J`` along the unit direction ``n``.

    A stack of directions ``(..., 3)`` gives a stack ``(..., N, N)``.
    """
    n = require_unit3(n)[..., None, None]
    return n[..., 0, :, :] * rep.jx + n[..., 1, :, :] * rep.jy + n[..., 2, :, :] * rep.jz


def expm_i(a, c: float) -> np.ndarray:
    """Unitary ``exp(-1j * c * a)`` for Hermitian ``a``.

    Computed through the eigendecomposition, which keeps the result unitary
    to the accuracy of the eigensolver regardless of ``|c| * ||a||``.  A
    stack ``(..., N, N)`` is checked and decomposed in one call each; a
    single matrix is a stack of one.  Non-Hermitian input raises
    :class:`InvalidInput`.
    """
    evals, vecs = np.linalg.eigh(require_hermitian(a))
    return (vecs * np.exp(-1j * c * evals)[..., None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def spectral_absmax(a, imag_rel_tol: float = 1e-8) -> float:
    """Largest eigenvalue magnitude of a matrix with real spectrum.

    An exactly Hermitian input goes through ``eigvalsh``, whose spectrum is
    real by construction.  Otherwise raises :class:`SpectrumNotReal` when
    any eigenvalue's imaginary part exceeds ``imag_rel_tol`` relative to
    the spectral scale.
    """
    a = _as_square(a)
    if np.array_equal(a, a.conj().T):
        return float(np.abs(np.linalg.eigvalsh(a)).max(initial=0.0))
    w = np.linalg.eigvals(a)
    scale = max(float(np.abs(w).max(initial=0.0)), 1e-300)
    imag = float(np.abs(w.imag).max(initial=0.0))
    if imag > imag_rel_tol * scale:
        raise SpectrumNotReal(
            f"spectrum is not numerically real (max imag {imag:.3e}, scale {scale:.3e})"
        )
    return float(np.abs(w.real).max(initial=0.0))


def trace_norm(a) -> float:
    """Sum of singular values of a square matrix."""
    a = _as_square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def singular_mask(evals, rel_tol: float) -> np.ndarray:
    """Singularity rule for symmetric matrices, over leading axes.

    ``evals`` holds each matrix's eigenvalues in ascending order along the
    last axis.  A matrix counts as singular when its largest eigenvalue is
    not positive or the ratio of its smallest to largest eigenvalue falls
    below ``rel_tol``.  The threshold is relative on purpose: the matrices
    this package inverts scale with evolution time and probe dimension.
    A ``rel_tol`` outside (0, 1) raises :class:`InvalidInput`: one of 1 or
    more would flag every matrix except, at most, multiples of the identity.
    """
    if not 0 < rel_tol < 1:
        raise InvalidInput(f"singularity tolerance must lie in (0, 1), got {rel_tol!r}")
    lam_max = evals[..., -1]
    return (lam_max <= 0) | (evals[..., 0] < rel_tol * lam_max)


def check_inverse(q, q_inv, cond) -> None:
    """Raise :class:`NumericalFailure` where ``q_inv`` is not an inverse of ``q``.

    A correct inverse leaves a residual ``||Q Q^-1 - I||`` of a few
    ``eps * cond(Q)``, so each matrix of the stack is held to
    ``1e3 * eps * cond(Q)`` with ``cond`` its condition number.  A NaN
    residual fails too.
    """
    resid = np.linalg.norm(q @ q_inv - np.eye(q.shape[-1]), axis=(-2, -1))
    excess = float(np.max(resid / (1e3 * np.finfo(float).eps * np.asarray(cond))))
    if not excess <= 1:
        raise NumericalFailure(
            f"inverse verification failed (residual {excess:.3g} times 1e3 eps cond(Q))"
        )


def sym_inverse(q, rel_tol: float = 1e-10) -> np.ndarray | None:
    """Inverse of a real symmetric matrix, or ``None`` when near singular.

    Singular means :func:`singular_mask` at ``rel_tol``; the inverse is
    verified by :func:`check_inverse`.  Asymmetric input raises
    :class:`InvalidInput`.
    """
    q = _as_square(q, "symmetric matrix")
    q = np.asarray(q, dtype=float) if not np.iscomplexobj(q) else q
    if np.iscomplexobj(q):
        if np.abs(q.imag).max(initial=0.0) > 1e-12 * max(np.abs(q).max(), 1.0):
            raise InvalidInput("symmetric inverse expects a real matrix")
        q = q.real
    # Scaled to a largest entry of 1, so the Frobenius norms cannot overflow;
    # the norm of the scaled matrix is then at least 1.
    scaled = q / max(np.abs(q).max(initial=0.0), np.finfo(float).tiny)
    if np.linalg.norm(scaled - scaled.T) > 1e-10 * np.linalg.norm(scaled):
        raise InvalidInput("matrix is not symmetric")
    w = np.linalg.eigvalsh(q)
    if singular_mask(w, rel_tol):
        return None
    inv = np.linalg.inv(q)
    inv = (inv + inv.T) / 2
    check_inverse(q, inv, w[-1] / w[0])
    return inv
