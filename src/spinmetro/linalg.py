"""Spin operator construction and dense Hermitian linear-algebra kernels.

Everything here works on plain complex numpy arrays.  The only composite
type is :class:`SpinRep`, the triple of angular-momentum matrices for one
irreducible representation; its arrays are frozen after construction so
instances can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

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


def _require_finite_square(a, name: str) -> np.ndarray:
    # A NaN residual compares False against any tolerance, so the Hermitian
    # and symmetric rules reject a non-finite matrix before measuring one.
    a = np.asarray(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InvalidInput(f"{name} holds a NaN or an infinity")
    return a


def require_hermitian(a, tol: float = 1e-12, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as an array, raising if it is not Hermitian.

    ``a`` is one matrix or a stack ``(..., N, N)``, checked in one pass.
    A stack that holds a NaN or an infinity raises.  A finite stack that
    is exactly Hermitian, as every generator and Hamiltonian this package
    builds is, passes at the cost of one comparison.  Otherwise each
    matrix's residual ``||a - a^dag||`` is measured relative to its own
    ``max(||a||, 1)`` in the Frobenius norm.
    """
    a = _require_finite_square(a, name)
    a_h = np.swapaxes(a.conj(), -1, -2)
    if np.array_equal(a, a_h):
        return a
    resid = np.linalg.norm(a - a_h, axis=(-2, -1))
    if np.any(resid > tol * np.maximum(np.linalg.norm(a, axis=(-2, -1)), 1.0)):
        raise InvalidInput(f"{name} is not Hermitian (residual {np.max(resid):.3e})")
    return a


def require_symmetric(a, sign: int = 1, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as an array, raising unless each matrix equals ``sign``
    times its transpose: symmetric for ``sign`` 1, antisymmetric for -1.

    ``a`` is one real matrix or a stack ``(..., n, n)``, checked in one
    pass; any other shape, a NaN or an infinity raises
    :class:`InvalidInput`.  A stack that is exactly (anti)symmetric, as
    the frame kernel's Q and D are, passes at the cost of one comparison.
    Otherwise each matrix is scaled to a largest entry of 1, so the
    Frobenius norms cannot overflow, and its residual ``||a - sign a^T||``
    is held to 1e-10 of its scaled norm.  A zero matrix passes.
    """
    a = _require_finite_square(a, name)
    a_t = np.swapaxes(a, -1, -2)
    if np.array_equal(a, a_t if sign > 0 else -a_t):
        return a
    scale = np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), np.finfo(float).tiny)
    scaled = a / scale[..., None, None]
    resid = np.linalg.norm(scaled - sign * np.swapaxes(scaled, -1, -2), axis=(-2, -1))
    if np.any(resid > 1e-10 * np.linalg.norm(scaled, axis=(-2, -1))):
        kind = "symmetric" if sign > 0 else "antisymmetric"
        raise InvalidInput(f"{name} is not {kind}")
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


def require_unit_norm(psi, tol: float = 1e-10) -> np.ndarray:
    """Raise :class:`InvalidInput` unless the state vector ``psi`` has unit
    norm to ``tol``; a NaN norm fails too."""
    norm = np.linalg.norm(psi)
    if not abs(norm - 1.0) <= tol:
        raise InvalidInput(f"probe is not normalized (norm {norm!r})")
    return psi


@dataclass(frozen=True)
class SpinRep:
    """Irreducible su(2) representation of dimension ``N = 2s + 1``.

    Attributes
    ----------
    N : int
        Hilbert-space dimension, at least 2.
    jx, jy, jz : ndarray
        The three N x N Hermitian generators, satisfying the cyclic
        commutation relations ``[jx, jy] = 1j * jz`` and the Casimir
        identity ``jx^2 + jy^2 + jz^2 = s (s + 1) I`` with spin
        ``s = (N - 1) / 2``.
    """

    N: int
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
    return SpinRep(N=N, jx=jx, jy=jy, jz=jz)


def spin_moments(psi) -> tuple[np.ndarray, np.ndarray]:
    """Spin mean and covariance of a state, without forming any N x N matrix.

    Returns ``(mean, cov)``: ``mean[k] = <J_k>`` and ``cov[k, m] = Re <u_k|u_m>``
    of the centered ``u_k = (J_k - <J_k>) psi``, free of the cancellation
    in ``<J_k J_m> - <J_k><J_m>``.  In the basis of
    :func:`build_spin_rep`, ``J+ psi`` and ``J- psi`` are ``psi`` shifted by
    one entry and scaled by the ladder elements, so the cost is O(N).  A state
    without unit norm raises :class:`InvalidInput` (:func:`require_unit_norm`).
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1 or psi.size < 2:
        raise InvalidInput(f"state must be a vector of dimension >= 2, got shape {psi.shape}")
    require_unit_norm(psi)
    s = (psi.size - 1) / 2
    m = s - np.arange(psi.size)
    ladder = _ladder_elements(s, m[:-1])
    jminus_psi = np.zeros_like(psi)
    jplus_psi = np.zeros_like(psi)
    jminus_psi[1:] = ladder * psi[:-1]
    jplus_psi[:-1] = ladder * psi[1:]
    v = np.stack([(jplus_psi + jminus_psi) / 2, (jplus_psi - jminus_psi) / 2j, m * psi])
    mean = (v @ psi.conj()).real
    v -= mean[:, None] * psi
    # Re <u_k|u_m> is the dot product of the (re, im) pairs; numpy forms
    # w w^T by one symmetric rank-k update, so cov comes out exactly symmetric
    w = v.view(float)
    return mean, w @ w.T


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


def spectral_absmax(a) -> float:
    """Largest eigenvalue magnitude of a Hermitian matrix, by ``eigvalsh``.

    Input that is not Hermitian (the rule of :func:`require_hermitian`)
    raises :class:`InvalidInput`.
    """
    a = require_hermitian(_as_square(a))
    return float(np.abs(np.linalg.eigvalsh(a)).max(initial=0.0))


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
    :class:`InvalidInput` (the rule of :func:`require_symmetric`).
    """
    q = require_symmetric(np.asarray(_as_square(q, "symmetric matrix"), dtype=float))
    w = np.linalg.eigvalsh(q)
    if singular_mask(w, rel_tol):
        return None
    inv = np.linalg.inv(q)
    inv = (inv + inv.T) / 2
    check_inverse(q, inv, w[-1] / w[0])
    return inv
