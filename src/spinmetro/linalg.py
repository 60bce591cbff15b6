"""Spin operator construction and dense Hermitian linear-algebra kernels.

Everything here works on plain numpy arrays: complex for states and
Hermitian matrices, real for the symmetric inverse and for the tridiagonal
form that gives the spectrum of ``1j K`` for real antisymmetric K from real
arithmetic alone (:func:`antisym_tridiagonal`).  The only composite
type is :class:`SpinRep`, the triple of angular-momentum matrices for one
irreducible representation; its arrays are frozen after construction so
instances can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, NumericalFailure

_EPS = np.finfo(float).eps
_TINY = np.finfo(float).tiny

__all__ = [
    "SpinRep",
    "build_spin_rep",
    "check_probe",
    "spin_moments",
    "j_direction",
    "expm_i",
    "spectral_absmax",
    "antisym_tridiagonal",
    "trace_norm",
    "singular_mask",
    "check_inverse",
    "eigh_inverse",
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
    a_h = a.conj().swapaxes(-1, -2)
    if (a == a_h).all():
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
    a_t = a.swapaxes(-1, -2)
    if (a == (a_t if sign > 0 else -a_t)).all():
        return a
    scale = np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), _TINY)
    scaled = a / scale[..., None, None]
    resid = np.linalg.norm(scaled - sign * np.swapaxes(scaled, -1, -2), axis=(-2, -1))
    if np.any(resid > 1e-10 * np.linalg.norm(scaled, axis=(-2, -1))):
        kind = "symmetric" if sign > 0 else "antisymmetric"
        raise InvalidInput(f"{name} is not {kind}")
    return a


def require_unit3(n) -> np.ndarray:
    """Validate real direction vectors of unit norm to 1e-10, shape ``(..., 3)``."""
    n = np.asarray(n, dtype=float)
    if n.ndim < 1 or n.shape[-1] != 3:
        raise InvalidInput(f"direction vector must have 3 components, got shape {n.shape}")
    norm = np.sqrt((n * n).sum(axis=-1))
    if np.any(np.abs(norm - 1.0) > 1e-10):
        raise InvalidInput(f"direction vector has norm {norm.tolist()!r}, expected 1")
    return n


def require_int(value, name: str) -> int:
    """Return ``value`` as a Python int, raising :class:`InvalidInput` unless
    it is an integer.

    A value with ``__index__``, a numpy integer say, is taken; a bool, or a
    float even if integral, raises.
    """
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


def require_float(value, name: str) -> float:
    """Return ``value`` as a Python float, raising :class:`InvalidInput` unless
    it is a finite real number.

    A string, ``None`` or a bool raises, as do a NaN, an infinity and an
    integer too large for a float.
    """
    try:
        if isinstance(value, (bool, np.bool_)) or not math.isfinite(value):
            raise TypeError
    except TypeError:
        raise InvalidInput(f"{name} must be a finite number, got {value!r}") from None
    except OverflowError:
        # a huge int: its repr can itself fail, past the int-to-str limit
        message = f"{name} must be a finite number, got a value too large for a float"
        raise InvalidInput(message) from None
    return float(value)


def require_positive(value, name: str, what: str | None = None) -> float:
    """:func:`require_float` of ``value``, which must also be positive, else
    :class:`InvalidInput` naming ``what`` (by default ``name``)."""
    value = require_float(value, name)
    if not value > 0:
        raise InvalidInput(f"{what or name} must be positive, got {value!r}")
    return value


def require_floats(values, name: str) -> np.ndarray:
    """``values`` as a float array, else :class:`InvalidInput`: the one rule for
    an array of real numbers, which integers pass and bools, strings, objects
    and complex numbers (a cast would drop their imaginary parts) do not."""
    try:
        values = np.asarray(values)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"{name} must be an array of numbers: {exc}") from None
    if values.dtype.kind not in "iuf":
        raise InvalidInput(f"{name} must be an array of real numbers, got dtype {values.dtype}")
    return values.astype(float, copy=False)


def require_broadcast(name: str, *arrays) -> tuple[int, ...]:
    """The shape ``arrays`` broadcast to, else :class:`InvalidInput` naming
    ``name``: the one rule for array arguments that must broadcast together."""
    try:
        return np.broadcast(*arrays).shape
    except ValueError:
        shapes = ", ".join(str(np.shape(a)) for a in arrays)
        raise InvalidInput(f"{name} must broadcast together, got shapes {shapes}") from None


def require_unit_norm(psi) -> np.ndarray:
    """Raise :class:`InvalidInput` unless each state vector along the last
    axis of ``psi`` has unit norm to 1e-10; a NaN norm fails too."""
    norm = np.hypot.reduce(np.abs(psi), axis=-1)
    good = np.abs(norm - 1.0) <= 1e-10
    if np.count_nonzero(good) != good.size:
        raise InvalidInput(f"probe is not normalized (norm {norm[~good].flat[0]!r})")
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


def _slot_rule(s, index) -> tuple[np.ndarray, np.ndarray]:
    """Jz eigenvalues ``m = s - index`` of spin ``s`` at the ascending basis
    positions ``index (..., L)``, and the squared ladder elements
    ``s(s + 1) - m(m - 1)`` from each position to the next where adjacent,
    else 0 (a seam, or a pad: a repeated position of amplitude 0)."""
    m = s - index
    adjacent = index[..., 1:] - index[..., :-1] == 1
    return m, np.where(adjacent, s * (s + 1) - m[..., :-1] * (m[..., :-1] - 1), 0.0)


def build_spin_rep(N: int) -> SpinRep:
    """Construct the spin-s representation acting on dimension ``N``.

    ``jz`` is diagonal with entries ``s, s-1, ..., -s`` and the ladder
    matrix elements are ``<m-1|J-|m> = sqrt(s(s+1) - m(m-1))``; ``jx`` and
    ``jy`` follow from the ladder combination.  ``N`` is an integer (the
    rule of :func:`require_int`) of at least 2.
    """
    N = require_int(N, "representation dimension")
    if N < 2:
        raise InvalidInput(f"representation dimension must be an integer >= 2, got {N}")
    m, ladder_sq = _slot_rule((N - 1) / 2, np.arange(N))
    jminus = np.zeros((N, N), dtype=complex)
    jminus[np.arange(1, N), np.arange(N - 1)] = np.sqrt(ladder_sq)
    jplus = jminus.conj().T
    jx = (jplus + jminus) / 2
    jy = (jplus - jminus) / 2j
    jz = np.diag(m).astype(complex)
    return SpinRep(N=N, jx=jx, jy=jy, jz=jz)


def _as_state(psi, dim: int | None = None) -> np.ndarray:
    """``psi`` as a complex vector, of dimension ``dim`` if given: the shape
    and type half of :func:`check_probe`."""
    try:
        psi = np.asarray(psi)
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"probe must be a vector of numbers: {exc}") from None
    if psi.dtype.kind not in "iufc":
        raise InvalidInput(f"probe must be a vector of numbers, got dtype {psi.dtype}")
    if psi.ndim != 1:
        raise InvalidInput(f"probe must be a vector, got shape {psi.shape}")
    if dim is not None and psi.size != dim:
        raise InvalidInput(f"probe has dimension {psi.size}, expected {dim}")
    return psi.astype(complex, copy=False)


def check_probe(psi, dim: int | None = None) -> np.ndarray:
    """Return the pure probe state ``psi`` as a complex vector, the one rule
    for a state: a vector of numbers (integer, real or complex; not bool,
    string or object), of dimension ``dim`` if given, with unit norm (the
    rule of :func:`require_unit_norm`).  Anything else raises
    :class:`InvalidInput`."""
    return require_unit_norm(_as_state(psi, dim))


# The rows (J+ + J-) / 2, (J+ - J-) / 2j and Jz over the rows J+ psi,
# J- psi and Jz psi: each entry is 0, a power of 2 or i times one, so the
# product rounds as the sums and quotients it stands for.
_SPIN_ROWS = np.array([[0.5, 0.5, 0.0], [-0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])


def _window_moments(amp, m, ladder) -> tuple[np.ndarray, np.ndarray]:
    """Spin mean and covariance of states given on windows of their
    support, over broadcast leading axes: the one moments kernel.

    A window is a run of adjacent basis vectors; every basis vector within
    one entry of a nonzero amplitude lies in one.  ``amp (..., L)`` holds a
    state's amplitudes on its windows laid end to end, slot by slot, and
    ``m (..., L)`` the Jz eigenvalue of each slot.  ``ladder (..., L - 1)``
    holds the element ``<k+1|J-|k>`` between each slot and the next where
    their basis vectors are adjacent, and 0 across a seam between windows
    or beside a pad, a slot of amplitude 0 that only fills a stack.  Then
    ``J+ psi`` and ``J- psi`` are ``amp`` shifted by one slot and scaled by
    ``ladder``, and the moments are those of :func:`spin_moments`, at a
    cost of O(L) a state.  A state without unit norm raises
    :class:`InvalidInput`.
    """
    require_unit_norm(amp)
    rows = np.zeros(amp.shape[:-1] + (3, amp.shape[-1]), dtype=complex)
    np.multiply(ladder, amp[..., 1:], out=rows[..., 0, :-1])
    np.multiply(ladder, amp[..., :-1], out=rows[..., 1, 1:])
    np.multiply(m, amp, out=rows[..., 2, :])
    v = _SPIN_ROWS @ rows
    mean = (v @ amp.conj()[..., None])[..., 0].real
    v -= np.multiply(mean[..., None], amp[..., None, :], out=rows)
    # Re <u_k|u_m> is the dot product of the (re, im) pairs; numpy forms
    # w w^T by one symmetric rank-k update, so cov comes out exactly symmetric
    w = v.view(float)
    return mean, w @ w.swapaxes(-1, -2)


def spin_moments(psi) -> tuple[np.ndarray, np.ndarray]:
    """Spin mean and covariance of a state, without forming any N x N matrix.

    Returns ``(mean, cov)``: ``mean[k] = <J_k>`` and ``cov[k, m] = Re <u_k|u_m>``
    of the centered ``u_k = (J_k - <J_k>) psi``, free of the cancellation
    in ``<J_k J_m> - <J_k><J_m>``.  In the basis of :func:`build_spin_rep`,
    ``J_k psi`` is nonzero only within one entry of a nonzero amplitude, so
    the state is cut to those windows, merged where they touch (a state
    with no zero amplitude is one window), and :func:`_window_moments`
    takes the moments there: the cost is O(N) to find the windows and
    O(size of the windows) after.  ``psi`` is held to :func:`check_probe`,
    its norm on the windows, and has dimension 2 or more, else
    :class:`InvalidInput`.
    """
    psi = _as_state(psi)
    if psi.size < 2:
        raise InvalidInput(f"state must be a vector of dimension >= 2, got shape {psi.shape}")
    nonzero = psi != 0
    near = nonzero.copy()
    near[1:] |= nonzero[:-1]
    near[:-1] |= nonzero[1:]
    index = np.flatnonzero(near)
    return _slot_moments((psi.size - 1) / 2, index, psi[index])


def _slot_moments(s, index, amp) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_window_moments` of spin-``s`` states with the slots
    ``amp (..., L)`` at the positions ``index``, laid out by :func:`_slot_rule`."""
    m, ladder_sq = _slot_rule(s, index)
    return _window_moments(amp, m, np.sqrt(ladder_sq))


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


def antisym_tridiagonal(k) -> np.ndarray:
    """Real symmetric tridiagonal stack with the spectrum of ``1j K``, over
    leading axes, written over ``K``, which is returned.

    ``k`` is a writeable float stack of exactly antisymmetric matrices
    (..., n, n).  Householder reflections reduce each to tridiagonal form,
    and ``diag(1j**m)`` takes ``1j`` times that to the real symmetric
    tridiagonal matrix with zero diagonal whose off-diagonal entries are
    the reflected row norms; their signs do not change its spectrum (R. C.
    Ward and L. J. Gray, ACM TOMS 4, 278 (1978); Golub and Van Loan,
    *Matrix Computations*, 8.3).  A real ``eigvalsh`` of the result is
    therefore the complex ``eigvalsh(1j K)``, to rounding, at about half
    its cost.  A reflected 2 x 2 antisymmetric block only changes sign, so
    only trailing blocks of 3 or more rows are updated: up to n = 3 the
    reduction is the row norms alone.
    """
    n = k.shape[-1]
    norms = []
    for j in range(n - 1):
        row = k[..., j, j + 1:]
        norm = np.hypot.reduce(row, axis=-1)
        norms.append(norm)
        if n - j - 1 >= 3:
            # u, the unit Householder vector that takes the row to a multiple
            # of e_1, and the update A + 2 u w^T - 2 w u^T, w = A u, of the
            # antisymmetric trailing block A (u^T A u = 0); u = 0 for a zero row
            u = row.copy()
            lead = u[..., 0]
            scale = np.sqrt(2 * norm) * np.sqrt(norm + np.abs(lead))
            u[..., 0] += np.copysign(norm, lead)
            u /= np.where(scale > 0, scale, 1.0)[..., None]
            block = k[..., j + 1:, j + 1:]
            w = (block @ u[..., None])[..., 0]
            block += 2 * (u[..., :, None] * w[..., None, :] - w[..., :, None] * u[..., None, :])
    k.fill(0.0)
    for j, norm in enumerate(norms):
        k[..., j, j + 1] = k[..., j + 1, j] = norm
    return k


def trace_norm(a) -> float:
    """Sum of singular values of a square matrix."""
    a = _as_square(a)
    return float(np.linalg.svd(a, compute_uv=False).sum())


def singular_mask(evals, rel_tol: float) -> np.ndarray:
    """Singularity rule for symmetric matrices, over leading axes.

    ``evals`` holds each matrix's eigenvalues in ascending order along the
    last axis.  A matrix counts as singular when its smallest eigenvalue is
    not positive or the ratio of its smallest to largest eigenvalue falls
    below ``rel_tol``.  The threshold is relative on purpose: the matrices
    this package inverts scale with evolution time and probe dimension.
    The sign test matters where ``rel_tol * lambda_max`` underflows to 0:
    there a zero eigenvalue would pass the ratio test.
    ``rel_tol`` is a finite number (the rule of :func:`require_float`) in
    (0, 1), else :class:`InvalidInput`: one of 1 or more would flag every
    matrix except, at most, multiples of the identity.
    """
    rel_tol = require_float(rel_tol, "singularity tolerance")
    if not 0 < rel_tol < 1:
        raise InvalidInput(f"singularity tolerance must lie in (0, 1), got {rel_tol!r}")
    lam_min = evals[..., 0]
    return (lam_min <= 0) | (lam_min < rel_tol * evals[..., -1])


def check_inverse(q, q_inv, cond) -> None:
    """Raise :class:`NumericalFailure` where ``q_inv`` is not an inverse of ``q``.

    A correct inverse leaves a residual ``||Q Q^-1 - I||`` of a few
    ``eps * cond(Q)``, so each matrix of the stack is held to
    ``1e3 * eps * cond(Q)`` with ``cond`` its condition number.  A NaN
    residual fails too; an empty stack passes.
    """
    resid = q @ q_inv - np.eye(q.shape[-1])
    resid = np.sqrt((resid * resid).sum(axis=(-2, -1)))
    excess = float((resid / (1e3 * _EPS * np.asarray(cond))).max(initial=0.0))
    if not excess <= 1:
        raise NumericalFailure(
            f"inverse verification failed (residual {excess:.3g} times 1e3 eps cond(Q))"
        )


def eigh_inverse(q, rel_tol: float, name: str = "symmetric matrix"):
    """The package's one inverse of real symmetric matrices, over a stack
    ``q (G, n, n)``, from one ``eigh``: ``(evals, singular, regular, vecs, q_inv)``.

    ``evals`` are ascending; ``singular`` is :func:`singular_mask` at
    ``rel_tol``; ``regular`` holds the other matrices' positions, and ``vecs``
    and ``q_inv = vecs diag(1/evals[regular]) vecs^T`` (symmetrized, held to
    :func:`check_inverse`) their eigenvectors and inverses in that order,
    empty if none is regular.  ``q`` is held to :func:`require_symmetric`,
    ``name`` labelling its error.
    """
    q = require_symmetric(np.asarray(q, dtype=float), name=name)
    evals, vecs = np.linalg.eigh(q)
    singular = singular_mask(evals, rel_tol)
    regular = (~singular).nonzero()[0]
    lam, vecs, q = (x.take(regular, axis=0) for x in (evals, vecs, q))
    q_inv = (vecs / lam[..., None, :]) @ vecs.swapaxes(-1, -2)
    q_inv = (q_inv + q_inv.swapaxes(-1, -2)) / 2
    check_inverse(q, q_inv, lam[..., -1] / lam[..., 0])
    return evals, singular, regular, vecs, q_inv


def sym_inverse(q, rel_tol: float = 1e-10) -> np.ndarray | None:
    """Inverse of one real symmetric matrix, or ``None`` when near singular:
    :func:`eigh_inverse` on a batch of one."""
    q_inv = eigh_inverse(_as_square(q, "symmetric matrix")[None], rel_tol)[-1]
    return q_inv[0] if len(q_inv) else None
