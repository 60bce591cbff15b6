"""Estimation-theory core: QFIM, Uhlmann curvature, SLD, bounds.

The routines consume generator sets or density matrices and know nothing
about su(2), except :func:`frame_qfim_uhlmann`, which takes generators
that are spin components ``a_l . J`` as their (d, 3) frame and the probe's
spin mean and covariance; scans, scaling tables and reports use it, and
:func:`incompat_report` is the dense route for any generator set.
:func:`bounds` takes every bound and ``det Q`` from one ``eigh`` of Q, in
its eigenbasis, with no ``Q^-1 D Q^-1`` and no negative ``det Q``.
Near-singular quantum Fisher matrices are never pseudo-inverted: every
quantity that needs an inverse returns ``None`` (or sets a flag) instead,
so callers can mask those points.  The misleading regime is exactly
where ``det Q -> 0``, and a silently regularized inverse would hide it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import GeneratorSet
from .errors import InvalidInput, NumericalFailure
from .linalg import (
    check_inverse,
    require_hermitian,
    require_symmetric,
    require_unit_norm,
    singular_mask,
    spectral_absmax,
    sym_inverse,
    trace_norm,
)

__all__ = [
    "check_probe",
    "qfim_uhlmann",
    "frame_qfim_uhlmann",
    "batched_qfim_uhlmann",
    "qfim_from_state_derivatives",
    "sld_solve",
    "qfim_from_slds",
    "uhlmann_from_slds",
    "born_probabilities",
    "classical_fim",
    "incompat_operator",
    "ai_measure",
    "holevo_pure",
    "bounds",
    "submodel",
    "IncompatReport",
    "incompat_report",
]


def check_probe(psi, dim: int | None = None) -> np.ndarray:
    """Validate a pure probe state: complex vector with unit norm."""
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 1:
        raise InvalidInput(f"probe must be a vector, got shape {psi.shape}")
    if dim is not None and psi.size != dim:
        raise InvalidInput(f"probe has dimension {psi.size}, expected {dim}")
    return require_unit_norm(psi)


def qfim_uhlmann(gens: GeneratorSet, probe) -> tuple[np.ndarray, np.ndarray]:
    """QFIM and Uhlmann matrix of a pure unitary model, from generators.

    ``Q_lm = 2 <{G_l, G_m}> - 4 <G_l><G_m>`` and
    ``D_lm = -2j <[G_l, G_m]>``, expectations in the probe state.  Q is
    symmetric positive semidefinite, D real antisymmetric.  It is
    :func:`batched_qfim_uhlmann` on a batch of one.
    """
    q, d = batched_qfim_uhlmann(gens.matrices, check_probe(probe, gens.dim))
    return (q + q.T) / 2, (d - d.T) / 2


def frame_qfim_uhlmann(frame, mean, cov) -> tuple[np.ndarray, np.ndarray]:
    """QFIM and Uhlmann matrix of generators that are spin components.

    ``frame`` has shape (..., d, 3) and row ``a_l`` gives the generator
    ``G_l = a_l . J``.  The probe enters only through its spin mean
    ``mean`` (..., 3) and covariance ``cov`` (..., 3, 3), as returned by
    :func:`~spinmetro.linalg.spin_moments`, whose leading axes broadcast
    against the frame's.  Then ``Q = 4 A Cov A^T`` and, because
    ``[J_k, J_m] = 1j eps_kmn J_n``, ``D_lm = 2 <J> . (a_l x a_m)``.  The
    cost per frame and probe is independent of the dimension N.  Q is
    symmetric and D exactly antisymmetric by construction.  Returns
    ``(Q, D)`` of shape (..., d, d) over the broadcast leading axes.
    """
    frame = np.asarray(frame, dtype=float)
    if frame.ndim < 2 or frame.shape[-1] != 3:
        raise InvalidInput(f"frame must have shape (..., d, 3), got {frame.shape}")
    mean = np.asarray(mean, dtype=float)
    cov = np.asarray(cov, dtype=float)
    if mean.shape[-1:] != (3,) or cov.shape != mean.shape + (3,):
        raise InvalidInput(
            f"spin moments must have shapes (..., 3), (..., 3, 3), got {mean.shape}, {cov.shape}"
        )
    q = 4 * frame @ cov @ np.swapaxes(frame, -1, -2)
    q = (q + np.swapaxes(q, -1, -2)) / 2
    cross = np.cross(frame[..., :, None, :], frame[..., None, :, :])
    d = 2 * (cross * mean[..., None, None, :]).sum(axis=-1)
    return q, d


def batched_qfim_uhlmann(gen_stack, probes) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized :func:`qfim_uhlmann` over broadcast leading axes.

    ``gen_stack`` has shape (..., d, N, N) and ``probes`` (..., N); the
    leading axes broadcast against each other.  Returns ``(Q, D)`` with
    shape (..., d, d).  Probes must be pre-normalized.  Scans and scaling
    tables use :func:`frame_qfim_uhlmann`; this dense form is its test
    oracle.  A generator that is not Hermitian to 1e-10 of its own norm
    (the rule of :func:`~spinmetro.linalg.require_hermitian`) raises
    :class:`InvalidInput`.
    """
    gen_stack = require_hermitian(np.asarray(gen_stack, dtype=complex), tol=1e-10,
                                  name="generator")
    probes = np.asarray(probes, dtype=complex)
    v = np.einsum("...lij,...j->...li", gen_stack, probes)
    means = np.einsum("...i,...li->...l", probes.conj(), v).real
    second = np.einsum("...li,...mi->...lm", v.conj(), v)
    q = 4 * (second.real - means[..., :, None] * means[..., None, :])
    d = 4 * second.imag
    return q, d


def qfim_from_state_derivatives(family, values, step: float = 1e-5):
    """QFIM and Uhlmann matrix from finite differences of the state itself.

    ``family`` maps a parameter vector to a normalized pure state.  This is
    the generator-free route: with ``|d_j psi>`` from central differences,
    ``Q_jk = 4 Re(<d_j psi|d_k psi> - <d_j psi|psi><psi|d_k psi>)`` and the
    Uhlmann matrix is 4 times the imaginary part of the same bracket.
    Differentiated states whose norm drifts beyond 1e-6 raise
    :class:`InvalidInput` (the family is then not a pure-state family at
    the working step).
    """
    values = np.asarray(values, dtype=float)
    if not step > 0:
        raise InvalidInput("finite-difference step must be positive")
    psi = check_probe(family(values))
    steps = step * np.maximum(1.0, np.abs(values))
    derivs = []
    for j in range(values.size):
        up, um = values.copy(), values.copy()
        up[j] += steps[j]
        um[j] -= steps[j]
        psi_p = np.asarray(family(up), dtype=complex)
        psi_m = np.asarray(family(um), dtype=complex)
        for vec in (psi_p, psi_m):
            if abs(np.linalg.norm(vec) - 1.0) > 1e-6:
                raise InvalidInput(
                    "state family norm drifted beyond 1e-6 at the working step"
                )
        derivs.append((psi_p - psi_m) / (2 * steps[j]))
    dpsi = np.array(derivs)
    overlap = dpsi.conj() @ dpsi.T
    dot_psi = dpsi.conj() @ psi
    bracket = overlap - np.outer(dot_psi, dot_psi.conj())
    q = 4 * bracket.real
    d = 4 * bracket.imag
    return (q + q.T) / 2, (d - d.T) / 2


def sld_solve(rho, drho, support_tol: float = 1e-12) -> np.ndarray:
    """Symmetric logarithmic derivative: solve ``2 drho = {L, rho}``.

    Solved in the eigenbasis of ``rho`` where the anticommutator equation
    decouples: ``L_jk = 2 drho_jk / (p_j + p_k)`` on the support
    (eigenvalue sums above ``support_tol``), zero elsewhere.
    """
    rho = require_hermitian(rho, name="density matrix")
    # derivative inputs often come from finite differences; tolerate their
    # noise floor, then symmetrize
    drho = require_hermitian(drho, tol=1e-8, name="density-matrix derivative")
    drho = (drho + drho.conj().T) / 2
    if abs(np.trace(rho).real - 1.0) > 1e-10:
        raise InvalidInput(f"density matrix has trace {np.trace(rho)!r}, expected 1")
    p, v = np.linalg.eigh(rho)
    dr = v.conj().T @ drho @ v
    denom = p[:, None] + p[None, :]
    on_support = denom > support_tol
    l_eig = np.zeros_like(dr)
    l_eig[on_support] = 2 * dr[on_support] / denom[on_support]
    l_mat = v @ l_eig @ v.conj().T
    return (l_mat + l_mat.conj().T) / 2


def qfim_from_slds(rho, slds) -> np.ndarray:
    """QFIM from SLD operators: ``Q_jk = Re Tr(rho L_j L_k)``."""
    rho = np.asarray(rho, dtype=complex)
    slds = [np.asarray(l, dtype=complex) for l in slds]
    d = len(slds)
    q = np.empty((d, d))
    for j in range(d):
        for k in range(j, d):
            q[j, k] = q[k, j] = np.trace(rho @ slds[j] @ slds[k]).real
    return q


def uhlmann_from_slds(rho, slds) -> np.ndarray:
    """Uhlmann matrix from SLDs: ``D_jk = Im Tr(rho L_j L_k)``."""
    rho = np.asarray(rho, dtype=complex)
    slds = [np.asarray(l, dtype=complex) for l in slds]
    d = len(slds)
    mat = np.zeros((d, d))
    for j in range(d):
        for k in range(j + 1, d):
            val = np.trace(rho @ slds[j] @ slds[k]).imag
            mat[j, k] = val
            mat[k, j] = -val
    return mat


def born_probabilities(rho, povm) -> np.ndarray:
    """Outcome probabilities ``p_i = Tr(rho Pi_i)`` for a POVM.

    The POVM must resolve the identity to 1e-10; tiny negative
    probabilities from rounding are clipped at -1e-12.
    """
    rho = np.asarray(rho, dtype=complex)
    povm = [np.asarray(e, dtype=complex) for e in povm]
    total = sum(povm)
    if np.abs(total - np.eye(rho.shape[0])).max() > 1e-10:
        raise InvalidInput("POVM does not sum to the identity")
    probs = np.array([np.trace(rho @ e).real for e in povm])
    if probs.min(initial=0.0) < -1e-12:
        raise NumericalFailure(f"negative Born probability {probs.min():.3e}")
    if abs(probs.sum() - 1.0) > 1e-10:
        raise NumericalFailure(f"Born probabilities sum to {probs.sum()!r}")
    return np.clip(probs, 0.0, None)


def classical_fim(probs, grads) -> np.ndarray:
    """Classical Fisher information matrix of a finite distribution, over leading axes.

    ``probs (..., n)`` and ``grads (..., d, n)``, with ``grads[..., j, i] =
    d p_i / d lambda_j``, give ``F (..., d, d)``.  Each distribution must be
    nonnegative and sum to 1, and its gradient rows must sum to zero
    (probability is conserved); outcomes with ``p_i < 1e-14`` contribute
    nothing.
    """
    probs = np.atleast_1d(np.asarray(probs, dtype=float))
    grads = np.atleast_2d(np.asarray(grads, dtype=float))
    if grads.shape[:-2] != probs.shape[:-1] or grads.shape[-1] != probs.shape[-1]:
        raise InvalidInput(
            f"gradient stack of shape {grads.shape} does not match probabilities {probs.shape}"
        )
    normalized = (probs >= -1e-12).all(axis=-1) & (abs(probs.sum(axis=-1) - 1.0) <= 1e-10)
    if not normalized.all():
        raise InvalidInput("probabilities must be nonnegative and sum to 1")
    row_sums = np.abs(grads.sum(axis=-1)).max(axis=-1, initial=0.0)
    scale = np.maximum(np.abs(grads).max(axis=(-2, -1), initial=0.0), 1.0)
    if not (row_sums <= 1e-10 * scale).all():
        raise InvalidInput(
            "gradient rows must sum to zero (probability normalization broken)"
        )
    keep = (probs >= 1e-14)[..., None, :]
    weighted = np.divide(grads, probs[..., None, :], out=np.zeros_like(grads), where=keep)
    f = weighted @ np.swapaxes(grads, -1, -2)
    return (f + np.swapaxes(f, -1, -2)) / 2


def incompat_operator(q, d) -> np.ndarray:
    """Hermitian ``1j L^-1 D L^-T`` with ``Q = L L^T``, over leading axes.

    It is similar to ``1j Q^-1 D``, so the two share their spectrum, but
    being Hermitian its spectrum is real by construction even where Q is
    ill-conditioned.  Q must be positive definite and D real antisymmetric.
    """
    try:
        chol_inv = np.linalg.inv(np.linalg.cholesky(q))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("QFIM is not numerically positive definite") from exc
    m = chol_inv @ d @ np.swapaxes(chol_inv, -1, -2)
    return 1j * (m - np.swapaxes(m, -1, -2)) / 2


def ai_measure(q, d, rel_tol: float = 1e-10) -> float | None:
    """Asymptotic incompatibility: largest eigenvalue magnitude of ``1j Q^-1 D``.

    Evaluated on the Hermitian :func:`incompat_operator`, the same form the
    grid scan uses.  Returns ``None`` when Q is singular at ``rel_tol``;
    otherwise a number in [0, 1] up to rounding.  A D that is not real
    antisymmetric (the rule of :func:`~spinmetro.linalg.require_symmetric`)
    raises :class:`InvalidInput`.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d)
    if np.iscomplexobj(d) and np.any(d.imag):
        raise InvalidInput("Uhlmann matrix must be real")
    d = np.asarray(d.real, dtype=float)
    if q.shape != d.shape:
        raise InvalidInput(f"shape mismatch: Q {q.shape} vs D {d.shape}")
    require_symmetric(d, sign=-1, name="Uhlmann matrix")
    if sym_inverse(q, rel_tol=rel_tol) is None:
        return None
    return spectral_absmax(incompat_operator(q, d))


def holevo_pure(q, d, rel_tol: float = 1e-10):
    """Scalar SLD cost, pure-model Holevo bound and their normalized gap.

    Returns ``(c_sld, c_h, delta)`` or ``None`` for singular Q, where
    ``c_sld = tr Q^-1`` and ``c_h = c_sld + ||Q^-1 D Q^-1||_1``.  A D that
    is not antisymmetric (the rule of
    :func:`~spinmetro.linalg.require_symmetric`) raises :class:`InvalidInput`.
    """
    q = np.asarray(q, dtype=float)
    d = require_symmetric(np.asarray(d, dtype=float), sign=-1, name="Uhlmann matrix")
    q_inv = sym_inverse(q, rel_tol=rel_tol)
    if q_inv is None:
        return None
    c_sld = float(np.trace(q_inv))
    gap = trace_norm(q_inv @ d @ q_inv)
    c_h = c_sld + gap
    return c_sld, c_h, gap / c_sld


def bounds(q, d, rel_tol: float = 1e-10):
    """Singular flags, R, SLD cost, Holevo bound, their gap and det Q, over leading axes.

    ``q`` and ``d`` have shape (..., dim, dim).  Returns
    ``(singular, r_ai, c_sld, c_h, delta, det_q)``, each of the leading
    shape, with NaN bound values on singular matrices (the rule of
    :func:`~spinmetro.linalg.singular_mask`); NaN marks a singular matrix
    and nothing else, so a Q or D that is not finite raises
    :class:`NumericalFailure`.  A Q that is not symmetric or a D that is
    not antisymmetric (the rule of :func:`~spinmetro.linalg.require_symmetric`)
    raises :class:`InvalidInput`.  All comes from one ``eigh``, ``Q = V diag(lam) V^T``:
    the singular rule, ``det_q = prod max(lam, 0) >= 0``, ``c_sld = tr Q^-1``
    (``Q^-1`` held to :func:`~spinmetro.linalg.check_inverse`), and with
    ``D' = V^T D V`` and ``S_ij = sqrt(lam_i lam_j)``, ``R`` the largest
    ``|eigvalsh|`` of the Hermitian ``1j D' / S`` and the gap ``||Q^-1 D Q^-1||_1``
    the sum of those of ``1j D' / S^2``.  :func:`ai_measure` and
    :func:`holevo_pure`, which multiply by inverses, are the scalar references.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    if q.ndim < 2 or q.shape != d.shape or q.shape[-1] != q.shape[-2]:
        raise InvalidInput(f"Q and D must be square stacks of one shape, got {q.shape}, {d.shape}")
    if not (np.isfinite(q).all() and np.isfinite(d).all()):
        raise NumericalFailure("QFIM or Uhlmann matrix is not finite")
    require_symmetric(q, name="QFIM")
    require_symmetric(d, sign=-1, name="Uhlmann matrix")
    lead, dim = q.shape[:-2], q.shape[-1]
    q, d = q.reshape(-1, dim, dim), d.reshape(-1, dim, dim)
    evals, vecs = np.linalg.eigh(q)
    singular = singular_mask(evals, rel_tol)
    det_q = np.maximum(evals, 0.0).prod(axis=-1)
    r_ai, c_sld, c_h, delta = np.full((4, singular.size), np.nan)
    regular = ~singular
    if regular.any():
        lam, vecs, q, d = evals[regular], vecs[regular], q[regular], d[regular]
        vecs_t = np.swapaxes(vecs, -1, -2)
        q_inv = (vecs / lam[:, None, :]) @ vecs_t
        q_inv = (q_inv + np.swapaxes(q_inv, -1, -2)) / 2
        check_inverse(q, q_inv, lam[:, -1] / lam[:, 0])
        d = vecs_t @ d @ vecs
        h = 0.5j * (d - np.swapaxes(d, -1, -2))  # else D''s diagonal residue / lam^2 dominates
        s = np.sqrt(lam)[:, :, None] * np.sqrt(lam)[:, None, :]  # sqrt each: lam^2 may overflow
        h /= s
        r_ai[regular] = np.abs(np.linalg.eigvalsh(h)).max(axis=-1)
        h /= s
        gap = np.abs(np.linalg.eigvalsh(h)).sum(axis=-1)
        cost = np.trace(q_inv, axis1=-2, axis2=-1)
        c_sld[regular] = cost
        c_h[regular] = cost + gap
        delta[regular] = gap / cost
    return tuple(x.reshape(lead) for x in (singular, r_ai, c_sld, c_h, delta, det_q))


def submodel(q, d, subset):
    """Restrict (Q, D) to a sub-model: principal blocks on ``subset``.

    ``subset`` must be a nonempty proper subset of the parameter indices.
    """
    q = np.asarray(q, dtype=float)
    d = np.asarray(d, dtype=float)
    n = q.shape[0]
    idx = sorted(set(int(i) for i in subset))
    if not idx or len(idx) >= n:
        raise InvalidInput(f"subset must be nonempty and proper, got {subset!r}")
    if idx[0] < 0 or idx[-1] >= n:
        raise InvalidInput(f"subset indices out of range for {n} parameters")
    ix = np.ix_(idx, idx)
    return q[ix], d[ix]


@dataclass(frozen=True)
class IncompatReport:
    """Precision and incompatibility summary at one (model, probe, point).

    On singular points only ``qfim``, ``uhlmann``, ``det_q`` and the flag
    are meaningful; the bound fields are ``None``.
    """

    labels: tuple[str, ...]
    qfim: np.ndarray
    uhlmann: np.ndarray
    det_q: float
    singular: bool
    c_sld: float | None = None
    c_h: float | None = None
    delta: float | None = None
    r_ai: float | None = None


def incompat_report(gens: GeneratorSet, probe, rel_tol: float = 1e-10) -> IncompatReport:
    """Evaluate the full report for one generator set and probe."""
    q, d = qfim_uhlmann(gens, probe)
    singular, *values, det_q = bounds(q, d, rel_tol=rel_tol)
    r_ai, c_sld, c_h, delta = (None if singular else float(v) for v in values)
    return IncompatReport(
        labels=gens.labels,
        qfim=q,
        uhlmann=d,
        det_q=float(det_q),
        singular=bool(singular),
        c_sld=c_sld,
        c_h=c_h,
        delta=delta,
        r_ai=r_ai,
    )
