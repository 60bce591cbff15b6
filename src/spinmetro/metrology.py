"""Estimation-theory core: QFIM, Uhlmann curvature, classical FIM, bounds.

The routines consume generator sets, pure probes, outcome distributions or
(Q, D) and know nothing about su(2), except :func:`frame_qfim_uhlmann`, which takes generators
that are spin components ``a_l . J`` as their (d, 3) frame and the probe's
spin mean and covariance; scans, scaling tables and reports use it, and
:func:`incompat_report` is the dense route for any generator set.
Every single-point report, :func:`incompat_report` and
:func:`~spinmetro.analysis.metrics_report`, takes its (Q, D) fields from
one helper, which turns a singular point's bounds into ``None`` once.
:func:`bounds` takes every bound and ``det Q`` from one ``eigh`` of Q, in
its eigenbasis, with no ``Q^-1 D Q^-1`` and no negative ``det Q``, and both
incompatibility spectra from one real ``eigvalsh`` of tridiagonal forms.
Near-singular quantum Fisher matrices are never pseudo-inverted: every
quantity that needs an inverse is NaN (``None`` in a report and from the
scalar references) instead, so callers can mask those points.  The misleading regime is exactly
where ``det Q -> 0``, and a silently regularized inverse would hide it.
"""

from __future__ import annotations

import numpy as np

from .encoding import GeneratorSet
from .errors import InvalidInput, NumericalFailure
from .linalg import (
    antisym_tridiagonal,
    check_probe,
    eigh_inverse,
    require_broadcast,
    require_floats,
    require_hermitian,
    require_symmetric,
    spectral_absmax,
    sym_inverse,
    trace_norm,
)

__all__ = [
    "qfim_uhlmann",
    "frame_qfim_uhlmann",
    "batched_qfim_uhlmann",
    "classical_fim",
    "incompat_operator",
    "ai_measure",
    "holevo_pure",
    "bounds",
    "incompat_report",
]


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
    against the frame's (the rule of
    :func:`~spinmetro.linalg.require_broadcast`).  Then
    ``Q = 4 A Cov A^T`` and, because ``[J_k, J_m] = 1j eps_kmn J_n``,
    ``D_lm = 2 <J> . (a_l x a_m)``.  The cost per frame and probe is
    independent of the dimension N.  Q is symmetric and D exactly
    antisymmetric by construction.  Returns ``(Q, D)`` of shape
    (..., d, d) over the broadcast leading axes.
    """
    frame = require_floats(frame, "frame")
    if frame.ndim < 2 or frame.shape[-1] != 3:
        raise InvalidInput(f"frame must have shape (..., d, 3), got {frame.shape}")
    mean, cov = require_floats(mean, "spin mean"), require_floats(cov, "spin covariance")
    if mean.shape[-1:] != (3,) or cov.shape != mean.shape + (3,):
        raise InvalidInput(
            f"spin moments must have shapes (..., 3), (..., 3, 3), got {mean.shape}, {cov.shape}"
        )
    require_broadcast("the leading axes of the frame and the spin moments",
                      frame[..., 0, 0], mean[..., 0])
    q = 4 * frame @ cov @ frame.swapaxes(-1, -2)
    q = (q + q.swapaxes(-1, -2)) / 2
    # a_l x a_m by components, each the difference of two products as in
    # np.cross, then its dot product with <J> summed as numpy sums a last
    # axis: from +0.0, so that a sum of -0.0 terms is +0.0
    ax, ay, az = (frame[..., :, None, k] for k in range(3))
    bx, by, bz = (frame[..., None, :, k] for k in range(3))
    mx, my, mz = (mean[..., k, None, None] for k in range(3))
    d = 0.0 + (ay * bz - az * by) * mx + (az * bx - ax * bz) * my + (ax * by - ay * bx) * mz
    return q, 2 * d


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
    raises :class:`InvalidInput`.  All comes from the one ``eigh`` of
    :func:`~spinmetro.linalg.eigh_inverse`, ``Q = V diag(lam) V^T``: the
    singular rule, ``det_q = prod max(lam, 0) >= 0``, ``c_sld = tr Q^-1``, and with
    ``D' = V^T D V``, ``S_ij = sqrt(lam_i lam_j)`` and the real antisymmetric
    ``K = D' / S``, ``R`` the largest ``|eigvalsh|`` of the Hermitian ``1j K``
    and the gap ``||Q^-1 D Q^-1||_1`` the sum of those of ``1j K / S``.
    :func:`~spinmetro.linalg.antisym_tridiagonal` takes both to real
    symmetric tridiagonal matrices with those spectra, in one real
    ``(2, G, dim, dim)`` buffer over the G regular matrices, at the
    positions and with the eigenvectors and inverses that
    :func:`~spinmetro.linalg.eigh_inverse` gathered, so one real
    ``eigvalsh`` gives both spectra and no complex array reaches LAPACK.
    :func:`ai_measure` and :func:`holevo_pure`, which multiply by inverses,
    are the scalar references.
    """
    q, d = require_floats(q, "QFIM"), require_floats(d, "Uhlmann matrix")
    if q.ndim < 2 or q.shape != d.shape or q.shape[-1] != q.shape[-2]:
        raise InvalidInput(f"Q and D must be square stacks of one shape, got {q.shape}, {d.shape}")
    lead, dim = q.shape[:-2], q.shape[-1]
    d = d.reshape(-1, dim, dim)
    try:
        # the symmetric rule checks each matrix once, finiteness first
        require_symmetric(d, sign=-1, name="Uhlmann matrix")
        evals, singular, regular, vecs, q_inv = eigh_inverse(q.reshape(-1, dim, dim),
                                                             rel_tol, name="QFIM")
    except InvalidInput:
        # that rule calls a NaN or an infinity invalid input; here it is a
        # numerical failure, whichever matrix the rule rejected first
        if np.isfinite(q).all() and np.isfinite(d).all():
            raise
        raise NumericalFailure("QFIM or Uhlmann matrix is not finite") from None
    det_q = np.multiply.reduce(np.maximum(evals, 0.0), axis=-1)
    r_ai, c_sld, c_h, delta = np.full((4, singular.size), np.nan)
    c_sld[regular] = cost = q_inv.trace(axis1=-2, axis2=-1)
    # Q^-1, V, D' and S are each dropped once used, so a scan peaks no
    # higher than with one matrix at a time
    del q_inv
    lam = evals.take(regular, axis=0)
    d = vecs.swapaxes(-1, -2) @ d.take(regular, axis=0) @ vecs
    del vecs
    s = np.sqrt(lam)[:, :, None]  # sqrt each: lam^2 may overflow
    s = s * s.swapaxes(-1, -2)
    # K = D' / S and K / S side by side, for one eigvalsh of both
    # spectra; D' enters by its antisymmetric part, else its diagonal
    # residue / lam^2 dominates
    k = np.empty((2,) + d.shape)
    np.subtract(d, d.swapaxes(-1, -2), out=k[0])
    del d
    k[0] *= 0.5
    k[0] /= s
    np.divide(k[0], s, out=k[1])
    del s
    spectra = np.abs(np.linalg.eigvalsh(antisym_tridiagonal(k)))
    r_ai[regular] = np.maximum.reduce(spectra[0], axis=-1)
    gap = np.add.reduce(spectra[1], axis=-1)
    c_h[regular] = cost + gap
    delta[regular] = gap / cost
    return tuple(x.reshape(lead) for x in (singular, r_ai, c_sld, c_h, delta, det_q))


def _report_fields(q, d, rel_tol: float) -> dict:
    """The fields every single-point report shares, from one (Q, D).

    ``Q`` and ``D`` as nested lists, ``det_q``, the ``singular`` flag, and
    ``c_sld``, ``c_h``, ``delta`` and ``r_ai`` from :func:`bounds`, which are
    ``None`` on a singular point.
    """
    singular, r_ai, c_sld, c_h, delta, det_q = bounds(q, d, rel_tol=rel_tol)
    values = {"c_sld": c_sld, "c_h": c_h, "delta": delta, "r_ai": r_ai}
    return {
        "Q": q.tolist(),
        "D": d.tolist(),
        "det_q": float(det_q),
        "singular": bool(singular),
        **{name: None if singular else float(v) for name, v in values.items()},
    }


def incompat_report(gens: GeneratorSet, probe, rel_tol: float = 1e-10) -> dict:
    """The report fields of :func:`bounds` for one generator set and probe,
    plus its ``labels``, by the dense route :func:`qfim_uhlmann`.

    The dict holds the keys of ``spinmetro metrics``'s report that depend on
    (Q, D) alone; singular points get ``None`` bound values.
    """
    q, d = qfim_uhlmann(gens, probe)
    return {"labels": list(gens.labels), **_report_fields(q, d, rel_tol)}
