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
    SINGULAR_TOL,
    antisym_tridiagonal,
    check_probe,
    eigh_inverse,
    require_broadcast,
    require_floats,
    require_symmetric,
    spectral_absmax,
    sym_inverse,
    trace_norm,
)

__all__ = ["frame_qfim_uhlmann", "classical_fim", "bounds"]


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
    :func:`~spinmetro.models.extreme_moments`, whose leading axes broadcast
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
    # a contiguous A^T: numpy's stacked @ on a transposed view is slower
    q = 4 * frame @ cov @ np.ascontiguousarray(frame.swapaxes(-1, -2))
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
    shape (..., d, d).  Scans and scaling tables use
    :func:`frame_qfim_uhlmann`; this dense form is its test oracle.  A
    stack of fewer than three axes, a generator that is not Hermitian (the
    rule of :func:`~spinmetro.linalg.require_symmetric`), a probe that is
    not a unit vector of dimension N (the rule of
    :func:`~spinmetro.linalg.check_probe`) or leading axes that do not
    broadcast (that of :func:`~spinmetro.linalg.require_broadcast`) raise
    :class:`InvalidInput`.
    """
    gen_stack = require_symmetric(gen_stack, name="generator")
    if gen_stack.ndim < 3:
        raise InvalidInput(f"generator stack must have shape (..., d, N, N), got {gen_stack.shape}")
    probes = check_probe(probes, gen_stack.shape[-1], stack=True)
    require_broadcast("the leading axes of the generator stack and the probes",
                      gen_stack[..., 0, 0, 0], probes[..., 0])
    v = np.einsum("...lij,...j->...li", gen_stack, probes)
    means = np.einsum("...i,...li->...l", probes.conj(), v).real
    second = np.einsum("...li,...mi->...lm", v.conj(), v)
    q = 4 * (second.real - means[..., :, None] * means[..., None, :])
    d = 4 * second.imag
    return q, d


def classical_fim(probs, grads) -> np.ndarray:
    """Classical Fisher information matrix of a finite distribution, over leading axes.

    ``probs (..., n)`` and ``grads (..., d, n)``, with ``grads[..., j, i] =
    d p_i / d lambda_j``, give ``F (..., d, d)``.  Both are finite arrays of
    real numbers (the rule of :func:`~spinmetro.linalg.require_floats`).
    Each distribution must be nonnegative and sum to 1, and its gradient
    rows must sum to zero (probability is conserved), else
    :class:`InvalidInput`; outcomes with ``p_i < 1e-14`` contribute nothing.
    """
    probs = np.atleast_1d(require_floats(probs, "probabilities"))
    grads = np.atleast_2d(require_floats(grads, "probability gradients"))
    if grads.shape[:-2] != probs.shape[:-1] or grads.shape[-1] != probs.shape[-1]:
        raise InvalidInput(
            f"gradient stack of shape {grads.shape} does not match probabilities {probs.shape}"
        )
    if not (np.isfinite(probs).all() and np.isfinite(grads).all()):
        raise InvalidInput("probabilities and their gradients must be finite")
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


def _checked_pair(q, d, invert):
    """``(Q, D, invert(Q))``, with Q and D held to the one input rule of
    :func:`bounds`, :func:`ai_measure` and :func:`holevo_pure`.

    Q and D are arrays of real numbers (the rule of
    :func:`~spinmetro.linalg.require_floats`) of one shape.  D must be
    antisymmetric and Q symmetric (the matrix rule,
    :func:`~spinmetro.linalg.require_symmetric`, which ``invert`` applies
    to Q), D checked first: those faults raise :class:`InvalidInput`.  The
    matrix rule calls a NaN or an infinity invalid input; here it is a
    :class:`NumericalFailure`, whichever matrix the rule rejected first, as
    NaN bound values mean "singular" and nothing else.
    """
    q, d = require_floats(q, "QFIM"), require_floats(d, "Uhlmann matrix")
    if q.shape != d.shape:
        raise InvalidInput(f"Q and D must be square stacks of one shape, got {q.shape}, {d.shape}")
    try:
        require_symmetric(d, sign=-1, name="Uhlmann matrix")
        return q, d, invert(q)
    except InvalidInput:
        if np.isfinite(q).all() and np.isfinite(d).all():
            raise
        raise NumericalFailure("QFIM or Uhlmann matrix is not finite") from None


def ai_measure(q, d, rel_tol: float = SINGULAR_TOL) -> float | None:
    """Asymptotic incompatibility: largest eigenvalue magnitude of ``1j Q^-1 D``.

    Evaluated on the Hermitian :func:`incompat_operator`, the same form the
    grid scan uses.  Returns ``None`` when Q is singular at ``rel_tol``;
    otherwise a number in [0, 1] up to rounding.  Q and D are one matrix
    each, held to the input rule of :func:`bounds` (:func:`_checked_pair`).
    """
    q, d, q_inv = _checked_pair(q, d, lambda q: sym_inverse(q, rel_tol=rel_tol))
    if q_inv is None:
        return None
    return spectral_absmax(incompat_operator(q, d))


def holevo_pure(q, d, rel_tol: float = SINGULAR_TOL):
    """Scalar SLD cost, Holevo's function at the SLD choice and their normalized gap.

    Returns ``(c_sld, c_h, delta)`` or ``None`` for singular Q, where
    ``c_sld = tr Q^-1`` and ``c_h = c_sld + ||Q^-1 D Q^-1||_1``, the upper
    bound on the Holevo bound that :func:`bounds` gives.  Q and D
    are one matrix each, held to the input rule of :func:`bounds`
    (:func:`_checked_pair`).  A regular Q whose values are not finite
    raises :class:`NumericalFailure`, as in :func:`bounds`.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _, d, q_inv = _checked_pair(q, d, lambda q: sym_inverse(q, rel_tol=rel_tol))
        if q_inv is None:
            return None
        x = q_inv @ d @ q_inv
        if not np.isfinite(x).all():
            raise NumericalFailure("Q^-1 D Q^-1 is not finite")
        c_sld = float(np.trace(q_inv))
        gap = trace_norm(x)
        values = c_sld, c_sld + gap, gap / c_sld
    if not np.isfinite(values).all():
        raise NumericalFailure("Holevo bound is not finite on a regular QFIM")
    return values


def bounds(q, d, rel_tol: float = SINGULAR_TOL):
    """Singular flags, R, SLD cost, c_h, their gap and det Q, over leading axes.

    ``q`` and ``d`` have shape (..., dim, dim).  Returns
    ``(singular, r_ai, c_sld, c_h, delta, det_q)``, each of the leading
    shape.  ``c_h = c_sld + ||Q^-1 D Q^-1||_1`` is Holevo's function at the
    SLD choice: an upper bound on the Holevo bound C_H, tight for
    D-invariant models such as the two-parameter qubit, with
    ``C_S <= C_H <= c_h <= (1 + R) C_S``, and ``delta`` is its normalized
    gap ``(c_h - c_sld) / c_sld``.  Bound values are NaN on singular
    matrices (the rule of :func:`~spinmetro.linalg.singular_mask`); NaN
    marks a singular matrix and nothing else, so a Q or D that is not finite raises
    :class:`NumericalFailure`.  A Q that is not symmetric or a D that is
    not antisymmetric raises :class:`InvalidInput` (the rule of
    :func:`_checked_pair`).  All comes from the one ``eigh`` of
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
    are the scalar references.  A regular matrix whose bound is not finite,
    as a finite but extreme (Q, D) can give, raises
    :class:`NumericalFailure` whatever numpy's error state, and so does a
    ``det_q`` that is not finite, on a regular or a singular matrix.
    """
    # A finite but extreme (Q, D) may overflow anywhere below; the regular
    # matrices' bounds are checked once at the end instead, so no numpy
    # warning or error state decides what a caller sees
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        q, d, (evals, singular, regular, vecs, q_inv) = _checked_pair(
            q, d, lambda q: eigh_inverse(q, rel_tol, name="QFIM"))
        lead, dim = q.shape[:-2], q.shape[-1]
        d = d.reshape(-1, dim, dim)
        r_ai, c_sld, c_h, delta = values = np.full((4, singular.size), np.nan)
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
        k = antisym_tridiagonal(k)
        # eigvalsh returns silently on NaN or infinite input
        if not np.isfinite(k).all():
            raise NumericalFailure("incompatibility operator is not finite on a regular QFIM")
        spectra = np.abs(np.linalg.eigvalsh(k))
        r_ai[regular] = np.maximum.reduce(spectra[0], axis=-1)
        gap = np.add.reduce(spectra[1], axis=-1)
        c_h[regular] = cost + gap
        delta[regular] = gap / cost
        det_q = np.multiply.reduce(np.maximum(evals, 0.0), axis=-1)
    # every bound of a regular matrix is finite, and of a singular one NaN
    if np.count_nonzero(np.isfinite(values)) != values.shape[0] * regular.size:
        raise NumericalFailure("a bound is not finite on a regular QFIM")
    if not np.isfinite(det_q).all():
        raise NumericalFailure("det Q is not finite")
    return tuple(x.reshape(lead) for x in (singular, r_ai, c_sld, c_h, delta, det_q))


def _report_fields(q, d, rel_tol: float) -> dict:
    """The fields every single-point report shares, from one (Q, D).

    ``Q`` and ``D`` as nested lists, ``det_q``, the ``singular`` flag, and
    ``c_sld``, ``c_h`` (an upper bound on the Holevo bound), ``delta`` and
    ``r_ai`` from :func:`bounds`, which are ``None`` on a singular point.
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


def incompat_report(gens: GeneratorSet, probe, rel_tol: float = SINGULAR_TOL) -> dict:
    """The report fields of :func:`bounds` for one generator set and probe,
    plus its ``labels``, by the dense route :func:`qfim_uhlmann`.

    The dict holds the keys of ``spinmetro metrics``'s report that depend on
    (Q, D) alone; singular points get ``None`` bound values.
    """
    q, d = qfim_uhlmann(gens, probe)
    return {"labels": list(gens.labels), **_report_fields(q, d, rel_tol)}
