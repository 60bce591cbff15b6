"""Shared helpers for the spinmetro test suite."""

import functools

import numpy as np
import pytest

from spinmetro import ModelKind, ModelPoint, build_spin_rep, expm_i, hamiltonian


@functools.lru_cache(maxsize=None)
def rep(n):
    return build_spin_rep(n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def haar_state(rng, n):
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return z / np.linalg.norm(z)


def random_hermitian(rng, n, scale=1.0):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * (z + z.conj().T) / 2


def ai_two_param(q, d):
    """Two-parameter incompatibility ``sqrt(det D / det Q)``, or ``None``
    when ``det Q <= 0``: an oracle for R that needs no eigensolver."""
    det_q = float(np.linalg.det(q))
    if det_q <= 0:
        return None
    return float(np.sqrt(max(float(np.linalg.det(d)), 0.0) / det_q))


def fim_rank_loop(config):
    """The rank experiment one trial at a time, with the FIM summed over the
    outcomes with ``p >= 1e-14``: an oracle for the stacked
    :func:`~spinmetro.analysis.fim_rank_experiment`."""
    d, n = config.n_params, config.n_outcomes
    lam = config.lam_point()
    rank_bound = min(d, n - 1)
    max_rank = violations = full_rank = 0
    max_resid = max_det_norm = 0.0
    for trial in range(config.trials):
        rng = np.random.default_rng((config.seed, d, n, trial))
        a = rng.standard_normal(n)
        b = rng.standard_normal((n, d))
        z = a + b @ lam
        p = np.exp(z - z.max())
        p /= p.sum()
        grads = p[None, :] * (b.T - (p @ b)[:, None])
        keep = p >= 1e-14
        f = (grads[:, keep] / p[keep]) @ grads[:, keep].T
        f = (f + f.T) / 2
        eta = grads[:, :-1] / p[:-1] + (grads[:, :-1].sum(axis=1) / p[-1])[:, None]
        f_decomp = eta @ grads[:, :-1].T
        scale = max(np.linalg.norm(f), 1e-300)
        max_resid = max(max_resid, float(np.linalg.norm(f - f_decomp) / scale))
        svals = np.linalg.svd(f, compute_uv=False)
        rank = int((svals > 1e-10 * max(svals[0], 1e-300)).sum())
        max_rank = max(max_rank, rank)
        violations += rank > rank_bound
        full_rank += rank == d
        max_det_norm = max(max_det_norm, float(abs(np.linalg.det(f)) / np.linalg.norm(f) ** d))
    return {
        "n_params": d,
        "n_outcomes": n,
        "trials": config.trials,
        "seed": config.seed,
        "lam": [float(v) for v in lam],
        "rank_bound": rank_bound,
        "max_rank": max_rank,
        "rank_violations": int(violations),
        "full_rank_fraction": full_rank / config.trials,
        "max_decomposition_residual": max_resid,
        "max_normalized_det": max_det_norm,
    }


def evolved_family(spin, kind, point, probe):
    """Map parameter values to the evolved pure state of the model."""

    def family(values):
        pt = point.replace_values(values)
        return expm_i(hamiltonian(spin, kind, pt), pt.t) @ probe

    return family


def two_param_points():
    """A small sample of regular two-parameter points, t = 5."""
    return [
        ModelPoint(b=0.9, theta=0.7, t=5.0),
        ModelPoint(b=0.45, theta=1.9, t=5.0),
        ModelPoint(b=1.1, theta=2.6, t=5.0),
    ]


def three_param_points():
    return [
        ModelPoint(b=0.9, theta=0.7, t=5.0, phi=1.1),
        ModelPoint(b=0.45, theta=2.2, t=5.0, phi=4.4),
        ModelPoint(b=1.1, theta=0.3, t=5.0, phi=2.8),
    ]


def points_for(kind):
    return two_param_points() if kind is ModelKind.TWO_PARAM else three_param_points()
