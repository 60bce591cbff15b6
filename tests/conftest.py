"""Shared helpers for the spinmetro test suite."""

import functools
import importlib.util
import math
import threading
from pathlib import Path

import numpy as np
import pytest

from spinmetro import analysis, encoding
from spinmetro import (
    ModelPoint,
    ProbeSpec,
    closed_frame,
    frame_qfim_uhlmann,
    sym_inverse,
)
from spinmetro.encoding import hamiltonian
from spinmetro.linalg import build_spin_rep, expm_i
from spinmetro.models import make_probe

from oracles import dense_spin_moments


WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@functools.cache
def workload_ops() -> tuple:
    """Every op of the benchmark's workloads (``perfbench/workloads.py``,
    imported and left as it is) at seeds 1 and 2, as ``(name, argv)`` with
    ``name`` ``<workload>/<seed>/<output file>``: 554 argvs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return tuple((f"{workload}/{seed}/{Path(argv[-1]).name}", argv)
                 for workload in sorted(workloads.WORKLOADS)
                 for seed in (1, 2)
                 for argv in workloads.build_ops(workload, seed))


def force_scan_threads(monkeypatch, threads):
    """Make every :func:`~spinmetro.analysis.run_scan` compute its blocks
    on ``threads`` threads, each of which takes a block and waits at a
    barrier until every other one holds a block too, so each computes at
    least one.  Return a list that gets, for each scan, the list of the
    threads of its blocks, one entry a block, in the order they start.  A
    second call replaces the patches of the first."""
    frame, threads_used, scan = encoding.closed_frame, [], {}

    def scan_threads():
        scan["barrier"] = threading.Barrier(threads, timeout=60)
        threads_used.append([])
        return threads

    def closed_frame_(*args, **kwargs):
        ident = threading.get_ident()
        first = ident not in threads_used[-1]
        threads_used[-1].append(ident)
        if first:
            scan["barrier"].wait()
        return frame(*args, **kwargs)

    monkeypatch.setattr(analysis, "_scan_threads", scan_threads)
    monkeypatch.setattr(analysis, "closed_frame", closed_frame_)
    return threads_used


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
    """The rank experiment one trial at a time, each drawing its offsets and
    then its slopes from one generator for the whole run, with the FIM and
    its decomposition summed over the outcomes with ``p >= 1e-14`` and a
    trial whose FIM vanishes, or that keeps a single outcome, left out of
    both maxima: an oracle for the stacked
    :func:`~spinmetro.analysis.fim_rank_experiment`."""
    d, n = config.n_params, config.n_outcomes
    rank_bound = min(d, n - 1)
    max_rank = violations = full_rank = 0
    max_resid = max_det_norm = 0.0
    rng = np.random.default_rng((config.seed, d, n))
    for _ in range(config.trials):
        a = rng.standard_normal(n)
        b = rng.standard_normal((n, d))
        p = np.exp(a - a.max())
        p /= p.sum()
        grads = p[None, :] * (b.T - (p @ b)[:, None])
        keep = p >= 1e-14
        f = (grads[:, keep] / p[keep]) @ grads[:, keep].T
        f = (f + f.T) / 2
        eta = np.zeros((d, n - 1))
        eta[:, keep[:-1]] = grads[:, :-1][:, keep[:-1]] / p[:-1][keep[:-1]]
        if keep[-1]:
            eta += (grads[:, :-1].sum(axis=1) / p[-1])[:, None]
        f_decomp = eta @ grads[:, :-1].T
        svals = np.linalg.svd(f, compute_uv=False)
        rank = int((svals > 1e-10 * max(svals[0], 1e-300)).sum())
        max_rank = max(max_rank, rank)
        violations += rank > rank_bound
        full_rank += rank == d
        scale = np.linalg.norm(f)
        if np.count_nonzero(keep) > 1 and scale**d > 0:
            max_resid = max(max_resid, float(np.linalg.norm(f - f_decomp) / scale))
            max_det_norm = max(max_det_norm, float(abs(np.linalg.det(f)) / scale**d))
    return {
        "n_params": d,
        "n_outcomes": n,
        "trials": config.trials,
        "seed": config.seed,
        "rank_bound": rank_bound,
        "max_rank": max_rank,
        "rank_violations": int(violations),
        "full_rank_fraction": full_rank / config.trials,
        "max_decomposition_residual": max_resid,
        "max_normalized_det": max_det_norm,
    }


def scaling_table_loop(alphas, dims, point, probe_phi=0.0, rel_tol=1e-10):
    """Gammas and slopes with one frame-kernel call per (alpha, N), baseline
    first, and each alpha's slope fitted alone by the centered formula
    ``sum(dx dy) / sum(dx^2)`` of the logs: an oracle for the stacked
    :func:`~spinmetro.analysis.scaling_table`.  Returns ``(gamma, slope)``
    arrays shaped as in its result, NaN for an alpha whose baseline is
    singular."""
    baseline_dim = 2 if point.phi is None else 4
    frame = closed_frame(point.b, point.theta, point.t, point.phi)

    def qfim(n, alpha):
        probe = make_probe(ProbeSpec(dim=n, alpha=alpha, phi=probe_phi))
        return frame_qfim_uhlmann(frame, *dense_spin_moments(probe))[0]

    gamma = np.full((len(alphas), len(dims)), np.nan)
    slope = np.full(len(alphas), np.nan)
    for k, alpha in enumerate(alphas):
        base_inv = sym_inverse(qfim(baseline_dim, alpha), rel_tol=rel_tol)
        if base_inv is None:
            continue
        gamma[k] = [float(np.trace(qfim(n, alpha) @ base_inv)) for n in dims]
        x = np.array(dims, dtype=float)
        lx = np.log(x - 1.0 if point.phi is None else x)
        ly = np.log(gamma[k])
        dx, dy = lx - np.add.reduce(lx) / len(dims), ly - np.add.reduce(ly) / len(dims)
        slope[k] = float(np.add.reduce(dx * dy) / np.add.reduce(dx * dx))
    return gamma, slope


def csv_text_loop(header, columns):
    """CSV text one field at a time, floats with ``f"{x:.17g}"`` and NaN
    empty, a boolean column as 1/0, every axis value written out on every
    row: an oracle for the grid writer :func:`~spinmetro.analysis._write_csv`."""
    fields = []
    for column in columns:
        column = np.asarray(column)
        if column.dtype == bool:
            fields.append(["1" if x else "0" for x in column.tolist()])
        else:
            fields.append(["" if math.isnan(x) else f"{x:.17g}" for x in column.tolist()])
    lines = [",".join(header), *map(",".join, zip(*fields))]
    return "\n".join(lines) + "\n"


def directions_2p_reference(b, theta, t):
    """Rows ``n_theta, n_theta_prime, n1, n2`` of the two-parameter model,
    broadcast over ``b`` and ``theta``, in the model's own planar form, with
    ``n2 = n_theta x n1``: an independent reference for the library, which
    takes ``n_theta``, ``n1`` and ``-n2`` from the three-parameter frame at
    ``phi = 0`` and computes no ``n_theta_prime``."""
    b, theta = np.broadcast_arrays(np.asarray(b, dtype=float), np.asarray(theta, dtype=float))
    half = b * (t / 2)
    ch, sh, ct, st = np.cos(half), np.sin(half), np.cos(theta), np.sin(theta)
    zero = np.zeros_like(b)
    rows = [(ct, zero, st), (-st, zero, ct), (ch * st, -sh, -ch * ct), (sh * st, ch, -sh * ct)]
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def point_at(point, values):
    """``point`` with its parameters set to ``values`` in the fixed ordering."""
    return ModelPoint(*values[:2], t=point.t, phi=values[2] if len(values) == 3 else None)


def evolved_family(spin, point, probe):
    """Map parameter values to the evolved pure state of the point's model."""

    def family(values):
        return expm_i(hamiltonian(spin, point_at(point, values)), point.t) @ probe

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


# The two models by the names of the command line's --model.  A point
# carries its model (a two-parameter point has no phi); a test that runs on
# both takes its points from points_for.  The ids are the ones these
# parametrized tests have always been listed under.
MODELS = [pytest.param("two", id="ModelKind.TWO_PARAM"),
          pytest.param("three", id="ModelKind.THREE_PARAM")]


def points_for(model):
    return two_param_points() if model == "two" else three_param_points()
