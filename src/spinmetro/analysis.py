"""Experiment drivers: grid scans, scaling tables, rank experiments, reports.

Everything here is deterministic given its configuration.  Scans, scaling
tables and reports take (Q, D) from the probe's spin moments through the
N-independent frame kernel, with no N x N matrix; the dense generator route
matches it to rounding (the tests pin this).  Random experiments draw each
trial from its own counter-derived seed so results are independent of
evaluation order.  Both CSV outputs are grids, written by one grid writer
that formats each axis value once and the rest of a row with one format
string: '.' decimals, ',' delimiters, a header row and 17 significant
digits, so repeated runs are bytewise identical.  NaN is the
one missing-value marker, from :func:`~spinmetro.metrology.bounds` to the
file, where it is an empty field: a singular scan cell's R, Delta and T,
and the Gamma and slope of an alpha with a singular baseline.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .encoding import (
    GeneratorSet,
    ModelKind,
    ModelPoint,
    closed_frame,
    numeric_generators,
    series_generators,
)
from .errors import InvalidInput, NumericalFailure
from .linalg import build_spin_rep, spin_moments, sym_inverse
from .metrology import bounds, check_probe, classical_fim, frame_qfim_uhlmann
from .models import MAX_DIM, ProbeSpec, make_probe

__all__ = [
    "MAX_GRID_CELLS",
    "MAX_RANK_PARAMS",
    "MAX_RANK_OUTCOMES",
    "ScanConfig",
    "ScanResult",
    "run_scan",
    "shrinkage_fractions",
    "ScalingResult",
    "scaling_table",
    "RankExperimentConfig",
    "fim_rank_experiment",
    "metrics_report",
    "write_json",
]

TWO_PI = 2 * np.pi


def _write_text(path, text: str) -> None:
    """Write ``text`` to ``path``, the one place the library opens a file.

    An existing file is overwritten in place and then cut to the length of
    ``text``; the write is not atomic and not synced.  Opening without
    ``O_TRUNC`` keeps ext4 from flushing the file on close, a flush the next
    overwrite of it would wait for.  Only a regular file is cut, so a
    character device such as ``/dev/null`` or a pipe works as a path too.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "w", newline="") as fh:
        fh.write(text)
        if stat.S_ISREG(os.fstat(fd).st_mode):
            fh.truncate()


def _write_csv(path, header, outer, inner, columns) -> None:
    """Write a grid: one row per (outer, inner) pair of axis values, outer-major.

    A row holds its outer and inner axis values and then one value from
    each of ``columns``, each of which holds ``len(outer) * len(inner)``
    values in row order.
    Floats get 17 significant digits and NaN an empty field; a boolean
    column is written as 1/0.  Each axis value is formatted once: the
    inner ones up front, and each outer one into the row format of its
    block of rows, which takes the inner text as ``%s``; a row is then one
    ``%`` format of its inner text and column values.  ``%.17g`` writes a
    NaN as ``nan`` and no other value with those letters, so one replace
    on the body empties the NaN fields, axis fields included.
    """

    def field(values: np.ndarray) -> str:
        return "%d" if values.dtype == bool else "%.17g"

    outer, inner = np.asarray(outer), np.asarray(inner)
    columns = [np.asarray(column).reshape(outer.size, inner.size) for column in columns]
    inner_text = list(map(field(inner).__mod__, inner.tolist()))
    tail = ",%s," + ",".join(map(field, columns)) + "\n"
    outer_format = field(outer)
    blocks = (
        map((outer_format % x + tail).__mod__,
            zip(inner_text, *(column[k].tolist() for column in columns)))
        for k, x in enumerate(outer.tolist())
    )
    body = "".join(itertools.chain.from_iterable(blocks))
    _write_text(path, ",".join(header) + "\n" + body.replace("nan", ""))


def write_json(path, doc) -> None:
    """Write ``doc`` as sorted, indented JSON.

    A NaN or infinity has no JSON form: it raises :class:`NumericalFailure`
    before the file is opened, so nothing is written.
    """
    try:
        text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"report holds a non-finite number: {exc}") from exc
    _write_text(path, text + "\n")


# Largest scan grid, in cells: a scan's traced peak grows by about 870 B a
# cell for the three-parameter model and 485 B for the two-parameter model,
# both in run_scan (the CSV writer peaks at about 430 B), so the cap keeps
# it within a 1 GB budget.  A larger grid is rejected before anything is
# allocated.
MAX_GRID_CELLS = 10**6


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of one T(theta, B) grid scan.

    The grid covers theta in ``[0, 2 pi]`` and one period of the model in
    the field strength, B in ``[0, 2 pi / t]``.  The probe can be a
    :class:`ProbeSpec` or an explicit amplitude vector, and it sets the
    dimension.  The grid has 2 or more points per axis and at most
    :data:`MAX_GRID_CELLS` cells.  ``rel_tol`` is checked when the scan
    runs, by :func:`~spinmetro.metrology.bounds`.
    """

    kind: ModelKind
    probe: ProbeSpec | np.ndarray
    t: float
    model_phi: float = 0.0
    theta_count: int = 101
    b_count: int = 101
    rel_tol: float = 1e-10

    def __post_init__(self):
        if not (math.isfinite(self.t) and math.isfinite(self.model_phi)):
            raise InvalidInput(f"t and model_phi must be finite, got {self.t}, {self.model_phi}")
        if not self.t > 0:
            raise InvalidInput("evolution time must be positive")
        if self.theta_count < 2 or self.b_count < 2:
            raise InvalidInput("grid needs at least 2 points per axis")
        if self.theta_count * self.b_count > MAX_GRID_CELLS:
            raise InvalidInput(
                f"grid has {self.theta_count * self.b_count} cells, at most {MAX_GRID_CELLS}"
            )

    def probe_state(self) -> np.ndarray:
        if isinstance(self.probe, ProbeSpec):
            return make_probe(self.probe)
        return check_probe(self.probe)


@dataclass(frozen=True)
class ScanResult:
    """Flattened grid in row-major (theta outer, B inner) order."""

    config: ScanConfig
    theta: np.ndarray
    b: np.ndarray
    r_ai: np.ndarray
    delta: np.ndarray
    det_q: np.ndarray
    singular: np.ndarray

    HEADER = ("theta", "B", "R", "Delta", "T", "det_q", "singular")

    @property
    def t_gap(self) -> np.ndarray:
        return self.r_ai - self.delta

    @property
    def shape(self) -> tuple[int, int]:
        return (self.config.theta_count, self.config.b_count)

    def write_csv(self, path) -> None:
        n_b = self.config.b_count
        _write_csv(path, self.HEADER, self.theta[::n_b], self.b[:n_b],
                   (self.r_ai, self.delta, self.t_gap, self.det_q, self.singular))


def run_scan(config: ScanConfig) -> ScanResult:
    """Evaluate R, Delta and T = R - Delta over the (theta, B) grid.

    Cells with a singular QFIM (relative eigenvalue ratio below
    ``config.rel_tol``) are flagged and carry no bound values.
    """
    thetas = np.linspace(0.0, TWO_PI, config.theta_count)
    bs = np.linspace(0.0, TWO_PI / config.t, config.b_count)
    th_grid, b_grid = np.meshgrid(thetas, bs, indexing="ij")
    theta = th_grid.ravel()
    b = b_grid.ravel()
    phi = None if config.kind is ModelKind.TWO_PARAM else config.model_phi
    frame = closed_frame(config.kind, b, theta, config.t, phi)
    q, d = frame_qfim_uhlmann(frame, *spin_moments(config.probe_state()))
    singular, r_ai, _, _, delta, det_q = bounds(q, d, rel_tol=config.rel_tol)
    return ScanResult(
        config=config, theta=theta, b=b, r_ai=r_ai, delta=delta, det_q=det_q, singular=singular
    )


def shrinkage_fractions(res_a: ScanResult, res_b: ScanResult, threshold: float = 0.05):
    """Fraction of regular cells with T below ``threshold``, per grid.

    Returns ``(f_a, f_b)``; a grid with no regular cells reports ``None``.
    """
    if res_a.shape != res_b.shape:
        raise InvalidInput(f"grid shapes differ: {res_a.shape} vs {res_b.shape}")

    def frac(res: ScanResult):
        regular = ~res.singular
        if not regular.any():
            return None
        return float((res.t_gap[regular] < threshold).sum() / regular.sum())

    return frac(res_a), frac(res_b)


@dataclass(frozen=True)
class ScalingResult:
    """Gamma values and fitted log-log slopes, one slope per probe angle."""

    alphas: tuple[float, ...]
    dims: tuple[int, ...]
    gammas: dict = field(hash=False)
    slopes: dict = field(hash=False)

    HEADER = ("alpha", "N", "Gamma", "slope")

    def write_csv(self, path) -> None:
        gammas = np.array([[self.gammas[a][n] for n in self.dims] for a in self.alphas],
                          dtype=float)
        slopes = np.array([self.slopes[a] for a in self.alphas], dtype=float)
        _write_csv(path, self.HEADER, self.alphas, self.dims,
                   (gammas.ravel(), np.repeat(slopes, len(self.dims))))


def scaling_table(
    kind: ModelKind,
    alphas,
    dims,
    point: ModelPoint,
    probe_phi: float = 0.0,
    rel_tol: float = 1e-10,
) -> ScalingResult:
    """Gamma = Tr(Q_N Q_baseline^-1) across dimensions, with fitted slopes.

    The baseline is the qubit (N = 2) for the two-parameter model.  The
    three-parameter model has a singular qubit QFIM, so the smallest
    nonsingular dimension N = 4 serves as baseline instead; its slope is
    fitted against log N (versus log(N - 1) for two parameters).  An alpha
    whose baseline QFIM is singular yields empty Gamma and slope fields; a
    Gamma that is not finite raises :class:`NumericalFailure`.
    A slope needs at least two distinct dimensions, each listed once, and
    at least one probe angle.  Every dimension is checked before any is
    computed.  The spin moments of each (alpha, N) probe, baselines
    included, are taken one probe at a time and stacked, and one
    :func:`~spinmetro.metrology.frame_qfim_uhlmann` call gives every QFIM
    of the table.
    """
    dims = tuple(int(n) for n in dims)
    if any(not 4 <= n <= MAX_DIM for n in dims):
        raise InvalidInput(f"scaling dimensions must lie in [4, {MAX_DIM}], got {dims}")
    if len(dims) < 2 or len(set(dims)) != len(dims):
        raise InvalidInput(
            f"scaling needs two or more distinct dimensions, each listed once; got {dims}"
        )
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise InvalidInput("scaling needs at least one probe angle")
    baseline_dim = 2 if kind is ModelKind.TWO_PARAM else 4
    frame = closed_frame(kind, point.b, point.theta, point.t, point.phi)
    moments = [
        spin_moments(make_probe(ProbeSpec(dim=n, alpha=alpha, phi=probe_phi)))
        for alpha in alphas
        for n in (baseline_dim, *dims)
    ]
    q = frame_qfim_uhlmann(frame, *(np.stack(m) for m in zip(*moments)))[0]
    q = q.reshape(len(alphas), 1 + len(dims), *q.shape[-2:])
    x = np.array(dims, dtype=float)
    x = x - 1.0 if kind is ModelKind.TWO_PARAM else x
    gammas: dict = {}
    slopes: dict = {}
    for alpha, q_alpha in zip(alphas, q):
        base_inv = sym_inverse(q_alpha[0], rel_tol=rel_tol)
        if base_inv is None:
            gammas[alpha] = {n: None for n in dims}
            slopes[alpha] = None
            continue
        y = np.trace(q_alpha[1:] @ base_inv, axis1=-2, axis2=-1)
        gammas[alpha] = dict(zip(dims, y.tolist()))
        if not np.isfinite(y).all():
            raise NumericalFailure(f"Gamma is not finite at alpha = {alpha!r}")
        slopes[alpha] = float(np.polyfit(np.log(x), np.log(y), 1)[0])
    return ScalingResult(alphas=alphas, dims=dims, gammas=gammas, slopes=slopes)


# Trials per stacked block of the rank experiment: the draws, softmax, FIM,
# svd and det of one block are single array calls, and peak memory stays
# that of one block however many trials run.
RANK_BLOCK = 256
# Largest parameter and outcome counts of the rank experiment: a block's
# traced peak is about RANK_BLOCK * 30 B * (n d + d^2), 236 MB at both caps,
# within a 256 MB budget.  Larger counts are rejected before any draw.
MAX_RANK_PARAMS = 128
MAX_RANK_OUTCOMES = 128


@dataclass(frozen=True)
class RankExperimentConfig:
    """Monte-Carlo check of the outcome-count rank bound on the FIM.

    ``n_params`` lies in [1, :data:`MAX_RANK_PARAMS`] and ``n_outcomes`` in
    [2, :data:`MAX_RANK_OUTCOMES`].  ``seed`` must be a non-negative integer
    and ``lam``, the evaluation point (default: the origin), finite with
    ``n_params`` components.
    """

    n_params: int
    n_outcomes: int
    trials: int = 1000
    seed: int = 0
    lam: np.ndarray | None = None

    def __post_init__(self):
        if not 1 <= self.n_params <= MAX_RANK_PARAMS:
            raise InvalidInput(f"need 1 to {MAX_RANK_PARAMS} parameters, got {self.n_params}")
        if not 2 <= self.n_outcomes <= MAX_RANK_OUTCOMES:
            raise InvalidInput(f"need 2 to {MAX_RANK_OUTCOMES} outcomes, got {self.n_outcomes}")
        if self.trials < 1:
            raise InvalidInput("need at least one trial")
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise InvalidInput(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.lam is not None:
            lam = np.asarray(self.lam, dtype=float)
            if lam.shape != (self.n_params,):
                raise InvalidInput(f"evaluation point must have {self.n_params} components")
            if not np.isfinite(lam).all():
                raise InvalidInput(f"evaluation point must be finite, got {lam.tolist()}")

    def lam_point(self) -> np.ndarray:
        if self.lam is None:
            return np.zeros(self.n_params)
        return np.asarray(self.lam, dtype=float)


def _softmax_family(a, b, lam):
    """Probabilities and analytic gradients of p_i  propto  exp(a_i + b_i . lam),
    over leading axes: ``a (..., n)`` and ``b (..., n, d)`` give ``p (..., n)``
    and ``grads (..., d, n)`` with ``grads[..., j, i] = d p_i / d lam_j``."""
    z = a + b @ lam
    z -= z.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=-1, keepdims=True)
    mean_b = (p[..., None, :] @ b)[..., 0, :]  # (..., d)
    grads = p[..., None, :] * (np.swapaxes(b, -1, -2) - mean_b[..., :, None])
    return p, grads


def fim_rank_experiment(config: RankExperimentConfig) -> dict:
    """Sample softmax-affine families; verify rank(F) <= min(d, n - 1).

    Each trial draws standard-normal offsets and slopes from a seed derived
    from (seed, d, n, trial index), so trial i is independent of evaluation
    order.  The draws of :data:`RANK_BLOCK` trials are stacked and evaluated
    together.  The FIM is computed two ways: the direct weighted-gradient
    sum and the product decomposition that eliminates the redundant last
    outcome; their agreement is recorded as the decomposition residual.
    """
    d, n = config.n_params, config.n_outcomes
    lam = config.lam_point()
    rank_bound = min(d, n - 1)
    max_rank = 0
    violations = 0
    full_rank = 0
    max_resid = 0.0
    max_det_norm = 0.0
    for first in range(0, config.trials, RANK_BLOCK):
        trials = range(first, min(first + RANK_BLOCK, config.trials))
        a = np.empty((len(trials), n))
        b = np.empty((len(trials), n, d))
        for k, trial in enumerate(trials):
            rng = np.random.default_rng((config.seed, d, n, trial))
            a[k] = rng.standard_normal(n)
            b[k] = rng.standard_normal((n, d))
        p, grads = _softmax_family(a, b, lam)
        f = classical_fim(p, grads)
        # decomposition route: F = eta . dtil with the last outcome eliminated;
        # like classical_fim, outcomes with p < 1e-14 contribute nothing
        keep = p >= 1e-14
        dtil = grads[..., :-1]
        eta = np.divide(dtil, p[:, None, :-1], out=np.zeros_like(dtil), where=keep[:, None, :-1])
        last = np.divide(dtil.sum(axis=-1), p[:, -1:], out=np.zeros(dtil.shape[:-1]),
                         where=keep[:, -1:])
        f_decomp = (eta + last[..., None]) @ np.swapaxes(dtil, -1, -2)
        f_norm = np.linalg.norm(f, axis=(-2, -1))
        svals = np.linalg.svd(f, compute_uv=False)
        rank = (svals > 1e-10 * np.maximum(svals[:, :1], 1e-300)).sum(axis=-1)
        max_rank = max(max_rank, int(rank.max()))
        violations += int((rank > rank_bound).sum())
        full_rank += int((rank == d).sum())
        # a trial whose FIM vanishes (so does its norm**d) has no relative
        # residual or normalized det, and is left out of both maxima
        scale = f_norm**d
        live = scale > 0
        resid = np.linalg.norm(f[live] - f_decomp[live], axis=(-2, -1)) / f_norm[live]
        max_resid = max(max_resid, float(resid.max(initial=0.0)))
        det_norm = np.abs(np.linalg.det(f[live])) / scale[live]
        max_det_norm = max(max_det_norm, float(det_norm.max(initial=0.0)))
    return {
        "n_params": d,
        "n_outcomes": n,
        "trials": config.trials,
        "seed": config.seed,
        "lam": [float(v) for v in lam],
        "rank_bound": rank_bound,
        "max_rank": max_rank,
        "rank_violations": violations,
        "full_rank_fraction": full_rank / config.trials,
        "max_decomposition_residual": max_resid,
        "max_normalized_det": max_det_norm,
    }


# The spin-1/2 representation the oracle routes of every report run in.
_SPIN_HALF = build_spin_rep(2)
_SPIN_HALF_J = np.stack([_SPIN_HALF.jx, _SPIN_HALF.jy, _SPIN_HALF.jz])


def _route_residuals(kind, point, frame) -> dict:
    """Max relative spectral-norm deviation of the oracle routes, taken in
    spin-1/2: ``||a . J||_2 = s |a|``, so every irrep gives the same value.
    The closed route is the report's own ``frame``, as dense generators."""
    closed = GeneratorSet(kind.labels, np.tensordot(frame, _SPIN_HALF_J, axes=1)).matrices
    series, numeric = (
        route(_SPIN_HALF, kind, point).matrices for route in (series_generators, numeric_generators)
    )
    norms = np.linalg.norm(
        np.stack([closed, series, numeric, series - closed, numeric - closed]), 2, axis=(-2, -1)
    )
    scale = np.maximum(norms[0], 1e-12)
    return {
        "series_vs_closed": float(np.max(norms[3] / np.maximum(norms[1], scale))),
        "numeric_vs_closed": float(np.max(norms[4] / np.maximum(norms[2], scale))),
    }


def metrics_report(kind: ModelKind, spec: ProbeSpec, point: ModelPoint, rel_tol=1e-10) -> dict:
    """Machine-readable report for one (model, probe, point).

    Carries the QFIM, Uhlmann matrix, determinant, bounds, incompatibility,
    the singularity flag and the generator cross-route residuals; singular
    points get null bound fields.  It runs :func:`run_scan`'s pipeline on one point.
    """
    frame = closed_frame(kind, point.b, point.theta, point.t, point.phi)
    q, d = frame_qfim_uhlmann(frame, *spin_moments(make_probe(spec)))
    singular, *values, det_q = bounds(q, d, rel_tol=rel_tol)
    r_ai, c_sld, c_h, delta = (None if singular else float(v) for v in values)
    return {
        "model": kind.value,
        "dim": int(spec.dim),
        "probe": {"alpha": float(spec.alpha), "phi": float(spec.phi)},
        "point": {
            "B": float(point.b),
            "theta": float(point.theta),
            "phi": None if point.phi is None else float(point.phi),
            "t": float(point.t),
        },
        "labels": list(kind.labels),
        "Q": q.tolist(),
        "D": d.tolist(),
        "det_q": float(det_q),
        "singular": bool(singular),
        "c_sld": c_sld,
        "c_h": c_h,
        "delta": delta,
        "r_ai": r_ai,
        "generator_route_residuals": _route_residuals(kind, point, frame),
    }
