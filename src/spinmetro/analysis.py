"""Experiment drivers: grid scans, scaling tables, rank experiments, reports.

Everything here is deterministic given its configuration.  Scans, scaling
tables and reports take (Q, D) from the probe's spin moments through the
N-independent frame kernel, with no N x N matrix; the dense generator route
matches it to rounding (the tests pin this).  Random experiments draw each
trial from its own counter-derived seed so results are independent of
evaluation order.  CSV output uses '.' decimals, ',' delimiters, a header
row and 17 significant digits so repeated runs are bytewise identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .encoding import (
    ModelKind,
    ModelPoint,
    closed_frame,
    closed_generators,
    numeric_generators,
    series_generators,
)
from .errors import InvalidInput
from .linalg import build_spin_rep, sym_inverse
from .metrology import bounds, check_probe, classical_fim, frame_qfim_uhlmann
from .models import ProbeSpec, make_probe

__all__ = [
    "ScanConfig",
    "ScanResult",
    "run_scan",
    "shrinkage_fractions",
    "ScalingResult",
    "scaling_table",
    "RankExperimentConfig",
    "fim_rank_experiment",
    "metrics_report",
    "format_csv_value",
    "write_json",
]

TWO_PI = 2 * np.pi


def format_csv_value(x) -> str:
    """17-significant-digit decimal rendering; empty string for missing."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if np.isnan(x):
        return ""
    return f"{x:.17g}"


def _write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_csv_value(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path, doc) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")


@dataclass(frozen=True)
class ScanConfig:
    """Configuration of one T(theta, B) grid scan.

    ``b_range`` defaults to one period of the model in the field strength,
    ``[0, 2 pi / t]``; the probe can be a :class:`ProbeSpec` or an explicit
    amplitude vector of length ``dim``.  ``weight`` and ``rel_tol`` are
    checked when the scan runs, by :func:`~spinmetro.metrology.bounds`.
    """

    kind: ModelKind
    dim: int
    probe: ProbeSpec | np.ndarray
    t: float
    model_phi: float = 0.0
    theta_range: tuple[float, float] = (0.0, TWO_PI)
    b_range: tuple[float, float] | None = None
    theta_count: int = 101
    b_count: int = 101
    weight: np.ndarray | None = None
    rel_tol: float = 1e-10

    def __post_init__(self):
        if int(self.dim) != self.dim or self.dim < 2:
            raise InvalidInput(f"dimension must be an integer >= 2, got {self.dim!r}")
        if not (math.isfinite(self.t) and math.isfinite(self.model_phi)):
            raise InvalidInput(f"t and model_phi must be finite, got {self.t}, {self.model_phi}")
        if not self.t > 0:
            raise InvalidInput("evolution time must be positive")
        if self.theta_count < 2 or self.b_count < 2:
            raise InvalidInput("grid needs at least 2 points per axis")
        if not self.theta_range[1] > self.theta_range[0]:
            raise InvalidInput("theta range is empty")
        if self.b_range is not None and not self.b_range[1] > self.b_range[0]:
            raise InvalidInput("B range is empty")

    @property
    def effective_b_range(self) -> tuple[float, float]:
        return self.b_range if self.b_range is not None else (0.0, TWO_PI / self.t)

    def probe_state(self) -> np.ndarray:
        if isinstance(self.probe, ProbeSpec):
            if self.probe.dim != self.dim:
                raise InvalidInput("probe spec dimension disagrees with scan dimension")
            return make_probe(self.probe)
        return check_probe(self.probe, self.dim)


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

    def rows(self):
        t_gap = self.t_gap
        for i in range(self.theta.size):
            if self.singular[i]:
                yield (self.theta[i], self.b[i], None, None, None, self.det_q[i], True)
            else:
                yield (
                    self.theta[i],
                    self.b[i],
                    self.r_ai[i],
                    self.delta[i],
                    t_gap[i],
                    self.det_q[i],
                    False,
                )

    def write_csv(self, path) -> None:
        _write_csv(path, self.HEADER, self.rows())


def run_scan(config: ScanConfig) -> ScanResult:
    """Evaluate R, Delta and T = R - Delta over the (theta, B) grid.

    Cells with a singular QFIM (relative eigenvalue ratio below
    ``config.rel_tol``) are flagged and carry no bound values.
    """
    thetas = np.linspace(*config.theta_range, config.theta_count)
    bs = np.linspace(*config.effective_b_range, config.b_count)
    th_grid, b_grid = np.meshgrid(thetas, bs, indexing="ij")
    theta = th_grid.ravel()
    b = b_grid.ravel()
    phi = None if config.kind is ModelKind.TWO_PARAM else config.model_phi
    frame = closed_frame(config.kind, b, theta, config.t, phi)
    q, d = frame_qfim_uhlmann(frame, config.probe_state())
    singular, r_ai, _, _, delta = bounds(q, d, weight=config.weight, rel_tol=config.rel_tol)
    det_q = np.linalg.det(q)
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

    kind: ModelKind
    baseline_dim: int
    alphas: tuple[float, ...]
    dims: tuple[int, ...]
    gammas: dict = field(hash=False)
    slopes: dict = field(hash=False)

    HEADER = ("alpha", "N", "Gamma", "slope")

    def rows(self):
        for alpha in self.alphas:
            for n in self.dims:
                yield (alpha, n, self.gammas[alpha].get(n), self.slopes[alpha])

    def write_csv(self, path) -> None:
        _write_csv(path, self.HEADER, self.rows())


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
    whose baseline QFIM is singular yields empty Gamma and slope fields.
    A slope needs at least two distinct dimensions, each listed once, and
    at least one probe angle.
    """
    dims = tuple(int(n) for n in dims)
    if any(n < 4 for n in dims):
        raise InvalidInput("scaling dimensions must be >= 4")
    if len(dims) < 2 or len(set(dims)) != len(dims):
        raise InvalidInput(
            f"scaling needs two or more distinct dimensions, each listed once; got {dims}"
        )
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise InvalidInput("scaling needs at least one probe angle")
    baseline_dim = 2 if kind is ModelKind.TWO_PARAM else 4
    frame = closed_frame(kind, point.b, point.theta, point.t, point.phi)

    def qfim(n, alpha):
        probe = make_probe(ProbeSpec(dim=n, alpha=alpha, phi=probe_phi))
        return frame_qfim_uhlmann(frame, probe)[0]

    gammas: dict = {}
    slopes: dict = {}
    for alpha in alphas:
        base_inv = sym_inverse(qfim(baseline_dim, alpha), rel_tol=rel_tol)
        if base_inv is None:
            gammas[alpha] = {n: None for n in dims}
            slopes[alpha] = None
            continue
        per_alpha = {n: float(np.trace(qfim(n, alpha) @ base_inv)) for n in dims}
        gammas[alpha] = per_alpha
        x = np.array(dims, dtype=float)
        x = x - 1.0 if kind is ModelKind.TWO_PARAM else x
        y = np.array([per_alpha[n] for n in dims])
        slopes[alpha] = float(np.polyfit(np.log(x), np.log(y), 1)[0])
    return ScalingResult(
        kind=kind,
        baseline_dim=baseline_dim,
        alphas=alphas,
        dims=dims,
        gammas=gammas,
        slopes=slopes,
    )


@dataclass(frozen=True)
class RankExperimentConfig:
    """Monte-Carlo check of the outcome-count rank bound on the FIM."""

    n_params: int
    n_outcomes: int
    trials: int = 1000
    seed: int = 0
    lam: np.ndarray | None = None

    def __post_init__(self):
        if self.n_params < 1:
            raise InvalidInput("need at least one parameter")
        if self.n_outcomes < 2:
            raise InvalidInput("need at least two outcomes")
        if self.trials < 1:
            raise InvalidInput("need at least one trial")

    def lam_point(self) -> np.ndarray:
        if self.lam is None:
            return np.zeros(self.n_params)
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.n_params,):
            raise InvalidInput(f"evaluation point must have {self.n_params} components")
        return lam


def _softmax_family(a, b, lam):
    """Probabilities and analytic gradients of p_i  propto  exp(a_i + b_i . lam)."""
    z = a + b @ lam
    z -= z.max()
    p = np.exp(z)
    p /= p.sum()
    grads = (p[None, :] * (b.T - (p @ b)[:, None]))  # (d, n): d p_i / d lam_j
    return p, grads


def fim_rank_experiment(config: RankExperimentConfig) -> dict:
    """Sample softmax-affine families; verify rank(F) <= min(d, n - 1).

    Each trial draws standard-normal offsets and slopes from a seed derived
    from (seed, trial index), so trial i is independent of evaluation
    order.  The FIM is computed two ways: the direct weighted-gradient sum
    and the product decomposition that eliminates the redundant last
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
    for trial in range(config.trials):
        rng = np.random.default_rng((config.seed, d, n, trial))
        a = rng.standard_normal(n)
        b = rng.standard_normal((n, d))
        p, grads = _softmax_family(a, b, lam)
        f = classical_fim(p, grads)
        # decomposition route: F = eta . dtil with the last outcome eliminated
        dmat = grads  # (d, n)
        eta = dmat[:, :-1] / p[:-1] + (dmat[:, :-1].sum(axis=1) / p[-1])[:, None]
        f_decomp = eta @ dmat[:, :-1].T
        scale = max(np.linalg.norm(f), 1e-300)
        max_resid = max(max_resid, float(np.linalg.norm(f - f_decomp) / scale))
        svals = np.linalg.svd(f, compute_uv=False)
        rank = int((svals > 1e-10 * max(svals[0], 1e-300)).sum())
        max_rank = max(max_rank, rank)
        violations += rank > rank_bound
        full_rank += rank == d
        max_det_norm = max(
            max_det_norm, float(abs(np.linalg.det(f)) / np.linalg.norm(f) ** d)
        )
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


def _route_residuals(kind, point) -> dict:
    """Max relative spectral-norm deviation of the oracle routes, taken in
    spin-1/2: ``||a . J||_2 = s |a|``, so every irrep gives the same value."""
    rep = build_spin_rep(2)
    closed = closed_generators(rep, kind, point)
    series = series_generators(rep, kind, point)
    numeric = numeric_generators(rep, kind, point)

    def rel(a, b):
        return float(
            np.linalg.norm(a - b, 2) / max(np.linalg.norm(a, 2), np.linalg.norm(b, 2), 1e-12)
        )

    return {
        "series_vs_closed": max(
            rel(series.matrices[i], closed.matrices[i]) for i in range(closed.n_params)
        ),
        "numeric_vs_closed": max(
            rel(numeric.matrices[i], closed.matrices[i]) for i in range(closed.n_params)
        ),
    }


def metrics_report(kind: ModelKind, spec: ProbeSpec, point: ModelPoint, rel_tol=1e-10) -> dict:
    """Machine-readable report for one (model, probe, point).

    Carries the QFIM, Uhlmann matrix, determinant, bounds, incompatibility,
    the singularity flag and the generator cross-route residuals; singular
    points get null bound fields.  It runs :func:`run_scan`'s pipeline on one point.
    """
    frame = closed_frame(kind, point.b, point.theta, point.t, point.phi)
    q, d = frame_qfim_uhlmann(frame, make_probe(spec))
    singular, *values = bounds(q, d, rel_tol=rel_tol)
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
        "det_q": float(np.linalg.det(q)),
        "singular": bool(singular),
        "c_sld": c_sld,
        "c_h": c_h,
        "delta": delta,
        "r_ai": r_ai,
        "generator_route_residuals": _route_residuals(kind, point),
    }
