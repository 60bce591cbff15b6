"""Correctness gate for op outputs, run outside the timed region.

``check(argv)`` re-reads the file one ``spinmetro`` op wrote and returns a
list of problems (empty when the output is correct).  The oracles are the
library's own closed forms in ``spinmetro.models``, which the library's
tests pin independently of the grid, scalar and scaling code paths.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from spinmetro import cli
from spinmetro.encoding import ModelPoint
from spinmetro.linalg import build_spin_rep
from spinmetro.models import (
    ProbeSpec,
    bloch_vector,
    make_probe,
    qubit2p_closed,
    qudit2p_closed,
    threeparam_uhlmann_closed,
)

__all__ = ["check"]

# Matrix elements, which need no inverse, are held to REL_TOL.  R and
# Delta go through Q^-1 and lose up to ~cond(Q) * eps; a regular cell may
# have cond(Q) up to 1 / tol (the singular threshold), so checks on them
# allow INVERSE_SLACK * eps * cond(Q), with cond(Q) taken from the closed
# form or the reported Q where known and 1 / tol otherwise.
REL_TOL = 1e-9
INVERSE_SLACK = 1e3
SAMPLED_CELLS = 64
QUARTER_PI = 0.7853981633974483


def _close(a, b, scale=None) -> bool:
    """|a - b| <= REL_TOL * scale, the scale defaulting to the larger magnitude."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if scale is None:
        scale = max(float(np.abs(a).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    return bool(np.abs(a - b).max(initial=0.0) <= REL_TOL * max(scale, 1e-300))


def _point(args, phi=None) -> ModelPoint:
    return ModelPoint(b=args.b, theta=args.theta, t=args.time, phi=phi)


def _inverse_tol(cond: float) -> float:
    return INVERSE_SLACK * np.finfo(float).eps * cond


def _cond(q) -> float:
    w = np.linalg.eigvalsh(np.asarray(q, dtype=float))
    return float(w[-1] / w[0]) if w[0] > 0 else np.inf


def _bounds_problems(r, delta, tol) -> list[str]:
    if not (-tol <= delta <= r + tol and r <= 1 + tol):
        return [f"bounds violate 0 <= Delta <= R <= 1: R={r!r} Delta={delta!r}"]
    return []


def _check_scan(args) -> list[str]:
    with open(args.out, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != ("theta", "B", "R", "Delta", "T", "det_q", "singular"):
        return [f"scan header {rows[0]!r}"]
    theta_count, b_count = (int(v) for v in args.grid.split("x"))
    body = rows[1:]
    if len(body) != theta_count * b_count:
        return [f"scan has {len(body)} rows, expected {theta_count * b_count}"]
    grid = np.array([[float(v) for v in row[:2]] for row in body])
    thetas = np.linspace(0.0, 2 * math.pi, theta_count)
    bs = np.linspace(0.0, 2 * math.pi / args.time, b_count)
    expected = np.stack([np.repeat(thetas, b_count), np.tile(bs, theta_count)], axis=1)
    if not np.array_equal(grid, expected):
        return ["scan grid coordinates differ from the configured field period"]

    problems = []
    worst_tol = _inverse_tol(1 / args.tol)
    singular = np.array([row[6] == "1" for row in body])
    regular = [i for i, row in enumerate(body) if row[6] == "0"]
    if len(regular) + int(singular.sum()) != len(body):
        problems.append("singular column holds values other than 0/1")
    for i in regular:
        r, delta, gap = (float(v) for v in body[i][2:5])
        problems += _bounds_problems(r, delta, worst_tol)
        if abs(gap - (r - delta)) > 1e-12:
            problems.append(f"row {i}: T != R - Delta")
        if problems:
            return problems
    if any(body[i][2] or body[i][3] or body[i][4] for i in np.flatnonzero(singular)):
        problems.append("singular cell carries bound values")

    if args.model == "three" and args.dim >= 4:
        r_closed = abs(math.cos(2 * args.alpha))
        worst = max((abs(float(body[i][2]) - r_closed) for i in regular), default=0.0)
        if worst > worst_tol:
            problems.append(f"R differs from |cos 2 alpha| by {worst:.3e}")
    if args.model == "three" and args.dim == 2 and regular:
        problems.append("three-parameter qubit scan has regular cells")

    sample = np.unique(np.linspace(0, len(body) - 1, SAMPLED_CELLS).astype(int))
    spec = ProbeSpec(dim=args.dim, alpha=args.alpha, phi=args.phi)
    if args.model == "two" and args.dim == 2:
        r0 = bloch_vector(make_probe(spec))
        for i in sample:
            theta, b = grid[i]
            closed = qubit2p_closed(r0, ModelPoint(b=b, theta=theta, t=args.time))
            if closed.singular or body[i][6] == "1":
                continue
            if abs(float(body[i][2]) - closed.r_ai) > _inverse_tol(_cond(closed.qfim)):
                problems.append(f"row {i}: R={body[i][2]} vs qubit closed form {closed.r_ai!r}")
    if args.model == "two" and args.dim == 4:
        for i in sample:
            theta, b = grid[i]
            q, _ = qudit2p_closed(spec, ModelPoint(b=b, theta=theta, t=args.time))
            scale = max(float(np.abs(q).max()) ** 2, 1e-300)
            if abs(float(body[i][5]) - np.linalg.det(q)) > REL_TOL * scale:
                problems.append(f"row {i}: det_q={body[i][5]} vs qudit closed form")
    return problems


def _check_metrics(args) -> list[str]:
    with open(args.out) as fh:
        doc = json.load(fh)
    q, d = np.array(doc["Q"]), np.array(doc["D"])
    dim = 2 if args.model == "two" else 3
    if q.shape != (dim, dim) or d.shape != (dim, dim):
        return [f"Q/D shapes {q.shape}/{d.shape}"]
    problems = []
    if not (_close(q, q.T) and _close(d, -d.T)):
        problems.append("Q not symmetric or D not antisymmetric")
    r_tol = _inverse_tol(_cond(q))
    if not doc["singular"]:
        problems += _bounds_problems(doc["r_ai"], doc["delta"], r_tol)
        if doc["c_h"] < doc["c_sld"]:
            problems.append("Holevo bound below the SLD bound")
    # D vanishes at balanced probes, so its elements are compared on the scale of Q.
    q_scale = max(float(np.abs(q).max()), 1.0)
    spec = ProbeSpec(dim=args.dim, alpha=args.alpha, phi=args.phi)
    if args.model == "two":
        point = _point(args)
        if args.dim > 3:
            q_closed, d_tb = qudit2p_closed(spec, point)
        elif args.dim == 2:
            closed = qubit2p_closed(bloch_vector(make_probe(spec)), point)
            q_closed, d_tb = closed.qfim, closed.d_theta_b
        else:
            return problems
        if not _close(q, q_closed):
            problems.append("Q differs from the closed form")
        if not _close(d[1, 0], d_tb, q_scale):
            problems.append(f"D[theta,B]={d[1, 0]!r} vs closed form {d_tb!r}")
    else:
        point = _point(args, phi=args.model_phi)
        d_closed = threeparam_uhlmann_closed(build_spin_rep(args.dim), make_probe(spec), point)
        if not _close(d, d_closed, q_scale):
            problems.append("D differs from the three-parameter closed form")
        if args.dim >= 4 and not doc["singular"]:
            if abs(doc["r_ai"] - abs(math.cos(2 * args.alpha))) > r_tol:
                problems.append(f"R={doc['r_ai']!r} vs |cos 2 alpha|")
    return problems


def _gamma_oracle(args, alpha: float, n: int) -> float | None:
    """Gamma(N) from closed forms: exact for three parameters at pi/4, and
    Tr(Q_N Q_2^-1) from the qudit and qubit forms for two parameters."""
    if args.model == "three":
        return (n - 1) + (n - 1) * (n - 4) / 9 if alpha == QUARTER_PI else None
    point = _point(args)
    base = qubit2p_closed(bloch_vector(make_probe(ProbeSpec(2, alpha, args.phi))), point)
    if base.singular:
        return None
    q_n, _ = qudit2p_closed(ProbeSpec(n, alpha, args.phi), point)
    return float(np.trace(q_n @ np.linalg.inv(base.qfim)))


def _check_scaling(args) -> list[str]:
    with open(args.out, newline="") as fh:
        rows = list(csv.reader(fh))
    if tuple(rows[0]) != ("alpha", "N", "Gamma", "slope"):
        return [f"scaling header {rows[0]!r}"]
    alphas = [float(v) for v in args.alphas.split(",")]
    if "-" in args.dims:
        lo, hi = (int(v) for v in args.dims.split("-"))
        dims = list(range(lo, hi + 1))
    else:
        dims = [int(v) for v in args.dims.split(",")]
    body = rows[1:]
    if [(float(r[0]), int(r[1])) for r in body] != [(a, n) for a in alphas for n in dims]:
        return ["scaling rows do not cover alphas x dims in order"]
    problems = []
    for k, alpha in enumerate(alphas):
        block = body[k * len(dims):(k + 1) * len(dims)]
        if any(not r[2] for r in block):
            problems.append(f"alpha={alpha!r}: empty Gamma at a nonsingular baseline")
            continue
        gammas = np.array([float(r[2]) for r in block])
        x = np.array(dims, dtype=float) - (1.0 if args.model == "two" else 0.0)
        slope = np.polyfit(np.log(x), np.log(gammas), 1)[0]
        if len({r[3] for r in block}) != 1 or not _close(float(block[0][3]), slope):
            problems.append(f"alpha={alpha!r}: slope column disagrees with its Gamma values")
        for n, g in zip(dims, gammas):
            oracle = _gamma_oracle(args, alpha, n)
            if oracle is not None and not _close(g, oracle):
                problems.append(f"alpha={alpha!r} N={n}: Gamma={g!r} vs closed form {oracle!r}")
                break
    return problems


def _check_fim_rank(args) -> list[str]:
    with open(args.out) as fh:
        doc = json.load(fh)
    echo = (doc["n_params"], doc["n_outcomes"], doc["trials"], doc["seed"])
    if echo != (args.params, args.outcomes, args.trials, args.seed):
        return [f"fim-rank config echo {echo}"]
    problems = []
    if doc["rank_bound"] != min(args.params, args.outcomes - 1):
        problems.append(f"rank_bound {doc['rank_bound']}")
    if doc["rank_violations"] != 0 or doc["max_rank"] > doc["rank_bound"]:
        problems.append(f"rank bound violated {doc['rank_violations']} times")
    return problems


_CHECKS = {
    "scan": _check_scan,
    "metrics": _check_metrics,
    "scaling": _check_scaling,
    "fim-rank": _check_fim_rank,
}


def check(argv) -> list[str]:
    """Problems found in the output of the op ``argv``; empty when correct."""
    args = cli.build_parser().parse_args(argv)
    try:
        return _CHECKS[args.command](args)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output {args.out}: {exc!r}"]
