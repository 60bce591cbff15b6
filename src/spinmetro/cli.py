"""Command-line interface: scan, metrics, scaling and fim-rank drivers.

Exit codes: 0 on success, 2 on usage/configuration errors, 1 on numerical
consistency failures (a stray ``LinAlgError`` counts as one, and so does a
floating-point overflow or invalid operation: commands run with numpy set to
raise them as ``FloatingPointError``) and on file-system errors.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .analysis import (
    RankExperimentConfig,
    ScanConfig,
    fim_rank_experiment,
    metrics_report,
    run_scan,
    scaling_dim,
    scaling_table,
    write_json,
)
from .encoding import ModelKind, ModelPoint
from .errors import InvalidInput, NumericalFailure
from .models import ProbeSpec

__all__ = ["build_parser", "main"]


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        theta_count, b_count = text.lower().split("x")
        return int(theta_count), int(b_count)
    except ValueError as exc:
        raise InvalidInput(f"--grid expects THETAxB counts like 101x101, got {text!r}") from exc


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise InvalidInput(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_dims(text: str) -> tuple[int, ...] | range:
    """Parse ``N,N,...`` or ``LO-HI``.  Both ends of a range are held to the
    table's dimension rule, and the range is returned unexpanded, so a
    range past :data:`~spinmetro.models.MAX_DIM` or a table past
    :data:`~spinmetro.analysis.MAX_TABLE_PROBES` allocates nothing."""
    try:
        if "-" not in text:
            return tuple(int(v) for v in text.split(",") if v.strip())
        lo, hi = map(int, text.split("-"))
    except ValueError as exc:
        raise InvalidInput(f"--dims expects N,N,... or LO-HI, got {text!r}") from exc
    return range(scaling_dim(lo), scaling_dim(hi) + 1)


_FLAGS = {
    "--model": dict(choices=["two", "three"], default="two",
                    help="estimation model: two=(B,theta), three=(B,theta,phi)"),
    "--dim": dict(type=int, default=2, help="probe Hilbert-space dimension"),
    "--alpha": dict(type=float, default=0.7853981633974483,
                    help="probe mixing angle (default pi/4)"),
    "--phi": dict(type=float, default=0.0, help="probe relative phase"),
    "--time": dict(type=float, default=5.0, help="evolution time"),
    "--tol": dict(type=float, default=1e-10,
                  help="relative eigenvalue threshold for singular QFIMs"),
    "--b": dict(type=float, default=0.6, help="field strength B"),
    "--theta": dict(type=float, default=0.8, help="field angle theta"),
    "--model-phi": dict(type=float, default=1.0,
                        help="field azimuth phi (three-parameter model only)"),
    "--out": dict(required=True, help="output file path"),
}


def _add_flags(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        parser.add_argument(flag, **_FLAGS[flag])


def _model_point(args) -> ModelPoint:
    phi = args.model_phi if args.model == "three" else None
    return ModelPoint(b=args.b, theta=args.theta, t=args.time, phi=phi)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spinmetro`` argument parser, built once per process.

    Parsing keeps no state in the parser: each call returns a fresh
    namespace, so :func:`main` reuses this one parser for every call.
    Every caller gets the same object, to parse with and not to change.
    """
    parser = argparse.ArgumentParser(
        prog="spinmetro",
        description="Precision bounds and measurement incompatibility for "
        "su(2) unitary estimation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="T(theta,B) grid scan to CSV")
    _add_flags(scan, "--model", "--dim", "--alpha", "--phi", "--time", "--tol", "--out")
    scan.add_argument("--model-phi", type=float, default=0.0,
                      help="fixed field azimuth for the three-parameter model")
    scan.add_argument("--grid", default="101x101", help="grid counts THETAxB")

    metrics = sub.add_parser("metrics", help="single-point JSON report")
    _add_flags(metrics, "--model", "--dim", "--alpha", "--phi", "--time", "--tol", "--out",
               "--b", "--theta", "--model-phi")

    scaling = sub.add_parser("scaling", help="Gamma scaling table to CSV")
    _add_flags(scaling, "--model", "--phi", "--time", "--tol", "--out",
               "--b", "--theta", "--model-phi")
    scaling.add_argument("--alphas", default="0.7853981633974483",
                         help="comma-separated probe angles")
    scaling.add_argument("--dims", default="4-12", help="dimensions, N,N,... or LO-HI")

    rank = sub.add_parser("fim-rank", help="FIM rank Monte-Carlo report to JSON")
    _add_flags(rank, "--out")
    rank.add_argument("--params", type=int, default=2, help="number of parameters d")
    rank.add_argument("--outcomes", type=int, default=3, help="number of outcomes n")
    rank.add_argument("--trials", type=int, default=1000, help="number of trials")
    rank.add_argument("--seed", type=int, default=0, help="RNG seed")
    return parser


def _cmd_scan(args) -> None:
    theta_count, b_count = _parse_grid(args.grid)
    config = ScanConfig(
        kind=ModelKind(args.model),
        probe=ProbeSpec(dim=args.dim, alpha=args.alpha, phi=args.phi),
        t=args.time,
        model_phi=args.model_phi,
        theta_count=theta_count,
        b_count=b_count,
        rel_tol=args.tol,
    )
    run_scan(config).write_csv(args.out)


def _cmd_metrics(args) -> None:
    doc = metrics_report(
        kind=ModelKind(args.model),
        spec=ProbeSpec(dim=args.dim, alpha=args.alpha, phi=args.phi),
        point=_model_point(args),
        rel_tol=args.tol,
    )
    write_json(args.out, doc)


def _cmd_scaling(args) -> None:
    table = scaling_table(
        kind=ModelKind(args.model),
        alphas=_parse_floats(args.alphas),
        dims=_parse_dims(args.dims),
        point=_model_point(args),
        probe_phi=args.phi,
        rel_tol=args.tol,
    )
    table.write_csv(args.out)


def _cmd_fim_rank(args) -> None:
    config = RankExperimentConfig(
        n_params=args.params,
        n_outcomes=args.outcomes,
        trials=args.trials,
        seed=args.seed,
    )
    write_json(args.out, fim_rank_experiment(config))


_COMMANDS = {
    "scan": _cmd_scan,
    "metrics": _cmd_metrics,
    "scaling": _cmd_scaling,
    "fim-rank": _cmd_fim_rank,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with np.errstate(over="raise", invalid="raise"):
            _COMMANDS[args.command](args)
    except InvalidInput as exc:
        print(f"spinmetro: {exc}", file=sys.stderr)
        return 2
    except (NumericalFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"spinmetro: numerical consistency failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"spinmetro: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
