"""Command-line interface: scan, metrics, scaling and fim-rank drivers.

Exit codes: 0 on success, 2 on usage/configuration errors, 1 on numerical
consistency failures (a stray ``LinAlgError`` counts as one, and so does a
floating-point overflow or invalid operation: commands run with numpy set to
raise them as ``FloatingPointError``) and on file-system errors.

Each subcommand is declared once, in ``_SUBCOMMANDS``: its help line,
handler and flags.  Its parser and its flag table are built from that, and
an argv takes one of two routes.  A known subcommand's argv of the plain
form ``CMD (--flag VALUE)*`` is read from CMD's flag table: each flag one
of CMD's exact option strings (a repeated one keeps its last value), no
VALUE starting with ``-``, each VALUE of its flag's type and among its
choices, and ``--out`` given.  Every other argv goes to
``build_parser().parse_args(argv)``, the only source of help, usage and
error text.  The table gives argparse's namespace, so the route shows in no
namespace, message or exit code.
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
from .encoding import ModelPoint
from .errors import InvalidInput, NumericalFailure
from .linalg import SINGULAR_TOL, require_float
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
    "--tol": dict(type=float, default=SINGULAR_TOL,
                  help="relative eigenvalue threshold for singular QFIMs"),
    "--b": dict(type=float, default=0.6, help="field strength B"),
    "--theta": dict(type=float, default=0.8, help="field angle theta"),
    "--model-phi": dict(type=float, default=1.0,
                        help="field azimuth phi (three-parameter model only)"),
    "--out": dict(required=True, help="output file path"),
}


def _pick(*flags: str) -> dict:
    return {flag: _FLAGS[flag] for flag in flags}


def _model_phi(args) -> float | None:
    """The field azimuth of ``--model three``, ``None`` under ``--model two``.

    ``--model-phi`` is held to the float rule under either model, so a NaN
    or an infinity is a usage error even where the model does not read it.
    """
    phi = require_float(args.model_phi, "--model-phi")
    return phi if args.model == "three" else None


def _model_point(args) -> ModelPoint:
    return ModelPoint(b=args.b, theta=args.theta, t=args.time, phi=_model_phi(args))


def _cmd_scan(args) -> None:
    theta_count, b_count = _parse_grid(args.grid)
    config = ScanConfig(
        probe=ProbeSpec(dim=args.dim, alpha=args.alpha, phi=args.phi),
        t=args.time,
        model_phi=_model_phi(args),
        theta_count=theta_count,
        b_count=b_count,
        rel_tol=args.tol,
    )
    run_scan(config).write_csv(args.out)


def _cmd_metrics(args) -> None:
    doc = metrics_report(
        spec=ProbeSpec(dim=args.dim, alpha=args.alpha, phi=args.phi),
        point=_model_point(args),
        rel_tol=args.tol,
    )
    write_json(args.out, doc)


def _cmd_scaling(args) -> None:
    table = scaling_table(
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


# Each subcommand's help line, handler and flags, in help order, as
# ``add_argument`` keywords: the one declaration that both its parser and
# its flag table are built from.
_SUBCOMMANDS = {
    "scan": ("T(theta,B) grid scan to CSV", _cmd_scan, {
        **_pick("--model", "--dim", "--alpha", "--phi", "--time", "--tol", "--out"),
        "--model-phi": dict(type=float, default=0.0,
                            help="fixed field azimuth for the three-parameter model"),
        "--grid": dict(default="101x101", help="grid counts THETAxB"),
    }),
    "metrics": ("single-point JSON report", _cmd_metrics, _pick(
        "--model", "--dim", "--alpha", "--phi", "--time", "--tol", "--out",
        "--b", "--theta", "--model-phi")),
    "scaling": ("Gamma scaling table to CSV", _cmd_scaling, {
        **_pick("--model", "--phi", "--time", "--tol", "--out", "--b", "--theta", "--model-phi"),
        "--alphas": dict(default="0.7853981633974483", help="comma-separated probe angles"),
        "--dims": dict(default="4-12", help="dimensions, N,N,... or LO-HI"),
    }),
    "fim-rank": ("FIM rank Monte-Carlo report to JSON", _cmd_fim_rank, {
        **_pick("--out"),
        "--params": dict(type=int, default=2, help="number of parameters d"),
        "--outcomes": dict(type=int, default=3, help="number of outcomes n"),
        "--trials": dict(type=int, default=1000, help="number of trials"),
        "--seed": dict(type=int, default=0, help="RNG seed"),
    }),
}


class _FlagTable:
    """One subcommand's flags as :meth:`parse` reads them, from the
    ``add_argument`` keywords its parser is built with: each option
    string's destination (argparse's: the string without its leading
    ``--``, with ``_`` for ``-``), type and choices, the defaults and the
    required destinations."""

    def __init__(self, flags: dict):
        self.flags = {flag: (flag[2:].replace("-", "_"), keywords.get("type", str),
                             keywords.get("choices"))
                      for flag, keywords in flags.items()}
        self.defaults = {self.flags[flag][0]: keywords.get("default")
                         for flag, keywords in flags.items()}
        self.required = {self.flags[flag][0]
                         for flag, keywords in flags.items() if keywords.get("required")}

    def parse(self, args: list[str]) -> argparse.Namespace | None:
        """The subcommand parser's namespace for ``args`` of the plain form
        ``(--flag VALUE)*`` (see the module docstring), else ``None``.  Such
        an argv has one reading in argparse's grammar, which this is."""
        if len(args) % 2:
            return None
        values = dict(self.defaults)
        missing = set(self.required)
        for flag, text in zip(args[::2], args[1::2]):
            if flag not in self.flags or text.startswith("-"):
                return None
            dest, convert, choices = self.flags[flag]
            try:
                value = convert(text)
            except (TypeError, ValueError):
                return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
            missing.discard(dest)
        return None if missing else argparse.Namespace(**values)


_TABLES = {name: _FlagTable(flags) for name, (_, _, flags) in _SUBCOMMANDS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``spinmetro`` argument parser, built from :data:`_SUBCOMMANDS`
    on first use.  It keeps no state between parses, so every caller gets
    the same object, to parse with and not to change."""
    parser = argparse.ArgumentParser(
        prog="spinmetro",
        description="Precision bounds and measurement incompatibility for "
        "su(2) unitary estimation models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, flags) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=help_line)
        for flag, keywords in flags.items():
            subparser.add_argument(flag, **keywords)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, read from a known subcommand's
    flag table where that takes the flags."""
    table = _TABLES.get(argv[0]) if argv else None
    args = table.parse(argv[1:]) if table else None
    if args is None:
        return build_parser().parse_args(argv)
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        with np.errstate(over="raise", invalid="raise"):
            _SUBCOMMANDS[args.command][1](args)
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
