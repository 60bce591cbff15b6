"""Seeded ``spinmetro`` argv lists, one list per workload.

Every op is a full command line for ``spinmetro.cli.main``.  Probe angles
and field points are drawn from ``random.Random("<workload>/<seed>")``, so
the same seed gives the same argv list on every machine and Python
version.  Fields are drawn inside one field period ``B in [0, 2 pi / t)``
at ``t = 5``, the regime the paper's incompatibility maps cover.

The cost of a ``metrics`` op grows with ``B`` (the series oracle needs
more terms), so the points of each (model, N) group are stratified: one
draw per equal slice of each range, shuffled.  A group's total work then
barely depends on the seed, while its points still change with it.
"""

from __future__ import annotations

import math
import random

__all__ = ["WORKLOADS", "OUT_DIR", "build_ops"]

OUT_DIR = ".perfbench_work/out"
TIME = 5.0
TWO_PI = 2 * math.pi
QUARTER_PI = "0.7853981633974483"


def _f(x: float) -> str:
    return repr(float(x))


def _probe(rng: random.Random) -> list[str]:
    return ["--alpha", _f(rng.uniform(0.0, math.pi / 2)), "--phi", _f(rng.uniform(0.0, TWO_PI))]


def _point(rng: random.Random) -> list[str]:
    return [
        "--b", _f(rng.uniform(0.0, TWO_PI / TIME)),
        "--theta", _f(rng.uniform(0.0, TWO_PI)),
        "--model-phi", _f(rng.uniform(0.0, TWO_PI)),
    ]


_METRICS_RANGES = {
    "--alpha": (0.0, math.pi / 2),
    "--phi": (0.0, TWO_PI),
    "--b": (0.0, TWO_PI / TIME),
    "--theta": (0.0, TWO_PI),
    "--model-phi": (0.0, TWO_PI),
}


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[str]:
    values = [_f(lo + (hi - lo) * (k + rng.random()) / count) for k in range(count)]
    rng.shuffle(values)
    return values


def _scans(rng: random.Random, dims: dict, grid: str) -> list[list[str]]:
    return [
        ["scan", "--model", model, "--dim", str(n), *_probe(rng),
         "--model-phi", _f(rng.uniform(0.0, TWO_PI)), "--time", _f(TIME), "--grid", grid]
        for model, model_dims in dims.items()
        for n in model_dims
    ]


def _metrics(rng: random.Random, dims, points: int) -> list[list[str]]:
    ops = []
    for model in ("two", "three"):
        for n in dims:
            draws = {flag: _strata(rng, points, *r) for flag, r in _METRICS_RANGES.items()}
            for k in range(points):
                ops.append(
                    ["metrics", "--model", model, "--dim", str(n),
                     *(x for flag in draws for x in (flag, draws[flag][k])), "--time", _f(TIME)]
                )
    return ops


# Scans use a 51x51 grid: the work per cell is that of a 101x101 scan, and
# ops of at most ~0.3 s are bracketed closely by the reference kernel the
# worker times between ops (reference.py).
def _scan_small(rng):
    # The two-parameter qubit scan is left out: about one probe in a hundred
    # puts a cell just above the singular threshold whose spectrum is not
    # numerically real, and the whole scan exits 1.  ``known-failures``
    # keeps such a probe.
    return _scans(rng, {"two": (3, 4, 5), "three": (2, 3, 4)}, "51x51")


def _scan_large(rng):
    # N = 200 would need a ~13 GB generator stack; N = 40 already shows the N^2 growth.
    return _scans(rng, {"two": (40,), "three": (40,)}, "51x51")


def _reports(rng):
    # N stops at 12: from N = 14 the series oracle fails for part of the field
    # period (exit 1), and at N = 48 a LinAlgError escapes main.  Those points
    # live in the unlisted ``known-failures`` workload.  Twenty points per
    # (model, N) group sample each group's cost curve densely enough that the
    # p90 over ops barely moves with the seed.
    ops = _metrics(rng, (2, 3, 4, 6, 8, 12), 20)
    for params, outcomes in ((2, 3), (3, 4)):
        ops.append(
            ["fim-rank", "--params", str(params), "--outcomes", str(outcomes),
             "--trials", "1000", "--seed", str(rng.randrange(2**31))]
        )
    return ops


def _known_failures(rng):
    qubit_scan = ["scan", "--model", "two", "--dim", "2", "--alpha", "0.37158525549893223",
                  "--phi", "5.2500698813462865", "--time", _f(TIME), "--grid", "51x51"]
    return [qubit_scan, *_metrics(rng, (16, 24, 32, 48), 3)]


def _scaling(rng):
    # Every fourth N up to 240 keeps the large-N end of the table while each
    # op stays near 0.3 s (see the scan grids above).
    return [
        ["scaling", "--model", model, "--alphas",
         f"{QUARTER_PI},{_f(rng.uniform(0.1, math.pi / 2 - 0.1))}",
         "--dims", ",".join(str(n) for n in range(4, 241, 4)),
         "--phi", _f(rng.uniform(0.0, TWO_PI)), *_point(rng), "--time", _f(TIME)]
        for model in ("two", "three")
    ]


WORKLOADS = {
    "scan-small": _scan_small,
    "scan-large": _scan_large,
    "reports": _reports,
    "scaling": _scaling,
    # Not in BENCHMARK.json: most of its ops fail today (a non-real spectrum
    # on one scan cell, series non-convergence, an escaped LinAlgError), and
    # the failure accounting attributes each one.
    "known-failures": _known_failures,
}

_EXT = {"scan": "csv", "scaling": "csv", "metrics": "json", "fim-rank": "json"}


def build_ops(workload: str, seed: int) -> list[list[str]]:
    """The workload's argv list for ``seed``, each op writing its own output file."""
    ops = WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
    return [
        [*argv, "--out", f"{OUT_DIR}/op{i:03d}.{_EXT[argv[0]]}"] for i, argv in enumerate(ops)
    ]
