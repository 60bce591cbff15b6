"""One workload process: set up, time passes over the ops, check outputs.

Started by ``run.py``; not meant to be run by hand.  With ``--setup-only``
the process stops after set-up and prints its set-up time, so ``run.py``
can take the median over several set-ups.  Otherwise it writes its
metrics and run record to ``--result`` as JSON.

An op is one in-process ``spinmetro.cli.main(argv)`` call, the path the
console script takes.  It fails on a nonzero exit code (``exit1`` for the
documented numerical failure), on an exception escaping ``main``
(``escaped``), or when the correctness gate rejects its output.  The gate
runs between passes, outside every timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.metadata
import io
import json
import os
import resource
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spinmetro  # noqa: E402
from spinmetro import cli  # noqa: E402

import gate  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

MAX_FAILURE_RECORDS = 20
# The reference kernel runs before the first op of a pass and again after
# each stretch of ops that took at least this long, so an op is compared
# with the host's speed of the same fraction of a second.
REF_EVERY_S = 0.05


def run_op(argv):
    """Run one op; return ``(code, seconds, runtime_warnings, stderr)``.

    ``code`` is main's return value, the exit code of a ``SystemExit``, or
    ``"escaped"`` for any other exception, whose traceback replaces stderr.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an escaped exception is a measured failure, not a crash
            code = "escaped"
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
    n_warnings = sum(issubclass(w.category, RuntimeWarning) for w in caught)
    return code, seconds, n_warnings, err.getvalue()


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Measurement:
    """Passes over one op list, with failure accounting and output checks."""

    def __init__(self, ops, tracer: Tracer | None = None):
        self.ops = ops
        self.tracer = tracer
        self.walls: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in ops]
        self.relative: list[list[float]] = [[] for _ in ops]
        self.refs: list[float] = []
        self.pass_counts: list[dict] = []
        self.pass_stats: list[dict] = []
        self.failures: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self._verified: dict[int, str] = {}

    def run_pass(self) -> None:
        """Run every op once, timing the reference kernel around each stretch of ops.

        An op's relative time is its seconds divided by the mean of the
        two reference timings that bracket its stretch.
        """
        gc.collect()
        if self.tracer is not None:
            self.tracer.recording = True
        results = []
        before, stretch, stretch_s = reference.timed(), [], 0.0
        self.refs.append(before)
        for i, argv in enumerate(self.ops):
            if self.tracer is not None:
                self.tracer.op = self.attempted + i
            results.append(run_op(argv))
            stretch.append(i)
            stretch_s += results[-1][1]
            if stretch_s >= REF_EVERY_S or i == len(self.ops) - 1:
                after = reference.timed()
                self.refs.append(after)
                for j in stretch:
                    self.relative[j].append(results[j][1] / ((before + after) / 2))
                before, stretch, stretch_s = after, [], 0.0
        self.walls.append(sum(r[1] for r in results))
        if self.tracer is not None:
            self.tracer.recording = False
            self.pass_stats.append(self.tracer.take_stats())
        self._account(results)

    def _account(self, results) -> None:
        counts = {"exit1": 0, "escaped": 0, "exit_other": 0, "gate": 0, "warnings": 0}
        for i, (argv, (code, seconds, n_warnings, stderr)) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            self.latencies[i].append(seconds)
            counts["warnings"] += n_warnings
            if code == 0:
                digest = _digest(argv[-1])
                if self._verified.get(i) == digest:
                    continue
                problems = gate.check(argv)
                if not problems:
                    self._verified[i] = digest
                    continue
                kind, detail = "gate", problems[0]
            else:
                kind = {1: "exit1", "escaped": "escaped"}.get(code, "exit_other")
                detail = stderr.strip().splitlines()[-1] if stderr.strip() else ""
            counts[kind] += 1
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_RECORDS:
                self.failures.append({"op": i, "argv": argv, "kind": kind, "detail": detail})
        self.pass_counts.append(counts)

    def measure(self, seconds: float) -> "Measurement":
        """Run whole passes until ``seconds`` have elapsed, at least one."""
        start = perf_counter()
        while not self.walls or perf_counter() - start < seconds:
            self.run_pass()
        return self

    def best_latencies(self) -> list[float]:
        """Each op's fastest latency over the passes, in seconds (the
        ``timeit`` convention), for the traced run's per-layer times."""
        return [min(samples) for samples in self.latencies]

    def relative_latencies(self) -> list[float]:
        """Each op's median time over the passes, in reference-kernel units.

        The host's speed changes between and within runs (see
        ``reference.py``); the ratio to the kernel timed beside the op
        does not, and the median over passes discards the moments when the
        two were caught at different speeds.
        """
        return [float(np.median(samples)) for samples in self.relative]


def _end_to_end(m: Measurement, units: dict) -> dict:
    rel = m.relative_latencies()
    values = {
        "wall_ref": sum(rel),
        "op_p50_ref": float(np.percentile(rel, 50)),
        "op_p90_ref": float(np.percentile(rel, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: {"value": v, "unit": units[k]} for k, v in values.items() if k in units}


def _per_layer(untraced: Measurement, traced: Measurement, units: dict) -> dict:
    out = {}
    for name, unit in units.items():
        target, stat = name.rsplit(".", 1)
        if target == "trace":
            base = sum(untraced.best_latencies())
            value = {"overhead_s": sum(traced.best_latencies()) - base, "untraced_wall_s": base}[stat]
        elif target == "cli.main" and stat in traced.pass_counts[0]:
            value = min(c[stat] for c in traced.pass_counts)
        else:
            # Counts repeat exactly from pass to pass; for times, the fastest
            # pass, as for the end-to-end figures.
            value = min(s.get(target, {}).get(stat, 0) for s in traced.pass_stats)
        out[name] = {"value": value, "unit": unit}
    return out


def _git_rev() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        return (git / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        return None


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _record(args, measurements) -> dict:
    attempted = sum(m.attempted for m in measurements)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "spinmetro": spinmetro.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "ops_per_pass": len(measurements[0].ops),
        "passes": [len(m.walls) for m in measurements],
        "pass_wall_s": [m.walls for m in measurements],
        "ref_kernel_s": [float(np.median(m.refs)) for m in measurements],
        "op_best_s_sum": [sum(m.best_latencies()) for m in measurements],
        "attempted": attempted,
        "failed_frac": sum(m.failed for m in measurements) / attempted,
        "op_counts": {
            kind: sum(c[kind] for m in measurements for c in m.pass_counts)
            for kind in measurements[0].pass_counts[0]
        },
        "failures": [f for m in measurements for f in m.failures][:MAX_FAILURE_RECORDS],
        "stack_bytes": "computed from the generator stack shape (G*d*N*N*16), not measured",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-time", type=float, required=True,
                        help="perf_counter() of the parent just before this process started")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", help="where to write the result JSON")
    args = parser.parse_args(argv)

    if not Path(spinmetro.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"spinmetro imported from {spinmetro.__file__}, not this checkout", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ops = workloads.build_ops(args.workload, args.seed)
    Path(ops[0][-1]).parent.mkdir(parents=True, exist_ok=True)
    setup_s = perf_counter() - args.spawn_time
    if args.setup_only:
        print(repr(setup_s))
        return 0

    if args.trace:
        # A first, uncompared pass takes lazy imports and cold caches out of
        # the overhead figure; then untraced and traced passes alternate.
        warm = Measurement(ops).measure(0)
        tracer = Tracer(sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"trace"}))
        untraced, traced = Measurement(ops), Measurement(ops, tracer)
        start = perf_counter()
        while not traced.walls or perf_counter() - start < args.seconds:
            untraced.run_pass()
            tracer.install()
            try:
                traced.run_pass()
            finally:
                tracer.uninstall()
        measurements = [warm, untraced, traced]
        metrics = _per_layer(untraced, traced, {m["name"]: m["unit"] for m in spec["per_layer"]})
    else:
        measurements = [Measurement(ops).measure(args.seconds)]
        metrics = _end_to_end(measurements[0], {m["name"]: m["unit"] for m in spec["end_to_end"]})

    record = _record(args, measurements)
    failed = sum(m.failed for m in measurements)
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "record": record,
    }
    if args.trace:
        spans_path = ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.json"
        spans = [
            {"op": op, "name": name, "start": start, "end": end, "parent": parent}
            for op, name, start, end, parent in tracer.spans
        ]
        spans_path.write_text(json.dumps({"record": record, "spans": spans}))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
