"""spinmetro benchmark: time one workload of ``spinmetro`` CLI ops.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reports --seed 1 --seconds 15 --trace 0

Each workload (see ``workloads.py``) runs in its own worker process, which
imports ``spinmetro`` from this checkout's ``src/`` and calls
``spinmetro.cli.main`` in-process for every op.  With ``--trace 0`` the last
stdout line holds the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` it holds the per-layer metrics, measured by a second set of
passes that wraps the library's public functions (``spans.py``), and the
spans go to ``.perfbench_work/``.  The line before it is the run record.
``--workload known-failures``, which ``BENCHMARK.json`` does not list,
replays inputs on which ops fail today, to show how failures are counted.

``wall_ref``, ``op_p50_ref`` and ``op_p90_ref`` are op times in units of a
fixed reference kernel timed beside the ops (``reference.py``): each op's
median over the run's passes, summed or taken at a percentile over the ops.
The run record also gives the raw seconds and the kernel's own time.

``setup_s`` runs from just before a worker process starts to its first
timed op: interpreter start, numpy and spinmetro imports and input
generation.  It is the median over ``SETUP_SAMPLES`` processes, the timed
worker included; set-up-only processes run before and after the timed
worker, so the samples span the run rather than one moment of the host's
load.  BLAS runs single-threaded (``BLAS_THREADS``) so one run
does not compete with itself for the cores.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK_DIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 7
BLAS_THREADS = 1
# Each run must end within 180 s; this leaves time to kill a stuck worker.
DEADLINE_S = 170.0


def _worker_argv(args, *extra) -> list[str]:
    return [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawn-time", repr(time.perf_counter()), *extra,
    ]


def _run_worker(argv, env, deadline, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=env, timeout=deadline - time.perf_counter(),
                          check=True, **kwargs)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="Run one spinmetro benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spinmetro" / "__init__.py").is_file():
        print(f"perfbench: no spinmetro sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    WORK_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{args.trace}"
    result_path = WORK_DIR / f"result-{tag}.json"
    result_path.unlink(missing_ok=True)
    deadline = started + DEADLINE_S

    def setup_samples(count):
        for _ in range(0 if args.trace else count):
            done = _run_worker(_worker_argv(args, "--setup-only"), env, deadline,
                               capture_output=True, text=True)
            setups.append(float(done.stdout.strip().splitlines()[-1]))

    setups = []
    try:
        setup_samples(SETUP_SAMPLES // 2)
        # The worker's own stdout/stderr (LAPACK writes straight to the file
        # descriptors) go to a log, so they cannot corrupt the result line.
        with open(WORK_DIR / f"worker-{tag}.log", "w") as log:
            _run_worker(_worker_argv(args, "--result", str(result_path)), env, deadline,
                        stdout=log, stderr=subprocess.STDOUT)
        setup_samples(SETUP_SAMPLES - 1 - SETUP_SAMPLES // 2)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        if getattr(exc, "stderr", None):
            print(exc.stderr, file=sys.stderr)
        return 1

    result = json.loads(result_path.read_text())
    if not args.trace:
        unit = next(m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
                    if m["name"] == "setup_s")
        setups.append(result["setup_s"])
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": unit}
        result["record"]["setup_samples_s"] = setups
    print(json.dumps({"run_record": result["record"]}, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
