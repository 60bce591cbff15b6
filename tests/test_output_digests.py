"""Every output of the benchmark's workload ops, byte for byte.

``output_digests.json`` beside this file holds one sha256 and one exit code
per op of the five ``perfbench/workloads.py`` workloads (known-failures
included) at seeds 1 and 2, with ``--out`` rewritten into a temporary
directory, and the numpy version and BLAS configuration that made them.
It is a regression guard, not an oracle: it shows that an output changed,
not that either version is right.  A change that alters outputs on purpose
regenerates the file with ``PYTHONPATH=src python tests/test_output_digests.py``
and lists the changed files and the reason in CHANGES.md.

Under another numpy or BLAS build the test still compares every file and
fails on any difference, naming both builds: a different build may change
the last bits of a float, and whether it did, or the code did, is for the
reader of the failure to decide before regenerating.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from spinmetro import cli

from conftest import workload_ops

DIGESTS = Path(__file__).resolve().parent / "output_digests.json"


def build() -> dict:
    """This process's numpy version and BLAS configuration."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}: {blas.get('openblas configuration', '')}"}


def run_ops(out_dir: Path) -> dict:
    """``{name: [exit code, sha256 of the output or None]}`` for every workload op."""
    out = out_dir / "out"
    results = {}
    with contextlib.redirect_stderr(io.StringIO()):
        for name, argv in workload_ops():
            try:
                code = cli.main([*argv[:-1], str(out)])
            except SystemExit as exc:
                code = exc.code
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            out.unlink(missing_ok=True)
            results[name] = [code, digest]
    return results


def test_workload_outputs_match_digests(tmp_path):
    recorded = json.loads(DIGESTS.read_text())
    results = run_ops(tmp_path)
    assert len(results) == len(recorded["outputs"]) == 554
    changed = sorted(name for name in recorded["outputs"]
                     if results.get(name) != recorded["outputs"][name])
    here = build()
    builds = "" if all(recorded[k] == v for k, v in here.items()) else (
        f"; recorded under numpy {recorded['numpy']} with {recorded['blas']}, "
        f"run under numpy {here['numpy']} with {here['blas']}")
    assert not changed, f"{len(changed)} outputs differ{builds}: {', '.join(changed)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        outputs = run_ops(Path(tmp))
    head = {"about": "Regression guard, not an oracle: the exit code and sha256 of each output "
                     "of the perfbench workloads at seeds 1 and 2, from "
                     "tests/test_output_digests.py, which says how to regenerate it.",
            **build()}
    # one output a line, so that a diff of the file names the changed outputs
    entries = ",\n".join(f"  {json.dumps(name)}: {json.dumps(outputs[name])}"
                         for name in sorted(outputs))
    fields = "".join(f"{json.dumps(k)}: {json.dumps(v)},\n" for k, v in head.items())
    DIGESTS.write_text(f'{{\n{fields}"outputs": {{\n{entries}\n}}\n}}\n')
    print(f"wrote {len(outputs)} digests to {DIGESTS}", file=sys.stderr)
