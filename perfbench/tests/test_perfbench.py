"""Tests of the benchmark itself: inputs, determinism, the gate, accounting, tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gate
import worker
import workloads
from spans import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
LISTED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    Path(workloads.OUT_DIR).mkdir(parents=True)


def _run(argv):
    code, _, _, stderr = worker.run_op(argv)
    assert code == 0, stderr
    return Path(argv[-1])


def test_listed_workloads_exist():
    assert set(LISTED) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    assert workloads.build_ops(name, 7) == workloads.build_ops(name, 7)
    assert workloads.build_ops(name, 7) != workloads.build_ops(name, 8)


def test_two_passes_give_byte_identical_correct_outputs():
    ops = [
        workloads.build_ops("scan-small", 3)[0],
        *workloads.build_ops("reports", 3)[:12:4],
        workloads.build_ops("reports", 3)[-1],
    ]
    m = worker.Measurement(ops)
    digests = []
    for _ in range(2):
        m.run_pass()
        digests.append([worker._digest(argv[-1]) for argv in ops])
    assert m.failed == 0 and m.attempted == 2 * len(ops)
    assert digests[0] == digests[1]
    assert all(len(r) == 2 and min(r) > 0 for r in m.relative)
    assert len(m.refs) >= 2 * 2


def _tamper_csv(path, row, col, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_gate_catches_tampered_scan():
    argv = ["scan", "--model", "two", "--dim", "2", "--alpha", "0.5", "--phi", "0.3",
            "--time", "5.0", "--grid", "51x51", "--out", f"{workloads.OUT_DIR}/s.csv"]
    out = _run(argv)
    assert gate.check(argv) == []
    original = out.read_text()
    lines = original.splitlines()
    # Shift R on every regular cell and keep T = R - Delta consistent, so
    # only the closed-form comparison can catch it.
    for i, line in enumerate(lines[1:], 1):
        cells = line.split(",")
        if cells[6] == "0":
            r, delta = float(cells[2]) - 0.01, float(cells[3])
            cells[2], cells[4] = repr(r), repr(r - delta)
            lines[i] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    assert any("closed form" in p for p in gate.check(argv))
    out.write_text(original)
    row = next(i for i, line in enumerate(lines) if line.endswith(",0"))
    _tamper_csv(out, row, 6, "1")
    assert gate.check(argv)


def test_gate_catches_tampered_metrics():
    argv = next(op for op in workloads.build_ops("reports", 3) if op[4] == "6")
    out = _run(argv)
    assert gate.check(argv) == []
    doc = json.loads(out.read_text())
    doc["Q"][0][0] *= 1 + 1e-6
    out.write_text(json.dumps(doc))
    assert gate.check(argv)


@pytest.mark.parametrize("model", ["two", "three"])
def test_gate_catches_tampered_scaling(model):
    argv = ["scaling", "--model", model, "--alphas", f"{workloads.QUARTER_PI},0.5",
            "--dims", "4-12", "--b", "0.9", "--theta", "0.6", "--model-phi", "0.4",
            "--time", "5.0", "--out", f"{workloads.OUT_DIR}/g.csv"]
    out = _run(argv)
    assert gate.check(argv) == []
    _tamper_csv(out, 3, 2, "7.0")
    assert gate.check(argv)


def test_gate_catches_tampered_fim_rank():
    argv = ["fim-rank", "--params", "3", "--outcomes", "4", "--trials", "20", "--seed", "1",
            "--out", f"{workloads.OUT_DIR}/r.json"]
    out = _run(argv)
    assert gate.check(argv) == []
    doc = json.loads(out.read_text())
    doc["rank_violations"] = 1
    out.write_text(json.dumps(doc))
    assert gate.check(argv)


def test_failures_are_attributed(monkeypatch):
    def fake_main(argv):
        if argv[0] == "escape":
            raise np.linalg.LinAlgError("SVD did not converge")
        warnings.warn("overflow", RuntimeWarning)
        print("spinmetro: numerical consistency failure", file=sys.stderr)
        return 1

    monkeypatch.setattr(worker.cli, "main", fake_main)
    m = worker.Measurement([["escape", "--out", "a"], ["exit", "--out", "b"]])
    m.run_pass()
    assert m.failed == 2 and m.attempted == 2
    assert m.pass_counts[0] == {"exit1": 1, "escaped": 1, "exit_other": 0, "gate": 0, "warnings": 1}
    assert "LinAlgError" in m.failures[0]["detail"]
    assert "numerical consistency failure" in m.failures[1]["detail"]


def test_tracer_wraps_every_binding_and_restores():
    import spinmetro
    from spinmetro import linalg, metrology, models

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"trace"})
    originals = (linalg.sym_inverse, spinmetro.analysis.ScanResult.write_csv)
    tracer = Tracer(targets)
    tracer.install()
    try:
        wrapped = [linalg.sym_inverse, metrology.sym_inverse, models.sym_inverse,
                   spinmetro.sym_inverse]
        assert all(f.__wrapped__ is originals[0] for f in wrapped)
        assert spinmetro.analysis.ScanResult.write_csv.__wrapped__ is originals[1]
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        d = np.array([[0.0, 0.4], [-0.4, 0.0]])
        metrology.ai_measure(q, d)
        assert tracer.spans == [] and tracer.stats == {}
        tracer.recording = True
        metrology.ai_measure(q, d)
    finally:
        tracer.uninstall()
    assert (linalg.sym_inverse, spinmetro.analysis.ScanResult.write_csv) == originals
    assert models.sym_inverse is originals[0]
    names = [span[1] for span in tracer.spans]
    assert names == ["metrology.ai_measure", "linalg.sym_inverse", "linalg.spectral_absmax"]
    assert [span[4] for span in tracer.spans] == [-1, 0, 0]
    outer = tracer.spans[0][3] - tracer.spans[0][2]
    children = sum(end - start for _, _, start, end, _ in tracer.spans[1:])
    stats = tracer.take_stats()
    assert stats["metrology.ai_measure"]["self_s"] == pytest.approx(outer - children)
    assert stats["linalg.sym_inverse"]["calls"] == 1


def test_run_refuses_checkout_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", LISTED[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
