"""Names the benchmark's tracer wraps must exist in the library.

``perfbench/spans.py`` resolves each ``per_layer`` target of
``BENCHMARK.json`` as ``spinmetro.<module>`` followed by attribute lookups;
a library name that disappears makes ``perfbench/run.py --trace 1`` fail.
This test only reads the file.
"""

import importlib
import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_per_layer_targets_resolve():
    spec = json.loads(BENCHMARK.read_text())
    targets = sorted({m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]} - {"trace"})
    assert targets
    missing = []
    for name in targets:
        module_name, *attrs = name.split(".")
        owner = importlib.import_module(f"spinmetro.{module_name}")
        for attr in attrs:
            if not hasattr(owner, attr):
                missing.append(name)
                break
            owner = getattr(owner, attr)
        else:
            if not callable(owner):
                missing.append(name)
    assert missing == []
