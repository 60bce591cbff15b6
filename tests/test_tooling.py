"""Files beside the library that name parts of it must stay in step with it.

``perfbench/spans.py`` resolves each ``per_layer`` target of
``BENCHMARK.json`` as ``spinmetro.<module>`` followed by attribute lookups;
a library name that disappears makes ``perfbench/run.py --trace 1`` fail.
README's command-line examples must parse with the current parser, and
every name a module lists in ``__all__`` must exist on it.  These tests
only read the files.
"""

import importlib
import json
import re
import shlex
from pathlib import Path

from spinmetro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


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


def test_module_exports_resolve():
    package = importlib.import_module("spinmetro")
    modules = [p.stem for p in Path(package.__file__).parent.glob("*.py")
               if not p.stem.startswith("_")]
    assert len(modules) >= 7
    missing = []
    for module_name in modules:
        module = importlib.import_module(f"spinmetro.{module_name}")
        missing += [f"{module_name}.{name}" for name in getattr(module, "__all__", ())
                    if not hasattr(module, name)]
    assert missing == []


def test_readme_command_lines_parse():
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [
        shlex.split(line)[1:]
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("spinmetro ")
    ]
    assert len(commands) == 4
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)
