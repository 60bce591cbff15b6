"""Files beside the library that name parts of it must stay in step with it.

``perfbench/spans.py`` resolves each ``per_layer`` target of
``BENCHMARK.json`` as ``spinmetro.<module>`` followed by attribute lookups;
a library name that disappears makes ``perfbench/run.py --trace 1`` fail.
README's command-line examples must parse with the current parser, and
each command must have its own cached parser to be parsed by; README's
library example must run, every `` `module.name` `` it cites must exist,
and every name a module lists in ``__all__`` must exist on it.  A name
is exported, by a module or by the package, only if the command line
reaches it or the library example names it, and the default singular
threshold is written once, ``linalg.SINGULAR_TOL``.  These
tests only read the files, except that the library example is executed.
Every file the library writes is opened in one place,
``analysis._write_text``, every CSV field is formatted in one place,
``analysis._write_csv``, and JSON is formatted by ``analysis.write_json``
alone, by one ``json.dumps`` call for every doc.  The report module
builds no dense generator route: its oracle routes are the su(2) vector
forms.  Q^-1 and the singular rule are computed in one function,
``linalg.eigh_inverse``, and every matrix argument is checked by one
rule, ``linalg.require_symmetric``.  No stacked ``@`` takes a transposed
view as an operand, except where a named exception says why.  A grid is
cut into blocks by one rule, ``analysis._grid_blocks``, for the scan and
the writer alike.  Every field of the command configs and every parameter
of the scaling and report drivers is passed by a command handler of
``cli.py``.  The one thread the library starts is ``analysis.run_scan``'s
helper, and importing the library starts none.
"""

import argparse
import ast
import contextlib
import dataclasses
import importlib
import inspect
import io
import json
import os
import re
import shlex
import subprocess
import sys
import types
from pathlib import Path

import pytest

from spinmetro import analysis, cli
from spinmetro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "spinmetro"
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


def test_cli_reads_no_private_argparse_name():
    # The flag table reads only the keywords the parsers are built from, so
    # cli.py reads no underscore name of argparse, whether an attribute of a
    # parser or action (_actions, _option_string_actions) or of the module
    # (_StoreAction) or imported from it; nor does it look names up by
    # getattr or vars.
    tree = ast.parse((SRC / "cli.py").read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in ("getattr", "vars"):
            private.append(f"line {node.lineno}: {ast.unparse(node)}")  # no lookup by name
            continue
        names = ([node.attr] if isinstance(node, ast.Attribute) else
                 [alias.name for alias in node.names]
                 if isinstance(node, ast.ImportFrom) and node.module == "argparse" else [])
        private += [f"line {node.lineno}: {name}" for name in names
                    if name.startswith("_") and not name.startswith("__")]
    assert private == []


def test_flag_tables_match_parsers():
    # Each subcommand's flags are declared once, in cli._SUBCOMMANDS: its
    # parser's options and its flag table must say the same of every flag
    # (destination, default, type, choices, required), so the table path
    # cannot drift from the parser.
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    assert subparsers.choices.keys() == cli._SUBCOMMANDS.keys() == cli._TABLES.keys()
    for name, subparser in subparsers.choices.items():
        table = cli._TABLES[name]
        actions = [a for a in subparser._actions if a.dest != "help"]
        declared = cli._SUBCOMMANDS[name][2]
        assert [a.option_strings for a in actions] == [[flag] for flag in declared]
        for action in actions:
            flag = action.option_strings[0]
            assert table.flags[flag] == (action.dest, action.type or str, action.choices)
            assert table.defaults[action.dest] == action.default
            assert (action.dest in table.required) == action.required
            assert action.nargs is None and action.const is None
            assert not (isinstance(action.default, str) and action.type), flag
        assert len(table.flags) == len(table.defaults) == len(actions)


def test_cli_passes_every_library_option():
    # A command handler passes each field of the scan and rank configs, and
    # each parameter of the scaling and report drivers, by name, so no
    # library option lives on that no command can set.
    options = {
        "ScanConfig": [field.name for field in dataclasses.fields(analysis.ScanConfig)],
        "RankExperimentConfig": [field.name
                                 for field in dataclasses.fields(analysis.RankExperimentConfig)],
        "scaling_table": list(inspect.signature(analysis.scaling_table).parameters),
        "metrics_report": list(inspect.signature(analysis.metrics_report).parameters),
    }
    handlers = {handler.__name__ for _, handler, _ in cli._SUBCOMMANDS.values()}
    passed = {name: set() for name in options}
    for fn in ast.parse((SRC / "cli.py").read_text()).body:
        if isinstance(fn, ast.FunctionDef) and fn.name in handlers:
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) in passed:
                    passed[ast.unparse(node.func)].update(kw.arg for kw in node.keywords)
    missing = [f"{name}.{option}" for name, names in options.items()
               for option in names if option not in passed[name]]
    assert missing == []


def test_readme_library_example_runs():
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(block, "README.md", "exec"), {})
    assert float(printed.getvalue().split()[0]) == pytest.approx(0.5, abs=1e-12)


def test_readme_names_resolve():
    # Only a name that opens a backtick span counts, so ``np.linalg.norm``
    # is not read as ``linalg.norm``.
    modules = sorted(p.stem for p in SRC.glob("*.py") if not p.stem.startswith("_"))
    pattern = rf"`({'|'.join(modules)})\.([A-Za-z_]\w*)"
    cited = set(re.findall(pattern, (ROOT / "README.md").read_text()))
    assert len(cited) >= 10
    missing = [f"{module}.{name}" for module, name in sorted(cited)
               if not hasattr(importlib.import_module(f"spinmetro.{module}"), name)]
    assert missing == []


def _opens(tree):
    """Line numbers of the ``open``-like calls under ``tree``: ``open(...)``
    and any ``x.open(...)``, ``x.write_text(...)`` or ``x.write_bytes(...)``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute)
                and func.attr in ("open", "write_text", "write_bytes")
            ):
                lines.append(node.lineno)
    return lines


def test_one_place_opens_files():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    writer, stray = [], []
    for path in files:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (path.name == "analysis.py" and isinstance(node, ast.FunctionDef)
                    and node.name == "_write_text"):
                writer += _opens(node)
            else:
                stray += [f"{path.name}:{line}" for line in _opens(node)]
    assert len(writer) == 1  # os.open, whose descriptor os.write writes
    assert stray == []


def test_one_place_formats_csv_fields():
    # Every CSV field is formatted in analysis._write_csv: no other line of
    # the library, code or comment, names the 17-digit float format.
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    writer, stray = [], []
    for path in files:
        text = path.read_text()
        span = range(0)
        if path.name == "analysis.py":
            node = next(node for node in ast.parse(text, filename=str(path)).body
                        if isinstance(node, ast.FunctionDef) and node.name == "_write_csv")
            span = range(node.lineno, node.end_lineno + 1)
        for lineno, line in enumerate(text.splitlines(), 1):
            if ".17g" in line:
                (writer if lineno in span else stray).append(f"{path.name}:{lineno}")
    assert writer
    assert stray == []


def test_one_place_formats_json():
    # json.dumps is called in analysis.write_json alone, for every doc.
    dumps = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            targets = getattr(node, "targets", [])
            name = getattr(node, "name", None) or ",".join(map(ast.unparse, targets))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "dumps":
                    dumps.append(f"{path.stem}.{name}")
    assert dumps == ["analysis.write_json"]


def test_one_inverse_rule():
    # linalg.eigh_inverse is the one place that applies the singular rule and
    # checks an inverse; np.linalg.inv appears only in the Cholesky reference
    # metrology.incompat_operator, pinned by the benchmark.  Each entry names
    # the top-level definition that holds the call.
    places = {"np.linalg.inv": [], "singular_mask": [], "check_inverse": []}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            owner = f"{path.stem}.{getattr(node, 'name', node.lineno)}"
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute) and sub.attr == "inv":
                    places.setdefault(ast.unparse(sub), []).append(owner)
                elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                      and sub.func.id in places):
                    places[sub.func.id].append(owner)
    assert places == {"np.linalg.inv": ["metrology.incompat_operator"],
                      "singular_mask": ["linalg.eigh_inverse"],
                      "check_inverse": ["linalg.eigh_inverse"]}


def test_one_matrix_rule():
    # linalg.require_symmetric is the one matrix rule: its square check,
    # linalg._require_finite_square, is called by it and by linalg._as_square
    # (that check for one matrix) alone.  No function in the library casts
    # one of its own arguments with np.asarray(..., dtype=float or complex):
    # a real array goes through linalg.require_floats and a matrix through
    # the matrix rule.  No require_* rule is passed a tol=, in the library
    # or in the test oracles.  Each entry names the function that holds the
    # call.
    places = {"_require_finite_square": set(), "cast": set(), "tol=": set()}
    for path in [*sorted(SRC.glob("*.py")), ROOT / "tests" / "oracles.py"]:
        for func in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)):
                continue
            owner = f"{path.stem}.{getattr(func, 'name', 'lambda')}"
            params = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
            for call in ast.walk(func):
                if not isinstance(call, ast.Call):
                    continue
                callee = ast.unparse(call.func)
                keywords = {k.arg: ast.unparse(k.value) for k in call.keywords}
                if callee == "_require_finite_square":
                    places[callee].add(owner)
                elif callee.rsplit(".", 1)[-1].startswith("require_") and "tol" in keywords:
                    places["tol="].add(owner)
                elif (path.parent == SRC and callee == "np.asarray"
                      and keywords.get("dtype") in ("float", "complex")
                      and call.args and ast.unparse(call.args[0]) in params):
                    places["cast"].add(owner)
    assert places == {"_require_finite_square": {"linalg._as_square", "linalg.require_symmetric"},
                      "cast": set(), "tol=": set()}


# Each top-level definition whose stacked @ may take a transposed view as
# an operand, and why.  numpy runs A @ B^T on a stack of small matrices
# through a slower kernel than A @ C with C = B^T made contiguous (at
# (2601, 3, 3), about 0.3 ms against 0.2 ms, the copy included), and on
# the d <= 3 matrices of every command the two give the same bits.  A site
# stays on the view where the copy gains nothing or would change bits, or
# in a dense oracle.
TRANSPOSED_OPERANDS = {
    # w @ w^T is one symmetric rank-k update, so cov is exactly symmetric
    "linalg._window_moments",
    # dense oracle routes, which no command runs
    "linalg.expm_i",
    "metrology.incompat_operator",
    # V^T D V: the view is the left operand, where the copy gained nothing
    # (0.20 against 0.22 ms at (2601, 3, 3))
    "metrology.bounds",
    # the rank experiment's gradients are laid out transposed, so their
    # view is already contiguous; on other layouts a copy changes the bits
    # of a product over 16 or more outcomes
    "metrology.classical_fim",
    # f_decomp: the same transposed gradients, and the copy was slower
    "analysis.fim_rank_experiment",
}


def test_stacked_matmuls_take_no_transposed_view():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.MatMult):
                    for operand in (sub.left, sub.right):
                        if (isinstance(operand, ast.Call)
                                and isinstance(operand.func, ast.Attribute)
                                and operand.func.attr == "swapaxes"):
                            found.add(f"{path.stem}.{getattr(node, 'name', node.lineno)}")
    assert found == TRANSPOSED_OPERANDS


DENSE_ROUTE_NAMES = {"GeneratorSet", "series_generators", "numeric_generators",
                     "build_spin_rep", "expm_i"}


def test_reports_build_no_dense_routes():
    # The report's route residuals come from encoding.series_frame and
    # encoding.numeric_frame; no name of the dense spin-1/2 routes may come
    # back into analysis.py, as an import, a name or an attribute.
    path = SRC / "analysis.py"
    named = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rsplit(".", 1)[-1])
            named.add(node.asname or "")
    assert named & {"series_frame", "numeric_frame"}
    assert named & DENSE_ROUTE_NAMES == set()



def _identifiers(tree) -> set:
    """Every name, attribute and imported name that the syntax ``tree`` mentions."""
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name.rsplit(".", 1)[-1])
    return named


def _definitions(tree) -> dict:
    """Each name a module defines at top level, mapped to the identifiers of
    its definition."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = _identifiers(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    defined[target.id] = _identifiers(node.value)
    return defined


def _reached_from(entry, trees) -> set:
    """``(module, name)`` of each top-level definition of the modules
    ``trees`` that the definition ``entry`` reaches: itself, and each
    definition that a reached one names, in whichever module defines it."""
    defined = {(module, name): named for module, tree in trees.items()
               for name, named in _definitions(tree).items()}
    owners = {}
    for module, name in defined:
        owners.setdefault(name, set()).add(module)
    reached, frontier = set(), {entry}
    while frontier:
        reached |= frontier
        named = set().union(*(defined[key] for key in frontier))
        frontier = {(module, name) for name in named for module in owners.get(name, ())}
        frontier -= reached
    return reached


def test_exports_are_production_names():
    # The library's surface is what its command line reaches: each name a
    # module lists in __all__, and each public name of the package, is
    # reached from the console entry point, cli.main, or named by README's
    # library example.  The dense routes and closed forms that only the
    # tests, the benchmark's gate or a per_layer pin of BENCHMARK.json use
    # are imported from their modules.
    pyproject = (ROOT / "pyproject.toml").read_text()
    entry = re.search(r'^spinmetro = "spinmetro\.(\w+):(\w+)"$', pyproject, re.M).groups()
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    example = _identifiers(ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1)))
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.stem != "__init__"}
    assert len(trees) >= 7
    reached = _reached_from(entry, trees)
    unused = []
    for module_name in sorted(trees):
        exports = importlib.import_module(f"spinmetro.{module_name}").__dict__.get("__all__", ())
        unused += [f"{module_name}.{name}" for name in exports
                   if (module_name, name) not in reached and name not in example]
    # perfbench/tests/test_perfbench.py reads spinmetro.sym_inverse, to check
    # that the benchmark's tracer wraps the package's binding of a pinned
    # function too
    package = importlib.import_module("spinmetro")
    public = sorted(name for name, value in vars(package).items()
                    if not name.startswith("_") and not isinstance(value, types.ModuleType))
    allowed = {name for _, name in reached} | example | {"sym_inverse"}
    unused += [f"spinmetro.{name}" for name in public if name not in allowed]
    assert unused == []


def test_one_default_singular_tolerance():
    # The default singular threshold is written once, as linalg.SINGULAR_TOL:
    # every default of a rel_tol parameter or field, and that of the
    # command line's --tol, names it, and none is a literal.
    defaults = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                args = node.args
                positional = args.posonlyargs + args.args
                pairs = [*zip(positional[len(positional) - len(args.defaults):], args.defaults),
                         *zip(args.kwonlyargs, args.kw_defaults)]
                defaults += [(f"{path.stem}.{node.name}", value) for arg, value in pairs
                             if arg.arg == "rel_tol" and value is not None]
            elif (isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "rel_tol"
                  and node.value is not None):
                defaults.append((f"{path.stem}: field rel_tol", node.value))
            elif isinstance(node, ast.Dict):
                defaults += [(f"{path.stem}: --tol", keyword.value)
                             for key, value in zip(node.keys, node.values)
                             if isinstance(key, ast.Constant) and key.value == "--tol"
                             for keyword in value.keywords if keyword.arg == "default"]
    assert len(defaults) >= 9
    assert [owner for owner, value in defaults if ast.unparse(value) != "SINGULAR_TOL"] == []


def test_the_model_is_the_points():
    # A point (or a scan's model_phi) is the one carrier of the model: no
    # function of the library takes the model as an argument named kind, and
    # no ModelKind type is defined, so a model cannot again disagree with
    # the point it is given with.
    kind_params, model_types = [], []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                names = [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                         *filter(None, (args.vararg, args.kwarg)))]
                if "kind" in names:
                    kind_params.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
            elif isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "kind":
                kind_params.append(f"{path.stem}: field kind")
            defined = ({node.name} if isinstance(node, ast.ClassDef)
                       else {t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)})
            if "ModelKind" in defined:
                model_types.append(path.stem)
    assert kind_params == [] and model_types == []


def test_one_random_stream():
    # The library's one source of randomness is a numpy Generator made by
    # np.random.default_rng: no other np.random name (a bit generator, a
    # SeedSequence, the legacy functions) and no write to a generator's
    # .state, so no hand-made seeding can grow back beside it.
    random_names, state_writes = set(), []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute)
                    and ast.unparse(node.value) in ("np.random", "numpy.random")):
                random_names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                # an import of numpy.random, or of a name from it, counts as
                # that name: the module path itself for an import of it
                module = getattr(node, "module", None)
                paths = [f"{module}.{alias.name}" if module else alias.name
                         for alias in node.names]
                random_names.update(path.removeprefix("numpy.random.") for path in paths
                                    if path.startswith("numpy.random"))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                state_writes += [f"{path.stem}:{node.lineno}" for target in targets
                                 for sub in ast.walk(target)
                                 if isinstance(sub, ast.Attribute) and sub.attr == "state"]
    assert random_names == {"default_rng"}
    assert state_writes == []


def test_no_general_least_squares():
    # A scaling slope is the centered two-pass formula over each row, so a
    # per-alpha np.polyfit, or a least-squares solve, cannot grow back.
    fits = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "attr", None) or getattr(node, "id", None)
            if isinstance(node, ast.alias):
                name = node.name.rpartition(".")[2]
            if name in ("polyfit", "lstsq"):
                fits.append(f"{path.stem}:{node.lineno}")
    assert fits == []


def test_scalar_oracle_routes():
    # The oracle routes take one point, and on 3-vectors and d <= 3 rows a
    # numpy call costs more than the arithmetic it does.  So series_frame,
    # numeric_frame, _route_residuals and the helpers they call for their
    # arithmetic call no numpy function but the np.array that builds an
    # array they return, and numpy dispatch cannot creep back into them
    # unnoticed.
    routes = {"encoding.py": {"series_frame", "numeric_frame", "_half_phase", "_quaternion",
                              "_derivative_directions", "_sinc"},
              "analysis.py": {"_route_residuals"}}
    found, calls = set(), []
    for file, names in routes.items():
        tree = ast.parse((SRC / file).read_text(), filename=file)
        for fn in tree.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name in names):
                continue
            found.add(fn.name)
            returned = {id(node) for ret in ast.walk(fn) if isinstance(ret, ast.Return)
                        for node in ast.walk(ret)}
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = ast.unparse(node.func)
                if func.split(".")[0] in ("np", "numpy") and not (
                        func == "np.array" and id(node) in returned):
                    calls.append(f"{fn.name}: {ast.unparse(node)}")
    assert found == set().union(*routes.values())
    assert calls == []


def test_one_block_rule():
    # run_scan and the grid writer take their blocks from one helper,
    # analysis._grid_blocks, and name the block constant nowhere else: no
    # other function of the library divides by it, or divides it, so a
    # second block geometry cannot grow back beside the first.
    divisions = (ast.Div, ast.FloorDiv, ast.Mod)
    callers, namers, dividers = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            owner = f"{path.stem}.{fn.name}"
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and ast.unparse(node.func) == "_grid_blocks":
                    callers.add(owner)
                elif isinstance(node, ast.Name) and node.id == "GRID_BLOCK":
                    namers.add(owner)
                if (isinstance(node, (ast.BinOp, ast.AugAssign))
                        and isinstance(node.op, divisions)
                        and "GRID_BLOCK" in {sub.id for sub in ast.walk(node)
                                             if isinstance(sub, ast.Name)}):
                    dividers.add(owner)
    assert callers == {"analysis.run_scan", "analysis._write_csv"}
    assert namers == dividers == {"analysis._grid_blocks"}


def test_one_place_starts_threads():
    # A scan's helper thread is made in analysis.run_scan and joined there:
    # no other function constructs a threading.Thread, and the library
    # imports no pool module (concurrent.futures also costs an import of
    # logging at start-up).  Importing spinmetro starts no thread.
    makers, pools = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                           else [node.module or ""])
                pools.update(f"{path.stem}: {module}" for module in modules
                             if module.split(".")[0] in ("concurrent", "multiprocessing"))
            elif isinstance(node, ast.FunctionDef):
                makers.update(f"{path.stem}.{node.name}" for call in ast.walk(node)
                              if isinstance(call, ast.Call)
                              and ast.unparse(call.func).endswith("Thread"))
    assert makers == {"analysis.run_scan"}
    assert pools == set()
    code = "import threading, spinmetro; print(threading.active_count())"
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["1"]
