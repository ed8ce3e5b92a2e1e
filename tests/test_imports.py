"""The package's internal imports: none deferred, none circular; and
its parameter defaults: none restates a config value.

Each module of `src/risbeam` is parsed with `ast`, not imported, so a
cycle shows here even where Python would resolve it at run time.  An
import of a risbeam module inside a function hides a dependency from the
top of the module, usually to break a cycle; the graph counts imports
wherever they sit, so such a cycle still fails the second check.

Each config value has one declaration, its `ExperimentConfig` field: the
library takes every model value (path counts, NLoS power, gain mode,
element spacing, stream count, iteration limit, tolerance, scheme) from
its caller.  The parameters that do have defaults must be exactly the
few in DEFAULTS, none of them a config value.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "risbeam"
MODULES = {p.stem: ast.parse(p.read_text(), filename=str(p))
           for p in sorted(PACKAGE.glob("*.py"))}


def risbeam_targets(node):
    """The risbeam modules an Import or ImportFrom node names."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            names = [node.module]
        elif node.module is not None:
            names = [f"risbeam.{node.module}"]
        else:   # from . import x: x is a module or a name of __init__
            names = [f"risbeam.{a.name}" if a.name in MODULES
                     else "risbeam.__init__" for a in node.names]
    else:
        return []
    return [n.split(".")[1] if "." in n else "__init__"
            for n in names if n == "risbeam" or n.startswith("risbeam.")]


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_function_imports_a_risbeam_module(name):
    deferred = [f"{fn.name}:{node.lineno}"
                for fn in ast.walk(MODULES[name])
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                for node in ast.walk(fn) if risbeam_targets(node)]
    assert deferred == []


def test_internal_import_graph_is_acyclic():
    graph = {name: {t for node in ast.walk(tree)
                    for t in risbeam_targets(node) if t != name}
             for name, tree in MODULES.items()}
    order = list(graphlib.TopologicalSorter(graph).static_order())
    # the rate kernel lives in training, which the outer loop builds on
    assert order.index("training") < order.index("optimizer")


DEFAULTS = sorted([
    ("cli.main", ("argv",)),
    # the --scale option's default, not a config key
    ("harness.parse_config", ("scale",)),
    ("harness.load_config", ("scale",)),
    ("harness.geometry_from", ("ue_offset",)),
    ("harness.emit_results", ("timing", "json_mirror")),
    ("training._descend", ("prefix",)),
])


def defaulted(fn):
    """Names of the parameters of a function node that have defaults."""
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return tuple(names)


def test_only_the_listed_parameters_have_defaults():
    found = sorted(
        (f"{name}.{getattr(fn, 'name', '<lambda>')}", defaulted(fn))
        for name, tree in MODULES.items() for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and defaulted(fn))
    assert found == DEFAULTS
