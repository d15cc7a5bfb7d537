"""The package namespace, the modules each CLI command loads, and the
private names each module defines."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psodkit
from psodkit import documents as docs
from psodkit.engine import build_root_psod
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.preorders import DiagramArrow, PreorderDiagram, complete_preorder

from helpers import (
    diagram_to_doc,
    generated_preorder,
    identity_map,
    span_to_doc,
    stratification_to_doc,
)


def test_exported_names_are_their_home_modules_objects():
    assert len(psodkit.__all__) == len(set(psodkit.__all__)) == 48
    for name in psodkit.__all__:
        value = getattr(psodkit, name)
        assert value.__module__.startswith("psodkit.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from psodkit import *", namespace)
    for name in psodkit.__all__:
        assert namespace[name] is getattr(psodkit, name)
    assert set(psodkit.__all__) <= set(dir(psodkit))
    assert "__version__" in dir(psodkit)


def _private_names(node):
    """The names starting with one underscore that a module-level statement
    defines: a function, a class or an assigned constant."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _read_names(node):
    """Every name a statement reads, imports or takes as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_module_name_has_a_reader_in_src():
    # src/ holds what runs: a helper that nothing else in the package reads
    # is dead code, whatever the tests still do with it
    statements = [
        (path.name, node)
        for path in sorted(Path(psodkit.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    ]
    reads = [set(_read_names(node)) for _, node in statements]
    defined = [(i, name) for i, (_, node) in enumerate(statements) for name in _private_names(node)]
    assert len(defined) > 40
    unread = [
        f"{statements[i][0]}:{name}"
        for i, name in defined
        if not any(name in r for j, r in enumerate(reads) if j != i)
    ]
    assert unread == []


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        psodkit.nope
    assert not hasattr(psodkit, "nope")


# Runs one command line in a fresh interpreter and prints the psodkit modules
# loaded at exit with the lines of their source; any exit code but 0 fails
# the probe, and so does loading dataclasses or inspect (records are built
# without them).
PROBE = """
import json, sys
import psodkit
argv = json.loads(sys.argv[1])
if argv:
    from psodkit.cli import main
    if main(argv) != 0:
        sys.exit(f"nonzero exit: {argv}")
for name in ("dataclasses", "inspect"):
    if name in sys.modules:
        sys.exit(f"{name} was imported")
loaded = sorted(m for m in sys.modules if m.startswith("psodkit"))
lines = sum(open(sys.modules[m].__file__, "rb").read().count(b"\\n") for m in loaded)
print(json.dumps({"modules": loaded, "lines": lines, "fractions": "fractions" in sys.modules}))
"""

BASE = {"psodkit", "psodkit.cli", "psodkit.config", "psodkit.errors", "psodkit.records"}
DOCS = BASE | {"psodkit.documents"}
PREORDER = DOCS | {"psodkit.preorders", "psodkit.preorderdocs"}
ORDER = {"psodkit.factorial", "psodkit.residues"}
BUILD = DOCS | ORDER | {"psodkit.engine", "psodkit.preorders", "psodkit.strata"}
KTHEORY = DOCS | {"psodkit.groups", "psodkit.kreport", "psodkit.preorders", "psodkit.psoddocs",
                  "psodkit.strata"}
M = ["--output", "machine"]

# One command per row: its argument list, the modules it loads, and the most
# source lines those modules may hold.  The budgets of build, infinite,
# ktheory and human-mode order cmp are the targets of the startup carve, and
# the preorder, filtrate and glue budgets are what they load now.  Kummer
# K-theory reads characters through ``residues`` and compiles no
# ``factorial``; its budget is what it loaded once it did.  The order budgets
# are what each command loaded before the carve (2,378 lines).
COMMANDS = {
    "import": ([], {"psodkit"}, 100),
    "preorder-verify": (M + ["preorder", "verify", "{verify}"],
                        PREORDER | {"psodkit.colimits", "psodkit.verify"}, 1674),
    "preorder-colimit": (M + ["preorder", "colimit", "{diagram}"],
                         PREORDER | {"psodkit.colimits"}, 1514),
    "preorder-coproduct": (M + ["preorder", "coproduct", "{chain}", "{chain}"],
                           PREORDER | {"psodkit.colimits"}, 1514),
    "preorder-pushout": (M + ["preorder", "pushout", "{span}"],
                         PREORDER | {"psodkit.colimits"}, 1514),
    "preorder-number": (M + ["preorder", "number", "{chain}"], PREORDER, 1351),
    "preorder-directed": (M + ["preorder", "directed", "{chain}"], PREORDER, 1351),
    "order-cmp-human": (["order", "cmp", "--", "0", "0"], BASE | ORDER, 1300),
    "order-cmp": (M + ["order", "cmp", "--", "0", "0"], DOCS | ORDER, 2378),
    "order-factform": (M + ["order", "factform", "--", "-1/2"], DOCS | ORDER, 2378),
    "order-enumerate": (M + ["order", "enumerate", "--arity", "1", "--level", "3"],
                        DOCS | ORDER, 2378),
    "psod-build": (M + ["psod", "build", "{nodal}", "--root", "3"], BUILD, 2300),
    "psod-infinite": (M + ["psod", "infinite", "{nodal}", "--level", "3"], BUILD, 2300),
    "psod-build-atlas": (M + ["psod", "build", "{atlas}", "--root", "3"],
                         BUILD | {"psodkit.atlas"}, 2300),
    "psod-filtrate": (M + ["psod", "filtrate", "{filtrate}"],
                      PREORDER | {"psodkit.engine", "psodkit.psoddocs", "psodkit.residues"}, 1973),
    "psod-glue": (M + ["psod", "glue", "{scenario}"],
                  PREORDER | {"psodkit.abelian", "psodkit.colimits", "psodkit.engine",
                              "psodkit.gluing", "psodkit.groups", "psodkit.psoddocs",
                              "psodkit.residues"}, 2761),
    "psod-ktheory": (M + ["psod", "ktheory", "{cross}", "--kdata", "{kdata}", "--root", "3"],
                     KTHEORY, 2600),
    "psod-ktheory-kummer": (M + ["psod", "ktheory", "{cross}", "--kdata", "{kdata}",
                                 "--mode", "kummer", "--p", "2", "--level", "3"],
                            KTHEORY | {"psodkit.residues"}, 2068),
}


def _inputs(tmp_path: Path) -> dict[str, str]:
    chain = generated_preorder(["a", "b"], [("a", "b")])
    point = complete_preorder(["s"])
    span = span_to_doc(point, chain, chain, {"s": "a"}, {"s": "b"})
    diagram = PreorderDiagram(("u",), {"u": chain})
    verify = {"diagram": diagram_to_doc(diagram), "candidate": docs.preorder_to_doc(chain),
              "cocones": {"u": {"a": "a", "b": "b"}}}
    psod = build_root_psod(nodal_cubic(), 2)
    elements = list(psod.index.elements)
    filtrate = {"psod": docs.psod_to_doc(psod), "object": {x: [1] for x in elements}}
    idx = docs.preorder_to_doc(psod.index)
    graded = {"index": idx, "pieces": {x: {"rank": 1} for x in elements}}
    scenario = {
        "diagram": diagram_to_doc(PreorderDiagram(
            ("l0", "l1"), {"l0": psod.index, "l1": psod.index},
            (DiagramArrow("d0", "l0", "l1", identity_map(psod.index), "contravariant"),),
        )),
        "psods": {"l0": docs.psod_to_doc(psod), "l1": docs.psod_to_doc(psod)},
        "graded": {"l0": graded, "l1": graded},
    }
    cross = simple_crossing(2)
    kdata = {c: {"rank": 1} for c in cross.all_components()}
    atlas = {"charts": [{"id": "U", "branches": ["p", "q"]}],
             "overlaps": [{"charts": ["U", "U"], "map": {"p": "q"}}]}
    paths = {}
    for name, doc in [("chain", docs.preorder_to_doc(chain)), ("span", span),
                      ("diagram", diagram_to_doc(diagram)), ("verify", verify),
                      ("nodal", stratification_to_doc(nodal_cubic())),
                      ("filtrate", filtrate), ("scenario", scenario),
                      ("cross", stratification_to_doc(cross)), ("kdata", kdata),
                      ("atlas", atlas)]:
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(docs.dumps(doc), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The modules and source lines of each command, one fresh interpreter each."""
    paths = _inputs(tmp_path_factory.mktemp("inputs"))
    src = str(Path(psodkit.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    seen = {}

    def run(command: str) -> dict:
        if command not in seen:
            argv = [arg.format(**paths) for arg in COMMANDS[command][0]]
            proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            seen[command] = json.loads(proc.stdout.splitlines()[-1])
        return seen[command]

    return run


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_loads_only_the_modules_it_runs(probe, command):
    assert set(probe(command)["modules"]) == COMMANDS[command][1]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_each_command_compiles_at_most_its_line_budget(probe, command):
    # every job recompiles what it imports when byte-code is not written
    # (PYTHONDONTWRITEBYTECODE), so the lines a command loads are its
    # compile cost
    assert probe(command)["lines"] <= COMMANDS[command][2]


@pytest.mark.parametrize("command", [
    "psod-build", "psod-infinite", "psod-ktheory", "psod-ktheory-kummer", "psod-glue",
    "psod-filtrate", "order-cmp", "order-cmp-human", "order-factform",
])
def test_commands_that_parse_no_residue_keep_fractions_out(probe, command):
    # fractions imports decimal; together they add about half a megabyte to
    # the resident set of a command that reads no residue, or reads only the
    # canonical ones (0 and -p/q) that Residue.parse reads in integers
    assert not probe(command)["fractions"]
