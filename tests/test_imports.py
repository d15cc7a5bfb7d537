"""The package namespace and the modules each CLI command loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import psodkit
from psodkit import documents as docs
from psodkit.engine import build_root_psod
from psodkit.preorders import (
    DiagramArrow,
    OrderReflectingMap,
    PreorderDiagram,
    complete_preorder,
    generated_preorder,
    identity_map,
)
from psodkit.strata import nodal_cubic, simple_crossing


def test_exported_names_are_their_home_modules_objects():
    assert len(psodkit.__all__) == len(set(psodkit.__all__)) == 56
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


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        psodkit.nope
    assert not hasattr(psodkit, "nope")


# Runs the given commands in one fresh interpreter and prints the psodkit
# modules loaded at exit; any exit code but 0 fails the probe, and so does
# loading dataclasses or inspect (records are built without them).
PROBE = """
import json, sys
import psodkit
commands = json.loads(sys.argv[1])
if commands:
    from psodkit.cli import main
for argv in commands:
    if main(["--output", "machine", *argv]) != 0:
        sys.exit(f"nonzero exit: {argv}")
for name in ("dataclasses", "inspect"):
    if name in sys.modules:
        sys.exit(f"{name} was imported")
print(json.dumps(sorted(m for m in sys.modules if m.startswith("psodkit"))))
"""

PREORDER_MODULES = {"psodkit", "psodkit.cli", "psodkit.config", "psodkit.documents",
                    "psodkit.errors", "psodkit.preorders", "psodkit.records"}
BUILD_MODULES = PREORDER_MODULES | {"psodkit.engine", "psodkit.factorial", "psodkit.strata"}


def _inputs(tmp_path: Path) -> dict[str, str]:
    chain = generated_preorder(["a", "b"], [("a", "b")])
    point = complete_preorder(["s"])
    span = {
        "left": docs.map_to_doc(OrderReflectingMap(point, chain, {"s": "a"})),
        "right": docs.map_to_doc(OrderReflectingMap(point, chain, {"s": "b"})),
    }
    diagram = PreorderDiagram(("u",), {"u": chain})
    verify = {"diagram": docs.diagram_to_doc(diagram), "candidate": docs.preorder_to_doc(chain),
              "cocones": {"u": {"a": "a", "b": "b"}}}
    psod = build_root_psod(nodal_cubic(), 2)
    elements = list(psod.index.elements)
    filtrate = {"psod": docs.psod_to_doc(psod), "object": {x: [1] for x in elements}}
    idx = docs.preorder_to_doc(psod.index)
    graded = {"index": idx, "pieces": {x: {"rank": 1} for x in elements}}
    scenario = {
        "diagram": docs.diagram_to_doc(PreorderDiagram(
            ("l0", "l1"), {"l0": psod.index, "l1": psod.index},
            (DiagramArrow("d0", "l0", "l1", identity_map(psod.index), "contravariant"),),
        )),
        "psods": {"l0": docs.psod_to_doc(psod), "l1": docs.psod_to_doc(psod)},
        "graded": {"l0": graded, "l1": graded},
    }
    cross = simple_crossing(2)
    kdata = {c: {"rank": 1} for c in cross.all_components()}
    paths = {}
    for name, doc in [("chain", docs.preorder_to_doc(chain)), ("span", span),
                      ("diagram", docs.diagram_to_doc(diagram)), ("verify", verify),
                      ("nodal", docs.stratification_to_doc(nodal_cubic())),
                      ("filtrate", filtrate), ("scenario", scenario),
                      ("cross", docs.stratification_to_doc(cross)), ("kdata", kdata)]:
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(docs.dumps(doc), encoding="utf-8")
    return paths


@pytest.mark.parametrize(
    "commands, loaded",
    [
        ([], {"psodkit"}),
        ([["preorder", "verify", "{verify}"], ["preorder", "colimit", "{diagram}"],
          ["preorder", "coproduct", "{chain}", "{chain}"], ["preorder", "pushout", "{span}"],
          ["preorder", "number", "{chain}"], ["preorder", "directed", "{chain}"]],
         PREORDER_MODULES),
        ([["order", "cmp", "--", "0", "0"], ["order", "factform", "--", "-1/2"],
          ["order", "enumerate", "--arity", "1", "--level", "3"]],
         PREORDER_MODULES | {"psodkit.factorial"}),
        ([["psod", "build", "{nodal}", "--root", "3"],
          ["psod", "infinite", "{nodal}", "--level", "3"], ["psod", "filtrate", "{filtrate}"]],
         BUILD_MODULES),
        ([["psod", "glue", "{scenario}"],
          ["psod", "ktheory", "{cross}", "--kdata", "{kdata}", "--root", "3"]],
         BUILD_MODULES | {"psodkit.abelian"}),
    ],
    ids=["import", "preorder", "order", "psod-build-infinite-filtrate", "psod-glue-ktheory"],
)
def test_each_command_loads_only_the_modules_it_runs(tmp_path, commands, loaded):
    paths = _inputs(tmp_path)
    argvs = [[arg.format(**paths) for arg in argv] for argv in commands]
    src = str(Path(psodkit.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout.splitlines()[-1])) == loaded
