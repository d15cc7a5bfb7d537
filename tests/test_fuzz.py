"""A seeded, bounded sample of single-node mutations of valid documents.

Every command form that reads a document gets the same number of cases.
Each case changes one node of a valid input (a value, a key, or a removed
entry), then runs the command in a forked child under an address-space
limit and an alarm.  The CLI contract: exit 0, 1, 2 or 3, and a nonzero
exit writes exactly one line, ``error: ...``, to stderr.  A traceback, any
other exit code, a signal or a timeout fails the case.
"""

import json
import os
import random
import resource
import signal
import sys
import traceback

import pytest

from psodkit import documents as docs
from psodkit.cli import main
from psodkit.colimits import colimit
from psodkit.engine import build_root_psod
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.preorders import DiagramArrow, PreorderDiagram, complete_preorder

from helpers import diagram_to_doc, generated_preorder, identity_map, span_to_doc, stratification_to_doc

CASES_PER_FORM = 24
ALARM_S = 20
# room above the forking process's own address space for one case
HEADROOM_BYTES = 768 << 20

# values a node may be replaced with: every JSON type, edge numbers, and
# strings the readers parse
POOL = [None, True, False, 0, 1, -1, 2, 7, 10**30, -(10**30), 1.5, "", "x", "0", "-1/2",
        "-1/0", "1e999", "X", "(-1/2,-1/3)", [], [[]], {}, {"x": "y"}, [True], ["a", "a"],
        [0, 1], "contravariant", "a" * 300, [[True, False], [False, True]]]


def _documents() -> dict[str, dict]:
    """Valid input documents, by name."""
    chain = generated_preorder(["a", "b"], [("a", "b")])
    point = complete_preorder(["s"])
    span = span_to_doc(point, chain, chain, {"s": "a"}, {"s": "b"})
    two = PreorderDiagram(
        ("u", "v"), {"u": chain, "v": chain},
        (DiagramArrow("f", "u", "v", identity_map(chain)),
         DiagramArrow("g", "u", "v", identity_map(chain), "contravariant")),
    )
    col = colimit(two)
    verify = {"diagram": diagram_to_doc(two), "candidate": docs.preorder_to_doc(col.preorder),
              "cocones": col.cocones}
    psod = docs.psod_to_doc(build_root_psod(nodal_cubic(), 2))
    elements = psod["index"]["elements"]
    index = build_root_psod(nodal_cubic(), 2).index
    graded = {"index": psod["index"],
              "pieces": {x: {"rank": 1, "torsion": [2]} for x in elements}}
    # d1 has no graded_homs entry, so it gets identity blocks
    scenario = {
        "diagram": diagram_to_doc(PreorderDiagram(
            ("l0", "l1"), {"l0": index, "l1": index},
            (DiagramArrow("d0", "l0", "l1", identity_map(index), "contravariant"),
             DiagramArrow("d1", "l0", "l1", identity_map(index), "contravariant")),
        )),
        "psods": {"l0": psod, "l1": psod},
        "graded": {"l0": graded, "l1": graded},
        "graded_homs": {"d0": {
            "reindex": {x: x for x in elements},
            "blocks": [{"source_grade": x, "target_grade": x, "matrix": [[1, 0], [0, 1]]}
                       for x in elements],
        }},
    }
    cross = simple_crossing(2)
    atlas = {"charts": [{"id": "U", "branches": ["p", "q"]}, {"id": "V", "branches": ["r"]}],
             "overlaps": [{"charts": ["U", "U"], "map": {"p": "q"}},
                          {"charts": ["U", "V"], "map": {"p": "r"}}]}
    built = {
        "chain": docs.preorder_to_doc(chain), "span": span, "diagram": diagram_to_doc(two),
        "verify": verify, "nodal": stratification_to_doc(nodal_cubic()), "atlas": atlas,
        "filtrate": {"psod": psod, "object": {x: [1, 0] for x in elements}},
        "scenario": scenario, "cross": stratification_to_doc(cross),
        "kdata": {c: {"rank": 1, "torsion": [2]} for c in cross.all_components()},
    }
    return {name: json.loads(docs.dumps(doc)) for name, doc in built.items()}


# every command form that reads a document, and the input each case mutates
FORMS = {
    "coproduct": (["preorder", "coproduct", "{chain}", "{chain}"], "chain"),
    "pushout": (["preorder", "pushout", "{span}"], "span"),
    "colimit": (["preorder", "colimit", "{diagram}"], "diagram"),
    "verify": (["preorder", "verify", "{verify}"], "verify"),
    "directed": (["preorder", "directed", "{chain}"], "chain"),
    "number": (["preorder", "number", "{chain}"], "chain"),
    "build": (["psod", "build", "{nodal}", "--root", "3"], "nodal"),
    "build-atlas": (["psod", "build", "{atlas}", "--root", "3"], "atlas"),
    "infinite": (["psod", "infinite", "{nodal}", "--level", "3"], "nodal"),
    "glue": (["psod", "glue", "{scenario}"], "scenario"),
    "filtrate": (["psod", "filtrate", "{filtrate}"], "filtrate"),
    "ktheory": (["psod", "ktheory", "{cross}", "--kdata", "{kdata}", "--root", "3"], "cross"),
    "ktheory-kdata": (["psod", "ktheory", "{cross}", "--kdata", "{kdata}", "--mode", "kummer",
                       "--p", "2", "--level", "3"], "kdata"),
}


def _slots(doc, out):
    """Every (container, key) pair of the document, parents before children."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        _slots(value, out)
    return out


def _mutate(doc, rng: random.Random):
    """A copy of ``doc`` with one node replaced or removed, or one key renamed."""
    doc = json.loads(json.dumps(doc))
    slots = _slots(doc, [])
    if not slots:
        return rng.choice(POOL)
    parent, key = rng.choice(slots)
    how = rng.randrange(6)
    if how == 0:
        del parent[key]
    elif how == 1 and isinstance(parent, dict):
        parent[rng.choice(["", "x", "leq", "name", key + "'"])] = parent.pop(key)
    else:
        parent[key] = rng.choice(POOL)
    return doc


def _address_space() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[0]) * resource.getpagesize()


def _run_case(argv: list[str], err_path: str) -> int:
    """Run ``main(argv)`` in a forked child; its exit status, negative for a signal."""
    limit = _address_space() + HEADROOM_BYTES
    pid = os.fork()
    if pid == 0:  # the child: never returns into pytest
        code = 99
        try:
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
            signal.alarm(ALARM_S)
            os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
            os.dup2(os.open(err_path, os.O_WRONLY | os.O_TRUNC), 2)
            sys.stdout = open(1, "w", closefd=False)
            sys.stderr = open(2, "w", closefd=False)
            code = main(argv)
            sys.stdout.flush()
        except BaseException:  # a traceback breaks the contract
            traceback.print_exc()
            code = 99
        finally:
            sys.stderr.flush()
            os._exit(code if isinstance(code, int) and 0 <= code < 256 else 98)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


@pytest.mark.skipif(not hasattr(os, "fork") or not os.path.exists("/proc/self/statm"),
                    reason="needs fork and /proc")
@pytest.mark.parametrize("form", list(FORMS))
def test_single_node_mutations_keep_the_exit_contract(tmp_path, form):
    template, target = FORMS[form]
    valid = _documents()
    rng = random.Random(f"fuzz-{form}")
    err_path = str(tmp_path / "err")
    broken = []
    for case in range(CASES_PER_FORM):
        inputs = dict(valid, **{target: _mutate(valid[target], rng)})
        paths = {}
        for name, doc in inputs.items():
            paths[name] = str(tmp_path / f"{name}.json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        mode = ["--output", "machine"] if case % 2 else []
        argv = mode + [arg.format(**paths) for arg in template]
        open(err_path, "w").close()
        code = _run_case(argv, err_path)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        one_line = err.count("\n") == 1 and err.startswith("error: ") and err.endswith("\n")
        if code not in (0, 1, 2, 3) or (code == 0) != (err == "") or (code and not one_line):
            broken.append((case, code, json.dumps(inputs[target])[:200], err[-300:]))
    assert broken == []
