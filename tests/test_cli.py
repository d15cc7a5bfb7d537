import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import psodkit
from psodkit import documents as docs
from psodkit import abelian
from psodkit import preorderdocs
from psodkit import psoddocs
from psodkit.cli import main
from psodkit.colimits import colimit
from psodkit.config import DEFAULT_CAPS
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.preorders import (
    complete_preorder,
    discrete_preorder,
    OrderReflectingMap,
    PreorderDiagram,
    DiagramArrow,
)
from psodkit.verify import verify_colimit

from helpers import (
    diagram_to_doc,
    generated_preorder,
    identity_map,
    map_to_doc,
    stratification_to_doc,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(docs.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def graded_oracle(monkeypatch):
    """Check every graded limit the glue engine computes against the limit
    recomputed from the literal total matrices; yields the checked values."""
    from test_abelian import ungraded_limit_oracle

    real = abelian.graded_limit
    checked = []

    def checking(diagram, groups, homs, col):
        res = real(diagram, groups, homs, col)
        assert res.ungraded == ungraded_limit_oracle(diagram, groups, homs)
        checked.append(res.ungraded)
        return res

    monkeypatch.setattr(abelian, "graded_limit", checking)
    return checked


def chain_doc(*labels):
    pairs = [(a, b) for a, b in zip(labels, labels[1:])]
    return docs.preorder_to_doc(generated_preorder(labels, pairs))


# ---------------------------------------------------------------------------
# preorder commands


def test_directed_on_chain(capsys, tmp_path):
    path = write(tmp_path, "chain.json", chain_doc("a", "b", "c"))
    code, out, _ = run(capsys, "preorder", "directed", path)
    assert code == 0 and out.strip() == "true"


def test_directed_machine_output(capsys, tmp_path):
    path = write(tmp_path, "disc.json", docs.preorder_to_doc(discrete_preorder(["a", "b"])))
    code, out, _ = run(capsys, "--output", "machine", "preorder", "directed", path)
    assert code == 0 and json.loads(out) == {"directed": False}


def test_number_command(capsys, tmp_path):
    path = write(tmp_path, "chain.json", chain_doc("a", "b", "c"))
    code, out, _ = run(capsys, "--output", "machine", "preorder", "number", path)
    assert code == 0 and json.loads(out)["numbering"] == ["a", "b", "c"]


def test_number_not_directed_exits_2(capsys, tmp_path):
    path = write(tmp_path, "disc.json", docs.preorder_to_doc(discrete_preorder(["a", "b"])))
    code, _, err = run(capsys, "preorder", "number", path)
    assert code == 2 and "not directed" in err


def test_coproduct_command_roundtrip(capsys, tmp_path):
    p1 = write(tmp_path, "p1.json", docs.preorder_to_doc(complete_preorder(["a"])))
    p2 = write(tmp_path, "p2.json", docs.preorder_to_doc(complete_preorder(["b"])))
    code, out, _ = run(capsys, "--output", "machine", "preorder", "coproduct", p1, p2)
    assert code == 0
    got = preorderdocs.preorder_from_doc(json.loads(out)["preorder"])
    assert got == complete_preorder(["a", "b"])


def test_pushout_and_verify_commands(capsys, tmp_path):
    c1 = generated_preorder(["a", "b"], [("a", "b")])
    c2 = generated_preorder(["bp", "c"], [("bp", "c")])
    pt = complete_preorder(["s"])
    left = OrderReflectingMap(pt, c1, {"s": "b"})
    right = OrderReflectingMap(pt, c2, {"s": "bp"})
    push_path = write(
        tmp_path,
        "span.json",
        {"left": map_to_doc(left), "right": map_to_doc(right)},
    )
    code, out, _ = run(capsys, "--output", "machine", "preorder", "pushout", push_path)
    assert code == 0
    body = json.loads(out)
    carrier = preorderdocs.preorder_from_doc(body["preorder"])
    assert carrier.elements == ("a", "b=bp", "c")

    diag = PreorderDiagram(
        ("apex", "l", "r"),
        {"apex": pt, "l": c1, "r": c2},
        (DiagramArrow("f", "apex", "l", left), DiagramArrow("g", "apex", "r", right)),
    )
    verify_path = write(
        tmp_path,
        "verify.json",
        {
            "diagram": diagram_to_doc(diag),
            "candidate": body["preorder"],
            "cocones": {
                "apex": {"s": "b=bp"},
                "l": body["maps"][0],
                "r": body["maps"][1],
            },
        },
    )
    code, out, _ = run(capsys, "preorder", "verify", verify_path)
    assert code == 0 and out.strip() == "verified"


def test_colimit_command(capsys, tmp_path):
    p = generated_preorder(["x", "y"], [("x", "y")])
    diag = PreorderDiagram(
        ("u", "v"),
        {"u": p, "v": p},
        (
            DiagramArrow("d0", "u", "v", identity_map(p)),
            DiagramArrow("d1", "u", "v", identity_map(p)),
        ),
    )
    path = write(tmp_path, "diag.json", diagram_to_doc(diag))
    code, out, _ = run(capsys, "--output", "machine", "preorder", "colimit", path)
    assert code == 0
    assert preorderdocs.preorder_from_doc(json.loads(out)["preorder"]) == p


def test_malformed_document_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{oops", encoding="utf-8")
    code, out, err = run(capsys, "preorder", "directed", str(path))
    assert code == 1 and out == "" and "error" in err


def test_non_utf8_document_exits_1(capsys, tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "preorder", "directed", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    ]


def test_deeply_nested_document_exits_1(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "preorder", "directed", str(path))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: invalid JSON: nested too deeply"]


def test_integer_too_long_to_read_exits_1(capsys, tmp_path):
    # a rank of 5,001 digits, past Python's limit on reading integers
    cross = simple_crossing(2)
    strat = write(tmp_path, "cross.json", stratification_to_doc(cross))
    kdata = tmp_path / "kdata.json"
    kdata.write_text('{"X": {"rank": 1' + "0" * 5000 + ', "torsion": []}}', encoding="utf-8")
    code, out, err = run(capsys, "psod", "ktheory", strat, "--kdata", str(kdata), "--root", "3")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith("error: invalid JSON: Exceeds the limit (")


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": ["a"], "leq": [1]},
        {"elements": ["a"], "leq": [["no"]]},
        {"elements": ["a", "b"], "leq": [[True, 1], [0, True]]},
    ],
)
def test_directed_rejects_non_boolean_relation(capsys, tmp_path, doc):
    path = write(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, "preorder", "directed", path)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: preorder leq must be a matrix of booleans"]


def _nested_leq_doc(command, leq):
    """A document for ``command`` whose one preorder has the given ``leq``:
    the preorder itself, the index of a psod to filtrate, or a verify
    candidate."""
    index = {"elements": ["a", "b"], "leq": leq}
    if command == "directed":
        return index
    if command == "filtrate":
        return {"psod": dict(_nodal_psod_doc(), index=index), "object": {}}
    return _point_verify_doc(candidate=index)


@pytest.mark.parametrize(
    "bad_row",
    [[True, v] for v in (0, 1, 1.0, None, "true", [])] + [True, "10", {"a": True}, None],
)
@pytest.mark.parametrize(
    "argv", [["preorder", "directed"], ["psod", "filtrate"], ["preorder", "verify"]]
)
def test_non_boolean_leq_row_exits_1_wherever_nested(capsys, tmp_path, argv, bad_row):
    path = write(tmp_path, "bad.json", _nested_leq_doc(argv[-1], [[True, True], bad_row]))
    code, out, err = run(capsys, *argv, path)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: preorder leq must be a matrix of booleans"]


def test_ragged_relation_matrix_exits_2(capsys, tmp_path):
    path = write(tmp_path, "ragged.json", {"elements": ["a", "b"], "leq": [[True, False], [True]]})
    code, out, err = run(capsys, "preorder", "directed", path)
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: relation matrix must be square over the elements"]


def _point_verify_doc(**fields):
    p = complete_preorder(["x"])
    doc = {
        "diagram": diagram_to_doc(PreorderDiagram(("u",), {"u": p})),
        "candidate": docs.preorder_to_doc(p),
        "cocones": {"u": {"x": "x"}},
    }
    doc.update(fields)
    return doc


def test_verify_at_the_diagram_cap_is_fast(capsys, tmp_path):
    # verify_total one-point vertices glued into 4 classes: the vertices'
    # maps into a test preorder Q form up to 5^12 families, but the colimit
    # is the quotient, so verify accepts it without enumerating any
    n = DEFAULT_CAPS.verify_total
    points = {f"v{i}": complete_preorder([f"x{i}"]) for i in range(n)}
    arrows = tuple(
        DiagramArrow(f"a{i}", f"v{i}", f"v{i + 4}", OrderReflectingMap(
            points[f"v{i}"], points[f"v{i + 4}"], {f"x{i}": f"x{i + 4}"}))
        for i in range(n - 4)
    )
    diag = PreorderDiagram(tuple(points), points, arrows)
    res = colimit(diag)
    cocone = {v: dict(m.mapping) for v, m in res.cocones.items()}
    start = time.perf_counter()
    assert verify_colimit(diag, res.preorder, cocone).ok
    assert time.perf_counter() - start < 0.5
    path = write(tmp_path, "verify.json", {
        "diagram": diagram_to_doc(diag),
        "candidate": docs.preorder_to_doc(res.preorder),
        "cocones": cocone,
    })
    start = time.perf_counter()
    code, out, _ = run(capsys, "preorder", "verify", path)
    assert time.perf_counter() - start < 0.5
    assert code == 0 and out.strip() == "verified"


def _five_point_verify_doc(flip=None):
    """The coproduct of five one-point vertices as a verify request, with the
    relation at ``flip`` removed from the candidate if given."""
    points = {f"v{i}": complete_preorder([f"x{i}"]) for i in range(5)}
    leq = [[True] * 5 for _ in range(5)]
    if flip is not None:
        leq[flip[0]][flip[1]] = False
    return {
        "diagram": diagram_to_doc(PreorderDiagram(tuple(points), points)),
        "candidate": {"elements": [f"x{i}" for i in range(5)], "leq": leq},
        "cocones": {f"v{i}": {f"x{i}": f"x{i}"} for i in range(5)},
    }


def test_verify_accepts_a_five_point_coproduct(capsys, tmp_path):
    path = write(tmp_path, "verify.json", _five_point_verify_doc())
    code, out, err = run(capsys, "preorder", "verify", path)
    assert code == 0 and err == ""
    assert out.strip() == "verified"


def test_verify_of_a_perturbed_five_point_coproduct_exits_3(capsys, tmp_path):
    path = write(tmp_path, "verify.json", _five_point_verify_doc(flip=(1, 3)))
    code, out, err = run(capsys, "preorder", "verify", path)
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "error: universal-property enumeration only supported for candidates with at most "
        "4 elements"
    ]


@pytest.mark.parametrize(
    "doc, message",
    [
        ([_point_verify_doc()], "verify document needs field 'diagram'"),
        (_point_verify_doc(cocones=[1]), "verify cocones must be an object keyed by vertex"),
        (_point_verify_doc(cocones={}), "verify cocones have no entry for vertex 'u'"),
    ],
)
def test_verify_rejects_malformed_body(capsys, tmp_path, doc, message):
    path = write(tmp_path, "verify.json", doc)
    code, out, err = run(capsys, "preorder", "verify", path)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"vertices": 5, "preorders": {}}, "diagram vertices must be a list of strings"),
        ({"vertices": ["u"], "preorders": []}, "diagram preorders must be an object keyed by vertex"),
        (
            {
                "vertices": ["u"],
                "preorders": {"u": docs.preorder_to_doc(complete_preorder(["x"]))},
                "arrows": [{"name": "a", "src": "u", "tgt": "u", "map": [["x", "x"]]}],
            },
            "arrow 'a' map must map labels to labels",
        ),
        (
            {
                "vertices": ["u"],
                "preorders": {"u": docs.preorder_to_doc(complete_preorder(["x"]))},
                "arrows": [{"name": {}, "src": "u", "tgt": "u", "map": {"x": "x"}}],
            },
            "arrow names must be strings",
        ),
    ],
)
def test_colimit_rejects_malformed_diagram(capsys, tmp_path, doc, message):
    path = write(tmp_path, "diag.json", doc)
    code, out, err = run(capsys, "preorder", "colimit", path)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


# ---------------------------------------------------------------------------
# order commands


def test_order_cmp(capsys):
    code, out, _ = run(capsys, "order", "cmp", "--", "-5/6", "-1/3")
    assert code == 0 and out.strip() == "less"
    code, out, _ = run(capsys, "order", "cmp", "--", "(-1/3,-1/3)", "(-1/2,-1/2)")
    assert code == 0 and out.strip() == "less"
    code, out, _ = run(capsys, "order", "cmp", "--", "(-5/6,0)", "(-1/3,-1/6)")
    assert code == 0 and out.strip() == "incomparable"


def test_order_factform(capsys):
    code, out, _ = run(capsys, "--output", "machine", "order", "factform", "--", "-1/2")
    assert code == 0 and json.loads(out) == {"level": 2, "numerators": [1]}


def test_order_enumerate(capsys):
    code, out, _ = run(
        capsys, "--output", "machine", "order", "enumerate", "--arity", "1", "--level", "3"
    )
    assert code == 0
    got = json.loads(out)["characters"]
    assert got == [["-5/6"], ["-1/3"], ["-2/3"], ["-1/6"], ["-1/2"]]


def test_order_cmp_arity_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "order", "cmp", "--", "-1/2", "(-1/2,-1/2)")
    assert code == 2 and "equal length" in err
    code, _, err = run(capsys, "order", "enumerate", "--arity", "-1", "--level", "3")
    assert code == 2 and err.splitlines() == ["error: k must be non-negative"]


def test_caps_flag_enforced(capsys):
    code, _, err = run(
        capsys, "--caps", "factorial_level=3", "order", "factform", "--", "-1/24"
    )
    assert code == 3


# ---------------------------------------------------------------------------
# psod commands


def test_psod_build_nodal(capsys, tmp_path):
    path = write(tmp_path, "nodal.json", stratification_to_doc(nodal_cubic()))
    code, out, _ = run(capsys, "psod", "build", path, "--root", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("3 factors")
    assert "Perf(X)" in lines[-1]


def test_psod_build_machine_roundtrip(capsys, tmp_path):
    path = write(tmp_path, "cross.json", stratification_to_doc(simple_crossing(2)))
    code, out, _ = run(capsys, "--output", "machine", "psod", "build", path, "--root", "3")
    assert code == 0
    psod = psoddocs.psod_from_doc(json.loads(out))
    assert len(psod.index) == 9


def test_psod_build_from_atlas(capsys, tmp_path):
    path = write(
        tmp_path,
        "atlas.json",
        {
            "charts": [{"id": "U", "branches": ["b1", "b2"]}],
            "overlaps": [{"charts": ["U", "U"], "map": {"b1": "b2"}}],
        },
    )
    code, out, _ = run(capsys, "psod", "build", path, "--root", "2")
    assert code == 0 and out.strip().splitlines()[0].startswith("3 factors")


def test_psod_build_from_atlas_obeys_caps(capsys, tmp_path):
    # three branches give 3 + 3 + 1 = 7 local strata, 3 of codimension 1
    path = write(tmp_path, "atlas.json", {"charts": [{"id": "U", "branches": ["a", "b", "c"]}]})
    code, out, _ = run(capsys, "psod", "build", path, "--root", "2")
    assert code == 0 and out.splitlines()[0] == "8 factors (root)"
    # a chart with more branches than nerve_depth is refused, not truncated
    code, out, err = run(capsys, "--caps", "nerve_depth=2", "psod", "build", path, "--root", "2")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: chart 'U' has 3 branches, nerve_depth cap is 2"]
    code, out, err = run(capsys, "--caps", "carrier=5", "psod", "build", path, "--root", "2")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: local strata needs 7 elements, cap is 5"]


def test_psod_build_refuses_a_chart_past_nerve_depth(capsys, tmp_path):
    # four branches at the default nerve_depth (3) used to give 65 factors
    path = write(tmp_path, "atlas.json", {"charts": [{"id": "U", "branches": list("abcd")}]})
    code, out, err = run(capsys, "psod", "build", path, "--root", "3")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: chart 'U' has 4 branches, nerve_depth cap is 3"]
    # at the cap the chart is the simple crossing of four branches: 3^4 factors
    code, out, _ = run(capsys, "--caps", "nerve_depth=4", "psod", "build", path, "--root", "3")
    assert code == 0 and out.splitlines()[0] == "81 factors (root)"


@pytest.mark.parametrize("sid", ["D:1", ""])
def test_psod_build_stratum_id_with_colon_or_empty(capsys, tmp_path, sid):
    sd = {
        "strata": [
            {"id": "X", "codim": 0, "norm_components": ["X"]},
            {"id": sid, "codim": 1, "norm_components": ["D~"]},
        ],
        "closure": [[sid, "X"]],
    }
    path = write(tmp_path, "sd.json", sd)
    code, out, _ = run(capsys, "--output", "machine", "psod", "build", path, "--root", "3")
    assert code == 0
    psod = psoddocs.psod_from_doc(json.loads(out))
    assert psod.index.elements == (f"{sid}:(-2/3)", f"{sid}:(-1/3)", "X:()")
    assert [f.stratum_id for f in psod.factors.values()] == [sid, sid, "X"]


def test_psod_build_invalid_stratification_exits_2(capsys, tmp_path):
    sd = {
        "strata": [
            {"id": "X", "codim": 0, "norm_components": ["X"]},
            {"id": "Y", "codim": 0, "norm_components": ["Y"]},
        ],
    }
    path = write(tmp_path, "sd.json", sd)
    code, out, err = run(capsys, "psod", "build", path)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: invalid stratification: expected exactly one codim-0 stratum, found 2"
    ]


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("codim", "x", "stratum 'D': codim must be an integer"),
        ("codim", 1.7, "stratum 'D': codim must be an integer"),
        ("norm_components", "D~", "stratum 'D': norm_components must be a list of strings"),
    ],
)
def test_psod_build_rejects_coerced_stratum_fields(capsys, tmp_path, field, value, message):
    divisor = {"id": "D", "codim": 1, "norm_components": ["D~"]}
    divisor[field] = value
    sd = {
        "strata": [{"id": "X", "codim": 0, "norm_components": ["X"]}, divisor],
        "closure": [["D", "X"]],
    }
    path = write(tmp_path, "sd.json", sd)
    code, out, err = run(capsys, "psod", "build", path)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_psod_infinite(capsys, tmp_path):
    sd = {
        "strata": [
            {"id": "X", "codim": 0, "norm_components": ["X"]},
            {"id": "D", "codim": 1, "norm_components": ["D~"]},
        ],
        "closure": [["D", "X"]],
    }
    path = write(tmp_path, "sd.json", sd)
    code, out, _ = run(
        capsys, "--output", "machine", "psod", "infinite", path, "--level", "3"
    )
    assert code == 0
    psod = psoddocs.psod_from_doc(json.loads(out))
    assert len(psod.index) == 6


def test_psod_glue_cech(capsys, tmp_path, graded_oracle):
    from psodkit.engine import build_root_psod

    psod = build_root_psod(nodal_cubic(), 2)
    p = psod.index
    diag = PreorderDiagram(
        ("l0", "l1"),
        {"l0": p, "l1": p},
        (
            DiagramArrow("d0", "l0", "l1", identity_map(p), "contravariant"),
            DiagramArrow("d1", "l0", "l1", identity_map(p), "contravariant"),
        ),
    )
    path = write(
        tmp_path,
        "scenario.json",
        {
            "diagram": diagram_to_doc(diag),
            "psods": {"l0": docs.psod_to_doc(psod), "l1": docs.psod_to_doc(psod)},
        },
    )
    code, out, _ = run(capsys, "psod", "glue", path)
    assert code == 0
    assert "verdict: psod" in out
    assert "index preserved" in out
    assert graded_oracle == []  # no graded data, no graded limit


def test_psod_glue_violation_reports_in_band_exit_zero(capsys, tmp_path, graded_oracle):
    idx = discrete_preorder(["p1", "p2"])
    psod_doc = {
        "index": docs.preorder_to_doc(idx),
        "factors": {
            "p1": {"stratum": "S1", "character": [], "target": "Perf(C1)", "kdata": None},
            "p2": {"stratum": "S2", "character": [], "target": "Perf(C2)", "kdata": None},
        },
        "annotations": {},
    }
    diag = PreorderDiagram(("v",), {"v": idx})
    path = write(
        tmp_path,
        "scenario.json",
        {"diagram": diagram_to_doc(diag), "psods": {"v": psod_doc}},
    )
    code, out, _ = run(capsys, "--output", "machine", "psod", "glue", path)
    assert code == 0
    body = json.loads(out)
    assert body["kind"] == "pre-psod only"
    assert body["witness"]["kind"] == "incomparable_pair"
    assert graded_oracle == []


def test_psod_filtrate(capsys, tmp_path):
    from psodkit.engine import build_root_psod

    psod = build_root_psod(nodal_cubic(), 2)
    path = write(
        tmp_path,
        "filt.json",
        {
            "psod": docs.psod_to_doc(psod),
            "object": {"o:(-1/2,-1/2)": [1], "D:(-1/2)": [2], "X:()": [3]},
        },
    )
    code, out, _ = run(capsys, "--output", "machine", "psod", "filtrate", path)
    assert code == 0
    steps = json.loads(out)["steps"]
    assert [s["grade"] for s in steps] == ["X:()", "D:(-1/2)", "o:(-1/2,-1/2)"]
    assert steps[-1]["residual_support"] == []


def test_psod_ktheory(capsys, tmp_path):
    cross = simple_crossing(2)
    strat_path = write(tmp_path, "cross.json", stratification_to_doc(cross))
    kdata_path = write(
        tmp_path,
        "kdata.json",
        {c: {"rank": 1, "torsion": []} for c in cross.all_components()},
    )
    code, out, _ = run(
        capsys,
        "--output",
        "machine",
        "psod",
        "ktheory",
        strat_path,
        "--kdata",
        kdata_path,
        "--mode",
        "finite",
        "--root",
        "3",
    )
    assert code == 0
    body = json.loads(out)
    assert body["total"] == {"rank": 9, "torsion": []}


def _c2_ktheory(capsys, tmp_path, k, r, *flags):
    cross = simple_crossing(k)
    strat = write(tmp_path, "cross.json", stratification_to_doc(cross))
    kdata = write(
        tmp_path, "kdata.json", {c: {"rank": 1, "torsion": [2]} for c in cross.all_components()}
    )
    return run(
        capsys, *flags, "--output", "machine", "psod", "ktheory", strat, "--kdata", kdata,
        "--mode", "finite", "--root", str(r),
    )


def test_ktheory_torsion_capped_before_allocation(capsys, tmp_path):
    # crossing(4) at r=50 lists 4*49 + 6*49^2 + 4*49^3 + 49^4 = 6,249,999 copies of C2
    start = time.perf_counter()
    code, out, err = _c2_ktheory(capsys, tmp_path, 4, 50)
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.splitlines() == [
        "error: K-theory torsion needs 6249999 elements, cap is 100000"
    ]


def test_ktheory_torsion_cap_is_reachable(capsys, tmp_path):
    # crossing(2) at r=3 lists 2 + 2 + 4 = 8 copies of C2
    code, out, _ = _c2_ktheory(capsys, tmp_path, 2, 3, "--caps", "carrier=8")
    assert code == 0
    assert json.loads(out)["total"] == {"rank": 9, "torsion": [2] * 9}
    code, out, err = _c2_ktheory(capsys, tmp_path, 2, 3, "--caps", "carrier=7")
    assert code == 3 and out == ""
    assert err.splitlines() == ["error: K-theory torsion needs 8 elements, cap is 7"]


@pytest.mark.parametrize(
    "argv, line",
    [
        (["order", "enumerate", "--arity", "99999", "--level", "3"],
         "error: character enumeration needs at least 2^199998 elements, cap is 100000"),
        # 2999999^3 characters over the triple point; the residues are never made
        (["psod", "build", "{strat}", "--root", "3000000"],
         "error: divisor index needs 26999973000008999999 elements, cap is 100000"),
        # about 10^12000 copies of C2, a size too long to print in decimal
        (["psod", "ktheory", "{strat}", "--kdata", "{kdata}", "--root", "1" + "0" * 4000],
         "error: K-theory torsion needs at least 2^39863 elements, cap is 100000"),
        # {huge} is crossing(3) with its triple point at codimension 10^30.
        # Z_1, Z_2 and level 2 have at most one nonzero character, but a
        # tuple would need 10^30 residues.
        (["psod", "build", "{huge}", "--root", "1"],
         f"error: divisor index tuple needs {10**30} elements, cap is 100000"),
        (["psod", "build", "{huge}", "--root", "2"],
         f"error: divisor index tuple needs {10**30} elements, cap is 100000"),
        (["psod", "infinite", "{huge}", "--level", "2"],
         f"error: character enumeration tuple needs {10**30} elements, cap is 100000"),
        (["order", "enumerate", "--arity", str(10**30), "--level", "2"],
         f"error: character enumeration tuple needs {10**30} elements, cap is 100000"),
        (["order", "enumerate", "--arity", "1000000", "--level", "2"],
         "error: character enumeration tuple needs 1000000 elements, cap is 100000"),
        # (m-1)^(10^30) copies, refused before the power is formed
        (["psod", "ktheory", "{huge}", "--kdata", "{kdata}", "--mode", "finite", "--root", "3"],
         "error: K-theory multiplicity has more than {limit} digits, the most Python writes"),
        (["psod", "ktheory", "{huge}", "--kdata", "{kdata}", "--mode", "infinite",
          "--level", "3"],
         "error: K-theory multiplicity has more than {limit} digits, the most Python writes"),
        (["psod", "ktheory", "{huge}", "--kdata", "{kdata}", "--mode", "kummer", "--p", "2",
          "--level", "3"],
         "error: K-theory multiplicity has more than {limit} digits, the most Python writes"),
    ],
    ids=["enumerate-arity", "build-root", "ktheory-root", "build-huge-codim-r1",
         "build-huge-codim-r2", "infinite-huge-codim", "enumerate-arity-huge",
         "enumerate-arity-million", "ktheory-huge-codim-finite", "ktheory-huge-codim-infinite",
         "ktheory-huge-codim-kummer"],
)
def test_caps_checked_before_allocating_with_one_line_errors(capsys, tmp_path, argv, line):
    cross = simple_crossing(3)
    huge = stratification_to_doc(cross)
    (triple,) = [s for s in huge["strata"] if s["codim"] == 3]
    triple["codim"] = 10**30
    paths = {
        "strat": write(tmp_path, "cross.json", stratification_to_doc(cross)),
        "huge": write(tmp_path, "huge.json", huge),
        "kdata": write(tmp_path, "kdata.json",
                       {c: {"rank": 0, "torsion": [2]} for c in cross.all_components()}),
    }
    start = time.perf_counter()
    code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
    assert time.perf_counter() - start < 1
    assert code == 3 and out == ""
    assert err.splitlines() == [line.format(limit=sys.get_int_max_str_digits())]


@pytest.mark.parametrize("output", ["human", "machine"])
def test_ktheory_refuses_numbers_too_long_to_write(capsys, tmp_path, output):
    # crossing(3) with rank-1 K-data has total rank r^3 and largest
    # multiplicity (r-1)^3; Python writes at most `limit` decimal digits
    limit = sys.get_int_max_str_digits()
    r = 0  # becomes the largest r with r^3 < 10^limit, bit by bit
    for bit in reversed(range((10**limit).bit_length() // 3 + 1)):
        if (r | 1 << bit) ** 3 < 10**limit:
            r |= 1 << bit
    cross = simple_crossing(3)
    strat = write(tmp_path, "cross.json", stratification_to_doc(cross))
    kdata = write(
        tmp_path, "kdata.json", {c: {"rank": 1, "torsion": []} for c in cross.all_components()}
    )

    def ktheory(root):
        return run(capsys, "--output", output, "psod", "ktheory", strat, "--kdata", kdata,
                   "--mode", "finite", "--root", str(root))

    code, out, err = ktheory(r)
    assert code == 0 and err == ""
    if output == "machine":
        assert json.loads(out)["total"]["rank"] == r**3
    else:
        assert f"  total: Z^{r**3} (rank {r**3})" in out.splitlines()
    for root, what in [(r + 1, "K-theory rank or torsion"), (r + 2, "K-theory multiplicity")]:
        code, out, err = ktheory(root)
        assert code == 3 and out == ""
        assert err.splitlines() == [
            f"error: {what} has more than {limit} digits, the most Python writes"
        ]


def test_human_ktheory_writes_free_rank_as_a_power(capsys, tmp_path):
    # crossing(4) at r=50 has free rank 50^4 = 6,250,000
    cross = simple_crossing(4)
    strat = write(tmp_path, "cross.json", stratification_to_doc(cross))
    kdata = write(
        tmp_path, "kdata.json", {c: {"rank": 1, "torsion": []} for c in cross.all_components()}
    )
    code, out, _ = run(
        capsys, "psod", "ktheory", strat, "--kdata", kdata, "--mode", "finite", "--root", "50"
    )
    assert code == 0 and len(out) < 10_000
    assert "  total: Z^6250000 (rank 6250000)" in out.splitlines()


def test_psod_ktheory_needs_kdata(capsys, tmp_path):
    path = write(tmp_path, "nodal.json", stratification_to_doc(nodal_cubic()))
    code, _, err = run(capsys, "psod", "ktheory", path)
    assert code == 2 and "kdata" in err


def test_totalize_flag(capsys, tmp_path):
    path = write(tmp_path, "cross.json", stratification_to_doc(simple_crossing(2)))
    code, out, _ = run(
        capsys, "--output", "machine", "--totalize", "psod", "build", path, "--root", "3"
    )
    assert code == 0
    psod = psoddocs.psod_from_doc(json.loads(out))
    assert psod.annotations.get("totalized") == "true"


def test_bad_caps_rejected(capsys):
    code, _, err = run(capsys, "--caps", "bogus=3", "order", "cmp", "--", "0", "0")
    assert code == 2 and "unknown cap" in err


@pytest.mark.parametrize(
    "argv, body, message",
    [
        (["preorder", "pushout", "{body}"], ["left", "right"],
         "pushout document needs 'left' and 'right' maps"),
        (["psod", "filtrate", "{body}"], {"object": {}}, "filtrate document needs field 'psod'"),
        (["psod", "ktheory", "{nodal}", "--kdata", "{body}"], [1],
         "kdata must be an object keyed by component"),
        (["psod", "build", "{body}"], 5, "stratification document needs field 'strata'"),
    ],
)
def test_malformed_bodies_exit_1(capsys, tmp_path, argv, body, message):
    paths = {
        "body": write(tmp_path, "body.json", body),
        "nodal": write(tmp_path, "nodal.json", stratification_to_doc(nodal_cubic())),
    }
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "kdata, message",
    [
        (
            {"X": {"rank": 1.7}, "D~": {"rank": 0, "torsion": [2.9]}, "o": {"rank": 0}},
            "group rank must be an integer",
        ),
        (
            {"X": {"rank": 1}, "D~": {"rank": 0, "torsion": [2.9]}, "o": {"rank": 0}},
            "group torsion must be a list of integers",
        ),
        (
            {"X": {"rank": True}, "D~": {"rank": 0}, "o": {"rank": 0}},
            "group rank must be an integer",
        ),
    ],
)
def test_ktheory_rejects_coerced_groups(capsys, tmp_path, kdata, message):
    strat = write(tmp_path, "nodal.json", stratification_to_doc(nodal_cubic()))
    path = write(tmp_path, "kdata.json", kdata)
    code, out, err = run(capsys, "psod", "ktheory", strat, "--kdata", path)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "chart, overlap, message",
    [
        ({"id": "U", "branches": "ab"}, None, "chart 'U': branches must be a list of strings"),
        ({"id": 5, "branches": ["a"]}, None, "chart id must be a string"),
        (None, {"charts": ["U"], "map": {}}, "overlap charts must be a list of two chart ids"),
        (None, {"charts": ["U", "U"], "map": [["a", "b"]]}, "overlap map must map labels to labels"),
    ],
)
def test_psod_build_rejects_malformed_atlas(capsys, tmp_path, chart, overlap, message):
    atlas = {
        "charts": [chart or {"id": "U", "branches": ["a", "b"]}],
        "overlaps": [overlap] if overlap else [],
    }
    path = write(tmp_path, "atlas.json", atlas)
    code, out, err = run(capsys, "psod", "build", path)
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def test_each_output_mode_builds_only_its_own_text(capsys, tmp_path, monkeypatch):
    import psodkit.cli as cli

    def refuse(*args):
        raise AssertionError("built for the other output mode")

    path = write(tmp_path, "cross.json", stratification_to_doc(simple_crossing(2)))
    chain = write(tmp_path, "chain.json", chain_doc("a", "b"))
    monkeypatch.setattr(cli, "_render_psod", refuse)
    monkeypatch.setattr(cli, "_render_preorder", refuse)
    assert run(capsys, "--output", "machine", "psod", "build", path)[0] == 0
    assert run(capsys, "--output", "machine", "preorder", "coproduct", chain, chain)[0] == 0
    monkeypatch.undo()
    monkeypatch.setattr(docs, "psod_to_doc", refuse)
    monkeypatch.setattr(docs, "preorder_to_doc", refuse)
    assert run(capsys, "psod", "build", path)[0] == 0
    assert run(capsys, "preorder", "coproduct", chain, chain)[0] == 0


def _nodal_psod_doc():
    from psodkit.engine import build_root_psod

    return docs.psod_to_doc(build_root_psod(nodal_cubic(), 2))


def _set(doc, path, value):
    *head, last = path
    for key in head:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["factors"], [], "psod factors must be an object keyed by element"),
        (["annotations"], [["a", "b"]], "psod annotations must map labels to labels"),
        (["annotations", "r"], 2, "psod annotations must map labels to labels"),
        (["factors", "X:()", "stratum"], 5, "factor stratum must be a string"),
        (["factors", "X:()", "target"], ["Perf(X)"], "factor target must be a string"),
        (["factors", "X:()", "character"], [5], "character tuple must be a string or an array of residues"),
    ],
)
def test_filtrate_rejects_malformed_psod(capsys, tmp_path, path, value, message):
    body = {"psod": _nodal_psod_doc(), "object": {"X:()": [1]}}
    _set(body["psod"], path, value)
    code, out, err = run(capsys, "psod", "filtrate", write(tmp_path, "filt.json", body))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


def _graded_scenario_doc():
    psod = _nodal_psod_doc()
    elements = psod["index"]["elements"]
    diag = PreorderDiagram(
        ("l0", "l1"),
        {v: preorderdocs.preorder_from_doc(psod["index"]) for v in ("l0", "l1")},
        (
            DiagramArrow(
                "d0", "l0", "l1",
                identity_map(preorderdocs.preorder_from_doc(psod["index"])), "contravariant",
            ),
        ),
    )
    graded = {"index": psod["index"], "pieces": {x: {"rank": 1} for x in elements}}
    return {
        "diagram": diagram_to_doc(diag),
        "psods": {"l0": psod, "l1": docs.loads(docs.dumps(psod))},
        "graded": {"l0": graded, "l1": docs.loads(docs.dumps(graded))},
        "graded_homs": {
            "d0": {
                "reindex": {x: x for x in elements},
                "blocks": [{"source_grade": x, "target_grade": x, "matrix": [[1]]}
                           for x in elements],
            }
        },
    }


def test_glue_reads_graded_scenario(capsys, tmp_path, graded_oracle):
    path = write(tmp_path, "scenario.json", _graded_scenario_doc())
    code, out, _ = run(capsys, "--output", "machine", "psod", "glue", path)
    assert code == 0 and json.loads(out)["ungraded_total"] == {"rank": 3, "torsion": []}
    assert len(graded_oracle) == 1


def test_glue_graded_equalizer_matches_oracle(capsys, tmp_path, graded_oracle):
    # d0 is minus the identity on Z + C2 at every grade and d1 the identity:
    # the equalizer keeps the C2 of each of the three grades
    body = _graded_scenario_doc()
    elements = body["psods"]["l0"]["index"]["elements"]
    for graded in body["graded"].values():
        graded["pieces"] = {x: {"rank": 1, "torsion": [2]} for x in elements}
    body["diagram"]["arrows"].append({**body["diagram"]["arrows"][0], "name": "d1"})
    body["graded_homs"]["d0"]["blocks"] = [
        {"source_grade": x, "target_grade": x, "matrix": [[-1, 0], [0, -1]]}
        for x in elements
    ]
    path = write(tmp_path, "scenario.json", body)
    code, out, _ = run(capsys, "--output", "machine", "psod", "glue", path)
    assert code == 0
    assert json.loads(out)["ungraded_total"] == {"rank": 0, "torsion": [2, 2, 2]}
    assert len(graded_oracle) == 1


def test_glue_identity_blocks_between_unequal_graded_data_exits_2(capsys, tmp_path):
    # no graded hom for f, and its index map is defined on {b}, not on {a}:
    # the graded data is compared before identity blocks are built from it
    from psodkit.engine import FactorDescriptor, PsodIndex
    from psodkit.factorial import CharTuple

    idx = {"u": complete_preorder(["a"]), "v": complete_preorder(["b"])}
    f = OrderReflectingMap(idx["v"], idx["u"], {"b": "a"})
    diag = PreorderDiagram(("u", "v"), idx, (DiagramArrow("f", "u", "v", f, "contravariant"),))
    factor = FactorDescriptor("S", CharTuple(()), "Perf(S)")
    body = {
        "diagram": diagram_to_doc(diag),
        "psods": {
            v: docs.psod_to_doc(PsodIndex(p, {x: factor for x in p.elements}))
            for v, p in idx.items()
        },
        "graded": {
            v: {"index": docs.preorder_to_doc(p), "pieces": {x: {"rank": 1} for x in p.elements}}
            for v, p in idx.items()
        },
    }
    code, out, err = run(capsys, "psod", "glue", write(tmp_path, "scenario.json", body))
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: arrow 'f': identity blocks need equal graded data"]


def test_glue_cross_fiber_block_exits_2_with_one_line(capsys, tmp_path, monkeypatch):
    # a block from one grade to another, placed past GradedHom's constructor
    real = abelian.graded_limit
    elements = _graded_scenario_doc()["psods"]["l0"]["index"]["elements"]
    x, y = elements[:2]

    def with_cross_fiber_block(diagram, groups, homs, col):
        hom = homs[diagram.arrows[0].name]
        object.__setattr__(hom, "blocks", {**hom.blocks, (x, y): ((1,),)})
        return real(diagram, groups, homs, col)

    monkeypatch.setattr(abelian, "graded_limit", with_cross_fiber_block)
    path = write(tmp_path, "scenario.json", _graded_scenario_doc())
    code, out, err = run(capsys, "psod", "glue", path)
    assert code == 2 and out == ""
    assert err.splitlines() == [
        f"error: arrow 'd0': block ({x!r} -> {y!r}) leaves its fiber: "
        f"reindex({y!r}) = {y!r}, {x!r} lies over {x!r}, {y!r} over {y!r}"
    ]


@pytest.mark.parametrize(
    "path, value, message",
    [
        (["psods"], [], "scenario psods, graded and graded_homs must be objects"),
        (["psods", "l1", "factors"], [], "psod factors must be an object keyed by element"),
        (["psods", "l1", "factors", "X:()", "stratum"], 5, "factor stratum must be a string"),
        (["psods", "l0", "annotations"], [["a", "b"]],
         "psod annotations must map labels to labels"),
        (["graded", "l0", "pieces"], [], "graded group pieces must be an object keyed by element"),
        (["graded_homs", "d0", "reindex"], [["X:()", "X:()"]],
         "graded hom 'd0' reindex must map labels to labels"),
        (["graded_homs", "d0", "blocks", 0, "target_grade"], "nowhere",
         "graded hom 'd0': block grades must be index elements"),
        (["graded_homs", "d0", "blocks", 0, "matrix"], [[1.5]],
         "matrix must be a nested integer array"),
        (["graded_homs", "d0", "blocks"], 5, "graded hom 'd0': blocks must be a list"),
        (["graded_homs"], [], "scenario psods, graded and graded_homs must be objects"),
    ],
)
def test_glue_rejects_malformed_scenario(capsys, tmp_path, path, value, message):
    body = _graded_scenario_doc()
    _set(body, path, value)
    code, out, err = run(capsys, "psod", "glue", write(tmp_path, "scenario.json", body))
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "matrix, target_rank",
    [([[1], [1]], 1), ([], 1), ([[1, 0]], 1), ([[]], 1), ([[1], [1, 0]], 2), ([[1, 0], [1]], 2)],
    ids=["extra-row", "no-rows", "extra-column", "no-columns", "ragged", "ragged-first"],
)
def test_glue_rejects_misshapen_block(capsys, tmp_path, matrix, target_rank):
    # the block at the first grade runs from Z into Z^target_rank
    body = _graded_scenario_doc()
    block = body["graded_homs"]["d0"]["blocks"][0]
    x = block["source_grade"]
    body["graded"]["l1"]["pieces"][x] = {"rank": target_rank}
    block["matrix"] = matrix
    code, out, err = run(capsys, "psod", "glue", write(tmp_path, "scenario.json", body))
    assert code == 2 and out == ""
    assert err.splitlines() == [f"error: block ({x!r} -> {x!r}) has wrong shape"]


def test_glue_rejects_duplicate_graded_hom_block(capsys, tmp_path):
    body = _graded_scenario_doc()
    blocks = body["graded_homs"]["d0"]["blocks"]
    grade = blocks[0]["source_grade"]
    blocks.append({"source_grade": grade, "target_grade": grade, "matrix": [[2]]})
    code, out, err = run(capsys, "psod", "glue", write(tmp_path, "scenario.json", body))
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: graded hom 'd0': two blocks from {grade!r} to {grade!r}"
    ]


@pytest.mark.parametrize("n", [1, 4, 9])
def test_order_enumerate_coprime_to_must_be_prime(capsys, n):
    code, out, err = run(
        capsys, "order", "enumerate", "--arity", "1", "--level", "4", "--coprime-to", str(n)
    )
    assert code == 2 and out == ""
    assert err.splitlines() == ["error: coprime_to must be a prime >= 2"]


def test_order_enumerate_coprime_to_large_prime_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run(
        capsys, "order", "enumerate", "--arity", "1", "--level", "2",
        "--coprime-to", "100000000000031",
    )
    assert time.perf_counter() - start < 0.3
    assert code == 0 and out.splitlines() == ["(-1/2)"]


def test_order_enumerate_coprime_to_beyond_primality_bound_exits_2(capsys):
    code, out, err = run(
        capsys, "order", "enumerate", "--arity", "1", "--level", "2",
        "--coprime-to", str(10**25),
    )
    assert code == 2 and out == ""
    assert err.splitlines() == [
        "error: primality is only decided below 3317044064679887385961981"
    ]


@pytest.mark.parametrize("p, code", [(4, 2), (6, 2), (2, 0), (3, 0)])
def test_ktheory_kummer_p_must_be_prime(capsys, tmp_path, p, code):
    nodal = nodal_cubic()
    strat = write(tmp_path, "nodal.json", stratification_to_doc(nodal))
    kdata = write(tmp_path, "kdata.json", {c: {"rank": 1} for c in nodal.all_components()})
    got, out, err = run(
        capsys, "psod", "ktheory", strat, "--kdata", kdata, "--mode", "kummer",
        "--p", str(p), "--level", "3",
    )
    assert got == code
    if code:
        assert out == "" and err.splitlines() == ["error: p must be a prime >= 2"]


def test_glue_graded_hom_needs_graded_ends(capsys, tmp_path):
    body = _graded_scenario_doc()
    del body["graded"]["l1"]
    code, out, err = run(capsys, "psod", "glue", write(tmp_path, "scenario.json", body))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: graded hom 'd0' needs graded data at both ends"]


# ---------------------------------------------------------------------------
# writing stdout


CLI = [sys.executable, "-m", "psodkit.cli"]


def _cli_env():
    src = str(Path(psodkit.__file__).resolve().parents[1])
    path = [src, *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    # buffered stdout, as users run it: a small output fails only on flush
    env.pop("PYTHONUNBUFFERED", None)
    return env


def test_closed_pipe_exits_1_with_one_line(tmp_path):
    path = write(tmp_path, "cross.json", stratification_to_doc(simple_crossing(3)))
    proc = subprocess.Popen(
        CLI + ["--output", "machine", "psod", "build", path, "--root", "8"],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=_cli_env(),
    )
    try:
        # the 4 MB document cannot fit in the pipe, so a write fails mid-way
        head = proc.stdout.read(20)
        proc.stdout.close()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert head == b'{\n  "index": {\n    "'
    assert (code, err) == (1, "error: cannot write output: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("mode", ["machine", "human"])
def test_full_device_exits_1_with_one_line(tmp_path, mode):
    path = write(tmp_path, "nodal.json", stratification_to_doc(nodal_cubic()))
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            CLI + ["--output", mode, "psod", "build", path, "--root", "2"],
            stdin=subprocess.DEVNULL, stdout=full, stderr=subprocess.PIPE, text=True,
            env=_cli_env(), timeout=120,
        )
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write output: [Errno 28] No space left on device\n"
    )


def test_closed_stdout_exits_1_with_one_line():
    proc = subprocess.run(
        CLI + ["order", "cmp", "--", "0", "0"], preexec_fn=lambda: os.close(1),
        stdin=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=_cli_env(), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (
        1, "error: cannot write output: [Errno 9] standard output is closed\n"
    )


@pytest.mark.parametrize(
    "mode",
    [["finite", "--root", "3"], ["infinite", "--level", "3"], ["kummer", "--p", "2", "--level", "3"]],
    ids=["finite", "infinite", "kummer"],
)
def test_ktheory_refuses_huge_powers_without_a_digit_limit(tmp_path, mode):
    # PYTHONINTMAXSTRDIGITS=0 lifts Python's digit limit; (m-1)^(10^30) is
    # still refused by its bit length before it is formed, in a child with
    # an 800 MB address space
    cross = simple_crossing(2)
    huge = stratification_to_doc(cross)
    (double,) = [s for s in huge["strata"] if s["codim"] == 2]
    double["codim"] = 10**30
    strat = write(tmp_path, "huge.json", huge)
    kdata = write(tmp_path, "kdata.json",
                  {c: {"rank": 0, "torsion": [2]} for c in cross.all_components()})
    start = time.perf_counter()
    proc = subprocess.run(
        CLI + ["psod", "ktheory", strat, "--kdata", kdata, "--mode", *mode],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (800_000 * 1024,) * 2),
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env=dict(_cli_env(), PYTHONINTMAXSTRDIGITS="0"), timeout=10,
    )
    assert time.perf_counter() - start < 1
    bits = 16 * sys.int_info.default_max_str_digits
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [f"error: K-theory multiplicity has more than {bits} bits"]


def _one_factor_scenario(character):
    idx = discrete_preorder(["p1"])
    factor = {"stratum": "S1", "character": character, "target": "Perf(C1)", "kdata": None}
    psod = {"index": docs.preorder_to_doc(idx), "factors": {"p1": factor}, "annotations": {}}
    diag = PreorderDiagram(("v",), {"v": idx})
    return {"diagram": diagram_to_doc(diag), "psods": {"v": psod}}


@pytest.mark.parametrize(
    "argv, line",
    [
        # Fraction forms 10**5000 at once; its 5,001 digits are too many to write
        (["--output", "machine", "psod", "glue", "{scenario}"],
         "error: residue has more than {limit} digits, the most Python writes"),
        # 10**100000000 is refused before it is formed
        (["order", "cmp", "--", "-1e-100000000", "0"],
         "error: residue exponent -100000000 needs more than {bits} bits"),
    ],
    ids=["glue", "cmp"],
)
def test_residue_exponents_end_in_a_cap_error(capsys, tmp_path, argv, line):
    scenario = write(tmp_path, "scenario.json", _one_factor_scenario(["-1e-5000"]))
    start = time.perf_counter()
    code, out, err = run(capsys, *[arg.format(scenario=scenario) for arg in argv])
    assert time.perf_counter() - start < 1
    limit = sys.get_int_max_str_digits()
    assert (code, out) == (3, "")
    assert err.splitlines() == [line.format(limit=limit, bits=16 * limit)]


def test_residue_exponent_is_bounded_without_a_digit_limit():
    # with PYTHONINTMAXSTRDIGITS=0 the power is still refused by its size,
    # in a child with an 800 MB address space
    start = time.perf_counter()
    proc = subprocess.run(
        CLI + ["order", "cmp", "--", "-1e-100000000", "0"],
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (800_000 * 1024,) * 2),
        stdin=subprocess.DEVNULL, capture_output=True, text=True,
        env=dict(_cli_env(), PYTHONINTMAXSTRDIGITS="0"), timeout=10,
    )
    assert time.perf_counter() - start < 1
    bits = 16 * sys.int_info.default_max_str_digits
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr.splitlines() == [
        f"error: residue exponent -100000000 needs more than {bits} bits"
    ]


def test_colimit_labels_stay_distinct_when_dotted_names_collide(capsys, tmp_path):
    # bare labels collide (z, z), and so do vertex-qualified ones (a.b.c twice)
    diagram = PreorderDiagram(
        ("a", "a.b"),
        {"a": discrete_preorder(["b.c", "z"]), "a.b": discrete_preorder(["c", "z"])},
    )
    path = write(tmp_path, "dotted.json", diagram_to_doc(diagram))
    code, out, err = run(capsys, "--output", "machine", "preorder", "colimit", path)
    assert (code, err) == (0, "")
    body = json.loads(out)
    assert body["preorder"]["elements"] == ["a.b.c#0", "a.z#1", "a.b.c#2", "a.b.z#3"]
    assert body["cocones"] == {"a": {"b.c": "a.b.c#0", "z": "a.z#1"},
                               "a.b": {"c": "a.b.c#2", "z": "a.b.z#3"}}


# sha256 of what json.dumps(doc, indent=2) wrote for this job before streaming
CROSS3_R12_SHA256 = "165cf21a5a88e64e3ee5411be528307942a8775db1f4e5e935325fd1a6239031"
# and at --root 16, when rows were still spelled out as lists of booleans
CROSS3_R16_SHA256 = "5aa8d07457ffbd42156d0b165be31c395fdfdc81e7a7ec155bb679f2825e539e"

# Runs the command given as arguments and prints its exit code, the sha256 of
# its stdout and its peak resident set in KB.  A fresh helper, because
# RUSAGE_CHILDREN keeps the largest child a process ever waited for.
MAXRSS_PROBE = """
import hashlib, resource, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.PIPE)
digest = hashlib.sha256()
for block in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(block)
print(proc.wait(), digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _probe_cross3_build(tmp_path, r):
    """Exit code, sha256 and peak resident set in KB of machine-mode
    ``psod build --root r`` on crossing(3), and its stderr."""
    path = write(tmp_path, "cross.json", stratification_to_doc(simple_crossing(3)))
    proc = subprocess.run(
        [sys.executable, "-c", MAXRSS_PROBE]
        + CLI + ["--output", "machine", "psod", "build", path, "--root", str(r)],
        capture_output=True, text=True, env=_cli_env(), timeout=300,
    )
    code, sha, maxrss_kb = proc.stdout.split()
    return code, sha, int(maxrss_kb), proc.stderr


def test_large_machine_output_is_streamed(tmp_path):
    # 1,728 factors: a 44 MB document; json.dumps(indent=2) peaked at 293 MB
    code, sha, maxrss_kb, err = _probe_cross3_build(tmp_path, 12)
    assert (code, sha) == ("0", CROSS3_R12_SHA256), err
    assert maxrss_kb < 100 * 1024


def test_leq_rows_are_written_without_a_boolean_matrix(tmp_path):
    # 4,096 factors: 16.7M cells, which as lists of booleans peaked at 151 MB
    code, sha, maxrss_kb, err = _probe_cross3_build(tmp_path, 16)
    assert (code, sha) == ("0", CROSS3_R16_SHA256), err
    assert maxrss_kb < 100 * 1024
