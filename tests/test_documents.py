import pytest

from psodkit import documents as docs
from psodkit import preorderdocs
from psodkit import psoddocs
from psodkit.abelian import GradedGroup
from psodkit.engine import build_root_psod
from psodkit.errors import InputError, ParseError
from psodkit.examples import nodal_cubic, simple_crossing
from psodkit.gluing import GluingScenario, glue
from psodkit.groups import FgAbGroup
from psodkit.kreport import KTheoryMode, ktheory_report
from psodkit.preorders import (
    CONTRAVARIANT,
    DiagramArrow,
    FinitePreorder,
    PreorderDiagram,
    complete_preorder,
    discrete_preorder,
)

from helpers import (
    char_tuple,
    diagram_to_doc,
    generated_preorder,
    identity_map,
    map_to_doc,
    stratification_to_doc,
)


def roundtrip(to_doc, from_doc, value):
    doc = to_doc(value)
    text = docs.dumps(doc)
    return from_doc(docs.loads(text))


def test_preorder_roundtrip():
    p = generated_preorder(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert roundtrip(docs.preorder_to_doc, preorderdocs.preorder_from_doc, p) == p


def test_nontransitive_relation_roundtrips():
    from psodkit.colimits import coproduct

    out, _ = coproduct([discrete_preorder(["a", "b"]), generated_preorder(["c", "d"], [("c", "d")])])
    assert not out.is_transitive
    assert roundtrip(docs.preorder_to_doc, preorderdocs.preorder_from_doc, out) == out


def test_preorder_document_holds_the_rows_and_is_read_directly():
    p = generated_preorder(["a", "b", "c"], [("a", "b")])
    doc = docs.preorder_to_doc(p)
    assert doc == {"elements": ["a", "b", "c"], "leq": docs.LeqRows(p.rows)}
    # the reader takes the text's boolean matrix, not the writer's rows
    assert preorderdocs.preorder_from_doc(docs.loads(docs.dumps(doc))) == p
    with pytest.raises(ParseError, match="matrix of booleans"):
        preorderdocs.preorder_from_doc(doc)
    assert docs.dumps(doc["leq"]) == (
        "[\n  [\n    true,\n    true,\n    false\n  ],\n"
        "  [\n    false,\n    true,\n    false\n  ],\n"
        "  [\n    false,\n    false,\n    true\n  ]\n]"
    )


@pytest.mark.parametrize(
    "rows, message",
    [((1,), "one row per element"), ((1, 0b110), "no bit at or above"),
     ((1, 1), "not reflexive at 'b'")],
)
def test_rows_read_directly_meet_the_carrier_checks(rows, message):
    with pytest.raises(InputError, match=message):
        FinitePreorder(("a", "b"), rows)


def test_map_roundtrip():
    p = generated_preorder(["a", "b"], [("a", "b")])
    m = identity_map(p)
    got = roundtrip(map_to_doc, preorderdocs.map_from_doc, m)
    assert got == m


def test_diagram_roundtrip():
    p = complete_preorder(["x"])
    q = complete_preorder(["u", "v"])
    m = preorderdocs.map_from_doc(
        {
            "source": docs.loads(docs.dumps(docs.preorder_to_doc(q))),
            "target": docs.loads(docs.dumps(docs.preorder_to_doc(p))),
            "map": {"u": "x", "v": "x"},
        }
    )
    diag = PreorderDiagram(
        ("a", "b"),
        {"a": p, "b": q},
        (DiagramArrow("f", "a", "b", m, CONTRAVARIANT),),
    )
    got = roundtrip(diagram_to_doc, preorderdocs.diagram_from_doc, diag)
    assert got.vertices == diag.vertices
    assert got.preorders == dict(diag.preorders)
    assert got.arrows[0].orientation == CONTRAVARIANT
    assert got.arrows[0].map == m


def test_char_tuple_docs():
    chi = char_tuple("-1/2", "0", "-2/3")
    assert docs.char_tuple_to_doc(chi) == ["-1/2", "0", "-2/3"]
    assert psoddocs.char_tuple_from_doc(["-1/2", "0", "-2/3"]) == chi
    assert psoddocs.char_tuple_from_doc("(-1/2,-2/3)") == char_tuple("-1/2", "-2/3")


def test_stratification_roundtrip():
    for s in (nodal_cubic(), simple_crossing(2)):
        got = roundtrip(stratification_to_doc, docs.stratification_from_doc, s)
        assert got == s


def test_group_and_graded_roundtrip():
    g = FgAbGroup(2, (2, 6))
    assert roundtrip(docs.group_to_doc, psoddocs.group_from_doc, g) == g
    p = complete_preorder(["w"])
    gg = GradedGroup(p, {"w": g})
    got = roundtrip(psoddocs.graded_group_to_doc, psoddocs.graded_group_from_doc, gg)
    assert got == gg


def test_psod_roundtrip():
    psod = build_root_psod(nodal_cubic(), 2)
    got = roundtrip(docs.psod_to_doc, psoddocs.psod_from_doc, psod)
    assert got.index == psod.index
    assert dict(got.factors) == dict(psod.factors)
    assert dict(got.annotations) == dict(psod.annotations)


def test_scenario_roundtrip_with_graded_homs():
    psod = build_root_psod(nodal_cubic(), 2)
    p = psod.index
    diag = PreorderDiagram(
        ("l0", "l1"),
        {"l0": p, "l1": p},
        (DiagramArrow("d0", "l0", "l1", identity_map(p), CONTRAVARIANT),),
    )
    doc = {
        "diagram": diagram_to_doc(diag),
        "psods": {"l0": docs.psod_to_doc(psod), "l1": docs.psod_to_doc(psod)},
        "graded": {
            v: {
                "index": docs.preorder_to_doc(p),
                "pieces": {x: {"rank": 1, "torsion": []} for x in p.elements},
            }
            for v in ("l0", "l1")
        },
        "graded_homs": {
            "d0": {
                "reindex": {x: x for x in p.elements},
                "blocks": [
                    {"source_grade": x, "target_grade": x, "matrix": [[1]]}
                    for x in p.elements
                ],
            }
        },
    }
    scenario = psoddocs.scenario_from_doc(docs.loads(docs.dumps(doc)))
    res = glue(scenario)
    assert res.kind == "psod"
    assert res.graded is not None
    assert res.graded.graded.pieces[p.elements[0]] == FgAbGroup.free(1)


def test_glue_and_ktheory_docs_are_serializable():
    psod = build_root_psod(nodal_cubic(), 2)
    p = psod.index
    diag = PreorderDiagram(("l0",), {"l0": p})
    res = glue(GluingScenario(diag, {"l0": psod}))
    docs.dumps(psoddocs.glue_result_to_doc(res))
    nc = nodal_cubic()
    rep = ktheory_report(
        nc, {c: FgAbGroup.free(1) for c in nc.all_components()}, KTheoryMode.finite(2)
    )
    docs.dumps(psoddocs.ktheory_to_doc(rep))


def test_parse_errors():
    with pytest.raises(ParseError):
        docs.loads("{nope")
    with pytest.raises(ParseError):
        preorderdocs.preorder_from_doc({"elements": ["a"]})
    with pytest.raises(ParseError):
        preorderdocs.preorder_from_doc({"elements": [1], "leq": [[True]]})
