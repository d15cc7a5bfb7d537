"""The streaming writer gives exactly the text of ``json.dumps(indent=2)``."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from psodkit import documents as docs
from psodkit import preorderdocs
from psodkit import psoddocs
from psodkit.engine import FactorDescriptor, PsodIndex
from psodkit.groups import FgAbGroup
from psodkit.preorders import DiagramArrow, FinitePreorder, PreorderDiagram
from psodkit.residues import CharTuple

from helpers import diagram_to_doc, identity_map, map_to_doc

# quotes, backslashes, control and non-ASCII characters need escapes
_strings = st.text() | st.text(alphabet='"\\\x00\x1f\x7f\n\té \U0001f600ab', max_size=6)

_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200)
    | st.floats()
    | _strings
)

# the writer joins these in one piece
_leaf_lists = (
    st.lists(st.booleans(), max_size=17)
    | st.lists(_strings, max_size=17)
    | st.lists(st.integers() | st.integers(2**64, 2**200), max_size=17)
)

_documents = st.recursive(
    _scalars | _leaf_lists,
    lambda kids: st.lists(kids, max_size=5)
    | st.lists(kids, max_size=5).map(tuple)
    | st.dictionaries(_strings, kids, max_size=5),
    max_leaves=30,
)


@given(_documents)
def test_writer_matches_json_indent_2(doc):
    assert docs.dumps(doc) == json.dumps(doc, indent=2)
    assert "".join(docs.chunks(doc)) == docs.dumps(doc)


@given(st.lists(st.one_of(st.booleans(), _strings, st.integers(), st.none()), max_size=17))
def test_writer_matches_json_indent_2_on_mixed_lists(doc):
    assert docs.dumps(doc) == json.dumps(doc, indent=2)


def test_integers_past_the_digit_limit_fail_as_in_json():
    with pytest.raises(ValueError) as expected:
        json.dumps([1, 10**5000], indent=2)
    with pytest.raises(ValueError) as got:
        docs.dumps([1, 10**5000])
    assert str(got.value) == str(expected.value)


# n = 0, 1 and the sizes around a byte boundary, then any size up to 40
_sizes = st.sampled_from([0, 1, 7, 8, 9]) | st.integers(0, 40)


@st.composite
def _relations(draw):
    """Reflexive relations, transitive or not."""
    n = draw(_sizes)
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n))
    return FinitePreorder(tuple(f"e{i}" for i in range(n)), rows)


def _plain(doc):
    """The document with every ``leq`` spelled out as lists of booleans."""
    if isinstance(doc, docs.LeqRows):
        n = len(doc.rows)
        return [[bool(r >> j & 1) for j in range(n)] for r in doc.rows]
    if isinstance(doc, dict):
        return {k: _plain(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_plain(v) for v in doc]
    return doc


def _psod(p):
    factor = FactorDescriptor("S", CharTuple(()), "Perf(S)", FgAbGroup(1, (2,)))
    return PsodIndex(p, {x: factor for x in p.elements}, {"note": "x"})


def _diagram(p):
    return PreorderDiagram(
        ("u", "v"), {"u": p, "v": p}, (DiagramArrow("f", "u", "v", identity_map(p)),)
    )


# a preorder document bare and nested at several depths, with its reader
_NESTINGS = [
    (lambda p: p, docs.preorder_to_doc, preorderdocs.preorder_from_doc),
    (identity_map, map_to_doc, preorderdocs.map_from_doc),
    (_diagram, diagram_to_doc, preorderdocs.diagram_from_doc),
    (_psod, docs.psod_to_doc, psoddocs.psod_from_doc),
]


@pytest.mark.parametrize("make, to_doc, from_doc", _NESTINGS,
                         ids=["preorder", "map", "diagram", "psod"])
@given(p=_relations())
def test_leq_rows_print_as_their_boolean_matrix(make, to_doc, from_doc, p):
    value = make(p)
    doc = to_doc(value)
    plain = _plain(doc)
    text = docs.dumps(doc)
    assert text == json.dumps(plain, indent=2)
    assert "".join(docs.chunks({"a": [doc]})) == json.dumps({"a": [plain]}, indent=2)
    assert from_doc(docs.loads(text)) == value
    assert from_doc(plain) == value
