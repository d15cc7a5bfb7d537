"""The streaming writer gives exactly the text of ``json.dumps(indent=2)``."""

import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from psodkit import documents as docs

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
_leaf_lists = st.lists(st.booleans(), max_size=17) | st.lists(_strings, max_size=17)

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
