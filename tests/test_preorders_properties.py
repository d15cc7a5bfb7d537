import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from psodkit import documents as docs
from psodkit.preorders import FinitePreorder, generated_preorder

from test_preorders import iso_key


@st.composite
def _relabelled_preorders(draw):
    q = draw(st.integers(0, 5))
    pairs = draw(
        st.lists(st.tuples(st.integers(0, q - 1), st.integers(0, q - 1)), max_size=8)
        if q
        else st.just([])
    )
    perm = draw(st.permutations(range(q)))
    labels = [f"e{i}" for i in range(q)]
    rows = generated_preorder(labels, [(labels[x], labels[y]) for x, y in pairs]).rows
    moved = [0] * q
    for x in range(q):
        for y in range(q):
            if rows[x] >> y & 1:
                moved[perm[x]] |= 1 << perm[y]
    return rows, tuple(moved)


@given(_relabelled_preorders())
def test_iso_key_invariant_under_relabelling(pair):
    rows, moved = pair
    assert iso_key(rows) == iso_key(moved)


@st.composite
def _reflexive_relations(draw):
    n = draw(st.integers(0, 7))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) | 1 << i for i in range(n))
    return FinitePreorder(tuple(f"e{i}" for i in range(n)), rows)


@given(_reflexive_relations())
def test_preorder_document_roundtrip(p):
    # non-transitive relations included: the document stores any reflexive one
    doc = docs.loads(docs.dumps(docs.preorder_to_doc(p)))
    assert doc["leq"] == [[p.le(x, y) for y in p.elements] for x in p.elements]
    assert docs.preorder_from_doc(doc) == p
