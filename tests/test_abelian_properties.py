import math
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from psodkit.abelian import graded_limit, is_valid_hom
from psodkit.colimits import colimit
from psodkit.errors import PreconditionError
from psodkit.groups import FgAbGroup

from test_abelian import (
    diagonal,
    invariant_factors,
    mul,
    random_graded_scenario,
    relation_matrix,
    solve_columns,
    ungraded_limit_oracle,
)

# small primes make shared factors common; the large ones exceed 10^12
_ATOMS = (2, 3, 5, 7, 1_000_000_000_039, 1_000_000_000_061)


@st.composite
def _invariant_lists(draw):
    """Cyclic orders drawn with repetition from a few products of atom
    powers, with some free (0) and trivial (1) summands."""
    exponents = st.lists(st.integers(0, 3), min_size=len(_ATOMS), max_size=len(_ATOMS))
    pool = []
    for exps in draw(st.lists(exponents, min_size=1, max_size=4)):
        d = 1
        for atom, e in zip(_ATOMS, exps):
            # the large atoms at most once, to keep the dense oracle quick
            d *= atom ** (min(e, 1) if atom > 10 else e)
        pool.append(d)
    return draw(st.lists(st.sampled_from(pool + [0]), max_size=10))


def _snf_oracle(invariants):
    torsion = [d for d in invariants if d > 1]
    chain = invariant_factors(diagonal(torsion)) if torsion else ()
    return FgAbGroup(invariants.count(0), tuple(d for d in chain if d > 1))


def _groups():
    return _invariant_lists().map(FgAbGroup.from_invariants)


@settings(max_examples=100, deadline=None)
@given(_invariant_lists())
def test_from_invariants_matches_snf_of_diagonal(invariants):
    assert FgAbGroup.from_invariants(invariants) == _snf_oracle(invariants)


@settings(max_examples=60, deadline=None)
@given(_groups(), st.integers(0, 5))
def test_multiple_repeats_each_invariant(g, m):
    expected = FgAbGroup.from_invariants([0] * (g.rank * m) + list(g.torsion) * m)
    assert g.multiple(m) == expected


@settings(max_examples=40, deadline=None)
@given(_groups(), _groups(), _groups())
def test_direct_sum_commutative_and_associative(a, b, c):
    assert a.direct_sum(b) == b.direct_sum(a)
    assert a.direct_sum(b).direct_sum(c) == a.direct_sum(b.direct_sum(c)) == a.direct_sum(b, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_graded_limit_matches_ungraded_oracle(seed):
    # the first scenario from the drawn seed whose index diagram glues
    rng = random.Random(seed)
    while True:
        quiver = random_graded_scenario(rng)
        try:
            col = colimit(quiver[0])
        except PreconditionError:
            continue
        break
    res = graded_limit(*quiver, col)
    assert res.ungraded == ungraded_limit_oracle(*quiver)


def _old_is_valid_hom(src, dst, matrix):
    """The rule ``is_valid_hom`` replaced: solve for the image of the source
    relations in the target relation lattice by HNF."""
    if len(matrix) != dst.ngens or any(len(r) != src.ngens for r in matrix):
        return False
    live_src, live_dst = len(src.torsion), len(dst.torsion)
    image = mul(matrix, relation_matrix(src.orders), live_src)
    if not dst.torsion:
        return all(x == 0 for row in image for x in row)
    try:
        solve_columns(relation_matrix(dst.orders), image, live_dst, live_src)
    except PreconditionError:
        return False
    return True


@st.composite
def _small_groups(draw):
    kind = draw(st.sampled_from(["zero", "free", "torsion", "mixed"]))
    rank = draw(st.integers(1, 3)) if kind in ("free", "mixed") else 0
    orders = st.sampled_from([2, 3, 4, 6, 8, 9, 12])
    torsion = draw(st.lists(orders, min_size=1, max_size=3)) if kind in ("torsion", "mixed") else []
    return FgAbGroup.from_invariants([0] * rank + torsion)


@st.composite
def _hom_candidates(draw):
    """A source, a target and a generator matrix: of the wrong shape, with
    free entries, or snapped to the multiples a homomorphism needs (zero
    where torsion meets a free row), so that both verdicts are common."""
    src, dst = draw(_small_groups()), draw(_small_groups())
    shape = draw(st.sampled_from(["right", "right", "right", "rows", "cols"]))
    rows = dst.ngens + (shape == "rows")
    cols = src.ngens + (shape == "cols")
    snap = shape == "right" and draw(st.booleans())
    dst_orders = [0] * dst.rank + list(dst.torsion)
    src_orders = [0] * src.rank + list(src.torsion)
    entries = []
    for i in range(rows):
        row = []
        for j in range(cols):
            k = draw(st.integers(-4, 4))
            if snap and src_orders[j]:
                e, d = dst_orders[i], src_orders[j]
                k = k * (e // math.gcd(d, e)) if e else 0
            row.append(k)
        entries.append(row)
    return src, dst, entries


@settings(max_examples=200, deadline=None)
@given(_hom_candidates())
def test_is_valid_hom_matches_hnf_solve(case):
    src, dst, matrix = case
    assert is_valid_hom(src, dst, matrix) == _old_is_valid_hom(src, dst, matrix)
