"""The order of a root index against the local model of the root stack.

In the local model [A^k / mu_r^k] the factor for stratum I and character e
is the pushforward from the coordinate subspace {x_i = 0 : i in I}, twisted
by e.  By the Koszul resolution, Ext^*(A, B) is nonzero exactly when, in
every coordinate i, (e_B,i - e_A,i) mod r lies in

- {0, nu} when i is in I_A and I_B,
- {nu} when i is in I_A only,
- {0} when i is in I_B only,
- Z/r when i is in neither,

where nu is the weight of the normal direction.  A semi-orthogonal
decomposition must order every pair with nonzero Ext as A <= B; pairs with
zero Ext constrain nothing."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from psodkit.engine import build_root_psod
from psodkit.examples import simple_crossing


def _local_model(psod, r):
    """Each factor as (I, e): its branch indices and its weight e_i =
    num * r / den on each of them."""
    out = {}
    for x, f in psod.factors.items():
        branches = [] if f.stratum_id == "X" else [int(h[1:]) for h in f.stratum_id.split("&")]
        weights = {i: c.num * r // c.den for i, c in zip(branches, f.character.components)}
        out[x] = (set(branches), weights)
    return out


def _ext_nonzero(a, b, r, k, nu):
    (ia, ea), (ib, eb) = a, b
    for i in range(1, k + 1):
        d = (eb.get(i, 0) - ea.get(i, 0)) % r
        if i in ia and i in ib:
            allowed = {0, nu % r}
        elif i in ia:
            allowed = {nu % r}
        elif i in ib:
            allowed = {0}
        else:
            continue
        if d not in allowed:
            return False
    return True


def _constrained_pairs(k, r, nu):
    psod = build_root_psod(simple_crossing(k), r)
    model = _local_model(psod, r)
    pairs = [
        (a, b)
        for a in psod.index.elements
        for b in psod.index.elements
        if a != b and _ext_nonzero(model[a], model[b], r, k, nu)
    ]
    return psod.index, pairs


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(1, 5))
def test_root_index_orders_every_pair_with_nonzero_ext(k, r):
    index, pairs = _constrained_pairs(k, r, nu=1)
    assert [(a, b) for a, b in pairs if not index.le(a, b)] == []
    # the convention: the ambient factor comes last
    assert index.elements[-1] == "X:()"
    assert all(index.le(a, "X:()") for a in index.elements)


def test_the_flipped_conventions_fail():
    # the oracle tells orders apart: with the normal weight's sign flipped,
    # or every constrained pair read as B <= A, the root indices fail it
    total = flipped_sign = reversed_pairs = 0
    for k in range(4):
        for r in range(1, 6):
            index, pairs = _constrained_pairs(k, r, nu=1)
            total += len(pairs)
            reversed_pairs += sum(not index.le(b, a) for a, b in pairs)
            index, pairs = _constrained_pairs(k, r, nu=-1)
            flipped_sign += sum(not index.le(a, b) for a, b in pairs)
    assert total == 1120
    assert flipped_sign == 648
    assert reversed_pairs == 1120
