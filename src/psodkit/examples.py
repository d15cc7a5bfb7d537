"""Example stratifications: the k-fold coordinate crossing and the nodal cubic.

No command reads them; the README's examples and the tests build on them.
"""

from __future__ import annotations

import itertools

from .errors import InputError
from .strata import Stratification, Stratum


def simple_crossing(k: int) -> Stratification:
    """The k-fold coordinate crossing: one stratum per nonempty subset of the
    k branches, plus the ambient stratum X."""
    if k < 0:
        raise InputError("k must be non-negative")
    branches = [f"H{i + 1}" for i in range(k)]
    strata = [Stratum("X", 0, ("X",))]
    closure: list[tuple[str, str]] = []
    names: dict[frozenset, str] = {}
    for size in range(1, k + 1):
        for sub in itertools.combinations(branches, size):
            name = "&".join(sub)
            names[frozenset(sub)] = name
            strata.append(Stratum(name, size, (f"{name}~",)))
            closure.append((name, "X"))
    for sub, name in names.items():
        for other, oname in names.items():
            if other < sub:
                closure.append((name, oname))
    return Stratification(tuple(strata), tuple(closure))


def nodal_cubic() -> Stratification:
    """The plane X with an irreducible nodal curve D: three strata in a
    chain down to the node o, the divisor's normalization a single component."""
    return Stratification(
        (Stratum("X", 0, ("X",)), Stratum("D", 1, ("D~",)), Stratum("o", 2, ("o",))),
        (("o", "D"), ("D", "X")),
    )
