"""K-theory reports of root constructions.

``ktheory_report`` gives the direct-sum bookkeeping: the ambient group plus,
for every stratum, one copy of K of its normalization per character, in
exact invariant-factor arithmetic (``groups``), with no lattice algebra.
"""

from __future__ import annotations

import math
import sys
from typing import Mapping, Optional

from .config import DEFAULT_CAPS, Caps, formed_bits, written
from .errors import CapExceededError, InputError
from .groups import FgAbGroup
from .records import record
from .strata import Stratification, deepest_first, require_valid


@record
class KTheoryMode:
    kind: str  # "finite" | "infinite" | "kummer_etale"
    r: Optional[int] = None
    level: Optional[int] = None
    p: Optional[int] = None

    @classmethod
    def finite(cls, r: int) -> "KTheoryMode":
        if r < 1:
            raise InputError("r must be at least 1")
        return cls("finite", r=r)

    @classmethod
    def infinite(cls, level: int) -> "KTheoryMode":
        if level < 2:
            raise InputError("truncation level must be at least 2")
        return cls("infinite", level=level)

    @classmethod
    def kummer_etale(cls, p: int, level: int) -> "KTheoryMode":
        from .residues import is_prime

        if not is_prime(p):
            raise InputError("p must be a prime >= 2")
        if level < 2:
            raise InputError("truncation level must be at least 2")
        return cls("kummer_etale", p=p, level=level)


@record
class KTheoryRow:
    stratum_id: str
    codim: int
    summand: FgAbGroup  # K of the stratum's normalization
    multiplicity: int
    symbolic_multiplicity: str  # exact for finite mode, "countably infinite" otherwise
    contribution: FgAbGroup


@record
class KTheoryReport:
    mode: KTheoryMode
    ambient: FgAbGroup
    rows: tuple[KTheoryRow, ...]
    total: FgAbGroup  # exact total (truncated total outside finite mode)
    truncated: bool

    def rank(self) -> int:
        return self.total.rank


def _char_count(codim: int, mode: KTheoryMode, caps: Caps) -> int:
    """(m - 1) ** codim, the characters of one stratum.  The power is at
    least 2 ** low for an m - 1 of b bits, low = codim * (b - 1); past
    2 ** formed_bits() it has far more digits than Python writes and is
    refused unformed.
    Smaller powers form at once; the report checks the exact counts."""
    if mode.kind == "finite":
        m = mode.r
    else:
        caps.check_level(mode.level)
        m = math.factorial(mode.level)
        if mode.kind == "kummer_etale":
            while m % mode.p == 0:
                m //= mode.p
    bits = formed_bits()
    if codim * ((m - 1).bit_length() - 1) >= bits:
        written(10 ** sys.get_int_max_str_digits(), "K-theory multiplicity")  # raises with a limit
        raise CapExceededError(f"K-theory multiplicity has more than {bits} bits")
    return (m - 1) ** codim


def ktheory_report(
    strat: Stratification,
    kdata: Mapping[str, FgAbGroup],
    mode: KTheoryMode,
    caps: Caps = DEFAULT_CAPS,
) -> KTheoryReport:
    """Direct-sum decomposition of the K-theory of a root construction:
    the ambient group plus, for every stratum, one copy of K of its
    normalization per character.  Exact invariant-factor arithmetic; the
    infinite and Kummer-etale modes total a truncation and carry the
    symbolic multiplicity."""
    require_valid(strat)
    missing = [c for c in strat.all_components() if c not in kdata]
    if missing:
        raise InputError(f"kdata missing for normalization components {missing}")
    ambient = strat.ambient()
    ambient_k = FgAbGroup.zero().direct_sum(*(kdata[c] for c in ambient.norm_components))
    counted = []
    for sid, _ in deepest_first((s.id, s.codim) for s in strat.strata if s.codim > 0):
        s = strat.by_id[sid]
        summand = FgAbGroup.zero().direct_sum(*(kdata[c] for c in s.norm_components))
        counted.append((s, summand, _char_count(s.codim, mode, caps)))
    # every copy of a summand lists its torsion; free rank is only a number
    caps.check_carrier(
        sum(count * len(summand.torsion) for _, summand, count in counted),
        "K-theory torsion",
    )
    written(max((count for _, _, count in counted), default=0), "K-theory multiplicity")
    rows = [
        KTheoryRow(s.id, s.codim, summand, count, f"({mode.r}-1)^{s.codim}" if mode.kind == "finite"
                   else f"countably infinite (truncated: {count})", summand.multiple(count))
        for s, summand, count in counted
    ]
    total = ambient_k.direct_sum(*(row.contribution for row in rows))
    # the largest invariant of a group is its last
    groups = (ambient_k, total, *(g for row in rows for g in (row.summand, row.contribution)))
    written(max(n for g in groups for n in (g.rank, *g.torsion[-1:])), "K-theory rank or torsion")
    return KTheoryReport(mode, ambient_k, tuple(rows), total, mode.kind != "finite")
