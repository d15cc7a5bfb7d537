"""Exact arithmetic for characters in Q/Z and the recursive factorial order.

Characters live in Q cap (-1, 0]; a k-tuple of them indexes one factor of a
root construction over a codimension-k stratum.  ``Z_r`` denotes the subgroup
{-(r-1)/r, ..., -1/r, 0} with the standard rational order.  On ``Z_{n!}`` the
total order ``<!`` is defined recursively through the quotients
``Z_{n!} -> Z_n``: compare images first, then recurse on the fiber coordinate
at level n-1.  On tuples, a lower minimal level wins; at equal level the
comparison is componentwise (a partial order for width >= 2).
"""

from __future__ import annotations

import itertools
import math
import re
from collections import defaultdict
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .config import DEFAULT_CAPS, Caps, formed_bits, written
from .errors import CapExceededError, InputError
from .records import record

# The index builders import preorders and strata when they run, so the order
# commands compile neither; fractions, which loads decimal, is imported only
# to parse text or to make a Fraction, so the builders keep neither resident.
if TYPE_CHECKING:
    from fractions import Fraction

    from .preorders import FinitePreorder

LESS = "less"
GREATER = "greater"
EQUAL = "equal"
INCOMPARABLE = "incomparable"

# the exponent of a decimal residue such as "-5e-1"
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\Z", re.IGNORECASE)


# ---------------------------------------------------------------------------
# residues and tuples


@record
class Residue:
    """A reduced rational in (-1, 0]: num/den with -den < num <= 0."""

    num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den <= 0:
            raise InputError("denominator must be positive")
        if not (-self.den < self.num <= 0):
            raise InputError(f"{self.num}/{self.den} is not in (-1, 0]")
        if math.gcd(abs(self.num), self.den) != 1 and self.num != 0:
            raise InputError(f"{self.num}/{self.den} is not reduced")
        if self.num == 0 and self.den != 1:
            raise InputError("zero must be written 0/1")

    @classmethod
    def lowest_terms(cls, num: int, den: int) -> "Residue":
        """num/den reduced, for 0 <= -num < den."""
        g = math.gcd(num, den)
        return cls(num // g, den // g)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "Residue":
        if not (-1 < value <= 0):
            raise InputError(f"{value} is not in (-1, 0]")
        return cls(value.numerator, value.denominator)

    @classmethod
    def parse(cls, text: str) -> "Residue":
        """A rational in (-1, 0] as ``Fraction`` reads it; an exponent is
        bounded before its power of ten forms (10 ** e has over 3 * e bits)."""
        from fractions import Fraction

        text = text.strip()
        exp, bits = _EXPONENT.search(text), formed_bits()
        try:
            if exp and 3 * abs(int(exp[1])) >= bits:
                raise CapExceededError(f"residue exponent {exp[1]} needs more than {bits} bits")
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"cannot parse residue {text!r}") from exc
        written(max(abs(value.numerator), value.denominator), "residue")
        return cls.from_fraction(value)

    @property
    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return "0" if self.num == 0 else f"{self.num}/{self.den}"


ZERO = Residue(0)


@record
class CharTuple:
    """A finite tuple of residues; the empty tuple indexes the ambient factor."""

    components: tuple[Residue, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "components", tuple(self.components))

    @classmethod
    def of(cls, *values: str | Fraction | Residue) -> "CharTuple":
        from fractions import Fraction

        comps = []
        for v in values:
            if isinstance(v, Residue):
                comps.append(v)
            elif isinstance(v, Fraction):
                comps.append(Residue.from_fraction(v))
            else:
                comps.append(Residue.parse(v))
        return cls(tuple(comps))

    @classmethod
    def parse(cls, text: str) -> "CharTuple":
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            inner = text[1:-1].strip()
            parts = [p for p in inner.split(",") if p.strip()]
            return cls(tuple(Residue.parse(p) for p in parts))
        return cls((Residue.parse(text),))

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"

    def denominators(self) -> tuple[int, ...]:
        return tuple(c.den for c in self.components)


# ---------------------------------------------------------------------------
# Z_r


def zr_elements(r: int, starred: bool = False) -> tuple[Residue, ...]:
    """The residues {-(r-1)/r, ..., -1/r, 0}, reduced and sorted by the
    standard rational order; ``starred`` drops 0.

    >>> [str(x) for x in zr_elements(4, starred=True)]
    ['-3/4', '-1/2', '-1/4']
    >>> [str(x) for x in zr_elements(2)]
    ['-1/2', '0']
    """
    if r < 1:
        raise InputError("r must be at least 1")
    out = [Residue.lowest_terms(-p, r) for p in range(r - 1, 0, -1)]
    if not starred:
        out.append(ZERO)
    return tuple(out)


# ---------------------------------------------------------------------------
# normal factorial form


@record
class FactorialForm:
    """A tuple written over the common denominator n! at the least level n >= 2."""

    level: int
    numerators: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 2:
            raise InputError("factorial level starts at 2")
        bound = math.factorial(self.level)
        for p in self.numerators:
            if not (0 <= p < bound):
                raise InputError(f"numerator {p} out of range for level {self.level}")
        if self.level > 2 and all(p % self.level == 0 for p in self.numerators):
            raise InputError("not in normal form: every numerator divisible by the level")


def to_factorial_form(chi: CharTuple, caps: Caps = DEFAULT_CAPS) -> FactorialForm:
    """The unique minimal-level representation chi = (-p_1/n!, ..., -p_N/n!).

    >>> to_factorial_form(CharTuple.of("-1/3", "-1/2"))
    FactorialForm(level=3, numerators=(2, 3))
    """
    lcm = 1
    for c in chi.components:
        lcm = lcm * c.den // math.gcd(lcm, c.den)
    level = 2
    while math.factorial(level) % lcm != 0:
        level += 1
        caps.check_level(level)
    f = math.factorial(level)
    return FactorialForm(level, tuple(-c.num * (f // c.den) for c in chi.components))


# ---------------------------------------------------------------------------
# the recursive order on Z_{n!}


def bang_rank(p: int, level: int) -> int:
    """Position of -p/n! in the ascending recursive order (0 = smallest):
    images under Z_{n!} -> Z_n (p mod n) compare in the standard order, so
    the fiber over p mod n is block n-1 - (p mod n) of (n-1)! entries,
    ordered by the rank of the fiber coordinate floor(p/n) at level n-1."""
    if level < 1 or not 0 <= p < math.factorial(level):
        raise InputError("bang_rank needs level >= 1 and a numerator in [0, n!)")
    rank = 0
    for n in range(level, 1, -1):
        rank += (n - 1 - p % n) * math.factorial(n - 1)
        p //= n
    return rank


# ---------------------------------------------------------------------------
# the order on tuples

# (level, coordinate ranks): in a block, deeper levels first, then rank by rank
CharKey = tuple[int, tuple[int, ...]]


def bang_key(chi: CharTuple, caps: Caps = DEFAULT_CAPS) -> CharKey:
    """The tuple's normal factorial level and each numerator's ``bang_rank``
    at that level: the key of ``cmp_bang``'s order."""
    form = to_factorial_form(chi, caps)
    return form.level, tuple(bang_rank(p, form.level) for p in form.numerators)


def cmp_bang(chi: CharTuple, psi: CharTuple, caps: Caps = DEFAULT_CAPS) -> str:
    """Compare two tuples: 'less', 'greater', 'equal', or 'incomparable'.

    Reads ``bang_key``: a deeper normal factorial level comes first; at equal
    level, the ranks compare in every coordinate.

    >>> cmp_bang(CharTuple.of("-1/3", "-1/3"), CharTuple.of("-1/2", "-1/2"))
    'less'
    >>> cmp_bang(CharTuple.of("-5/6", "0"), CharTuple.of("-1/3", "-1/6"))
    'incomparable'
    """
    if len(chi) != len(psi):
        raise InputError("tuples must have equal length")
    if chi == psi:
        return EQUAL
    (level_a, a), (level_b, b) = bang_key(chi, caps), bang_key(psi, caps)
    if level_a != level_b:
        return LESS if level_a > level_b else GREATER
    if all(p <= q for p, q in zip(a, b)):
        return LESS
    if all(p >= q for p, q in zip(a, b)):
        return GREATER
    return INCOMPARABLE


# ---------------------------------------------------------------------------
# index preorders


def zr_key(r: int) -> Callable[[CharTuple], CharKey]:
    """Key of a tuple over Z_r for the standard order in every coordinate:
    one level for all, each coordinate's position in ``zr_elements(r)``,
    where -p/r sits at r - 1 - p."""
    return lambda chi: (0, tuple(r - 1 + c.num * (r // c.den) for c in chi.components))


def _product_tuples(den: int, step: int, k: int, caps: Caps, what: str) -> list[CharTuple]:
    """All k-tuples over the nonzero residues -p/den with p a multiple of
    ``step``, each coordinate ascending in the standard order.  The
    (den/step - 1)^k tuples and the k residues of one tuple count against
    the carrier cap before any residue is made."""
    caps.check_power(den // step - 1, k, what)
    caps.check_carrier(k, f"{what} tuple")
    nums = range(den - step, 0, -step) if k else ()
    pool = [Residue.lowest_terms(-p, den) for p in nums]
    return [CharTuple(t) for t in itertools.product(pool, repeat=k)]


def starred_tuples(k: int, r: int, caps: Caps = DEFAULT_CAPS) -> list[CharTuple]:
    """All k-tuples of nonzero elements of Z_r: one character block of the
    r-th root construction over a codimension-k stratum."""
    if r < 1:
        raise InputError("r must be at least 1")
    return _product_tuples(r, 1, k, caps, "divisor index")


def _char_blocks_leq(
    entries: Sequence[tuple[str, int, CharTuple]],
    key: Callable[[CharTuple], CharKey],
) -> FinitePreorder:
    """Assemble a divisor-index preorder from (block id, codim, character)
    entries: deeper codimension first, distinct blocks of equal codimension
    related both ways.  Inside a block each character is keyed once as
    (level, ranks): a deeper level comes first, and at equal level a row is
    the level's mask ANDed over coordinates d with ``ge[d][rank_d]``, the
    members whose rank d is at least rank_d.  So a row costs O(k) mask
    operations instead of one comparison per member.  Labels read
    'block:(chars)'."""
    from .preorders import FinitePreorder

    keyed = [(b, k, *key(c)) for b, k, c in entries]
    codim: dict[int, int] = defaultdict(int)
    block: dict[tuple[str, int], int] = defaultdict(int)
    level: dict[tuple[str, int, int], int] = defaultdict(int)
    ge: dict[int, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    for i, (b, k, lv, ranks) in enumerate(keyed):
        codim[k] |= 1 << i
        block[b, k] |= 1 << i
        level[b, k, lv] |= 1 << i
        for d, v in enumerate(ranks):
            ge[d][v] |= 1 << i
    for at in ge.values():
        above = 0
        for v in sorted(at, reverse=True):
            at[v] = above = above | at[v]
    below = {
        (b, k, lv): sum(m for kk, m in codim.items() if kk < k)
        | (codim[k] & ~block[b, k])
        | sum(m for (bb, kk, ll), m in level.items() if (bb, kk) == (b, k) and ll < lv)
        for b, k, lv in level
    }
    rows = []
    for b, k, lv, ranks in keyed:
        row = level[b, k, lv]
        for d, v in enumerate(ranks):
            row &= ge[d][v]
        rows.append(below[b, k, lv] | row)
    return FinitePreorder(tuple(f"{b}:{c}" for b, _, c in entries), tuple(rows))


def stratified_blocks(
    strata: Sequence[tuple[str, int]],
    characters: Callable[[int], Sequence[CharTuple]],
    key: Callable[[CharTuple], CharKey],
    caps: Caps = DEFAULT_CAPS,
    what: str = "divisor index",
) -> tuple[FinitePreorder, list[tuple[str, int, CharTuple]]]:
    """One character block ``characters(codim)`` per (stratum id, codim)
    pair in ``deepest_first`` order, assembled by ``_char_blocks_leq``;
    returns the index and its (stratum id, codim, character) entries in
    index order.  This is the one path that builds character blocks."""
    from .strata import deepest_first

    ids = [s for s, _ in strata]
    if len(set(ids)) != len(ids):
        raise InputError("stratum ids must be distinct")
    entries = [(sid, k, chi) for sid, k in deepest_first(strata) for chi in characters(k)]
    caps.check_carrier(len(entries), what)
    return _char_blocks_leq(entries, key), entries


# ---------------------------------------------------------------------------
# truncated enumeration of Q/Z characters


def enumerate_characters(
    k: int,
    max_level: int,
    coprime_to: Optional[int] = None,
    caps: Caps = DEFAULT_CAPS,
) -> list[CharTuple]:
    """All k-tuples of nonzero characters representable at factorial level at
    most ``max_level``, sorted compatibly with the tuple order: deeper normal
    level first, then lexicographically on the recursive ranks of the
    numerators (a deterministic linear extension of the componentwise order).

    ``coprime_to`` keeps only characters whose denominators avoid that prime.
    """
    if k < 0:
        raise InputError("k must be non-negative")
    if max_level < 2:
        raise InputError("max_level must be at least 2")
    caps.check_level(max_level)
    if coprime_to is not None and not is_prime(coprime_to):
        raise InputError("coprime_to must be a prime >= 2")
    f = math.factorial(max_level)
    # -p/f has a denominator prime to coprime_to iff f's coprime_to-part divides p
    step = 1
    while coprime_to is not None and f % (step * coprime_to) == 0:
        step *= coprime_to

    def order(chi: CharTuple) -> tuple[int, tuple[int, ...]]:
        level, ranks = bang_key(chi, caps)
        return -level, ranks

    return sorted(_product_tuples(f, step, k, caps, "character enumeration"), key=order)


# Miller-Rabin with the 13 primes up to 41 as bases has no strong liar
# below this bound (Sorenson and Webster, Math. Comp. 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin below 3.317e24; larger n raise InputError."""
    if n >= _MR_BOUND:
        raise InputError(f"primality is only decided below {_MR_BOUND}")
    if n < 2:
        return False
    if n in _MR_BASES:
        return True
    if any(n % b == 0 for b in _MR_BASES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
