"""Residues in Q cap (-1, 0], the tuples of them that index factors, and the
primality test of the prime-to-p modes.

The document readers of ``psod glue`` and ``psod filtrate`` and the Kummer
mode of ``psod ktheory`` need these and not the factorial order, so they
load this module and not ``factorial``.  ``fractions``, which loads
``decimal``, is imported only for text that is not canonical (``0`` or
``-p/q``) and to make a ``Fraction``.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING

from .config import formed_bits, written
from .errors import CapExceededError, InputError
from .records import record

if TYPE_CHECKING:
    from fractions import Fraction

# the spelling ``str(Residue)`` writes for a nonzero residue
_CANONICAL = re.compile(r"-([0-9]+)/([0-9]+)")
# the exponent of a decimal residue such as "-5e-1"
_EXPONENT = re.compile(r"e([-+]?[\d_]+)\Z", re.IGNORECASE)


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
        """A rational in (-1, 0] as ``Fraction`` reads it.  Canonical text
        in range is read in integers; any other text is read by ``Fraction``,
        with an exponent bounded before its power of ten forms (10 ** e has
        over 3 * e bits)."""
        text = text.strip()
        if text == "0":
            return ZERO
        if canonical := _CANONICAL.fullmatch(text):
            try:
                p, q = int(canonical[1]), int(canonical[2])
            except ValueError:  # a part too long to read: the Fraction path refuses it
                pass
            else:
                if p < q:
                    return cls.lowest_terms(-p, q)
        from fractions import Fraction

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
    def parse(cls, text: str) -> "CharTuple":
        """``(r1,...,rk)``, ``()`` or one residue; a component left empty,
        as in ``(-1/2,,-1/3)``, is refused like any unreadable residue."""
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            inner = text[1:-1].strip()
            return cls(tuple(Residue.parse(p) for p in inner.split(",")) if inner else ())
        return cls((Residue.parse(text),))

    def __len__(self) -> int:
        return len(self.components)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"

    def denominators(self) -> tuple[int, ...]:
        return tuple(c.den for c in self.components)


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
