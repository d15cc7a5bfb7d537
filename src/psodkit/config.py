"""Resource caps and the check that a number is short enough to write."""

from __future__ import annotations

import sys

from .errors import CapExceededError, InputError
from .records import fields, record

# Sizes past this many bits are written as a power of two: their decimal
# form may be too long to print.
_SHOWN_BITS = 256


def _count(n: int) -> str:
    return str(n) if n.bit_length() <= _SHOWN_BITS else f"at least 2^{n.bit_length() - 1}"


def written(n: int, what: str) -> int:
    """``n``, unless it has more digits than ``sys.get_int_max_str_digits()``;
    10 ** limit has over 3 * limit bits, so a shorter n is passed unformed."""
    limit = sys.get_int_max_str_digits()
    if limit and n.bit_length() > 3 * limit and n >= 10**limit:
        raise CapExceededError(f"{what} has more than {limit} digits, the most Python writes")
    return n


def formed_bits() -> int:
    """The most bits of a power formed before ``written`` checks it: 16 times
    the digit limit, or 16 times its default with the limit off."""
    return 16 * (sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits)


@record
class Caps:
    """Enumeration limits.

    carrier:        largest preorder carrier any builder may materialize
    factorial_level: largest n for which Z_{n!} machinery may be used
    nerve_depth:    most branches a chart may have when building strata from charts
    """

    carrier: int = 100_000
    factorial_level: int = 8
    nerve_depth: int = 3

    def __post_init__(self) -> None:
        for name in fields(self):
            if getattr(self, name) <= 0:
                raise InputError(f"cap {name!r} must be positive")

    def check_carrier(self, size: int, what: str = "carrier") -> None:
        if size > self.carrier:
            raise CapExceededError(f"{what} needs {_count(size)} elements, cap is {self.carrier}")

    def check_power(self, base: int, k: int, what: str) -> None:
        """``check_carrier(base ** k, what)`` without forming a large power
        known to exceed the cap: base ** k >= 2 ** (k * (b - 1)) for a base
        of b bits."""
        low = k * (base.bit_length() - 1)
        if low >= max(self.carrier.bit_length(), _SHOWN_BITS):
            raise CapExceededError(f"{what} needs at least 2^{low} elements, cap is {self.carrier}")
        self.check_carrier(base ** k, what)

    def check_level(self, level: int) -> None:
        if level > self.factorial_level:
            raise CapExceededError(
                f"factorial level {level} exceeds cap {self.factorial_level}"
            )


DEFAULT_CAPS = Caps()

