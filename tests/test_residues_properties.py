"""``Residue.parse`` against ``Fraction``.

The reader takes canonical text (``0`` or ``-p/q``) in integers and every
other text through ``Fraction``; the oracle reads every text through
``Fraction`` alone.  Both must give the same residue, or the same error class
and message.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings
from hypothesis import strategies as st

from psodkit.errors import InputError, PsodkitError
from psodkit.residues import Residue

# a part one digit past Python's default int-to-str limit
LONG = "1" * 4301


def fraction_residue(text):
    """The residue ``Fraction(text)`` reads, or the error Residue.parse
    must raise for it, as (class, message)."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        return InputError, f"cannot parse residue {text.strip()!r}"
    if not -1 < value <= 0:
        return InputError, f"{value} is not in (-1, 0]"
    return Residue(value.numerator, value.denominator)


def parsed(text):
    try:
        return Residue.parse(text)
    except PsodkitError as exc:
        return type(exc), str(exc)


digits = st.one_of(
    st.integers(0, 10**12).map(str),
    st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(1, 3), st.integers(0, 999)),
    st.sampled_from(["", "0", "00", "1_0", "1__0", "_1", "1_", "١", "٢٤", LONG]),
)
# exponents stay small: the exponent cap and the digit limit have their own tests
exponent = st.builds(lambda sign, e: f"{sign}{e}", st.sampled_from(["", "-", "+"]),
                     st.integers(0, 40))
body = st.one_of(
    st.builds(lambda p, slash, q: p + slash + q, digits, st.sampled_from(["/", " / ", "/ "]), digits),
    st.builds(lambda a, b: f"{a}.{b}", digits, digits),
    st.builds(lambda m, e, x: m + e + x, digits | st.builds(lambda a, b: f"{a}.{b}", digits, digits),
              st.sampled_from(["e", "E"]), exponent),
    digits,
)
space = st.sampled_from(["", " ", "  ", "\t", "\n"])
spelled = st.builds(lambda a, sign, b, c: a + sign + b + c, space,
                    st.sampled_from(["-", "", "+", "--", "-+"]), body, space)
# the canonical spelling, in range and out of it, reduced and not
canonical = st.one_of(
    st.builds(lambda p, q: f"-{p}/{q}", st.integers(0, 10**12), st.integers(0, 10**12)),
    st.builds(lambda p, k: f"-{p}/{p + k}", st.integers(0, 10**12), st.integers(-2, 10**12)),
    st.builds(lambda g, p, k: f"-{g * p}/{g * (p + k)}", st.integers(1, 10**6),
              st.integers(0, 10**6), st.integers(0, 10**6)),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(canonical, spelled))
@example("0")
@example("-2/4")
@example("-6/9")
@example("-0/5")
@example("-2/2")
@example("-3/2")
@example("-1/0")
@example("-0/0")
@example(f"-1/{LONG}")
@example(f"-{LONG}/{LONG}2")
@example(" -01/02 ")
@example("-1/2e0")
def test_parse_reads_what_fraction_reads(text):
    assert parsed(text) == fraction_residue(text)
