import itertools
import math
import random
import sys
from fractions import Fraction
from functools import lru_cache

import pytest

from psodkit.config import DEFAULT_CAPS, Caps, written
from psodkit.errors import CapExceededError, InputError
from psodkit.factorial import (
    EQUAL,
    GREATER,
    INCOMPARABLE,
    LESS,
    FactorialForm,
    bang_rank,
    cmp_bang,
    enumerate_characters,
    starred_tuples,
    stratified_blocks,
    to_factorial_form,
    zr_elements,
    zr_key,
)
from psodkit.preorders import directed_numbering, is_directed
from psodkit.residues import CharTuple, Residue, is_prime

from helpers import char_tuple
from test_preorders import lt


def R(text):
    return Residue.parse(text)


def char_tuple_of(form):
    """The character a factorial form writes: (-p_1/n!, ..., -p_N/n!)."""
    f = math.factorial(form.level)
    return CharTuple(tuple(Residue.from_fraction(Fraction(-p, f)) for p in form.numerators))


def build_zdr_stratified(strata, r, caps=DEFAULT_CAPS):
    """The r-th root index of (stratum id, codim) pairs: one starred Z_r^codim
    block per stratum, through ``stratified_blocks``."""
    return stratified_blocks(strata, lambda k: starred_tuples(k, r, caps), zr_key(r), caps)[0]


def build_zdr(codims, r, caps=DEFAULT_CAPS):
    """The plain divisor index: one stratum "D<k>" of codimension k for every
    k up to the largest of ``codims``."""
    return build_zdr_stratified(
        [(f"D{k}", k) for k in range(max(codims, default=0), -1, -1)], r, caps
    )


def build_zkr(k, r, caps=DEFAULT_CAPS):
    """The starred Z_r^k block alone: one stratum "Z" of codimension k."""
    return build_zdr_stratified([("Z", k)], r, caps)


# Two reference codings of the recursive order on Z_{n!}, independent of
# ``bang_rank``: a comparison that walks the quotients Z_{n!} -> Z_n, and the
# chain of all of Z_{n!} built fiber by fiber.  Nothing in psodkit runs
# them; the tests check ``bang_rank`` and ``cmp_bang`` against them.


def cmp_bang_znfact(p: int, q: int, level: int) -> int:
    """Compare -p/n! against -q/n! in the recursive order on Z_{n!}.

    Returns -1, 0, or +1.  Images under Z_{n!} -> Z_n (p mod n) are compared
    in the standard order (larger remainder is more negative, hence smaller);
    on a tie the fiber coordinates floor(p/n) are compared at level n-1.
    """
    if level < 2:
        raise InputError("level must be at least 2")
    bound = math.factorial(level)
    if not (0 <= p < bound and 0 <= q < bound):
        raise InputError("numerators must lie in [0, n!)")
    n = level
    while n > 1:
        s, t = p % n, q % n
        if s != t:
            return -1 if s > t else 1
        p, q = p // n, q // n
        n -= 1
    return 0


@lru_cache(maxsize=None)
def bang_chain(level: int) -> tuple[int, ...]:
    """All of Z_{n!} as numerators, ascending in the recursive order.

    Independent of ``cmp_bang_znfact``: materializes the fibers over Z_n in
    image order and concatenates recursively.
    """
    if level < 1:
        raise InputError("level must be at least 1")
    if level == 1:
        return (0,)
    inner = bang_chain(level - 1)
    return tuple(
        q * level + s for s in range(level - 1, -1, -1) for q in inner
    )


def cmp_bang_reference(chi, psi):
    """The tuple order read from its definition: a deeper normal factorial
    level is lower; at equal level, ``cmp_bang_znfact`` in every coordinate."""
    a, b = to_factorial_form(chi), to_factorial_form(psi)
    if a.level != b.level:
        return LESS if a.level > b.level else GREATER
    signs = {cmp_bang_znfact(p, q, a.level) for p, q in zip(a.numerators, b.numerators)}
    if signs <= {0}:
        return EQUAL
    return LESS if signs <= {-1, 0} else GREATER if signs <= {0, 1} else INCOMPARABLE


# ---------------------------------------------------------------------------
# residues


def test_residue_validation():
    assert str(R("-1/2")) == "-1/2"
    assert str(R("0")) == "0"
    with pytest.raises(InputError):
        Residue(1, 2)  # positive
    with pytest.raises(InputError):
        Residue(-3, 2)  # below -1
    with pytest.raises(InputError):
        Residue(-2, 4)  # not reduced


def test_residue_parse_reads_slashes_decimals_and_exponents():
    assert R("-1/2") == R("-0.5") == R("-5e-1") == R(" -5E-1 ") == Residue(-1, 2)
    assert R("-1_0e-2") == Residue(-1, 10)


def test_residue_parse_refuses_numbers_too_long_to_write():
    # 10 ** (limit + 1) forms at once but has more digits than Python
    # writes; a power past formed_bits() is refused before it is formed
    limit = sys.get_int_max_str_digits()
    with pytest.raises(CapExceededError, match=f"more than {limit} digits"):
        R(f"-1e-{limit + 1}")
    with pytest.raises(CapExceededError, match="exponent .* needs more than"):
        R("-1e-100000000")
    with pytest.raises(CapExceededError, match="exponent .* needs more than"):
        R("-1e100000000")
    with pytest.raises(InputError, match="cannot parse residue"):
        R("-1e")


def test_residue_standard_order():
    # the standard order is the rational order of the values; zr_elements
    # lists Z_r in it, and a block's keys rank by that position
    assert R("-3/4").value < R("-1/2").value < R("-1/4").value < R("0").value
    assert [str(x) for x in zr_elements(4)] == ["-3/4", "-1/2", "-1/4", "0"]


def test_zr_elements():
    assert [str(x) for x in zr_elements(2)] == ["-1/2", "0"]
    assert zr_elements(1, starred=True) == ()
    assert [str(x) for x in zr_elements(4, starred=True)] == ["-3/4", "-1/2", "-1/4"]
    with pytest.raises(InputError):
        zr_elements(0)


# ---------------------------------------------------------------------------
# normal factorial form


def test_factorial_form_basics():
    assert to_factorial_form(char_tuple("-1/2")) == FactorialForm(2, (1,))
    assert to_factorial_form(char_tuple("-5/6")) == FactorialForm(3, (5,))
    assert to_factorial_form(char_tuple("-1/3", "-1/2")) == FactorialForm(3, (2, 3))


def test_factorial_form_zero_tuple():
    assert to_factorial_form(char_tuple("0", "0")) == FactorialForm(2, (0, 0))


def test_factorial_form_minimality_enforced():
    with pytest.raises(InputError):
        FactorialForm(3, (3, 0))  # both divisible by 3, so level 2 suffices


def test_factorial_form_roundtrip_random():
    rng = random.Random(42)
    divisors = [d for d in range(1, 121) if 720 % d == 0]
    for _ in range(300):
        width = rng.randint(1, 3)
        comps = []
        for _ in range(width):
            den = rng.choice(divisors)
            num = -rng.randrange(0, den)
            comps.append(Residue.from_fraction(Fraction(num, den)))
        chi = CharTuple(tuple(comps))
        form = to_factorial_form(chi)
        assert char_tuple_of(form) == chi
        if form.level > 2:
            assert any(p % form.level for p in form.numerators)


def test_factorial_form_respects_level_cap():
    with pytest.raises(CapExceededError):
        to_factorial_form(char_tuple("-1/11"), Caps(factorial_level=8))


# ---------------------------------------------------------------------------
# the recursive order on Z_{n!}


def test_base_case():
    # -1/2 comes before 0 at level 2
    assert cmp_bang_znfact(1, 0, 2) == -1
    assert cmp_bang_znfact(0, 1, 2) == 1
    assert cmp_bang_znfact(1, 1, 2) == 0


def test_level_three_chain():
    chain = bang_chain(3)
    values = [str(Residue.from_fraction(Fraction(-p, 6))) for p in chain]
    assert values == ["-5/6", "-1/3", "-2/3", "-1/6", "-1/2", "0"]


def test_cmp_matches_oracle_exhaustively():
    for level in (2, 3, 4, 5):
        chain = bang_chain(level)
        pos = {p: i for i, p in enumerate(chain)}
        f = math.factorial(level)
        assert sorted(chain) == list(range(f))
        for p in range(f):
            for q in range(f):
                want = (pos[p] > pos[q]) - (pos[p] < pos[q])
                assert cmp_bang_znfact(p, q, level) == want


def test_total_order_properties_small_levels():
    for level in (2, 3, 4):
        f = math.factorial(level)
        for p, q in itertools.product(range(f), repeat=2):
            c = cmp_bang_znfact(p, q, level)
            assert c == -cmp_bang_znfact(q, p, level)
            if c == 0:
                assert p == q
        for p, q, r in itertools.product(range(f), repeat=3):
            if cmp_bang_znfact(p, q, level) <= 0 and cmp_bang_znfact(q, r, level) <= 0:
                assert cmp_bang_znfact(p, r, level) <= 0


def test_restriction_compatibility():
    # -q/(n-1)! = -(q n)/n!: comparing at level n must agree with level n-1
    for level in (3, 4, 5):
        size = math.factorial(level - 1)
        for q1 in range(size):
            for q2 in range(size):
                assert cmp_bang_znfact(q1 * level, q2 * level, level) == (
                    cmp_bang_znfact(q1, q2, level - 1)
                )


def test_out_of_range_numerators():
    with pytest.raises(InputError):
        cmp_bang_znfact(6, 0, 3)
    with pytest.raises(InputError):
        cmp_bang_znfact(-1, 0, 3)


# ---------------------------------------------------------------------------
# tuple comparison


def test_deeper_level_comes_first():
    assert cmp_bang(char_tuple("-1/3", "-1/3"), char_tuple("-1/2", "-1/2")) == LESS
    assert cmp_bang(char_tuple("-1/2", "-1/2"), char_tuple("-1/3", "-1/3")) == GREATER


def test_equal_tuples():
    chi = char_tuple("-1/6", "-2/3")
    assert cmp_bang(chi, chi) == EQUAL


def test_componentwise_incomparable():
    assert (
        cmp_bang(char_tuple("-5/6", "0"), char_tuple("-1/3", "-1/6"))
        == INCOMPARABLE
    )


def test_length_mismatch():
    with pytest.raises(InputError):
        cmp_bang(char_tuple("-1/2"), char_tuple("-1/2", "-1/2"))


def test_cmp_bang_matches_the_recursive_definition():
    # every pair of 2-tuples over Z_6 and Z_4 (zero included), and of
    # mixed-level 1-tuples up to level 4
    pool = [CharTuple(t) for n in (6, 4) for t in itertools.product(zr_elements(n), repeat=2)]
    pool += [CharTuple((x,)) for x in zr_elements(24)]
    for chi, psi in itertools.product(pool, repeat=2):
        if len(chi) == len(psi):
            assert cmp_bang(chi, psi) == cmp_bang_reference(chi, psi), (chi, psi)


def test_tuple_order_is_partial_order_at_fixed_level():
    chars = enumerate_characters(2, 3)
    for a, b in itertools.product(chars, repeat=2):
        ca, cb = cmp_bang(a, b), cmp_bang(b, a)
        if ca == LESS:
            assert cb == GREATER
        if ca == EQUAL:
            assert a == b
    # transitivity of the tuple order
    for a, b, c in itertools.product(chars[:12], repeat=3):
        if cmp_bang(a, b) in (LESS, EQUAL) and cmp_bang(b, c) in (LESS, EQUAL):
            assert cmp_bang(a, c) in (LESS, EQUAL)


# ---------------------------------------------------------------------------
# index preorders


def test_build_zkr_chain():
    p = build_zkr(1, 3)
    assert p.elements == ("Z:(-2/3)", "Z:(-1/3)")
    assert p.le("Z:(-2/3)", "Z:(-1/3)") and not p.le("Z:(-1/3)", "Z:(-2/3)")


def test_build_zkr_zero_arity_singleton():
    p = build_zkr(0, 5)
    assert p.elements == ("Z:()",)


def test_build_zkr_incomparable_pair():
    p = build_zkr(2, 3)
    assert len(p) == 4
    assert not p.le("Z:(-2/3,-1/3)", "Z:(-1/3,-2/3)")
    assert not p.le("Z:(-1/3,-2/3)", "Z:(-2/3,-1/3)")
    assert p.is_transitive


def test_build_zkr_counts_and_invariants():
    for k in range(4):
        for r in (1, 2, 3):
            p = build_zkr(k, r)
            assert len(p) == (r - 1) ** k
            assert p.is_transitive


def test_build_zkr_cap():
    with pytest.raises(CapExceededError):
        build_zkr(7, 9, caps=Caps(carrier=1000))


def test_tuple_arity_counts_against_the_carrier_cap():
    # a block of one tuple still needs its k residues: Z_2^k and the
    # level-2 enumeration have one element for every k
    caps = Caps(carrier=5)
    assert len(starred_tuples(5, 2, caps)) == len(enumerate_characters(5, 2, caps=caps)) == 1
    for tuples in (lambda: starred_tuples(6, 2, caps), lambda: starred_tuples(6, 1, caps),
                   lambda: enumerate_characters(6, 2, caps=caps)):
        with pytest.raises(CapExceededError, match=r"tuple needs 6 elements, cap is 5$"):
            tuples()


@pytest.mark.parametrize("carrier", [1, 2, 7, 64, 100_000, 2**300])
def test_check_power_agrees_with_the_exact_power(carrier):
    caps = Caps(carrier=carrier)
    for base in range(12):
        for k in range(0, 40):
            try:
                caps.check_power(base, k, "block")
            except CapExceededError as exc:
                assert base**k > carrier, (base, k)
                assert "\n" not in str(exc)
            else:
                assert base**k <= carrier, (base, k)


def test_check_power_never_forms_a_huge_power():
    # 10^4000 has 13,288 bits, so its 10^9-th power would have 1.3e13
    with pytest.raises(CapExceededError, match=r"^block needs at least 2\^13287000000000 elements"):
        Caps().check_power(10**4000, 10**9, "block")
    with pytest.raises(CapExceededError, match=r"^block needs at least 2\^332 elements"):
        Caps().check_carrier(2**332 + 1, "block")
    Caps().check_power(1, 10**100, "block")
    Caps().check_power(0, 10**100, "block")


def test_sizes_are_written_in_digits_up_to_256_bits():
    caps = Caps(carrier=1)
    n = 2**256 - 1
    with pytest.raises(CapExceededError, match=rf"^block needs {n} elements, cap is 1$"):
        caps.check_carrier(n, "block")
    with pytest.raises(CapExceededError, match=r"^block needs at least 2\^256 elements, cap is 1$"):
        caps.check_carrier(n + 1, "block")


@pytest.mark.parametrize("level", [1, 3, 8])
def test_factorial_level_cap_admits_its_own_level(level):
    caps = Caps(factorial_level=level)
    caps.check_level(level)
    with pytest.raises(CapExceededError, match=rf"^factorial level {level + 1} exceeds cap {level}$"):
        caps.check_level(level + 1)


@pytest.fixture
def digit_limit():
    """The smallest digit limit Python allows, restored afterwards."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    yield 640
    sys.set_int_max_str_digits(old)


def test_written_passes_every_number_python_writes(digit_limit):
    n = 10**digit_limit - 1
    assert written(n, "size") == n
    assert len(str(n)) == digit_limit
    with pytest.raises(
        CapExceededError, match=rf"^size has more than {digit_limit} digits, the most Python writes$"
    ):
        written(n + 1, "size")


def test_enumerate_characters_coprime_pool_is_the_filtered_pool():
    for level in range(2, 7):
        full = enumerate_characters(1, level)
        for p in (2, 3, 5, 7):
            kept = [chi for chi in full if all(d % p for d in chi.denominators())]
            assert enumerate_characters(1, level, coprime_to=p) == kept


def test_build_zdr_nodal_chain():
    p = build_zdr([2, 1, 0], 2)
    assert p.elements == ("D2:(-1/2,-1/2)", "D1:(-1/2)", "D0:()")
    assert directed_numbering(p) == ("D2:(-1/2,-1/2)", "D1:(-1/2)", "D0:()")


def test_build_zdr_cross_codim_strict():
    p = build_zdr([2, 1, 0], 3)
    for x in p.elements:
        for y in p.elements:
            kx = x.count("/")
            ky = y.count("/")
            if kx > ky:
                assert p.le(x, y) and not p.le(y, x)


def test_build_zdr_stratified_equal_codim_mutual():
    p = build_zdr_stratified([("L1", 1), ("L2", 1), ("X", 0)], 2)
    assert p.le("L1:(-1/2)", "L2:(-1/2)") and p.le("L2:(-1/2)", "L1:(-1/2)")
    assert lt(p, "L1:(-1/2)", "X:()")


def test_build_zdr_stratified_within_block_partial():
    p = build_zdr_stratified([("O", 2), ("X", 0)], 3)
    assert not p.le("O:(-2/3,-1/3)", "O:(-1/3,-2/3)")
    assert p.le("O:(-2/3,-2/3)", "O:(-1/3,-2/3)")


def test_stratified_nontransitive_equal_codim_layers():
    # two codim-1 strata at r=3: the mutual cross-stratum relations break
    # transitivity against the componentwise within-stratum order, yet the
    # blocks still arrange consecutively, so the index stays directed
    p = build_zdr_stratified([("L1", 1), ("L2", 1), ("X", 0)], 3)
    assert not p.is_transitive
    assert is_directed(p)
    # a single codim-2 block at r=3 has mutually incomparable characters,
    # which is what actually defeats directedness
    q = build_zdr_stratified([("O", 2), ("X", 0)], 3)
    assert not is_directed(q)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_basic():
    assert [str(c) for c in enumerate_characters(1, 2)] == ["(-1/2)"]
    assert [str(c) for c in enumerate_characters(2, 2)] == ["(-1/2,-1/2)"]


def test_enumerate_level_three_chain_order():
    got = [str(c) for c in enumerate_characters(1, 3)]
    assert got == ["(-5/6)", "(-1/3)", "(-2/3)", "(-1/6)", "(-1/2)"]


def test_enumerate_is_linear_extension():
    chars = enumerate_characters(2, 3)
    assert len(chars) == 25
    pos = {str(c): i for i, c in enumerate(chars)}
    for a, b in itertools.product(chars, repeat=2):
        if cmp_bang(a, b) == LESS:
            assert pos[str(a)] < pos[str(b)]


def test_enumerate_coprime_filter():
    got = [str(c) for c in enumerate_characters(1, 3, coprime_to=2)]
    assert got == ["(-1/3)", "(-2/3)"]
    for c in enumerate_characters(2, 3, coprime_to=3):
        assert all(d % 3 != 0 for d in c.denominators())


def test_bang_rank():
    assert bang_rank(5, 3) == 0
    assert bang_rank(0, 3) == 5


def test_bang_rank_closed_form_matches_chain():
    # bang_rank(p, n) == bang_chain(n).index(p) for every p in [0, n!)
    for level in range(2, 8):
        chain = bang_chain(level)
        assert sorted(chain) == list(range(math.factorial(level)))
        assert [bang_rank(p, level) for p in chain] == list(range(len(chain)))


def test_bang_rank_rejects_out_of_range():
    for p, level in [(-1, 3), (6, 3), (0, 0)]:
        with pytest.raises(InputError):
            bang_rank(p, level)


def test_is_prime_matches_trial_division_below_1e5():
    sieve = [True] * 100_000
    sieve[0] = sieve[1] = False
    for p in range(2, 317):
        if sieve[p]:
            sieve[p * p::p] = [False] * len(range(p * p, 100_000, p))
    assert [is_prime(n) for n in range(100_000)] == sieve


def test_is_prime_rejects_pseudoprimes():
    # strong pseudoprimes to the bases 2 ... 7 and to 2 ... 31, then Carmichael numbers
    for n in (3215031751, 3825123056546413051, 561, 1105, 1729, 2465, 41041, 825265):
        assert not is_prime(n)
    for p in (2, 41, 43, 2**61 - 1, 100000000000031):
        assert is_prime(p)


def test_is_prime_refuses_beyond_its_bound():
    bound = 3_317_044_064_679_887_385_961_981
    assert not is_prime(bound - 2)
    with pytest.raises(InputError, match="primality is only decided below"):
        is_prime(bound)
