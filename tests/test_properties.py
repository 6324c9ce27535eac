"""Exhaustive sweeps over the 5-smooth numbers and oracle cross-checks.

The population is every regular canonical value up to 60**4 (about six
hundred numbers); each check is exact, so the whole module is a few
seconds of work.  Hypothesis adds long regular numbers for the factor
choice, checked against the peel run on the benchmark's integer oracle,
which imports nothing from mesomath.
"""

import random
import time
from itertools import accumulate
from math import prod

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mesomath import abacus, recip
from mesomath.errors import NoProgress, NotASquare
from mesomath.recip import ElementaryTable, FactorStrategy, reciprocal, sqrt
from mesomath.spvn import (
    ONE,
    FloatingNumber,
    SimplerOrdering,
    compare_simpler,
    from_integer,
    mul,
    square,
    to_integer,
)
from mesomath.textio import parse_spvn
import oracle as O
from oracles import peel_whole, regular_exponents, smooth_numbers

LIMIT = 60**4


SMOOTH = smooth_numbers(LIMIT)
SMOOTH_NUMBERS = [from_integer(v) for v in SMOOTH]


def test_population_size():
    # every 5-smooth integer up to 60**4; 432 of them are canonical
    # (not divisible by 60), the rest normalize onto those
    assert len(SMOOTH) == 802
    assert sum(1 for v in SMOOTH if v % 60) == 432


def test_reciprocal_product_is_one():
    one = from_integer(1)
    for n in SMOOTH_NUMBERS:
        r, _ = reciprocal(n)
        assert mul(n, r) == one


def test_reciprocal_involution():
    for n in SMOOTH_NUMBERS:
        r, _ = reciprocal(n)
        back, _ = reciprocal(r)
        assert back == n


def test_factorization_sound_and_deterministic():
    for n in SMOOTH_NUMBERS:
        _, fact = reciprocal(n)
        assert prod(map(to_integer, fact.factors)) == to_integer(n)
        _, again = reciprocal(n)
        assert fact.factors == again.factors


def test_any_divisor_strategy_also_correct():
    one = from_integer(1)
    for n in SMOOTH_NUMBERS[::7]:
        r, fact = reciprocal(n, FactorStrategy.ANY_DIVISOR_LARGEST)
        assert mul(n, r) == one
        assert prod(map(to_integer, fact.factors)) == to_integer(n)


def test_candidates_divide_and_simplify():
    # every peeled factor divides its quotient exactly, and dividing by it
    # gives a simpler number: each peel step is a productive division
    for n in SMOOTH_NUMBERS[::5]:
        for strategy in FactorStrategy:
            _, fact = reciprocal(n, strategy)
            for q, f in zip(fact.quotients(), fact.factors[:-1]):
                v, fv = to_integer(q), to_integer(f)
                assert v % fv == 0
                assert compare_simpler(from_integer(v // fv), q) is SimplerOrdering.SIMPLER


def test_sqrt_parity_criterion():
    for v, n in zip(SMOOTH, SMOOTH_NUMBERS):
        a, b, c = regular_exponents(v)
        should = a % 2 == 0 and b % 2 == c % 2
        try:
            root = sqrt(n)
        except NotASquare:
            assert not should, v
        else:
            assert should, v
            assert square(root) == n


def test_cbrt_matches_representative_oracle():
    for v, n in zip(SMOOTH, SMOOTH_NUMBERS):
        exists = False
        for p in range(3):
            scaled = v * 60**p
            r = round(scaled ** (1 / 3))
            for cand in (r - 1, r, r + 1):
                if cand > 0 and cand**3 == scaled:
                    exists = True
        try:
            root = recip.cbrt(n)
        except recip.NotACube:
            assert not exists, v
        else:
            assert exists, v
            assert mul(mul(root, root), root) == n


def test_parse_format_round_trip():
    for n in SMOOTH_NUMBERS:
        assert parse_spvn(str(n)) == n


def test_anchored_ops_agree_with_rationals():
    pairs = list(zip(SMOOTH_NUMBERS[::13], SMOOTH_NUMBERS[7::13]))
    for x, y in pairs:
        a = abacus.AnchoredNumber(x, -1)
        b = abacus.AnchoredNumber(y, 0)
        assert abacus.add(a, b).value() == a.value() + b.value()
        assert abacus.mul_anchored(a, b).value() == a.value() * b.value()
        assert abacus.half(a).value() == a.value() / 2
        assert abacus.recip_anchored(a)[0].value() == 1 / a.value()
        if a.value() > b.value():
            assert abacus.sub(a, b).value() == a.value() - b.value()


# --- the factor choice against a reference picker ----------------------------------

long_regulars = st.builds(
    lambda a, b, c: from_integer(2**a * 3**b * 5**c),
    st.integers(0, 120),
    st.integers(0, 80),
    st.integers(0, 60),
)


# every regular number of 1 to 8 digits: the oracle reads the wedge
# suffixes on digits, so these meet each row's test at every length
short_regulars = st.sampled_from(
    [from_integer(v) for v in smooth_numbers(60**8) if v % 60]
)


@pytest.mark.parametrize("strategy", list(FactorStrategy))
@settings(deadline=None, max_examples=300)
@given(long_regulars | short_regulars)
def test_factor_choice_matches_reference(strategy, n):
    r, fact = reciprocal(n, strategy)
    want = peel_whole(to_integer(n), O.RECIP_OF, strategy is FactorStrategy.WEDGE_SUFFIX_LONGEST)
    assert (to_integer(r), tuple(map(to_integer, fact.factors))) == want
    assert mul(n, r) == ONE


def _anchored_by_fractions(n: FloatingNumber, e: int) -> abacus.AnchoredNumber:
    """The anchored reciprocal of ``n`` at ``e``: 1 / (n * 60**e) as a
    ``Fraction``, split into its digits and the anchor of the last."""
    v, exponent = O.split(1 / O.anchored(to_integer(n), e))
    return abacus.AnchoredNumber(from_integer(v), exponent)


def test_anchored_reciprocal_exponent_short():
    # recip_anchored reads the exponent off the digit counts; every
    # regular number below 60**4, 1 among them, at several anchors
    for n in SMOOTH_NUMBERS:
        for e in (-2, 0, 3):
            a = abacus.AnchoredNumber(n, e)
            assert abacus.recip_anchored(a)[0] == _anchored_by_fractions(n, e)


@settings(deadline=None, max_examples=150)
@given(long_regulars, st.integers(-50, 50))
def test_anchored_reciprocal_exponent_long(n, e):
    a = abacus.AnchoredNumber(n, e)
    assert abacus.recip_anchored(a)[0] == _anchored_by_fractions(n, e)


@settings(deadline=None)
@given(
    st.lists(st.integers(0, 59), min_size=1, max_size=4).filter(any),
    st.lists(st.integers(0, 59), min_size=1, max_size=8).filter(any),
)
def test_integer_wedge_form_agrees_with_digits(td, nd):
    # the wedge test of reciprocal's loop, on the quotient's residue modulo
    # a window that each of t, m and M divides, as the loop reads it
    t, n = FloatingNumber(td), FloatingNumber(nd)
    ti = to_integer(t)
    m, M = 60 ** (len(t) - 1), 60 ** len(t)
    s = to_integer(n) % 60**4
    assert (s % m == ti % m and s % M >= ti) == O.wedge_suffix(ti, to_integer(n))


# Standard pairs without the one-place numbers below 9: many quotients
# stall, and many have divisors but no wedge suffix among them (1:4 and 32
# both divide 2:8), which the standard table never leaves to the fallback.
_VARIANT_PAIRS = (("9", "6:40"), ("16", "3:45"), ("27", "2:13:20"),
                  ("32", "1:52:30"), ("1:4", "56:15"))
VARIANT = ElementaryTable((parse_spvn(e), parse_spvn(r)) for e, r in _VARIANT_PAIRS)
#: the variant's values, either side, to their reciprocals, on the oracle's integers
VARIANT_RECIP = {
    O.parse(a): O.parse(b) for e, r in _VARIANT_PAIRS for a, b in ((e, r), (r, e))
}


@pytest.mark.parametrize("strategy", list(FactorStrategy))
@settings(deadline=None, max_examples=300)
@given(long_regulars)
def test_variant_table_matches_reference_or_stalls(strategy, n):
    want = peel_whole(to_integer(n), VARIANT_RECIP, strategy is FactorStrategy.WEDGE_SUFFIX_LONGEST)
    if want is None:
        with pytest.raises(NoProgress):
            reciprocal(n, strategy, VARIANT)
    else:
        r, fact = reciprocal(n, strategy, VARIANT)
        assert (to_integer(r), tuple(map(to_integer, fact.factors))) == want


@pytest.mark.parametrize("which", ["standard", "variant"])
@pytest.mark.parametrize("strategy", list(FactorStrategy))
@settings(deadline=None, max_examples=100)
@given(st.sampled_from(SMOOTH_NUMBERS) | long_regulars)
def test_factorization_records_the_reciprocal_column(which, strategy, n):
    from mesomath.tables import gen_reciprocal_table

    table = gen_reciprocal_table() if which == "standard" else VARIANT
    try:
        r, fact = reciprocal(n, strategy, table)
    except NoProgress:
        return  # where the variant table stalls is checked above
    recs = tuple(reciprocal(f, table=table)[0] for f in fact.factors)
    assert recip.factor_reciprocals(fact) == recs
    # bottom up: the last factor's reciprocal, then each partial product
    chain = list(accumulate(reversed(recs), mul))
    products = recip.running_products(fact)
    assert list(products) == (chain[1:] if len(recs) > 1 else chain)
    assert products[-1] is fact.reciprocal is r


@pytest.mark.parametrize("which", ["standard", "variant"])
def test_wedge_index_lists_exactly_the_possible_suffixes(which):
    from mesomath.tables import gen_reciprocal_table

    table = gen_reciprocal_table() if which == "standard" else VARIANT
    known = {to_integer(t) for pair in table.pairs for t in pair}
    rows = [(t, 60 ** (len(O.digits(t)) - 1), 60 ** len(O.digits(t))) for t in known]
    assert table._divisors == tuple(sorted((r for r in rows if r[0] > 1), reverse=True))
    # The digit oracle reads only a number's last len(t) digits, and a hit
    # needs all of them but the one under t's lead to be t's, so these
    # numbers meet every (digit under the lead, last digit) there can be.
    endings = {}
    for row in table._divisors:
        t = from_integer(row[0])
        tail = t.digits[1:-1]
        endings[row] = {
            n.digits[-1]
            for x in range(60)
            for d in range(60)
            for n in [FloatingNumber((1, x, *tail, d))]
            if O.wedge_suffix(row[0], to_integer(n))
        }
    assert len(table._wedge_by_last) == 60
    for d in range(60):
        want = tuple(e for e in table._divisors if d in endings[e])
        assert table._wedge_by_last[d] == want, d


def test_standard_table_window():
    # 44:26:40 = 2**8 * 5**4 and 1:21 = 3**4 need the fourth power of 60
    from mesomath.tables import gen_reciprocal_table

    assert gen_reciprocal_table()._window == 60**4
    assert VARIANT._window == 60**3


@pytest.mark.parametrize("which", ["standard", "variant"])
def test_every_known_value_is_below_the_window(which):
    # so a quotient at or past the window is never looked up in the table
    from mesomath.tables import gen_reciprocal_table

    table = gen_reciprocal_table() if which == "standard" else VARIANT
    assert max(table._by_rep) < table._window


@st.composite
def _regulars_of_5_to_300_digits(draw):
    """2**a * 3**b * 5**c of about a drawn length, once the factors of 60
    are stripped: the peel's quotients run from past its window to below."""
    bits = draw(st.integers(5, 300)) * 5.9
    a = draw(st.integers(0, int(bits)))
    b = draw(st.integers(0, int((bits - a) / 1.585)))
    c = int((bits - a - 1.585 * b) / 2.322)
    n = from_integer(2**a * 3**b * 5**c)
    assume(5 <= len(n) <= 300)
    return n


@pytest.mark.parametrize("which", ["standard", "variant"])
@pytest.mark.parametrize("strategy", list(FactorStrategy))
@settings(deadline=None, max_examples=40)
@given(_regulars_of_5_to_300_digits())
def test_windowed_peel_matches_whole_quotient_peel(which, strategy, n):
    from mesomath.tables import gen_reciprocal_table

    table, recip_of = (
        (gen_reciprocal_table(), O.RECIP_OF) if which == "standard" else (VARIANT, VARIANT_RECIP)
    )
    want = peel_whole(to_integer(n), recip_of, strategy is FactorStrategy.WEDGE_SUFFIX_LONGEST)
    if want is None:
        with pytest.raises(NoProgress):
            reciprocal(n, strategy, table)
    else:
        r, fact = reciprocal(n, strategy, table)
        assert (to_integer(r), tuple(map(to_integer, fact.factors))) == want


def test_variant_table_reaches_the_fallback():
    # 34:8 (= 2048 = 1:4 * 32): 1:4, 32 and 16 divide it, but none is a
    # wedge suffix of it, so the pick is the largest divisor, 1:4, which
    # leaves 32 (2:8 = 1:4 * 2 reaches the same pick, then stalls on 2)
    v = O.parse("34:8")
    divisors = [t for t in VARIANT_RECIP if v % t == 0]
    assert divisors and not any(O.wedge_suffix(t, v) for t in divisors)
    assert max(divisors) == O.parse("1:4")
    _, fact = reciprocal(parse_spvn("34:8"), FactorStrategy.WEDGE_SUFFIX_LONGEST, VARIANT)
    assert fact.factors == (parse_spvn("1:4"), parse_spvn("32"))
    with pytest.raises(NoProgress, match="divides 2$"):
        reciprocal(parse_spvn("2:8"), FactorStrategy.WEDGE_SUFFIX_LONGEST, VARIANT)


# --- regularity by one modular power, against the integer oracle ---------------

_smooth_ints = st.builds(
    lambda a, b, c: 2**a * 3**b * 5**c,
    st.integers(0, 200),
    st.integers(0, 200),
    st.integers(0, 200),
)


@settings(deadline=None, max_examples=300)
@given(_smooth_ints, st.sampled_from((7, 11, 13, 49, 59, 61, 7919, 2**61 - 1)))
def test_regularity_by_pow_matches_exponents(v, p):
    assert recip._is_regular_rep(v) is True
    assert O.regular(v)
    assert recip._is_regular_rep(v * p) is False
    assert not O.regular(v * p)


def test_regularity_by_pow_below_20000():
    assert recip._is_regular_rep(1)
    for v in range(1, 20_000):
        assert recip._is_regular_rep(v) == O.regular(v), v


# --- the integer bridge against an integer oracle ------------------------------

def _check_bridge(x, want_int):
    """x agrees with the oracle's canonical integer ``want_int`` and with
    both construction paths."""
    want_digits = O.digits(want_int)
    assert x.digits == want_digits
    assert to_integer(x) == want_int
    for y in (FloatingNumber(want_digits), from_integer(want_int)):
        assert x == y and hash(x) == hash(y)
        assert y.digits == want_digits and to_integer(y) == want_int
    back = from_integer(to_integer(x))
    assert back == x and back.digits == x.digits and hash(back) == hash(x)


# interior zeros are common, and zeros can pad either end
_digit = st.one_of(st.just(0), st.integers(0, 59))
_padded_digits = st.tuples(
    st.integers(0, 3),
    st.lists(_digit, min_size=1, max_size=64).filter(any),
    st.integers(0, 3),
).map(lambda t: (0,) * t[0] + tuple(t[1]) + (0,) * t[2])


# Both directions of the bridge work in groups of five digits, and
# from_integer reads digits in pairs: these sit on either side of those
# boundaries.  3599 and 3600 as digits, 60**5 - 1 and 60**5, 60**10 - 1
# and 60**10 + 1, a run of 59s, interior zeros across groups.
_BOUNDARY_DIGITS = (
    (59, 59),
    (1, 0, 0),
    (59,) * 5,
    (1,) + (0,) * 5,
    (59,) * 10,
    (1,) + (0,) * 9 + (1,),
    (59,) * 23,
    (0, 0, 7) + (0,) * 11 + (3, 0, 0, 0, 0, 0, 59, 0),
)


def _at_boundaries(*rest):
    """Hypothesis examples: each boundary sequence, then ``rest``."""

    def add(test):
        for ds in _BOUNDARY_DIGITS:
            test = example(ds, *rest)(test)
        return test

    return add


@settings(deadline=None, max_examples=150)
@given(_padded_digits)
@_at_boundaries()
def test_bridge_constructor_matches_oracle(ds):
    _check_bridge(FloatingNumber(ds), O.canon(O.from_digits(ds)))


@settings(deadline=None, max_examples=150)
@given(_padded_digits, st.integers(0, 4))
@_at_boundaries(0)
# 3600, 60**5 and 60**10 as integers
@example((1,), 2)
@example((1,), 5)
@example((1,), 10)
def test_bridge_from_integer_matches_oracle(ds, k):
    v = O.canon(O.from_digits(ds))
    _check_bridge(from_integer(v * 60**k), v)


@settings(deadline=None, max_examples=150)
@given(_padded_digits, _padded_digits)
@_at_boundaries((59,) * 5)
def test_bridge_mul_matches_oracle(da, db):
    want = O.canon(O.from_digits(da) * O.from_digits(db))
    _check_bridge(mul(FloatingNumber(da), FloatingNumber(db)), want)


@settings(deadline=None, max_examples=150)
@given(_padded_digits, st.sampled_from(":."))
@_at_boundaries(":")
def test_bridge_parse_matches_oracle(ds, sep):
    _check_bridge(parse_spvn(sep.join(map(str, ds))), O.canon(O.from_digits(ds)))


def _seeded_digits(seed: int, n: int) -> tuple[int, ...]:
    """n seeded digits, about half of them zero, with zeros at both ends."""
    rng = random.Random(seed)
    return (0, 0) + tuple(rng.choice((0, rng.randrange(60))) for _ in range(n)) + (1, 0)


# long sequences, drawn from a seed: Hypothesis draws long lists slowly
_long_padded_digits = st.builds(_seeded_digits, st.integers(0, 2**32), st.integers(200, 3000))


@settings(deadline=None, max_examples=150)
@given(_padded_digits | _long_padded_digits, st.integers(0, 2**32))
@example((0, 0, 0, 5, 0), None)
def test_parse_builds_what_the_constructor_builds(ds, seed):
    # parse_spvn fills the two slots itself, and equality reads only the
    # integer: so compare both slots with the oracle's and the validating
    # constructor's.  Half the tokens write each part as "7" or "07", the
    # others pad some parts with more zeros; either separator.
    if seed is None:
        text = "0:00.000:05:0"
    else:
        rng = random.Random(seed)
        pads = (0, 1, 2) if rng.random() < 0.5 else (0,)
        parts = [
            "0" * rng.choice(pads) + (f"{d:02d}" if rng.random() < 0.3 else str(d))
            for d in ds
        ]
        text = "".join(p + rng.choice(":.") for p in parts)[:-1]
    x, want = parse_spvn(text), FloatingNumber(ds)
    assert type(x) is FloatingNumber
    v = O.canon(O.from_digits(ds))
    assert (x.digits, to_integer(x)) == (O.digits(v), v)
    assert x.digits == want.digits and to_integer(x) == to_integer(want)


def test_parse_of_a_long_token_is_fast():
    # 36,415 digits in 0.06 s here; a fold that multiplied the whole
    # integer once per digit rather than once per group took 0.29 s
    rng = random.Random(36415)
    text = ":".join(str(rng.randrange(60)) for _ in range(36_415))
    start = time.perf_counter()
    x = parse_spvn(text)
    assert time.perf_counter() - start < 1.0
    assert x.digits == FloatingNumber(map(int, text.split(":"))).digits


def _long_digits() -> tuple[int, ...]:
    """About 5,000 seeded digits with zero runs inside and at both ends."""
    rng = random.Random(5000)
    ds = [rng.randrange(60) for _ in range(5000)]
    for i in range(0, 5000, 397):
        n = rng.randrange(1, 12)
        ds[i : i + n] = [0] * n
    return (0, 0) + tuple(ds) + (0, 0, 0)


def test_bridge_long_digits_to_integer():
    ds = _long_digits()
    v = O.canon(O.from_digits(ds))
    assert len(O.digits(v)) > 4_900
    x = FloatingNumber(ds)
    assert x.digits == O.digits(v) and to_integer(x) == v


def test_bridge_long_integer_to_digits():
    v = O.canon(O.from_digits(_long_digits()))
    x = from_integer(v * 60**7)
    assert x.digits == O.digits(v) and to_integer(x) == v
