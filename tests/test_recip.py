import subprocess
import sys
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from mesomath.errors import (
    Irregular,
    LoopMismatch,
    NoProgress,
    NotACube,
    NotASquare,
)
from mesomath import recip, spvn
from mesomath.recip import (
    ElementaryTable,
    _icbrt,
    FactorStrategy,
    cbrt,
    factor_reciprocals,
    is_regular,
    reciprocal,
    reciprocal_loop,
    running_products,
    sqrt,
)
from mesomath.spvn import SimplerOrdering, compare_simpler, from_integer, mul, to_integer
from mesomath.tables import gen_reciprocal_table
from mesomath.textio import parse_spvn as fn
import oracle as O
from oracles import icbrt_corrected


class TestIsRegular:
    def test_table_entry(self):
        assert is_regular(fn("44:26:40"))

    def test_seven_irregular(self):
        assert not is_regular(fn("7"))

    def test_one(self):
        assert is_regular(fn("1"))

    def test_long_regular(self):
        # oracle: canonical value factors as 2**19 * 5**3
        n = fn("5:3:24:26:40")
        assert to_integer(n) == 65536000 == 2**19 * 5**3
        assert is_regular(n)


class TestWedgeSuffix:
    """The rule the peel reads, on the integer oracle."""

    def test_equal_tail(self):
        assert O.wedge_suffix(O.parse("40"), O.parse("4:26:40"))

    def test_subcount_leading_digit(self):
        # the 6 of 6:40 is readable inside the 26 of 4:26:40
        assert O.wedge_suffix(O.parse("6:40"), O.parse("4:26:40"))

    def test_larger_leading_digit_fails(self):
        assert not O.wedge_suffix(O.parse("50"), O.parse("4:26:40"))

    def test_tail_mismatch_fails(self):
        assert not O.wedge_suffix(O.parse("1:4"), O.parse("4:26:40"))


def _oracle_divisors(n):
    """The standard table's values above 1, either side, that divide ``n``."""
    return {t for t in O.RECIP_OF if t > 1 and to_integer(n) % t == 0}


class TestTrailingCandidates:
    """The first trailing part the peel takes among the exact divisors."""

    def test_candidates_4_26_40(self):
        n = fn("4:26:40")
        _, fact = reciprocal(n)
        wedge = {t for t in _oracle_divisors(n) if O.wedge_suffix(t, to_integer(n))}
        assert {O.parse("40"), O.parse("6:40")} <= wedge
        # the largest divisor readable at the end is peeled first
        assert to_integer(fact.factors[0]) == O.parse("6:40") == max(wedge)

    def test_candidates_45_30_40(self):
        n = fn("45:30:40")
        _, fact = reciprocal(n)
        # 6:40 does not divide 163840 exactly, so 40 is the first peel
        assert O.parse("6:40") not in _oracle_divisors(n)
        assert fact.factors[0] == fn("40")

    def test_candidates_16(self):
        # 8, 4 and 2 divide 16 too, but 16 is in the table: nothing is peeled
        assert {O.show(t) for t in _oracle_divisors(fn("16"))} == {"16", "8", "4", "2"}
        for strategy in FactorStrategy:
            assert reciprocal(fn("16"), strategy)[1].factors == (fn("16"),)

    def test_every_candidate_divides(self):
        # each factor divides the quotient it was peeled from
        for s in ("2:13:20", "2:8", "8:53:20", "5:3:24:26:40"):
            for strategy in FactorStrategy:
                _, fact = reciprocal(fn(s), strategy)
                for q, f in zip(fact.quotients(), fact.factors):
                    assert to_integer(q) % to_integer(f) == 0


class TestReciprocal:
    def test_school_exercise(self):
        r, fact = reciprocal(fn("4:26:40"))
        assert r == fn("13:30")
        assert [str(f) for f in fact.factors] == ["6:40", "40"]
        assert [str(q) for q in fact.quotients()] == ["4:26:40", "40"]
        assert [str(x) for x in factor_reciprocals(fact)] == ["9", "1:30"]

    def test_long_exercise(self):
        r, fact = reciprocal(fn("5:3:24:26:40"))
        assert r == fn("11:51:54:50:37:30")
        assert [str(f) for f in fact.factors] == ["6:40", "40", "16", "16", "16"]
        assert [str(q) for q in fact.quotients()] == [
            "5:3:24:26:40",
            "45:30:40",
            "1:8:16",
            "4:16",
            "16",
        ]
        assert [str(p) for p in running_products(fact)] == [
            "14:3:45",
            "52:44:3:45",
            "1:19:6:5:37:30",
            "11:51:54:50:37:30",
        ]

    def test_quotient_column_ends_on_the_last_factor(self):
        # the last quotient is the table value that ended the peel
        _, fact = reciprocal(fn("5:3:24:26:40"))
        q = fact.quotients()
        assert len(q) == len(fact.factors) == 5
        assert q[-1] == fact.factors[-1]
        assert to_integer(q[-1]) == to_integer(fact.source) // prod(
            map(to_integer, fact.factors[:-1])
        )

    def test_table_value_is_its_own_quotient_column(self):
        n = fn("44:26:40")
        _, fact = reciprocal(n)
        assert fact.factors == (n,)
        assert fact.quotients() == (n,)

    def test_table_lookup(self):
        r, fact = reciprocal(fn("2"))
        assert r == fn("30")
        assert [str(f) for f in fact.factors] == ["2"]

    def test_one(self):
        assert reciprocal(fn("1"))[0] == fn("1")

    def test_irregular(self):
        with pytest.raises(Irregular):
            reciprocal(fn("7"))

    @pytest.mark.parametrize("s", ["7", "1:10", "5:3:24:26:41", "59:59:59:59:59:59"])
    def test_irregular_message(self, s):
        n = fn(s)
        assert not O.regular(to_integer(n))
        with pytest.raises(Irregular, match=f"^{s} is without reciprocal$"):
            reciprocal(n)

    def test_product_contract(self):
        for s in ("2", "1:21", "4:26:40", "5:3:24:26:40", "2:5"):
            r, fact = reciprocal(fn(s))
            assert mul(fn(s), r) == fn("1")
            assert prod(map(to_integer, fact.factors)) == to_integer(fn(s))

    def test_strategy_determinism(self):
        a = reciprocal(fn("5:3:24:26:40"))
        b = reciprocal(fn("5:3:24:26:40"))
        assert a[1].factors == b[1].factors

    def test_any_divisor_strategy_same_value(self):
        n = fn("45:30:40")
        r_wedge, f_wedge = reciprocal(n, FactorStrategy.WEDGE_SUFFIX_LONGEST)
        r_any, f_any = reciprocal(n, FactorStrategy.ANY_DIVISOR_LARGEST)
        assert r_wedge == r_any
        # largest exact divisor of 163840 among table values is 1:20
        # (80, the reciprocal of 45), so the strategies genuinely diverge
        assert to_integer(fn("45:30:40")) % 80 == 0
        assert f_any.factors[0] == fn("1:20")
        assert f_wedge.factors[0] == fn("40")

    def test_variant_table_no_progress(self):
        # a table without small primes cannot reduce 2:5 (= 125)
        table = ElementaryTable([(fn("2"), fn("30"))])
        with pytest.raises(NoProgress):
            reciprocal(fn("2:5"), table=table)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([("2", "31")], "2 and 31 are not a reciprocal pair"),
            ([("2", "30"), ("3", "30")], "3 and 30 are not a reciprocal pair"),
            ([("1:4", "56:15"), ("7", "8:34:17:8:34:17")],
             "7 and 8:34:17:8:34:17 are not a reciprocal pair"),
        ],
    )
    def test_table_refuses_a_pair_that_is_not_reciprocal(self, pairs, message):
        with pytest.raises(ValueError) as e:
            ElementaryTable([(fn(a), fn(b)) for a, b in pairs])
        assert str(e.value) == message

    def test_table_lookup_both_ways(self):
        table = ElementaryTable([(fn("2"), fn("30"))])
        assert reciprocal(fn("30"), table=table)[0] == fn("2")
        assert fn("2") in table and fn("7") not in table and 2 not in table


def _count_conversions(monkeypatch) -> list:
    """Record every call of ``from_integer`` that ``recip`` can make.

    ``recip`` calls it under its own imported name and, through
    ``spvn.mul``, under the name in ``spvn``; both are patched.
    """
    calls = []
    real = spvn.from_integer

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(recip, "from_integer", counted)
    monkeypatch.setattr(spvn, "from_integer", counted)
    return calls


class TestConversionsSaved:
    @pytest.mark.parametrize("s", ["1", "2", "4:26:40", "45:30:40", "5:3:24:26:40"])
    def test_each_answer_converted_once(self, monkeypatch, s):
        n = fn(s)
        calls = _count_conversions(monkeypatch)
        r, fact = reciprocal(n)
        assert len(calls) == 1
        del calls[:]
        products = running_products(fact)
        k = len(fact.factors)
        if k < 2:
            assert calls == [] and products == factor_reciprocals(fact)
        else:
            assert len(calls) == k - 2
            factors = tuple(map(to_integer, fact.factors))
            assert list(map(to_integer, products)) == list(O.running_products(factors))
            assert products[-1] is r


class TestReciprocalLoop:
    def test_long_loop(self):
        fwd, back = reciprocal_loop(fn("5:3:24:26:40"))
        assert fwd.reciprocal == fn("11:51:54:50:37:30")
        assert back.reciprocal == fn("5:3:24:26:40")

    def test_table_loop(self):
        fwd, back = reciprocal_loop(fn("2"))
        assert fwd.reciprocal == fn("30")
        assert back.reciprocal == fn("2")

    def test_one_loop(self):
        fwd, back = reciprocal_loop(fn("1"))
        assert fwd.reciprocal == back.reciprocal == fn("1")

    def test_mismatch_raises_typed_error(self, monkeypatch):
        # a typed error, not an assert, so the check survives python -O
        from mesomath import recip

        monkeypatch.setattr(recip, "reciprocal", lambda n: (fn("2"), None))
        with pytest.raises(LoopMismatch, match="loop failed"):
            reciprocal_loop(fn("3"))


def _divisible(a, b):
    """Divisibility in the productive sense.

    Formally any number divides any other here (2 divided by 5 "gives
    24"); ``a`` counts as divisible by regular ``b`` only when
    multiplying by the reciprocal of ``b`` yields something simpler.
    """
    return compare_simpler(mul(a, reciprocal(b)[0]), a) is SimplerOrdering.SIMPLER


class TestDivisible:
    def test_attested(self):
        assert _divisible(fn("4:26:40"), fn("6:40"))

    def test_formal_quotient_not_simpler(self):
        # 2 times the reciprocal of 5 is 24: not simpler, so not divisible
        assert not _divisible(fn("2"), fn("5"))

    def test_self_division(self):
        assert _divisible(fn("16"), fn("16"))

    def test_irregular_divisor(self):
        with pytest.raises(Irregular):
            _divisible(fn("14"), fn("7"))


class TestSqrt:
    def test_attested(self):
        assert sqrt(fn("3:3:45")) == fn("1:45")

    def test_oracle_value(self):
        assert to_integer(fn("10:33:45")) == 38025 == 195 * 195
        assert sqrt(fn("10:33:45")) == fn("3:15")

    def test_one(self):
        assert sqrt(fn("1")) == fn("1")

    def test_odd_parity_representative(self):
        # 1:40 = 100 is a square; 15 needs the 15*60 = 900 representative
        assert sqrt(fn("1:40")) == fn("10")
        assert sqrt(fn("15")) == fn("30")

    def test_no_root(self):
        with pytest.raises(NotASquare):
            sqrt(fn("2"))


class TestCbrt:
    def test_small_cube(self):
        assert cbrt(fn("8")) == fn("2")

    def test_scaled_cube(self):
        # oracle: 90**3 = 729000 normalizes to 3:22:30
        assert from_integer(90 * 90 * 90) == fn("3:22:30")
        assert cbrt(fn("3:22:30")) == fn("1:30")

    def test_not_a_cube(self):
        with pytest.raises(NotACube):
            cbrt(fn("12:30"))

    def test_not_a_cube_long(self):
        with pytest.raises(NotACube):
            cbrt(fn("4:5:7:30"))


class TestIntegerCubeRoot:
    """``_icbrt`` ends at its Newton loop; the oracle still corrects."""

    def test_every_integer_to_100000(self):
        assert all(_icbrt(v) == icbrt_corrected(v) for v in range(1, 100_001))

    @settings(deadline=None, max_examples=300)
    @given(st.integers(2, 2**400), st.sampled_from([-1, 0, 1]))
    def test_next_to_a_cube(self, x, offset):
        v = x**3 + offset
        assert _icbrt(v) == icbrt_corrected(v) == x - (offset < 0)

    @settings(deadline=None, max_examples=300)
    @given(st.integers(1, 2**1000))
    def test_drawn_integers(self, v):
        r = _icbrt(v)
        assert r == icbrt_corrected(v) and r**3 <= v < (r + 1) ** 3


def test_import_builds_no_reciprocal_table():
    # the standard table is built on first use, never while importing
    code = (
        "import sys\n"
        "built = []\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call' and frame.f_code.co_name"
        " == 'gen_reciprocal_table' and built.append(1))\n"
        "import mesomath, mesomath.cli\n"
        "sys.setprofile(None)\n"
        "print(len(built), mesomath.tables.gen_reciprocal_table.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0"]


def test_standard_table_is_built_once():
    n = fn("4:26:40")
    reciprocal(n)
    before = gen_reciprocal_table.cache_info()
    reciprocal(n)
    factor_reciprocals(reciprocal(n)[1])
    after = gen_reciprocal_table.cache_info()
    assert (after.hits, after.misses, after.currsize) == (before.hits + 2, before.misses, 1)
