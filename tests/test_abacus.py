from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mesomath.abacus import (
    MAX_ANCHOR_GAP,
    AnchoredNumber,
    Configuration,
    add,
    half,
    mul_anchored,
    recip_anchored,
    sqrt_anchored,
    sub,
)
from mesomath.errors import AnchorGap, NegativeResult, NotASquare, ZeroResult
from mesomath.recip import reciprocal
from mesomath.spvn import FloatingNumber, mul
from mesomath.textio import parse_number as an, parse_spvn as fn


digit_seqs = st.lists(st.integers(0, 59), min_size=1, max_size=4).filter(any)
anchored_values = st.builds(
    lambda ds, e: AnchoredNumber(FloatingNumber(ds), e),
    digit_seqs,
    st.integers(-4, 4),
)


class TestAnchor:
    def test_six_and_a_half(self):
        a = AnchoredNumber(fn("6:30"), -1)
        assert a.value() == Fraction(13, 2)

    def test_five(self):
        assert AnchoredNumber(fn("5"), 0).value() == 5

    def test_computing_unit(self):
        assert AnchoredNumber(fn("1"), 0).value() == 1

    def test_literal_round_trip(self):
        assert an("6:30e-1") == AnchoredNumber(fn("6:30"), -1)
        assert str(an("5e0")) == "5e0"


class TestAddSub:
    def test_append(self):
        assert add(an("3:15e-1"), an("1:45e-1")) == an("5e0")

    def test_cut_off(self):
        assert sub(an("3:15e-1"), an("1:45e-1")) == an("1:30e-1")

    def test_tear_out_across_exponents(self):
        assert sub(an("10:33:45e-2"), an("7:30e-1")) == an("3:3:45e-2")

    def test_zero_result(self):
        with pytest.raises(ZeroResult):
            sub(an("5e0"), an("5e0"))

    def test_negative_result(self):
        with pytest.raises(NegativeResult):
            sub(an("1:45e-1"), an("3:15e-1"))

    def test_widest_gap(self):
        a, b = an("1e0"), an(f"1e{MAX_ANCHOR_GAP}")
        assert add(a, b).value() == a.value() + b.value()
        assert sub(b, a).value() == b.value() - a.value()

    def test_the_documented_bound(self):
        # 1000 columns, as the README says; two operands anchored high
        # are close to each other, however far both are from the units
        assert add(an("1e600"), an("1e600")) == an("2e600")
        assert add(an("1e0"), an("1e1000")).value() == 1 + Fraction(60) ** 1000
        with pytest.raises(AnchorGap) as e:
            add(an("1e0"), an("1e1001"))
        assert str(e.value) == "1e0 and 1e1001 are anchored 1001 columns apart, more than 1000"

    @pytest.mark.parametrize("op", [add, sub])
    def test_wider_gap_refused(self, op):
        for a, b in ((an("1e0"), an(f"1e{MAX_ANCHOR_GAP + 1}")),
                     (an(f"2e{-MAX_ANCHOR_GAP - 1}"), an("1e0"))):
            with pytest.raises(AnchorGap, match=f"{MAX_ANCHOR_GAP + 1} columns apart"):
                op(a, b)

    @given(anchored_values, anchored_values)
    def test_rational_oracle(self, a, b):
        assert add(a, b).value() == a.value() + b.value()
        if a.value() > b.value():
            assert sub(a, b).value() == a.value() - b.value()


class TestMulAnchored:
    def test_base_derivation(self):
        assert mul_anchored(an("5e0"), an("1:30e-1")) == an("7:30e-1")

    def test_square(self):
        a = an("3:15e-1")
        assert mul_anchored(a, a) == an("10:33:45e-2")

    def test_unit(self):
        assert mul_anchored(an("1e0"), an("44:26:40e2")) == an("44:26:40e2")

    @given(anchored_values, anchored_values)
    def test_digits_never_depend_on_exponents(self, a, b):
        assert mul_anchored(a, b).digits == mul(a.digits, b.digits)

    @given(anchored_values, anchored_values)
    def test_rational_oracle(self, a, b):
        assert mul_anchored(a, b).value() == a.value() * b.value()


class TestHalf:
    def test_break(self):
        assert half(an("6:30e-1")) == an("3:15e-1")

    def test_half_of_one(self):
        assert half(an("1e0")) == an("30e-1")

    def test_half_of_two(self):
        assert half(an("2e0")) == an("1e0")

    @given(anchored_values)
    def test_rational_oracle(self, a):
        assert half(a).value() == a.value() / 2


class TestRecipAnchored:
    def test_two(self):
        assert recip_anchored(an("2e0"))[0] == an("30e-1")

    def test_ten(self):
        assert recip_anchored(an("10e0"))[0] == an("6e-1")

    def test_one(self):
        assert recip_anchored(an("1e0"))[0] == an("1e0")

    @given(
        st.integers(0, 8),
        st.integers(0, 5),
        st.integers(0, 3),
        st.integers(-3, 3),
    )
    def test_rational_oracle(self, a2, a3, a5, e):
        v = 2**a2 * 3**a3 * 5**a5
        from mesomath.spvn import from_integer

        x = AnchoredNumber(from_integer(v), e)
        r, fact = recip_anchored(x)
        assert r.value() == 1 / x.value()
        assert fact == reciprocal(x.digits)[1]


class TestSqrtAnchored:
    def test_attested(self):
        assert sqrt_anchored(an("3:3:45e-2")) == an("1:45e-1")

    def test_even(self):
        assert sqrt_anchored(an("9e0")) == an("3e0")

    def test_derived(self):
        assert sqrt_anchored(an("10:33:45e-2")) == an("3:15e-1")

    def test_parity_matters(self):
        # 9 has a floating root, but 9e1 is five hundred forty
        with pytest.raises(NotASquare):
            sqrt_anchored(an("9e1"))

    def test_odd_exponent(self):
        # 15e1 is nine hundred, an exact square
        assert sqrt_anchored(an("15e1")) == an("30e0")


class TestConfiguration:
    def test_lookup(self):
        c = Configuration("A", {"sum": -1})
        assert c.exponent_for("sum") == -1
        with pytest.raises(KeyError):
            c.exponent_for("other")
