import pytest
from hypothesis import given, strategies as st

from mesomath.errors import AllZero, DigitOutOfRange, NonPositive
from mesomath.spvn import (
    FloatingNumber,
    SimplerOrdering,
    compare_simpler,
    from_integer,
    mul,
    square,
    to_integer,
)
from mesomath.textio import parse_spvn as fn
import oracle as O
from oracles import smooth_numbers


digit_seqs = st.lists(st.integers(0, 59), min_size=1, max_size=5)
nonzero_seqs = digit_seqs.filter(lambda ds: any(ds))


class TestNormalize:
    def test_already_normalized(self):
        assert FloatingNumber([5]).digits == (5,)

    def test_trailing_zero_stripped(self):
        # 3 and 3x60 are written with the same sign
        assert FloatingNumber([3, 0]) == fn("3")

    def test_both_ends_stripped(self):
        assert FloatingNumber([0, 4, 26, 40, 0]) == fn("4:26:40")

    def test_equals_no_other_type(self):
        # another type gets NotImplemented, so Python falls back to
        # identity: a number is not its integer, its text or its digits
        assert (fn("1") == 1) is False
        assert fn("1") != "1"
        assert fn("4:26:40") != (4, 26, 40)

    def test_interior_zero_kept(self):
        assert FloatingNumber([3, 0, 45]).digits == (3, 0, 45)

    def test_all_zero_rejected(self):
        with pytest.raises(AllZero):
            FloatingNumber([0, 0])

    def test_digit_out_of_range(self):
        with pytest.raises(DigitOutOfRange):
            FloatingNumber([60])

    def test_negative_digit(self):
        with pytest.raises(DigitOutOfRange):
            FloatingNumber([1, -1])

    # nothing rounds and nothing is coerced: a digit must be an integer
    def test_float_digit_rejected(self):
        with pytest.raises(DigitOutOfRange):
            FloatingNumber([1.7, 2])

    def test_integral_float_digit_rejected(self):
        with pytest.raises(DigitOutOfRange):
            FloatingNumber([2.0])

    def test_string_of_digits_rejected(self):
        with pytest.raises(DigitOutOfRange):
            FloatingNumber("123")

    def test_string_with_separator_rejected(self):
        with pytest.raises(DigitOutOfRange):
            FloatingNumber("1:30")

    @given(nonzero_seqs)
    def test_idempotent(self, ds):
        once = FloatingNumber(ds)
        assert FloatingNumber(once.digits) == once


class TestIntegerBridge:
    def test_canonical_value(self):
        assert to_integer(fn("4:26:40")) == 4 * 3600 + 26 * 60 + 40 == 16000

    def test_from_integer(self):
        assert from_integer(16000) == fn("4:26:40")

    def test_sixty_is_one(self):
        assert from_integer(60) == fn("1")

    def test_nonpositive(self):
        with pytest.raises(NonPositive):
            from_integer(0)

    def test_non_integer_refused(self):
        # a float is not truncated into some nearby number
        with pytest.raises(TypeError):
            from_integer(16000.5)

    @given(st.integers(1, 60**6))
    def test_round_trip_strips_sixties(self, v):
        assert to_integer(from_integer(v)) == O.canon(v)


class TestShortPath:
    """Below 60**3 ``from_integer`` splits a representative directly."""

    def test_every_short_representative(self):
        for v in range(1, 60**3):
            if v % 60:
                n = from_integer(v)
                assert n.digits == O.digits(v)
                assert str(n) == O.show(v)

    @pytest.mark.parametrize("bound", [60, 60**2, 60**3])
    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_both_sides_of_each_bound(self, bound, k):
        for v in (bound - 1, bound + 1, bound * 7 - 1, bound * 59 + 1):
            n = from_integer(v * 60**k)
            assert n.digits == O.digits(v) and to_integer(n) == v
            assert str(n) == O.show(v)
            assert n == FloatingNumber(O.digits(v))


class TestMul:
    @pytest.mark.parametrize(
        "a, b, want",
        [
            ("20", "20", "6:40"),
            ("9", "7", "1:3"),
            ("5", "1:30", "7:30"),
            ("44:26:40", "1:21", "1"),
        ],
    )
    def test_attested_products(self, a, b, want):
        assert mul(fn(a), fn(b)) == fn(want)

    @given(nonzero_seqs)
    def test_identity(self, ds):
        x = FloatingNumber(ds)
        assert mul(fn("1"), x) == x

    @given(nonzero_seqs, nonzero_seqs)
    def test_integer_oracle(self, da, db):
        a, b = FloatingNumber(da), FloatingNumber(db)
        assert mul(a, b) == from_integer(to_integer(a) * to_integer(b))

    @given(nonzero_seqs, nonzero_seqs)
    def test_commutative(self, da, db):
        a, b = FloatingNumber(da), FloatingNumber(db)
        assert mul(a, b) == mul(b, a)

    @given(nonzero_seqs, nonzero_seqs, st.integers(1, 3))
    def test_floating_invariance(self, da, db, k):
        # appending trailing zeros to an operand never changes the product
        a, b = FloatingNumber(da), FloatingNumber(db)
        padded = FloatingNumber(tuple(da) + (0,) * k)
        assert mul(padded, b) == mul(a, b)

    def test_dunder(self):
        assert fn("9") * fn("7") == fn("1:3")


class TestSquare:
    def test_cross_itself(self):
        assert square(fn("3:15")) == fn("10:33:45")

    def test_perimeter(self):
        assert square(fn("3")) == fn("9")

    def test_one(self):
        assert square(fn("1")) == fn("1")


class TestSimplerOrdering:
    def test_fewer_digits_simpler(self):
        assert compare_simpler(fn("40"), fn("4:26:40")) is SimplerOrdering.SIMPLER

    def test_same_count_smaller_value(self):
        assert compare_simpler(fn("40"), fn("50")) is SimplerOrdering.SIMPLER

    def test_equal(self):
        assert compare_simpler(fn("7:30"), fn("7:30")) is SimplerOrdering.EQUAL

    def test_less_simple(self):
        assert compare_simpler(fn("4:26:40"), fn("40")) is SimplerOrdering.LESS_SIMPLE

    def test_total_order_on_regulars(self):
        # antisymmetric, transitive, trichotomous over all regulars < 60**3
        values = [from_integer(v) for v in smooth_numbers(60**3 - 1) if v % 60]

        def key(n):
            return (len(n), to_integer(n))

        for i, x in enumerate(values):
            for y in values[i:]:
                cmp_xy = compare_simpler(x, y)
                cmp_yx = compare_simpler(y, x)
                if key(x) < key(y):
                    assert cmp_xy is SimplerOrdering.SIMPLER
                    assert cmp_yx is SimplerOrdering.LESS_SIMPLE
                elif key(x) > key(y):
                    assert cmp_xy is SimplerOrdering.LESS_SIMPLE
                else:
                    assert x == y and cmp_xy is SimplerOrdering.EQUAL
        # transitivity follows from agreement with the key ordering
