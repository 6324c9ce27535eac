"""Floating sexagesimal place value notation.

A number here is a nonempty sequence of base-60 digits with no marked
units position: the same digit string stands for every value V * 60**p,
so 1, 60 and 1/60 share the notation "1".  Multiplication, squaring and
the "simpler" ordering are all well defined on those equivalence
classes; addition is not, and lives in :mod:`mesomath.abacus` where an
anchor makes it meaningful.

The canonical integer representative of a normalized sequence puts its
last digit at 60**0.  Because normalization strips trailing zeros, the
representative is never divisible by 60, and :func:`to_integer` /
:func:`from_integer` form a bijection onto such positive integers.  That
bijection is the oracle bridge the test suite leans on.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from .errors import AllZero, DigitOutOfRange, NonPositive

BASE = 60


def split_digit(d: int) -> tuple[int, int]:
    """Split a digit into its tens count (0..5) and units count (0..9).

    A digit was written as a group of ten-wedges followed by a group of
    unit-wedges; the split is what lets a smaller digit be read inside a
    larger one when hunting for trailing parts.
    """
    if not 0 <= d <= 59:
        raise DigitOutOfRange(f"digit {d} outside 0..59")
    return d // 10, d % 10


class FloatingNumber:
    """A normalized base-60 digit sequence, most significant digit first.

    Construction normalizes: leading and trailing zero digits are
    stripped (they carry no floating meaning), interior zeros are kept.
    A sequence with no nonzero digit raises :class:`AllZero`.
    """

    __slots__ = ("_digits",)

    def __init__(self, digits: Iterable[int]):
        ds = tuple(int(d) for d in digits)
        for d in ds:
            if not 0 <= d <= 59:
                raise DigitOutOfRange(f"digit {d} outside 0..59")
        lo = 0
        hi = len(ds)
        while lo < hi and ds[lo] == 0:
            lo += 1
        while hi > lo and ds[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            raise AllZero("a digit sequence must contain a nonzero digit")
        self._digits = ds[lo:hi]

    @property
    def digits(self) -> tuple[int, ...]:
        return self._digits

    def __len__(self) -> int:
        return len(self._digits)

    def __iter__(self) -> Iterator[int]:
        return iter(self._digits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatingNumber):
            return NotImplemented
        return self._digits == other._digits

    def __hash__(self) -> int:
        return hash(self._digits)

    def __mul__(self, other: "FloatingNumber") -> "FloatingNumber":
        return mul(self, other)

    def __str__(self) -> str:
        return ":".join(str(d) for d in self._digits)

    def __repr__(self) -> str:
        return f"FloatingNumber({str(self)!r})"


class SimplerOrdering(enum.Enum):
    """Outcome of the "smaller in the productive sense" comparison."""

    SIMPLER = -1
    EQUAL = 0
    LESS_SIMPLE = 1


def to_integer(a: FloatingNumber) -> int:
    """Canonical integer representative, last digit at 60**0."""
    v = 0
    for d in a.digits:
        v = v * BASE + d
    return v


def from_integer(v: int) -> FloatingNumber:
    """Floating number whose class contains the positive integer ``v``.

    Factors of 60 are stripped first, so 60 and 3600 both come back as
    "1"; the result always has a nonzero last digit.
    """
    if v <= 0:
        raise NonPositive(f"no floating number for {v}")
    while v % BASE == 0:
        v //= BASE
    ds = []
    while v:
        ds.append(v % BASE)
        v //= BASE
    return FloatingNumber(reversed(ds))


def mul(a: FloatingNumber, b: FloatingNumber) -> FloatingNumber:
    """Floating product: exact on representatives, then renormalized.

    The digits of the result do not depend on where either operand's
    units position might have been, which is what makes the operation
    meaningful on equivalence classes at all.
    """
    return from_integer(to_integer(a) * to_integer(b))


def square(a: FloatingNumber) -> FloatingNumber:
    return mul(a, a)


def compare_simpler(a: FloatingNumber, b: FloatingNumber) -> SimplerOrdering:
    """Three-way comparison: fewer digits wins, then smaller representative.

    40 is simpler than 4:26:40 (fewer digits) and simpler than 50 (same
    count, smaller value).  This is a total order on normalized values.
    """
    if a.digits == b.digits:
        return SimplerOrdering.EQUAL
    ka, kb = len(a), len(b)
    if ka != kb:
        return SimplerOrdering.SIMPLER if ka < kb else SimplerOrdering.LESS_SIMPLE
    return (
        SimplerOrdering.SIMPLER
        if to_integer(a) < to_integer(b)
        else SimplerOrdering.LESS_SIMPLE
    )


ONE = FloatingNumber((1,))
