"""Anchored sexagesimal arithmetic: the column model.

Addition and subtraction have no floating meaning; they need every
operand pinned to columns.  An :class:`AnchoredNumber` is a digit
sequence plus the power of sixty carried by its rightmost digit, so its
worth is V * 60**exponent exactly.  Multiplication of anchored values
reuses the floating product for the digits - the anchor never changes
what the digits are, only where they sit.

A :class:`Configuration` names an assignment of anchors to a procedure's
given numbers; attested procedures come out digit-identical under every
coherent choice, which is the point of working this way.
"""

from __future__ import annotations

from math import isqrt
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import AnchorGap, NegativeResult, NotASquare, ZeroResult, _clip
from .spvn import BASE, FloatingNumber, from_integer, to_integer
from . import recip as _recip

if TYPE_CHECKING:
    from fractions import Fraction


class AnchoredNumber(NamedTuple):
    """digits * 60**exponent, exponent anchoring the rightmost digit.

    The anchor sits on the right because normalization strips trailing
    zeros: sums can grow new digits on the left without disturbing it.
    """

    digits: FloatingNumber
    exponent: int

    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(to_integer(self.digits)) * Fraction(BASE) ** self.exponent

    def __str__(self) -> str:
        return f"{self.digits}e{self.exponent}"


def _from_scaled_integer(v: int, exponent: int) -> AnchoredNumber:
    # Renormalize so the digit sequence keeps a nonzero last digit.
    while v % BASE == 0:
        v //= BASE
        exponent += 1
    return AnchoredNumber(from_integer(v), exponent)


#: Largest difference between two anchors that :func:`add` and :func:`sub`
#: accept.  Both operands are scaled to the lower anchor, so the gap sets
#: the size of the integer they work on; a wider gap is refused before any
#: power of sixty is built.
MAX_ANCHOR_GAP = 1000


def _aligned(a: AnchoredNumber, b: AnchoredNumber) -> tuple[int, int, int]:
    """Both operands as integers counted in the lower anchor's column."""
    gap = abs(a.exponent - b.exponent)
    if gap > MAX_ANCHOR_GAP:
        raise AnchorGap(
            f"{a} and {b} are anchored {gap} columns apart,"
            f" more than {MAX_ANCHOR_GAP}"
        )
    e = min(a.exponent, b.exponent)
    va = to_integer(a.digits) * BASE ** (a.exponent - e)
    vb = to_integer(b.digits) * BASE ** (b.exponent - e)
    return va, vb, e


def add(a: AnchoredNumber, b: AnchoredNumber) -> AnchoredNumber:
    va, vb, e = _aligned(a, b)
    return _from_scaled_integer(va + vb, e)


def sub(a: AnchoredNumber, b: AnchoredNumber) -> AnchoredNumber:
    va, vb, e = _aligned(a, b)
    v = va - vb
    if v == 0:
        raise ZeroResult(f"{a} - {b} is zero, which has no numeral")
    if v < 0:
        raise NegativeResult(f"{a} - {b} is negative")
    return _from_scaled_integer(v, e)


def mul_anchored(a: AnchoredNumber, b: AnchoredNumber) -> AnchoredNumber:
    """Digits are the floating product; the anchor follows by bookkeeping."""
    raw = to_integer(a.digits) * to_integer(b.digits)
    return _from_scaled_integer(raw, a.exponent + b.exponent)


HALF = AnchoredNumber(FloatingNumber((30,)), -1)


def half(a: AnchoredNumber) -> AnchoredNumber:
    """Halving is multiplication by 30, the reciprocal of 2."""
    return mul_anchored(a, HALF)


def recip_anchored(a: AnchoredNumber) -> tuple[AnchoredNumber, _recip.Factorization]:
    """Reciprocal anchored so a * result = 1e0, with its factorization.

    The canonical integers of ``a`` and ``r`` multiply to 60**k.  With
    n digits between them their product lies in [60**(n-2), 60**n), so
    k is n - 1 or n - 2.  The lower end needs both integers to be powers
    of sixty, and a canonical integer, whose last digit is nonzero, is
    one only when it is 1: so k is n - 1 unless ``a`` is 1, and no loop
    over the product's digits is needed.
    """
    r, fact = _recip.reciprocal(a.digits)
    k = len(a.digits) + len(r) - 1 if to_integer(a.digits) != 1 else 0
    return AnchoredNumber(r, -a.exponent - k), fact


def sqrt_anchored(a: AnchoredNumber) -> AnchoredNumber:
    """Square root exact at the anchored value, not just on digits.

    9e1 (five hundred forty) has no root even though 9 does: the parity
    of the whole exponent has to cooperate.
    """
    e = a.exponent
    scaled = to_integer(a.digits) * BASE ** (e % 2)
    r = isqrt(scaled)
    if r * r != scaled:
        raise NotASquare(f"{_clip(str(a))} is not a perfect square at its anchor")
    return _from_scaled_integer(r, e // 2)


class Configuration(NamedTuple):
    """A named anchor assignment for a procedure's given numbers."""

    name: str
    exponents: Mapping[str, int]

    def exponent_for(self, given_name: str) -> int:
        try:
            return self.exponents[given_name]
        except KeyError:
            raise KeyError(
                f"configuration {self.name!r} does not anchor {given_name!r}"
            ) from None
