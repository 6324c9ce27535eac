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

A :class:`FloatingNumber` holds both sides of the bridge in two slots,
``_digits`` and ``_int``, so neither is ever recomputed.  There are three
ways to build one.  The public constructor takes digits from outside:
it validates each one, then :func:`_fold` strips the zeros at both ends
and folds the representative.  :func:`from_integer` takes a
representative: it strips the factors of 60, converts to digits and
fills the two slots directly, since digits made that way are in range by
construction.  A representative below 60**3, as nearly every entry of
the curriculum tables is, is split by one or two ``divmod`` calls with
no list and no group loop.  :func:`mul` and everything built on it go
through :func:`from_integer`.  :func:`mesomath.textio.parse_spvn` takes a token
whose regular expression has already bounded every part to 0..59, reads
the parts' values and fills the two slots from :func:`_fold`, with no
second check.

Both directions work five digits at a time, so a long integer is divided
or multiplied once per group rather than once per digit.  60**5 is below
2**30, a single CPython digit, so each group costs one division by a
one-limb divisor; :func:`from_integer` splits the group with two small
divisions by 3600 and reads each pair of digits out of a table.
"""

from __future__ import annotations

import enum
from operator import index
from typing import Iterable

from .errors import AllZero, DigitOutOfRange, NonPositive, ProductTooLong

BASE = 60
#: Digits per group in both directions of the bridge, and 60 to that power.
_GROUP = 5
_CHUNK = BASE**_GROUP
#: Representatives below this hold at most three digits, which
#: :func:`from_integer` reads off with at most two divisions.
_SHORT = BASE**3
#: (last digit, digit before it) of every integer below 3600, built from
#: bytes so importing costs no Python-level loop.
_PAIRS = tuple(
    zip(bytes(range(BASE)) * BASE, b"".join(bytes((h,)) * BASE for h in range(BASE)))
)
#: The printed form of each digit, so that ``str`` runs no ``str(d)``.
_SHOWN = tuple(map(str, range(BASE)))


class FloatingNumber:
    """A normalized base-60 digit sequence and its canonical integer.

    ``_digits`` holds the digits, most significant first; ``_int`` holds
    the canonical representative (last digit at 60**0).  Construction
    normalizes: leading and trailing zero digits are stripped (they
    carry no floating meaning), interior zeros are kept.  Every digit
    must be an integer in 0..59; a float, a string or any other value
    that is not an integer raises :class:`DigitOutOfRange`, since
    nothing here rounds.  A sequence with no nonzero digit raises
    :class:`AllZero`.  :func:`from_integer` builds the same value from a
    representative without going through this constructor.
    """

    __slots__ = ("_digits", "_int")

    def __init__(self, digits: Iterable[int]):
        ds = []
        for d in digits:
            try:
                d = index(d)
            except TypeError:
                raise DigitOutOfRange(f"digit {d!r} is not an integer") from None
            if not 0 <= d < BASE:
                raise DigitOutOfRange(f"digit {d} outside 0..59")
            ds.append(d)
        self._digits, self._int = _fold(ds)

    @property
    def digits(self) -> tuple[int, ...]:
        return self._digits

    def __len__(self) -> int:
        return len(self._digits)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FloatingNumber):
            return NotImplemented
        return self._int == other._int

    def __hash__(self) -> int:
        return hash(self._int)

    def __mul__(self, other: "FloatingNumber") -> "FloatingNumber":
        return mul(self, other)

    def __str__(self) -> str:
        ds = self._digits
        if len(ds) == 1:
            return _SHOWN[ds[0]]
        return ":".join([_SHOWN[d] for d in ds])

    def __repr__(self) -> str:
        return f"FloatingNumber({str(self)!r})"


def _fold(ds: list[int]) -> tuple[tuple[int, ...], int]:
    """The digits ``ds``, all in 0..59, normalized, and their representative.

    The zeros at both ends are stripped; a list with no nonzero digit
    raises :class:`AllZero`.  The first group holds one to five digits
    and every later group five, so the whole integer is multiplied once
    per group, never once per digit.
    """
    if not (ds and ds[0] and ds[-1]):
        end = len(ds)
        while end and not ds[end - 1]:
            end -= 1
        if not end:
            raise AllZero("a digit sequence must contain a nonzero digit")
        start = 0
        while not ds[start]:
            start += 1
        ds = ds[start:end]
    v = 0
    n = len(ds)
    if n <= _GROUP:
        for d in ds:
            v = v * BASE + d
        return tuple(ds), v
    k = n % _GROUP or _GROUP
    for d in ds[:k]:
        v = v * BASE + d
    for i in range(k, n, _GROUP):
        a, b, c, d, e = ds[i : i + _GROUP]
        c = (((a * BASE + b) * BASE + c) * BASE + d) * BASE + e
        v = v * _CHUNK + c
    return tuple(ds), v


class SimplerOrdering(enum.Enum):
    """Outcome of the "smaller in the productive sense" comparison."""

    SIMPLER = -1
    EQUAL = 0
    LESS_SIMPLE = 1


def to_integer(a: FloatingNumber) -> int:
    """Canonical integer representative, last digit at 60**0."""
    return a._int


def from_integer(v: int) -> FloatingNumber:
    """Floating number whose class contains the positive integer ``v``.

    Factors of 60 are stripped first, so 60 and 3600 both come back as
    "1"; the result always has a nonzero last digit.  A ``v`` that is
    not an integer raises :class:`TypeError` rather than being truncated.
    A representative below 60**3 is split into its one to three digits
    directly.  A longer one's digits come out least significant first:
    five per division of the whole integer, then the at most five of its
    top group.
    """
    v = index(v)
    if v <= 0:
        raise NonPositive(f"no floating number for {v}")
    while v % BASE == 0:
        v //= BASE
    a = object.__new__(FloatingNumber)
    a._int = v
    # Trusted construction: digits made by divmod are in range and the
    # last one is nonzero, so the validating constructor is skipped.
    if v < _SHORT:
        if v < BASE:
            a._digits = (v,)
        elif v < 3600:
            a._digits = divmod(v, BASE)
        else:
            q, r = divmod(v, 3600)
            a._digits = (q, *divmod(r, BASE))
        return a
    ds = []
    w = v
    while w >= _CHUNK:
        w, c = divmod(w, _CHUNK)
        c, r = divmod(c, 3600)
        ds += _PAIRS[r]
        c, r = divmod(c, 3600)
        ds += _PAIRS[r]
        ds.append(c)
    while w >= 3600:
        w, r = divmod(w, 3600)
        ds += _PAIRS[r]
    ds += _PAIRS[w]
    if not ds[-1]:
        ds.pop()
    ds.reverse()
    a._digits = tuple(ds)
    return a


def mul(a: FloatingNumber, b: FloatingNumber) -> FloatingNumber:
    """Floating product: exact on representatives, then renormalized.

    The digits of the result do not depend on where either operand's
    units position might have been, which is what makes the operation
    meaningful on equivalence classes at all.
    """
    return from_integer(a._int * b._int)


def square(a: FloatingNumber) -> FloatingNumber:
    return mul(a, a)


#: Most digits that the operands of one product may hold together.  A
#: product is about as long as its operands together, so a chain of
#: squarings doubles a number's length at every line; the bound stops
#: such a chain while its integers are still quick to convert, far above
#: any attested computation.  A reciprocal is bounded too: its peel
#: divides and multiplies integers as long as its operand.
MAX_PRODUCT_DIGITS = 10_000
#: op -> how often each operand enters the product the op builds;
#: divrecip's operands are the dividend and the divisor, and recip's one
#: operand counts once.
_PRODUCT_OPS = {"mul": 1, "square": 2, "divrecip": 1, "recip": 1}


def check_product(op: str, *operands: FloatingNumber) -> None:
    """Refuse ``op`` when its operands exceed MAX_PRODUCT_DIGITS together.

    Raises :class:`ProductTooLong` before any product is built.  An op
    that builds no product, such as ``sqrt`` or ``add``, is never refused.
    """
    weight = _PRODUCT_OPS.get(op)
    if weight:
        total = 0
        for x in operands:
            total += len(x._digits)
        total *= weight
        if total > MAX_PRODUCT_DIGITS:
            raise ProductTooLong(
                f"operands of {op} hold {total} digits together,"
                f" more than {MAX_PRODUCT_DIGITS}"
            )


def compare_simpler(a: FloatingNumber, b: FloatingNumber) -> SimplerOrdering:
    """Three-way comparison: fewer digits wins, then smaller representative.

    40 is simpler than 4:26:40 (fewer digits) and simpler than 50 (same
    count, smaller value).  This is a total order on normalized values.
    """
    ka, kb = (len(a), a._int), (len(b), b._int)
    return SimplerOrdering((ka > kb) - (ka < kb))


ONE = FloatingNumber((1,))
