"""Regularity, trailing-part factorization, reciprocals, and exact roots.

The reciprocal of a regular number is found the way the school exercises
show it: peel off a factor that is visible in (or at least divides) the
tail of the number, divide it out, and repeat until the quotient is a
number whose reciprocal is known by heart; the answer is the product of
the memorized reciprocals of the peeled factors.

The memorized table is a list of reciprocal *pairs* and is read in both
directions: 6:40 is a usable factor because the table says the
reciprocal of 9 is 6:40, even though 6:40 heads no row of its own.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from math import isqrt
from typing import NamedTuple

from .errors import Irregular, LoopMismatch, NoProgress, NotACube, NotASquare
from .spvn import (
    ONE,
    BASE,
    FloatingNumber,
    SimplerOrdering,
    compare_simpler,
    from_integer,
    mul,
    to_integer,
)


class ElementaryTable:
    """An immutable list of reciprocal pairs, consultable both ways.

    Every number appearing on either side counts as "known": it can
    terminate a factorization and can serve as a peeled factor.

    Construction also builds the index that :func:`reciprocal` peels
    over, so no factorization converts or sorts the table again.  It
    maps each known value's canonical integer representative to the
    value and the representative of its reciprocal, and lists every
    known value except 1 as ``(representative, 60**(len - 1), value)``,
    largest representative first.  Representatives are distinct (the
    integer bridge is a bijection), so that order is exactly the order
    of sorting the values by :func:`to_integer`.
    """

    __slots__ = ("_pairs", "_recip_of", "_by_rep", "_divisors")

    def __init__(self, pairs):
        pairs = tuple((e, r) for e, r in pairs)
        recip_of: dict[FloatingNumber, FloatingNumber] = {}
        for entry, rec in pairs:
            if mul(entry, rec) != ONE:
                raise ValueError(f"{entry} and {rec} are not a reciprocal pair")
            recip_of.setdefault(entry, rec)
            recip_of.setdefault(rec, entry)
        self._pairs = pairs
        self._recip_of = recip_of
        self._by_rep = {to_integer(v): (v, to_integer(r)) for v, r in recip_of.items()}
        self._divisors = tuple(
            (t, BASE ** (len(v) - 1), v)
            for t, (v, _) in sorted(self._by_rep.items(), reverse=True)
            if t > 1
        )

    @property
    def pairs(self) -> tuple[tuple[FloatingNumber, FloatingNumber], ...]:
        return self._pairs

    def known_values(self) -> tuple[FloatingNumber, ...]:
        """Every number on either side, ascending by representative."""
        return tuple(self._by_rep[t][0] for t in sorted(self._by_rep))

    def __contains__(self, n: FloatingNumber) -> bool:
        return n in self._recip_of

    def __len__(self) -> int:
        return len(self._pairs)

    def reciprocal_of(self, n: FloatingNumber) -> FloatingNumber:
        try:
            return self._recip_of[n]
        except KeyError:
            raise KeyError(f"{n} is not in the table") from None


@cache
def _standard_table() -> ElementaryTable:
    # tables imports this module, so it is imported here, on first use;
    # the table is built then too, never while importing.
    from .tables import gen_reciprocal_table

    return gen_reciprocal_table()


class FactorStrategy(enum.Enum):
    """How to choose the next trailing part among the exact divisors."""

    WEDGE_SUFFIX_LONGEST = "wedge"
    ANY_DIVISOR_LARGEST = "largest"


class TrailingCandidate(NamedTuple):
    factor: FloatingNumber
    wedge_suffix: bool


@dataclass(frozen=True)
class Factorization:
    """Record of one extraction: peeled factors, their product, the answer.

    ``factors`` multiply (as floating numbers) back to ``source``; every
    factor but the last was chosen as a trailing part of the then-current
    quotient, and the last is the table lookup that ended the run.
    """

    source: FloatingNumber
    factors: tuple[FloatingNumber, ...]
    reciprocal: FloatingNumber

    def quotients(self) -> tuple[FloatingNumber, ...]:
        """The left-hand column: the number, then each successive quotient."""
        out = [self.source]
        cur = to_integer(self.source)
        for f in self.factors[:-1]:
            cur //= to_integer(f)
            out.append(from_integer(cur))
        return tuple(out)

    def product(self) -> FloatingNumber:
        acc = ONE
        for f in self.factors:
            acc = mul(acc, f)
        return acc


def regular_exponents(v: int) -> tuple[int, int, int] | None:
    """(a, b, c) with v = 2**a * 3**b * 5**c, or None if v is irregular."""
    out = []
    for p in (2, 3, 5):
        k = 0
        while v % p == 0:
            v //= p
            k += 1
        out.append(k)
    if v != 1:
        return None
    return tuple(out)


def is_regular(n: FloatingNumber) -> bool:
    """True when the only prime factors are 2, 3 and 5.

    Exactly these numbers have finite reciprocals in base 60; the others
    were labelled "igi nu", without reciprocal.
    """
    return regular_exponents(to_integer(n)) is not None


def is_wedge_suffix(t: FloatingNumber, n: FloatingNumber) -> bool:
    """Can ``t`` be read in the final wedge groups of ``n``?

    All digits of ``t`` but the first must equal the final digits of
    ``n``, and ``t``'s leading digit must be at most the digit of ``n``
    in that position: 6:40 is visible at the end of 4:26:40 because the
    6 can be read inside the 26.
    """
    td, nd = t.digits, n.digits
    if len(td) > len(nd):
        return False
    k = len(td)
    return td[1:] == nd[len(nd) - k + 1 :] and td[0] <= nd[len(nd) - k]


def _is_wedge_suffix_rep(t: int, m: int, v: int) -> bool:
    """:func:`is_wedge_suffix` on representatives, with ``m = 60**(len(t) - 1)``.

    ``v >= m`` says ``n`` has at least as many digits as ``t``; the
    remainders mod ``m`` are the digits after ``t``'s first; and
    ``v // m % 60`` is the digit of ``n`` under that first digit, ``t // m``.
    """
    return v >= m and v % m == t % m and v // m % BASE >= t // m


def trailing_candidates(
    n: FloatingNumber, table: ElementaryTable | None = None
) -> tuple[TrailingCandidate, ...]:
    """Table values that divide ``n`` exactly, flagged as wedge-suffixes.

    Division is exact division of canonical representatives; the trivial
    factor 1 is excluded since it makes no progress.  Candidates come
    back largest first, in the order of the table's index, which is
    already sorted by representative.
    """
    if table is None:
        table = _standard_table()
    v = to_integer(n)
    return tuple(
        TrailingCandidate(f, _is_wedge_suffix_rep(t, m, v))
        for t, m, f in table._divisors
        if v % t == 0
    )


def _pick_divisor(
    v: int, table: ElementaryTable, strategy: FactorStrategy
) -> tuple[int, int, FloatingNumber] | None:
    """The index entry to peel from representative ``v``, or None.

    The same choice as reading :func:`trailing_candidates` largest
    first: the first wedge suffix, else the largest exact divisor.
    """
    wedge = strategy is FactorStrategy.WEDGE_SUFFIX_LONGEST
    largest = None
    for d in table._divisors:
        t, m, _ = d
        if v % t:
            continue
        if not wedge or _is_wedge_suffix_rep(t, m, v):
            return d
        if largest is None:
            largest = d
    return largest


def reciprocal(
    n: FloatingNumber,
    strategy: FactorStrategy = FactorStrategy.WEDGE_SUFFIX_LONGEST,
    table: ElementaryTable | None = None,
) -> tuple[FloatingNumber, Factorization]:
    """Reciprocal of a regular number, with the factorization that found it.

    Peels trailing parts until the quotient is in the table, then
    multiplies the memorized reciprocals of everything peeled.  The
    default strategy takes the largest factor readable as a wedge
    suffix, falling back to the largest exact divisor; this reproduces
    the school choices (6:40 out of 4:26:40, then 40; and the 6:40,
    40, 16, 16, 16 run of the long exercises).
    """
    if table is None:
        table = _standard_table()
    v = to_integer(n)
    if regular_exponents(v) is None:
        raise Irregular(f"{n} is without reciprocal")
    # Exact division never introduces a factor of 60, so every quotient
    # is already a canonical representative and indexes the table as is.
    by_rep = table._by_rep
    factors: list[FloatingNumber] = []
    acc = 1
    while v not in by_rep:
        d = _pick_divisor(v, table, strategy)
        if d is None:
            raise NoProgress(f"no table factor divides {from_integer(v)}")
        t, _, f = d
        factors.append(f)
        acc *= by_rep[t][1]
        v //= t
    f, r = by_rep[v]
    factors.append(f)
    out = from_integer(acc * r)
    return out, Factorization(source=n, factors=tuple(factors), reciprocal=out)


def reciprocal_loop(
    n: FloatingNumber,
    strategy: FactorStrategy = FactorStrategy.WEDGE_SUFFIX_LONGEST,
    table: ElementaryTable | None = None,
) -> tuple[Factorization, Factorization]:
    """Invert, then invert the result: the loop must come back to ``n``.

    Returns both factorizations; ``back.reciprocal`` equals ``n``.
    Raises :class:`LoopMismatch` when it does not.
    """
    r, forward = reciprocal(n, strategy, table)
    back_value, back = reciprocal(r, strategy, table)
    if back_value != n:
        raise LoopMismatch(f"loop failed: {n} -> {r} -> {back_value}")
    return forward, back


def factor_reciprocals(
    fact: Factorization, table: ElementaryTable | None = None
) -> tuple[FloatingNumber, ...]:
    """The right-hand column: the memorized reciprocal of each factor."""
    if table is None:
        table = _standard_table()
    return tuple(table.reciprocal_of(f) for f in fact.factors)


def running_products(
    fact: Factorization, table: ElementaryTable | None = None
) -> tuple[FloatingNumber, ...]:
    """Cumulative products of the reciprocal column, bottom up.

    The exercises multiply from the last factor's reciprocal upward and
    write each partial product; the final one is the answer.
    """
    recs = factor_reciprocals(fact, table)
    if len(recs) < 2:
        return recs
    out = []
    acc = recs[-1]
    for r in reversed(recs[:-1]):
        acc = mul(acc, r)
        out.append(acc)
    return tuple(out)


def divisible(a: FloatingNumber, b: FloatingNumber) -> bool:
    """Divisibility in the productive sense.

    Formally any number divides any other here (2 divided by 5 "gives
    24"); ``a`` counts as divisible by regular ``b`` only when
    multiplying by the reciprocal of ``b`` yields something simpler.
    """
    if not is_regular(b):
        raise Irregular(f"{b} is without reciprocal")
    r, _ = reciprocal(b)
    return compare_simpler(mul(a, r), a) is SimplerOrdering.SIMPLER


def sqrt(n: FloatingNumber) -> FloatingNumber:
    """Exact floating square root.

    A root exists when some representative V * 60**p is a perfect
    square; only one parity of p can work, so checking V and V * 60
    suffices.  For regular V = 2**a 3**b 5**c that is the condition
    "a even and b, c of equal parity".
    """
    v = to_integer(n)
    for scaled in (v, v * BASE):
        r = isqrt(scaled)
        if r * r == scaled:
            return from_integer(r)
    raise NotASquare(f"{n} has no exact square root")


def _icbrt(v: int) -> int:
    # Newton iteration seeded from the bit length; exact for any size.
    r = 1 << -(-v.bit_length() // 3)
    while True:
        nr = (2 * r + v // (r * r)) // 3
        if nr >= r:
            break
        r = nr
    while r**3 > v:
        r -= 1
    while (r + 1) ** 3 <= v:
        r += 1
    return r


def cbrt(n: FloatingNumber) -> FloatingNumber:
    """Exact floating cube root, by the same representative analysis."""
    v = to_integer(n)
    for scaled in (v, v * BASE, v * BASE * BASE):
        r = _icbrt(scaled)
        if r**3 == scaled:
            return from_integer(r)
    raise NotACube(f"{n} has no exact cube root")
