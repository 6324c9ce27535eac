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
from math import isqrt, prod
from typing import NamedTuple

import mesomath as _pkg

from .errors import Irregular, LoopMismatch, NoProgress, NotACube, NotASquare, _clip
from .spvn import (
    ONE,
    BASE,
    FloatingNumber,
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
    value, its reciprocal and that reciprocal's representative, and lists
    every known value but 1 as a row ``(t, m, M)``: its representative
    ``t``, ``m = 60**(len - 1)`` and ``M = 60**len``, largest ``t``
    first.  Representatives are distinct (the integer bridge is a
    bijection), so that order is exactly the order of sorting the values
    by :func:`to_integer`.

    A second, 60-entry index narrows the wedge-suffix search by the last
    digit ``d`` of the number being peeled.  Entry ``d`` keeps, in the
    same order, only the rows that can be read at the end of such a
    number: those of several digits whose own last digit is ``d``, and
    the one-digit values at most ``d`` (readable inside that digit).

    Last, construction finds the peel's window: the least ``60**k`` that
    every known value divides, with ``k`` at least the length of the
    longest value (4 for the standard table, since 44:26:40 is
    2**8 * 5**4).  Every known value is below it, and every ``t``, ``m``
    and ``M`` divides it, so :func:`reciprocal` reads a quotient only
    through its residue modulo the window.
    """

    __slots__ = ("_pairs", "_by_rep", "_divisors", "_wedge_by_last", "_window")

    def __init__(self, pairs):
        pairs = tuple((e, r) for e, r in pairs)
        by_rep: dict[int, tuple[FloatingNumber, FloatingNumber, int]] = {}
        for entry, rec in pairs:
            if mul(entry, rec) != ONE:
                raise ValueError(f"{entry} and {rec} are not a reciprocal pair")
            te, tr = to_integer(entry), to_integer(rec)
            by_rep.setdefault(te, (entry, rec, tr))
            by_rep.setdefault(tr, (rec, entry, te))
        self._pairs = pairs
        self._by_rep = by_rep
        self._divisors = tuple(
            (t, BASE ** (len(v) - 1), BASE ** len(v))
            for t, (v, _, _) in sorted(by_rep.items(), reverse=True)
            if t > 1
        )
        self._wedge_by_last = tuple(
            tuple(
                e
                for e in self._divisors
                if (e[0] <= d if e[1] == 1 else e[0] % BASE == d)
            )
            for d in range(BASE)
        )
        k = max((len(v) for v, _, _ in by_rep.values()), default=1)
        while any(BASE**k % t for t in by_rep):
            k += 1
        self._window = BASE**k

    @property
    def pairs(self) -> tuple[tuple[FloatingNumber, FloatingNumber], ...]:
        return self._pairs

    def __contains__(self, n: FloatingNumber) -> bool:
        return isinstance(n, FloatingNumber) and to_integer(n) in self._by_rep

    def __len__(self) -> int:
        return len(self._pairs)


class FactorStrategy(enum.Enum):
    """How to choose the next trailing part among the exact divisors."""

    WEDGE_SUFFIX_LONGEST = "wedge"
    ANY_DIVISOR_LARGEST = "largest"


class Factorization(NamedTuple):
    """Record of one extraction: the peeled factors, their reciprocals, the answer.

    ``factors`` multiply (as floating numbers) back to ``source``; every
    factor but the last was chosen as a trailing part of the then-current
    quotient, and the last is the table lookup that ended the run.
    ``reciprocals`` holds each factor's reciprocal as the peel read it.
    """

    source: FloatingNumber
    factors: tuple[FloatingNumber, ...]
    reciprocals: tuple[FloatingNumber, ...]
    reciprocal: FloatingNumber

    def quotients(self) -> tuple[FloatingNumber, ...]:
        """The left-hand column: the number, then each successive quotient.

        The last quotient is the table value that ended the peel, so the
        column ends on the last factor, converted no second time.
        """
        out = [self.source]
        cur = to_integer(self.source)
        for f in self.factors[:-2]:
            cur //= to_integer(f)
            out.append(from_integer(cur))
        if len(self.factors) > 1:
            out.append(self.factors[-1])
        return tuple(out)


def _is_regular_rep(v: int) -> bool:
    """Is the positive integer ``v`` 5-smooth?

    ``v = 2**a * 3**b * 5**c`` has every exponent below its bit length,
    so it divides ``30**v.bit_length()``; an irregular ``v`` keeps a
    prime that no power of 30 holds.  One modular power decides it.
    """
    return pow(30, v.bit_length(), v) == 0


def is_regular(n: FloatingNumber) -> bool:
    """True when the only prime factors are 2, 3 and 5.

    Exactly these numbers have finite reciprocals in base 60; the others
    were labelled "igi nu", without reciprocal.  The test is that the
    representative divides a power of 30, one call to ``pow``.
    """
    return _is_regular_rep(to_integer(n))


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
    40, 16, 16, 16 run of the long exercises).  Regularity is checked
    first, with the single ``pow`` of :func:`is_regular`.

    The whole choice is made in this one loop, on ``s``, the quotient
    modulo the table's window.  A row ``(t, m, M)`` qualifies when ``t``
    divides the quotient, and is a wedge suffix of it when also
    ``s % m == t % m`` (the digits after ``t``'s first match the
    quotient's last ones) and ``s % M >= t``: given that match, the
    latter says the quotient's digit under ``t``'s leading digit is at
    least that digit, and since ``t >= m`` it implies that the quotient
    has as many digits as ``t``.  Wedge suffixes are looked for only in
    the rows that the last-digit index lists for ``s``'s last digit;
    they keep the index order and hold every possible suffix, so the
    first hit there is the first hit of a full scan.  Each of ``t``,
    ``m`` and ``M`` divides the window, so the residue answers every
    test as the whole quotient would.  Every known value is below the
    window, so a longer quotient goes on peeling without a lookup.
    """
    if table is None:
        # tables imports this module: the package loads it on first use
        table = _pkg.tables.gen_reciprocal_table()
    v = to_integer(n)
    if not _is_regular_rep(v):
        raise Irregular(f"{_clip(str(n))} is without reciprocal")
    # Exact division never introduces a factor of 60, so every quotient
    # is already a canonical representative and indexes the table as is.
    # Each peeled entry is (factor, its reciprocal, that reciprocal's rep).
    by_rep = table._by_rep
    window = table._window
    divisors = table._divisors
    wedge = (
        table._wedge_by_last
        if strategy is FactorStrategy.WEDGE_SUFFIX_LONGEST
        else ((),) * BASE
    )
    peeled = []
    while v >= window or v not in by_rep:
        s = v % window
        for t, m, M in wedge[s % BASE]:
            if not s % t and s % m == t % m and s % M >= t:
                break
        else:
            for t, _, _ in divisors:
                if not s % t:
                    break
            else:
                raise NoProgress(f"no table factor divides {_clip(str(from_integer(v)))}")
        peeled.append(by_rep[t])
        v //= t
    peeled.append(by_rep[v])
    factors, recips, reps = zip(*peeled)
    out = from_integer(prod(reps))
    return out, Factorization(n, factors, recips, out)


def reciprocal_loop(n: FloatingNumber) -> tuple[Factorization, Factorization]:
    """Invert, then invert the result: the loop must come back to ``n``.

    Both peels use the standard table and the wedge-suffix strategy.
    Returns both factorizations; ``back.reciprocal`` equals ``n``.
    Raises :class:`LoopMismatch` when it does not.
    """
    r, forward = reciprocal(n)
    back_value, back = reciprocal(r)
    if back_value != n:
        raise LoopMismatch(
            f"loop failed: {_clip(str(n))} -> {_clip(str(r))} -> {_clip(str(back_value))}"
        )
    return forward, back


def factor_reciprocals(fact: Factorization) -> tuple[FloatingNumber, ...]:
    """The right-hand column: the memorized reciprocal of each factor."""
    return fact.reciprocals


def running_products(fact: Factorization) -> tuple[FloatingNumber, ...]:
    """Cumulative products of the reciprocal column, bottom up.

    The exercises multiply from the last factor's reciprocal upward and
    write each partial product; the final one is the answer, so
    ``fact.reciprocal`` itself closes the column.
    """
    recs = fact.reciprocals
    out = []
    acc = recs[-1]
    for r in reversed(recs[1:-1]):
        acc = mul(acc, r)
        out.append(acc)
    out.append(fact.reciprocal)
    return tuple(out)


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
    raise NotASquare(f"{_clip(str(n))} has no exact square root")


def _icbrt(v: int) -> int:
    # Integer Newton seeded above the root: by AM-GM no step lands below
    # the root's floor, and every step from above it falls, so it stops there.
    r = 1 << -(-v.bit_length() // 3)
    while True:
        nr = (2 * r + v // (r * r)) // 3
        if nr >= r:
            return r
        r = nr


def cbrt(n: FloatingNumber) -> FloatingNumber:
    """Exact floating cube root, by the same representative analysis."""
    v = to_integer(n)
    for scaled in (v, v * BASE, v * BASE * BASE):
        r = _icbrt(scaled)
        if r**3 == scaled:
            return from_integer(r)
    raise NotACube(f"{_clip(str(n))} has no exact cube root")
