"""Reference answers for the benchmark, computed without mesomath.

Floating numbers are canonical positive integers: the last digit sits at
60**0 and the value is never divisible by 60.  Anchored values and
measurement magnitudes are exact ``Fraction``s.  The reciprocal table,
unit sizes, system bases and metrological ladders below are the
benchmark's own copies of the published tables, so a change to any of
mesomath's constants or factor choices shows up as a disagreement.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

BASE = 60


class Refusal(Exception):
    """The oracle predicts a typed refusal; ``kind`` names the error class."""

    def __init__(self, kind: str):
        super().__init__(kind)
        self.kind = kind


# --- floating numbers as canonical integers ----------------------------------


def canon(v: int) -> int:
    """Strip factors of sixty: the canonical representative of v's class."""
    if v <= 0:
        raise ValueError(f"no floating number for {v}")
    while v % BASE == 0:
        v //= BASE
    return v


def digits(v: int) -> tuple[int, ...]:
    """Base-60 digits of a positive integer, most significant first."""
    out = []
    while v:
        v, d = divmod(v, BASE)
        out.append(d)
    return tuple(reversed(out))


def from_digits(ds) -> int:
    v = 0
    for d in ds:
        v = v * BASE + d
    return v


def parse(text: str) -> int:
    """Canonical integer of a colon-separated digit string."""
    return canon(from_digits(int(p) for p in text.split(":")))


def show(v: int) -> str:
    return ":".join(str(d) for d in digits(v))


def regular(v: int) -> bool:
    for p in (2, 3, 5):
        while v % p == 0:
            v //= p
    return v == 1


# --- the wedge-suffix reciprocal rule over the 27 standard pairs --------------

STANDARD_PAIRS = tuple(
    (parse(e), parse(r))
    for e, r in (
        ("2", "30"), ("3", "20"), ("4", "15"), ("5", "12"), ("6", "10"),
        ("8", "7:30"), ("9", "6:40"), ("10", "6"), ("12", "5"), ("15", "4"),
        ("16", "3:45"), ("18", "3:20"), ("20", "3"), ("24", "2:30"),
        ("25", "2:24"), ("27", "2:13:20"), ("30", "2"), ("32", "1:52:30"),
        ("36", "1:40"), ("40", "1:30"), ("45", "1:20"), ("48", "1:15"),
        ("50", "1:12"), ("54", "1:6:40"), ("1", "1"), ("1:4", "56:15"),
        ("1:21", "44:26:40"),
    )
)

RECIP_OF: dict[int, int] = {}
for _e, _r in STANDARD_PAIRS:
    RECIP_OF.setdefault(_e, _r)
    RECIP_OF.setdefault(_r, _e)
_FACTORS_DESC = sorted((t for t in RECIP_OF if t > 1), reverse=True)


def wedge_suffix(t: int, n: int) -> bool:
    """t readable in n's final wedge groups: equal tail digits, t's lead not larger."""
    td, nd = digits(t), digits(n)
    k = len(td)
    if k > len(nd):
        return False
    return td[1:] == nd[len(nd) - k + 1 :] and td[0] <= nd[len(nd) - k]


def reciprocal(n: int) -> tuple[int, tuple[int, ...]]:
    """(reciprocal, factors) by the school rule.

    Peel the largest table value that divides the quotient and is a
    wedge suffix of it, else the largest that divides it, until the
    quotient is in the table; the last factor is that table entry.
    """
    if not regular(n):
        raise Refusal("Irregular")
    factors = []
    cur = n
    while cur not in RECIP_OF:
        cands = [t for t in _FACTORS_DESC if cur % t == 0]
        pick = next((t for t in cands if wedge_suffix(t, cur)), cands[0])
        factors.append(pick)
        cur = canon(cur // pick)
    factors.append(cur)
    r = 1
    for f in factors:
        r = canon(r * RECIP_OF[f])
    return r, tuple(factors)


def quotients(n: int, factors: tuple[int, ...]) -> tuple[int, ...]:
    out = [n]
    cur = n
    for f in factors[:-1]:
        cur = canon(cur // f)
        out.append(cur)
    return tuple(out)


def factor_reciprocals(factors: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(RECIP_OF[f] for f in factors)


def running_products(factors: tuple[int, ...]) -> tuple[int, ...]:
    recs = factor_reciprocals(factors)
    if len(recs) < 2:
        return recs
    out = []
    acc = recs[-1]
    for r in reversed(recs[:-1]):
        acc = canon(acc * r)
        out.append(acc)
    return tuple(out)


def is_power_of_sixty(v: int) -> bool:
    while v % BASE == 0:
        v //= BASE
    return v == 1


# --- anchored values as Fractions --------------------------------------------


def split(q: Fraction) -> tuple[int, int]:
    """(V, e) with q == V * 60**e and V canonical."""
    if q <= 0 or not regular(q.denominator):
        raise ValueError(f"{q} has no finite base-sixty form")
    e = 0
    while q.denominator != 1:
        q *= BASE
        e -= 1
    v = q.numerator
    while v % BASE == 0:
        v //= BASE
        e += 1
    return v, e


def anchored(v: int, e: int) -> Fraction:
    return Fraction(v) * Fraction(BASE) ** e


def show_anchored(q: Fraction) -> str:
    v, e = split(q)
    return f"{show(v)}e{e}"


def exact_sqrt(q: Fraction) -> Fraction | None:
    """Rational square root when it exists, else None."""
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


# --- metrology -----------------------------------------------------------------

_F = Fraction
KUSH_STYLE = (_F(5, 6), _F(2, 3), _F(1, 2), _F(1, 3))
ALL_FRACTIONS = (_F(5, 6), _F(2, 3), _F(1, 2), _F(1, 3), _F(1, 4), _F(1, 6))
SIXTH = _F(1, 6)

# (name, size in smallest units, fractions a canonical spelling may use)
_LENGTH = (
    ("danna", 648000, ()),
    ("uš", 21600, ()),
    ("ninda", 360, (_F(1, 2),)),
    ("kuš", 30, KUSH_STYLE),
    ("šu-si", 1, ALL_FRACTIONS),
)
_WEIGHT = (
    ("gu", 648000, ()),
    ("ma-na", 10800, KUSH_STYLE),
    ("gin", 180, ALL_FRACTIONS),
    ("še", 1, ALL_FRACTIONS),
)
_SURFACE = (
    ("bur", 19440000, ()),
    ("eše", 6480000, ()),
    ("gan", 1080000, ()),
    ("sar", 10800, KUSH_STYLE),
    ("gin", 180, ALL_FRACTIONS),
    ("še", 1, ALL_FRACTIONS),
)
_CAPACITY = (
    ("gur", 300, ()),
    ("bariga", 60, ()),
    ("ban", 10, ()),
    ("sila", 1, ALL_FRACTIONS),
)

#: system -> (units, number of one smallest unit, anchor offset)
SYSTEMS = {
    "L": (_LENGTH, _F(10), -2),
    "Lh": (_LENGTH, _F(1, 30), 0),
    "W": (_WEIGHT, _F(20), -2),
    "S": (_SURFACE, _F(20), -3),
    "C": (_CAPACITY, _F(1), 0),
}

ASCII = {"uš": "ush", "kuš": "kush", "šu-si": "shu-si", "še": "she", "eše": "eshe"}


def unit_size(system: str, name: str) -> int:
    for n, size, _ in SYSTEMS[system][0]:
        if n == name:
            return size
    raise KeyError(name)


def magnitude(system: str, terms) -> Fraction:
    """Exact value in smallest units."""
    return sum((unit_size(system, u) * (w + f) for u, w, f in terms), Fraction(0))


def number_of(system: str, terms) -> int:
    """The table read left to right: canonical digits of a measurement."""
    v, _ = split(magnitude(system, terms) * SYSTEMS[system][1])
    return v


def spell(system: str, q: Fraction):
    """Canonical spelling: largest unit first, largest usable fraction at
    each rung, taken only if the remainder can still be spelled."""
    units = SYSTEMS[system][0]

    def walk(i, rem):
        if rem == 0:
            return ()
        if i == len(units):
            return None
        name, size, fracs = units[i]
        s = rem / size
        whole = s.numerator // s.denominator
        for f in (*[f for f in fracs if f <= s - whole], Fraction(0)):
            take = whole + f
            if take == 0:
                return walk(i + 1, rem)
            rest = walk(i + 1, rem - take * size)
            if rest is not None:
                return ((name, whole, f),) + rest
        return None

    if q <= 0:
        return None
    return walk(0, q)


def text(terms, ascii: bool = False) -> str:
    """Measurement text as mesomath prints it (or with ASCII unit names)."""
    out = []
    for u, w, f in terms:
        bits = [str(w)] if w else []
        if f:
            bits.append(f"{f.numerator}/{f.denominator}")
        bits.append(ASCII.get(u, u) if ascii else u)
        out.append(" ".join(bits))
    return " ".join(out)


def cycle_value(system: str, v: int, k: int) -> Fraction:
    """Magnitude in smallest units of digits v placed at 60**k."""
    return Fraction(v) * Fraction(BASE) ** k / SYSTEMS[system][1]


def window_readings(system: str, v: int, lo: Fraction, hi: Fraction) -> list:
    """Every spelled reading of digits v with magnitude in [lo, hi]."""
    k = 0
    while cycle_value(system, v, k) > lo:
        k -= 1
    out = []
    while cycle_value(system, v, k) <= hi:
        q = cycle_value(system, v, k)
        if q >= lo:
            m = spell(system, q)
            if m is not None:
                out.append(m)
        k += 1
    return out


def from_window(system: str, v: int, lo: Fraction, hi: Fraction):
    found = window_readings(system, v, lo, hi)
    if not found:
        raise Refusal("NoReading")
    if len(found) > 1:
        raise Refusal("AmbiguousReading")
    return found[0]


def from_anchor(system: str, v: int, exponent: int):
    _, base, offset = SYSTEMS[system]
    q = Fraction(v) * Fraction(BASE) ** exponent / (base * Fraction(BASE) ** offset)
    m = spell(system, q)
    if m is None:
        raise Refusal("NoReading")
    return m


def enumerate_readings(system: str, v: int, span: int) -> list:
    """Readings over ``span`` cycles from the first expressible one."""
    k = 0
    while cycle_value(system, v, k) >= SIXTH:
        k -= 1
    k += 1
    out = []
    first = None
    while first is None or k < first + span:
        m = spell(system, cycle_value(system, v, k))
        if m is not None:
            if first is None:
                first = k
            out.append(m)
        k += 1
    return out


# --- metrological ladders ------------------------------------------------------


def _rows(unit, wholes, fracs=(Fraction(0),), prefix=()):
    return [
        prefix + ((unit, w, f),) for w in wholes for f in fracs if w or f
    ]


_H = _F(1, 2)
_THIRDS = (_F(0), _F(1, 3), _H, _F(2, 3))
_UP = (_F(1, 6), _F(1, 4), _F(1, 3), _H, _F(2, 3), _F(5, 6))

_LENGTH_LADDER = (
    _rows("šu-si", range(1, 10))
    + _rows("kuš", [0], (_F(1, 3), _H, _F(2, 3), _F(5, 6)))
    + _rows("kuš", range(1, 6), _THIRDS)
    + _rows("ninda", [0], (_H,))
    + [r for k in range(1, 6) for r in _rows("kuš", [k], prefix=(("ninda", 0, _H),))]
    + _rows("ninda", range(1, 20), (_F(0), _H))
    + _rows("ninda", range(20, 60, 5))
    + _rows("uš", range(1, 20))
    + _rows("uš", (20, 25))
    + _rows("danna", range(1, 60))
)

LADDERS = {
    "L": _LENGTH_LADDER,
    "Lh": _LENGTH_LADDER,
    "W": (
        _rows("še", [0], (_H,))
        + _rows("še", range(1, 10), (_F(0), _H))
        + _rows("še", range(10, 30))
        + _rows("gin", [0], _UP)
        + _rows("gin", range(1, 20), _THIRDS)
        + _rows("ma-na", [0], (_F(1, 3), _H, _F(2, 3), _F(5, 6)))
        + _rows("ma-na", range(1, 20))
        + _rows("ma-na", range(20, 60, 5))
        + _rows("gu", range(1, 60))
    ),
    "S": (
        _rows("še", [0], (_H,))
        + _rows("še", range(1, 10), (_F(0), _H))
        + _rows("še", range(10, 30))
        + _rows("gin", [0], _UP)
        + _rows("gin", range(1, 20))
        + _rows("sar", [0], (_F(1, 3), _H, _F(2, 3), _F(5, 6)))
        + _rows("sar", range(1, 20), (_F(0), _H))
        + _rows("sar", range(20, 100, 5))
        + _rows("gan", range(1, 6))
        + _rows("eše", (1, 2))
        + _rows("bur", range(1, 60))
    ),
    "C": (
        _rows("sila", range(1, 10), (_F(0), _H))
        + _rows("ban", range(1, 6))
        + _rows("bariga", range(1, 5))
        + _rows("gur", range(1, 60))
    ),
}


def table_rows(system: str, start: Fraction, stop: Fraction) -> list:
    """Ladder rows from start to stop inclusive, with their numbers."""
    out = []
    for terms in LADDERS[system]:
        q = magnitude(system, terms)
        if q < start:
            continue
        if q > stop:
            break
        out.append((terms, number_of(system, terms)))
    return out


# --- the curriculum ------------------------------------------------------------

MULTIPLIERS = tuple(range(1, 21)) + (30, 40, 50)
HEADS = tuple(
    parse(h)
    for h in (
        "50", "45", "44:26:40", "40", "36", "30", "25", "24", "22:30", "20",
        "18", "16:40", "16", "15", "12:30", "12", "10", "9", "8:20", "8",
        "7:30", "7:12", "7", "6:40", "6", "5", "4:30", "4", "3:45", "3:20",
        "3", "2:30", "2:24", "2", "1:40", "1:30", "1:20", "1:15",
    )
)


def multiplication_rows(head: int) -> tuple[tuple[int, int], ...]:
    return tuple((m, canon(head * m)) for m in MULTIPLIERS)


def power_rows(p: int) -> tuple[tuple[int, int], ...]:
    """(n, canonical n**p) for n = 1..59."""
    return tuple((n, canon(n**p)) for n in range(1, 60))
