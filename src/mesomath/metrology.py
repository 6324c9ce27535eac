"""Unit systems, metrological tables, and measurement <-> number conversion.

Five tables: C (capacities), W (weights), S (surfaces, doubling for
volumes), L (lengths) and Lh (heights).  Each system fixes an exact
correspondence between measurement values and floating numbers; reading
the table left to right is :func:`to_number`, and reading it back
requires an order-of-magnitude hint, because the right-hand column
cycles: 1 šu-si and 2 kuš both answer to "10".

Heights use the same units as lengths but put 1 kuš at 1 instead of 5,
so that a surface number times a height number is directly a volume
number in table S.

All magnitudes are exact ``Fraction`` counts of the system's smallest
unit; nothing here rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import floor

from .errors import (
    AmbiguousReading,
    InexactFraction,
    MeasurementSyntax,
    NoReading,
    UnitOrderViolation,
    UnknownUnit,
)
from .recip import regular_exponents
from .spvn import BASE, FloatingNumber, from_integer, to_integer

_SIXTH = Fraction(1, 6)
_QUARTER = Fraction(1, 4)
_THIRD = Fraction(1, 3)
_HALF = Fraction(1, 2)
_TWO_THIRDS = Fraction(2, 3)
_FIVE_SIXTHS = Fraction(5, 6)

#: Fractions a measurement may carry, in any system.
ALLOWED_FRACTIONS = frozenset(
    (_SIXTH, _QUARTER, _THIRD, _HALF, _TWO_THIRDS, _FIVE_SIXTHS)
)

_ALL = (_FIVE_SIXTHS, _TWO_THIRDS, _HALF, _THIRD, _QUARTER, _SIXTH)
_KUSH_STYLE = (_FIVE_SIXTHS, _TWO_THIRDS, _HALF, _THIRD)


@dataclass(frozen=True)
class Unit:
    """One rung of a system's ladder.

    ``size`` is the exact multiple of the system's smallest unit;
    ``spelling_fractions`` are the fractions canonical spellings may use
    for this unit (largest first).  Parsing accepts the full allowed set
    on any unit; the subset only shapes what conversions emit, keeping
    generated rows on the attested spellings (5 šu-si, never 1/6 kuš).
    """

    name: str
    size: int
    spelling_fractions: tuple[Fraction, ...]
    aliases: tuple[str, ...] = ()

    def answers_to(self, token: str) -> bool:
        return token == self.name or token in self.aliases


@dataclass(frozen=True)
class UnitSystem:
    """Units in descending order plus the base correspondence.

    ``base`` is the abstract number of one smallest unit, as an exact
    fraction; every other correspondence follows from the ladder.
    ``anchor_offset`` fixes the conventional computing scale used by
    explicit-exponent hints: the power of sixty that places the
    customary unit (ninda, kuš, gin, sar, sila) at 1e0.
    """

    kind: str
    units: tuple[Unit, ...]
    base: Fraction
    anchor_offset: int = 0
    allowed_fractions: frozenset[Fraction] = ALLOWED_FRACTIONS

    @property
    def anchored_base(self) -> Fraction:
        return self.base * Fraction(BASE) ** self.anchor_offset

    def unit_named(self, token: str) -> Unit | None:
        for u in self.units:
            if u.answers_to(token):
                return u
        return None

    def unit(self, name: str) -> Unit:
        u = self.unit_named(name)
        if u is None:
            raise UnknownUnit(f"unknown unit {name!r} in system {self.kind}")
        return u

    @property
    def smallest(self) -> Unit:
        return self.units[-1]


@dataclass(frozen=True)
class Term:
    """count of a unit: a whole part plus an optional fraction."""

    unit: str
    whole: int
    frac: Fraction = Fraction(0)

    @property
    def count(self) -> Fraction:
        return self.whole + self.frac

    def __str__(self) -> str:
        bits = []
        if self.whole:
            bits.append(str(self.whole))
        if self.frac:
            bits.append(f"{self.frac.numerator}/{self.frac.denominator}")
        return " ".join(bits) + " " + self.unit


@dataclass(frozen=True)
class MeasurementValue:
    """A concrete quantity: ordered unit terms in one system.

    Units strictly descending, every count positive, fractions from the
    allowed set.  "1/2 kuš 3 šu-si" carries its fraction on the kuš
    term; "2 1/4 še" on its only term.
    """

    system: str
    terms: tuple[Term, ...]

    def __post_init__(self):
        sys = get_system(self.system)
        if not self.terms:
            raise UnitOrderViolation("a measurement needs at least one term")
        last_index = -1
        for t in self.terms:
            u = sys.unit(t.unit)
            idx = sys.units.index(u)
            if idx <= last_index:
                raise UnitOrderViolation(
                    f"units out of descending order at {t.unit!r}"
                )
            last_index = idx
            if t.whole < 0 or t.count <= 0:
                raise UnitOrderViolation(f"count of {t.unit!r} must be positive")
            if t.frac and t.frac not in sys.allowed_fractions:
                raise UnitOrderViolation(
                    f"fraction {t.frac} of {t.unit!r} not allowed"
                )

    def value(self) -> Fraction:
        """Exact magnitude in multiples of the system's smallest unit."""
        sys = get_system(self.system)
        return sum(
            (t.count * sys.unit(t.unit).size for t in self.terms), Fraction(0)
        )

    def __str__(self) -> str:
        return " ".join(str(t) for t in self.terms)


# --- the five standard systems ------------------------------------------------

_LENGTH_UNITS = (
    Unit("danna", 648000, ()),
    Unit("uš", 21600, (), aliases=("ush",)),
    Unit("ninda", 360, (_HALF,)),
    Unit("kuš", 30, _KUSH_STYLE, aliases=("kush",)),
    Unit("šu-si", 1, _ALL, aliases=("shu-si", "szu-si")),
)

_WEIGHT_UNITS = (
    Unit("gu", 648000, ()),
    Unit("ma-na", 10800, _KUSH_STYLE),
    Unit("gin", 180, _ALL),
    Unit("še", 1, _ALL, aliases=("she", "sze")),
)

_SURFACE_UNITS = (
    Unit("bur", 19440000, ()),
    Unit("eše", 6480000, (), aliases=("eshe",)),
    Unit("gan", 1080000, ()),
    Unit("sar", 10800, _KUSH_STYLE),
    Unit("gin", 180, _ALL),
    Unit("še", 1, _ALL, aliases=("she", "sze")),
)

_CAPACITY_UNITS = (
    Unit("gur", 300, ()),
    Unit("bariga", 60, ()),
    Unit("ban", 10, ()),
    Unit("sila", 1, _ALL),
)

SYSTEM_L = UnitSystem("L", _LENGTH_UNITS, Fraction(10), anchor_offset=-2)
SYSTEM_LH = UnitSystem("Lh", _LENGTH_UNITS, Fraction(1, 30))
SYSTEM_W = UnitSystem("W", _WEIGHT_UNITS, Fraction(20), anchor_offset=-2)
SYSTEM_S = UnitSystem("S", _SURFACE_UNITS, Fraction(20), anchor_offset=-3)
SYSTEM_C = UnitSystem("C", _CAPACITY_UNITS, Fraction(1))

SYSTEMS = {s.kind: s for s in (SYSTEM_L, SYSTEM_LH, SYSTEM_W, SYSTEM_S, SYSTEM_C)}


def get_system(kind: str) -> UnitSystem:
    try:
        return SYSTEMS[kind]
    except KeyError:
        raise UnknownUnit(f"unknown unit system {kind!r}") from None


# --- conversion ---------------------------------------------------------------

def floating_from_fraction(q: Fraction) -> FloatingNumber:
    """Floating number of an exact positive rational.

    Exists exactly when the denominator is 5-smooth: 2**a 3**b 5**c
    divides 60**k once k >= a/2, b and c.  Everything the allowed
    fractions can build qualifies.
    """
    if q <= 0:
        raise InexactFraction(f"no floating number for {q}")
    num, den = q.numerator, q.denominator
    exps = regular_exponents(den)
    if exps is None:
        raise InexactFraction(f"{q} is not exact in base sixty")
    a, b, c = exps
    k = max(-(-a // 2), b, c)
    return from_integer(num * BASE**k // den)


def to_number(m: MeasurementValue) -> FloatingNumber:
    """The table read left to right: exact correspondence of ``m``."""
    return floating_from_fraction(m.value() * get_system(m.system).base)


def _spell(system: UnitSystem, q: Fraction) -> MeasurementValue | None:
    """Canonical spelling of a magnitude, or None if not expressible.

    Greedy from the largest unit down, preferring the largest usable
    fraction at each rung, with backtracking so a fraction is only taken
    when the remainder can still be spelled by smaller units.
    """

    def walk(i: int, rem: Fraction) -> list[Term] | None:
        if rem == 0:
            return []
        if i == len(system.units):
            return None
        u = system.units[i]
        s = rem / u.size
        whole = floor(s)
        for f in (*[f for f in u.spelling_fractions if f <= s - whole], Fraction(0)):
            take = whole + f
            if take == 0:
                return walk(i + 1, rem)
            rest = walk(i + 1, rem - take * u.size)
            if rest is not None:
                return [Term(u.name, whole, f)] + rest
        return None

    if q <= 0:
        return None
    terms = walk(0, q)
    if terms is None:
        return None
    return MeasurementValue(system.kind, tuple(terms))


@dataclass(frozen=True)
class Window:
    """Inclusive measurement range a reverse reading must fall in."""

    lo: MeasurementValue
    hi: MeasurementValue

    def __post_init__(self):
        if self.lo.system != self.hi.system or self.lo.value() > self.hi.value():
            raise MeasurementSyntax("window bounds must be ordered, same system")

    def __str__(self) -> str:
        return f"{self.lo} .. {self.hi}"


@dataclass(frozen=True)
class AnchorHint:
    """Explicit power of sixty carried by the number's last digit."""

    exponent: int


def _readings(
    n: FloatingNumber, system: UnitSystem, lo: Fraction, hi: Fraction
) -> list[MeasurementValue]:
    v = to_integer(n)
    out = []
    k = 0
    while Fraction(v) * Fraction(BASE) ** k / system.base > lo:
        k -= 1
    while True:
        q = Fraction(v) * Fraction(BASE) ** k / system.base
        if q > hi:
            break
        if q >= lo:
            m = _spell(system, q)
            if m is not None:
                out.append(m)
        k += 1
    return out


def _require_system(system: UnitSystem, *bounds: MeasurementValue) -> None:
    """Bounds count magnitudes in their own smallest unit, so they must match."""
    for m in bounds:
        if m.system != system.kind:
            raise MeasurementSyntax(
                f"bound {m} is in system {m.system}, not {system.kind}"
            )


def from_number(
    n: FloatingNumber, system_kind: str, hint: Window | AnchorHint
) -> MeasurementValue:
    """The table read right to left, under an order-of-magnitude hint.

    There is deliberately no default magnitude: the right column cycles,
    and silently picking a cycle would hide exactly the judgement the
    reverse reading requires.
    """
    system = get_system(system_kind)
    if isinstance(hint, AnchorHint):
        q = (
            Fraction(to_integer(n))
            * Fraction(BASE) ** hint.exponent
            / system.anchored_base
        )
        m = _spell(system, q)
        if m is None:
            raise NoReading(f"{n} at e{hint.exponent} is not expressible in {system.kind}")
        return m
    _require_system(system, hint.lo)
    matches = _readings(n, system, hint.lo.value(), hint.hi.value())
    if not matches:
        raise NoReading(f"no reading of {n} in {system.kind} within {hint}")
    if len(matches) > 1:
        listing = "; ".join(str(m) for m in matches)
        raise AmbiguousReading(
            f"{len(matches)} readings of {n} in {system.kind} within {hint}: {listing}"
        )
    return matches[0]


def enumerate_readings(
    n: FloatingNumber, system_kind: str, span: int = 4
) -> tuple[MeasurementValue, ...]:
    """Readings of ``n`` over ``span`` consecutive cycles, ascending.

    Starts at the smallest cycle with an expressible reading; each
    reading maps back to the digits of ``n`` by construction.
    """
    if span < 1:
        raise MeasurementSyntax("span must be at least 1")
    system = get_system(system_kind)
    v = Fraction(to_integer(n))
    # Nothing smaller than a sixth of the smallest unit is expressible.
    k = 0
    while v * Fraction(BASE) ** k / system.base >= _SIXTH:
        k -= 1
    k += 1
    out: list[MeasurementValue] = []
    first_k: int | None = None
    while True:
        if first_k is not None and k >= first_k + span:
            break
        m = _spell(system, v * Fraction(BASE) ** k / system.base)
        if m is not None:
            if first_k is None:
                first_k = k
            out.append(m)
        k += 1
    return tuple(out)


# --- table generation -----------------------------------------------------------


_WHOLE = (Fraction(0),)
_WHOLE_AND_HALF = (Fraction(0), _HALF)
_KUSH_STEPS = (Fraction(0), _THIRD, _HALF, _TWO_THIRDS)

# A system's table as (unit, wholes, fractions) rows, ascending: each row
# stands for whole + fraction of the unit for every positive such count,
# spelled canonically.  Weights and surfaces share the small units.
_SHE_AND_GIN = (
    ("še", range(10), _WHOLE_AND_HALF),
    ("še", range(10, 30), _WHOLE),
    ("gin", (0,), sorted(_ALL)),
)
_LENGTH = (
    ("šu-si", range(1, 10), _WHOLE),
    ("kuš", (0,), sorted(_KUSH_STYLE)),
    ("kuš", range(1, 6), _KUSH_STEPS),
    ("kuš", range(6, 12), _WHOLE),  # 1/2 ninda, then 1/2 ninda 1..5 kuš
    ("ninda", range(1, 20), _WHOLE_AND_HALF),
    ("ninda", range(20, 60, 5), _WHOLE),
    ("uš", (*range(1, 21), 25), _WHOLE),
    ("danna", range(1, 60), _WHOLE),
)
_LADDERS = {
    "L": _LENGTH,
    "Lh": _LENGTH,
    "W": (
        *_SHE_AND_GIN,
        ("gin", range(1, 20), _KUSH_STEPS),
        ("ma-na", (0,), sorted(_KUSH_STYLE)),
        ("ma-na", (*range(1, 20), *range(20, 60, 5)), _WHOLE),
        ("gu", range(1, 60), _WHOLE),
    ),
    "S": (
        *_SHE_AND_GIN,
        ("gin", range(1, 20), _WHOLE),
        ("sar", (0,), sorted(_KUSH_STYLE)),
        ("sar", range(1, 20), _WHOLE_AND_HALF),
        ("sar", range(20, 100, 5), _WHOLE),
        ("gan", range(1, 6), _WHOLE),
        ("eše", (1, 2), _WHOLE),
        ("bur", range(1, 60), _WHOLE),
    ),
    "C": (
        ("sila", range(1, 10), _WHOLE_AND_HALF),
        ("ban", range(1, 6), _WHOLE),
        ("bariga", range(1, 5), _WHOLE),
        ("gur", range(1, 60), _WHOLE),
    ),
}


@cache
def _ladder(kind: str) -> tuple[tuple[Fraction, MeasurementValue, FloatingNumber], ...]:
    """The system's table rows as (magnitude, measurement, number), ascending."""
    system = get_system(kind)
    rows = []
    for name, wholes, fractions in _LADDERS[kind]:
        size = system.unit(name).size
        for whole in wholes:
            for f in fractions:
                q = size * (whole + f)
                if q > 0:
                    n = floating_from_fraction(q * system.base)
                    rows.append((q, _spell(system, q), n))
    return tuple(rows)


@dataclass(frozen=True)
class MetrologicalTable:
    system: str
    rows: tuple[tuple[MeasurementValue, FloatingNumber], ...]

    def __len__(self) -> int:
        return len(self.rows)


def gen_metrological_table(
    system_kind: str, start: MeasurementValue, stop: MeasurementValue
) -> MetrologicalTable:
    """The canonical rows between ``start`` and ``stop`` inclusive."""
    system = get_system(system_kind)
    _require_system(system, start, stop)
    lo, hi = start.value(), stop.value()
    if hi < lo:
        raise MeasurementSyntax("empty range: stop is below start")
    rows = tuple((m, n) for q, m, n in _ladder(system.kind) if lo <= q <= hi)
    return MetrologicalTable(system=system_kind, rows=rows)


def format_metrological_table(table: MetrologicalTable, fmt: str = "text") -> str:
    from .tables import _csv_text, format_two_columns

    if fmt == "csv":
        return _csv_text(
            ("measurement", "number"),
            ((str(m), str(n)) for m, n in table.rows),
        )
    return format_two_columns([(str(m), str(n)) for m, n in table.rows])
