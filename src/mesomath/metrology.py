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

Every allowed fraction (1/6, 1/4, 1/3, 1/2, 2/3, 5/6) is a whole number
of twelfths of its unit and is kept as that integer: 1/2 is 6.  Every
unit size is a whole number of smallest units, so a magnitude is one
integer too: :attr:`MeasurementValue.twelfths`, the count of twelfths
of the system's smallest unit.  Every base has a denominator dividing 60
and a numerator with no prime factor but 2, 3 and 5 (a
:class:`UnitSystem` refuses any other), so :func:`to_number` turns that
integer into a number with integer arithmetic alone, and the cycle walk
of a reverse reading ends.  Parsing,
spelling, printing, the cycle walk of reverse readings and the ladder
search all run on integers; ``Fraction`` appears only at the exact
edges, :attr:`UnitSystem.base` and :meth:`MeasurementValue.value`.  A
measurement is built in one of two ways: the public constructor checks
its terms and sums its magnitude, and the trusted builder
:func:`_measurement` fills the same slots with no check, for
:func:`_spell`, which spells a known magnitude canonically by
construction, and for :func:`mesomath.textio.parse_measurement`, which
checks each term as it reads it.  Each system's ladder is expanded
once, on first use, together with the printed text of every row, so
formatting a table renders nothing.  Nothing here rounds.

Each :class:`UnitSystem` works out, when it is built, every constant
the measurement path reads: a token table from each unit name and alias
to the unit's index, name and size, which the parser reads a unit token
from in one lookup; the integer scale of :func:`to_number`; the ratio
and the spellable remainders of the cycle walk; and each unit's
spelling step in twelfths.  Conversion, reverse readings and spelling
then do integer arithmetic only, and a measurement prints its terms in
one loop.

Reading a table backwards needs no search.  A :class:`UnitSystem`
refuses any spelling fraction, on a unit above the smallest, that is not
a whole number of smallest units, so the units above the smallest only
ever take whole multiples of 12 twelfths and leave ``t % 12`` to the
smallest unit.  Spelling is therefore one greedy pass from the largest
unit down, and whether a magnitude has a reading at all depends only on
``t % 12``: the cycle walk skips the cycles that fail that test.
"""

from __future__ import annotations

import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache
from itertools import islice
from operator import attrgetter, index
from typing import Iterator, NamedTuple

import mesomath as _pkg

from .errors import (
    AmbiguousReading,
    BadFraction,
    EmptyInput,
    MeasurementSyntax,
    NoReading,
    ReadingTooLong,
    UnitOrderViolation,
    UnknownUnit,
    _clip,
)
from .spvn import BASE, FloatingNumber, from_integer, to_integer

# The fraction vocabulary: each allowed fraction as twelfths of its unit,
# with its printed name.
_FRACTION_TEXT = {10: "5/6", 8: "2/3", 6: "1/2", 4: "1/3", 3: "1/4", 2: "1/6"}
_FIVE_SIXTHS, _TWO_THIRDS, _HALF, _THIRD = 10, 8, 6, 4

_ALL = tuple(_FRACTION_TEXT)
#: Fractions a measurement may carry, in any system, as twelfths of the
#: unit: 1/2 is 6 and 5/6 is 10.
ALLOWED_FRACTIONS = frozenset(_FRACTION_TEXT)
_KUSH_STYLE = (_FIVE_SIXTHS, _TWO_THIRDS, _HALF, _THIRD)


class _Record:
    """An immutable record on ``__slots__`` that is not a tuple.

    The records that keep state derived from their fields are built on
    this; the other records are ``NamedTuple`` classes.  ``_fields``
    names the fields, in the constructor's order: equality (between
    records of one class), hash, repr and pickling read those, and the
    other slots hold what they determine.  ``__init__`` sets the slots
    with ``object.__setattr__``; any later assignment raises.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key))
        return f"{type(self).__name__}({args})"

    def __reduce__(self):
        return type(self), self._key

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")


class Unit(NamedTuple):
    """One rung of a system's ladder.

    ``size`` is the exact multiple of the system's smallest unit;
    ``spelling_fractions`` are the fractions, in twelfths, canonical
    spellings may use for this unit (largest first).  Parsing accepts the
    full allowed set on any unit; the subset only shapes what conversions
    emit, keeping generated rows on the attested spellings (5 šu-si,
    never 1/6 kuš).
    """

    name: str
    size: int
    spelling_fractions: tuple[int, ...]
    aliases: tuple[str, ...] = ()


class UnitSystem(_Record):
    """Units in descending order plus the base correspondence.

    ``base`` is the abstract number of one smallest unit, as an exact
    fraction whose denominator divides 60 and whose numerator is a
    positive product of 2, 3 and 5 (so that some power of 60 is a
    multiple of it, and the cycle walk of a reverse reading ends); every
    other correspondence follows from the ladder.
    ``anchor_offset`` fixes the conventional computing scale used by
    explicit-exponent hints: the power of sixty that places the
    customary unit (ninda, kuš, gin, sar, sila) at 1e0.
    """

    __slots__ = (
        "kind", "units", "base", "anchor_offset",
        "_tokens", "_scale", "_ratio", "_spellable", "_steps",
    )
    _fields = ("kind", "units", "base", "anchor_offset")

    def __init__(
        self, kind: str, units: tuple[Unit, ...], base: Fraction, anchor_offset: int = 0
    ):
        d, n = base.denominator, base.numerator
        if BASE % d:
            raise ValueError(
                f"system {kind}: the denominator of base {base}"
                f" does not divide {BASE}"
            )
        # a positive n is a product of 2, 3 and 5 exactly when it divides
        # 60**k, k its bit length: no exponent in n reaches k
        if n <= 0 or pow(BASE, n.bit_length(), n):
            raise ValueError(
                f"system {kind}: the numerator of base {base}"
                " is not a positive product of 2, 3 and 5"
            )
        # measurements are split on whitespace, and CSV rows are not quoted
        for u in units:
            for name in (u.name, *u.aliases):
                if name.split() != [name] or "," in name or '"' in name:
                    raise ValueError(
                        f"system {kind}: unit name {name!r} is empty or holds"
                        " whitespace, a comma or a double quote"
                    )
        for u in units[:-1]:
            for f in u.spelling_fractions:
                if f * u.size % 12:
                    raise ValueError(
                        f"system {kind}: {f}/12 of a {u.name} is not"
                        f" a whole number of {units[-1].name}"
                    )
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "units", units)
        init(self, "base", base)
        init(self, "anchor_offset", anchor_offset)
        # What parsing, conversion and spelling read, worked out once.
        # Each name and alias -> (index, name, size) of its unit:
        init(self, "_tokens", {
            a: (i, u.name, u.size) for i, u in enumerate(units) for a in (u.name, *u.aliases)
        })
        # t twelfths are the number t / 12 * n / d, times 60**2 the
        # integer t * _scale, as d divides 60:
        init(self, "_scale", 5 * n * (BASE // d))
        # (p, q): the integer v of a number, read at the units place, is
        # v * p / q twelfths of the smallest unit:
        init(self, "_ratio", (12 * d, n))
        # the remainders, in twelfths, that the smallest unit spells:
        init(self, "_spellable", frozenset((0, *units[-1].spelling_fractions)))
        # each unit's spelling step: (name, its twelfths, and each of its
        # spelling fractions with that fraction's twelfths):
        init(self, "_steps", tuple(
            (u.name, 12 * u.size, tuple((f, f * u.size) for f in u.spelling_fractions))
            for u in units
        ))

    def _token(self, name: str) -> tuple[int, str, int]:
        """(index in ``units``, name, size) of the unit with this name or alias."""
        try:
            return self._tokens[name]
        except KeyError:
            raise UnknownUnit(f"unknown unit {_clip(repr(name))} in system {self.kind}") from None

    def unit(self, name: str) -> Unit:
        return self.units[self._token(name)[0]]


class Term(NamedTuple):
    """count of a unit: a whole part plus an optional fraction, given
    as twelfths of the unit (``Term("ninda", 1, 6)`` is 1 1/2 ninda)."""

    unit: str
    whole: int
    frac: int = 0

    def __str__(self) -> str:
        return _term_text(*self)


def _term_text(unit: str, whole: int, frac: int) -> str:
    """A term as printed: its whole part, its fraction, then its unit."""
    if frac:
        text = f"{_FRACTION_TEXT[frac]} {unit}"
        return f"{whole!s} {text}" if whole else text
    return f"{whole!s} {unit}" if whole else f" {unit}"


# a term built from its fields with no call of ``Term.__new__``:
# ``_new_term(Term, (unit, whole, frac))``
_new_term = tuple.__new__


class MeasurementValue(_Record):
    """A concrete quantity: ordered unit terms in one system.

    Units strictly descending, every count a positive integer, fractions
    from the allowed set.  "1/2 kuš 3 šu-si" carries its fraction on the
    kuš term; "2 1/4 še" on its only term.  Each term keeps its unit's
    name, not the alias it was given by, so a measurement equals the one
    its text parses to.  ``twelfths`` is the magnitude as a count of
    twelfths of the system's smallest unit, computed on construction
    with integers only.  A measurement is not a tuple, so
    one reading never passes for the tuple of readings that
    :func:`enumerate_readings` returns.
    """

    __slots__ = ("system", "terms", "twelfths")
    _fields = ("system", "terms")

    def __init__(self, system: str, terms: tuple[Term, ...]):
        unit_system = get_system(system)
        if not terms:
            raise EmptyInput("empty measurement")
        canonical = []
        last_index = -1
        twelfths = 0
        for t in terms:
            idx, name, size = unit_system._token(t.unit)
            if idx <= last_index:
                raise UnitOrderViolation(
                    f"units out of descending order at {t.unit!r}"
                )
            last_index = idx
            try:
                whole, frac = index(t.whole), index(t.frac)
            except TypeError:
                raise MeasurementSyntax(f"count of {t.unit!r} must be an integer") from None
            count = 12 * whole + frac
            if whole < 0 or count <= 0:
                raise UnitOrderViolation(f"count of {t.unit!r} must be positive")
            if frac and frac not in ALLOWED_FRACTIONS:
                raise BadFraction(f"fraction {frac}/12 of {t.unit!r} not allowed")
            twelfths += count * size
            canonical.append(Term(name, whole, frac))
        _measurement(system, tuple(canonical), twelfths, self)

    def value(self) -> Fraction:
        """Exact magnitude in multiples of the system's smallest unit."""
        return Fraction(self.twelfths, 12)

    def __str__(self) -> str:
        return " ".join([_term_text(*t) for t in self.terms])


def _measurement(
    system: str,
    terms: tuple[Term, ...],
    twelfths: int,
    m: MeasurementValue | None = None,
) -> MeasurementValue:
    """The measurement of ``terms`` in ``system``, of magnitude
    ``twelfths``, built with no check: the caller vouches for what the
    validating constructor checks.  That constructor fills its own
    instance ``m`` through this builder too.
    """
    if m is None:
        m = object.__new__(MeasurementValue)
    init = object.__setattr__
    init(m, "system", system)
    init(m, "terms", terms)
    init(m, "twelfths", twelfths)
    return m


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
        raise UnknownUnit(f"unknown unit system {_clip(repr(kind))}") from None


# --- conversion ---------------------------------------------------------------

def _number(system: UnitSystem, t: int) -> FloatingNumber:
    """Floating number of ``t`` twelfths of the smallest unit.

    A floating number does not change when multiplied by 60, so the
    exact ``t / 12 * base`` is taken times 60**2: the integer below, as
    the base's denominator divides 60.  No ``Fraction`` is built.
    """
    return from_integer(t * system._scale)


def to_number(m: MeasurementValue) -> FloatingNumber:
    """The table read left to right: exact correspondence of ``m``."""
    return _number(get_system(m.system), m.twelfths)


# ``str`` of an int with more decimal digits than ``_max_str_digits()``
# raises; 0 is no limit, as is an interpreter without one.  No limit may
# be set below ``str_digits_check_threshold`` (640) digits, so no
# magnitude under ``_ALWAYS_PRINTABLE`` needs the check.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_ALWAYS_PRINTABLE = 12 * 10 ** getattr(sys.int_info, "str_digits_check_threshold", 0)


def _check_printable(system: UnitSystem, t: int) -> None:
    limit = _max_str_digits()
    if limit and t // (12 * system.units[0].size) >= 10**limit:
        raise ReadingTooLong(
            f"reading too long: its count of {system.units[0].name} would"
            f" have more than {limit} digits"
        )


def _spell(system: UnitSystem, t: int) -> MeasurementValue | None:
    """Canonical spelling of ``t`` twelfths of the smallest unit, or None.

    None when ``t`` is not positive or cannot be spelled.  One pass from
    the largest unit down: each unit takes its whole count, then the
    largest of its spelling fractions that fits.  No choice needs to be
    undone, because every unit but the last is a whole number of
    smallest units even in its spelling fractions (a rule
    :class:`UnitSystem` checks): what reaches the smallest unit is
    ``t % 12`` twelfths whatever was taken above, and either that unit
    spells it or nothing could.  A reading whose top-unit count has more
    decimal digits than ``str`` may print raises :class:`ReadingTooLong`
    before any term is built.  The terms are canonical by construction
    and their magnitude is ``t``, so :func:`_measurement` builds the
    value with no second check.
    """
    if t <= 0:
        return None
    if t >= _ALWAYS_PRINTABLE:
        _check_printable(system, t)
    terms = []
    rest = t
    for name, twelfths, fractions in system._steps:
        whole, rest = divmod(rest, twelfths)
        for f, part in fractions:
            if part <= rest:
                rest -= part
                break
        else:
            f = 0
        if whole or f:
            terms.append(_new_term(Term, (name, whole, f)))
    if rest:
        return None
    return _measurement(system.kind, tuple(terms), t)


class _Window(NamedTuple):
    lo: MeasurementValue
    hi: MeasurementValue


class Window(_Window):
    """Inclusive measurement range a reverse reading must fall in."""

    __slots__ = ()

    def __new__(cls, lo: MeasurementValue, hi: MeasurementValue):
        if lo.system != hi.system or lo.twelfths > hi.twelfths:
            raise MeasurementSyntax("window bounds must be ordered, same system")
        return tuple.__new__(cls, (lo, hi))

    def __str__(self) -> str:
        return f"{self.lo} .. {self.hi}"


class AnchorHint(NamedTuple):
    """Explicit power of sixty carried by the number's last digit."""

    exponent: int


def _cycles(n: FloatingNumber, system: UnitSystem) -> Iterator[int]:
    """``n``'s magnitudes in twelfths of the smallest unit, ascending,
    over the cycles that hold a reading.

    By the rule :class:`UnitSystem` checks, a magnitude has a spelling
    exactly when it is a whole number of twelfths that leaves 0 or one of
    the smallest unit's fractions over a whole count of that unit (see
    :func:`_spell`); the smallest such magnitude is 2 twelfths, a sixth
    of the smallest unit.  Sixty times such a magnitude is one too, so
    every cycle after the first one yielded is yielded, and a climb from
    two cycles below the units place finds the first: the cycle j places
    below is whole only if 60**j divides ``12 * v * d`` (canonical integer
    ``v``, base denominator ``d``), and as 60 never divides ``v`` and
    ``12 * d`` holds at most 2**4, 3**2 and 5, j <= 1 if 5 does not
    divide ``v``, j <= 2 if 3 does not, and 2j <= 5 if 4 does not.
    """
    spellable = system._spellable
    p, q = system._ratio
    num, den = to_integer(n) * p, q * BASE**2
    while num < 2 * den or num % den or num // den % 12 not in spellable:
        num *= BASE
    t = num // den
    while True:
        yield t
        t *= BASE


def _require_system(system: UnitSystem, *bounds: MeasurementValue) -> None:
    """Bounds count magnitudes in their own smallest unit, so they must match."""
    for m in bounds:
        if m.system != system.kind:
            raise MeasurementSyntax(
                f"bound {_clip(str(m))} is in system {m.system}, not {system.kind}"
            )


#: An ambiguous reading's message lists at most this many readings, then
#: "…".  A window between 1/6 of a system's smallest unit and 59 of its
#: largest never holds more, so those messages list every reading.
_LISTED = 6

def from_number(
    n: FloatingNumber, system_kind: str, hint: Window | AnchorHint
) -> MeasurementValue:
    """The table read right to left, under an order-of-magnitude hint.

    There is deliberately no default magnitude: the right column cycles,
    and silently picking a cycle would hide exactly the judgement the
    reverse reading requires.  A window that holds several readings
    raises :class:`AmbiguousReading`, whose message gives their count
    and spells at most ``_LISTED`` of them; the messages echo the number
    and the window through :func:`_clip`, so they stay short whatever
    the input.
    """
    system = get_system(system_kind)
    if isinstance(hint, AnchorHint):
        k = hint.exponent - system.anchor_offset
        p, q = system._ratio
        t, r = divmod(to_integer(n) * p * BASE ** max(k, 0), q * BASE ** max(-k, 0))
        m = None if r else _spell(system, t)
        if m is None:
            raise NoReading(
                f"{_clip(str(n))} at e{hint.exponent} is not expressible in {system.kind}"
            )
        return m
    _require_system(system, hint.lo)
    lo, hi = hint.lo.twelfths, hint.hi.twelfths
    count = 0
    listed = []
    for t in _cycles(n, system):
        if t > hi:
            break
        if t >= lo:
            count += 1
            if count <= _LISTED:
                listed.append(t)
    if not count:
        raise NoReading(
            f"no reading of {_clip(str(n))} in {system.kind} within {_clip(str(hint))}"
        )
    if count > 1:
        listing = "; ".join(_clip(str(_spell(system, t))) for t in listed)
        if count > _LISTED:
            listing += "; …"
        raise AmbiguousReading(
            f"{count} readings of {_clip(str(n))} in {system.kind}"
            f" within {_clip(str(hint))}: {listing}"
        )
    return _spell(system, listed[0])


def enumerate_readings(
    n: FloatingNumber, system_kind: str, span: int = 4
) -> tuple[MeasurementValue, ...]:
    """Readings of ``n`` over ``span`` consecutive cycles, ascending.

    Starts at the smallest cycle with an expressible reading; each
    reading maps back to the digits of ``n`` by construction.  A span
    that reaches a reading too long to print raises
    :class:`ReadingTooLong`.
    """
    if span < 1:
        raise MeasurementSyntax("span must be at least 1")
    system = get_system(system_kind)
    return tuple(_spell(system, t) for t in islice(_cycles(n, system), span))


# --- table generation -----------------------------------------------------------


_WHOLE = (0,)
_WHOLE_AND_HALF = (0, _HALF)
_KUSH_STEPS = (0, _THIRD, _HALF, _TWO_THIRDS)

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


_Row = tuple[MeasurementValue, FloatingNumber]


@cache
def _ladder(
    kind: str,
) -> tuple[tuple[_Row, ...], tuple[int, ...], tuple[tuple[str, str], ...]]:
    """The system's table rows as (measurement, number), ascending, with
    two parallel tuples: their magnitudes in twelfths, and their printed
    (measurement, number) texts."""
    system = get_system(kind)
    rows, keys, texts = [], [], []
    for name, wholes, fractions in _LADDERS[kind]:
        size = system.unit(name).size
        for whole in wholes:
            for f in fractions:
                t = (12 * whole + f) * size
                if t > 0:
                    m, n = _spell(system, t), _number(system, t)
                    rows.append((m, n))
                    keys.append(t)
                    texts.append((str(m), str(n)))
    return tuple(rows), tuple(keys), tuple(texts)


class MetrologicalTable(_Record):
    """Rows of a system's table; ``texts`` holds each row as printed."""

    __slots__ = ("system", "rows", "texts")
    _fields = ("system", "rows")

    def __init__(
        self, system: str, rows: tuple[_Row, ...], texts: tuple[tuple[str, str], ...]
    ):
        init = object.__setattr__
        init(self, "system", system)
        init(self, "rows", rows)
        init(self, "texts", texts)

    def __reduce__(self):
        return type(self), (self.system, self.rows, self.texts)

    def __len__(self) -> int:
        return len(self.rows)


def gen_metrological_table(
    system_kind: str, start: MeasurementValue, stop: MeasurementValue
) -> MetrologicalTable:
    """The canonical rows between ``start`` and ``stop`` inclusive."""
    system = get_system(system_kind)
    _require_system(system, start, stop)
    lo, hi = start.twelfths, stop.twelfths
    if hi < lo:
        raise MeasurementSyntax("empty range: stop is below start")
    rows, keys, texts = _ladder(system.kind)
    i, j = bisect_left(keys, lo), bisect_right(keys, hi)
    return MetrologicalTable(system=system_kind, rows=rows[i:j], texts=texts[i:j])


def format_metrological_table(table: MetrologicalTable, fmt: str = "text") -> str:
    return _pkg.tables._write(table.texts, "measurement,number\n", fmt)
