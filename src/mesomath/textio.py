"""Parsing: numbers, anchored literals, measurements, reading windows.

One grammar shared by the CLI, the REPL and corpus files.  Digits are
separated by ':', which is what the ``str`` of every value prints; '.'
is accepted as well, since both separators circulate.  Unit names are
accepted in their UTF-8 spellings and in ASCII aliases (kush, shu-si,
she, ...).

A number token is built from its match: the regular expression that
accepts it bounds every part to 0..59, so its digits and its canonical
integer are filled in with no second check.

A measurement token is looked up once in its system's token table,
which gives a unit's index, name and size, and read as a count or a
fraction only when it is none.  A fraction token is read into the
twelfths of its unit that :class:`~mesomath.metrology.Term` keeps: a
glyph ("½") or a canonical spelling ("1/2") from one table, any other
spelling ("2/4") by dividing ``12 * num`` by ``den``, which must leave
no remainder and land in the allowed set, so no ``Fraction`` is built.
Each term is checked, and the magnitude summed, as it is read, so a
measurement is built by the trusted builder ``metrology._measurement``
with no second check.

Every parser either returns a value or raises exactly one error carrying
a :class:`~mesomath.errors.ParseDiagnostic`; nothing here crashes on
arbitrary text.  A diagnostic reports a position within the parser's
text, always on line 1, and the message names no line; the caller
places it in a file, as :func:`~mesomath.procedures.parse_script` sets
the script line of every refusal it raises, in the diagnostic and at the
head of the message.

Importing this module loads ``re``, ``spvn`` and ``errors`` only.  The
measurement parsers reach ``metrology``, and :func:`parse_number`
reaches ``abacus`` for an anchored literal, through the package, whose
lazy loader imports each layer on first use and binds it as a package
attribute; so parsing a number never loads them, and no call runs an
import statement.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

import mesomath as _pkg

from .errors import (
    AllZero,
    BadFraction,
    DigitOutOfRange,
    EmptyInput,
    MalformedSeparator,
    MeasurementSyntax,
    ParseDiagnostic,
    ParseError,
    UnitOrderViolation,
    UnknownUnit,
    _clip,
)
from .spvn import BASE, FloatingNumber, _fold

if TYPE_CHECKING:
    from . import metrology
    from .abacus import AnchoredNumber


def _diag(col: int, message: str, token: str = "") -> ParseDiagnostic:
    """A refusal at column ``col`` of the parser's text, which is line 1."""
    return ParseDiagnostic(1, col, message, token)


def _ascii_digits(s: str) -> bool:
    # str.isdigit admits superscripts and other Unicode digits that
    # int() rejects or that have no place in this grammar
    return s.isascii() and s.isdigit()


def _decimal(s: str) -> int | None:
    """The value of the ASCII digits ``s``, or None if int() cannot read it.

    Leading zeros are insignificant and are dropped first; what int()
    refuses is a string longer than its digit limit (4,300 by default).
    """
    try:
        return int(s.lstrip("0") or "0")
    except ValueError:
        return None


def read_exponent(s: str) -> int | None:
    """The power of sixty ``s`` names, or None if ``s`` names none.

    The grammar is an optional '-', then ASCII digits; leading zeros are
    insignificant at any length, as in every other part of a literal.
    """
    sign, digits = (-1, s[1:]) if s.startswith("-") else (1, s)
    if not _ascii_digits(digits):
        return None
    e = _decimal(digits)
    return None if e is None else sign * e


#: A well-formed digit sequence: parts of ASCII digits joined by ':' or
#: '.', each part a digit 0..59 after any number of leading zeros.  The
#: tens digit is never '0', so a part matches in one way only and a
#: refused token costs time linear in its length: with '[0-5]?' the
#: zeros of '00' or '05' could go to either term, and a refused token of
#: k such parts backtracked through about 2**k splits.
_SPVN = re.compile(r"(?:0*[1-5]?[0-9][:.])*0*[1-5]?[0-9]")


#: The value of each part written without extra leading zeros: "0" to
#: "59", and "00" to "09".
_PART = {str(d): d for d in range(BASE)} | {f"0{d}": d for d in range(10)}


def parse_spvn(text: str) -> FloatingNumber:
    """Parse a digit sequence like "44:26:40" (or "44.26.40").

    A token that ``_SPVN`` matches is built from its parts with no second
    check: the match has bounded every part to 0..59.
    """
    s = text.strip()
    if _SPVN.fullmatch(s) is None:
        raise _spvn_refusal(text, s)
    parts = s.replace(".", ":").split(":")
    try:
        ds = list(map(_PART.__getitem__, parts))
    except KeyError:
        # a part with extra leading zeros has its value in its last two
        # characters; int() never sees the zeros, which it would count
        # against its digit limit
        ds = [int(p[-2:]) for p in parts]
    x = object.__new__(FloatingNumber)
    try:
        x._digits, x._int = _fold(ds)
    except AllZero as e:
        e.diagnostic = _diag(1, "no nonzero digit", s)
        raise
    return x


def _spvn_refusal(text: str, s: str) -> ParseError:
    """The error for a token that ``_SPVN`` refuses, naming its first bad part."""
    if not s:
        return EmptyInput("empty number", _diag(1, "empty number", text))
    col = 1
    for part in s.replace(".", ":").split(":"):
        if not _ascii_digits(part):
            return MalformedSeparator(
                f"malformed digit sequence {_clip(repr(text))}",
                _diag(col, "expected a base-60 digit", part),
            )
        # leading zeros are insignificant; a third significant digit is
        # out of range before int() reads it, however long the part is
        sig = part.lstrip("0") or "0"
        if len(sig) > 2 or int(sig) > 59:
            return DigitOutOfRange(
                f"digit {_clip(sig)} outside 0..59",
                _diag(col, "digit outside 0..59", part),
            )
        col += len(part) + 1
    raise AssertionError(f"{text!r} is a well-formed digit sequence")


def parse_number(text: str) -> FloatingNumber | AnchoredNumber:
    """Parse a digit sequence like "44:26:40", or "<digits>e<exponent>" like "6:30e-1".

    A token with no 'e' is a digit sequence; one with an 'e' is an
    anchored literal, its exponent after the last 'e'.
    """
    if "e" not in text:
        return parse_spvn(text)
    s = text.strip()
    head, _, tail = s.rpartition("e")
    if not head:
        raise MalformedSeparator(
            f"anchored literal needs digits and exponent: {_clip(repr(text))}",
            _diag(1, "expected <digits>e<exponent>", s),
        )
    exponent = read_exponent(tail)
    if exponent is None:
        raise MalformedSeparator(
            f"bad exponent in {_clip(repr(text))}",
            _diag(len(head) + 2, "exponent must be an integer", tail),
        )
    return _pkg.AnchoredNumber(parse_spvn(head), exponent)


# each glyph and canonical spelling as twelfths of its unit
_FRACTIONS = {
    "½": 6, "⅓": 4, "⅔": 8, "¼": 3, "⅙": 2, "⅚": 10,
    "1/2": 6, "1/3": 4, "2/3": 8, "1/4": 3, "1/6": 2, "5/6": 10,
}


def _column(text: str, i: int) -> int:
    """The column, from 1, at which token ``i`` of ``text.split()`` starts."""
    return [m.start() for m in re.finditer(r"\S+", text)][i] + 1


def _parse_fraction_token(tok: str, system, text: str, i: int) -> int | None:
    """The fraction ``tok`` names, in twelfths, when ``_FRACTIONS`` does
    not hold it; None if it names none."""
    if "/" not in tok:
        return None
    num, _, den = tok.partition("/")
    n = _decimal(num) if _ascii_digits(num) else None
    d = _decimal(den) if _ascii_digits(den) else None
    if n is None or not d:
        raise BadFraction(
            f"bad fraction {_clip(repr(tok))}",
            _diag(_column(text, i), "fraction must look like 1/3", tok),
        )
    f, r = divmod(12 * n, d)
    if r or f not in _pkg.metrology.ALLOWED_FRACTIONS:
        raise BadFraction(
            f"fraction {_clip(tok)} is not used in system {system.kind}",
            _diag(_column(text, i), "fraction not in the allowed set", tok),
        )
    return f


def parse_measurement(text: str, system_kind: str) -> metrology.MeasurementValue:
    """Parse "1/2 kush 3 shu-si" and friends for the given unit system.

    Grammar: one or more groups of [count] [fraction] unit, units in
    strictly descending order, counts positive.  Each token is looked
    up once: as a unit name, then as a count, and only a token that is
    neither is read as a fraction.

    The first unit out of order or zero count is raised only after the
    last token, as :class:`UnitOrderViolation` at column 1 over the whole
    text, so an error in a later token wins over it.  A refused token's
    column is worked out from the text only when it is refused.
    """
    metrology = _pkg.metrology
    try:
        system = metrology.get_system(system_kind)
    except UnknownUnit as e:
        e.diagnostic = _diag(1, "unknown unit system", system_kind)
        raise
    tokens = system._tokens
    Term = metrology.Term
    new_term = metrology._new_term
    toks = text.split()
    if not toks:
        raise EmptyInput("empty measurement", _diag(1, "empty measurement", text))
    terms: list[metrology.Term] = []
    whole: int | None = None
    frac: int | None = None
    last = -1
    twelfths = 0
    order = None  # the message of the first term out of order or zero
    for i, tok in enumerate(toks):
        unit = tokens.get(tok)
        if unit is not None:
            if whole is None and frac is None:
                raise MeasurementSyntax(
                    f"unit {_clip(repr(tok))} has no count",
                    _diag(_column(text, i), "missing count before unit", tok),
                )
            idx, name, size = unit
            count = 12 * (whole or 0) + (frac or 0)
            if order is None:
                if idx <= last:
                    order = f"units out of descending order at {name!r}"
                elif not count:
                    order = f"count of {name!r} must be positive"
            last = idx
            twelfths += count * size
            terms.append(new_term(Term, (name, whole or 0, frac or 0)))
            whole = None
            frac = None
        elif tok.isascii() and tok.isdigit():
            if whole is not None or frac is not None:
                raise MeasurementSyntax(
                    f"expected a unit before {_clip(repr(tok))}",
                    _diag(_column(text, i), "two counts in a row", tok),
                )
            whole = _decimal(tok)
            if whole is None:
                raise MeasurementSyntax(
                    "count has too many digits",
                    _diag(_column(text, i), "count too long", tok),
                )
        else:
            f = _FRACTIONS.get(tok)
            if f is None:
                f = _parse_fraction_token(tok, system, text, i)
                if f is None:
                    raise UnknownUnit(
                        f"unknown unit {_clip(repr(tok))} in system {system.kind}",
                        _diag(_column(text, i), "unknown unit", tok),
                    )
            if frac is not None:
                raise MeasurementSyntax(
                    f"two fractions in a row at {_clip(repr(tok))}",
                    _diag(_column(text, i), "two fractions in a row", tok),
                )
            frac = f
    if whole is not None or frac is not None:
        # the missing unit's place: one blank past the last token
        raise MeasurementSyntax(
            f"dangling count at end of {_clip(repr(text))}",
            _diag(len(text.rstrip()) + 2, "count without a unit", toks[-1]),
        )
    if order is not None:
        raise UnitOrderViolation(order, _diag(1, order, text))
    return metrology._measurement(system.kind, tuple(terms), twelfths)


def parse_window(text: str, system_kind: str) -> metrology.Window:
    """Parse a reading window "<m>".."<m>"; the quotes are optional."""
    lo, sep, hi = text.partition("..")
    if not sep:
        raise MeasurementSyntax(
            f'window must look like "<m>".."<m>": {_clip(repr(text))}',
            _diag(1, 'window needs "<m>".."<m>"', text),
        )
    lo_m = parse_measurement(lo.strip().strip('"'), system_kind)
    hi_m = parse_measurement(hi.strip().strip('"'), system_kind)
    try:
        return _pkg.metrology.Window(lo_m, hi_m)
    except MeasurementSyntax as e:
        # both bounds are in one system, so only their order is refused
        e.diagnostic = _diag(1, "window bounds out of order", text)
        raise
