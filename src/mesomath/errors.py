"""Exception hierarchy shared by every module.

Two broad families matter to callers: parse errors (bad text reached a
parser), which subclass :class:`ParseError`, and arithmetic errors (a
well-formed request has no answer, such as the reciprocal of an
irregular number), which are every other :class:`SexagesimalError`.
The CLI maps the families to distinct exit codes.
"""

from __future__ import annotations

from typing import NamedTuple


#: An echoed text longer than this many characters is cut in the middle.
_ECHOED = 64


def _clip(text: str) -> str:
    """``text`` as an error message echoes it: at most ``_ECHOED``
    characters, else its first and last 24 and its length."""
    if len(text) <= _ECHOED:
        return text
    return f"{text[:24]}…{text[-24:]} ({len(text)} characters)"


class ParseDiagnostic(NamedTuple):
    """Position and context for a rejected piece of input text."""

    line: int
    column: int
    message: str
    token: str = ""

    def __str__(self) -> str:
        where = f"line {self.line}, column {self.column}"
        if self.token:
            return f"{where}: {self.message} ({self.token!r})"
        return f"{where}: {self.message}"


class SexagesimalError(Exception):
    """Base class for all library errors.

    ``diagnostic`` is populated when the error was raised while parsing
    text, so callers always receive at most one diagnostic per input.
    """

    def __init__(self, message: str, diagnostic: ParseDiagnostic | None = None):
        super().__init__(message)
        self.diagnostic = diagnostic


class ParseError(SexagesimalError):
    """Bad text reached a parser; the CLI exits 2 on every subclass."""


# --- digit-sequence and integer bridge errors ------------------------------

class AllZero(ParseError):
    """A digit sequence with no nonzero digit; there is no zero numeral."""


class NonPositive(SexagesimalError):
    """The integer bridge only covers positive values."""


class DigitOutOfRange(ParseError):
    """A digit outside 0..59, at construction or parse time."""


# --- reciprocal / root extraction ------------------------------------------

class Irregular(SexagesimalError):
    """Number has a prime factor other than 2, 3, 5: "without reciprocal"."""


class NoProgress(SexagesimalError):
    """No table factor divides the current quotient (variant tables only)."""


class LoopMismatch(SexagesimalError):
    """Inverting a reciprocal did not give back the number it came from."""


class NotASquare(SexagesimalError):
    """No power-of-sixty representative is a perfect square."""


class NotACube(SexagesimalError):
    """No power-of-sixty representative is a perfect cube."""


# --- metrology ---------------------------------------------------------------

class NoReading(SexagesimalError):
    """No measurement inside the hint window corresponds to the number."""


class AmbiguousReading(SexagesimalError):
    """More than one measurement inside the hint window corresponds."""


class ReadingTooLong(SexagesimalError):
    """A reading's count of its top unit has more digits than ``str``
    prints (``sys.get_int_max_str_digits()``)."""


# --- anchored arithmetic -----------------------------------------------------

class ZeroResult(SexagesimalError):
    """Subtraction came out to zero, which has no numeral."""


class NegativeResult(SexagesimalError):
    """Subtrahend exceeded the minuend."""


class AnchorGap(SexagesimalError):
    """Operands of add or sub anchored too many columns apart."""


class ProductTooLong(SexagesimalError):
    """Operands of a product step holding too many digits together."""


class TraceTooLong(SexagesimalError):
    """A factor trace asked of a number too long for its columns to print."""


class MissingConfig(SexagesimalError):
    """Additive steps present but no configuration selected."""


# --- text and script parsing -------------------------------------------------

class EmptyInput(ParseError):
    pass


class MalformedSeparator(ParseError):
    pass


class UnknownUnit(ParseError):
    pass


class UnitOrderViolation(ParseError):
    pass


class BadFraction(ParseError):
    pass


class MeasurementSyntax(ParseError):
    pass


class ScriptSyntax(ParseError):
    pass


class UnknownName(ParseError):
    pass


class UnknownOp(ParseError):
    pass

