"""Former implementations the tests compare the library against.

The rules themselves are checked against one reference that shares no
code with the library: ``benchmarks/oracle.py`` (``import oracle as O``),
on plain integers and ``Fraction``.  This module keeps what it has no
counterpart for: the library's own code from before it was made faster.
The two parsers read a token one part at a time, and ``expect`` tokens
were read by the number rule before ``textio.parse_number``.  The table
writers went through ``csv.writer``.  The speller backtracks, so it needs
no rule on the units; the cycle walk descended below 2 twelfths before
it climbed; a measurement printed each term's ``str``; the cube root
corrected Newton's result by unit steps.  Also
the sweep population, the exponents of a regular number, and the peel
under any table, on the reference's integers.
"""

import csv
import io
from math import prod

import oracle as O

from mesomath.abacus import AnchoredNumber
from mesomath.errors import (
    AllZero,
    BadFraction,
    DigitOutOfRange,
    EmptyInput,
    MalformedSeparator,
    MeasurementSyntax,
    ParseDiagnostic,
    UnitOrderViolation,
    UnknownUnit,
    _clip,
)
from mesomath.metrology import (
    _FRACTION_TEXT,
    ALLOWED_FRACTIONS,
    MeasurementValue,
    Term,
    UnitSystem,
    get_system,
)
from mesomath.spvn import FloatingNumber, to_integer


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


def parse_spvn_by_parts(text: str) -> FloatingNumber:
    """``textio.parse_spvn`` read one part at a time, as it was before it
    matched the whole token at once: the same value, or the same error
    class, message, column and token."""
    s = text.strip()
    if not s:
        raise EmptyInput("empty number", ParseDiagnostic(1, 1, "empty number", text))
    digits = []
    col = 1
    for part in s.replace(".", ":").split(":"):
        if not (part.isascii() and part.isdigit()):
            raise MalformedSeparator(
                f"malformed digit sequence {_clip(repr(text))}",
                ParseDiagnostic(1, col, "expected a base-60 digit", part),
            )
        sig = part.lstrip("0") or "0"
        if len(sig) > 2 or int(sig) > 59:
            raise DigitOutOfRange(
                f"digit {_clip(sig)} outside 0..59",
                ParseDiagnostic(1, col, "digit outside 0..59", part),
            )
        digits.append(int(sig))
        col += len(part) + 1
    if not any(digits):
        raise AllZero(
            "a digit sequence must contain a nonzero digit",
            ParseDiagnostic(1, 1, "no nonzero digit", s),
        )
    return FloatingNumber(digits)


def expect_number_by_rule(tok: str) -> FloatingNumber | AnchoredNumber:
    """An ``expect`` or ``attested`` token read as corpus files read it
    before ``textio.parse_number``: anchored when it holds an 'e' with
    digits before it and, after the last 'e', an optional '-' and ASCII
    digits; otherwise a digit sequence, which refuses any 'e'."""
    if "e" in tok:
        head, _, tail = tok.rpartition("e")
        digits = tail[1:] if tail.startswith("-") else tail
        if head and tok[0] != "e" and digits.isascii() and digits.isdigit():
            exponent = int(digits.lstrip("0") or "0")
            if tail[0] == "-":
                exponent = -exponent
            return AnchoredNumber(parse_spvn_by_parts(head), exponent)
    return parse_spvn_by_parts(tok)


_FRACTION_GLYPHS = {"½": 6, "⅓": 4, "⅔": 8, "¼": 3, "⅙": 2, "⅚": 10}


def _count(s: str) -> int | None:
    """The ASCII digits ``s`` as an integer, None past int()'s digit limit."""
    try:
        return int(s.lstrip("0") or "0")
    except ValueError:
        return None


def _fraction_by_text(tok: str, kind: str, col: int) -> int | None:
    if tok in _FRACTION_GLYPHS:
        return _FRACTION_GLYPHS[tok]
    if "/" not in tok:
        return None
    num, _, den = tok.partition("/")
    n = _count(num) if num.isascii() and num.isdigit() else None
    d = _count(den) if den.isascii() and den.isdigit() else None
    if n is None or not d:
        raise BadFraction(
            f"bad fraction {_clip(repr(tok))}",
            ParseDiagnostic(1, col, "fraction must look like 1/3", tok),
        )
    f, r = divmod(12 * n, d)
    if r or f not in ALLOWED_FRACTIONS:
        raise BadFraction(
            f"fraction {_clip(tok)} is not used in system {kind}",
            ParseDiagnostic(1, col, "fraction not in the allowed set", tok),
        )
    return f


def parse_measurement_by_kinds(text: str, system_kind: str) -> MeasurementValue:
    """``textio.parse_measurement`` as it read a token before it looked
    units up first: as a count, then as a fraction, then as a unit.  The
    same value, or the same error class, message, column and token."""
    system = get_system(system_kind)
    toks = text.split()
    if not toks:
        raise EmptyInput(
            "empty measurement", ParseDiagnostic(1, 1, "empty measurement", text)
        )
    terms = []
    whole = frac = None
    end = 0  # where the tokens read so far end in ``text``
    for tok in toks:
        col = text.index(tok, end) + 1
        end = col - 1 + len(tok)
        if tok.isascii() and tok.isdigit():
            if whole is not None or frac is not None:
                raise MeasurementSyntax(
                    f"expected a unit before {_clip(repr(tok))}",
                    ParseDiagnostic(1, col, "two counts in a row", tok),
                )
            whole = _count(tok)
            if whole is None:
                raise MeasurementSyntax(
                    "count has too many digits",
                    ParseDiagnostic(1, col, "count too long", tok),
                )
        else:
            f = _fraction_by_text(tok, system.kind, col)
            if f is not None:
                if frac is not None:
                    raise MeasurementSyntax(
                        f"two fractions in a row at {_clip(repr(tok))}",
                        ParseDiagnostic(1, col, "two fractions in a row", tok),
                    )
                frac = f
            else:
                try:
                    unit = system.unit(tok)
                except UnknownUnit as e:
                    raise UnknownUnit(
                        str(e), ParseDiagnostic(1, col, "unknown unit", tok)
                    ) from None
                if whole is None and frac is None:
                    raise MeasurementSyntax(
                        f"unit {_clip(repr(tok))} has no count",
                        ParseDiagnostic(1, col, "missing count before unit", tok),
                    )
                terms.append(Term(unit.name, whole or 0, frac or 0))
                whole = frac = None
    if whole is not None or frac is not None:
        raise MeasurementSyntax(
            f"dangling count at end of {_clip(repr(text))}",
            ParseDiagnostic(1, end + 2, "count without a unit", toks[-1]),
        )
    try:
        return MeasurementValue(system.kind, tuple(terms))
    except UnitOrderViolation as e:
        raise UnitOrderViolation(
            str(e), ParseDiagnostic(1, 1, str(e), text)
        ) from None


def peel_whole(
    v: int, recip_of: dict[int, int], wedge: bool
) -> tuple[int, tuple[int, ...]] | None:
    """(reciprocal, factors) of the regular representative ``v`` by the
    peel, as representatives, when every test reads the whole quotient.

    ``recip_of`` maps each value of a table, either side, to its
    reciprocal.  At each step the candidates are the values above 1 that
    divide the quotient, largest first; under ``wedge`` the first that is
    also a wedge suffix of it wins, else the first.  The quotient that is
    in the table ends the run, and the reciprocal is the canonical
    product of the factors' reciprocals.  None when no value divides a
    quotient.
    """
    order = sorted((t for t in recip_of if t > 1), reverse=True)
    factors = []
    while v not in recip_of:
        divisors = [t for t in order if v % t == 0]
        if not divisors:
            return None
        pick = divisors[0]
        if wedge:
            pick = next((t for t in divisors if O.wedge_suffix(t, v)), pick)
        factors.append(pick)
        v //= pick
    factors.append(v)
    return O.canon(prod(recip_of[f] for f in factors)), tuple(factors)


def smooth_numbers(limit: int) -> list[int]:
    """Every 5-smooth integer from 1 to ``limit``, ascending."""
    out = []
    a = 1
    while a <= limit:
        b = a
        while b <= limit:
            c = b
            while c <= limit:
                out.append(c)
                c *= 5
            b *= 3
        a *= 2
    return sorted(out)


def spell(system: UnitSystem, t: int) -> MeasurementValue | None:
    """Canonical spelling of ``t`` twelfths of the smallest unit, or None.

    None when ``t`` is not positive or cannot be spelled.  Greedy from
    the largest unit down, preferring the largest usable fraction at
    each rung, with backtracking so a fraction is only taken when the
    remainder can still be spelled by smaller units.
    """

    def walk(i: int, rem: int) -> list[Term] | None:
        if rem == 0:
            return []
        if i == len(system.units):
            return None
        u = system.units[i]
        whole, left = divmod(rem, 12 * u.size)
        for f in u.spelling_fractions:
            part = f * u.size
            if part <= left:
                rest = walk(i + 1, left - part)
                if rest is not None:
                    return [Term(u.name, whole, f)] + rest
        if whole == 0:
            return walk(i + 1, rem)
        rest = walk(i + 1, left)
        return None if rest is None else [Term(u.name, whole)] + rest

    if t <= 0:
        return None
    terms = walk(0, t)
    if terms is None:
        return None
    return MeasurementValue(system.kind, tuple(terms))


def term_text(t: Term) -> str:
    """``str`` of a term as ``Term.__str__`` printed it before it shared
    its helper with the measurement's ``str``."""
    bits = []
    if t.whole:
        bits.append(str(t.whole))
    if t.frac:
        bits.append(_FRACTION_TEXT[t.frac])
    return " ".join(bits) + " " + t.unit


def measurement_text(m: MeasurementValue) -> str:
    """``str`` of a measurement as it printed before it rendered its
    terms in one loop: each term's ``str``, joined by spaces."""
    return " ".join(str(t) for t in m.terms)


def csv_text(header: tuple[str, ...], rows) -> str:
    """A CSV table as ``csv.writer`` writes it, one LF after each row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def two_columns(rows) -> str:
    """Two text columns, the first padded to its widest entry."""
    if not rows:
        return ""
    width = max(len(a) for a, _ in rows)
    return "\n".join(f"{a.ljust(width)}  {b}" for a, b in rows) + "\n"


def cycles_by_descent(n: FloatingNumber, system: UnitSystem):
    """``metrology._cycles`` as it walked before it started two cycles
    below the units place: descend until the magnitude is below 120
    twelfths, then climb to the first cycle that holds a reading."""
    spellable = {0, *system.units[-1].spelling_fractions}
    num = 12 * to_integer(n) * system.base.denominator
    den = system.base.numerator
    while num >= 2 * 60 * den:
        den *= 60
    while num < 2 * den or num % den or num // den % 12 not in spellable:
        num *= 60
    t = num // den
    while True:
        yield t
        t *= 60


def icbrt_corrected(v: int) -> int:
    """The floor of the cube root of the positive ``v``: integer Newton
    from above, then corrected by unit steps in both directions."""
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
