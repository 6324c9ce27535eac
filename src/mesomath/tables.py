"""Generators for the elementary numerical curriculum.

The standard reciprocal table, multiplication tables, squares and root
tables, and the ordered list a student worked through.  Everything is a
pure generator over the spvn core, so outputs are deterministic and the
text/CSV emitters are diff-stable.  Each curriculum table is built once
per process, on first use, and each text it prints is rendered once per
format: the tables that take no input (the reciprocal, squares and
cube-roots tables, the heads and the curriculum) and the multiplication
table of each of the 38 curriculum heads, stored by the head's canonical
integer.  The square roots are read off the squares table on each call,
converting no number.  Any other head's table, or a variant reciprocal
table, is built and printed on every call; nothing is built at import.
Every two-column table, here and in ``metrology``, is written by
``_write`` from its printed rows: a CSV row is one f-string with no
``csv`` module, since digits, integers, fraction names and unit names
(which ``UnitSystem`` holds free of whitespace, commas and quotes) hold
no character that needs quoting.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from .recip import ElementaryTable
from .spvn import FloatingNumber, from_integer, to_integer

# The standard table: reciprocals of the regular one-place numbers plus
# the frequent two-place entries 1:4 and 1:21.  The "1" row follows 54,
# standing for sixty on the tablets; floating, it is just 1.
_RECIPROCAL_ROWS = (
    ((2,), (30,)),
    ((3,), (20,)),
    ((4,), (15,)),
    ((5,), (12,)),
    ((6,), (10,)),
    ((8,), (7, 30)),
    ((9,), (6, 40)),
    ((10,), (6,)),
    ((12,), (5,)),
    ((15,), (4,)),
    ((16,), (3, 45)),
    ((18,), (3, 20)),
    ((20,), (3,)),
    ((24,), (2, 30)),
    ((25,), (2, 24)),
    ((27,), (2, 13, 20)),
    ((30,), (2,)),
    ((32,), (1, 52, 30)),
    ((36,), (1, 40)),
    ((40,), (1, 30)),
    ((45,), (1, 20)),
    ((48,), (1, 15)),
    ((50,), (1, 12)),
    ((54,), (1, 6, 40)),
    ((1,), (1,)),
    ((1, 4), (56, 15)),
    ((1, 21), (44, 26, 40)),
)

#: Multipliers of every multiplication table: 1..20, then 30, 40, 50.
#: Surviving copies show the table through 20; the three tens rows are
#: the standard continuation of the format (reconstruction).
MULTIPLIERS = tuple(range(1, 21)) + (30, 40, 50)

# Head numbers of the multiplication series, in curriculum order,
# strictly descending when read as leading-digit magnitudes.
_HEAD_STRINGS = (
    "50", "45", "44:26:40", "40", "36", "30", "25", "24", "22:30", "20",
    "18", "16:40", "16", "15", "12:30", "12", "10", "9", "8:20", "8",
    "7:30", "7:12", "7", "6:40", "6", "5", "4:30", "4", "3:45", "3:20",
    "3", "2:30", "2:24", "2", "1:40", "1:30", "1:20", "1:15",
)


@lru_cache(maxsize=None)
def gen_reciprocal_table() -> ElementaryTable:
    """The 27 standard reciprocal pairs, in tablet order."""
    return ElementaryTable(
        (FloatingNumber(e), FloatingNumber(r)) for e, r in _RECIPROCAL_ROWS
    )


class MultiplicationTable(NamedTuple):
    head: FloatingNumber
    rows: tuple[tuple[int, FloatingNumber], ...]


def gen_multiplication_table(head: FloatingNumber) -> MultiplicationTable:
    """Products of the head by 1..20, 30, 40, 50, all normalized.

    Normalization is what the originals show: times 20, the table by 9
    reads simply "3", the same sign as three.  A curriculum head's rows
    are built once per process.
    """
    h = to_integer(head)
    held = _curriculum_store().get(h)
    if held is None:
        return MultiplicationTable(head, _products(h))
    if None not in held:
        held[None] = _products(h)
    return MultiplicationTable(head, held[None])


def _products(h: int) -> tuple[tuple[int, FloatingNumber], ...]:
    return tuple([(m, from_integer(h * m)) for m in MULTIPLIERS])


@lru_cache(maxsize=None)
def gen_squares_table() -> tuple[tuple[int, FloatingNumber], ...]:
    """n and its square for n = 1..59."""
    return tuple([(n, from_integer(n * n)) for n in range(1, 60)])


def gen_square_roots_table() -> tuple[tuple[FloatingNumber, int], ...]:
    """The squares table inverted: exact roots only."""
    return tuple([(s, n) for n, s in gen_squares_table()])


@lru_cache(maxsize=None)
def gen_cube_roots_table() -> tuple[tuple[FloatingNumber, int], ...]:
    """Cubes of 1..59 inverted to their roots."""
    return tuple((from_integer(n**3), n) for n in range(1, 60))


class CurriculumEntry(NamedTuple):
    kind: str  # "reciprocal" | "multiplication" | "squares" | "square-roots" | "cube-roots"
    head: FloatingNumber | None = None


@lru_cache(maxsize=None)
def multiplication_heads() -> tuple[FloatingNumber, ...]:
    return tuple([FloatingNumber(map(int, s.split(":"))) for s in _HEAD_STRINGS])


@lru_cache(maxsize=None)
def _curriculum_store() -> dict[int, dict]:
    """An empty slot per curriculum head, by its canonical integer: the
    head's rows go under None and its text under each format."""
    return {to_integer(h): {} for h in multiplication_heads()}


@lru_cache(maxsize=None)
def curriculum() -> tuple[CurriculumEntry, ...]:
    """The ordered series: reciprocal table, 38 multiplication tables by
    descending head, then squares, square roots, cube roots."""
    items = [CurriculumEntry("reciprocal")]
    items.extend(CurriculumEntry("multiplication", h) for h in multiplication_heads())
    items.extend(
        CurriculumEntry(kind) for kind in ("squares", "square-roots", "cube-roots")
    )
    return tuple(items)


# --- plain-text and CSV emitters -------------------------------------------

def format_two_columns(rows: Sequence[tuple[str, str]]) -> str:
    if not rows:
        return ""
    width = max([len(a) for a, _ in rows])
    return "".join([f"{a.ljust(width)}  {b}\n" for a, b in rows])


def _write(rows: Sequence[tuple[str, str]], header: str, fmt: str) -> str:
    """Printed rows as CSV under ``header``, or as two text columns."""
    if fmt == "csv":
        return header + "".join([f"{a},{b}\n" for a, b in rows])
    if fmt == "text":
        return format_two_columns(rows)
    raise ValueError(f"unknown table format {fmt!r}")


def format_reciprocal_table(table: ElementaryTable, fmt: str = "text") -> str:
    """The standard table's text is rendered once per format; a variant
    table's on every call."""
    if table is gen_reciprocal_table():
        return _standard_reciprocal_text(fmt)
    return _render_reciprocal(table, fmt)


@lru_cache(maxsize=None)
def _standard_reciprocal_text(fmt: str) -> str:
    return _render_reciprocal(gen_reciprocal_table(), fmt)


def _render_reciprocal(table: ElementaryTable, fmt: str) -> str:
    return _write([(str(e), str(r)) for e, r in table.pairs], "entry,reciprocal\n", fmt)


def format_multiplication_table(t: MultiplicationTable, fmt: str = "text") -> str:
    """A curriculum head's text is rendered once per format, when ``t``
    holds the stored rows; any other table is rendered on every call."""
    held = _curriculum_store().get(to_integer(t.head))
    if held is None or held.get(None) is not t.rows:
        return _render_multiplication(t, fmt)
    text = held.get(fmt)
    if text is None:
        text = held[fmt] = _render_multiplication(t, fmt)
    return text


def _render_multiplication(t: MultiplicationTable, fmt: str) -> str:
    # a CSV row's first printed column is the head and the multiplier
    head = f"{t.head}," if fmt == "csv" else ""
    return _write(
        [(f"{head}{m}", str(p)) for m, p in t.rows], "head,multiplier,product\n", fmt
    )


@lru_cache(maxsize=None)
def format_squares_table(fmt: str = "text") -> str:
    return _write([(str(n), str(s)) for n, s in gen_squares_table()], "n,square\n", fmt)
