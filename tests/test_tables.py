import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

import mesomath.tables
from mesomath.metrology import format_metrological_table, gen_metrological_table
from mesomath.recip import reciprocal
from mesomath.spvn import FloatingNumber, from_integer, mul, to_integer
from mesomath.tables import (
    MULTIPLIERS,
    curriculum,
    format_multiplication_table,
    format_reciprocal_table,
    format_squares_table,
    gen_cube_roots_table,
    gen_multiplication_table,
    gen_reciprocal_table,
    gen_square_roots_table,
    gen_squares_table,
    multiplication_heads,
)
from mesomath.textio import parse_measurement, parse_spvn as fn
import oracle as O
import oracles


class TestReciprocalTable:
    def test_exact_content(self):
        table = gen_reciprocal_table()
        # all 27 clauses in tablet order, as the oracle copies them
        assert [(to_integer(e), to_integer(r)) for e, r in table.pairs] == list(O.STANDARD_PAIRS)
        assert len(table) == 27

    def test_every_pair_multiplies_to_one(self):
        for e, r in gen_reciprocal_table().pairs:
            assert mul(e, r) == fn("1")

    @pytest.mark.parametrize(
        "entry, want",
        [("27", "2:13:20"), ("1", "1"), ("1:4", "56:15"), ("1:21", "44:26:40")],
    )
    def test_lookup(self, entry, want):
        assert reciprocal(fn(entry), table=gen_reciprocal_table())[0] == fn(want)

    def test_lookup_reverse(self):
        # the pair list reads in both directions: 1:15 points back to 48
        assert reciprocal(fn("1:15"), table=gen_reciprocal_table())[0] == fn("48")


class TestMultiplicationTable:
    def test_multiplier_set(self):
        assert MULTIPLIERS == tuple(range(1, 21)) + (30, 40, 50)

    def test_by_nine_row_seven(self):
        t = gen_multiplication_table(fn("9"))
        assert dict(t.rows)[7] == fn("1:3")

    def test_by_nine_row_twenty_normalized(self):
        # 9 x 20 = 180 = 3 sixties, written simply "3"
        t = gen_multiplication_table(fn("9"))
        assert dict(t.rows)[20] == fn("3")
        assert dict(t.rows)[20].digits == (3,)

    def test_head_row_one(self):
        t = gen_multiplication_table(fn("44:26:40"))
        assert dict(t.rows)[1] == fn("44:26:40")

    def test_integer_oracle(self):
        for head in (fn("9"), fn("7:12"), fn("44:26:40")):
            t = gen_multiplication_table(head)
            for m, p in t.rows:
                assert p == from_integer(to_integer(head) * m)

    def test_division_table_reading(self):
        # the table by 44:26:40 doubles as a division table by 1:21
        t = gen_multiplication_table(fn("44:26:40"))
        for m, p in t.rows:
            assert mul(p, fn("1:21")) == from_integer(m)


class TestSquaresAndRoots:
    def test_squares_row_12(self):
        rows = dict(gen_squares_table())
        assert rows[12] == fn("2:24")

    def test_squares_full_oracle(self):
        for n, s in gen_squares_table():
            assert s == from_integer(n * n)

    def test_square_roots_inversion(self):
        rows = {str(sq): n for sq, n in gen_square_roots_table()}
        assert rows["2:24"] == 12
        assert len(rows) == 59

    def test_square_roots_are_the_squares_inverted(self):
        assert gen_square_roots_table() == tuple((s, n) for n, s in gen_squares_table())

    def test_cube_roots_row_8(self):
        rows = {str(c): n for c, n in gen_cube_roots_table()}
        assert rows["8"] == 2

    def test_cube_roots_oracle(self):
        for c, n in gen_cube_roots_table():
            assert c == from_integer(n**3)


class TestCurriculum:
    def test_reciprocal_table_first(self):
        assert curriculum()[0].kind == "reciprocal"

    def test_position_three(self):
        assert curriculum()[3].head == fn("44:26:40")

    def test_thirty_eight_heads(self):
        heads = multiplication_heads()
        assert len(heads) == 38
        assert heads[0] == fn("50")
        assert heads[-1] == fn("1:15")
        # repaired tokens sit in their descending slots
        assert fn("16:40") in heads and fn("12:30") in heads

    def test_heads_strictly_descending(self):
        heads = multiplication_heads()
        keys = [h.digits for h in heads]
        assert all(a > b for a, b in zip(keys, keys[1:]))

    def test_tail_is_roots(self):
        kinds = [e.kind for e in curriculum()[-3:]]
        assert kinds == ["squares", "square-roots", "cube-roots"]
        assert len(curriculum()) == 42


def _counted(monkeypatch):
    """Count the numbers ``tables`` converts and the tables it writes."""
    calls = {"from_integer": 0, "_write": 0}

    def counter(name):
        real = getattr(mesomath.tables, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(mesomath.tables, name, counted)

    counter("from_integer")
    counter("_write")
    return calls


def _held():
    """The tables and the texts the curriculum store holds."""
    slots = mesomath.tables._curriculum_store().values()
    return sum(None in s for s in slots), sum(len(s) - (None in s) for s in slots)


@pytest.fixture
def fresh_store():
    mesomath.tables._curriculum_store.cache_clear()
    yield
    mesomath.tables._curriculum_store.cache_clear()


_CONSTANT = [
    gen_reciprocal_table,
    gen_squares_table,
    gen_cube_roots_table,
    multiplication_heads,
    curriculum,
    pytest.param(lambda: format_squares_table("text"), id="format_squares_text"),
    pytest.param(lambda: format_squares_table("csv"), id="format_squares_csv"),
    pytest.param(
        lambda: format_reciprocal_table(gen_reciprocal_table(), "text"), id="format_recip_text"
    ),
    pytest.param(
        lambda: format_reciprocal_table(gen_reciprocal_table(), "csv"), id="format_recip_csv"
    ),
    pytest.param(lambda: gen_multiplication_table(fn("7:12")).rows, id="mult_rows"),
    pytest.param(
        lambda: format_multiplication_table(gen_multiplication_table(fn("7:12")), "text"),
        id="format_mult_text",
    ),
    pytest.param(
        lambda: format_multiplication_table(gen_multiplication_table(fn("7:12")), "csv"),
        id="format_mult_csv",
    ),
]


class TestConstantTables:
    @pytest.mark.parametrize("gen", _CONSTANT)
    def test_built_once(self, gen, monkeypatch):
        first = gen()
        calls = _counted(monkeypatch)
        # a second call converts no number and writes no table
        assert gen() is first
        assert calls == {"from_integer": 0, "_write": 0}

    def test_a_curriculum_table_keeps_the_callers_head(self):
        for head in (fn("7:12"), fn("7:12:0"), from_integer(432)):
            t = gen_multiplication_table(head)
            assert t.head is head
            assert t.rows is gen_multiplication_table(fn("7:12")).rows

    def test_one_head_builds_one_table(self, fresh_store, monkeypatch):
        calls = _counted(monkeypatch)
        t = gen_multiplication_table(fn("9"))
        assert calls["from_integer"] == len(MULTIPLIERS)
        assert _held() == (1, 0)
        format_multiplication_table(t, "csv")
        assert _held() == (1, 1)
        gen_multiplication_table(fn("9"))
        assert calls["from_integer"] == len(MULTIPLIERS)

    def test_a_head_outside_the_curriculum_is_built_every_time(self, monkeypatch):
        head = fn("11")
        assert head not in multiplication_heads()
        calls = _counted(monkeypatch)
        for n in (1, 2):
            t = gen_multiplication_table(head)
            for fmt in ("text", "csv"):
                format_multiplication_table(t, fmt)
            assert calls == {"from_integer": n * len(MULTIPLIERS), "_write": 2 * n}
        assert gen_multiplication_table(head).rows is not t.rows

    def test_other_rows_are_rendered_as_they_are(self):
        # the stored text is for the stored rows only: a table built by
        # hand under a curriculum head prints its own rows
        nine, eleven = gen_multiplication_table(fn("9")), gen_multiplication_table(fn("11"))
        for fmt in ("text", "csv"):
            format_multiplication_table(nine, fmt)  # the stored text
        mixed = mesomath.tables.MultiplicationTable(nine.head, eleven.rows)
        assert format_multiplication_table(mixed) == format_multiplication_table(eleven)
        assert format_multiplication_table(mixed, "csv") == format_multiplication_table(
            eleven, "csv"
        ).replace("\n11,", "\n9,")
        copied = mesomath.tables.MultiplicationTable(nine.head, tuple(list(nine.rows)))
        for fmt in ("text", "csv"):
            assert format_multiplication_table(copied, fmt) == format_multiplication_table(nine, fmt)

    def test_the_store_holds_the_curriculum_only(self, fresh_store):
        rng = random.Random(7)
        heads = multiplication_heads()
        for _ in range(200):
            if rng.random() < 0.3:
                head = rng.choice(heads)
            else:
                head = from_integer(rng.randrange(1, 60**4))
            t = gen_multiplication_table(head)
            for fmt in ("text", "csv"):
                format_multiplication_table(t, fmt)
        tables, texts = _held()
        assert 0 < tables <= 38 and 0 < texts <= 76
        assert set(mesomath.tables._curriculum_store()) == {to_integer(h) for h in heads}

    def test_squares_formatted_from_the_one_table(self, monkeypatch):
        gen_squares_table()
        calls = []

        def counted(v):
            calls.append(v)
            return from_integer(v)

        monkeypatch.setattr(mesomath.tables, "from_integer", counted)
        for fmt in ("text", "csv"):
            format_squares_table(fmt)
        gen_square_roots_table()
        assert calls == []
        # the counter does count: a multiplication table by a head outside
        # the curriculum converts each row
        gen_multiplication_table(fn("11"))
        assert len(calls) == len(MULTIPLIERS)


class TestEmitters:
    def test_text_deterministic(self):
        a = format_reciprocal_table(gen_reciprocal_table())
        b = format_reciprocal_table(gen_reciprocal_table())
        assert a == b
        assert a.splitlines()[0] == "2     30"

    def test_mult_csv(self):
        out = format_multiplication_table(gen_multiplication_table(fn("9")), "csv")
        lines = out.splitlines()
        assert lines[0] == "head,multiplier,product"
        assert "9,7,1:3" in lines
        assert "9,20,3" in lines

    def test_unknown_format_is_refused(self):
        # no other format falls back to text, and none is kept in the
        # squares table's cache
        one, two = (parse_measurement(t, "L") for t in ("1 ninda", "2 ninda"))
        emitters = [
            lambda fmt: format_reciprocal_table(gen_reciprocal_table(), fmt),
            lambda fmt: format_multiplication_table(gen_multiplication_table(fn("9")), fmt),
            format_squares_table,
            lambda fmt: format_metrological_table(gen_metrological_table("L", one, two), fmt),
        ]
        for emit in emitters:
            for fmt in ("CSV", "", "txt"):
                with pytest.raises(ValueError, match="unknown table format"):
                    emit(fmt)
        assert format_squares_table.cache_info().currsize <= 2
        assert mesomath.tables._standard_reciprocal_text.cache_info().currsize <= 2
        for held in mesomath.tables._curriculum_store().values():
            assert set(held) <= {None, "text", "csv"}


class TestEmittersMatchOracles:
    # each emitter against csv.writer and the generator-padded columns

    def test_reciprocal_table(self):
        t = gen_reciprocal_table()
        rows = [(str(e), str(r)) for e, r in t.pairs]
        assert format_reciprocal_table(t) == oracles.two_columns(rows)
        assert format_reciprocal_table(t, "csv") == oracles.csv_text(("entry", "reciprocal"), rows)

    @staticmethod
    def _check_mult(head):
        t = gen_multiplication_table(head)
        assert format_multiplication_table(t) == oracles.two_columns(
            [(str(m), str(p)) for m, p in t.rows]
        )
        assert format_multiplication_table(t, "csv") == oracles.csv_text(
            ("head", "multiplier", "product"), [(str(head), m, str(p)) for m, p in t.rows]
        )

    def test_every_head(self):
        for head in multiplication_heads():
            self._check_mult(head)

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.integers(0, 59), min_size=1, max_size=60).filter(any))
    def test_drawn_heads(self, digits):
        self._check_mult(FloatingNumber(digits))

    def test_squares(self):
        rows = gen_squares_table()
        assert format_squares_table() == oracles.two_columns([(str(n), str(s)) for n, s in rows])
        assert format_squares_table("csv") == oracles.csv_text(
            ("n", "square"), [(n, str(s)) for n, s in rows]
        )


def test_curriculum_tables_pinned():
    # every multiplication, square and root table in both formats, hashed
    parts = [format_squares_table(fmt) for fmt in ("text", "csv")]
    for head in multiplication_heads():
        t = gen_multiplication_table(head)
        parts += [format_multiplication_table(t, fmt) for fmt in ("text", "csv")]
    for rows in (gen_square_roots_table(), gen_cube_roots_table()):
        parts.append("".join(f"{p} {n}\n" for p, n in rows))
    digest = hashlib.sha256("".join(parts).encode()).hexdigest()[:16]
    assert digest == "28449b4502008f63"
