import hashlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from mesomath.errors import (
    AmbiguousReading,
    BadFraction,
    EmptyInput,
    MeasurementSyntax,
    NoReading,
    ReadingTooLong,
    UnitOrderViolation,
)
from mesomath.metrology import (
    ALLOWED_FRACTIONS,
    SYSTEMS,
    AnchorHint,
    MeasurementValue,
    MetrologicalTable,
    Term,
    Unit,
    UnitSystem,
    Window,
    enumerate_readings,
    format_metrological_table,
    from_number,
    gen_metrological_table,
    get_system,
    _FRACTION_TEXT,
    _cycles,
    _number,
    _spell,
    to_number,
)
from mesomath.spvn import FloatingNumber, from_integer, mul, to_integer
from mesomath.textio import parse_measurement, parse_spvn as fn
import oracle as O
import oracles


def m(text, system):
    return parse_measurement(text, system)


def window(lo, hi, system):
    return Window(m(lo, system), m(hi, system))


# The length-table extract, 1 shu-si through 2 kush: eighteen rows.
LENGTH_EXTRACT = [
    ("1 šu-si", "10"),
    ("2 šu-si", "20"),
    ("3 šu-si", "30"),
    ("4 šu-si", "40"),
    ("5 šu-si", "50"),
    ("6 šu-si", "1"),
    ("7 šu-si", "1:10"),
    ("8 šu-si", "1:20"),
    ("9 šu-si", "1:30"),
    ("1/3 kuš", "1:40"),
    ("1/2 kuš", "2:30"),
    ("2/3 kuš", "3:20"),
    ("5/6 kuš", "4:10"),
    ("1 kuš", "5"),
    ("1 1/3 kuš", "6:40"),
    ("1 1/2 kuš", "7:30"),
    ("1 2/3 kuš", "8:20"),
    ("2 kuš", "10"),
]

# Each system's whole ladder: range, row count, and the leading sixteen
# hex digits of the sha256 of its text table.
FULL_LADDERS = {
    "L": ("1 šu-si", "59 danna", 165, "6aef77c977f22d52"),
    "Lh": ("1 šu-si", "59 danna", 165, "f8886f239b98af92"),
    "W": ("1/2 še", "59 gu", 211, "f4ef739e58d9ce68"),
    "S": ("1/2 še", "59 bur", 188, "0eac659631a64f44"),
    "C": ("1 sila", "59 gur", 86, "8371c52a3d6c9d48"),
}


def full_ladder(system):
    lo, hi, _, _ = FULL_LADDERS[system]
    return gen_metrological_table(system, m(lo, system), m(hi, system))


class TestMeasurementValueRefusals:
    """The validating constructor refuses each malformed term list."""

    @pytest.mark.parametrize(
        "terms, message",
        [
            # the id keeps the row's first message
            pytest.param(
                (), "empty measurement", id="terms0-a measurement needs at least one term"
            ),
            ((Term("kuš", 1, 5),), "fraction 5/12 of 'kuš' not allowed"),
            ((Term("ninda", 1, 1),), "fraction 1/12 of 'ninda' not allowed"),
            ((Term("kuš", 1), Term("ninda", 1)), "units out of descending order at 'ninda'"),
            ((Term("ninda", 0),), "count of 'ninda' must be positive"),
            ((Term("ninda", -1, 6),), "count of 'ninda' must be positive"),
        ],
    )
    def test_refusal(self, terms, message):
        # no term is EmptyInput and a disallowed fraction BadFraction, as
        # the parser refuses them
        cls = BadFraction if message.startswith("fraction") else UnitOrderViolation
        cls = EmptyInput if not terms else cls
        with pytest.raises(cls) as e:
            MeasurementValue("L", terms)
        assert type(e.value) is cls and str(e.value) == message

    @pytest.mark.parametrize(
        "term",
        [Term("ninda", 1.5), Term("ninda", 1, 6.0), Term("ninda", "1"), Term("ninda", None)],
    )
    def test_count_must_be_an_integer(self, term):
        with pytest.raises(MeasurementSyntax) as e:
            MeasurementValue("L", (term,))
        assert str(e.value) == "count of 'ninda' must be an integer"


class TestMeasurementValueIsCanonical:
    """The constructor builds the measurement its text parses to."""

    @pytest.mark.parametrize(
        "system, terms, text",
        [
            ("L", (Term("kush", 1),), "1 kush"),
            ("L", (Term("ush", 2), Term("kush", 1, 6), Term("szu-si", 3)),
             "2 uš 1 1/2 kuš 3 šu-si"),
            ("W", (Term("sze", 0, 6),), "1/2 she"),
        ],
    )
    def test_alias_is_kept_as_the_unit_name(self, system, terms, text):
        built = MeasurementValue(system, terms)
        parsed = parse_measurement(text, system)
        assert built == parsed and hash(built) == hash(parsed)
        assert built.terms == parsed.terms and str(built) == str(parsed)

    def test_integer_like_counts_are_kept_as_integers(self):
        built = MeasurementValue("L", (Term("ninda", True, 6),))
        assert built == parse_measurement("1 1/2 ninda", "L")
        assert type(built.terms[0].whole) is int and built.twelfths == 18 * 360


class TestToNumber:
    @pytest.mark.parametrize(
        "text, system, want",
        [
            ("2 shu-si", "L", "20"),
            ("1 1/2 ninda", "L", "1:30"),
            ("1/2 ninda", "Lh", "6"),
            ("6 she", "W", "2"),
            ("1/3 kush", "L", "1:40"),
            ("2/3 sar 5 gin", "S", "45"),
            ("5 ninda", "L", "5"),
            ("9 gin", "W", "9"),
            ("10 gin", "S", "10"),
            ("1 kush", "Lh", "1"),
            ("2 1/4 she", "S", "45"),
        ],
    )
    def test_attested_rows(self, text, system, want):
        assert to_number(m(text, system)) == fn(want)

    def test_additive_over_terms(self):
        # 1/2 kush 3 shu-si is 15 + 3 shu-si, so 18 * 10 = 180 -> 3
        assert to_number(m("1/2 kush 3 shu-si", "L")) == fn("3")

    def test_capacity_base(self):
        assert to_number(m("1 sila", "C")) == fn("1")
        assert to_number(m("1 ban", "C")) == fn("10")
        assert to_number(m("1 gur", "C")) == fn("5")


class TestUnitFactorConsistency:
    """Cross-checks that pin every ladder factor to attested rows."""

    def test_kush_is_thirty_shusi(self):
        # 1 kush -> 5 and 1 shu-si -> 10 force 1 kush = 30 shu-si
        assert to_number(m("1 kush", "L")) == fn("5")
        assert to_number(m("1 shu-si", "L")) == fn("10")
        assert get_system("L").unit("kuš").size == 30

    def test_ninda_is_twelve_kush(self):
        # 1/2 ninda -> 6 in heights with 1 kush -> 1 forces 1 ninda = 12 kush
        assert to_number(m("1/2 ninda", "Lh")) == fn("6")
        assert to_number(m("1 kush", "Lh")) == fn("1")
        assert get_system("Lh").unit("ninda").size == 12 * 30

    def test_gin_is_180_she(self):
        # 6 she -> 2 with 9 gin -> 9 forces 1 gin = 180 she
        assert to_number(m("6 she", "W")) == fn("2")
        assert to_number(m("9 gin", "W")) == fn("9")
        assert get_system("W").unit("gin").size == 180

    def test_surface_ladder(self):
        sys = get_system("S")
        assert sys.unit("sar").size == 60 * 180
        assert sys.unit("gan").size == 100 * sys.unit("sar").size
        assert sys.unit("eše").size == 6 * sys.unit("gan").size
        assert sys.unit("bur").size == 18 * sys.unit("gan").size


class TestFromNumber:
    def test_depth_reading(self):
        assert from_number(fn("6"), "Lh", window("1 kush", "2 ninda", "Lh")) == m(
            "1/2 ninda", "Lh"
        )

    def test_surface_reading(self):
        assert from_number(fn("6:40"), "S", window("1/6 she", "1 she", "S")) == m(
            "1/3 she", "S"
        )

    def test_length_reading(self):
        assert from_number(fn("5"), "L", window("1 ninda", "10 ninda", "L")) == m(
            "5 ninda", "L"
        )

    def test_tablet_scale_surface(self):
        assert from_number(fn("45"), "S", window("1 she", "10 she", "S")) == m(
            "2 1/4 she", "S"
        )

    def test_ambiguous_window(self):
        # 3 shu-si and 1/2 ninda both answer to 6 in the height table, and
        # both sit inside [1 shu-si, 2 ninda]; the reading must refuse.
        with pytest.raises(AmbiguousReading):
            from_number(fn("6"), "Lh", window("1 shu-si", "2 ninda", "Lh"))

    def test_no_reading(self):
        with pytest.raises(NoReading):
            from_number(fn("7"), "L", window("1 ninda", "2 ninda", "L"))

    def test_wide_she_to_gin_window_catches_next_cycle(self):
        # one cycle up from 1/3 she, the same digits read as 20 she; a
        # window starting at 1 she selects that reading, not 1/3 she
        got = from_number(fn("6:40"), "S", window("1 she", "1 gin", "S"))
        assert got == m("20 she", "S")

    def test_window_in_another_system_refused(self):
        # 1..2 gin counts še, not šu-si; comparing the two would read 1 ninda
        with pytest.raises(MeasurementSyntax, match="system W, not L"):
            from_number(fn("1"), "L", window("1 gin", "2 gin", "W"))

    def test_anchor_hint(self):
        assert from_number(fn("6"), "Lh", AnchorHint(0)) == m("1/2 ninda", "Lh")
        assert from_number(fn("5"), "L", AnchorHint(0)) == m("5 ninda", "L")

    def test_anchor_hint_no_reading(self):
        with pytest.raises(NoReading):
            from_number(fn("7"), "W", AnchorHint(-3))


class TestBoundedMessages:
    """A refused reading's message stays short whatever the input."""

    def test_thousands_of_readings(self):
        # 3 has a reading in every cycle from 1/2 kuš 3 šu-si up, and the
        # window's top is 4,000 nines of danna: thousands of cycles
        w = window("1 shu-si", "9" * 4000 + " danna", "L")
        first = enumerate_readings(fn("3"), "L", 1)[0].twelfths
        count = 0
        while first * 60**count <= w.hi.twelfths:
            count += 1
        assert count > 2000
        t0 = time.perf_counter()
        with pytest.raises(AmbiguousReading) as e:
            from_number(fn("3"), "L", w)
        assert time.perf_counter() - t0 < 0.5
        msg = str(e.value)
        assert len(msg.encode()) < 1024
        assert msg.startswith(f"{count} readings of 3 in L within 1 šu-si .. 99999")
        assert msg.endswith(
            ": 1/2 kuš 3 šu-si; 3 ninda; 3 uš; 6 danna; 360 danna; 21600 danna; …"
        )

    def test_six_readings_are_all_listed(self):
        # the widest window of the surface table holds six readings of 20
        with pytest.raises(AmbiguousReading) as e:
            from_number(fn("20"), "S", window("1/6 she", "59 bur", "S"))
        assert str(e.value) == (
            "6 readings of 20 in S within 1/6 še .. 59 bur:"
            " 1 še; 1/3 gin; 1/3 sar; 20 sar; 2 eše; 40 bur"
        )

    def test_long_operands_are_clipped(self):
        n = fn(":".join(["7"] * 100))
        with pytest.raises(AmbiguousReading) as e:
            from_number(n, "L", window("1 ninda", "9" * 300 + " danna", "L"))
        msg = str(e.value)
        assert len(msg.encode()) < 1024
        echo = "7:7:7:7:7:7:7:7:7:7:7:7:…:7:7:7:7:7:7:7:7:7:7:7:7 (199 characters)"
        assert msg.partition(" readings of ")[2].startswith(f"{echo} in L within 1 ninda .. ")
        assert msg.endswith("; …")
        with pytest.raises(NoReading) as e:
            from_number(n, "L", AnchorHint(-400))
        assert str(e.value) == f"{echo} at e-400 is not expressible in L"


class TestEnumerateReadings:
    def test_three_in_lengths(self):
        got = [str(x) for x in enumerate_readings(fn("3"), "L", 4)]
        assert got == ["1/2 kuš 3 šu-si", "3 ninda", "3 uš", "6 danna"]

    def test_six_in_heights(self):
        # the 240 m step in the traditional list breaks the sixty-fold
        # cycle; exact arithmetic forces 30 ninda (= 180 m) there.
        got = [str(x) for x in enumerate_readings(fn("6"), "Lh", 4)]
        assert got == ["3 šu-si", "1/2 ninda", "30 ninda", "1 danna"]
        assert to_number(m("40 ninda", "Lh")) == fn("8")
        assert to_number(m("30 ninda", "Lh")) == fn("6")

    def test_one_in_lengths(self):
        got = [str(x) for x in enumerate_readings(fn("1"), "L", 4)]
        assert got == ["6 šu-si", "1 ninda", "1 uš", "2 danna"]

    def test_readings_map_back(self):
        for n in (fn("3"), fn("45"), fn("7:30"), fn("1")):
            for system in ("L", "Lh", "S", "W", "C"):
                for r in enumerate_readings(n, system, 5):
                    assert to_number(r) == n

    def test_surface_ladder_of_45(self):
        got = [str(x) for x in enumerate_readings(fn("45"), "S", 7)]
        assert got == [
            "2 1/4 še",
            "2/3 gin 15 še",
            "2/3 sar 5 gin",
            "45 sar",
            "1 bur 1 eše 3 gan",
            "90 bur",
            "5400 bur",
        ]
        # numeric pins for the city- and region-scale rows
        values = [x.value() for x in enumerate_readings(fn("45"), "S", 7)]
        sar = get_system("S").unit("sar").size
        assert values[4] == 2700 * sar
        assert values[6] == 9720000 * sar


class TestTableGeneration:
    def test_length_extract_rows(self):
        t = gen_metrological_table("L", m("1 shu-si", "L"), m("2 kush", "L"))
        got = [(str(mm), str(n)) for mm, n in t.rows]
        assert got == LENGTH_EXTRACT
        assert len(t) == 18

    def test_bounds_in_another_system_refused(self):
        with pytest.raises(MeasurementSyntax, match="system W, not L"):
            gen_metrological_table("L", m("1 gin", "W"), m("2 gin", "W"))
        with pytest.raises(MeasurementSyntax, match="system L, not Lh"):
            gen_metrological_table("Lh", m("1 kush", "Lh"), m("2 kush", "L"))

    def test_single_row_height(self):
        t = gen_metrological_table("Lh", m("1 kush", "Lh"), m("1 kush", "Lh"))
        assert [(str(mm), str(n)) for mm, n in t.rows] == [("1 kuš", "1")]

    def test_single_row_weight(self):
        t = gen_metrological_table("W", m("9 gin", "W"), m("9 gin", "W"))
        assert [(str(mm), str(n)) for mm, n in t.rows] == [("9 gin", "9")]

    def test_rows_strictly_increasing(self):
        for system, lo, hi in (
            ("L", "1 shu-si", "2 danna"),
            ("W", "1 she", "2 gu"),
            ("S", "1 she", "2 bur"),
            ("C", "1 sila", "2 gur"),
        ):
            t = gen_metrological_table(system, m(lo, system), m(hi, system))
            vals = [mm.value() for mm, _ in t.rows]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert len(t) > 20

    def test_round_trip_over_rows(self):
        # every generated row reads back to itself inside a tight window,
        # and survives the text round trip
        for system, lo, hi in (
            ("L", "1 shu-si", "1 uš"),
            ("Lh", "1 shu-si", "1 uš"),
            ("W", "1 she", "2 ma-na"),
            ("S", "1 she", "2 gan"),
            ("C", "1 sila", "2 gur"),
        ):
            t = gen_metrological_table(system, m(lo, system), m(hi, system))
            for mm, n in t.rows:
                assert from_number(n, system, Window(mm, mm)) == mm
                assert parse_measurement(str(mm), system) == mm

    def test_text_format(self):
        t = gen_metrological_table("L", m("1 shu-si", "L"), m("2 kush", "L"))
        lines = format_metrological_table(t).splitlines()
        assert lines[0] == "1 šu-si    10"
        assert lines[9] == "1/3 kuš    1:40"
        assert lines[-1] == "2 kuš      10"

    def test_csv_format(self):
        t = gen_metrological_table("L", m("1 shu-si", "L"), m("2 kush", "L"))
        out = format_metrological_table(t, "csv")
        assert out.splitlines()[0] == "measurement,number"
        assert "1/2 kuš,2:30" in out.splitlines()


class TestFullLadders:
    @pytest.mark.parametrize("system", sorted(FULL_LADDERS))
    def test_text_table_pinned(self, system):
        _, _, rows, digest = FULL_LADDERS[system]
        t = full_ladder(system)
        text = format_metrological_table(t)
        assert len(t) == rows
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    @staticmethod
    def _check_emitter(t):
        assert format_metrological_table(t) == oracles.two_columns(t.texts)
        assert format_metrological_table(t, "csv") == oracles.csv_text(
            ("measurement", "number"), t.texts
        )

    @pytest.mark.parametrize("system", sorted(FULL_LADDERS))
    def test_emitter_matches_the_oracles(self, system):
        t = full_ladder(system)
        for i, j in ((0, len(t)), (0, 0), (len(t), len(t)), (7, 7)):
            self._check_emitter(MetrologicalTable(system, t.rows[i:j], t.texts[i:j]))

    @settings(deadline=None, max_examples=300)
    @given(st.sampled_from(sorted(FULL_LADDERS)), st.data())
    def test_drawn_slices_match_the_oracles(self, system, data):
        t = full_ladder(system)
        i = data.draw(st.integers(0, len(t)))
        j = data.draw(st.integers(i, len(t)))
        self._check_emitter(MetrologicalTable(system, t.rows[i:j], t.texts[i:j]))

    @pytest.mark.parametrize("system", sorted(FULL_LADDERS))
    def test_rows_ascending_and_canonical(self, system):
        # every row is the canonical spelling of its own magnitude, so a
        # ladder is fixed by its magnitudes alone
        t = full_ladder(system)
        values = [mm.value() for mm, _ in t.rows]
        assert all(a < b for a, b in zip(values, values[1:]))
        for mm, n in t.rows:
            assert mm.system == system
            assert _spell(get_system(system), mm.twelfths) == mm
            assert to_number(mm) == n


class TestVolumes:
    def test_surface_times_depth(self):
        assert mul(fn("7:30"), fn("6")) == fn("45")

    def test_unit_height(self):
        assert mul(fn("12:30"), fn("1")) == fn("12:30")

    def test_oracle(self):
        assert mul(fn("1:30"), fn("2")) == fn("3")


class TestFractionBridge:
    def test_smooth_denominator(self):
        assert O.split(Fraction(1, 3))[0] == to_integer(fn("20"))
        assert O.split(Fraction(10, 3))[0] == to_integer(fn("3:20"))
        with pytest.raises(ValueError, match="no finite base-sixty form"):
            O.split(Fraction(1, 7))

    def test_cannot_be_inexact_from_allowed_set(self):
        for system in SYSTEMS.values():
            for k in ALLOWED_FRACTIONS:
                O.split(Fraction(k, 12) * system.base)  # raises when inexact


def test_fractions_are_twelfths_and_sizes_whole():
    # the two facts that make every magnitude a whole count of twelfths:
    # each fraction is kept as the twelfths its printed name stands for,
    # and each unit is a whole number of smallest units
    assert ALLOWED_FRACTIONS == set(_FRACTION_TEXT)
    for k, text in _FRACTION_TEXT.items():
        assert Fraction(text) * 12 == k
    for system in SYSTEMS.values():
        for u in system.units:
            assert type(u.size) is int and u.size > 0


_FRACTIONS = tuple(
    Fraction(f) for f in ("0", "1/6", "1/4", "1/3", "1/2", "2/3", "5/6")
)


@st.composite
def measured(draw):
    """A measurement and its exact magnitude in smallest units, summed
    with Fractions from the drawn counts."""
    system = draw(st.sampled_from(sorted(SYSTEMS)))
    units = get_system(system).units
    picked = draw(st.sets(st.integers(0, len(units) - 1), min_size=1))
    terms, exact = [], Fraction(0)
    for i in sorted(picked):
        f = draw(st.sampled_from(_FRACTIONS))
        whole = draw(st.integers(0 if f else 1, 10**6))
        terms.append(Term(units[i].name, whole, int(12 * f)))
        exact += (whole + f) * units[i].size
    return MeasurementValue(system, tuple(terms)), exact


@settings(deadline=None, max_examples=300)
@given(measured())
def test_twelfths_against_fraction_oracle(pair):
    mm, exact = pair
    assert mm.twelfths == 12 * exact
    assert mm.value() == exact
    assert parse_measurement(str(mm), mm.system) == mm


def test_magnitudes_build_and_compare_no_fraction():
    # a measurement's magnitude, a parsed fraction and a slice of an
    # expanded ladder are integer work; the control shows the hook sees
    # Fraction work
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from mesomath.metrology import MeasurementValue as M, Term, gen_metrological_table\n"
        "from mesomath.textio import parse_measurement\n"
        "lo, hi = M('L', (Term('šu-si', 1),)), M('L', (Term('danna', 59),))\n"
        "terms = (Term('ninda', 2, 6), Term('kuš', 3))\n"
        "assert len(gen_metrological_table('L', lo, hi)) == 165\n"
        "seen = []\n"
        "def hook(frame, event, arg):\n"
        "    code = frame.f_code\n"
        "    if event == 'call' and code.co_filename.endswith('fractions.py')"
        " and code.co_name in ('__new__', '_richcmp'):\n"
        "        seen.append(code.co_name)\n"
        "sys.setprofile(hook)\n"
        "M('L', terms)\n"
        "parse_measurement('1 1/2 ninda 3 kush', 'L')\n"
        "gen_metrological_table('L', lo, hi)\n"
        "sys.setprofile(None)\n"
        "print(sorted(set(seen)))\n"
        "seen.clear()\n"
        "sys.setprofile(hook)\n"
        "Fraction(1, 3) < 1\n"
        "sys.setprofile(None)\n"
        "print(sorted(set(seen)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["[]", "['__new__', '_richcmp']"]


def test_import_expands_no_ladder():
    # the ladders are built on first use, never while importing
    code = (
        "import sys\n"
        "spelled = []\n"
        "sys.setprofile(lambda frame, event, arg: event == 'call'"
        " and frame.f_code.co_name == '_spell' and spelled.append(1))\n"
        "import mesomath, mesomath.cli\n"
        "sys.setprofile(None)\n"
        "print(len(spelled), mesomath.metrology._ladder.cache_info().currsize)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["0", "0"]


# Reverse readings and table slices over a fixed grid, hashed: any change
# to the spelling, the cycle walk or the ladder search shows here.
PIN_NUMBERS = [str(i) for i in range(1, 60)] + [
    "1:15", "1:30", "1:40", "2:30", "3:20", "3:45", "4:10", "6:15", "6:40",
    "7:30", "8:20", "12:30", "13:20", "22:30", "1:0:1", "1:7:30", "2:13:20",
    "44:26:40",
]
PIN_WINDOWS = {
    "L": (("1 šu-si", "1 kuš"), ("1 šu-si", "2 ninda"), ("1 ninda", "1 uš"),
          ("1/6 šu-si", "59 danna")),
    "W": (("1/6 še", "1 gin"), ("1 še", "1 ma-na"), ("1 gin", "1 gu"),
          ("1/6 še", "59 gu")),
    "S": (("1/6 še", "1 gin"), ("1 še", "1 sar"), ("1 sar", "1 bur"),
          ("1/6 še", "59 bur")),
    "C": (("1/6 sila", "1 ban"), ("1 sila", "1 gur"), ("1 ban", "59 gur"),
          ("1/6 sila", "59 gur")),
}
PIN_WINDOWS["Lh"] = PIN_WINDOWS["L"]
READINGS_DIGEST = "85d63301724a919d"


def _outcome(f, *args):
    try:
        r = f(*args)
    except (NoReading, AmbiguousReading, MeasurementSyntax) as e:
        return f"{type(e).__name__}: {e}"
    return "; ".join(str(x) for x in r) if isinstance(r, tuple) else str(r)


def test_readings_and_slices_pinned():
    lines = []
    for system in sorted(FULL_LADDERS):
        for text in PIN_NUMBERS:
            n = fn(text)
            lines.append(f"{system} {text} enum {_outcome(enumerate_readings, n, system, 4)}")
            for e in range(-4, 3):
                got = _outcome(from_number, n, system, AnchorHint(e))
                lines.append(f"{system} {text} e{e} {got}")
            for lo, hi in PIN_WINDOWS[system]:
                got = _outcome(from_number, n, system, window(lo, hi, system))
                lines.append(f"{system} {text} {lo}..{hi} {got}")
        rows = [mm for mm, _ in full_ladder(system).rows]
        bounds = rows[::9] + list(enumerate_readings(fn("7"), system, 4))
        for a in bounds:
            for b in bounds[::3]:
                got = _outcome(
                    lambda: format_metrological_table(
                        gen_metrological_table(system, a, b), "csv"
                    )
                )
                lines.append(f"{system} {a}..{b} {got}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == READINGS_DIGEST


# Text tables over whole ladders and over sub-ranges whose bounds are on
# and off the ladder, hashed: any change to what a row prints shows here.
TEXT_TABLES_DIGEST = "b00c1e8c1c4567c2"


def test_text_tables_pinned():
    lines = []
    for system in sorted(FULL_LADDERS):
        lines.append(format_metrological_table(full_ladder(system)))
        rows = [mm for mm, _ in full_ladder(system).rows]
        bounds = rows[::7] + [
            r for v in ("7", "1:40", "44:26:40") for r in enumerate_readings(fn(v), system, 4)
        ]
        for a in bounds:
            for b in bounds[::4]:
                got = _outcome(
                    lambda: format_metrological_table(gen_metrological_table(system, a, b))
                )
                lines.append(f"{system} {a}..{b}\n{got}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == TEXT_TABLES_DIGEST


@settings(deadline=None, max_examples=300)
@given(measured())
def test_to_number_against_fraction_route(pair):
    mm, _ = pair
    terms = [(u, w, Fraction(f, 12)) for u, w, f in mm.terms]
    assert to_integer(to_number(mm)) == O.number_of(mm.system, terms)


@pytest.mark.parametrize("system", sorted(FULL_LADDERS))
def test_ladder_numbers_against_fraction_route(system):
    for mm, n in full_ladder(system).rows:
        assert n == to_number(mm)
        terms = [(u, w, Fraction(f, 12)) for u, w, f in mm.terms]
        assert to_integer(n) == O.number_of(mm.system, terms)


def test_formatting_and_to_number_render_and_build_nothing():
    # a table sliced from an expanded ladder prints without rendering a
    # row, and to_number is integer work; the control shows the hook sees
    # both kinds of call
    code = (
        "import sys\n"
        "from fractions import Fraction\n"
        "from mesomath.metrology import MeasurementValue as M, Term,"
        " format_metrological_table as fmt, gen_metrological_table, to_number\n"
        "from mesomath.spvn import FloatingNumber\n"
        "lo, hi = M('S', (Term('še', 1),)), M('S', (Term('bur', 59),))\n"
        "assert len(gen_metrological_table('S', lo, hi)) > 150\n"
        "w = M('W', (Term('ma-na', 2, 4), Term('še', 5, 3)))\n"
        "watched = {f.__code__: f.__qualname__ for f in (Term.__str__,"
        " M.__str__, FloatingNumber.__str__, Fraction.__new__)}\n"
        "seen = []\n"
        "def hook(frame, event, arg):\n"
        "    if event == 'call' and frame.f_code in watched:\n"
        "        seen.append(watched[frame.f_code])\n"
        "sys.setprofile(hook)\n"
        "t = gen_metrological_table('S', lo, hi)\n"
        "fmt(t)\n"
        "fmt(t, 'csv')\n"
        "to_number(w)\n"
        "sys.setprofile(None)\n"
        "print(sorted(set(seen)))\n"
        "seen.clear()\n"
        "sys.setprofile(hook)\n"
        "str(w)\n"
        "str(Term('še', 5, 3))\n"
        "str(FloatingNumber((1, 30)))\n"
        "Fraction(1, 3)\n"
        "sys.setprofile(None)\n"
        "print(sorted(set(seen)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == [
        "[]",
        "['FloatingNumber.__str__', 'Fraction.__new__', 'MeasurementValue.__str__',"
        " 'Term.__str__']",
    ]


def test_system_bases_divide_sixty():
    # to_number scales by 60**2 on integers, which needs 60 % den == 0
    for s in SYSTEMS.values():
        assert UnitSystem(s.kind, s.units, s.base, s.anchor_offset) == s
    with pytest.raises(ValueError, match="system X"):
        UnitSystem("X", get_system("L").units, Fraction(1, 7))


@pytest.mark.parametrize("base", [Fraction(7), Fraction(14, 3), Fraction(121, 60), Fraction(0), Fraction(-10)])
def test_system_base_numerators_are_products_of_2_3_and_5(base):
    # over a numerator with another prime factor the cycle walk of a
    # number prime to it never ends, so such a base is refused
    with pytest.raises(ValueError, match=f"^system X: the numerator of base {base} is not a positive product"):
        UnitSystem("X", get_system("L").units, base)
    # the five shipped systems, and a long product of 2, 3 and 5, build
    for s in SYSTEMS.values():
        assert UnitSystem(s.kind, s.units, s.base, s.anchor_offset) == s
    assert UnitSystem("X", get_system("L").units, Fraction(2**40 * 3**30 * 5**20, 30)).kind == "X"


@pytest.mark.parametrize("name", ["", " ", "a b", "a\tb", "a\nb", "a\u00a0b", "a,b", 'a"b'])
@pytest.mark.parametrize("alias", [False, True])
def test_unit_names_split_and_write_as_one_field(name, alias):
    # parse_measurement splits on whitespace, and CSV rows are not quoted
    unit = Unit("big", 5, (), (name,)) if alias else Unit(name, 5, ())
    with pytest.raises(ValueError, match=f"^system X: unit name {re.escape(repr(name))} is empty"):
        UnitSystem("X", (unit, Unit("small", 1, ())), Fraction(1))


def test_unit_rule_refuses_a_fraction_between_smallest_units():
    # 1/4 of a 5-unit rung is 15/12 of the smallest unit.  In such a
    # system one pass would fail 16 twelfths (1/4 big leaves 1/12 over)
    # where the search finds 1 1/3 small, so the rule refuses it.
    small = Unit("small", 1, tuple(ALLOWED_FRACTIONS))
    with pytest.raises(ValueError, match="^system X: 3/12 of a big is not a whole number of small$"):
        UnitSystem("X", (Unit("big", 5, (3,)), small), Fraction(1))
    # the rule binds spelling fractions only; the five standard systems
    # pass it in test_system_bases_divide_sixty
    assert UnitSystem("X", (Unit("big", 5, ()), small), Fraction(1)).units[0].size == 5


# --- the one-pass spelling against the backtracking search --------------------


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_spell_matches_search_below_a_bound(system):
    s = get_system(system)
    for t in range(-3, 5000):
        assert _spell(s, t) == oracles.spell(s, t)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_spell_over_the_ladder_and_four_cycles(system):
    # _spell builds its value with no second check: each spelling over
    # every ladder row's first four readings is the search's, and keeps
    # the magnitude it was asked for
    s = get_system(system)
    for _, n in full_ladder(system).rows:
        for t in islice(_cycles(n, s), 4):
            mm = _spell(s, t)
            assert mm == oracles.spell(s, t) and mm.twelfths == t


@settings(deadline=None, max_examples=500)
@given(st.sampled_from(sorted(SYSTEMS)), st.integers(0, 10**40))
def test_spell_matches_search_up_to_1e40(system, t):
    s = get_system(system)
    assert _spell(s, t) == oracles.spell(s, t)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(sorted(SYSTEMS)),
    st.lists(st.integers(0, 59), min_size=1, max_size=6).filter(any),
)
def test_cycles_yield_only_spellable_magnitudes(system, digits):
    s = get_system(system)
    n = FloatingNumber(digits)
    ts = list(islice(_cycles(n, s), 6))
    # the oracle's first reading, walked up from below 1/6 of the smallest unit
    first = O.enumerate_readings(system, to_integer(n), 1)[0]
    assert ts[0] == 12 * O.magnitude(system, first)
    assert ts == [ts[0] * 60**k for k in range(6)]
    for t in ts:
        mm = _spell(s, t)
        assert mm is not None and mm.twelfths == t and to_number(mm) == n


def test_a_variant_system_works_out_its_own_tables(monkeypatch):
    # what a system reads on the measurement path is worked out from its
    # units, base and anchor offset: over the L units with another base
    # and offset, every conversion agrees with the Fraction route
    units, base, offset = O.SYSTEMS["L"][0], Fraction(3, 4), 1
    x = UnitSystem("X", get_system("L").units, base, offset)
    monkeypatch.setitem(SYSTEMS, "X", x)
    monkeypatch.setitem(O.SYSTEMS, "X", (units, base, offset))
    for t in range(1, 1500):
        q = Fraction(t, 12)
        assert to_integer(_number(x, t)) == O.split(q * base)[0]
        got, want = _spell(x, t), O.spell("X", q)
        assert got is None if want is None else str(got) == O.text(want)
    for n in map(from_integer, (*range(1, 200), 3**9, 2**20 * 7, 59 * 60 + 1)):
        v = to_integer(n)
        spelled = O.enumerate_readings("X", v, 4)
        assert list(islice(_cycles(n, x), 4)) == [12 * O.magnitude("X", r) for r in spelled]
        readings = enumerate_readings(n, "X", 4)
        assert [str(r) for r in readings] == [O.text(r) for r in spelled]
        assert all(to_number(r) == n for r in readings)
        for e in range(-4, 5):
            try:
                want = O.text(O.from_anchor("X", v, e))
            except O.Refusal:
                with pytest.raises(NoReading):
                    from_number(n, "X", AnchorHint(e))
            else:
                assert str(from_number(n, "X", AnchorHint(e))) == want


# --- the climb from two cycles down against the descent it replaced -------------


def _first_cycles_agree(n, s):
    assert list(islice(_cycles(n, s), 3)) == list(islice(oracles.cycles_by_descent(n, s), 3))


def _variant(kind, p, d):
    """System ``kind``'s ladder over the base p/d."""
    s = get_system(kind)
    return UnitSystem(s.kind, s.units, Fraction(p, d), s.anchor_offset)


def _first_cycles_agree_over(kind, p, d, v):
    """The walks agree on ``v`` over the base p/d, or, when ``p`` has a
    prime factor other than 2, 3 and 5 (over which no cycle of a ``v``
    prime to it is whole, so neither walk would end), the base is
    refused."""
    if not O.regular(p):
        with pytest.raises(ValueError, match="is not a positive product of 2, 3 and 5$"):
            _variant(kind, p, d)
    else:
        _first_cycles_agree(from_integer(v), _variant(kind, p, d))


_DIVISORS_OF_60 = [d for d in range(1, 61) if 60 % d == 0]
# many factors of 2, 3 and 5, but never all of 4, 3 and 5: over a
# denominator such as 30 or 60 some of these first read two cycles below
# the units place, the deepest cycle the walk may start at
_DEEP = [1, 2, 3, 4, 5, 7, 59, 4**9 * 3**9, 3**9 * 5**9, 2 * 3**9 * 5**9, 4**9 * 5**9, 7**40]


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(sorted(SYSTEMS)),
    st.lists(st.integers(0, 59), min_size=1, max_size=4).filter(any),
)
def test_first_cycles_match_the_descent_on_short_numbers(system, digits):
    _first_cycles_agree(FloatingNumber(digits), get_system(system))


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_first_cycles_match_the_descent_on_smooth_numbers(system):
    s = get_system(system)
    for v in oracles.smooth_numbers(60**4):
        _first_cycles_agree(from_integer(v), s)


@pytest.mark.parametrize(
    "system, length", zip(sorted(SYSTEMS), (3000, 2000, 1000, 300, 30))
)
def test_first_cycles_match_the_descent_on_long_numbers(system, length):
    rng = random.Random(length)
    v = rng.randrange(60 ** (length - 1), 60**length)
    for w in (v, v * 15**9):
        _first_cycles_agree(from_integer(w), get_system(system))


def test_first_cycles_match_the_descent_over_every_base():
    # every numerator from 1 to 120 over every denominator that divides 60
    for p in range(1, 121):
        for d in _DIVISORS_OF_60:
            for v in _DEEP:
                _first_cycles_agree_over("L", p, d, v)


@settings(deadline=None, max_examples=300)
@given(
    st.sampled_from(sorted(SYSTEMS)),
    st.integers(1, 120),
    st.sampled_from(_DIVISORS_OF_60),
    st.integers(1, 60**6),
)
def test_first_cycles_match_the_descent_in_variant_systems(system, p, d, v):
    _first_cycles_agree_over(system, p, d, v)


# --- readings too long to print -----------------------------------------------


@pytest.fixture
def int_str_limit():
    """Sets ``sys``'s int string limit for one test, then restores it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int string limit")
    before = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("system", sorted(SYSTEMS))
def test_readings_stop_at_the_int_string_limit(int_str_limit, system):
    # the first reading whose top count has more than 640 digits is
    # refused; every one before it is returned and prints
    int_str_limit(0)
    top = get_system(system).units[0].name
    readings = enumerate_readings(fn("7"), system, 500)
    first_long = next(
        i for i, r in enumerate(readings)
        if r.terms[0].unit == top and len(str(r.terms[0].whole)) > 640
    )
    int_str_limit(640)
    kept = enumerate_readings(fn("7"), system, first_long)
    assert kept == readings[:first_long]
    assert 638 < len(str(kept[-1].terms[0].whole)) <= 640
    with pytest.raises(ReadingTooLong, match=f"^reading too long: its count of {top} would"
                       " have more than 640 digits$"):
        enumerate_readings(fn("7"), system, first_long + 1)


def test_no_int_string_limit_refuses_nothing(int_str_limit):
    n = fn(":".join(["7"] * 500))
    int_str_limit(640)
    with pytest.raises(ReadingTooLong):
        enumerate_readings(n, "L", 1)
    with pytest.raises(ReadingTooLong):
        from_number(fn("3"), "L", AnchorHint(400))
    int_str_limit(0)
    assert to_number(enumerate_readings(n, "L", 1)[0]) == n
    assert to_number(from_number(fn("3"), "L", AnchorHint(400))) == fn("3")
