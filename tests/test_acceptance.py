"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass line (visible with ``pytest -v -s`` or in
the failure report); the test name identifies the criterion.  Two
criteria embed order-of-magnitude slips in their prose (a window that
excludes its own expected answer, and a reading that breaks the
sixty-fold cycle); those tests assert the arithmetically forced values
and additionally document what the as-written figures would select.
"""

import subprocess
import sys
from math import prod

from mesomath import abacus, metrology, recip, tables
from mesomath.errors import NotASquare
from mesomath.metrology import Window, enumerate_readings, from_number, to_number
from mesomath.procedures import disk_area, parse_script, run, shipped_corpus_dir, verify_corpus
from mesomath.recip import reciprocal, reciprocal_loop, running_products
from mesomath.spvn import from_integer, mul, square, to_integer
from mesomath.textio import parse_measurement, parse_spvn as fn
from oracles import regular_exponents, smooth_numbers


def _ok(n, text):
    print(f"criterion {n}: PASS - {text}")


def _corpus(name):
    return parse_script((shipped_corpus_dir() / name).read_text(encoding="utf-8"))


def test_criterion_01_reciprocal_exercise():
    out = subprocess.run(
        [sys.executable, "-m", "mesomath.cli", "recip", "4:26:40", "--trace"],
        capture_output=True,
        check=True,
    ).stdout.decode()
    assert out.splitlines() == ["4:26:40  9", "40       1:30", "13:30"]

    trace = run(_corpus("ni10241.tab"))
    assert trace.passed
    notes = trace.scribal_notes()
    assert len(notes) == 1 and str(notes[0].attested) == "41"
    _ok(1, "recip 4:26:40 traces (9, 1:30) to 13:30; attested 41 is a note")


def test_criterion_02_long_reciprocal():
    n = fn("5:3:24:26:40")
    r, fact = reciprocal(n)
    assert r == fn("11:51:54:50:37:30")
    assert [str(f) for f in fact.factors] == ["6:40", "40", "16", "16", "16"]
    fwd, back = reciprocal_loop(n)
    assert back.reciprocal == n
    prods = [str(p) for p in running_products(fact)]
    for need in ("14:3:45", "52:44:3:45", "1:19:6:5:37:30"):
        assert need in prods
    _ok(2, "5:3:24:26:40 factors as 6:40,40,16,16,16 and loops back")


def test_criterion_03_reciprocal_table():
    table = tables.gen_reciprocal_table()
    assert len(table) == 27
    assert reciprocal(fn("1:21"), table=table)[0] == fn("44:26:40")
    assert reciprocal(fn("1:4"), table=table)[0] == fn("56:15")
    for e, r in table.pairs:
        assert mul(e, r) == fn("1")
    _ok(3, "the 27 standard pairs generate exactly, 1:21 and 1:4 included")


def test_criterion_04_multiplication_by_nine():
    t = tables.gen_multiplication_table(fn("9"))
    assert dict(t.rows)[7] == fn("1:3")
    assert dict(t.rows)[20] == fn("3")
    assert dict(t.rows)[20].digits == (3,)
    _ok(4, "table by 9 reads 1:3 at row 7 and bare 3 at row 20")


def test_criterion_05_length_table_extract():
    t = metrology.gen_metrological_table(
        "L", parse_measurement("1 shu-si", "L"), parse_measurement("2 kush", "L")
    )
    text = metrology.format_metrological_table(t)
    assert text == (
        "1 šu-si    10\n"
        "2 šu-si    20\n"
        "3 šu-si    30\n"
        "4 šu-si    40\n"
        "5 šu-si    50\n"
        "6 šu-si    1\n"
        "7 šu-si    1:10\n"
        "8 šu-si    1:20\n"
        "9 šu-si    1:30\n"
        "1/3 kuš    1:40\n"
        "1/2 kuš    2:30\n"
        "2/3 kuš    3:20\n"
        "5/6 kuš    4:10\n"
        "1 kuš      5\n"
        "1 1/3 kuš  6:40\n"
        "1 1/2 kuš  7:30\n"
        "1 2/3 kuš  8:20\n"
        "2 kuš      10\n"
    )
    _ok(5, "the 18-row length extract matches byte for byte")


def test_criterion_06_square_surface_exercise():
    side = to_number(parse_measurement("2 shu-si", "L"))
    assert side == fn("20")
    surface = mul(side, side)
    assert surface == fn("6:40")
    got = from_number(
        surface,
        "S",
        Window(parse_measurement("1/6 she", "S"), parse_measurement("1 she", "S")),
    )
    assert got == parse_measurement("1/3 she", "S")
    # the window as prosed, [1 she, 1 gin], lies one cycle up: it cannot
    # contain 1/3 she and instead selects the twenty-she reading
    up = from_number(
        surface,
        "S",
        Window(parse_measurement("1 she", "S"), parse_measurement("1 gin", "S")),
    )
    assert up == parse_measurement("20 she", "S")
    _ok(6, "2 šu-si squares to 6:40 and reads back as 1/3 še at tablet scale")


def test_criterion_07_disk():
    assert square(fn("3")) == fn("9")
    assert disk_area(fn("3")) == fn("45")
    assert disk_area(fn("3")) == mul(fn("9"), fn("5"))
    _ok(7, "disk rule: perimeter 3, square 9, surface 45")


def test_criterion_08_trench_cost():
    trace = run(_corpus("ybc4663-1.tab"))
    assert trace.passed
    givens = [str(r.computed) for r in trace.records if r.kind == "given"]
    assert givens == ["5", "1:30", "6", "2", "10"]
    steps = [str(r.computed) for r in trace.records if r.kind == "step"]
    assert steps == ["7:30", "45", "4:30", "9"]
    _ok(8, "trench cost: conversions (5, 1:30, 6, 2, 10), chain to 9")


def test_criterion_09_trench_depth():
    trace = run(_corpus("ybc4663-4.tab"))
    assert trace.passed
    steps = [str(r.computed) for r in trace.records if r.kind == "step"]
    assert steps == ["7:30", "45", "1:30", "40", "6"]
    answer = [r for r in trace.records if r.kind == "answer"][0]
    assert str(answer.computed) == "1/2 ninda"

    got = [str(m) for m in enumerate_readings(fn("6"), "Lh", 4)]
    # The traditional reading list has 40 ninda in third place, but the
    # table's own rows force 30: 1/2 ninda -> 6 pins 1 ninda -> 12, so
    # 40 ninda answers to 8.  The sixty-fold cycle lands on 30 ninda.
    assert to_number(parse_measurement("40 ninda", "Lh")) == fn("8")
    assert got == ["3 šu-si", "1/2 ninda", "30 ninda", "1 danna"]
    _ok(9, "depth chain ends 6 = 1/2 ninda; height readings cycle correctly")


def test_criterion_10_quadratic_configurations():
    script = _corpus("ybc4663-7.tab")
    trace_a = run(script, "A")
    assert trace_a.passed
    steps = {r.name: str(r.computed.digits) for r in trace_a.records if r.kind == "step"}
    assert steps["halfsum"] == "3:15"
    assert steps["halfsumsq"] == "10:33:45"
    assert steps["gap"] == "3:3:45"
    assert steps["root"] == "1:45"
    assert steps["length"] == "5"
    assert steps["width"] == "1:30"
    answers = [str(r.computed) for r in trace_a.records if r.kind == "answer"]
    assert answers == ["5 ninda", "1 1/2 ninda"]

    for other in ("B", "C"):
        t = run(script, other)
        assert t.passed
        for ra, ro in zip(trace_a.records, t.records):
            if ra.kind == "answer":
                assert ra.computed == ro.computed
            else:
                assert ra.computed.digits == ro.computed.digits
    _ok(10, "quadratic trace holds and digits are configuration-invariant")


def test_criterion_11_orders_of_magnitude_table():
    readings = enumerate_readings(fn("3"), "L", 4)
    assert [str(m) for m in readings] == [
        "1/2 kuš 3 šu-si",
        "3 ninda",
        "3 uš",
        "6 danna",
    ]
    area = disk_area(fn("3"))
    assert area == fn("45")
    row1 = from_number(
        area, "S",
        Window(parse_measurement("1 she", "S"), parse_measurement("10 she", "S")),
    )
    assert row1 == parse_measurement("2 1/4 she", "S")
    row2 = from_number(
        area, "S",
        Window(parse_measurement("10 gin", "S"), parse_measurement("10 sar", "S")),
    )
    assert row2 == parse_measurement("2/3 sar 5 gin", "S")
    # city and region rows, pinned numerically as sar counts
    surfaces = enumerate_readings(area, "S", 7)
    sar = metrology.get_system("S").unit("sar").size
    assert surfaces[4].value() == 2700 * sar
    assert surfaces[6].value() == 9720000 * sar
    for m in surfaces:
        assert to_number(m) == area
    _ok(11, "the four readings of 3 and their disk surfaces all line up")


def test_criterion_12_property_sweep():
    values = smooth_numbers(60**4)
    one = fn("1")
    for v in values:
        n = from_integer(v)
        r, fact = reciprocal(n)
        assert mul(n, r) == one
        assert reciprocal(r)[0] == n
        assert prod(map(to_integer, fact.factors)) == to_integer(n)
        a2, b2, c2 = regular_exponents(v)
        want_root = a2 % 2 == 0 and b2 % 2 == c2 % 2
        try:
            root = recip.sqrt(n)
        except NotASquare:
            assert not want_root
        else:
            assert want_root and square(root) == n
        from mesomath.textio import parse_spvn

        assert parse_spvn(str(n)) == n
    # anchored arithmetic against exact rationals, sampled
    for v in values[::17]:
        x = abacus.AnchoredNumber(from_integer(v), -2)
        y = abacus.AnchoredNumber(from_integer(v * 3 % 59 + 1), 0)
        assert abacus.add(x, y).value() == x.value() + y.value()
        assert abacus.mul_anchored(x, y).value() == x.value() * y.value()
    _ok(12, f"sweep over {len(values)} five-smooth values holds exactly")


def test_criterion_13_corpus_reproduces():
    summary = verify_corpus(shipped_corpus_dir())
    assert summary.passed
    assert len(summary.reports) == 7
    ids = {r.tablet for r in summary.reports}
    assert ids == {
        "UM 29-15-192",
        "YBC 7302",
        "1st Ni 10241",
        "CBS 1215 #20",
        "YBC 4663 #1",
        "YBC 4663 #4",
        "YBC 4663 #7",
    }
    _ok(13, "every worked computation in scope replays at desk scale")
