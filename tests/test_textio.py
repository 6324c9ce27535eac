import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from mesomath.errors import (
    AllZero,
    BadFraction,
    DigitOutOfRange,
    EmptyInput,
    MalformedSeparator,
    MeasurementSyntax,
    ParseDiagnostic,
    ParseError,
    SexagesimalError,
    UnitOrderViolation,
    UnknownUnit,
)
from mesomath.metrology import SYSTEMS, MeasurementValue, Term, enumerate_readings
from mesomath.procedures import parse_script
from mesomath.spvn import FloatingNumber
from mesomath.textio import parse_measurement, parse_number, parse_spvn, parse_window
from oracles import (
    expect_number_by_rule,
    measurement_text,
    parse_measurement_by_kinds,
    parse_spvn_by_parts,
    term_text,
)


class TestParseSpvn:
    def test_colon_separator(self):
        assert parse_spvn("44:26:40").digits == (44, 26, 40)

    def test_point_separator(self):
        assert parse_spvn("7.30").digits == (7, 30)

    def test_normalizes(self):
        assert parse_spvn("3:0") == parse_spvn("3")

    def test_digit_out_of_range(self):
        with pytest.raises(DigitOutOfRange) as e:
            parse_spvn("1:75")
        assert e.value.diagnostic is not None

    def test_empty(self):
        with pytest.raises(EmptyInput):
            parse_spvn("   ")

    def test_double_separator(self):
        with pytest.raises(MalformedSeparator):
            parse_spvn("4::26")

    def test_garbage(self):
        with pytest.raises(MalformedSeparator):
            parse_spvn("4:2a")

    def test_negative(self):
        with pytest.raises(MalformedSeparator):
            parse_spvn("-5")

    @pytest.mark.parametrize(
        "text, cls, column, token",
        [
            (" \t", EmptyInput, 1, " \t"),
            ("1:0059.2a:3", MalformedSeparator, 8, "2a"),
            ("1:0059.060:3", DigitOutOfRange, 8, "060"),
        ],
    )
    def test_refusal_names_the_first_bad_part(self, text, cls, column, token):
        with pytest.raises(cls) as e:
            parse_spvn(text)
        d = e.value.diagnostic
        assert (d.line, d.column, d.token) == (1, column, token)

    @given(
        st.text(alphabet="0159:. \t-a٣", max_size=16)
        | st.lists(st.integers(0, 99).map(str), min_size=1, max_size=5).map(":".join)
        | st.lists(st.sampled_from(["0", "00", "5", "59", "60", "075", "0" * 700 + "7"]),
                   min_size=1, max_size=4).map(".".join)
    )
    def test_matches_the_part_by_part_reading(self, text):
        def outcome(parse):
            try:
                return parse(text)
            except SexagesimalError as e:
                return type(e), str(e), e.diagnostic

        assert outcome(parse_spvn) == outcome(parse_spvn_by_parts)

    @pytest.mark.parametrize(
        "text",
        ["00:" * 200 + "x", "05:" * 200 + "60", "0:" * 100 + "00." * 100 + "0a", "0" * 5000 + "x"],
        ids=["zero-parts", "five-parts", "mixed-separators", "one-long-part"],
    )
    def test_refused_long_tokens_fail_fast(self, text):
        # in a child process with a time limit, so that a match that
        # backtracks through every split of the parts fails the test
        # instead of hanging the suite
        code = (
            "import sys\n"
            "from mesomath.textio import parse_spvn\n"
            "try:\n"
            "    parse_spvn(sys.stdin.read())\n"
            "except Exception as e:\n"
            "    print(type(e).__name__, e.diagnostic.column, e.diagnostic.token)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], input=text, capture_output=True,
            text=True, check=True, timeout=30,
        )
        with pytest.raises(SexagesimalError) as e:
            parse_spvn_by_parts(text)
        d = e.value.diagnostic
        assert out.stdout.split() == [type(e.value).__name__, str(d.column), d.token]


class TestFormatSpvn:
    def test_no_padding(self):
        assert str(parse_spvn("1:3")) == "1:3"

    def test_long(self):
        s = "11:51:54:50:37:30"
        assert str(parse_spvn(s)) == s

    def test_single(self):
        assert str(parse_spvn("5")) == "5"

    @given(st.lists(st.integers(0, 59), min_size=1, max_size=6).filter(any))
    def test_round_trip(self, ds):
        n = FloatingNumber(ds)
        assert parse_spvn(str(n)) == n


#: Number tokens shaped as digits, 'e' and an exponent, each part drawn
#: from its grammar's characters and a few that are not in it, so that
#: near misses of a well-formed anchored literal are common.
_NUMBER_TOKENS = st.builds(
    "{}{}{}".format,
    st.text("0123456789:.", max_size=8),
    st.sampled_from(["", "e", "ee"]),
    st.text("0123456789-+_٣e", max_size=4),
)


class TestAnchoredLiterals:
    @pytest.mark.parametrize("text", ["6:30e-1", "5e0", "1:19:6:5:37:30e3"])
    def test_round_trip(self, text):
        assert str(parse_number(text)) == text

    def test_missing_exponent(self):
        with pytest.raises(MalformedSeparator):
            parse_number("6:30e")

    def test_no_digits(self):
        with pytest.raises(MalformedSeparator):
            parse_number("e3")

    @pytest.mark.parametrize("text", ["6:30e1_0", "6:30e٣", "6:30e+1", "6:30e 1"])
    def test_exponent_is_a_minus_then_ascii_digits(self, text):
        with pytest.raises(MalformedSeparator) as e:
            parse_number(text)
        assert str(e.value) == f"bad exponent in {text!r}"
        assert e.value.diagnostic.message == "exponent must be an integer"

    def test_exponent_leading_zeros_at_any_length(self):
        zeros = "0" * 5000
        assert str(parse_number(f"1e{zeros}1")) == "1e1"
        assert str(parse_number(f"6:30e-{zeros}1")) == "6:30e-1"

    def test_a_token_without_e_is_a_digit_sequence(self):
        assert parse_number(" 6:30 ") == parse_spvn("6:30")
        with pytest.raises(MalformedSeparator, match=r"^malformed digit sequence '6:3x'$"):
            parse_number("6:3x")

    @settings(max_examples=1000)
    @given(st.text("0123456789:.e-٣_+", max_size=14) | _NUMBER_TOKENS)
    def test_agrees_with_the_corpus_rule(self, tok):
        assert _outcome(parse_number, tok) == _outcome(expect_number_by_rule, tok)

    @pytest.mark.parametrize("tok", ["6e2 ", " 6e2 ", "6e2\t"])
    def test_whitespace_after_the_exponent_is_stripped(self, tok):
        # the one token the corpus rule refused and parse_number reads:
        # the rule looked for the exponent before stripping
        assert _outcome(expect_number_by_rule, tok) is None
        assert parse_number(tok) == parse_number("6e2")


def _outcome(parse, tok):
    """The type and value ``parse`` reads from ``tok``, or None if it refuses it."""
    try:
        value = parse(tok)
    except ParseError:
        return None
    return type(value), value


#: Measurement tokens of every kind: the unit names and ASCII aliases of
#: all five systems (so some are foreign to the system read), fraction
#: glyphs, n/d fractions allowed or not, counts with leading zeros, and
#: junk that is none of these.
_UNIT_NAMES = sorted(
    {n for s in SYSTEMS.values() for u in s.units for n in (u.name, *u.aliases)}
)
_COUNTS = st.builds(lambda zeros, n: "0" * zeros + str(n), st.integers(0, 3), st.integers(0, 400))
_GLYPHS = ["½", "⅓", "⅔", "¼", "⅙", "⅚"]
_SPELLED = ["1/2", "2/3", "1/3", "1/4", "1/6", "5/6", "2/4", "4/6", "02/004"]
_FRACTIONS = (
    st.sampled_from(_GLYPHS)
    | st.sampled_from(_SPELLED)
    | st.builds("{}/{}".format, st.integers(0, 13), st.integers(0, 13))
)
#: the allowed fractions only, in every spelling
_ALLOWED = st.sampled_from(_GLYPHS + _SPELLED)
_JUNK = st.sampled_from(
    ["", "/", "1/", "/2", "a/2", "01/02", "1//2", "x", "1kush", "٣", "½½", "-1", "1.5"]
)
_MEASUREMENT_TOKENS = st.sampled_from(_UNIT_NAMES) | _COUNTS | _FRACTIONS | _JUNK


@st.composite
def _measurement_tokens(draw, kind: str) -> list[str]:
    """Tokens in any order; groups of [count] [fraction] unit, mostly in
    the units of ``kind``; or a well-formed measurement of ``kind``."""
    units = SYSTEMS[kind].units
    shape = draw(st.sampled_from(["tokens", "groups", "well-formed"]))
    if shape == "tokens":
        return draw(st.lists(_MEASUREMENT_TOKENS, max_size=7))
    toks = []
    if shape == "groups":
        own = sorted(n for u in units for n in (u.name, *u.aliases))
        for _ in range(draw(st.integers(1, 4))):
            toks += [draw(st.none() | _COUNTS), draw(st.none() | _FRACTIONS),
                     draw(st.sampled_from(own) | st.sampled_from(_UNIT_NAMES))]
    else:
        for i in sorted(draw(st.sets(st.integers(0, len(units) - 1), min_size=1))):
            toks += [str(draw(st.integers(1, 59))),
                     draw(st.none() | st.sampled_from(["1/2", "⅓", "05/06"])),
                     draw(st.sampled_from((units[i].name, *units[i].aliases)))]
    return [t for t in toks if t is not None]


class TestParseMeasurement:
    def test_fraction_then_unit_then_term(self):
        m = parse_measurement("1/2 kush 3 shu-si", "L")
        assert str(m) == "1/2 kuš 3 šu-si"

    def test_utf8_names(self):
        m = parse_measurement("2/3 sar 5 gin", "S")
        assert str(m) == "2/3 sar 5 gin"

    def test_mixed_count(self):
        m = parse_measurement("1 1/2 ninda", "L")
        assert m.terms[0].whole == 1 and m.terms[0].frac == 6

    def test_unicode_fraction_glyph(self):
        assert parse_measurement("⅓ kuš", "L") == parse_measurement("1/3 kush", "L")

    def test_unknown_unit(self):
        with pytest.raises(UnknownUnit):
            parse_measurement("3 cubit", "L")

    def test_unit_order_violation(self):
        with pytest.raises(UnitOrderViolation):
            parse_measurement("3 shu-si 1 kush", "L")

    def test_bad_fraction(self):
        with pytest.raises(BadFraction):
            parse_measurement("1/5 kush", "L")

    def test_fraction_tokens_against_fraction_oracle(self):
        # every num/den up to 24/24: accepted exactly when its value is
        # one of the six allowed fractions, reduced or not, and then kept
        # as that many twelfths of the kuš (30 smallest units)
        allowed = {Fraction(f) for f in ("1/6", "1/4", "1/3", "1/2", "2/3", "5/6")}
        for num in range(25):
            for den in range(1, 25):
                q, text = Fraction(num, den), f"{num}/{den} kuš"
                if q in allowed:
                    m = parse_measurement(text, "L")
                    assert m.terms[0].frac == 12 * q
                    assert m.twelfths == 12 * q * 30
                else:
                    with pytest.raises(BadFraction):
                        parse_measurement(text, "L")

    def test_missing_count(self):
        with pytest.raises(MeasurementSyntax):
            parse_measurement("kush", "L")

    def test_dangling_count(self):
        with pytest.raises(MeasurementSyntax):
            parse_measurement("3 kush 12", "L")

    def test_wrong_system_unit(self):
        with pytest.raises(UnknownUnit):
            parse_measurement("3 ninda", "W")

    @settings(deadline=None, max_examples=1000)
    @given(st.data(), st.sampled_from(sorted(SYSTEMS)), st.sampled_from([" ", "  ", "\t", " \n "]))
    def test_matches_the_token_by_kind_reading(self, data, kind, sep):
        text = sep.join(data.draw(_measurement_tokens(kind)))

        def outcome(parse):
            try:
                return parse(text, kind)
            except SexagesimalError as e:
                return type(e), str(e), e.diagnostic

        assert outcome(parse_measurement) == outcome(parse_measurement_by_kinds)


    @settings(deadline=None, max_examples=200)
    @given(st.data(), st.sampled_from(sorted(SYSTEMS)))
    def test_prints_as_the_former_renderer(self, data, kind):
        # str renders every term in one loop; it prints what joining each
        # term's str printed, and each term prints as it did
        try:
            m = parse_measurement(" ".join(data.draw(_measurement_tokens(kind))), kind)
        except SexagesimalError:
            assume(False)
        assert str(m) == measurement_text(m)
        assert [str(t) for t in m.terms] == [term_text(t) for t in m.terms]

    def test_a_term_prints_as_it_did(self):
        for whole in (0, 7):
            for frac in (0, 2, 6, 10):
                t = Term("kuš", whole, frac)
                assert str(t) == term_text(t)


class TestTrustedMeasurement:
    """``parse_measurement`` checks each term as it reads it and builds the
    value with no second check; the validating constructor agrees."""

    @settings(deadline=None, max_examples=300)
    @given(st.data(), st.sampled_from(sorted(SYSTEMS)))
    def test_equals_the_validated_value(self, data, kind):
        # descending units, each with a count, a fraction or both, in
        # every spelling the parser reads
        units = SYSTEMS[kind].units
        toks = []
        for i in sorted(data.draw(st.sets(st.integers(0, len(units) - 1), min_size=1))):
            count, frac = data.draw(st.tuples(st.none() | _COUNTS, st.none() | _ALLOWED))
            toks += [t for t in (count, frac) if t is not None] or ["1"]
            toks.append(data.draw(st.sampled_from((units[i].name, *units[i].aliases))))
        text = " ".join(toks)
        try:
            want = parse_measurement_by_kinds(text, kind)
        except SexagesimalError:
            assume(False)
        m = parse_measurement(text, kind)
        checked = MeasurementValue(m.system, m.terms)
        assert m == checked == want and m.twelfths == checked.twelfths

    @settings(deadline=None, max_examples=200)
    @given(
        st.sampled_from(sorted(SYSTEMS)),
        st.lists(st.integers(0, 59), min_size=1, max_size=4).filter(any),
    )
    def test_a_spelled_reading_reads_back(self, kind, digits):
        # the speller builds a reading with no check; its text parses to
        # the same terms and the same magnitude
        for r in enumerate_readings(FloatingNumber(digits), kind, 3):
            m = parse_measurement(str(r), kind)
            assert m == r and m.twelfths == r.twelfths

    @pytest.mark.parametrize(
        "text, error, message, col, token",
        [
            ("1 kuš 1 ninda", UnitOrderViolation,
             "units out of descending order at 'ninda'", 1, "1 kuš 1 ninda"),
            ("1 ninda 1/2 ninda", UnitOrderViolation,
             "units out of descending order at 'ninda'", 1, "1 ninda 1/2 ninda"),
            ("0 ninda", UnitOrderViolation, "count of 'ninda' must be positive", 1, "0 ninda"),
            ("1 ninda 0 kuš 1 ninda", UnitOrderViolation,
             "count of 'kuš' must be positive", 1, "1 ninda 0 kuš 1 ninda"),
            # an error in a later token wins over the order and the count
            ("1 kuš 0 ninda xyz", UnknownUnit, "unknown unit 'xyz' in system L", 15, "xyz"),
            ("1 ninda 1 ninda 3", MeasurementSyntax,
             "dangling count at end of '1 ninda 1 ninda 3'", 19, "3"),
            # a column counts the text's own whitespace, runs and leading
            # blanks included
            ("1  kush   xyz", UnknownUnit, "unknown unit 'xyz' in system L", 11, "xyz"),
            ("  1 kush xyz", UnknownUnit, "unknown unit 'xyz' in system L", 10, "xyz"),
            ("1 kush\t\t7/12 ninda", BadFraction,
             "fraction 7/12 is not used in system L", 9, "7/12"),
            (" 1 kush  3 3", MeasurementSyntax, "expected a unit before '3'", 12, "3"),
            ("\t1 kush  3  ", MeasurementSyntax,
             "dangling count at end of '\\t1 kush  3  '", 12, "3"),
        ],
    )
    def test_error_order_pinned(self, text, error, message, col, token):
        with pytest.raises(error) as e:
            parse_measurement(text, "L")
        assert type(e.value) is error and str(e.value) == message
        d = e.value.diagnostic
        assert (d.line, d.column, d.token) == (1, col, token)


#: a script whose fourth line is the one under test
_SCRIPT = 'tablet "t"\n# the line under test is line 4\ngiven-spvn a 2\n'


class TestParseWindow:
    @pytest.mark.parametrize(
        "text", ["1 kush..2 ninda", '"1 kush".."2 ninda"', ' "1 kush" .. 2 ninda ']
    )
    def test_quotes_and_spaces_are_optional(self, text):
        w = parse_window(text, "L")
        assert (str(w.lo), str(w.hi)) == ("1 kuš", "2 ninda")

    def test_missing_dots(self):
        with pytest.raises(MeasurementSyntax) as e:
            parse_window("1 kush", "L")
        assert e.value.diagnostic == ParseDiagnostic(1, 1, 'window needs "<m>".."<m>"', "1 kush")

    def test_bound_error_keeps_its_line(self):
        # the bound's own diagnostic, which a script places on its line
        with pytest.raises(UnknownUnit) as e:
            parse_window("1 kush..2 furlong", "L")
        assert e.value.diagnostic == ParseDiagnostic(1, 3, "unknown unit", "furlong")
        with pytest.raises(UnknownUnit) as e:
            parse_script(f'{_SCRIPT}answer a L window "1 kush..2 furlong"\n')
        assert e.value.diagnostic == ParseDiagnostic(4, 3, "unknown unit", "furlong")


_ALL_ZERO = "a digit sequence must contain a nonzero digit"


class TestScriptLines:
    """A parser reports its refusal on line 1 of its text; ``parse_script``
    moves it to the script line that holds the token and puts ``line N:``
    in front of its message, and changes nothing else: not the class, the
    column, the token or the diagnostic's message."""

    @pytest.mark.parametrize(
        "parse, args, script_line, error, message, col, token",
        [
            (parse_spvn, ("1:0059.2a:3",), "given-spvn b 1:0059.2a:3",
             MalformedSeparator, "malformed digit sequence '1:0059.2a:3'", 8, "2a"),
            (parse_number, ("6:30e1_0",), "step square a expect 6:30e1_0",
             MalformedSeparator, "bad exponent in '6:30e1_0'", 6, "1_0"),
            (parse_measurement, ("1 kuš 0 ninda xyz", "L"),
             'given L b "1 kuš 0 ninda xyz" expect 1',
             UnknownUnit, "unknown unit 'xyz' in system L", 15, "xyz"),
            (parse_measurement, ("3 ninda 1 ninda", "L"),
             'answer a L window "1 ninda..2 ninda" expect "3 ninda 1 ninda"',
             UnitOrderViolation, "units out of descending order at 'ninda'", 1,
             "3 ninda 1 ninda"),
            (parse_window, ("1 kush", "L"), 'answer a L window "1 kush"',
             MeasurementSyntax, 'window must look like "<m>".."<m>": \'1 kush\'', 1,
             "1 kush"),
            # a literal with no nonzero digit, which the grammar reads
            (parse_spvn, ("0",), "given-spvn b 0", AllZero, _ALL_ZERO, 1, "0"),
            (parse_number, ("0:0",), "step square a expect 0:0", AllZero, _ALL_ZERO, 1, "0:0"),
            (parse_number, ("0e1",), "step square a expect 0e1", AllZero, _ALL_ZERO, 1, "0"),
            # a system name that names no system
            (parse_measurement, ("1 ninda", "Q"), 'given Q b "1 ninda" expect 10',
             UnknownUnit, "unknown unit system 'Q'", 1, "Q"),
            (parse_window, ("1 ninda..2 ninda", "Q"), 'answer a Q window "1 ninda..2 ninda"',
             UnknownUnit, "unknown unit system 'Q'", 1, "Q"),
            # window bounds out of order
            (parse_window, ("2 ninda..1 ninda", "L"), 'answer a L window "2 ninda..1 ninda"',
             MeasurementSyntax, "window bounds must be ordered, same system", 1,
             "2 ninda..1 ninda"),
        ],
    )
    def test_refusal_moves_to_the_script_line(
        self, parse, args, script_line, error, message, col, token
    ):
        with pytest.raises(error) as alone:
            parse(*args)
        with pytest.raises(error) as scripted:
            parse_script(f"{_SCRIPT}{script_line}\n")
        assert type(alone.value) is error and str(alone.value) == message
        assert type(scripted.value) is error and str(scripted.value) == f"line 4: {message}"
        d = alone.value.diagnostic
        assert d is not None and (d.line, d.column, d.token) == (1, col, token)
        assert scripted.value.diagnostic == d._replace(line=4)


class TestLongTokens:
    """Tokens past int()'s 4,300-digit limit are typed refusals."""

    ONES = "1" * 5000

    def test_long_digit(self):
        with pytest.raises(DigitOutOfRange) as e:
            parse_spvn(f"2:{self.ONES}")
        d = e.value.diagnostic
        assert (d.column, d.token) == (3, self.ONES)
        assert str(e.value) == f"digit {'1' * 24}…{'1' * 24} (5000 characters) outside 0..59"

    def test_leading_zeros_stay_insignificant(self):
        assert parse_spvn("0" * 4999 + "1") == parse_spvn("001") == parse_spvn("1")
        with pytest.raises(DigitOutOfRange, match="^digit 75 outside"):
            parse_spvn("0" * 5000 + "75")

    def test_long_count(self):
        with pytest.raises(MeasurementSyntax) as e:
            parse_measurement(f"1 ninda {self.ONES} kush", "L")
        assert (e.value.diagnostic.column, e.value.diagnostic.token) == (9, self.ONES)

    def test_long_fraction(self):
        with pytest.raises(BadFraction) as e:
            parse_measurement(f"{self.ONES}/2 kush", "L")
        assert (e.value.diagnostic.column, e.value.diagnostic.token) == (1, self.ONES + "/2")
        with pytest.raises(BadFraction):
            parse_measurement(f"1/{self.ONES} kush", "L")

    def test_leading_zeros_in_counts_and_fractions(self):
        zeros = "0" * 5000
        assert parse_measurement(f"{zeros}3 {zeros}1/{zeros}2 kush", "L") == (
            parse_measurement("3 1/2 kush", "L")
        )


#: text around one run of 4,290 to 5,010 digits: past int()'s limit or
#: close under it, with or without leading zeros
_LONG_TOKENS = st.builds(
    lambda pre, zeros, digits, post: pre + zeros + digits + post,
    st.sampled_from(["", "1:", "2 ", "1/", "3 1/"]),
    st.sampled_from(["", "0" * 4300]),
    st.integers(4290, 5010).map(lambda n: "1" * n),
    st.sampled_from(["", ":2", "/2", " kush", "/2 kush", " ninda 2 kush"]),
)


class TestParserTotality:
    @given(st.text(max_size=30) | _LONG_TOKENS)
    def test_spvn_never_crashes(self, text):
        try:
            parse_spvn(text)
        except SexagesimalError:
            pass

    @given(st.text(max_size=30) | _LONG_TOKENS, st.sampled_from(["L", "Lh", "S", "W", "C"]))
    def test_measurement_never_crashes(self, text, system):
        try:
            parse_measurement(text, system)
        except SexagesimalError:
            pass

    @given(st.text(max_size=20))
    def test_anchored_never_crashes(self, text):
        try:
            parse_number(text)
        except SexagesimalError:
            pass

    @given(st.text(alphabet='12 kushnda/."', max_size=30), st.sampled_from(["L", "W"]))
    def test_window_never_crashes(self, text, system):
        try:
            parse_window(text, system)
        except SexagesimalError:
            pass
