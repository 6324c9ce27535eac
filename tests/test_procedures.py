import shlex
import time

import pytest
from hypothesis import given, settings, strategies as st

from mesomath import procedures, spvn
from mesomath.errors import (
    AmbiguousReading,
    DigitOutOfRange,
    Irregular,
    MeasurementSyntax,
    MissingConfig,
    NotASquare,
    ParseDiagnostic,
    ParseError,
    ProductTooLong,
    ScriptSyntax,
    UnknownName,
    UnknownOp,
)
from mesomath.metrology import to_number
from mesomath.procedures import (
    _split_line,
    disk_area,
    parse_script,
    run,
    run_file,
    shipped_corpus_dir,
    verify_corpus,
)
from mesomath.textio import parse_spvn as fn

CORPUS = shipped_corpus_dir()


def corpus_text(name: str) -> str:
    return (CORPUS / name).read_text(encoding="utf-8")


class TestDiskArea:
    def test_attested(self):
        assert disk_area(fn("3")) == fn("45")

    def test_unit_perimeter(self):
        assert disk_area(fn("1")) == fn("5")

    def test_oracle(self):
        # 36 * 5 = 180, normalizing to 3
        assert disk_area(fn("6")) == fn("3")


class TestParseScript:
    def test_trench_problem_shape(self):
        s = parse_script(corpus_text("ybc4663-1.tab"))
        assert s.tablet == "YBC 4663 #1"
        assert len(s.givens) == 5
        assert len(s.steps) == 4
        assert len(s.answers) == 1

    def test_empty_file(self):
        with pytest.raises(ScriptSyntax):
            parse_script("")

    def test_undefined_name(self):
        text = 'tablet "x"\nstep mul width width expect 1 as y\n'
        with pytest.raises(UnknownName):
            parse_script(text)

    def test_unknown_op(self):
        text = 'tablet "x"\ngiven-spvn a 2\nstep frobnicate a expect 1\n'
        with pytest.raises(UnknownOp):
            parse_script(text)

    def test_hash_inside_quotes(self):
        s = parse_script('tablet "CBS 1215 #20"\ngiven-spvn n 2\n')
        assert s.tablet == "CBS 1215 #20"

    def test_comments_and_blanks(self):
        s = parse_script("# nothing\n\ntablet \"t\"\ngiven-spvn a 5  # inline\n")
        assert s.givens[0].expect == fn("5")

    def test_missing_tablet_is_refused_on_line_1(self):
        with pytest.raises(ScriptSyntax) as e:
            parse_script("given-spvn a 2\n")
        assert str(e.value) == "line 1: missing tablet directive"
        assert e.value.diagnostic == ParseDiagnostic(1, 1, "missing tablet directive")

    def test_every_config_anchors_every_given(self):
        text = (
            'tablet "t"\ngiven-spvn a 2\nconfig c1: a=e0\n'
            "given-spvn b 3\nstep add a b\n"
        )
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == "line 3: configuration 'c1' does not anchor given 'b'"
        assert e.value.diagnostic.line == 3 and e.value.diagnostic.token == "c1"

    @pytest.mark.parametrize("anchor", ["e1_0", "e٣", "e+2"])
    def test_config_exponent_is_a_minus_then_ascii_digits(self, anchor):
        text = f'tablet "t"\ngiven-spvn a 2\nconfig A: a={anchor}\n'
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == f"line 3: bad exponent {anchor!r}"

    def test_exponent_leading_zeros_at_any_length(self):
        zeros = "0" * 5000
        s = parse_script(
            f'tablet "t"\ngiven-spvn a 2\nconfig A: a=e-{zeros}3\n'
            f"step half a expect 1e{zeros}1 as h\n"
        )
        assert s.configurations[0].exponents == {"a": -3}
        assert str(s.steps[0].expect) == "1e1"

    def test_window_without_dots(self):
        text = 'tablet "t"\ngiven-spvn a 2\nanswer a L window "1 ninda" expect "2 ninda"\n'
        with pytest.raises(MeasurementSyntax) as e:
            parse_script(text)
        assert e.value.diagnostic.line == 3 and e.value.diagnostic.token == "1 ninda"

    @pytest.mark.parametrize(
        "tail, token",
        [
            ("expect", "expect"),
            ('whatever "9 ninda" extra', "whatever"),
            ('expect "2 ninda" extra', "extra"),
        ],
    )
    def test_answer_tail_is_expect_or_nothing(self, tail, token):
        text = f'tablet "t"\ngiven-spvn a 2\nanswer a L window "1 ninda..3 ninda" {tail}\n'
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == f"line 3: unexpected token {token!r}"
        assert e.value.diagnostic.line == 3 and e.value.diagnostic.token == token

    def test_duplicate_configuration_refused(self):
        text = 'tablet "t"\ngiven-spvn a 2\nconfig A: a=e0\nconfig A: a=e1\n'
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == "line 4: duplicate configuration 'A'"
        assert e.value.diagnostic.line == 4 and e.value.diagnostic.token == "A"

    def test_many_configurations_parse_in_linear_time(self):
        # a repeated name is found in a dict; scanning every earlier
        # configuration made 20,000 of them take minutes
        text = 'tablet "t"\ngiven-spvn a 2\n' + "".join(
            f"config c{i}: a=e{i % 7}\n" for i in range(20_000)
        )
        start = time.perf_counter()
        script = parse_script(text)
        assert time.perf_counter() - start < 5
        assert [c.name for c in script.configurations[:2]] == ["c0", "c1"]
        assert len(script.configurations) == 20_000
        with pytest.raises(ScriptSyntax, match="^line 20003: duplicate configuration 'c17'$"):
            parse_script(text + "config c17: a=e0\n")

    def test_a_lone_comma_among_the_anchors_is_skipped(self):
        # "a=e0 , b=e1" splits into "a=e0", "," and "b=e1"; the comma is a
        # separator, as the one at the end of "a=e0," is
        text = 'tablet "t"\ngiven-spvn a 2\ngiven-spvn b 3\nconfig A: a=e0 , b=e1\n'
        (conf,) = parse_script(text).configurations
        assert conf.exponents == {"a": 0, "b": 1}

    def test_given_anchored_twice_refused(self):
        text = 'tablet "t"\ngiven-spvn a 2\nconfig A: a=e0, a=e5\n'
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == "line 3: given 'a' anchored twice"
        assert e.value.diagnostic.line == 3 and e.value.diagnostic.token == "a=e5"

    @pytest.mark.parametrize("key", ["expect", "attested"])
    def test_key_repeated_on_a_line_refused(self, key):
        # the later value used to win, so "expect 30 expect 7" judged 30 wrong
        text = f'tablet "t"\ngiven-spvn a 2\nstep recip a {key} 30 {key} 7 as r\n'
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == f"line 3: duplicate {key!r}"
        assert e.value.diagnostic.line == 3 and e.value.diagnostic.token == key
        with pytest.raises(ScriptSyntax, match=f"^line 2: duplicate {key!r}$"):
            parse_script(f'tablet "t"\ngiven L a "1 ninda" expect 1 {key} 1 {key} 2\n')

    def test_second_tablet_directive_refused(self):
        with pytest.raises(ScriptSyntax) as e:
            parse_script('tablet "t"\ngiven-spvn a 2\ntablet "u"\n')
        assert str(e.value) == "line 3: duplicate tablet directive"
        assert e.value.diagnostic.line == 3 and e.value.diagnostic.token == "u"

    def test_quoted_number_is_stripped(self):
        # the corpus rule refused whitespace after an exponent; the number
        # reader strips the token first, as it does a digit sequence
        tail = 'given-spvn a 12\nconfig A: a=e2\nstep half a expect {} as h\n'
        quoted = parse_script('tablet "t"\n' + tail.format('"6e2 "'))
        assert quoted.steps == parse_script('tablet "t"\n' + tail.format("6e2")).steps
        assert run(quoted, "A").passed

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lf_crlf_and_cr_end_lines(self, newline):
        text = newline.join(['tablet "t"', "given-spvn a 2", "step mul a a expect 4 as b", ""])
        assert parse_script(text).steps[0].expect == fn("4")
        with pytest.raises(UnknownName, match="^line 3: undefined name 'c'$"):
            parse_script(text.replace("mul a a", "mul a c"))

    @pytest.mark.parametrize("other", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"])
    def test_no_other_character_ends_a_line(self, other):
        # str.splitlines would cut the comment on line 2 in two
        text = f'tablet "t"\n# page{other}break\ngiven-spvn a 2\nstep mul a b\n'
        with pytest.raises(UnknownName, match="^line 4: undefined name 'b'$"):
            parse_script(text)

    def test_window_quotes_are_optional(self):
        head = 'tablet "t"\ngiven-spvn a 2\nanswer a L window '
        plain = parse_script(head + '"1 ninda..3 ninda"\n')
        quoted = parse_script(head + "'\"1 ninda\"..\"3 ninda\"'\n")
        assert plain.answers[0].window == quoted.answers[0].window


class TestRefusalsNameTheirLine:
    # every refusal of parse_script carries its line, column 1 and the
    # offending token in a diagnostic, whatever its class
    HEAD = 'tablet "t"\ngiven-spvn a 2\n'

    def test_a_number_refusal_keeps_its_column_and_token(self):
        # textio's refusal of a digit, moved to the script line
        with pytest.raises(ParseError) as e:
            parse_script('tablet "t"\ngiven-spvn a 1:2:77\n')
        assert str(e.value.diagnostic) == "line 2, column 5: digit outside 0..59 ('77')"

    @pytest.mark.parametrize(
        "line, cls, message, token",
        [
            ("step frobnicate a expect 1", UnknownOp, "unknown operation 'frobnicate'", "frobnicate"),
            ("step mul a c", UnknownName, "undefined name 'c'", "c"),
            ("answer z", UnknownName, "undefined name 'z'", "z"),
            ("config A: a=e0, q=e1", UnknownName, "configuration anchors unknown given 'q'", "q"),
            ("frobnicate a", ScriptSyntax, "unknown directive 'frobnicate'", "frobnicate"),
            ("step recip a whatever 30", ScriptSyntax, "unexpected token 'whatever'", "whatever"),
            ("config A: a=x1", ScriptSyntax, "bad anchor 'a=x1'", "a=x1"),
            ('tablet "u"', ScriptSyntax, "duplicate tablet directive", "u"),
            # a name is defined once, by a given or by a step
            ("given-spvn a 3", ScriptSyntax, "name 'a' defined twice", "a"),
            ('given L a "1 ninda" expect 1', ScriptSyntax, "name 'a' defined twice", "a"),
            ("step square a as a", ScriptSyntax, "name 'a' defined twice", "a"),
            # the shape refusals name no token
            ("step", ScriptSyntax, "empty step", ""),
            ("step mul a", ScriptSyntax, "mul takes 2 operand name(s)", ""),
            ("tablet", ScriptSyntax, "tablet takes one quoted id", ""),
            ('given L b "1 ninda" expect', ScriptSyntax,
             'given needs: <table> <name> "<measurement>" expect <number>', ""),
            ("given-spvn b", ScriptSyntax, "given-spvn needs: <name> <number>", ""),
            ("config A", ScriptSyntax, "config needs: <name>: given=e<int>, ...", ""),
            ("answer", ScriptSyntax, "answer needs a name", ""),
            ("answer a L", ScriptSyntax,
             'answer needs: <name> <table> window "<m>".."<m>" expect "<m>"', ""),
        ],
    )
    def test_refusal(self, line, cls, message, token):
        with pytest.raises(cls) as e:
            parse_script(self.HEAD + line + "\n")
        assert type(e.value) is cls
        assert str(e.value) == f"line 3: {message}"
        assert e.value.diagnostic == ParseDiagnostic(
            line=3, column=1, message=message, token=token
        )

    def test_a_step_result_is_defined_once(self):
        message = "name 'r' defined twice"
        with pytest.raises(ScriptSyntax) as e:
            parse_script(self.HEAD + "step square a as r\nstep recip a as r\n")
        assert str(e.value) == f"line 4: {message}"
        assert e.value.diagnostic == ParseDiagnostic(4, 1, message, "r")

    def test_an_anchor_names_a_given(self):
        # a step result is defined, but only a given takes an anchor
        message = "configuration anchors unknown given 'r'"
        with pytest.raises(UnknownName) as e:
            parse_script(self.HEAD + "step square a as r\nconfig A: a=e0, r=e5\n")
        assert str(e.value) == f"line 4: {message}"
        assert e.value.diagnostic == ParseDiagnostic(4, 1, message, "r")


#: tokens that a shipped tablet's value tokens are replaced by: refusals
#: of each kind, the script's own keywords, and arbitrary text on one line
_CORRUPT_TOKENS = st.sampled_from(
    ["0", "0:0", "0e1", "1:75", "6:30e1_0", "e3", "1/5 kuš", "0 ninda", "3 furlong",
     "2 ninda..1 ninda", "1 ninda", "Q", "", "expect", "as", "#", "sum=e", "wage=e0"]
) | st.text(max_size=10).filter(lambda t: "\r" not in t and "\n" not in t)


def _value_positions(toks: list[str]) -> list[int]:
    """Where a line holds a token that only that line reads: a table name,
    a measurement, a window, a number, or an anchor."""
    kw = toks[0]
    fixed = {"given": (1, 3), "given-spvn": (2,), "answer": (2, 4)}.get(kw, ())
    keyed = [i + 1 for i in range(1, len(toks) - 1) if toks[i] in ("expect", "attested")]
    anchors = range(2, len(toks)) if kw == "config" else ()
    return sorted({i for i in (*fixed, *keyed, *anchors) if i < len(toks)})


class TestCorruptedTablets:
    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def test_every_refusal_names_the_corrupted_line(self, data):
        path = data.draw(st.sampled_from(sorted(CORPUS.glob("*.tab"))), label="tablet")
        lines = path.read_text(encoding="utf-8").split("\n")
        candidates = [
            (i, toks) for i, toks in enumerate(map(_split_line, lines))
            if toks and _value_positions(toks)
        ]
        i, toks = data.draw(st.sampled_from(candidates), label="line")
        toks[data.draw(st.sampled_from(_value_positions(toks)), label="token")] = data.draw(
            _CORRUPT_TOKENS, label="replacement"
        )
        lines[i] = " ".join(map(shlex.quote, toks))
        try:
            parse_script("\n".join(lines))
        except ParseError as e:
            assert e.diagnostic is not None and e.diagnostic.line == i + 1
            assert str(e).startswith(f"line {i + 1}: ")


class TestGivenTail:
    # a given's expect and attested numbers are plain; the order of its
    # refusals is pinned
    @pytest.mark.parametrize(
        "tail, message",
        [
            ("expect 5e1", "givens expect plain digit sequences"),
            ("attested 5e1", "givens expect plain digit sequences"),
            ("attested 5", "given needs an expect value"),
            ("expect 5e1 expect 6", "duplicate 'expect'"),
        ],
    )
    def test_refusal(self, tail, message):
        text = f'tablet "t"\ngiven L a "1 ninda" {tail}\n'
        with pytest.raises(ScriptSyntax) as e:
            parse_script(text)
        assert str(e.value) == f"line 2: {message}"
        assert e.value.diagnostic.line == 2


def _split_outcome(split, text):
    try:
        return split(text)
    except ValueError as e:
        return f"ValueError: {e}"


def _shlex_split(text):
    return shlex.split(text, comments=True)


class TestTokenizer:
    """Corpus lines split exactly as POSIX ``shlex`` with comments would."""

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("abc#x", ["abc"]),
            ('""', [""]),
            ('a"b c"d', ["ab cd"]),
            ("a # b 'c", ["a"]),
            ('"x#y" z', ["x#y", "z"]),
            (r'"a\"b\\c\d"', ['a"b\\c\\d']),
            (r"'a\b'", ["a\\b"]),
            (r"a\ b \#c", ["a b", "#c"]),
            ("\tx\r\ny ", ["x", "y"]),
            ("a # one\nb", ["a", "b"]),
            ("é'ü' ''", ["éü", ""]),
            ("a\xa0b", ["a\xa0b"]),
            ("a\x1fb", ["a\x1fb"]),
            ("a\x0bb", ["a\x0bb"]),
        ],
    )
    def test_tokens(self, text, tokens):
        assert _split_line(text) == tokens == _shlex_split(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('"x\\', "No escaped character"),
            ("'x", "No closing quotation"),
            ("x\\", "No escaped character"),
            ('"x', "No closing quotation"),
            ('"x\\"', "No closing quotation"),
            ('"x\\\\', "No closing quotation"),
            ("'x\\", "No closing quotation"),
        ],
    )
    def test_errors(self, text, message):
        with pytest.raises(ValueError) as e:
            _split_line(text)
        assert str(e.value) == message
        assert _split_outcome(_shlex_split, text) == f"ValueError: {message}"

    @settings(deadline=None, max_examples=2000)
    @given(
        st.text(
            alphabet="ab1:. \t\r\"'\\#é\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000",
            max_size=24,
        )
    )
    def test_matches_shlex(self, text):
        assert _split_outcome(_split_line, text) == _split_outcome(_shlex_split, text)

    def test_bad_quoting_reaches_the_script_error(self):
        with pytest.raises(ScriptSyntax) as e:
            parse_script('tablet "t"\ngiven-spvn a "5\n')
        assert str(e.value) == "line 2: bad quoting: No closing quotation"
        assert e.value.diagnostic.line == 2


class TestStepErrors:
    def test_reraised_step_error_keeps_its_diagnostic(self, monkeypatch):
        diag = ParseDiagnostic(line=1, column=3, message="digit 75", token="75")

        def boom(a, b):
            raise DigitOutOfRange("digit 75 out of range", diag)

        monkeypatch.setattr(procedures.spvn, "mul", boom)
        script = parse_script('tablet "t"\ngiven-spvn a 2\nstep mul a a expect 4\n')
        with pytest.raises(DigitOutOfRange) as e:
            run(script)
        assert str(e.value) == "line 3: step mul: digit 75 out of range"
        assert e.value.diagnostic == diag._replace(line=3)

    def test_the_step_error_is_the_one_raised(self, monkeypatch):
        # the step's place is put in front of the message of the raised
        # error itself, so whatever else it carries reaches the caller
        raised = NotASquare("no root of 2")
        raised.operand = fn("2")

        def boom(a, b):
            raise raised

        monkeypatch.setattr(procedures.spvn, "mul", boom)
        script = parse_script('tablet "t"\ngiven-spvn a 2\nstep mul a a expect 4\n')
        with pytest.raises(NotASquare) as e:
            run(script)
        assert e.value is raised and e.value.operand == fn("2")
        assert e.value.args == ("line 3: step mul: no root of 2",)

    def test_an_answer_error_names_its_tablet_and_line(self, tmp_path):
        # as a step's does: the window holds five readings of 10; the run
        # names the line and the record, the corpus report the tablet
        text = 'tablet "t"\ngiven-spvn a 10\n\nanswer a L window "1 shu-si".."59 danna"\n'
        with pytest.raises(AmbiguousReading, match="^line 4: answer a: 5 readings of 10 in L "):
            run(parse_script(text))
        (tmp_path / "wide.tab").write_text(text, encoding="utf-8")
        (report,) = verify_corpus(tmp_path).reports
        assert report.tablet == "t" and report.error.startswith("line 4: answer a: 5 readings")

    def test_a_floating_add_needs_a_configuration(self, tmp_path):
        text = 'tablet "t"\ngiven-spvn a 2\ngiven-spvn b 3\nstep add a b as c\n'
        with pytest.raises(MissingConfig) as e:
            run(parse_script(text))
        assert str(e.value) == "line 4: step add: needs a configuration"
        (tmp_path / "add.tab").write_text(text, encoding="utf-8")
        (report,) = verify_corpus(tmp_path).reports
        assert (report.tablet, report.error) == ("t", str(e.value))


def _product_script(op: str, lengths) -> str:
    """A tablet whose one ``op`` step reads givens of the given digit counts."""
    names = "ab"[: len(lengths)]
    return "\n".join(
        ['tablet "t"']
        + [f"given-spvn {x} {':'.join(['1'] * k)}" for x, k in zip(names, lengths)]
        + ["config A: " + ", ".join(f"{x}=e0" for x in names)]
        + [f"step {op} {' '.join(names)}"]
    )


class TestProductBound:
    HALF = spvn.MAX_PRODUCT_DIGITS // 2

    @pytest.mark.parametrize("config", [None, "A"])
    @pytest.mark.parametrize("op, lengths", [("mul", (HALF, HALF)), ("square", (HALF,))])
    def test_at_the_bound(self, op, lengths, config):
        script = parse_script(_product_script(op, lengths))
        a, b = (fn(":".join(["1"] * k)) for k in (lengths[0], lengths[-1]))
        step = run(script, config).records[-1]
        assert procedures._digits_of(step.computed) == a * b

    @pytest.mark.parametrize("config", [None, "A"])
    @pytest.mark.parametrize(
        "op, lengths, total",
        [
            ("mul", (HALF, HALF + 1), 2 * HALF + 1),
            ("square", (HALF + 1,), 2 * HALF + 2),
            ("divrecip", (HALF + 1, HALF), 2 * HALF + 1),
            ("recip", (2 * HALF + 1,), 2 * HALF + 1),
        ],
    )
    def test_beyond_the_bound(self, monkeypatch, op, lengths, total, config):
        # refused before any product is built, on both paths
        def boom(*args):
            raise AssertionError("a product was built")

        monkeypatch.setattr(procedures.spvn, "mul", boom)
        monkeypatch.setattr(procedures.abacus, "mul_anchored", boom)
        monkeypatch.setattr(procedures.recip, "reciprocal", boom)
        script = parse_script(_product_script(op, lengths))
        limit = spvn.MAX_PRODUCT_DIGITS
        line = len(lengths) + 3
        with pytest.raises(ProductTooLong) as e:
            run(script, config)
        assert str(e.value) == (
            f"line {line}: step {op}: operands of {op} hold {total} digits"
            f" together, more than {limit}"
        )

    @pytest.mark.parametrize("config", [None, "A"])
    def test_recip_at_the_bound_reaches_the_peel(self, config):
        # 1:1:...:1 is (60**k - 1) / 59, prime to 2, 3 and 5
        script = parse_script(_product_script("recip", (2 * self.HALF,)))
        with pytest.raises(Irregular):
            run(script, config)


class TestRunLinear:
    def test_trench_cost(self):
        t = run(parse_script(corpus_text("ybc4663-1.tab")))
        steps = [r for r in t.records if r.kind == "step"]
        assert [str(r.computed) for r in steps] == ["7:30", "45", "4:30", "9"]
        assert t.passed

    def test_trench_depth(self):
        t = run(parse_script(corpus_text("ybc4663-4.tab")))
        steps = [str(r.computed) for r in t.records if r.kind == "step"]
        assert steps == ["7:30", "45", "1:30", "40", "6"]
        answers = [r for r in t.records if r.kind == "answer"]
        assert str(answers[0].computed) == "1/2 ninda"
        assert t.passed

    def test_square_surface(self):
        t = run(parse_script(corpus_text("um29-15-192.tab")))
        assert t.passed
        answer = [r for r in t.records if r.kind == "answer"][0]
        assert str(answer.computed) == "1/3 še"

    def test_rederive_expectations(self):
        # strip every annotation; the computation alone must reproduce them
        for name in ("um29-15-192.tab", "ybc4663-1.tab", "ybc4663-4.tab"):
            t = run(parse_script(corpus_text(name)))
            for r in t.records:
                if r.expected is not None:
                    assert r.matched, (name, r.name)

    def test_answer_stage_soundness(self):
        t = run(parse_script(corpus_text("ybc4663-4.tab")))
        final = {r.name: r for r in t.records}
        reading = final["depth"]  # answer record overwrote step record
        assert to_number(reading.computed) == fn("6")


class TestRunReciprocalExercises:
    def test_scribal_error_is_note_not_failure(self):
        t = run(parse_script(corpus_text("ni10241.tab")))
        assert t.passed
        notes = t.scribal_notes()
        assert len(notes) == 1
        assert notes[0].name == "quotient"
        assert str(notes[0].attested) == "41"
        assert str(notes[0].expected) == "40"

    @pytest.mark.parametrize("tail", ["attested 30", "attested 7"])
    def test_attested_without_expect_is_no_scribal_note(self, tail):
        t = run(parse_script(f'tablet "t"\ngiven-spvn a 2\nstep recip a {tail} as r\n'))
        assert t.passed and t.scribal_notes() == ()

    def test_long_reciprocal_trace_products(self):
        t = run(parse_script(corpus_text("cbs1215-20.tab")))
        assert t.passed
        rec = [r for r in t.records if r.name == "r"][0]
        fact = rec.factorization
        assert [str(f) for f in fact.factors] == ["6:40", "40", "16", "16", "16"]
        from mesomath.recip import running_products

        assert [str(p) for p in running_products(fact)] == [
            "14:3:45",
            "52:44:3:45",
            "1:19:6:5:37:30",
            "11:51:54:50:37:30",
        ]

    def test_anchored_recip_step_inverts_once(self, monkeypatch):
        from mesomath import abacus, recip

        script = parse_script(
            'tablet "t"\n'
            "given-spvn a 4:26:40\n"
            "config A: a=e1\n"
            "step recip a expect 13:30 as r\n"
        )
        calls = []
        real = recip.reciprocal

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(recip, "reciprocal", counting)
        t = run(script, "A")
        assert t.passed and len(calls) == 1
        rec = [r for r in t.records if r.name == "r"][0]
        a = abacus.AnchoredNumber(fn("4:26:40"), 1)
        assert rec.computed == abacus.AnchoredNumber(fn("13:30"), -5)
        assert rec.computed.value() == 1 / a.value()
        assert [str(f) for f in rec.factorization.factors] == ["6:40", "40"]

    def test_disk(self):
        t = run(parse_script(corpus_text("ybc7302.tab")))
        assert t.passed
        steps = [str(r.computed) for r in t.records if r.kind == "step"]
        assert steps == ["9", "45"]


class TestRunQuadratic:
    def test_config_a_trace(self):
        t = run(parse_script(corpus_text("ybc4663-7.tab")), "A")
        assert t.passed
        by_name = {r.name: r for r in t.records if r.kind == "step"}
        assert str(by_name["halfsum"].computed.digits) == "3:15"
        assert str(by_name["halfsumsq"].computed.digits) == "10:33:45"
        assert str(by_name["gap"].computed.digits) == "3:3:45"
        assert str(by_name["root"].computed.digits) == "1:45"
        assert str(by_name["width"].computed.digits) == "1:30"
        answers = [r for r in t.records if r.kind == "answer"]
        assert [str(r.computed) for r in answers] == ["5 ninda", "1 1/2 ninda"]

    def test_configuration_invariance(self):
        script = parse_script(corpus_text("ybc4663-7.tab"))
        traces = {c.name: run(script, c.name) for c in script.configurations}
        assert set(traces) == {"A", "B", "C"}
        a, b, c = traces["A"], traces["B"], traces["C"]
        for ra, rb, rc in zip(a.records, b.records, c.records):
            if ra.kind == "answer":
                assert ra.computed == rb.computed == rc.computed
            else:
                assert (
                    ra.computed.digits == rb.computed.digits == rc.computed.digits
                )

    def test_missing_config(self):
        with pytest.raises(MissingConfig):
            run(parse_script(corpus_text("ybc4663-7.tab")))

    def test_floating_sqrt_ignores_the_anchor(self):
        # floating, 15 stands for 15 * 60 = 900 = 30**2; anchored at e0 it
        # is fifteen, which has no root
        script = parse_script(
            'tablet "root"\n'
            "given-spvn x 15\n"
            "config A: x=e0\n"
            "step sqrt x expect 30\n"
        )
        floating = run(script)
        assert floating.passed
        assert floating.records[-1].computed == fn("30")
        with pytest.raises(NotASquare):
            run(script, "A")

    def test_unknown_config(self):
        with pytest.raises(UnknownName):
            run(parse_script(corpus_text("ybc4663-7.tab")), "Z")


class TestVerifyCorpus:
    def test_shipped_corpus_passes(self):
        summary = verify_corpus(CORPUS)
        assert summary.passed
        assert len(summary.reports) == 7
        assert [r.tablet for r in summary.reports] == sorted(
            r.tablet for r in summary.reports
        )

    def test_corrupted_expectation_fails_only_that_tablet(self, tmp_path):
        good = corpus_text("ybc4663-1.tab")
        (tmp_path / "good.tab").write_text(good, encoding="utf-8")
        (tmp_path / "bad.tab").write_text(
            good.replace("expect 7:30", "expect 7:31").replace(
                'tablet "YBC 4663 #1"', 'tablet "corrupt"'
            ),
            encoding="utf-8",
        )
        summary = verify_corpus(tmp_path)
        assert not summary.passed
        by_id = {r.tablet: r for r in summary.reports}
        assert by_id["YBC 4663 #1"].passed
        assert not by_id["corrupt"].passed

    def test_digits_must_agree_across_configurations(self, tmp_path):
        # no expect values: only the comparison between configurations
        # can notice that A gives 2e0 and B gives 1:1e0
        (tmp_path / "drift.tab").write_text(
            'tablet "drift"\n'
            "given-spvn a 1\n"
            "given-spvn b 1\n"
            "config A: a=e0, b=e0\n"
            "config B: a=e1, b=e0\n"
            "step add a b\n",
            encoding="utf-8",
        )
        summary = verify_corpus(tmp_path)
        assert not summary.passed
        (report,) = summary.reports
        assert all(t.passed for t in report.traces)
        assert report.error == (
            "step add differs across configurations: A gives 2, B gives 1:1"
        )

    def test_a_long_divergence_is_echoed_clipped(self, tmp_path):
        # the record's name, the configurations and both digit sequences
        ones, name, conf = ":".join(["1"] * 3000), "r" * 3000, "C" * 3000
        (tmp_path / "drift.tab").write_text(
            f'tablet "drift"\ngiven-spvn a {ones}\ngiven-spvn b 1\n'
            f"config A: a=e0, b=e0\nconfig {conf}: a=e1, b=e0\nstep add a b as {name}\n",
            encoding="utf-8",
        )
        (report,) = verify_corpus(tmp_path).reports
        assert report.error.startswith(f"step {'r' * 24}…{'r' * 24} (3000 characters) differs")
        assert len(report.error) < 400

    def test_refused_files_are_reported_not_raised(self, tmp_path):
        (tmp_path / "good.tab").write_text(corpus_text("ybc7302.tab"), encoding="utf-8")
        (tmp_path / "latin1.tab").write_bytes(b'tablet "t"\n# caf\xe9\n')
        (tmp_path / "unanchored.tab").write_text(
            'tablet "u"\ngiven-spvn a 2\ngiven-spvn b 3\nconfig c1: a=e0\n',
            encoding="utf-8",
        )
        (tmp_path / "folder.tab").mkdir()
        by_id = {r.tablet: r for r in verify_corpus(tmp_path).reports}
        assert by_id["YBC 7302"].passed
        assert "Is a directory" in by_id["folder"].error
        assert by_id["latin1"].error.startswith("line 2: not UTF-8 text")
        assert by_id["unanchored"].error == (
            "line 4: configuration 'c1' does not anchor given 'b'"
        )

    def test_path_that_is_not_a_directory(self, tmp_path):
        (tmp_path / "a.tab").write_text('tablet "t"\n')
        for path in (tmp_path / "missing", tmp_path / "a.tab"):
            with pytest.raises(OSError, match="not a directory"):
                verify_corpus(path)

    def test_empty_directory_warns(self, tmp_path):
        summary = verify_corpus(tmp_path)
        assert summary.passed
        assert summary.warnings

    def test_many_configurations_verify_in_linear_time(self, tmp_path):
        # each configuration is replayed as parsed; looking each one up
        # by name scanned the tuple and made 16,000 of them take 8 s
        (tmp_path / "t.tab").write_text(
            'tablet "t"\ngiven-spvn a 2\nstep mul a a expect 4 as b\n'
            + "".join(f"config c{i}: a=e{i % 7}\n" for i in range(16_000))
        )
        start = time.perf_counter()
        summary = verify_corpus(tmp_path)
        assert time.perf_counter() - start < 2
        (report,) = summary.reports
        assert summary.passed and len(report.traces) == 16_000
        assert [t.configuration for t in report.traces[:2]] == ["c0", "c1"]


class TestRunFile:
    def test_run_file(self):
        t = run_file(CORPUS / "ybc7302.tab")
        assert t.passed

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.tab"
        path.write_bytes(b'tablet "t"\ngiven-spvn a 2\n# caf\xe9\n')
        with pytest.raises(ScriptSyntax) as e:
            run_file(path)
        assert e.value.diagnostic.line == 3

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = corpus_text("ybc7302.tab")
        path = tmp_path / "bom.tab"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        assert run_file(path) == run(parse_script(text))

    def test_not_utf8_after_a_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom-latin1.tab"
        path.write_bytes(b'\xef\xbb\xbftablet "t"\ngiven-spvn a 2\n# caf\xe9\n')
        with pytest.raises(ScriptSyntax) as e:
            run_file(path)
        assert str(e.value) == "line 3: not UTF-8 text: invalid continuation byte"
        assert e.value.diagnostic.line == 3

    def test_not_utf8_counts_universal_newlines(self, tmp_path):
        # CR ends line 1; the form feed and NEL (U+0085) end no line
        path = tmp_path / "cr.tab"
        path.write_bytes(b'tablet "t"\r\x0c\xc2\x85# caf\xe9\r')
        with pytest.raises(ScriptSyntax) as e:
            run_file(path)
        assert e.value.diagnostic.line == 2
