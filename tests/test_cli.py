import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mesomath import cli
from mesomath.cli import EXIT_ARITH, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from mesomath.errors import ParseError
from mesomath.procedures import parse_script, run, shipped_corpus_dir
from mesomath.recip import ElementaryTable, reciprocal
from mesomath.tables import gen_multiplication_table
from mesomath.textio import parse_spvn as fn
import oracle as O
from oracles import smooth_numbers


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArithmeticCommands:
    def test_mul(self, capsys):
        code, out, _ = run_cli(capsys, "mul", "20", "20")
        assert code == EXIT_OK and out == "6:40\n"

    def test_mul_identity(self, capsys):
        assert run_cli(capsys, "mul", "1", "1")[1] == "1\n"

    def test_square(self, capsys):
        assert run_cli(capsys, "square", "3:15")[1] == "10:33:45\n"

    def test_sqrt(self, capsys):
        assert run_cli(capsys, "sqrt", "3:3:45")[1] == "1:45\n"

    def test_cbrt(self, capsys):
        assert run_cli(capsys, "cbrt", "3:22:30")[1] == "1:30\n"

    def test_recip(self, capsys):
        assert run_cli(capsys, "recip", "5:3:24:26:40")[1] == "11:51:54:50:37:30\n"
        assert run_cli(capsys, "recip", "7:30") == (EXIT_OK, "8\n", "")

    def test_recip_trace(self, capsys):
        code, out, _ = run_cli(capsys, "recip", "4:26:40", "--trace")
        assert code == EXIT_OK
        assert out.splitlines() == ["4:26:40  9", "40       1:30", "13:30"]

    def test_recip_trace_long(self, capsys):
        _, out, _ = run_cli(capsys, "recip", "5:3:24:26:40", "--trace")
        lines = out.splitlines()
        assert lines[0].split() == ["5:3:24:26:40", "9"]
        assert "14:3:45" in lines and "52:44:3:45" in lines
        assert lines[-1] == "11:51:54:50:37:30"

    @pytest.mark.parametrize(
        "n, lines",
        [("7:12", ["7:12  8:20", "8:20"]), ("14:24", ["14:24  30", "7:12   8:20", "4:10"])],
    )
    def test_recip_trace_of_another_table(self, capsys, n, lines):
        # 7:12 is not in the standard table: the columns come from the
        # table that the peel read, without being handed it again
        table = ElementaryTable([(fn("2"), fn("30")), (fn("7:12"), fn("8:20"))])
        _, fact = reciprocal(fn(n), table=table)
        cli._print_recip_trace(fact)
        assert capsys.readouterr().out.splitlines() == lines

    def test_recip_strategy_flag(self, capsys):
        a = run_cli(capsys, "recip", "45:30:40", "--strategy", "wedge")[1]
        b = run_cli(capsys, "recip", "45:30:40", "--strategy", "largest")[1]
        assert a == b  # same value either way


def _sexagesimal(v):
    return O.show(O.canon(v))


# 2**a * 3**b * 5**c, from 5 to 40 digits after stripping factors of 60
PINNED_RECIP_EXPONENTS = (
    (129, 76, 62), (25, 33, 12), (14, 14, 20), (97, 33, 38), (71, 38, 22),
    (43, 23, 6), (105, 82, 62), (102, 35, 21), (88, 9, 16), (24, 29, 41),
    (137, 48, 33), (44, 65, 38), (91, 3, 13), (25, 82, 13), (89, 21, 1),
    (11, 77, 2), (66, 86, 53), (20, 81, 2), (121, 51, 15), (24, 53, 51),
    (130, 30, 4), (110, 63, 12), (80, 7, 54), (24, 50, 63), (119, 50, 4),
    (93, 4, 52), (127, 52, 2), (119, 78, 10), (1, 85, 39), (19, 78, 61),
)


@pytest.fixture(scope="module")
def long_operand():
    """The 36,415 digits of 2**120000 * 3**60000, converted once per module."""
    return _sexagesimal(2**120000 * 3**60000)


@pytest.fixture(scope="module")
def long_recip_tablet(tmp_path_factory, long_operand):
    """A tablet whose one step inverts a number of 36,415 digits."""
    p = tmp_path_factory.mktemp("recip") / "long.tab"
    p.write_text(
        f'tablet "t"\ngiven-spvn a {long_operand}\n'
        "config A: a=e0\nstep recip a as r\n"
    )
    return p


#: operands one digit past the bound when multiplied or squared
_OVER_BOUND = ":".join(["1"] * 5001)
_AT_HALF_BOUND = ":".join(["1"] * 5000)


class TestRecipTracePin:
    """Every byte of ``recip --trace`` on long inputs, pinned by hash.

    A speed-up may not change a single output byte or factor choice; the
    hash was taken before the integer bridge kept its representative.
    """

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            ("wedge", "693edf11a5694ccc57003722e2c753b5ef4da28446d697a14a2ac8ebf1312843"),
            ("largest", "e83b1e2e46f8d01962f4d0fa24e41dc72395ef36a57b0326739f262b4279d335"),
        ],
    )
    def test_long_reciprocals(self, capsys, strategy, digest):
        h = hashlib.sha256()
        for a, b, c in PINNED_RECIP_EXPONENTS:
            n = _sexagesimal(2**a * 3**b * 5**c)
            assert 5 <= n.count(":") + 1 <= 40
            code, out, err = run_cli(capsys, "recip", n, "--trace", "--strategy", strategy)
            assert code == EXIT_OK and not err
            h.update(f"{n}\n{out}".encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize(
        "strategy, digest",
        [
            ("wedge", "ac9fa0ea750fa2425c842400fbdd9ae6eecef456d49557c0570b457e3de5b048"),
            ("largest", "95b11653f29620d61d5d8da396ca796dece2bfbcbce428b18b19f8ed2aa3c775"),
        ],
    )
    def test_short_reciprocals_and_the_way_back(self, capsys, strategy, digest):
        # the 432 regular numbers below 60**4 that 60 does not divide, each
        # inverted and its reciprocal inverted again, as the sweep does
        h = hashlib.sha256()
        for v in smooth_numbers(60**4):
            if not v % 60:
                continue
            n = _sexagesimal(v)
            code, out, err = run_cli(capsys, "recip", n, "--trace", "--strategy", strategy)
            assert code == EXIT_OK and not err
            r = out.splitlines()[-1]
            code, back, err = run_cli(capsys, "recip", r, "--trace", "--strategy", strategy)
            assert code == EXIT_OK and not err and back.splitlines()[-1] == n
            h.update(f"{n}\n{out}{back}".encode())
        assert h.hexdigest() == digest


class TestExitCodes:
    def test_irregular_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "recip", "7")
        assert code == EXIT_ARITH and out == "" and "without reciprocal" in err

    def test_not_a_square_exits_3(self, capsys):
        assert run_cli(capsys, "sqrt", "2")[0] == EXIT_ARITH

    def test_long_not_a_square_echo_is_clipped(self, capsys):
        # 6,000 digits ending in 7: 3 mod 4, so no square, and sqrt has
        # no size guard; the message echoes the operand clipped
        code, out, err = run_cli(capsys, "sqrt", ":".join(["7"] * 6000))
        assert code == EXIT_ARITH and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "has no exact square root" in err
        assert len(err.encode()) < 200

    def test_recip_trace_is_refused_past_its_bound(self, capsys):
        # 1:1:...:1 has no factor 2, 3 or 5: at the bound the peel runs and
        # finds it irregular; one digit more is refused before the peel
        ones = ":".join(["1"] * cli.MAX_TRACE_DIGITS)
        code, out, err = run_cli(capsys, "recip", ones, "--trace")
        assert code == EXIT_ARITH and out == "" and "without reciprocal" in err
        with mock.patch.object(cli.recip, "reciprocal", side_effect=AssertionError):
            code, out, err = run_cli(capsys, "recip", ones + ":1", "--trace")
        assert (code, out) == (EXIT_ARITH, "")
        assert err == "error: recip --trace takes at most 1000 digits, not 1001\n"

    def test_parse_error_exits_2(self, capsys):
        assert run_cli(capsys, "mul", "1:75", "2")[0] == EXIT_USAGE

    def test_all_zero_exits_2(self, capsys):
        # there is no zero numeral, so "0" is unparsable input
        code, out, err = run_cli(capsys, "recip", "0")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_usage_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_no_reading_exits_3(self, capsys):
        code, _, err = run_cli(
            capsys, "convert", "from-spvn", "L", "7",
            "--window", "1 ninda..2 ninda",
        )
        assert code == EXIT_ARITH and "no reading" in err

    def test_ambiguous_exits_3(self, capsys):
        code, _, _ = run_cli(
            capsys, "convert", "from-spvn", "Lh", "6",
            "--window", "1 shu-si..2 ninda",
        )
        assert code == EXIT_ARITH

    def test_zero_result_exits_3(self, capsys, tmp_path):
        script = (
            'tablet "t"\n'
            "given-spvn a 5\n"
            "config A: a=e0\n"
            "step sub a a expect 1\n"
        )
        p = tmp_path / "zero.tab"
        p.write_text(script)
        code, _, err = run_cli(capsys, "run", str(p), "--config", "A")
        assert code == EXIT_ARITH and "zero" in err

    def test_negative_result_exits_3(self, capsys, tmp_path):
        script = (
            'tablet "t"\n'
            "given-spvn a 5\n"
            "given-spvn b 12\n"
            "config A: a=e0, b=e0\n"
            "step sub a b expect 1\n"
        )
        p = tmp_path / "neg.tab"
        p.write_text(script)
        code, _, err = run_cli(capsys, "run", str(p), "--config", "A")
        assert code == EXIT_ARITH and "negative" in err

    @pytest.mark.parametrize("op", ["add", "sub"])
    def test_anchor_gap_exits_3_at_once(self, capsys, tmp_path, op):
        p = tmp_path / "gap.tab"
        p.write_text(
            'tablet "t"\ngiven-spvn a 1\ngiven-spvn b 1\n'
            f"config A: a=e0, b=e200000\nstep {op} b a expect 1\n"
        )
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "run", str(p), "--config", "A")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ARITH and out == ""
        assert err.count("\n") == 1 and "200000 columns apart" in err

    def test_square_chain_exits_3_at_once(self, capsys, tmp_path):
        # each square doubles the digits: 59 squared twenty times would
        # end near a million digits
        lines = ['tablet "t"', "given-spvn a0 59"]
        lines += [f"step square a{i - 1} as a{i}" for i in range(1, 21)]
        p = tmp_path / "squares.tab"
        p.write_text("\n".join(lines) + "\n")
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "run", str(p))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ARITH and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: line 16: step square: operands of square hold")

    @pytest.mark.parametrize("config", [[], ["--config", "A"]])
    def test_long_recip_exits_3_at_once(self, capsys, long_recip_tablet, config):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "run", str(long_recip_tablet), *config)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ARITH and out == ""
        assert err.count("\n") == 1
        assert err.startswith("error: line 4: step recip: operands of recip hold 36415 digits")

    def test_long_recip_argument_exits_3_at_once(self, capsys, long_operand):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "recip", long_operand)
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_ARITH and out == ""
        assert err == (
            "error: operands of recip hold 36415 digits together, more than 10000\n"
        )

    @pytest.mark.parametrize(
        "argv, total",
        [(["mul", _OVER_BOUND, _AT_HALF_BOUND], 10001), (["square", _OVER_BOUND], 10002)],
    )
    def test_long_product_arguments_exit_3(self, capsys, argv, total):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ARITH and out == ""
        assert err == (
            f"error: operands of {argv[0]} hold {total} digits together,"
            " more than 10000\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["mul", "1" * 5000, "2"],
            ["convert", "to-spvn", "L", "1" * 5000 + " kush"],
            ["convert", "to-spvn", "L", "1" * 5000 + "/2 kush"],
            ["convert", "readings", "L", "1" * 5000],
            ["mul", ":".join(["7"] * 5000) + ":x", "3"],
            ["convert", "to-spvn", "L", "3 kush " + "x" * 20000],
            ["convert", "from-spvn", "L", "7", "--window", "1 kush" + "y" * 20000],
        ],
    )
    def test_tokens_past_the_int_limit_exit_2(self, capsys, argv):
        # a refusal echoes a long token clipped, in one short line
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err.encode()) < 200

    def test_long_directive_is_echoed_clipped(self, capsys, tmp_path):
        path = tmp_path / "long.tab"
        path.write_text('tablet "t"\n' + "z" * 20000 + "\n")
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: line 2: unknown directive 'zzz") and err.count("\n") == 1
        assert len(err.encode()) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["convert", "readings", "L", "3", "--span", "2500"],
            ["convert", "readings", "L", ":".join(["7"] * 3000), "--span", "1"],
        ],
    )
    def test_readings_past_the_int_limit_exit_3(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_ARITH and out == ""
        assert err == "error: reading too long: its count of danna would have more than 4300 digits\n"

    def test_long_reading_is_refused_at_once(self):
        # the cycle walk starts two cycles below the units place, so the
        # first reading of n digits costs a few steps on an n-digit integer
        # and the whole process ends well inside the bound
        cmd = [sys.executable, "-m", "mesomath.cli", "convert", "readings", "L"]
        start = time.perf_counter()
        proc = subprocess.run(
            cmd + [":".join(["7"] * 6000), "--span", "1"], capture_output=True, text=True
        )
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == EXIT_ARITH and proc.stdout == ""
        assert proc.stderr == (
            "error: reading too long: its count of danna would have more than 4300 digits\n"
        )
        proc = subprocess.run(cmd + [":".join(["7"] * 1500), "--span", "1"], capture_output=True)
        assert proc.returncode == EXIT_OK and proc.stdout.count(b"\n") == 1

    def test_leading_zeros_past_the_int_limit_are_insignificant(self, capsys):
        assert run_cli(capsys, "mul", "0" * 4999 + "1", "2") == (EXIT_OK, "2\n", "")

    def test_window_without_dots_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "convert", "from-spvn", "L", "10", "--window", "x")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "name, content",
        [
            ("latin1.tab", b'tablet "t"\n# caf\xe9\n'),
            ("unanchored.tab", b'tablet "t"\ngiven-spvn a 2\ngiven-spvn b 3\nconfig c1: a=e0\n'),
            ("dir.tab", None),
        ],
    )
    def test_file_refusals_exit_2(self, capsys, tmp_path, name, content):
        path = tmp_path / name
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run_cli(capsys, "run", str(path), "--config", "c1")
        assert code == EXIT_USAGE and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tail", ["expect", 'whatever "9 ninda" extra'])
    def test_answer_tail_refused_exits_2(self, capsys, tmp_path, tail):
        path = tmp_path / "tail.tab"
        path.write_text(
            f'tablet "t"\ngiven-spvn a 2\nanswer a L window "1 ninda..3 ninda" {tail}\n',
            encoding="utf-8",
        )
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: line 3: unexpected token {tail.split()[0]!r}\n"

    def test_mult_table_is_refused_past_the_product_bound(self, capsys):
        # the table's widest product is the head times 50: a head of 9,999
        # digits reaches the generator, one of 10,000 is refused before it
        head = ":".join(["1"] * 9999)
        small = gen_multiplication_table(fn("9"))
        with mock.patch(
            "mesomath.tables.gen_multiplication_table", return_value=small
        ) as gen:
            code, out, err = run_cli(capsys, "table", "mult", head)
        assert (code, err) == (EXIT_OK, "") and out.splitlines()[6].split() == ["7", "1:3"]
        assert len(gen.call_args.args[0]) == 9999
        with mock.patch(
            "mesomath.tables.gen_multiplication_table", side_effect=AssertionError
        ):
            code, out, err = run_cli(capsys, "table", "mult", head + ":1")
        assert (code, out) == (EXIT_ARITH, "")
        assert err == "error: operands of mul hold 10001 digits together, more than 10000\n"

    @pytest.mark.parametrize("span", ["+2", "2_0", "٣", " 4", "4.0", "-"])
    def test_span_reads_the_exponent_grammar(self, capsys, span):
        code, out, err = run_cli(capsys, "convert", "readings", "L", "3", "--span", span)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.endswith(f"error: argument --span: invalid int value: {span!r}\n")

    @pytest.mark.parametrize("span", ["-1", "0", "-0"])
    def test_span_below_one_is_refused_after_reading(self, capsys, span):
        code, out, err = run_cli(capsys, "convert", "readings", "L", "3", "--span", span)
        assert (code, out, err) == (EXIT_USAGE, "", "error: span must be at least 1\n")

    def test_span_leading_zeros_are_insignificant(self, capsys):
        argv = ("convert", "readings", "L", "3", "--span")
        assert run_cli(capsys, *argv, "0" * 5000 + "2") == run_cli(capsys, *argv, "2")

    def test_degenerate_ranges_exit_2(self, capsys):
        assert run_cli(capsys, "convert", "readings", "L", "3", "--span", "0")[0] == EXIT_USAGE
        assert run_cli(
            capsys, "table", "metro", "L", "--from", "2 kush", "--to", "1 shu-si"
        )[0] == EXIT_USAGE
        assert run_cli(
            capsys, "convert", "from-spvn", "L", "5", "--window", "2 ninda..1 ninda"
        )[0] == EXIT_USAGE


def test_parse_error_family_is_pinned():
    # the CLI exits 2 on these and 3 on every other library error, so a
    # new parse error must join the family to keep its exit code
    assert {c.__name__ for c in ParseError.__subclasses__()} == {
        "AllZero", "EmptyInput", "DigitOutOfRange", "MalformedSeparator",
        "UnknownUnit", "UnitOrderViolation", "BadFraction", "MeasurementSyntax",
        "ScriptSyntax", "UnknownName", "UnknownOp",
    }


class TestTables:
    def test_recip_table(self, capsys):
        _, out, _ = run_cli(capsys, "table", "recip")
        lines = out.splitlines()
        assert len(lines) == 27
        assert lines[0].split() == ["2", "30"]
        assert lines[-1].split() == ["1:21", "44:26:40"]

    def test_mult_table(self, capsys):
        _, out, _ = run_cli(capsys, "table", "mult", "9")
        lines = out.splitlines()
        assert len(lines) == 23
        assert lines[6].split() == ["7", "1:3"]
        assert lines[19].split() == ["20", "3"]

    def test_metro_table(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "metro", "L", "--from", "1 shu-si", "--to", "2 kush"
        )
        assert len(out.splitlines()) == 18

    def test_metro_csv(self, capsys):
        _, out, _ = run_cli(
            capsys, "table", "metro", "L",
            "--from", "1 shu-si", "--to", "2 kush", "--format", "csv",
        )
        assert out.splitlines()[0] == "measurement,number"
        assert len(out.splitlines()) == 19


class TestConvert:
    def test_to_spvn(self, capsys):
        assert run_cli(capsys, "convert", "to-spvn", "W", "6 she")[1] == "2\n"

    def test_from_spvn(self, capsys):
        _, out, _ = run_cli(
            capsys, "convert", "from-spvn", "Lh", "6",
            "--window", "1 kush..2 ninda",
        )
        assert out == "1/2 ninda\n"

    def test_readings(self, capsys):
        _, out, _ = run_cli(capsys, "convert", "readings", "L", "3", "--span", "4")
        assert out.splitlines() == ["1/2 kuš 3 šu-si", "3 ninda", "3 uš", "6 danna"]
        _, out, _ = run_cli(capsys, "convert", "readings", "Lh", "6", "--span", "4")
        assert out.splitlines() == ["3 šu-si", "1/2 ninda", "30 ninda", "1 danna"]


class TestRunAndCheck:
    def test_run_quadratic(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(shipped_corpus_dir() / "ybc4663-7.tab"),
            "--config", "A",
        )
        assert code == EXIT_OK
        assert "5 ninda" in out and "1 1/2 ninda" in out
        assert out.strip().endswith("PASS")

    def test_run_without_config_fails_cleanly(self, capsys):
        code, _, err = run_cli(
            capsys, "run", str(shipped_corpus_dir() / "ybc4663-7.tab")
        )
        assert code == EXIT_ARITH and "configuration" in err

    def test_check_shipped_corpus(self, capsys):
        code, out, _ = run_cli(capsys, "check", str(shipped_corpus_dir()))
        assert code == EXIT_OK
        assert "7/7 tablets pass" in out

    def test_check_detects_corruption(self, capsys, tmp_path):
        src = (shipped_corpus_dir() / "ybc4663-1.tab").read_text()
        (tmp_path / "bad.tab").write_text(src.replace("expect 45", "expect 46"))
        code, out, _ = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY
        assert "FAIL" in out

    def test_check_detects_configuration_drift(self, capsys, tmp_path):
        (tmp_path / "drift.tab").write_text(
            'tablet "drift"\ngiven-spvn a 1\ngiven-spvn b 1\n'
            "config A: a=e0, b=e0\nconfig B: a=e1, b=e0\nstep add a b\n"
        )
        code, out, _ = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY
        assert "drift: ERROR step add differs" in out and "0/1" in out

    def test_an_answer_refusal_names_its_tablet_and_line(self, capsys, tmp_path):
        path = tmp_path / "wide.tab"
        path.write_text('tablet "t"\ngiven-spvn a 10\nanswer a L window "1 shu-si".."59 danna"\n')
        message = ("line 3: answer a: 5 readings of 10 in L within 1 šu-si .. 59 danna:"
                   " 1 šu-si; 2 kuš; 10 ninda; 10 uš; 20 danna")
        assert run_cli(capsys, "run", str(path)) == (EXIT_ARITH, "", f"error: {message}\n")
        out = f"t: ERROR {message}\n0/1 tablets pass\n"
        assert run_cli(capsys, "check", str(tmp_path)) == (EXIT_VERIFY, out, "")

    def test_check_names_a_run_refusal_by_its_tablet(self, capsys, tmp_path):
        # two files hold tablet t and are refused while they run: each is
        # named by the id and told apart by its file; a file refused while
        # it parses has no id and keeps its stem
        (tmp_path / "irregular.tab").write_text('tablet "t"\ngiven-spvn a 7\nstep recip a\n')
        (tmp_path / "wide.tab").write_text(
            'tablet "t"\ngiven-spvn a 10\nanswer a L window "1 shu-si".."59 danna"\n'
        )
        (tmp_path / "unparsed.tab").write_text('tablet "t"\nstep cube a\n')
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "t (irregular.tab): ERROR line 3: step recip: 7 is without reciprocal",
            "t (wide.tab): ERROR line 3: answer a: 5 readings of 10 in L within"
            " 1 šu-si .. 59 danna: 1 šu-si; 2 kuš; 10 ninda; 10 uš; 20 danna",
            "unparsed: ERROR line 2: unknown operation 'cube'",
            "0/3 tablets pass",
        ]

    def test_check_clips_a_long_tablet_id(self, capsys, tmp_path):
        # a 20,000-character id refused while it runs is echoed clipped;
        # an id of 64 characters prints whole
        long_id, id_64 = "x" * 20_000, "y" * 64
        (tmp_path / "long.tab").write_text(f'tablet "{long_id}"\ngiven-spvn a 7\nstep recip a\n')
        (tmp_path / "short.tab").write_text(f'tablet "{id_64}"\ngiven-spvn a 7\nstep recip a\n')
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY and err == ""
        lines = out.splitlines()
        assert lines[0] == (
            f"{'x' * 24}…{'x' * 24} (20000 characters): ERROR line 3: step recip:"
            " 7 is without reciprocal"
        )
        assert len(lines[0].encode()) < 200
        assert lines[1] == f"{id_64}: ERROR line 3: step recip: 7 is without reciprocal"

    def test_check_reports_refused_tablets_and_goes_on(self, capsys, tmp_path):
        (tmp_path / "good.tab").write_bytes((shipped_corpus_dir() / "ybc7302.tab").read_bytes())
        (tmp_path / "latin1.tab").write_bytes(b'tablet "t"\n# caf\xe9\n')
        (tmp_path / "un.tab").write_text(
            'tablet "u"\ngiven-spvn a 2\ngiven-spvn b 3\nconfig c1: a=e0\n'
        )
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "YBC 7302: pass",
            "latin1: ERROR line 2: not UTF-8 text: invalid continuation byte",
            "un: ERROR line 4: configuration 'c1' does not anchor given 'b'",
            "1/3 tablets pass",
        ]

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        # an editor may save a tablet with a UTF-8 byte-order mark; run and
        # check read it as the same tablet without one
        src = shipped_corpus_dir() / "ybc4663-7.tab"
        (tmp_path / "bom.tab").write_bytes(b"\xef\xbb\xbf" + src.read_bytes())
        argv = ("--config", "A")
        assert run_cli(capsys, "run", str(tmp_path / "bom.tab"), *argv) == (
            run_cli(capsys, "run", str(src), *argv)
        )
        assert run_cli(capsys, "check", str(tmp_path)) == (
            EXIT_OK, "YBC 4663 #7: pass configs=A,B,C\n1/1 tablets pass\n", ""
        )

    def test_repeated_configurations_and_anchors_are_refused(self, capsys, tmp_path):
        head = 'tablet "{}"\ngiven-spvn a 2\nconfig A: a=e0\n'
        (tmp_path / "c.tab").write_text(head.format("c") + "config A: a=e1\n")
        (tmp_path / "g.tab").write_text(head.format("g") + "config B: a=e0, a=e5\n")
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "c: ERROR line 4: duplicate configuration 'A'",
            "g: ERROR line 4: given 'a' anchored twice",
            "0/2 tablets pass",
        ]
        code, out, err = run_cli(capsys, "run", str(tmp_path / "c.tab"), "--config", "A")
        assert (code, out, err) == (
            EXIT_USAGE, "", "error: line 4: duplicate configuration 'A'\n"
        )

    def test_anchor_on_a_step_result_is_refused(self, capsys, tmp_path):
        path = tmp_path / "x.tab"
        path.write_text('tablet "x"\ngiven-spvn a 2\nstep square a as r\nconfig A: a=e0, r=e5\n')
        assert run_cli(capsys, "run", str(path), "--config", "A") == (
            EXIT_USAGE, "", "error: line 4: configuration anchors unknown given 'r'\n"
        )

    @pytest.mark.parametrize(
        "token, message",
        [
            ("6:30e", "bad exponent in '6:30e'"),
            ("6:30e1_0", "bad exponent in '6:30e1_0'"),
            ("e3", "anchored literal needs digits and exponent: 'e3'"),
        ],
    )
    def test_bad_anchored_literal_is_refused(self, capsys, tmp_path, token, message):
        (tmp_path / "x.tab").write_text(
            f'tablet "x"\ngiven-spvn a 2\nstep recip a expect {token} as r\n'
        )
        assert run_cli(capsys, "run", str(tmp_path / "x.tab")) == (
            EXIT_USAGE, "", f"error: line 3: {message}\n"
        )
        assert run_cli(capsys, "check", str(tmp_path)) == (
            EXIT_VERIFY, f"x: ERROR line 3: {message}\n0/1 tablets pass\n", ""
        )

    def test_a_textio_refusal_names_its_line(self, capsys, tmp_path):
        (tmp_path / "bad.tab").write_text('tablet "t"\ngiven-spvn a 1:2:77\n')
        message = "line 2: digit 77 outside 0..59"
        assert run_cli(capsys, "run", str(tmp_path / "bad.tab")) == (
            EXIT_USAGE, "", f"error: {message}\n"
        )
        assert run_cli(capsys, "check", str(tmp_path)) == (
            EXIT_VERIFY, f"bad: ERROR {message}\n0/1 tablets pass\n", ""
        )

    def test_check_names_the_file_of_a_shared_tablet_id(self, capsys, tmp_path):
        head = 'tablet "t"\ngiven-spvn a 2\nstep square a expect {} as b\n'
        (tmp_path / "mismatch.tab").write_text(head.format(5))
        (tmp_path / "right.tab").write_text(head.format(4))
        (tmp_path / "u.tab").write_text('tablet "u"\ngiven-spvn a 2\n')
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_VERIFY and err == ""
        assert out.splitlines() == [
            "t (mismatch.tab): FAIL",
            "  mismatch in step b: expected 5, computed 4",
            "t (right.tab): pass",
            "u: pass",
            "2/3 tablets pass",
        ]

    def test_undefined_operand_is_refused(self, capsys, tmp_path):
        path = tmp_path / "undefined.tab"
        path.write_text('tablet "t"\nstep recip a\n')
        assert run_cli(capsys, "run", str(path)) == (
            EXIT_USAGE, "", "error: line 2: undefined name 'a'\n"
        )

    def test_repeated_expect_is_refused(self, capsys, tmp_path):
        # the second value used to win: 30, the right reciprocal of 2, was
        # reported as a mismatch
        path = tmp_path / "x.tab"
        path.write_text('tablet "x"\ngiven-spvn a 2\nstep recip a expect 30 expect 7 as r\n')
        assert run_cli(capsys, "run", str(path)) == (
            EXIT_USAGE, "", "error: line 3: duplicate 'expect'\n"
        )

    def test_attested_without_expect_is_no_scribal_note(self, capsys, tmp_path):
        # with nothing expected there is no right value for the tablet to
        # miss: check counted a note here that run never tagged
        path = tmp_path / "t.tab"
        path.write_text('tablet "t"\ngiven-spvn a 2\nstep recip a attested 30 as r\n')
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == EXIT_OK and "scribal error" not in out
        assert run_cli(capsys, "check", str(tmp_path)) == (
            EXIT_OK, "t: pass\n1/1 tablets pass\n", ""
        )

    @pytest.mark.parametrize(
        "path", sorted(shipped_corpus_dir().glob("*.tab")), ids=lambda p: p.name
    )
    def test_run_agrees_with_check(self, capsys, path):
        # run prints PASS exactly when the trace passes, and tags as many
        # scribal errors over the tablet's configurations as check counts
        script = parse_script(path.read_text(encoding="utf-8"))
        notes = 0
        for config in [c.name for c in script.configurations] or [None]:
            argv = ("run", str(path)) + (("--config", config) if config else ())
            code, out, _ = run_cli(capsys, *argv)
            passed = run(script, config).passed
            assert out.splitlines()[-1] == ("PASS" if passed else "FAIL")
            assert code == (EXIT_OK if passed else EXIT_VERIFY)
            notes += out.count("scribal error")
        _, out, _ = run_cli(capsys, "check", str(path.parent))
        line = next(x for x in out.splitlines() if x.startswith(f"{script.tablet}: "))
        counted = line.partition(" scribal-notes=")[2]
        assert int(counted or 0) == notes

    def test_check_empty_dir_warns(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", str(tmp_path))
        assert code == EXIT_OK
        assert "warning" in err and "0/0" in out

    def test_check_missing_dir_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", str(tmp_path / "missing"))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: not a directory: {tmp_path / 'missing'}\n"

    def test_check_regular_file_exits_2(self, capsys, tmp_path):
        p = tmp_path / "ybc7302.tab"
        p.write_bytes((shipped_corpus_dir() / "ybc7302.tab").read_bytes())
        code, out, err = run_cli(capsys, "check", str(p))
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: not a directory: {p}\n"

    def test_run_missing_file(self, capsys):
        assert run_cli(capsys, "run", "/nonexistent.tab")[0] == EXIT_USAGE

    def test_check_empty_path_exits_2(self, capsys):
        # an empty argument names no directory; only an absent one means
        # the shipped corpus
        assert run_cli(capsys, "check", "") == (
            EXIT_USAGE, "", "error: not a directory: ''\n"
        )

    @pytest.mark.parametrize("path", ["", "./missing/../x.tab"])
    def test_run_echoes_the_path_as_typed(self, capsys, path):
        assert run_cli(capsys, "run", path) == (
            EXIT_USAGE, "", f"error: [Errno 2] No such file or directory: {path!r}\n"
        )


class TestRunCheckPin:
    """Every byte and exit code of ``run`` and ``check`` on the shipped corpus.

    Each tablet runs with no configuration, under each configuration it
    declares and under one it does not; with none, ``ybc4663-7.tab`` is
    refused at its first ``sub`` step.
    """

    def test_corpus_outputs(self, capsys):
        corpus = shipped_corpus_dir()
        h = hashlib.sha256()
        for path in sorted(corpus.glob("*.tab")):
            script = parse_script(path.read_text(encoding="utf-8"))
            for config in (None, *(c.name for c in script.configurations), "Z"):
                argv = ("run", str(path)) + (("--config", config) if config else ())
                code, out, err = run_cli(capsys, *argv)
                h.update(f"{path.name} {config}\n{code}\n{out}\n{err}\n".encode())
        code, out, err = run_cli(capsys, "check", str(corpus))
        h.update(f"check\n{code}\n{out}\n{err}\n".encode())
        assert h.hexdigest() == (
            "a165f18d576241032d81a2ce8ee437305efc1c5e4aa3fbd14603c71a6631c167"
        )


class TestCachedParser:
    """One parser serves every call in a process without keeping state."""

    def test_errors_leave_the_parser_clean(self, capsys):
        assert run_cli(capsys, "bogus")[0] == EXIT_USAGE
        code, out, _ = run_cli(capsys, "--help")
        assert code == EXIT_OK and out.startswith("usage: mesomath")
        assert run_cli(capsys, "mul")[0] == EXIT_USAGE
        assert run_cli(capsys, "mul", "20", "20")[:2] == (EXIT_OK, "6:40\n")

    @pytest.mark.parametrize(
        "tablet, config", [("ybc4663-1.tab", ()), ("ybc4663-7.tab", ("--config", "A"))]
    )
    def test_repeated_runs_are_byte_identical(self, capsys, tablet, config):
        argv = ("run", str(shipped_corpus_dir() / tablet), *config)
        first = run_cli(capsys, *argv)
        assert first[0] == EXIT_OK and first[1].endswith("PASS\n")
        assert run_cli(capsys, *argv) == first

    def test_import_builds_no_parser(self):
        code = (
            "import argparse, sys\n"
            "built = []\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call'"
            " and frame.f_code.co_name == '_build_parser' and built.append(1))\n"
            "import mesomath.cli\n"
            "sys.setprofile(None)\n"
            "print(len(built), mesomath.cli._build_parser.cache_info().currsize)\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert out.stdout.split() == ["0", "0"]


class TestDeterminism:
    def test_byte_identical_output(self):
        cmd = [
            sys.executable, "-m", "mesomath.cli",
            "table", "metro", "S", "--from", "1 she", "--to", "2 sar",
        ]
        a = subprocess.run(cmd, capture_output=True, check=True)
        b = subprocess.run(cmd, capture_output=True, check=True)
        assert a.stdout == b.stdout and a.stdout


class TestRepl:
    def test_session(self):
        session = "mul 9 7\nx = recip 4:26:40\nmul x 4:26:40\nquit\n"
        proc = subprocess.run(
            [sys.executable, "-m", "mesomath.cli", "repl"],
            input=session.encode(),
            capture_output=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.decode().splitlines() == ["1:3", "13:30", "1"]

    def test_nothing_after_equals(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mesomath.cli", "repl"],
            input=b"x =\n=\nmul 2 3\n",
            capture_output=True,
        )
        assert proc.returncode == 0 and proc.stdout.decode().splitlines() == ["6"]
        assert proc.stderr.decode().splitlines() == ["error: cannot evaluate ''"] * 2

    @pytest.mark.parametrize(
        "binding, why",
        [("5 = mul 2 3", "'5': it reads as a number"),
         ("x y = mul 2 2", "'x y': it holds whitespace")],
    )
    def test_a_target_no_token_can_name_is_refused(self, capsys, monkeypatch, binding, why):
        # a token is looked up as a name first, so a bound 5 would turn
        # every later 5 into the bound value; the right side is not run
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{binding}\nmul 5 5\nx\n"))
        code, out, err = run_cli(capsys, "repl")
        assert code == EXIT_OK and out == "25\n"
        assert err.splitlines() == [
            f"error: cannot bind {why}", "error: malformed digit sequence 'x'"
        ]

    def test_long_operands_are_refused_and_the_session_goes_on(
        self, capsys, monkeypatch, long_operand
    ):
        session = f"recip {long_operand}\nx = square {_OVER_BOUND}\nmul 2 3\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(session))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "repl")
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK and out == "6\n"
        assert err.splitlines() == [
            "error: operands of recip hold 36415 digits together, more than 10000",
            "error: operands of square hold 10002 digits together, more than 10000",
        ]

    @pytest.mark.parametrize(
        "op, operands",
        [("mul", "9 7"), ("square", "1:30"), ("sqrt", "2:15"), ("cbrt", "8"),
         ("recip", "4:26:40")],
    )
    def test_reads_the_sub_commands(self, capsys, monkeypatch, op, operands):
        # every number sub-command, evaluated on one REPL line
        assert set(cli._ARITH) == {"mul", "square", "sqrt", "cbrt", "recip"}
        want = run_cli(capsys, op, *operands.split())
        monkeypatch.setattr(sys, "stdin", io.StringIO(f"{op} {operands}\n"))
        assert run_cli(capsys, "repl") == want

    def test_error_recovery(self):
        session = "recip 7\nmul 2 3\n"
        proc = subprocess.run(
            [sys.executable, "-m", "mesomath.cli", "repl"],
            input=session.encode(),
            capture_output=True,
        )
        assert proc.stdout.decode().splitlines() == ["6"]
        assert "without reciprocal" in proc.stderr.decode()


_TABLETS = tuple(p.read_bytes() for p in sorted(shipped_corpus_dir().glob("*.tab")))
_SNIPPETS = (
    b"..", b'"', b"'", b"\\", b"#", b"=", b"e", b"e-1", b":", b"0", b"75", b" ", b"\n",
    b"\xff", b"\xe9", b"as", b"expect", b"window", b"config Z: a=e0\n", b"step add a b\n",
)


@st.composite
def _file_bytes(draw):
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=120))
    data = bytearray(draw(st.sampled_from(_TABLETS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(data)))
        j = min(len(data), i + draw(st.integers(0, 12)))
        insert = draw(st.sampled_from(_SNIPPETS) | st.binary(min_size=1, max_size=2))
        data[i:j] = insert
    return bytes(data)


#: atoms no command should take: huge, out of range, control and non-ASCII digits
_HOSTILE = st.sampled_from(
    ["", "7" * 5000, ":".join(["7"] * 5000), "1:2:77", "1e99999", "\x00", "½", "٣"]
)
_NUMBER = (
    st.sampled_from(["1", "7", "0", "1:75", "4:26:40", "3.30", "x"])
    | st.text("0123456789:.e- ", max_size=6)
    | _HOSTILE
)
_SYSTEM = st.sampled_from(["L", "Lh", "S", "W", "C", "Q"])
_MEASUREMENT = st.sampled_from(
    ["1 ninda", "2 kush", "1/2 ninda", "6 she", "9 gin", "1 sar", "1 kush 3 shu-si", "x"]
) | _HOSTILE
_WINDOW = st.builds(
    lambda a, sep, b: a + sep + b, _MEASUREMENT, st.sampled_from(["..", ".", ""]), _MEASUREMENT
)
_PATH = st.sampled_from(["FILE", "DIR", "MISSING"])


def _opt(*flags):
    return st.sampled_from([[], list(flags)])


_FILE_COMMANDS = (
    ["run", _PATH, st.sampled_from([[], ["--config", "A"], ["--config", "B"], ["--config", "Z"]])],
    ["check", _PATH],
)
_OTHER_COMMANDS = (
    ["mul", _NUMBER, _NUMBER],
    ["mul", _NUMBER],
    ["square", _NUMBER],
    ["sqrt", _NUMBER],
    ["cbrt", _NUMBER],
    ["recip", _NUMBER, _opt("--trace"), _opt("--strategy", "largest")],
    ["table", "recip", _opt("--format", "csv")],
    ["table", "squares"],
    ["table", "mult", _NUMBER],
    ["table", "metro", _SYSTEM, "--from", _MEASUREMENT, "--to", _MEASUREMENT],
    ["convert", "to-spvn", _SYSTEM, _MEASUREMENT],
    ["convert", "from-spvn", _SYSTEM, _NUMBER, "--window", _WINDOW],
    [
        "convert", "readings", _SYSTEM, _NUMBER,
        "--span", st.sampled_from(["-1", "0", "4", "x", "+2", "2_0", "٣"]),
    ],
    ["repl"],
    [],
    ["bogus"],
    ["--help"],
)
_REPL_LINES = st.lists(
    st.sampled_from(["mul 9 7", "x = recip 4:26:40", "mul x 2", "recip 7", "x =", "=", "quit"])
    | st.text("mulrecp 0123456789:=x#", max_size=12),
    max_size=5,
).map("\n".join)


@st.composite
def _argv(draw):
    """A command line from the sub-command grammar; half of them read a file."""
    commands = _FILE_COMMANDS if draw(st.booleans()) else _OTHER_COMMANDS
    argv = []
    for part in draw(st.sampled_from(commands)):
        value = draw(part) if isinstance(part, st.SearchStrategy) else part
        argv.extend(value if isinstance(value, list) else [value])
    return argv


class TestCliTotality:
    """Any argv from the command grammar and any file bytes give a documented exit."""

    @settings(max_examples=200, deadline=None)
    @given(argv=_argv(), content=_file_bytes(), stdin=_REPL_LINES)
    def test_every_exit_is_documented(self, argv, content, stdin):
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "fuzz.tab"
            path.write_bytes(content)
            where = {"FILE": str(path), "DIR": d, "MISSING": str(Path(d) / "missing.tab")}
            argv = [where.get(a, a) for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with mock.patch("sys.stdin", io.StringIO(stdin)):
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_ARITH)
        assert "Traceback" not in err
        if code in (EXIT_USAGE, EXIT_ARITH):
            assert err.startswith(("error:", "usage:")), (argv, err[:200])
        if code == EXIT_VERIFY:
            # run ends in FAIL; check names each failed or refused tablet
            assert "FAIL" in out.splitlines() or any(
                ": FAIL" in line or ": ERROR " in line for line in out.splitlines()
            ), (argv, out)


#: tokens on which argparse and a hand-written reader could part ways
_EDGES = (
    ["--conf", "A"], ["--config=A"], ["-h"], ["--help"], ["--"], ["-"], [""],
    ["--span", "-1"], ["-1"], ["--format"], ["--trace"], ["--window", "--span"],
    ["--config", "--trace"], ["--from", "1 ninda"], ["--to", "--format"], ["Q"],
    ["--strategy", "largest"], ["--format", "csv"], ["table"], ["run"],
)


@st.composite
def _edge_argv(draw):
    """A command line from the grammar, then edge tokens, repeats or reordering."""
    argv = draw(_argv())
    for _ in range(draw(st.integers(0, 3))):
        choice = draw(st.integers(0, 2))
        if choice == 0:
            i = draw(st.integers(0, len(argv)))
            argv[i:i] = draw(st.sampled_from(_EDGES))
        elif choice == 1:
            # repeat an option with its value, or move options before positionals
            i = draw(st.integers(0, max(0, len(argv) - 1)))
            argv += argv[i:i + 2]
        else:
            k = 2 if argv[:1] in (["table"], ["convert"]) else 1
            argv[k:] = draw(st.permutations(argv[k:]))
    return argv


def _argparse_fields(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


class TestRunReader:
    """``_read_run`` gives argparse's namespace for a plain ``run``, or leaves the line to it."""

    @pytest.mark.parametrize("argv", [
        ["run", "f.tab"], ["run", ""], ["run", "f.tab", "--config", "A"],
        ["run", "--config", "A", "f.tab"], ["run", "f.tab", "--config", ""],
        ["run", "a b.tab", "--config", "run"],
    ])
    def test_reads_plain_run_lines(self, argv):
        read = cli._read_run(argv)
        assert read is not None and vars(read) == _argparse_fields(argv)

    @pytest.mark.parametrize("argv", [
        [], ["run"], ["run", "a", "b"], ["run", "--config", "A"], ["run", "f", "--config"],
        ["run", "--config"], ["run", "f", "--conf", "A"], ["run", "f", "--config=A"],
        ["run", "--", "f"], ["run", "-"], ["run", "-f"], ["run", "f", "-h"], ["run", "--help"],
        ["run", "f", "--config", "A", "--config", "B"], ["run", "--config", "--config", "f"],
        ["run", "f", "--config", "-A"], ["run", "f", "A", "--config"],
        ["mul", "20", "20"], ["check", "f"], ["recip", "run"], ["bogus", "f", "--config", "A"],
    ])
    def test_leaves_the_rest_to_argparse(self, argv):
        assert cli._read_run(argv) is None

    @settings(max_examples=400, deadline=None)
    @given(argv=_edge_argv())
    def test_agrees_with_argparse(self, argv):
        read = cli._read_run(argv)
        expected = _argparse_fields(argv)
        if expected is None:
            assert read is None, argv
        else:
            assert read is None or vars(read) == expected, argv
