"""Procedure scripts: parsing, execution, and corpus verification.

A corpus file encodes one tablet's computation: the given measurement
values and their expected abstract numbers, the operation steps with the
numbers the tablet shows, optional anchor configurations for procedures
that add or subtract, and answers read back into measurements.  Running
a script replays the three-stage shape end to end - convert the givens,
compute, convert the result - and records every expected/computed pair
in a :class:`Trace`.

A step may carry both ``expect`` (the correct number) and ``attested``
(what the tablet actually shows).  When the computation matches the
expectation but the tablet disagrees, that is a scribal error: the trace
notes it and the tablet still passes.

Every refusal of :func:`parse_script` or :func:`run` begins ``line N:``
and its diagnostic, if any, holds line N, whichever module raised it; a
run names the refused record next (``line 3: step recip: …``).
"""

from __future__ import annotations

import re
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from . import abacus, metrology, recip, spvn, textio
from .abacus import AnchoredNumber, Configuration
from .errors import (
    MissingConfig,
    ParseDiagnostic,
    ParseError,
    ScriptSyntax,
    SexagesimalError,
    UnknownName,
    UnknownOp,
    _clip,
)
from .recip import Factorization
from .spvn import FloatingNumber

#: The constant applied to the square of a circle's perimeter; the
#: scribes took the circumference-to-diameter ratio as 3, and the
#: reciprocal of 12 is 5.
DISK_AREA_COEFFICIENT = FloatingNumber((5,))


def disk_area(perimeter: FloatingNumber) -> FloatingNumber:
    """Square the perimeter, multiply by the constant 5."""
    return spvn.mul(spvn.square(perimeter), DISK_AREA_COEFFICIENT)


class Given(NamedTuple):
    name: str
    expect: FloatingNumber | None
    attested: FloatingNumber | None = None
    measurement: metrology.MeasurementValue | None = None  # None when given directly
    line: int = 0


class Step(NamedTuple):
    op: str
    args: tuple[str, ...]
    expect: FloatingNumber | AnchoredNumber | None
    attested: FloatingNumber | AnchoredNumber | None
    name: str | None
    line: int = 0


class Answer(NamedTuple):
    name: str
    window: metrology.Window | None = None
    expect: metrology.MeasurementValue | None = None
    line: int = 0


class ProcedureScript(NamedTuple):
    tablet: str
    givens: tuple[Given, ...]
    configurations: tuple[Configuration, ...]
    steps: tuple[Step, ...]
    answers: tuple[Answer, ...]

    def configuration(self, name: str) -> Configuration:
        for c in self.configurations:
            if c.name == name:
                return c
        raise UnknownName(f"no configuration {_clip(repr(name))} in {_clip(self.tablet)}")


class TraceRecord(NamedTuple):
    kind: str  # "given" | "step" | "answer"
    name: str
    operation: str
    computed: object
    expected: object | None
    matched: bool
    attested: object | None = None
    factorization: Factorization | None = None

    @property
    def scribal_note(self) -> bool:
        """The computation gives the expected value; the tablet shows another."""
        a, e = self.attested, self.expected
        return a is not None and e is not None and self.matched and a != e


class Trace(NamedTuple):
    tablet: str
    configuration: str | None
    records: tuple[TraceRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.matched for r in self.records)

    def mismatches(self) -> tuple[TraceRecord, ...]:
        return tuple(r for r in self.records if not r.matched)

    def scribal_notes(self) -> tuple[TraceRecord, ...]:
        return tuple(r for r in self.records if r.scribal_note)


# --- parsing -------------------------------------------------------------------


# One line splits the way POSIX ``shlex.split(line, comments=True)`` does:
# whitespace is space, tab, CR and LF; ``#`` outside quotes starts a comment,
# also in mid-token; a token joins bare runs, backslash escapes, '...' and
# "..." segments, and ``""`` is an empty token.
#
# A line with no quote, backslash or ``#``, and no character that
# ``str.split`` takes for whitespace where ``shlex`` does not (VT, FF,
# \x1c-\x1f, and non-ASCII such as NEL, NBSP or U+3000), holds nothing but
# bare runs and those four whitespace characters, so ``str.split`` cuts it
# exactly where ``shlex`` does.  Most corpus lines are such plain lines.
_NOT_PLAIN = re.compile(r"""['"\\#\x0b\x0c\x1c-\x1f\x80-\U0010ffff]""")
# Other lines go through ``_LEX``.  Whitespace is the only text no
# alternative matches, so ``findall`` skips exactly that; a match is a
# token, a comment (the only match that starts with ``#``) or a lone
# quote or backslash that nothing closes.
_DQ_BODY = r'[^"\\]*(?:\\.[^"\\]*)*'
_LEX = re.compile(
    rf"""(?:[^ \t\r\n'"\\#]+|\\.|'[^']*'|"{_DQ_BODY}")+|#[^\n]*|['"\\]""", re.S
)
_SEGMENT = re.compile(rf"""\\(.)|'([^']*)'|"({_DQ_BODY})"|([^'"\\]+)""", re.S)
# Inside double quotes only \" and \\ are escapes; other backslashes stay.
_DQ_ESCAPE = re.compile(r'\\([\\"])')


def _unquote_segment(m: re.Match) -> str:
    escaped, single, double, bare = m.groups()
    return escaped or single or bare or _DQ_ESCAPE.sub(r"\1", double or "")


def _split_line(raw: str) -> list[str]:
    if _NOT_PLAIN.search(raw) is None:
        return raw.split()
    # A line whose only quoting is "..." without a backslash, and whose
    # text outside the quotes is plain, alternates plain text and quoted
    # text when cut at its quotes.
    segs = raw.split('"')
    if len(segs) % 2 and "\\" not in raw and _NOT_PLAIN.search("".join(segs[::2])) is None:
        return _join_segments(segs)
    toks = []
    for word in _LEX.findall(raw):
        if word[0] == "#":
            continue
        if word in ("'", '"', "\\"):
            # An unclosed quote or a final backslash runs to the end of the
            # line; an odd run of trailing backslashes leaves one unescaped.
            odd = (len(raw) - len(raw.rstrip("\\"))) % 2
            if word != "'" and odd:
                raise ValueError("No escaped character")
            raise ValueError("No closing quotation")
        if "\\" in word or "'" in word:
            word = _SEGMENT.sub(_unquote_segment, word)
        elif '"' in word:
            # "..." segments without a backslash hold their text verbatim
            word = word.replace('"', "")
        toks.append(word)
    return toks


def _join_segments(segs: list[str]) -> list[str]:
    """The tokens of a line cut at its quotes: plain text at even places,
    quoted text at odd ones.  Text with no whitespace between joins one
    token, as ``a"b c"d`` is the token ``ab cd``."""
    toks: list[str] = []
    glue = False  # no whitespace since the last token
    for i, seg in enumerate(segs):
        if i % 2:
            if glue:
                toks[-1] += seg
            else:
                toks.append(seg)
            glue = True
        elif seg:
            words = seg.split()
            if glue and words and not seg[0].isspace():
                toks[-1] += words.pop(0)
            toks += words
            glue = not seg[-1].isspace()
    return toks


def _syntax(msg: str, token: str = "", error=ScriptSyntax) -> ParseError:
    return error(msg, ParseDiagnostic(line=1, column=1, message=msg, token=token))


def _on_line(line_no: int, e: SexagesimalError, record: str = "") -> SexagesimalError:
    """``e`` on script line ``line_no``, in its diagnostic if it has one and
    at the head of its message, with the ``record`` a run refused after it."""
    if e.diagnostic is not None:
        e.diagnostic = e.diagnostic._replace(line=line_no)
    e.args = (f"line {line_no}: {record}{e}", *e.args[1:])
    return e


def _define(defined: dict[str, bool], name: str, given: bool) -> None:
    """Enter ``name``, a given or not, in ``defined``: a name is defined once."""
    if name in defined:
        raise _syntax(f"name {_clip(repr(name))} defined twice", name)
    defined[name] = given


def _lines(text: str) -> list[str]:
    """``text`` cut at universal newlines (LF, CRLF, CR) and nowhere else.

    ``str.splitlines`` also cuts at VT, FF, \\x1c-\\x1e, NEL, U+2028 and
    U+2029, which would number lines differently from an editor.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_script(text: str) -> ProcedureScript:
    """Parse one corpus file; see the package README for the format."""
    tablet: str | None = None
    givens: list[Given] = []
    configs: dict[str, tuple[Configuration, int]] = {}
    steps: list[Step] = []
    answers: list[Answer] = []
    defined: dict[str, bool] = {}  # name -> whether it is a given

    for line_no, raw in enumerate(_lines(text), start=1):
        try:
            try:
                toks = _split_line(raw)
            except ValueError as e:
                raise _syntax(f"bad quoting: {e}") from None
            if not toks:
                continue
            kw = toks[0]
            n = len(toks)

            # most lines are steps
            if kw == "step":
                if n < 2:
                    raise _syntax("empty step")
                op = toks[1]
                if op not in _OPS:
                    raise _syntax(f"unknown operation {_clip(repr(op))}", op, UnknownOp)
                arity = _OPS[op][0]
                end = 2 + arity
                args = tuple(toks[2:end])
                if len(args) != arity:
                    raise _syntax(f"{op} takes {arity} operand name(s)")
                for a in args:
                    if a not in defined:
                        raise _syntax(f"undefined name {_clip(repr(a))}", a, UnknownName)
                new_name = None
                stop = n
                if n - end >= 2 and toks[-2] == "as":
                    new_name = toks[-1]
                    stop -= 2
                expect, attested = _expect_tail(toks, end, stop)
                steps.append(Step(op, args, expect, attested, new_name, line_no))
                if new_name:
                    _define(defined, new_name, False)

            elif kw == "tablet":
                if n != 2:
                    raise _syntax("tablet takes one quoted id")
                if tablet is not None:
                    raise _syntax("duplicate tablet directive", toks[1])
                tablet = toks[1]

            elif kw == "given":
                if n < 6:
                    msg = 'given needs: <table> <name> "<measurement>" expect <number>'
                    raise _syntax(msg)
                system, name, meas_text = toks[1], toks[2], toks[3]
                expect, attested = _expect_tail(toks, 4, n)
                if isinstance(expect, AnchoredNumber) or isinstance(attested, AnchoredNumber):
                    raise _syntax("givens expect plain digit sequences")
                if expect is None:
                    raise _syntax("given needs an expect value")
                m = textio.parse_measurement(meas_text, system)
                givens.append(Given(name, expect, attested, m, line_no))
                _define(defined, name, True)

            elif kw == "given-spvn":
                if n != 3:
                    raise _syntax("given-spvn needs: <name> <number>")
                name = toks[1]
                givens.append(Given(name, textio.parse_spvn(toks[2]), None, None, line_no))
                _define(defined, name, True)

            elif kw == "config":
                if n < 2 or not toks[1].endswith(":"):
                    raise _syntax("config needs: <name>: given=e<int>, ...")
                cname = toks[1][:-1]
                if cname in configs:
                    raise _syntax(f"duplicate configuration {_clip(repr(cname))}", cname)
                exps: dict[str, int] = {}
                for item in islice(toks, 2, None):
                    item = item.rstrip(",")
                    if not item:
                        continue
                    gname, _, etext = item.partition("=")
                    if not gname or not etext.startswith("e"):
                        raise _syntax(f"bad anchor {_clip(repr(item))}", item)
                    if not defined.get(gname):
                        msg = f"configuration anchors unknown given {_clip(repr(gname))}"
                        raise _syntax(msg, gname, UnknownName)
                    if gname in exps:
                        raise _syntax(f"given {_clip(repr(gname))} anchored twice", item)
                    exponent = textio.read_exponent(etext[1:])
                    if exponent is None:
                        raise _syntax(f"bad exponent {_clip(repr(etext))}", item)
                    exps[gname] = exponent
                configs[cname] = (Configuration(cname, exps), line_no)

            elif kw == "answer":
                if n < 2:
                    raise _syntax("answer needs a name")
                name = toks[1]
                if name not in defined:
                    raise _syntax(f"undefined name {_clip(repr(name))}", name, UnknownName)
                if n == 2:
                    answers.append(Answer(name, None, None, line_no))
                else:
                    if n < 5 or toks[3] != "window":
                        msg = 'answer needs: <name> <table> window "<m>".."<m>" expect "<m>"'
                        raise _syntax(msg)
                    system = toks[2]
                    window = textio.parse_window(toks[4], system)
                    expect_m = None
                    i = 5
                    if n - i >= 2 and toks[i] == "expect":
                        expect_m = textio.parse_measurement(toks[i + 1], system)
                        i += 2
                    if i < n:
                        raise _syntax(f"unexpected token {_clip(repr(toks[i]))}", toks[i])
                    answers.append(Answer(name, window, expect_m, line_no))

            else:
                raise _syntax(f"unknown directive {_clip(repr(kw))}", kw)
        except ParseError as e:
            # _syntax and textio build every refusal on line 1; it moves here
            raise _on_line(line_no, e)

    if tablet is None:
        raise _on_line(1, _syntax("missing tablet directive"))
    for conf, conf_line in configs.values():
        unanchored = [g.name for g in givens if g.name not in conf.exponents]
        if unanchored:
            msg = (f"configuration {_clip(repr(conf.name))}"
                   f" does not anchor given {_clip(repr(unanchored[0]))}")
            raise _on_line(conf_line, _syntax(msg, conf.name))
    return ProcedureScript(
        tablet=tablet,
        givens=tuple(givens),
        configurations=tuple(c for c, _ in configs.values()),
        steps=tuple(steps),
        answers=tuple(answers),
    )


def _expect_tail(toks, i, end):
    """The expect and attested numbers of ``toks[i:end]``, or None each."""
    expect = attested = None
    while i < end:
        key = toks[i]
        if i + 1 == end or key != "expect" and key != "attested":
            raise _syntax(f"unexpected token {_clip(repr(key))}", key)
        if (expect if key == "expect" else attested) is not None:
            raise _syntax(f"duplicate {key!r}", key)
        value = textio.parse_number(toks[i + 1])
        if key == "expect":
            expect = value
        else:
            attested = value
        i += 2
    return expect, attested


# --- execution -------------------------------------------------------------------


def _digits_of(v) -> FloatingNumber:
    return v.digits if isinstance(v, AnchoredNumber) else v


def _matches(computed, expected) -> bool:
    """Whether ``computed`` shows ``expected``: an anchored expectation
    needs the anchored value, any other the digits (or the reading)."""
    if expected is None:
        return True
    if isinstance(expected, AnchoredNumber):
        return isinstance(computed, AnchoredNumber) and computed == expected
    return _digits_of(computed) == expected


def _needs_configuration(a, b):
    raise MissingConfig("needs a configuration")


#: op -> (arity, floating form, anchored form).  Each form returns
#: (result, factorization-or-None); a floating add or sub is refused.
#: The forms look their functions up on the module at call time, so a
#: patched ``spvn.mul`` or ``abacus.recip_anchored`` is the one that runs.
_OPS = {
    "mul": (2, lambda a, b: (spvn.mul(a, b), None),
               lambda a, b: (abacus.mul_anchored(a, b), None)),
    "recip": (1, lambda a: recip.reciprocal(a), lambda a: abacus.recip_anchored(a)),
    # divrecip drops its factorization on both paths: the benchmark's run
    # checker accepts factor lines on recip steps only
    "divrecip": (2, lambda a, b: (spvn.mul(a, recip.reciprocal(b)[0]), None),
                    lambda a, b: (abacus.mul_anchored(a, abacus.recip_anchored(b)[0]), None)),
    "half": (1, lambda a: (spvn.mul(a, abacus.HALF.digits), None),
                lambda a: (abacus.half(a), None)),
    "square": (1, lambda a: (spvn.square(a), None),
                  lambda a: (abacus.mul_anchored(a, a), None)),
    "sqrt": (1, lambda a: (recip.sqrt(a), None),
                lambda a: (abacus.sqrt_anchored(a), None)),
    "add": (2, _needs_configuration, lambda a, b: (abacus.add(a, b), None)),
    "sub": (2, _needs_configuration, lambda a, b: (abacus.sub(a, b), None)),
}


def run(script: ProcedureScript, config: str | None = None) -> Trace:
    """Execute a script, recording every expected/computed pair.

    With a configuration every value is anchored and additive steps are
    allowed; without one the run stays floating, and any add/sub step
    raises :class:`MissingConfig`.  A refusal names its line and record.
    """
    return _run(script, script.configuration(config) if config is not None else None)


def _run(script: ProcedureScript, conf: Configuration | None) -> Trace:
    scope: dict[str, object] = {}
    records: list[TraceRecord] = []

    for g in script.givens:
        if g.measurement is not None:
            computed = metrology.to_number(g.measurement)
            op = f"read table {g.measurement.system}: {g.measurement}"
        else:
            computed = g.expect  # direct abstract number
            op = "given directly"
        value: object = computed
        if conf is not None:
            value = AnchoredNumber(computed, conf.exponent_for(g.name))
        scope[g.name] = value
        records.append(TraceRecord(
            "given", g.name, op, value, g.expect, _matches(computed, g.expect), g.attested
        ))

    # Without a configuration every value is floating, with one every
    # value is anchored; so the step loop knows each operand's type.
    for s in script.steps:
        op = s.op
        operands = [scope[a] for a in s.args]
        try:
            spvn.check_product(op, *[_digits_of(x) for x in operands])
            result, fact = _OPS[op][1 if conf is None else 2](*operands)
        except SexagesimalError as e:
            raise _on_line(s.line, e, f"step {op}: ")
        if s.name:
            scope[s.name] = result
        records.append(TraceRecord(
            "step", s.name or op, f"{op} {' '.join(s.args)}", result, s.expect,
            _matches(result, s.expect), s.attested, fact,
        ))

    for a in script.answers:
        computed = scope[a.name]
        op = "final"
        if a.window is not None:
            system = a.window.lo.system
            try:
                computed = metrology.from_number(_digits_of(computed), system, a.window)
            except SexagesimalError as e:
                raise _on_line(a.line, e, f"answer {_clip(a.name)}: ")
            op = f"read table {system} within {a.window}"
        records.append(TraceRecord(
            "answer", a.name, op, computed, a.expect, _matches(computed, a.expect)
        ))

    return Trace(
        tablet=script.tablet,
        configuration=conf.name if conf is not None else None,
        records=tuple(records),
    )


# --- corpus -----------------------------------------------------------------------


class TabletReport(NamedTuple):
    path: Path
    tablet: str
    traces: tuple[Trace, ...]
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(t.passed for t in self.traces)


class CorpusSummary(NamedTuple):
    reports: tuple[TabletReport, ...]
    warnings: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _read_script(path: str | Path) -> ProcedureScript:
    """The script in the UTF-8 file ``path``; a byte-order mark is skipped."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        return parse_script(data.decode("utf-8-sig"))
    except UnicodeDecodeError as e:
        # the error's offset counts from after any byte-order mark
        line = len(_lines(e.object[: e.start].decode("utf-8")))
        raise _on_line(line, _syntax(f"not UTF-8 text: {e.reason}")) from None


def run_file(path: str | Path, config: str | None = None) -> Trace:
    return run(_read_script(path), config)


def _divergence(traces: tuple[Trace, ...]) -> str | None:
    """The first record whose digits differ between configurations."""
    first = traces[0]
    for records in zip(*(t.records for t in traces)):
        want = _digits_of(records[0].computed)
        for t, r in zip(traces[1:], records[1:]):
            got = _digits_of(r.computed)
            if got != want:
                return (
                    f"{r.kind} {_clip(r.name)} differs across configurations: "
                    f"{_clip(first.configuration)} gives {_clip(str(want))}, "
                    f"{_clip(t.configuration)} gives {_clip(str(got))}"
                )
    return None


def verify_corpus(directory: str | Path) -> CorpusSummary:
    """Run every ``*.tab`` script under every configuration it declares.

    A tablet passes when every expected value matches and every record
    carries the same digits under every configuration; attested scribal
    errors are notes, not failures.  A file that cannot be read or parsed
    becomes that tablet's error.  Reports come back sorted by tablet id so
    aggregation order never depends on the filesystem.  A ``directory``
    that is not one raises :class:`OSError`.
    """
    if directory == "":  # Path("") would name the working directory
        raise NotADirectoryError("not a directory: ''")
    directory = Path(directory)
    if not directory.is_dir():
        raise NotADirectoryError(f"not a directory: {directory}")
    paths = sorted(directory.glob("*.tab"))
    warnings = () if paths else (f"no corpus files found in {directory}",)
    reports = []
    for path in paths:
        tablet, traces = path.stem, ()
        try:
            script = _read_script(path)
            tablet = script.tablet
            traces = tuple(_run(script, c) for c in script.configurations or [None])
            error = _divergence(traces)
        except (SexagesimalError, OSError) as e:
            error = str(e)
        reports.append(TabletReport(path, tablet, traces, error))
    reports.sort(key=lambda r: r.tablet)
    return CorpusSummary(tuple(reports), warnings)


def shipped_corpus_dir() -> Path:
    """Directory of the corpus files installed with the package."""
    return Path(__file__).resolve().parent / "corpus"
