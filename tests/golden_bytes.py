"""Golden bytes: one short digest per ``mesomath`` command line.

    PYTHONPATH=src python tests/golden_bytes.py   # rewrite the digests, name each that moved

``tests/golden/digests.txt`` is the command list: one line per command,
its digest, a space, then the command.  The digest is the first 16 hex
digits of the sha256 of the exit code, stdout and stderr.  Help and
usage errors are made by argparse, whose text differs between Python
versions, so for them the digest is ``exit=N``, the exit code alone.

A command is its argv, joined as a shell would read it.  ``{corpus}``
stands for the shipped corpus directory and ``{tmp}`` for a directory
holding the tablets of ``TABLETS``; both are put back in place of the
real paths in the output before it is hashed.  A command that ends in
``< NAME`` reads ``STDIN[NAME]`` on stdin.

``tests/test_golden.py`` replays every line and names the first command
whose digest differs.  A change that keeps every output byte leaves the
file as it is; one that changes bytes on purpose regenerates it and
names the commands that moved.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shlex
import sys
import tempfile
from pathlib import Path
from typing import Iterator

from mesomath import cli
from mesomath.procedures import shipped_corpus_dir
from mesomath.tables import multiplication_heads

DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.txt"

#: what the REPL reads: every operation, a named result, refusals, a comment
STDIN = {
    "session": (
        "mul 9 7\n"
        "x = recip 4:26:40\n"
        "mul x 4:26:40\n"
        "y = square 1:30\n"
        "sqrt y\n"
        "cbrt 8\n"
        "  # a comment line\n"
        "x\n"
        "3:20 # a literal\n"
        "recip 7\n"
        "sqrt 2\n"
        "mul 1:2:x 3\n"
        "mul 2\n"
        "frobnicate 1 2\n"
        "z = mul x x\n"
        "z\n"
        "quit\n"
        "mul 2 3\n"
    ),
}

#: tablets that run, fail or are refused; written to ``{tmp}``
TABLETS = {
    "ambiguous-answer.tab": 'tablet "t"\ngiven-spvn a 10\nanswer a L window "1 shu-si".."59 danna"\n',
    "anchored-step.tab": (
        'tablet "t"\ngiven-spvn a 2\nstep square a as r\nconfig A: a=e0, r=e5\n'
    ),
    "bad-digit.tab": 'tablet "t"\ngiven-spvn a 1:2:77\n',
    "bad-exponent.tab": 'tablet "t"\ngiven-spvn a 2\nstep recip a expect 6:30e as r\n',
    "bad-quote.tab": 'tablet "t\n',
    "bad-unit.tab": 'tablet "t"\ngiven L a "3 kuz" expect 3\n',
    "bad-window.tab": 'tablet "t"\ngiven-spvn a 2\nanswer a L window "1 kush"\n',
    "defined-twice.tab": 'tablet "t"\ngiven-spvn a 2\ngiven-spvn a 3\n',
    "duplicate-config.tab": (
        'tablet "t"\ngiven-spvn a 2\nconfig A: a=e0\nconfig A: a=e1\n'
    ),
    "duplicate-expect.tab": 'tablet "t"\ngiven-spvn a 2\nstep square a expect 4 expect 4\n',
    "irregular.tab": 'tablet "t"\ngiven-spvn a 7\nstep recip a as r\n',
    "mismatch.tab": 'tablet "t"\ngiven-spvn a 2\nstep square a expect 5 as b\nanswer b\n',
    "missing-config.tab": (
        'tablet "t"\ngiven-spvn a 2\ngiven-spvn b 3\nstep add a b as c\nanswer c\n'
    ),
    "missing-tablet.tab": "given-spvn a 2\n",
    "scribal.tab": (
        'tablet "t"\ngiven-spvn a 2\nstep square a expect 4 attested 5 as b\n'
        "answer b\n"
    ),
    "unanchored.tab": (
        'tablet "t"\ngiven-spvn a 2\ngiven-spvn b 3\nconfig A: a=e0\n'
    ),
    "undefined.tab": 'tablet "t"\ngiven-spvn a 2\nstep mul a b\n',
    "unknown-op.tab": 'tablet "t"\ngiven-spvn a 2\nstep cube a\n',
}

_SYSTEMS = ("C", "L", "Lh", "S", "W")


def _sexagesimal(v: int) -> str:
    """The digits of ``v`` in base 60, ``:`` between them, as typed."""
    ds = []
    while v:
        v, d = divmod(v, 60)
        ds.append(str(d))
    return ":".join(reversed(ds))


def _line(*argv: str) -> str:
    return shlex.join(argv)


def commands() -> Iterator[str]:
    """Every command of the list, in order."""
    # numbers: every reciprocal and square root of 1-999, and a sample of
    # the other operations, refusals included
    for v in range(1, 1000):
        yield _line("recip", _sexagesimal(v))
        yield _line("sqrt", _sexagesimal(v))
    for v in range(1, 100):
        yield _line("cbrt", _sexagesimal(v))
        yield _line("square", _sexagesimal(v * 7))
        yield _line("mul", _sexagesimal(v), _sexagesimal(1000 - v))
    for bad in ("1:2:x", "1:2:77", "0", "0:0", "", "1..2", "٣"):
        yield _line("mul", bad, "3")
        yield _line("recip", bad)
    for n in ("4:26:40", "5:3:24:26:40", "2:5", "1:4", "16:40", "18", "7", "1"):
        for strategy in ("wedge", "largest"):
            yield _line("recip", n, "--trace", "--strategy", strategy)
        yield _line("recip", n, "--strategy", "largest")
    # tables
    for fmt in ("text", "csv"):
        yield _line("table", "recip", "--format", fmt)
        yield _line("table", "squares", "--format", fmt)
        for head in multiplication_heads():
            yield _line("table", "mult", str(head), "--format", fmt)
        for system, start, stop in (
            ("L", "1 shu-si", "2 kush"),
            ("L", "1 ninda", "1 ush"),
            ("Lh", "1 kush", "2 ninda"),
            ("W", "1 she", "2 gin"),
            ("W", "1 gin", "1 ma-na"),
            ("S", "1 she", "2 sar"),
            ("S", "1 sar", "1 bur"),
            ("C", "1 sila", "1 gur"),
            ("L", "2 kush", "1 shu-si"),
            ("L", "1 kuz", "2 kush"),
        ):
            yield _line("table", "metro", system, "--from", start, "--to", stop,
                        "--format", fmt)
    # conversions
    for system in _SYSTEMS:
        for v in range(1, 400):
            yield _line("convert", "readings", system, _sexagesimal(v))
        for span in ("1", "2", "-1"):
            yield _line("convert", "readings", system, "3", "--span", span)
    for system, meas in (
        ("L", "1/2 kush 3 shu-si"), ("L", "1 1/2 ninda"), ("L", "1 danna"),
        ("Lh", "1/2 ninda"), ("Lh", "1 kush"), ("W", "6 she"), ("W", "1 ma-na"),
        ("S", "2/3 sar 5 gin"), ("S", "2 1/4 she"), ("S", "1 bur"), ("C", "1 gur"),
        ("C", "3 sila"), ("L", "3 kuz"), ("L", "1 ninda 1 kush 1 ninda"),
        ("L", "1/5 kush"), ("W", ""),
    ):
        yield _line("convert", "to-spvn", system, meas)
    for system, number, window in (
        ("Lh", "6", "1 kush..2 ninda"),
        ("L", "5", "1 ninda..10 ninda"),
        ("L", "1:30", "1 ninda..10 ninda"),
        ("L", "3", "1 shu-si..1 ush"),
        ("L", "10", "1 shu-si..1 kush"),
        ("W", "2", "1 she..1 gin"),
        ("W", "9", "1 gin..1 ma-na"),
        ("S", "45", "1 gin..1 sar"),
        ("C", "1", "1 sila..59 sila"),
        ("C", "7", "1 gur..2 gur"),
        ("L", "5", "10 ninda..1 ninda"),
        ("L", "5", "1 ninda"),
    ):
        yield _line("convert", "from-spvn", system, number, "--window", window)
    # replay: every shipped tablet under no configuration, A, B and C
    for path in sorted(shipped_corpus_dir().glob("*.tab")):
        name = f"{{corpus}}/{path.name}"
        yield _line("run", name)
        for config in ("A", "B", "C"):
            yield _line("run", name, "--config", config)
    yield _line("check", "{corpus}")
    yield _line("check")
    # tablets that fail or are refused, and paths that are not tablets
    for name in TABLETS:
        yield _line("run", f"{{tmp}}/{name}")
    yield _line("run", "{tmp}/missing.tab")
    yield _line("check", "{tmp}")
    yield _line("check", "{tmp}/missing")
    yield _line("repl") + " < session"
    # argparse's own output: the exit code alone is pinned
    for argv in (
        ("--help",), ("recip", "--help"), ("bogus",), ("mul", "1"), ("table",),
        ("recip", "2", "--strategy", "smallest"),
        ("convert", "readings", "L", "3", "--span", "x"),
    ):
        yield _line(*argv)


def _parse(command: str) -> tuple[list[str], str | None]:
    """The argv of ``command`` and the name of its stdin, or None."""
    toks = shlex.split(command)
    if len(toks) >= 2 and toks[-2] == "<":
        return toks[:-2], toks[-1]
    return toks, None


def _argparse_made(argv: list[str]) -> bool:
    """Whether argparse writes the output of ``argv``: help or a usage error."""
    if cli._read_run(argv) is not None:
        return False
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            cli._build_parser().parse_args(argv)
        except SystemExit:
            return True
    return False


def write_tablets(tmp: Path) -> None:
    for name, text in TABLETS.items():
        (tmp / name).write_text(text, encoding="utf-8")


def replay(command: str, tmp: Path) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``command``, paths masked.

    ``tmp`` holds the tablets of ``TABLETS`` (see :func:`write_tablets`).
    """
    argv, stdin = _parse(command)
    places = (("{corpus}", str(shipped_corpus_dir())), ("{tmp}", str(tmp)))
    for mark, path in places:
        argv = [a.replace(mark, path) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(STDIN[stdin] if stdin else "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    out, err = out.getvalue(), err.getvalue()
    for mark, path in places:
        out, err = out.replace(path, mark), err.replace(path, mark)
    return code, out, err


def digest(command: str, tmp: Path, exit_only: bool) -> str:
    code, out, err = replay(command, tmp)
    if exit_only:
        return f"exit={code}"
    return hashlib.sha256(f"{code}\n{out}\n{err}".encode()).hexdigest()[:16]


def read_digests() -> dict[str, str]:
    """command -> digest, in the file's order."""
    pinned = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        value, _, command = line.partition(" ")
        pinned[command] = value
    return pinned


def main() -> int:
    listed = list(commands())
    if len(set(listed)) != len(listed):
        print("two commands of the list are the same", file=sys.stderr)
        return 1
    old = read_digests() if DIGESTS.exists() else {}
    new = {}
    with tempfile.TemporaryDirectory() as d:
        tmp = Path(d)
        write_tablets(tmp)
        for command in listed:
            new[command] = digest(command, tmp, _argparse_made(_parse(command)[0]))
    for command, value in new.items():
        if command not in old:
            print(f"new      {command}")
        elif old[command] != value:
            print(f"moved    {command}")
    for command in old.keys() - new.keys():
        print(f"dropped  {command}")
    DIGESTS.write_text("".join(f"{v} {c}\n" for c, v in new.items()), encoding="utf-8")
    print(f"{len(new)} commands in {DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
