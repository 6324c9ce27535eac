"""Command-line front end.

Results go to stdout, diagnostics to stderr, and behavior is fully
determined by the arguments, so identical invocations produce identical
bytes.  Exit codes: 0 success, 1 corpus verification failure, 2 bad
usage or unparsable input, 3 arithmetic error (no reciprocal, no root,
no reading, operands too long, ...).

Importing this module loads ``spvn``, ``recip`` and ``textio``, and not
``argparse``.  The other layers are imported lazily: ``metrology`` only
by ``table`` and ``convert`` (and by ``textio`` when it parses a
measurement), ``procedures`` (with ``abacus``) only by ``run`` and
``check``, and ``tables`` only by ``table`` and by the reciprocal peel,
which reads the standard table from it.  So a one-line look-up such as
``mesomath recip 7:30`` or ``mesomath mul 20 20`` loads neither the
replay nor the metrology layer.

``run FILE [--config C]``, the command that replays a tablet, is read
by ``_read_run`` without argparse; argparse reads every other command
line, prints help and usage errors, and is imported on its first use.
"""

from __future__ import annotations

import functools
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Sequence

from . import recip, spvn, textio
from .errors import ParseError, SexagesimalError, TraceTooLong, _clip
from .recip import FactorStrategy

if TYPE_CHECKING:
    import argparse

    from . import procedures

#: The unit systems' names, as ``sorted(metrology.SYSTEMS)`` gives them;
#: spelled out so that building the parser does not import ``metrology``.
_SYSTEMS = ("C", "L", "Lh", "S", "W")

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_ARITH = 3

#: Most digits ``recip --trace`` takes.  Its columns grow with the square
#: of the number's length: the trace of the 1,000-digit 2**5901 is 8.3 MB,
#: and one at ``spvn.MAX_PRODUCT_DIGITS`` would run to hundreds of MB.
MAX_TRACE_DIGITS = 1_000

#: The number sub-commands, which the REPL reads too: name -> (function,
#: operands, help).  ``recip`` comes last: its parser also takes
#: ``--trace`` and ``--strategy``, which ``_dispatch`` reads.
_ARITH = {
    "mul": (spvn.mul, ("a", "b"), "multiply two numbers"),
    "square": (spvn.square, ("a",), "square a number"),
    "sqrt": (recip.sqrt, ("a",), "exact square root"),
    "cbrt": (recip.cbrt, ("a",), "exact cube root"),
    "recip": (lambda a: recip.reciprocal(a)[0], ("a",),
              "reciprocal by trailing-part factorization"),
}


def _span(s: str) -> int:
    """``--span``'s value, read as an exponent: an optional '-', then ASCII digits."""
    span = textio.read_exponent(s)
    if span is None:
        raise ValueError(s)
    return span


# argparse names the type in its refusal: "invalid int value: 'x'"
_span.__name__ = "int"


def _read_run(argv: Sequence[str]) -> SimpleNamespace | None:
    """argparse's namespace for ``run FILE [--config C]``, read without argparse.

    Only ``run FILE``, ``run FILE --config C`` and ``run --config C FILE``
    are read here, where neither FILE nor C starts with '-'; any other
    command line gives None and is left to argparse.
    """
    if len(argv) == 2:
        file, config = argv[1], None
    elif len(argv) == 4 and argv[2] == "--config":
        file, config = argv[1], argv[3]
    elif len(argv) == 4 and argv[1] == "--config":
        file, config = argv[3], argv[2]
    else:
        return None
    if argv[0] != "run" or file[:1] == "-" or (config or "")[:1] == "-":
        return None
    return SimpleNamespace(command="run", file=file, config=config)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(
        prog="mesomath",
        description="Exact floating base-60 arithmetic, tables, conversions, "
        "and tablet procedure replay.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for op, (_, operands, desc) in _ARITH.items():
        q = sub.add_parser(op, help=desc)
        for name in operands:
            q.add_argument(name)
    q.add_argument("--trace", action="store_true", help="show the factor columns")
    q.add_argument(
        "--strategy", choices=sorted(s.value for s in FactorStrategy), default="wedge"
    )

    q = sub.add_parser("table", help="print a curriculum table")
    tsub = q.add_subparsers(dest="table_kind", required=True)
    t = tsub.add_parser("recip")
    t.add_argument("--format", choices=("text", "csv"), default="text")
    t = tsub.add_parser("mult")
    t.add_argument("head")
    t.add_argument("--format", choices=("text", "csv"), default="text")
    t = tsub.add_parser("squares")
    t.add_argument("--format", choices=("text", "csv"), default="text")
    t = tsub.add_parser("metro")
    t.add_argument("system", choices=_SYSTEMS)
    t.add_argument("--from", dest="start", required=True, metavar="MEASUREMENT")
    t.add_argument("--to", dest="stop", required=True, metavar="MEASUREMENT")
    t.add_argument("--format", choices=("text", "csv"), default="text")

    q = sub.add_parser("convert", help="measurement <-> number conversions")
    csub = q.add_subparsers(dest="convert_kind", required=True)
    c = csub.add_parser("to-spvn")
    c.add_argument("system", choices=_SYSTEMS)
    c.add_argument("measurement")
    c = csub.add_parser("from-spvn")
    c.add_argument("system", choices=_SYSTEMS)
    c.add_argument("number")
    c.add_argument("--window", required=True, help='"<m>".."<m>"')
    c = csub.add_parser("readings")
    c.add_argument("system", choices=_SYSTEMS)
    c.add_argument("number")
    c.add_argument("--span", type=_span, default=4)

    q = sub.add_parser("run", help="run one corpus file and print its trace")
    q.add_argument("file")
    q.add_argument("--config", default=None)

    q = sub.add_parser("check", help="verify a corpus directory")
    q.add_argument("directory", nargs="?", default=None)

    sub.add_parser("repl", help="interactive evaluator")

    return p


def _print_recip_trace(fact: recip.Factorization) -> None:
    # the peel has already loaded tables for the standard table
    from .tables import format_two_columns

    rows = [(str(q), str(r)) for q, r in zip(fact.quotients(), fact.reciprocals)]
    sys.stdout.write(format_two_columns(rows))
    for pr in recip.running_products(fact):
        print(pr)


def _print_trace(trace: procedures.Trace) -> None:
    lines = [f"tablet {trace.tablet}" + (
        f"  (configuration {trace.configuration})" if trace.configuration else ""
    )]
    for record in trace.records:
        kind, name, operation, computed, expected, matched, attested, fact = record
        line = f"  {kind:<6} {name:<12} {operation:<40} -> {computed}"
        if expected is not None:
            if not matched:
                line += "  [MISMATCH]"
            elif record.scribal_note:
                line += f"  [ok (tablet shows {attested}: scribal error)]"
            else:
                line += "  [ok]"
        lines.append(line)
        if fact is not None:
            lines.append(f"         factors: {' '.join(map(str, fact.factors))}")
    lines.append("PASS\n" if trace.passed else "FAIL\n")
    sys.stdout.write("\n".join(lines))


def _cmd_check(directory: str | None) -> int:
    from collections import Counter

    from . import procedures

    if directory is None:
        directory = procedures.shipped_corpus_dir()
    summary = procedures.verify_corpus(directory)
    for w in summary.warnings:
        print(f"warning: {w}", file=sys.stderr)
    # a tablet id that more than one file holds is told apart by the file;
    # the id is echoed clipped, as every other echo is
    shared = Counter(rep.tablet for rep in summary.reports)
    for rep in summary.reports:
        name = _clip(rep.tablet)
        if shared[rep.tablet] > 1:
            name += f" ({rep.path.name})"
        if rep.error is not None:
            print(f"{name}: ERROR {rep.error}")
            continue
        notes = sum(len(t.scribal_notes()) for t in rep.traces)
        configs = [t.configuration for t in rep.traces if t.configuration]
        detail = f" configs={','.join(configs)}" if configs else ""
        detail += f" scribal-notes={notes}" if notes else ""
        print(f"{name}: {'pass' if rep.passed else 'FAIL'}{detail}")
        for t in rep.traces:
            for r in t.mismatches():
                print(
                    f"  mismatch in {r.kind} {r.name}: expected "
                    f"{r.expected}, computed {r.computed}"
                )
    print(f"{sum(r.passed for r in summary.reports)}/{len(summary.reports)} tablets pass")
    return EXIT_OK if summary.passed else EXIT_VERIFY


def _unbindable(target: str) -> str | None:
    """Why the REPL cannot bind the name ``target``, or None if it can.

    A token is looked up as a name before it is read as a number, so a
    bound number would change what that number means on every later line.
    """
    if len(target.split()) > 1:
        return "it holds whitespace"
    try:
        textio.parse_spvn(target)
    except ParseError:
        return None
    return "it reads as a number"


def _repl() -> int:
    """One command per line, with named results: ``x = mul 9 7``."""
    scope: dict[str, spvn.FloatingNumber] = {}

    def resolve(tok: str) -> spvn.FloatingNumber:
        if tok in scope:
            return scope[tok]
        return textio.parse_spvn(tok)

    interactive = sys.stdin.isatty()
    while True:
        if interactive:
            print("> ", end="", file=sys.stderr, flush=True)
        raw = sys.stdin.readline()
        if not raw:
            break
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line in ("quit", "exit"):
            break
        target = None
        if "=" in line:
            target, _, line = line.partition("=")
            target = target.strip()
            line = line.strip()
            why = _unbindable(target)
            if why:
                print(f"error: cannot bind {_clip(repr(target))}: {why}", file=sys.stderr)
                continue
        toks = line.split()
        try:
            if len(toks) == 1:
                value = resolve(toks[0])
            elif toks and toks[0] in _ARITH and len(toks) == 1 + len(_ARITH[toks[0]][1]):
                operands = [resolve(t) for t in toks[1:]]
                spvn.check_product(toks[0], *operands)
                value = _ARITH[toks[0]][0](*operands)
            else:
                print(f"error: cannot evaluate {_clip(repr(line))}", file=sys.stderr)
                continue
        except SexagesimalError as e:
            print(f"error: {e}", file=sys.stderr)
            continue
        if target:
            scope[target] = value
        print(value)
    return EXIT_OK


def _dispatch(args: SimpleNamespace | argparse.Namespace) -> int:
    cmd = args.command

    if cmd == "recip":
        a = textio.parse_spvn(args.a)
        spvn.check_product(cmd, a)
        if args.trace and len(a) > MAX_TRACE_DIGITS:
            raise TraceTooLong(
                f"recip --trace takes at most {MAX_TRACE_DIGITS} digits, not {len(a)}"
            )
        r, fact = recip.reciprocal(a, FactorStrategy(args.strategy))
        if args.trace:
            _print_recip_trace(fact)
        else:
            print(r)
    elif cmd in _ARITH:
        fn, names, _ = _ARITH[cmd]
        operands = [textio.parse_spvn(getattr(args, name)) for name in names]
        spvn.check_product(cmd, *operands)
        print(fn(*operands))
    elif cmd == "table":
        from . import tables

        if args.table_kind == "recip":
            out = tables.format_reciprocal_table(
                tables.gen_reciprocal_table(), args.format
            )
        elif args.table_kind == "mult":
            head = textio.parse_spvn(args.head)
            # its widest product is the head times 50
            spvn.check_product("mul", head, spvn.FloatingNumber((tables.MULTIPLIERS[-1],)))
            out = tables.format_multiplication_table(
                tables.gen_multiplication_table(head), args.format
            )
        elif args.table_kind == "squares":
            out = tables.format_squares_table(args.format)
        else:
            from . import metrology

            t = metrology.gen_metrological_table(
                args.system,
                textio.parse_measurement(args.start, args.system),
                textio.parse_measurement(args.stop, args.system),
            )
            out = metrology.format_metrological_table(t, args.format)
        sys.stdout.write(out)
    elif cmd == "convert":
        from . import metrology

        if args.convert_kind == "to-spvn":
            m = textio.parse_measurement(args.measurement, args.system)
            print(metrology.to_number(m))
        elif args.convert_kind == "from-spvn":
            window = textio.parse_window(args.window, args.system)
            n = textio.parse_spvn(args.number)
            print(metrology.from_number(n, args.system, window))
        else:
            for m in metrology.enumerate_readings(
                textio.parse_spvn(args.number), args.system, args.span
            ):
                print(m)
    elif cmd == "run":
        from . import procedures

        trace = procedures.run_file(args.file, args.config)
        _print_trace(trace)
        return EXIT_OK if trace.passed else EXIT_VERIFY
    elif cmd == "check":
        return _cmd_check(args.directory)
    elif cmd == "repl":
        return _repl()
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.

    ``argv`` defaults to ``sys.argv[1:]``.  A plain ``run FILE [--config
    C]`` is read by ``_read_run``; any other command line, help included,
    goes to the argparse parser, which is built (and argparse imported)
    on the first such call and reused for every later one in the same
    process; importing this module builds none.
    argparse looks up ``sys.stdout`` and ``sys.stderr`` only when it
    prints, so redirected or captured streams still receive its output.
    """
    if argv is None:
        argv = sys.argv[1:]
    args = _read_run(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as e:
            return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _dispatch(args)
    except (ParseError, OSError) as e:
        # first: a ParseError is also a SexagesimalError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except SexagesimalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ARITH


if __name__ == "__main__":
    raise SystemExit(main())
