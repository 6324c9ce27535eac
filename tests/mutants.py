"""Checked-in mutants: small faults that some tier-1 test file must catch.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only these

Each entry names a module under ``src/mesomath``, a text that occurs in
it exactly once, the text that replaces it, and the test files that must
fail once it is replaced.  For each mutant the runner copies ``src``,
``tests``, ``benchmarks`` (whose oracle the tests read) and
``pyproject.toml`` to a temporary directory, applies the mutant there
and runs pytest on those files against that copy.  A mutant
is killed when pytest reports a failing test.  An equivalent mutant
changes no result; it carries the reason, runs the same way, and must
survive.  The exit code is 1 when a mutant that should be killed
survives, an equivalent one is killed, or an entry cannot be applied or
run, and 2 for an unknown name.  pytest does not collect this file: its
name does not start with ``test_``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: the test files that pin the peel's factor choice and its columns
_PEEL_TESTS = ("tests/test_recip.py", "tests/test_properties.py", "tests/test_cli.py")


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    tests: tuple[str, ...]
    #: why the mutant changes no result; None for a mutant to be killed
    equivalent: str | None = None


MUTANTS = (
    Mutant(
        "wedge-lead-strict", "recip.py",
        "s % M >= t:", "s % M > t:", _PEEL_TESTS,
    ),
    Mutant(
        "wedge-tail-dropped", "recip.py",
        "not s % t and s % m == t % m and s % M >= t",
        "not s % t and s % M >= t", _PEEL_TESTS,
    ),
    Mutant(
        "wedge-scan-skipped", "recip.py",
        "for t, m, M in wedge[s % BASE]:", "for t, m, M in ():", _PEEL_TESTS,
    ),
    Mutant(
        "fallback-smallest", "recip.py",
        "for t, _, _ in divisors:", "for t, _, _ in reversed(divisors):", _PEEL_TESTS,
    ),
    Mutant(
        "window-test-dropped", "recip.py",
        "while v >= window or v not in by_rep:", "while v not in by_rep:", _PEEL_TESTS,
        equivalent="every table value is below the window, so a quotient at or "
        "past it is never in the table and the lookup alone decides the same",
    ),
    Mutant(
        "last-quotient-converted", "recip.py",
        "out.append(self.factors[-1])",
        "out.append(from_integer(cur // to_integer(self.factors[-2])))", _PEEL_TESTS,
        equivalent="the last quotient is the table value that ended the peel, "
        "and converting it again builds the same digits",
    ),
    Mutant(
        "script-line-dropped", "procedures.py",
        "e.diagnostic = e.diagnostic._replace(line=line_no)", "pass",
        ("tests/test_procedures.py",),
    ),
    Mutant(
        "all-zero-diagnostic-dropped", "textio.py",
        'e.diagnostic = _diag(1, "no nonzero digit", s)', "pass",
        ("tests/test_textio.py",),
    ),
    Mutant(
        "recip-not-a-number-command", "cli.py",
        '    "recip": (lambda a: recip.reciprocal(a)[0], ("a",),\n'
        '              "reciprocal by trailing-part factorization"),\n',
        "", ("tests/test_cli.py",),
    ),
    Mutant(
        "anchor-on-any-name", "procedures.py",
        "if not defined.get(gname):", "if gname not in defined:",
        ("tests/test_procedures.py",),
    ),
    Mutant(
        "step-location-dropped", "procedures.py",
        'raise _on_line(s.line, e, f"step {op}: ")', "raise e",
        ("tests/test_procedures.py",),
    ),
    Mutant(
        "unanchored-add-returns", "procedures.py",
        'raise MissingConfig("needs a configuration")', "return a, None",
        ("tests/test_procedures.py",),
    ),
    Mutant(
        "check-names-by-stem", "procedures.py",
        "tablet = script.tablet", "pass", ("tests/test_procedures.py",),
    ),
    Mutant(
        "alias-kept", "metrology.py",
        "canonical.append(Term(name, whole, frac))",
        "canonical.append(Term(t.unit, whole, frac))", ("tests/test_metrology.py",),
    ),
    Mutant(
        "token-size-twelfths", "metrology.py",
        "a: (i, u.name, u.size) for i, u in", "a: (i, u.name, 12 * u.size) for i, u in",
        ("tests/test_textio.py", "tests/test_metrology.py"),
    ),
    Mutant(
        "spell-step-unit", "metrology.py",
        "(u.name, 12 * u.size, tuple(", "(u.name, u.size, tuple(",
        ("tests/test_textio.py", "tests/test_metrology.py"),
    ),
    Mutant(
        "script-line-message-dropped", "procedures.py",
        'e.args = (f"line {line_no}: {record}{e}", *e.args[1:])', "pass",
        ("tests/test_procedures.py", "tests/test_cli.py"),
    ),
    Mutant(
        "empty-measurement-class", "metrology.py",
        'raise EmptyInput("empty measurement")',
        'raise UnitOrderViolation("empty measurement")', ("tests/test_metrology.py",),
    ),
    Mutant(
        "anchor-gap-widened", "abacus.py",
        "MAX_ANCHOR_GAP = 1000", "MAX_ANCHOR_GAP = 1001", ("tests/test_abacus.py",),
    ),
    Mutant(
        "anchor-gap-summed", "abacus.py",
        "abs(a.exponent - b.exponent)", "abs(a.exponent + b.exponent)",
        ("tests/test_abacus.py",),
    ),
    Mutant(
        "curriculum-rows-rebuilt", "tables.py",
        "return MultiplicationTable(head, held[None])",
        "return MultiplicationTable(head, _products(h))", ("tests/test_tables.py",),
    ),
    Mutant(
        "curriculum-text-rerendered", "tables.py",
        "    return text\n", "    return _render_multiplication(t, fmt)\n",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "curriculum-store-unbounded", "tables.py",
        "held = _curriculum_store().get(h)", "held = _curriculum_store().setdefault(h, {})",
        ("tests/test_tables.py",),
    ),
    Mutant(
        "metro-width-whole-ladder", "metrology.py",
        "max(_ladder(kind)[3][i:j])", "max(_ladder(kind)[3])", ("tests/test_metrology.py",),
    ),
    Mutant(
        "metro-slice-short", "metrology.py",
        "body[offsets[i]:offsets[j]]", "body[offsets[i]:offsets[j - 1]]",
        ("tests/test_metrology.py",),
    ),
    Mutant(
        "square-roots-rebuilt", "tables.py",
        "@lru_cache(maxsize=None)\ndef gen_square_roots_table", "def gen_square_roots_table",
        ("tests/test_tables.py",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's text in its module under ``root``."""
    path = root / "src" / "mesomath" / mutant.module
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {count} times in {mutant.module}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> bool:
    """Apply ``mutant`` to a copy of the tree; True when the result is as listed."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for part in ("src", "tests", "benchmarks"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = {**os.environ, "PYTHONPATH": str(copy / "src")}
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True,
        )
    if done.returncode not in (0, 1):
        print(done.stdout[-2000:] + done.stderr[-2000:], file=sys.stderr)
        print(f"ERROR     {mutant.name}: pytest exited with {done.returncode}")
        return False
    killed = done.returncode == 1
    if mutant.equivalent is not None:
        state = "KILLED" if killed else "survived"
        print(f"{state:<9} {mutant.name} (equivalent: {mutant.equivalent})")
        return not killed
    print(f"{'killed' if killed else 'SURVIVED':<9} {mutant.name}")
    return killed


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [n for n in argv if n not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = [run(by_name[n]) for n in argv or by_name]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
