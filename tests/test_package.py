"""The package surface: lazy layer imports, the public names, the records.

``import mesomath`` loads no layer; each name imports its layer on first
use.  The import guards run in a fresh interpreter each, since this
process has long since imported every layer.
"""

import copy
import importlib
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mesomath
from mesomath import abacus, errors, metrology, procedures, recip, tables
from mesomath.procedures import shipped_corpus_dir
from mesomath.textio import parse_measurement, parse_spvn, parse_window
import mutants

LAYERS = ("abacus", "errors", "metrology", "procedures", "recip", "spvn", "tables", "textio")
#: every public name and the layer it lives in
PUBLIC = {
    "FloatingNumber": "spvn", "SimplerOrdering": "spvn",
    "compare_simpler": "spvn", "from_integer": "spvn", "mul": "spvn",
    "square": "spvn", "to_integer": "spvn",
    "ElementaryTable": "recip", "Factorization": "recip",
    "FactorStrategy": "recip", "cbrt": "recip", "is_regular": "recip",
    "reciprocal": "recip", "reciprocal_loop": "recip", "sqrt": "recip",
    "curriculum": "tables", "gen_multiplication_table": "tables",
    "gen_reciprocal_table": "tables", "gen_square_roots_table": "tables",
    "gen_squares_table": "tables",
    "AnchorHint": "metrology", "MeasurementValue": "metrology",
    "Window": "metrology", "enumerate_readings": "metrology",
    "from_number": "metrology", "gen_metrological_table": "metrology",
    "to_number": "metrology",
    "AnchoredNumber": "abacus", "Configuration": "abacus",
    "disk_area": "procedures", "parse_script": "procedures",
    "run": "procedures", "verify_corpus": "procedures",
    "parse_measurement": "textio", "parse_spvn": "textio",
}


def _new_modules(code: str) -> set[str]:
    """Modules that ``code`` leaves in sys.modules beyond a bare interpreter's."""
    report = "\nimport sys; print(' '.join(sys.modules))"

    def loaded(src: str) -> set[str]:
        out = subprocess.run(
            [sys.executable, "-c", src + report], capture_output=True, text=True, check=True
        )
        return set(out.stdout.split())

    return loaded(code) - loaded("")


def _layers(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "mesomath" or m.startswith("mesomath.")}


class TestLazyImports:
    def test_import_loads_no_layer(self):
        assert _layers(_new_modules("import mesomath")) == {"mesomath"}

    def test_reciprocal_table_loads_only_its_layers(self):
        new = _new_modules("import mesomath; mesomath.tables.gen_reciprocal_table()")
        assert _layers(new) == {
            "mesomath", "mesomath.errors", "mesomath.spvn", "mesomath.recip",
            "mesomath.tables",
        }
        assert not new & {"dataclasses", "inspect", "fractions"}

    def test_curriculum_tables_load_only_their_layers(self):
        # the heads are read off their digit strings, not through textio
        new = _new_modules(
            "import mesomath; t = mesomath.tables\n"
            "for h in t.multiplication_heads():\n"
            "    t.format_multiplication_table(t.gen_multiplication_table(h), 'csv')\n"
            "t.curriculum(); t.gen_cube_roots_table(); t.format_squares_table()\n"
            "t.format_reciprocal_table(t.gen_reciprocal_table())"
        )
        assert _layers(new) == {
            "mesomath", "mesomath.errors", "mesomath.spvn", "mesomath.recip",
            "mesomath.tables",
        }

    def test_metro_table_formatting_loads_only_the_writer(self):
        # printing a metrological table, cut from its ladder or built by
        # hand, loads the writer's layers and nothing else
        made = (
            "from mesomath.metrology import MeasurementValue as M, Term,"
            " gen_metrological_table as gen, format_metrological_table as fmt\n"
            "t = gen('L', M('L', (Term('kuš', 1),)), M('L', (Term('ninda', 2),)))\n"
        )
        generated = _new_modules(made)
        assert _layers(generated) == {
            "mesomath", "mesomath.errors", "mesomath.spvn", "mesomath.metrology",
        }
        printed = _new_modules(
            made + "fmt(t); fmt(t, 'csv'); fmt(type(t)(t.system, t.rows, t.texts))"
        )
        assert printed - generated == {"mesomath.recip", "mesomath.tables"}

    def test_recip_command_leaves_out_the_replay_layer(self):
        new = _new_modules(
            "from mesomath import cli; assert cli.main(['recip', '7:30']) == 0"
        )
        assert "mesomath.procedures" not in new

    @pytest.mark.parametrize("argv", [
        ["run", str(shipped_corpus_dir() / "ybc4663-1.tab")],
        ["check"],
    ])
    def test_replay_commands_import_their_layer(self, argv):
        new = _new_modules(
            f"from mesomath import cli; assert cli.main({argv!r}) == 0"
        )
        assert "mesomath.procedures" in new

    @pytest.mark.parametrize("argv", [["recip", "7:30"], ["mul", "20", "20"]])
    def test_number_commands_load_no_metrology(self, argv):
        new = _new_modules(
            f"from mesomath import cli; assert cli.main({argv!r}) == 0"
        )
        assert not new & {
            "mesomath.metrology", "mesomath.abacus", "dataclasses", "inspect", "fractions",
        }

    def test_recip_command_loads_no_csv(self):
        # the peel loads tables for the standard table, and no table
        # writes its CSV through the csv module
        new = _new_modules(
            "from mesomath import cli; assert cli.main(['recip', '7:30']) == 0"
        )
        assert "mesomath.tables" in new and "csv" not in new
        new = _new_modules(
            "import contextlib, io\nfrom mesomath import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['table', 'recip'], ['table', 'mult', '9'],"
            " ['table', 'metro', 'L', '--from', '1 shu-si', '--to', '2 kush']):\n"
            "        assert cli.main(argv + ['--format', 'csv']) == 0"
        )
        assert "mesomath.metrology" in new and "csv" not in new

    @pytest.mark.parametrize("argv", [
        ["run", str(shipped_corpus_dir() / "ybc4663-1.tab")],
        ["check"],
    ])
    def test_replay_commands_load_no_dataclasses(self, argv):
        new = _new_modules(
            f"from mesomath import cli; assert cli.main({argv!r}) == 0"
        )
        assert not new & {"dataclasses", "inspect"}

    @pytest.mark.parametrize(("argv", "loaded"), [
        (["run", str(shipped_corpus_dir() / "ybc4663-1.tab")], set()),
        (["--help"], {"argparse", "gettext"}),
    ])
    def test_which_commands_load_argparse(self, argv, loaded):
        # the command's own output is kept out of the module report
        new = _new_modules(
            "import contextlib, io\nfrom mesomath import cli\n"
            f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0"
        )
        assert new & {"argparse", "gettext"} == loaded

    def test_cli_system_names_are_metrologys(self):
        from mesomath import cli

        assert cli._SYSTEMS == tuple(sorted(metrology.SYSTEMS))


class TestPublicSurface:
    NAMES = sorted([*LAYERS, *PUBLIC])

    def test_forty_three_names(self):
        assert len(self.NAMES) == 43
        assert mesomath.__all__ == self.NAMES
        assert dir(mesomath) == self.NAMES

    def test_star_import(self):
        scope: dict = {}
        exec("from mesomath import *", scope)
        assert sorted(set(scope) - {"__builtins__"}) == self.NAMES

    @pytest.mark.parametrize("name", sorted(PUBLIC))
    def test_name_is_its_layers_object(self, name):
        value = getattr(mesomath, name)
        assert value is getattr(importlib.import_module(f"mesomath.{PUBLIC[name]}"), name)

    @pytest.mark.parametrize("layer", LAYERS)
    def test_layer_attribute_is_the_module(self, layer):
        assert getattr(mesomath, layer) is importlib.import_module(f"mesomath.{layer}")

    def test_unknown_name(self):
        with pytest.raises(
            AttributeError, match="^module 'mesomath' has no attribute 'cli_main'$"
        ):
            mesomath.cli_main  # noqa: B018


class TestRecords:
    """Records are NamedTuples with the repr and hash they had as frozen
    dataclasses, or immutable slotted classes where they keep derived state."""

    def test_factorization(self):
        _, f = recip.reciprocal(parse_spvn("4:26:40"))
        assert repr(f) == (
            "Factorization(source=FloatingNumber('4:26:40'), "
            "factors=(FloatingNumber('6:40'), FloatingNumber('40')), "
            "reciprocals=(FloatingNumber('9'), FloatingNumber('1:30')), "
            "reciprocal=FloatingNumber('13:30'))"
        )
        assert hash(f) == hash((f.source, f.factors, f.reciprocals, f.reciprocal))
        assert [str(q) for q in f.quotients()] == ["4:26:40", "40"]

    def test_parse_diagnostic(self):
        d = errors.ParseDiagnostic(line=1, column=3, message="digit 75", token="75")
        assert repr(d) == "ParseDiagnostic(line=1, column=3, message='digit 75', token='75')"
        assert hash(d) == hash((1, 3, "digit 75", "75"))
        bare = errors.ParseDiagnostic(2, 4, "empty number")
        assert repr(bare) == "ParseDiagnostic(line=2, column=4, message='empty number', token='')"
        assert str(bare) == "line 2, column 4: empty number"

    def test_multiplication_table(self):
        t = tables.gen_multiplication_table(parse_spvn("9"))
        assert repr(t).startswith(
            "MultiplicationTable(head=FloatingNumber('9'), "
            "rows=((1, FloatingNumber('9')), (2, FloatingNumber('18')), "
        )
        assert repr(t).endswith("(50, FloatingNumber('7:30'))))")
        assert hash(t) == hash((t.head, t.rows))

    def test_records_equal_their_field_tuples(self):
        # the one departure from the frozen dataclasses they were
        d = errors.ParseDiagnostic(1, 1, "m")
        assert d == (1, 1, "m", "")
        script = procedures.parse_script(RECORDS_SCRIPT)
        trace = procedures.run(script, "A")
        report = procedures.TabletReport(Path("t.tab"), "t", (trace,))
        hashable = [
            metrology.Unit("u", 1, ()), metrology.Term("ninda", 1),
            metrology.AnchorHint(-2), parse_window("1 ninda..2 ninda", "L"),
            abacus.AnchoredNumber(parse_spvn("6:30"), -1), script.givens[0],
            script.steps[1], script.answers[0], *trace.records, trace, report,
            procedures.CorpusSummary((report,)),
        ]
        for r in hashable:
            assert r == tuple(r) and hash(r) == hash(tuple(r))
        assert metrology.Term("ninda", 1) == ("ninda", 1, 0)
        # a configuration holds a dict, so it and the script are unhashable
        assert script.configurations[0] == ("A", {"a": -1, "b": 0})
        assert script == tuple(script)

    def test_records_with_derived_fields_are_not_tuples(self):
        # a measurement, a unit system and a table keep what their fields
        # determine; they compare, hash, copy and pickle by their fields
        m = parse_measurement("1/2 kush 3 shu-si", "L")
        t = metrology.gen_metrological_table("L", m, parse_measurement("1 ninda", "L"))
        for r in (m, metrology.SYSTEM_L, t):
            assert not isinstance(r, tuple)
            assert copy.deepcopy(r) == r and pickle.loads(pickle.dumps(r)) == r
            with pytest.raises(AttributeError):
                setattr(r, r._fields[0], None)
            with pytest.raises(AttributeError):
                delattr(r, r._fields[0])
        assert m == parse_measurement("1/2 kuš 3 šu-si", "L")
        assert hash(m) == hash(("L", m.terms)) and m != ("L", m.terms)
        assert copy.deepcopy(m).twelfths == m.twelfths
        assert pickle.loads(pickle.dumps(t)).texts == t.texts
        assert len(t) == len(t.rows) == 29


# A tablet whose trace holds every kind of record: a given read from a
# table, one given directly, a reciprocal with its factorization, an
# anchored sum with a scribal note and a reading under a window.
RECORDS_SCRIPT = """tablet "t"
given L a "1/2 ninda" expect 30
given-spvn b 8
config A: a=e-1, b=e0
step recip b expect 7:30e-2 as c
step add a c expect 37:30e-2 attested 37e-2 as d
answer d L window "1 kush".."1 ninda" expect "1/2 ninda 1 1/2 kush"
"""
HALF_NINDA = "MeasurementValue(system='L', terms=(Term(unit='ninda', whole=0, frac=6),))"
READING = (
    "MeasurementValue(system='L', terms=(Term(unit='ninda', whole=0, frac=6), "
    "Term(unit='kuš', whole=1, frac=6)))"
)
FACT_8 = (
    "Factorization(source=FloatingNumber('8'), factors=(FloatingNumber('8'),), "
    "reciprocals=(FloatingNumber('7:30'),), reciprocal=FloatingNumber('7:30'))"
)


def _anchored(digits: str, exponent: int) -> str:
    return f"AnchoredNumber(digits=FloatingNumber({digits!r}), exponent={exponent})"


class TestRecordReprs:
    """Every record prints the repr it had as a frozen dataclass."""

    def test_measurement_value(self):
        m = parse_measurement("1/2 kush 3 shu-si", "L")
        assert repr(m) == (
            "MeasurementValue(system='L', terms=(Term(unit='kuš', whole=0, frac=6), "
            "Term(unit='šu-si', whole=3, frac=0)))"
        )
        assert str(m) == "1/2 kuš 3 šu-si"

    def test_window(self):
        w = parse_window("1 ninda..2 ninda", "L")
        assert repr(w) == (
            "Window(lo=MeasurementValue(system='L', terms=(Term(unit='ninda', whole=1, frac=0),)), "
            "hi=MeasurementValue(system='L', terms=(Term(unit='ninda', whole=2, frac=0),)))"
        )
        assert str(w) == "1 ninda .. 2 ninda"

    def test_anchor_hint(self):
        assert repr(metrology.AnchorHint(-2)) == "AnchorHint(exponent=-2)"

    def test_unit_system(self):
        assert repr(metrology.SYSTEM_C) == (
            "UnitSystem(kind='C', units=("
            "Unit(name='gur', size=300, spelling_fractions=(), aliases=()), "
            "Unit(name='bariga', size=60, spelling_fractions=(), aliases=()), "
            "Unit(name='ban', size=10, spelling_fractions=(), aliases=()), "
            "Unit(name='sila', size=1, spelling_fractions=(10, 8, 6, 4, 3, 2), aliases=())), "
            "base=Fraction(1, 1), anchor_offset=0)"
        )

    def test_metrological_table(self):
        t = metrology.gen_metrological_table(
            "L", parse_measurement("1 kush", "L"), parse_measurement("1 1/3 kush", "L")
        )
        assert repr(t) == (
            "MetrologicalTable(system='L', rows=("
            "(MeasurementValue(system='L', terms=(Term(unit='kuš', whole=1, frac=0),)), "
            "FloatingNumber('5')), "
            "(MeasurementValue(system='L', terms=(Term(unit='kuš', whole=1, frac=4),)), "
            "FloatingNumber('6:40'))))"
        )
        assert len(t) == 2

    def test_anchored_number(self):
        a = abacus.AnchoredNumber(parse_spvn("6:30"), -1)
        assert repr(a) == _anchored("6:30", -1)
        assert str(a) == "6:30e-1"

    def test_configuration(self):
        c = abacus.Configuration("A", {"a": 1})
        assert repr(c) == "Configuration(name='A', exponents={'a': 1})"

    def test_procedure_script(self):
        s = procedures.parse_script(RECORDS_SCRIPT)
        assert repr(s) == (
            "ProcedureScript(tablet='t', givens=("
            "Given(name='a', expect=FloatingNumber('30'), attested=None, "
            f"measurement={HALF_NINDA}, line=2), "
            "Given(name='b', expect=FloatingNumber('8'), attested=None, "
            "measurement=None, line=3)), "
            "configurations=(Configuration(name='A', exponents={'a': -1, 'b': 0}),), "
            "steps=("
            f"Step(op='recip', args=('b',), expect={_anchored('7:30', -2)}, "
            "attested=None, name='c', line=5), "
            f"Step(op='add', args=('a', 'c'), expect={_anchored('37:30', -2)}, "
            f"attested={_anchored('37', -2)}, name='d', line=6)), "
            "answers=(Answer(name='d', window=Window("
            "lo=MeasurementValue(system='L', terms=(Term(unit='kuš', whole=1, frac=0),)), "
            "hi=MeasurementValue(system='L', terms=(Term(unit='ninda', whole=1, frac=0),))), "
            f"expect={READING}, line=7),))"
        )

    def test_trace_record(self):
        trace = procedures.run(procedures.parse_script(RECORDS_SCRIPT), "A")
        assert [repr(r) for r in trace.records] == [
            "TraceRecord(kind='given', name='a', operation='read table L: 1/2 ninda', "
            f"computed={_anchored('30', -1)}, expected=FloatingNumber('30'), "
            "matched=True, attested=None, factorization=None)",
            "TraceRecord(kind='given', name='b', operation='given directly', "
            f"computed={_anchored('8', 0)}, expected=FloatingNumber('8'), "
            "matched=True, attested=None, factorization=None)",
            "TraceRecord(kind='step', name='c', operation='recip b', "
            f"computed={_anchored('7:30', -2)}, expected={_anchored('7:30', -2)}, "
            f"matched=True, attested=None, factorization={FACT_8})",
            "TraceRecord(kind='step', name='d', operation='add a c', "
            f"computed={_anchored('37:30', -2)}, expected={_anchored('37:30', -2)}, "
            f"matched=True, attested={_anchored('37', -2)}, factorization=None)",
            "TraceRecord(kind='answer', name='d', "
            "operation='read table L within 1 kuš .. 1 ninda', "
            f"computed={READING}, expected={READING}, "
            "matched=True, attested=None, factorization=None)",
        ]
        assert [r.scribal_note for r in trace.records] == [False, False, False, True, False]
        assert trace.passed
        assert repr(trace).startswith(
            "Trace(tablet='t', configuration='A', records=(TraceRecord(kind='given', "
        )

    def test_corpus_summary(self, tmp_path):
        (tmp_path / "x.tab").write_text('tablet "x"\ngiven-spvn b 8\nstep recip b expect 7:30 as c\n')
        (tmp_path / "y.tab").write_text("bogus\n")
        summary = procedures.verify_corpus(tmp_path)
        assert repr(summary) == (
            "CorpusSummary(reports=("
            f"TabletReport(path={tmp_path / 'x.tab'!r}, tablet='x', traces=("
            "Trace(tablet='x', configuration=None, records=("
            "TraceRecord(kind='given', name='b', operation='given directly', "
            "computed=FloatingNumber('8'), expected=FloatingNumber('8'), "
            "matched=True, attested=None, factorization=None), "
            "TraceRecord(kind='step', name='c', operation='recip b', "
            "computed=FloatingNumber('7:30'), expected=FloatingNumber('7:30'), "
            f"matched=True, attested=None, factorization={FACT_8}))),), error=None), "
            f"TabletReport(path={tmp_path / 'y.tab'!r}, tablet='y', traces=(), "
            "error=\"line 1: unknown directive 'bogus'\")), warnings=())"
        )
        assert not summary.passed


def test_every_mutant_applies_once(tmp_path):
    # tests/mutants.py runs outside tier-1; this keeps each entry's text
    # current with its module, so an edit there fails here first
    pkg = tmp_path / "src" / "mesomath"
    pkg.mkdir(parents=True)
    for m in mutants.MUTANTS:
        shutil.copy(mutants.ROOT / "src" / "mesomath" / m.module, pkg)
        mutants.apply(m, tmp_path)
        assert all((mutants.ROOT / t).is_file() for t in m.tests), m.name
