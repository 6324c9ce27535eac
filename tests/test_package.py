"""The package surface: lazy layer imports, the public names, the records.

``import mesomath`` loads no layer; each name imports its layer on first
use.  The import guards run in a fresh interpreter each, since this
process has long since imported every layer.
"""

import importlib
import subprocess
import sys

import pytest

import mesomath
from mesomath import errors, recip, tables
from mesomath.procedures import shipped_corpus_dir
from mesomath.textio import parse_spvn

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
    """The three records are NamedTuples with the repr and hash they had."""

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
