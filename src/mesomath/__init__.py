"""Exact floating base-60 arithmetic the way the scribal schools did it.

The package models the two number worlds of Old Babylonian computation:
floating digit sequences on which only multiplication, reciprocals and
roots act (:mod:`mesomath.spvn`, :mod:`mesomath.recip`), and measurement
values tied to units, bridged by the metrological tables
(:mod:`mesomath.metrology`).  Addition needs an anchor and lives in
:mod:`mesomath.abacus`; attested tablet computations replay through
:mod:`mesomath.procedures`.

``import mesomath`` loads none of these layers.  A public name, or a
layer read as an attribute (``mesomath.tables``), imports its layer on
first use (PEP 562), so a reciprocal look-up never pays for the replay
or the metrology layers.
"""

import sys

__version__ = "0.1.0"

#: layer -> the public names the package re-exports from it
_EXPORTS = {
    "spvn": (
        "FloatingNumber",
        "SimplerOrdering",
        "compare_simpler",
        "from_integer",
        "mul",
        "square",
        "to_integer",
    ),
    "recip": (
        "ElementaryTable",
        "Factorization",
        "FactorStrategy",
        "cbrt",
        "is_regular",
        "reciprocal",
        "reciprocal_loop",
        "sqrt",
    ),
    "tables": (
        "curriculum",
        "gen_multiplication_table",
        "gen_reciprocal_table",
        "gen_square_roots_table",
        "gen_squares_table",
    ),
    "metrology": (
        "AnchorHint",
        "MeasurementValue",
        "Window",
        "enumerate_readings",
        "from_number",
        "gen_metrological_table",
        "to_number",
    ),
    "abacus": ("AnchoredNumber", "Configuration"),
    "procedures": ("disk_area", "parse_script", "run", "verify_corpus"),
    "textio": ("parse_measurement", "parse_spvn"),
    "errors": (),
}
_LAYER_OF = {name: layer for layer, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_LAYER_OF])


def _load(layer: str):
    # __import__ is what an import statement runs, so -X importtime
    # reports the layer; importlib.import_module would hide it there
    name = f"{__name__}.{layer}"
    __import__(name)
    return sys.modules[name]


def __getattr__(name: str):
    if name in _EXPORTS:
        return _load(name)
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_load(layer), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
