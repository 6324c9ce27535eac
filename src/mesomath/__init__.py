"""Exact floating base-60 arithmetic the way the scribal schools did it.

The package models the two number worlds of Old Babylonian computation:
floating digit sequences on which only multiplication, reciprocals and
roots act (:mod:`mesomath.spvn`, :mod:`mesomath.recip`), and measurement
values tied to units, bridged by the metrological tables
(:mod:`mesomath.metrology`).  Addition needs an anchor and lives in
:mod:`mesomath.abacus`; attested tablet computations replay through
:mod:`mesomath.procedures`.
"""

from .spvn import (
    FloatingNumber,
    SimplerOrdering,
    compare_simpler,
    from_integer,
    mul,
    square,
    to_integer,
)
from .recip import (
    ElementaryTable,
    Factorization,
    FactorStrategy,
    cbrt,
    is_regular,
    reciprocal,
    reciprocal_loop,
    sqrt,
)
from .tables import (
    curriculum,
    gen_multiplication_table,
    gen_reciprocal_table,
    gen_square_roots_table,
    gen_squares_table,
)
from .metrology import (
    AnchorHint,
    MeasurementValue,
    Window,
    enumerate_readings,
    from_number,
    gen_metrological_table,
    to_number,
)
from .abacus import AnchoredNumber, Configuration
from .procedures import disk_area, parse_script, run, verify_corpus
from .textio import parse_measurement, parse_spvn

__version__ = "0.1.0"
