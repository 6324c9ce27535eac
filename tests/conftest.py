"""Puts ``benchmarks/`` on the import path, from wherever pytest runs, so
tests read its mesomath-free reference as ``import oracle as O``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
