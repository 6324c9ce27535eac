"""Configuration invariance on tablets that ``benchmarks/workloads.py``
generates from a seed, each configuration shifting every given's anchor
by a multiple of its degree; ``_Tablet.expected`` is what the oracle
says each record prints.  Only this module imports ``workloads``, which
loads ``dataclasses`` and ``csv``."""

import random
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

import oracle as O
import workloads
from mesomath.procedures import parse_script, run, verify_corpus

shapes = st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(2, 3))


def _tablet(shape):
    seed, steps, configs = shape
    return workloads.synth_tablet(random.Random(seed), f"synthetic {seed}", steps, configs)


@settings(deadline=None, max_examples=150)
@given(shapes)
def test_every_configuration_prints_the_oracles_values(shape):
    t = _tablet(shape)
    script = parse_script("\n".join(t.lines) + "\n")
    assert [c.name for c in script.configurations] == list(t.shifts)
    for cname in t.shifts:
        trace = run(script, cname)
        assert trace.passed, cname
        computed = [str(r.computed) for r in trace.records]
        facts = [r.factorization for r in trace.records if r.factorization is not None]
        factor_lines = [" ".join(map(str, f.factors)) for f in facts]
        assert (computed, factor_lines) == t.expected(cname), cname


def _with_twin(t, drift: int) -> str:
    """The tablet and ``twin``, a given of g0's digits anchored as g0 is
    but ``drift`` columns higher under the last configuration, and a
    step that adds the two."""
    name, v, e, deg = t.givens[0]
    last = list(t.shifts)[-1]
    lines = []
    for line in t.lines:
        if line.startswith("config "):
            if not lines[-1].startswith("config "):
                lines.append(f"given-spvn twin {O.show(v)}")
            cname = line.split()[1][:-1]
            line += f", twin=e{e + t.shifts[cname] * deg + (drift if cname == last else 0)}"
        lines.append(line)
    return "\n".join(lines) + f"\nstep add {name} twin as drift\n"


@settings(deadline=None, max_examples=50)
@given(shapes)
def test_an_anchor_shifted_against_its_degree_is_reported(shape):
    t = _tablet(shape)
    v, last = t.givens[0][1], list(t.shifts)[-1]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "t.tab"
        path.write_text(_with_twin(t, 0), encoding="utf-8")
        assert verify_corpus(d).passed
        # g0 + twin is 2 g0 under every configuration but the last: 61 g0
        path.write_text(_with_twin(t, 1), encoding="utf-8")
        (report,) = verify_corpus(d).reports
    assert report.error == (
        "step drift differs across configurations: "
        f"A gives {O.show(O.canon(2 * v))}, {last} gives {O.show(O.canon(61 * v))}"
    )
