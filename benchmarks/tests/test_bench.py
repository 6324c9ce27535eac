"""Tests of the benchmark's oracle, input generator and checks.

    python3 -m pytest benchmarks/tests -q

The oracle must reproduce attested computations on its own; the
generator must be a pure function of the seed; and every check must
accept mesomath's outputs at one pass and reject a wrong one.
"""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import oracle as O  # noqa: E402
import workloads as W  # noqa: E402


def test_reciprocal_of_4_26_40():
    r, factors = O.reciprocal(O.parse("4:26:40"))
    assert [O.show(f) for f in factors] == ["6:40", "40"]
    assert O.show(r) == "13:30"
    assert [O.show(q) for q in O.quotients(O.parse("4:26:40"), factors)] == ["4:26:40", "40"]
    assert [O.show(x) for x in O.factor_reciprocals(factors)] == ["9", "1:30"]


def test_cbs_1215_20_long_run():
    n = O.parse("5:3:24:26:40")
    r, factors = O.reciprocal(n)
    assert [O.show(f) for f in factors] == ["6:40", "40", "16", "16", "16"]
    assert O.show(r) == "11:51:54:50:37:30"
    prods = [O.show(p) for p in O.running_products(factors)]
    for need in ("14:3:45", "52:44:3:45", "1:19:6:5:37:30"):
        assert need in prods
    assert O.reciprocal(r)[0] == n


def test_irregular_is_refused():
    with pytest.raises(O.Refusal) as e:
        O.reciprocal(7)
    assert e.value.kind == "Irregular"


def test_sweep_round_trips():
    sweep = W.five_smooth_sweep()
    assert len(sweep) == 432
    for n in sweep:
        r, factors = O.reciprocal(n)
        assert O.is_power_of_sixty(n * r)
        assert O.reciprocal(r)[0] == n
        prod = 1
        for f in factors:
            prod *= f
        assert O.canon(prod) == n


def test_standard_table():
    assert len(O.STANDARD_PAIRS) == 27
    for e, r in O.STANDARD_PAIRS:
        assert O.is_power_of_sixty(e * r)


def test_metrology_attested_values():
    assert O.number_of("L", (("šu-si", 2, Fraction(0)),)) == 20
    assert O.show(O.number_of("L", (("ninda", 1, Fraction(1, 2)),))) == "1:30"
    assert O.number_of("Lh", (("ninda", 0, Fraction(1, 2)),)) == 6
    assert O.number_of("W", (("še", 6, Fraction(0)),)) == 2
    assert O.number_of("S", (("gin", 10, Fraction(0)),)) == 10
    # 6:40 read in S between 1/6 and 1 še is 1/3 še
    assert O.text(O.from_window("S", O.parse("6:40"), Fraction(1, 6), Fraction(1))) == "1/3 še"
    # the trench depth: 6 in Lh between 1 kuš and 2 ninda
    assert O.text(O.from_window("Lh", 6, Fraction(30), Fraction(720))) == "1/2 ninda"
    assert [O.text(m) for m in O.enumerate_readings("Lh", 6, 4)] == [
        "3 šu-si", "1/2 ninda", "30 ninda", "1 danna"]
    assert [O.text(m) for m in O.enumerate_readings("L", 3, 4)] == [
        "1/2 kuš 3 šu-si", "3 ninda", "3 uš", "6 danna"]


def test_length_table_extract():
    rows = O.table_rows("L", Fraction(1), Fraction(60))
    assert [(O.text(t), O.show(v)) for t, v in rows][:6] == [
        ("1 šu-si", "10"), ("2 šu-si", "20"), ("3 šu-si", "30"),
        ("4 šu-si", "40"), ("5 šu-si", "50"), ("6 šu-si", "1")]
    assert len(rows) == 18
    assert (O.text(rows[-1][0]), O.show(rows[-1][1])) == ("2 kuš", "10")


def test_window_refusals():
    v = O.parse("6:40")
    with pytest.raises(O.Refusal) as e:
        O.from_window("S", v, Fraction(2, 3), Fraction(10))
    assert e.value.kind == "NoReading"
    with pytest.raises(O.Refusal) as e:
        O.from_window("S", v, Fraction(1, 3), Fraction(20))
    assert e.value.kind == "AmbiguousReading"


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name):
    generate = W.WORKLOADS[name][0]
    a, b = generate(7, ROOT), generate(7, ROOT)
    assert a.cases == b.cases and a.meta == b.meta
    assert generate(8, ROOT).cases != a.cases


def test_synthetic_tablets_are_configuration_invariant():
    import random

    rng = random.Random(3)
    for steps in (1, 5, 20, 40):
        t = W.synth_tablet(rng, "t", steps, 3)
        runs = [t.expected(c) for c in t.shifts]
        digits = [[v.split("e")[0] for v in computed] for computed, _ in runs]
        assert all(d == digits[0] for d in digits)
        assert all(f == runs[0][1] for _, f in runs)


@pytest.fixture(scope="module")
def mm():
    sys.path.insert(0, str(ROOT / "src"))
    import worker

    return worker._import_mesomath(ROOT)


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_one_pass_agrees_with_the_oracle(name, mm, tmp_path):
    generate, bind = W.WORKLOADS[name]
    ops = bind(generate(5, ROOT), mm, tmp_path)
    bad = [op.kind for op in ops if not op.check(op.call())]
    assert bad == []


def test_checks_reject_wrong_outputs(mm, tmp_path):
    plan = W.gen_recip_sweep(5)
    ops = W.bind_recip_sweep(plan, mm, tmp_path)
    op = next(o for o, c in zip(ops, plan.cases) if c[0] == "long")
    r, f, cols, back, bf = op.call()
    wrong = mm.spvn.FloatingNumber(r.digits + (1,))
    assert not op.check((wrong, f, cols, back, bf))
    assert not op.check(W.Refused("Irregular"))

    plan = W.gen_corpus_replay(5, ROOT)
    ops = W.bind_corpus_replay(plan, mm, tmp_path)
    i = next(i for i, c in enumerate(plan.cases) if c[0] == "synthetic")
    code, text = ops[i].call()
    assert not W._verify_run_output((code, text.replace(" -> ", " -> 1:", 1)), plan.cases[i][3][1])
    assert not ops[i].check((1, text))
