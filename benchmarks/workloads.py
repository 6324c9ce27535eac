"""The three benchmark workloads: seeded inputs, operations, checks.

``generate(seed)`` builds a workload's inputs and the oracle's expected
outcome for each, from the seed alone and without importing mesomath.
``bind(plan, mm, workdir)`` turns them into operations: ``call()`` runs
one operation through mesomath's public functions and ``check(out)``
compares its result with the oracle.  A predicted typed refusal
(``Irregular``, ``NoReading``, ``AmbiguousReading``) is returned as a
:class:`Refused` value and counts as a success when the oracle predicted
it.

Inputs are drawn once; an input that trips a defect in mesomath stays in
the draw and its operations count as failed.
"""

from __future__ import annotations

import csv
import io
import math
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle as O

REFUSALS = ("Irregular", "NoReading", "AmbiguousReading")


@dataclass(frozen=True)
class Refused:
    kind: str


@dataclass
class Plan:
    cases: list
    meta: dict = field(default_factory=dict)


class Op:
    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


def _refusing(mm, fn):
    """Wrap a call so that a predicted-refusal error becomes a value."""
    errors = tuple(getattr(mm.errors, k) for k in REFUSALS)

    def call():
        try:
            return fn()
        except errors as e:
            return Refused(type(e).__name__)

    return call


def _hist(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


def _memo_check(verify):
    """Check an output once in full, then by equality with the verified one.

    mesomath promises identical outputs for identical inputs, so an
    output equal to one the oracle accepted is correct too.
    """
    seen = []

    def check(out):
        if seen:
            return out == seen[0]
        if verify(out):
            seen.append(out)
            return True
        return False

    return check


# --- recip_sweep -----------------------------------------------------------------

SWEEP_LIMIT = 60**4
LONG_LENGTHS = range(5, 41)
#: per length: three of each prime pattern, splitting the magnitude
#: between the primes in the low, middle and high third; the costliest
#: inputs then look alike for every seed, which steadies the tail
LONG_PER_LENGTH = 9
IRREGULAR_COUNT = 48


def five_smooth_sweep() -> list[int]:
    """All regular numbers below 60**4 that are not divisible by 60."""
    out = []
    p2 = 1
    while p2 < SWEEP_LIMIT:
        p3 = p2
        while p3 < SWEEP_LIMIT:
            v = p3
            while v < SWEEP_LIMIT:
                if v % 60:
                    out.append(v)
                v *= 5
            p3 *= 3
        p2 *= 2
    return sorted(out)


def draw_regular(rng: random.Random, length: int, form: int, third: int) -> int:
    """A regular number of exactly ``length`` base-60 digits, not divisible by 60.

    ``form`` picks the prime pattern; the first prime gets a share of the
    magnitude drawn from the given third of (0, 1).
    """
    lo, hi = math.log(60) * (length - 1), math.log(60) * length
    while True:
        target = rng.uniform(lo, hi)
        share = (third + rng.random()) / 3
        if form == 0:  # 2**a * 3**b
            a = int(share * target / math.log(2))
            b = round((target - a * math.log(2)) / math.log(3))
            v = 2**a * 3**b
        elif form == 1:  # 2**a * 5**c
            a = int(share * target / math.log(2))
            c = round((target - a * math.log(2)) / math.log(5))
            v = 2**a * 5**c
        else:  # at most one factor 2
            a = rng.randrange(2)
            rest = target - a * math.log(2)
            b = int(share * rest / math.log(3))
            c = round((rest - b * math.log(3)) / math.log(5))
            v = 2**a * 3**b * 5**c
        if v % 60 and len(O.digits(v)) == length:
            return v


def draw_irregular(rng: random.Random, length: int) -> int:
    while True:
        v = rng.randrange(60 ** (length - 1), 60**length)
        if v % 60 and not O.regular(v):
            return v


def _recip_expect(n: int):
    """Everything ``mesomath recip --trace`` shows, then the way back."""
    try:
        r, factors = O.reciprocal(n)
    except O.Refusal as e:
        return e.kind
    back, back_factors = O.reciprocal(r)
    if back != n or not O.is_power_of_sixty(n * r):
        raise AssertionError(f"oracle round trip failed for {O.show(n)}")
    ds = lambda vs: tuple(O.digits(v) for v in vs)  # noqa: E731
    return (
        O.digits(r), ds(factors), ds(O.quotients(n, factors)),
        ds(O.factor_reciprocals(factors)), ds(O.running_products(factors)),
        O.digits(back), ds(back_factors),
    )


def gen_recip_sweep(seed: int) -> Plan:
    rng = random.Random(seed)
    inputs = [("sweep", v) for v in five_smooth_sweep()]
    inputs += [
        ("long", draw_regular(rng, n, j % 3, j // 3 % 3))
        for n in LONG_LENGTHS
        for j in range(LONG_PER_LENGTH)
    ]
    inputs += [
        ("irregular", draw_irregular(rng, rng.randint(1, 8)))
        for _ in range(IRREGULAR_COUNT)
    ]
    rng.shuffle(inputs)
    cases = [(kind, O.digits(v), _recip_expect(v)) for kind, v in inputs]
    return Plan(cases, {
        "ops_per_pass": _hist(k for k, _, _ in cases),
        "digit_lengths": _hist(len(d) for _, d, _ in cases),
    })


def bind_recip_sweep(plan: Plan, mm, workdir) -> list[Op]:
    recip = mm.recip
    ops = []
    for kind, ds, expect in plan.cases:
        n = mm.spvn.FloatingNumber(ds)

        def run(n=n):
            r, f = recip.reciprocal(n)
            cols = (f.quotients(), recip.factor_reciprocals(f), recip.running_products(f))
            back, bf = recip.reciprocal(r)
            return r, f, cols, back, bf

        def verify(out, expect=expect):
            if isinstance(out, Refused):
                return out.kind == expect
            if isinstance(expect, str):
                return False
            r, f, (q, fr, rp), back, bf = out
            ds = lambda xs: tuple(x.digits for x in xs)  # noqa: E731
            return (r.digits, ds(f.factors), ds(q), ds(fr), ds(rp), back.digits,
                    ds(bf.factors)) == expect

        ops.append(Op(kind, _refusing(mm, run), verify))
    return ops


# --- corpus_replay ----------------------------------------------------------------

SYSTEM_NAMES = ("C", "W", "S", "L", "Lh")
#: steps per synthetic tablet; the histogram is fixed, the contents seeded
TABLET_LENGTHS = (1,) * 8 + (2,) * 8 + (3,) * 8 + (5,) * 6 + (8,) * 6 + (12,) * 4 + (20,) * 4 + (30,) * 3 + (40,) * 3
MAX_DIGITS = 6
_OP_WEIGHTS = (("mul", 3), ("recip", 2), ("divrecip", 2), ("half", 1),
               ("square", 1), ("sqrt", 1), ("add", 2), ("sub", 2))


def _shipped_corpus(root: Path) -> list[tuple[str, str | None]]:
    """(file, configuration) for each shipped tablet and configuration."""
    out = []
    for path in sorted((root / "src" / "mesomath" / "corpus").glob("*.tab")):
        configs = re.findall(r"^config\s+(\S+):", path.read_text(encoding="utf-8"), re.M)
        out.extend((str(path), c) for c in configs or [None])
    return out


def _short_rows(system: str) -> list:
    """Ladder rows whose numbers have at most two digits."""
    return [t for t in O.LADDERS[system] if len(O.digits(O.number_of(system, t))) <= 2]


class _Tablet:
    """One synthetic tablet under construction, evaluated by the oracle."""

    def __init__(self, rng: random.Random, name: str):
        self.rng = rng
        self.lines = [f'tablet "{name}"']
        self.values: dict[str, tuple[Fraction, int]] = {}  # name -> (value under A, degree)
        self.givens: list[tuple[str, int, int, int]] = []  # name, digits, exponent, degree
        # one per printed record: (name, "given" | "final") or
        # (name, "step", factors or None) or (name, "reading", terms)
        self.records: list = []
        self.order: list[str] = []

    def given(self, idx: int):
        rng = self.rng
        system = rng.choice(SYSTEM_NAMES)
        terms = rng.choice(_short_rows(system))
        v = O.number_of(system, terms)
        name = f"g{idx}"
        deg = rng.choice((0, 1, 1, 2))
        e = rng.randint(-2, 2)
        self.givens.append((name, v, e, deg))
        self.values[name] = (O.anchored(v, e), deg)
        self.order.append(name)
        meas = O.text(terms, ascii=rng.random() < 0.5)
        self.lines.append(f'given {system} {name} "{meas}" expect {O.show(v)}')
        self.records.append((name, "given"))

    def configs(self, count: int):
        ks = [0] + self.rng.sample((-2, -1, 1, 2), count - 1)
        self.shifts = dict(zip("ABC", ks))
        for cname, k in self.shifts.items():
            parts = ", ".join(f"{n}=e{e + k * d}" for n, _, e, d in self.givens)
            self.lines.append(f"config {cname}: {parts}")

    def _pick(self):
        if self.rng.random() < 0.6:
            return self.order[-1]
        return self.rng.choice(self.order)

    def _try(self, op: str):
        """(args, value, degree, factors) for a feasible op, else None."""
        a = self._pick()
        qa, da = self.values[a]
        va = O.split(qa)[0]
        if op in ("mul", "divrecip", "add", "sub"):
            b = self.rng.choice(self.order)
            qb, db = self.values[b]
            vb = O.split(qb)[0]
        factors = None
        if op == "mul":
            res, deg, args = qa * qb, da + db, (a, b)
        elif op == "square":
            res, deg, args = qa * qa, 2 * da, (a,)
        elif op == "half":
            res, deg, args = qa / 2, da, (a,)
        elif op == "recip":
            if len(O.digits(va)) > 4 or not O.regular(va):
                return None
            factors = O.reciprocal(va)[1]
            res, deg, args = 1 / qa, -da, (a,)
        elif op == "divrecip":
            if len(O.digits(vb)) > 4 or not O.regular(vb):
                return None
            res, deg, args = qa / qb, da - db, (a, b)
        elif op == "sqrt":
            root = O.exact_sqrt(qa)
            if da % 2 or root is None:
                return None
            res, deg, args = root, da // 2, (a,)
        elif op == "add":
            if da != db:
                return None
            res, deg, args = qa + qb, da, (a, b)
        else:  # sub
            if da != db or qa <= qb:
                return None
            res, deg, args = qa - qb, da, (a, b)
        if len(O.digits(O.split(res)[0])) > MAX_DIGITS:
            return None
        return args, res, deg, factors

    def step(self, idx: int):
        ops, weights = zip(*_OP_WEIGHTS)
        for _ in range(200):
            op = self.rng.choices(ops, weights)[0]
            got = self._try(op)
            if got is not None:
                break
        else:  # halving the shortest value always succeeds
            a = min(self.order, key=lambda n: O.split(self.values[n][0])[0])
            op, got = "half", ((a,), self.values[a][0] / 2, self.values[a][1], None)
        args, res, deg, factors = got
        name = f"s{idx}"
        self.values[name] = (res, deg)
        self.order.append(name)
        self.lines.append(
            f"step {op} {' '.join(args)} expect {O.show(O.split(res)[0])} as {name}"
        )
        self.records.append((name, "step", factors))

    def answers(self):
        rng = self.rng
        last = self.order[-1]
        v = O.split(self.values[last][0])[0]
        system = rng.choice(SYSTEM_NAMES)
        reading = rng.choice(O.enumerate_readings(system, v, 3))
        q = O.magnitude(system, reading)
        hi = q * 2 if O.spell(system, q * 2) is not None else q
        if O.from_window(system, v, q, hi) != reading:
            raise AssertionError(f"window around {O.text(reading)} is not unique")
        asc = rng.random() < 0.5
        lo_t, hi_t = O.text(reading, asc), O.text(O.spell(system, hi), asc)
        self.lines.append(
            f'answer {last} {system} window "{lo_t}".."{hi_t}" expect "{O.text(reading, asc)}"'
        )
        self.records.append((last, "reading", reading))
        if len(self.order) > 1 and rng.random() < 0.3:
            other = rng.choice(self.order[:-1])
            self.lines.append(f"answer {other}")
            self.records.append((other, "final"))

    def expected(self, cname: str) -> tuple[list[str], list[str]]:
        """Computed values and factor lines ``mesomath run`` must print."""
        k = self.shifts[cname]
        computed, factor_lines = [], []
        for rec in self.records:
            name, kind = rec[0], rec[1]
            q, d = self.values[name]
            if kind == "reading":
                computed.append(O.text(rec[2]))
                continue
            computed.append(O.show_anchored(q * Fraction(60) ** (k * d)))
            if kind == "step" and rec[2] is not None:
                factor_lines.append(" ".join(O.show(f) for f in rec[2]))
        return computed, factor_lines


def synth_tablet(rng: random.Random, name: str, steps: int, configs: int) -> _Tablet:
    t = _Tablet(rng, name)
    for i in range(rng.randint(2, 4)):
        t.given(i)
    t.configs(configs)
    for i in range(1, steps + 1):
        t.step(i)
    t.answers()
    return t


def gen_corpus_replay(seed: int, root: Path) -> Plan:
    rng = random.Random(seed)
    cases = [("shipped", path, config, None) for path, config in _shipped_corpus(root)]
    lengths, configs = [], []
    for i, steps in enumerate(TABLET_LENGTHS):
        # 1 + i % 3 configurations, so a pass has the same size for every seed
        t = synth_tablet(rng, f"synthetic {seed}-{i}", steps, 1 + i % 3)
        text = "\n".join(t.lines) + "\n"
        for cname in t.shifts:
            cases.append(("synthetic", f"syn{i:03d}.tab", cname, (text, t.expected(cname))))
        lengths.append(steps)
        configs.append(len(t.shifts))
    rng.shuffle(cases)
    return Plan(cases, {
        "ops_per_pass": _hist(c[0] for c in cases),
        "tablet_lengths": _hist(lengths),
        "configs_per_tablet": _hist(configs),
    })


def _verify_run_output(out, expect) -> bool:
    code, text = out
    lines = text.splitlines()
    if code != 0 or not lines or lines[-1] != "PASS":
        return False
    if expect is None:
        return True
    computed, factor_lines = [], []
    for line in lines[1:-1]:
        body = line.strip()
        if body.startswith("factors:"):
            factor_lines.append(body[len("factors:"):].strip())
        else:
            computed.append(line.split(" -> ", 1)[1].split("  [", 1)[0])
    return (computed, factor_lines) == expect


def bind_corpus_replay(plan: Plan, mm, workdir: Path) -> list[Op]:
    cli = mm.cli
    ops = []
    for kind, path, config, synth in plan.cases:
        if synth is not None:
            target = workdir / path
            if not target.exists():
                target.write_text(synth[0], encoding="utf-8")
            path = str(target)
        argv = ["run", path] + (["--config", config] if config else [])

        def run(argv=argv):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            return code, out.getvalue()

        expect = None if synth is None else synth[1]
        ops.append(Op(kind, run, _memo_check(lambda out, e=expect: _verify_run_output(out, e))))
    return ops


# --- metrology_tables -------------------------------------------------------------

METRO_RANGES_PER_SYSTEM = 16
CONVERSIONS = 120
WINDOW_READS = 80
ANCHOR_READS = 40
ENUMERATIONS = 40
ENUM_SPAN = 4


def _random_measurement(rng: random.Random, system: str):
    units = O.SYSTEMS[system][0]
    picks = sorted(rng.sample(range(len(units)), rng.randint(1, min(3, len(units)))))
    terms = []
    for i in picks:
        whole = rng.randint(0, 59 if i == 0 else 9)
        frac = rng.choice(O.ALL_FRACTIONS) if rng.random() < 0.3 else Fraction(0)
        if not whole and not frac:
            whole = 1
        terms.append((units[i][0], whole, frac))
    return tuple(terms)


def _lines_of(text: str, fmt: str) -> list[list[str]]:
    """Rows of a formatted two-column table, split into (left, right)."""
    rows = text.splitlines()
    if fmt == "csv":
        return [r[-2:] for r in csv.reader(rows[1:])]
    return [[r.rsplit(None, 1)[0].strip(), r.rsplit(None, 1)[1]] for r in rows]


def _window_case(rng: random.Random, system: str, v: int):
    reading = rng.choice(O.enumerate_readings(system, v, 3))
    q = O.magnitude(system, reading)
    kind = rng.choice(("one", "one", "zero", "two"))
    bounds = {"one": (q, q * 2), "zero": (q * 2, q * 30), "two": (q, q * 60)}[kind]
    if any(O.spell(system, b) is None for b in bounds):
        bounds = (q, q)
    try:
        expect = O.text(O.from_window(system, v, *bounds))
    except O.Refusal as e:
        expect = Refused(e.kind)
    lo, hi = (O.text(O.spell(system, b)) for b in bounds)
    return ("from_window", system, v, lo, hi, expect)


def _anchor_case(rng: random.Random, system: str, terms):
    v, e = O.split(O.magnitude(system, terms) * O.SYSTEMS[system][1])
    exponent = e + O.SYSTEMS[system][2] + rng.choice((0, 0, 0, -1, 1, -2))
    try:
        expect = O.text(O.from_anchor(system, v, exponent))
    except O.Refusal as refusal:
        expect = Refused(refusal.kind)
    return ("from_anchor", system, v, exponent, expect)


def gen_metrology_tables(seed: int) -> Plan:
    rng = random.Random(seed)
    cases = [("curriculum",)]
    cases.append(("recip_table", rng.choice(("text", "csv"))))
    cases += [("mult_table", h, rng.choice(("text", "csv"))) for h in O.HEADS]
    cases += [("squares", rng.choice(("text", "csv"))), ("square_roots",), ("cube_roots",)]
    for system in SYSTEM_NAMES:
        ladder = O.LADDERS[system]
        n = len(ladder)
        for i in range(METRO_RANGES_PER_SYSTEM):
            # stops spread over the ladder and ranges of about half the stop,
            # so every seed has the same mix of long and short tables
            stop = rng.randrange(i * n // METRO_RANGES_PER_SYSTEM, (i + 1) * n // METRO_RANGES_PER_SYSTEM)
            start = rng.randrange(stop * 3 // 8, stop * 5 // 8 + 1)
            lo, hi = (O.magnitude(system, ladder[j]) for j in (start, stop))
            rows = [(O.text(t), O.show(v)) for t, v in O.table_rows(system, lo, hi)]
            cases.append(("metro_table", system, O.text(ladder[start], True),
                          O.text(ladder[stop], True), rng.choice(("text", "csv")), rows))
    for _ in range(CONVERSIONS):
        system = rng.choice(SYSTEM_NAMES)
        terms = _random_measurement(rng, system)
        cases.append(("to_number", system, O.text(terms, rng.random() < 0.5),
                      O.digits(O.number_of(system, terms))))

    def number(system):
        return O.number_of(system, rng.choice(O.LADDERS[system]))

    for _ in range(WINDOW_READS):
        system = rng.choice(SYSTEM_NAMES)
        cases.append(_window_case(rng, system, number(rng.choice(SYSTEM_NAMES))))
    for _ in range(ANCHOR_READS):
        system = rng.choice(SYSTEM_NAMES)
        cases.append(_anchor_case(rng, system, rng.choice(O.LADDERS[system])))
    for _ in range(ENUMERATIONS):
        system = rng.choice(SYSTEM_NAMES)
        v = number(rng.choice(SYSTEM_NAMES))
        cases.append(("readings", system, v,
                      [O.text(t) for t in O.enumerate_readings(system, v, ENUM_SPAN)]))
    rng.shuffle(cases)
    reverse = [c for c in cases if c[0] in ("from_window", "from_anchor", "readings")]
    return Plan(cases, {
        "ops_per_pass": _hist(c[0] for c in cases),
        "reverse_digit_lengths": _hist(len(O.digits(c[2])) for c in reverse),
        "predicted_refusals": _hist(c[-1].kind for c in cases if isinstance(c[-1], Refused)),
        "table_rows": _hist(len(c[-1]) for c in cases if c[0] == "metro_table"),
    })


def _curriculum_expect():
    return (["reciprocal"] + [("multiplication", O.digits(h)) for h in O.HEADS]
            + ["squares", "square-roots", "cube-roots"])


def bind_metrology_tables(plan: Plan, mm, workdir) -> list[Op]:
    tables, metro, textio = mm.tables, mm.metrology, mm.textio
    FN = mm.spvn.FloatingNumber
    ops = []
    for case in plan.cases:
        kind = case[0]
        if kind == "curriculum":
            call = tables.curriculum

            def verify(out):
                got = [e.kind if e.head is None else (e.kind, e.head.digits) for e in out]
                return got == _curriculum_expect()
        elif kind == "recip_table":
            fmt = case[1]

            def call(fmt=fmt):
                t = tables.gen_reciprocal_table()
                return t, tables.format_reciprocal_table(t, fmt)

            def verify(out, fmt=fmt):
                t, text = out
                want = [(O.show(e), O.show(r)) for e, r in O.STANDARD_PAIRS]
                return ([(str(e), str(r)) for e, r in t.pairs] == want
                        and _lines_of(text, fmt) == [list(p) for p in want])
        elif kind == "mult_table":
            head, fmt = FN(O.digits(case[1])), case[2]

            def call(head=head, fmt=fmt):
                t = tables.gen_multiplication_table(head)
                return t, tables.format_multiplication_table(t, fmt)

            def verify(out, h=case[1], fmt=fmt):
                t, text = out
                want = [(m, O.digits(p)) for m, p in O.multiplication_rows(h)]
                return ([(m, p.digits) for m, p in t.rows] == want
                        and _lines_of(text, fmt) == [[str(m), O.show(O.from_digits(p))] for m, p in want])
        elif kind == "squares":
            fmt = case[1]

            def call(fmt=fmt):
                return tables.gen_squares_table(), tables.format_squares_table(fmt)

            def verify(out, fmt=fmt):
                rows, text = out
                want = [(n, O.show(s)) for n, s in O.power_rows(2)]
                return ([(n, str(s)) for n, s in rows] == want
                        and _lines_of(text, fmt) == [[str(n), s] for n, s in want])
        elif kind in ("square_roots", "cube_roots"):
            power = 2 if kind == "square_roots" else 3
            call = tables.gen_square_roots_table if power == 2 else tables.gen_cube_roots_table

            def verify(out, power=power):
                return [(s.digits, n) for s, n in out] == [
                    (O.digits(s), n) for n, s in O.power_rows(power)]
        elif kind == "metro_table":
            _, system, start, stop, fmt, rows = case
            start_m = textio.parse_measurement(start, system)
            stop_m = textio.parse_measurement(stop, system)

            def call(system=system, a=start_m, b=stop_m, fmt=fmt):
                t = metro.gen_metrological_table(system, a, b)
                return t, metro.format_metrological_table(t, fmt)

            def verify(out, rows=rows, fmt=fmt):
                t, text = out
                return ([(str(m), str(n)) for m, n in t.rows] == rows
                        and _lines_of(text, fmt) == [list(r) for r in rows])
        elif kind == "to_number":
            _, system, text, want = case

            def call(system=system, text=text):
                return metro.to_number(textio.parse_measurement(text, system))

            def verify(out, want=want):
                return out.digits == want
        elif kind == "from_window":
            _, system, v, lo, hi, want = case
            n = FN(O.digits(v))
            window = metro.Window(textio.parse_measurement(lo, system),
                                  textio.parse_measurement(hi, system))

            def call(n=n, system=system, window=window):
                return metro.from_number(n, system, window)

            def verify(out, want=want):
                return out == want if isinstance(want, Refused) else str(out) == want
        elif kind == "from_anchor":
            _, system, v, exponent, want = case
            n = FN(O.digits(v))
            hint = metro.AnchorHint(exponent)

            def call(n=n, system=system, hint=hint):
                return metro.from_number(n, system, hint)

            def verify(out, want=want):
                return out == want if isinstance(want, Refused) else str(out) == want
        elif kind == "readings":
            _, system, v, want = case
            n = FN(O.digits(v))

            def call(n=n, system=system):
                return metro.enumerate_readings(n, system, ENUM_SPAN)

            def verify(out, want=want):
                return [str(m) for m in out] == want
        else:
            raise ValueError(f"unknown case {kind!r}")
        ops.append(Op(kind, _refusing(mm, call), _memo_check(verify)))
    return ops


WORKLOADS = {
    "recip_sweep": (lambda seed, root: gen_recip_sweep(seed), bind_recip_sweep),
    "corpus_replay": (gen_corpus_replay, bind_corpus_replay),
    "metrology_tables": (lambda seed, root: gen_metrology_tables(seed), bind_metrology_tables),
}
