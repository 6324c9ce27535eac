"""Span tracer that wraps mesomath's public functions from outside.

Every public module-level function and public method of each layer
module is replaced by a wrapper that records a span: name, start, end,
parent span and the benchmark operation it belongs to.  A function is
replaced under every module name it is bound to (``recip.to_integer`` as
well as ``spvn.to_integer``), so calls between layers are seen however
the caller imported the function.  Class constructors, properties and
private helpers are not wrapped; their time counts towards the span
that called them.

Spans stay in flat arrays in memory and are written out by ``dump``.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import io
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ("textio", "spvn", "recip", "tables", "metrology", "abacus", "procedures", "cli")

ROOT = "bench.op"

#: anchored arithmetic counted as abacus.ops
ABACUS_OPS = ("add", "sub", "mul_anchored", "half", "recip_anchored", "sqrt_anchored")
TEXTIO_PARSERS = ("parse_spvn", "parse_anchored", "parse_measurement")
#: gen_reciprocal_table is a memoised lookup that recip consults on every
#: call, so its 27 rows are not counted as generated.
ROW_GENERATORS = ("gen_multiplication_table", "gen_squares_table",
                  "gen_square_roots_table", "gen_cube_roots_table")


def _rows(result):
    return len(result.rows) if hasattr(result, "rows") else len(result)


def _stdout_len():
    out = sys.stdout
    return len(out.getvalue().encode()) if isinstance(out, io.StringIO) else 0


# name -> (counter, before(args) -> state | None, after(state, args, result) -> int)
_HOOKS = {
    "spvn.to_integer": ("spvn.digits_converted", None, lambda s, a, r: len(a[0])),
    "spvn.from_integer": ("spvn.digits_converted", None, lambda s, a, r: len(r)),
    "recip.trailing_candidates": ("recip.candidates", None, lambda s, a, r: len(r)),
    "recip.reciprocal": ("recip.factors_peeled", None, lambda s, a, r: len(r[1].factors) - 1),
    "procedures.run": ("procedures.steps_replayed", None, lambda s, a, r: len(a[0].steps)),
    "metrology.from_number": ("metrology.from_number.hits", None, lambda s, a, r: 1),
    "metrology.enumerate_readings": ("metrology.enumerate_readings.returned", None,
                                     lambda s, a, r: len(r)),
    "cli.main": ("cli.stdout_bytes", lambda a: _stdout_len(), lambda s, a, r: _stdout_len() - s),
}
for _g in ROW_GENERATORS:
    _HOOKS[f"tables.{_g}"] = ("tables.rows_generated", None, lambda s, a, r: _rows(r))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, counters = self.start, self.end, self.stack, self.counters
        tracer = self
        counter, before, after = _HOOKS.get(name, (None, None, None))

        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op_id)
            ends.append(0)
            stack.append(i)
            state = before(args) if before else None
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter_ns()
                stack.pop()
            if counter:
                counters[counter] += after(state, args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        """Wrap every layer's public functions wherever they are bound."""
        import importlib

        mods = {layer: importlib.import_module(f"mesomath.{layer}") for layer in LAYERS}
        wrapped: dict[int, tuple[object, object]] = {}
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if callable(val) and not inspect.isclass(val) and getattr(
                    val, "__module__", None
                ) == mod.__name__:
                    wrapped[id(val)] = (val, self._wrap(val, f"{layer}.{attr}"))
                elif inspect.isclass(val) and val.__module__ == mod.__name__:
                    for mname, meth in list(vars(val).items()):
                        if mname.startswith("_") or not inspect.isfunction(meth):
                            continue
                        w = self._wrap(meth, f"{layer}.{val.__name__}.{mname}")
                        self._patched.append((val, mname, meth))
                        setattr(val, mname, w)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "mesomath" or modname.startswith("mesomath.")):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, val in reversed(self._patched):
            setattr(owner, attr, val)
        self._patched.clear()

    def begin_op(self, op_id: int) -> int:
        """Open the root span of one benchmark operation."""
        self.op_id = op_id
        i = len(self.span_name)
        self.span_name.append(self._name_id(ROOT))
        self.span_parent.append(-1)
        self.span_op.append(op_id)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def end_op(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self.stack.pop()

    def self_times(self) -> tuple[Counter, Counter]:
        """Self time in ns, by layer and by span name.

        A span's self time is its duration minus its children's
        durations; the root span's self time is the benchmark's own.
        """
        n = len(self.span_name)
        dur = array("q", (e - s for s, e in zip(self.start, self.end)))
        child = array("q", bytes(8 * n))
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += dur[i]
        by_name: Counter = Counter()
        for i, nid in enumerate(self.span_name):
            by_name[nid] += dur[i] - child[i]
        named = Counter({self.names[k]: v for k, v in by_name.items()})
        by_layer: Counter = Counter()
        for name, v in named.items():
            by_layer[name.split(".", 1)[0]] += v
        return by_layer, named

    def calls(self) -> Counter:
        c = Counter(self.span_name)
        return Counter({self.names[k]: v for k, v in c.items()})

    def dump(self, path) -> int:
        """Write spans as gzipped CSV: op, name, parent, start_ns, end_ns."""
        t0 = self.start[0] if len(self.start) else 0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("op,name,parent,start_ns,end_ns\n")
            for i in range(len(self.span_name)):
                f.write(
                    f"{self.span_op[i]},{self.names[self.span_name[i]]},"
                    f"{self.span_parent[i]},{self.start[i] - t0},{self.end[i] - t0}\n"
                )
        return len(self.span_name)


def summarize(tracer: Tracer, passes: int) -> dict:
    """Per-layer metrics per pass over the workload's inputs.

    Counts are exact: every pass runs the same inputs.  Times are seconds
    of self time per pass.
    """
    by_layer, by_name = tracer.self_times()
    calls = tracer.calls()
    c = tracer.counters
    per = lambda v: v / passes  # noqa: E731
    sec = lambda ns: ns / 1e9 / passes  # noqa: E731
    from_calls = calls["metrology.from_number"]
    return {
        "spvn.mul.calls": per(calls["spvn.mul"]),
        "spvn.to_integer.calls": per(calls["spvn.to_integer"]),
        "spvn.from_integer.calls": per(calls["spvn.from_integer"]),
        "spvn.digits_converted": per(c["spvn.digits_converted"]),
        "spvn.self_s": sec(by_layer["spvn"]),
        "recip.reciprocal.calls": per(calls["recip.reciprocal"]),
        "recip.trailing_candidates.calls": per(calls["recip.trailing_candidates"]),
        "recip.factors_peeled": per(c["recip.factors_peeled"]),
        "recip.self_s": sec(by_layer["recip"]),
        "recip.peel_yield": c["recip.factors_peeled"] / c["recip.candidates"]
        if c["recip.candidates"] else 0.0,
        "cli.main.calls": per(calls["cli.main"]),
        "cli.self_s": sec(by_layer["cli"]),
        "cli.stdout_bytes": per(c["cli.stdout_bytes"]),
        "procedures.parse_script.self_s": sec(by_name["procedures.parse_script"]),
        "procedures.run.self_s": sec(by_name["procedures.run"]),
        "procedures.steps_replayed": per(c["procedures.steps_replayed"]),
        "textio.parse_calls": per(sum(calls[f"textio.{p}"] for p in TEXTIO_PARSERS)),
        "textio.self_s": sec(by_layer["textio"]),
        "abacus.ops": per(sum(calls[f"abacus.{p}"] for p in ABACUS_OPS)),
        "abacus.self_s": sec(by_layer["abacus"]),
        "metrology.to_number.calls": per(calls["metrology.to_number"]),
        "metrology.from_number.calls": per(from_calls),
        "metrology.enumerate_readings.calls": per(calls["metrology.enumerate_readings"]),
        "metrology.readings_returned": per(
            c["metrology.from_number.hits"] + c["metrology.enumerate_readings.returned"]),
        "metrology.self_s": sec(by_layer["metrology"]),
        "metrology.reading_hit_ratio": c["metrology.from_number.hits"] / from_calls
        if from_calls else 0.0,
        "tables.rows_generated": per(c["tables.rows_generated"]),
        "tables.self_s": sec(by_layer["tables"]),
        "trace.pass_s": sec(sum(by_layer.values())),
    }
