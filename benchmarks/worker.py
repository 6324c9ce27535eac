"""One workload run in a fresh interpreter.

The worker generates the workload's inputs, warms up with one untimed
pass, then runs whole passes over the inputs until ``--seconds`` have
passed.  One caller, closed loop, no threads: each operation starts
when the previous one has been checked.

Every input runs once per pass, and its latency is the fastest of its
passes.  The host's CPU speed drifts by tens of percent over seconds;
an input's fastest pass is what the program costs, the rest is the
host.  Throughput is inputs per pass over the sum of those latencies;
the median and the tail are percentiles over the inputs.  The tail is
the highest percentile of ``TAIL_LADDER`` with at least ten inputs above
it, so it depends only on the number of inputs per pass.

With ``--trace 1`` half the time is an untraced run and the rest traced
passes, up to ``SPAN_CAP`` spans; the spans go to
``.bench_out/spans-<workload>.csv.gz``.

Prints one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent

TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_PASSES = 3
#: traced passes stop once this many spans are held (one recip_sweep
#: pass makes about 2.8 million)
SPAN_CAP = 1_000_000


def _import_mesomath(root: Path):
    sys.path.insert(0, str(root / "src"))
    from mesomath import abacus, cli, errors, metrology, procedures, recip, spvn, tables, textio

    tables.gen_reciprocal_table()
    return argparse.Namespace(
        abacus=abacus, cli=cli, errors=errors, metrology=metrology, procedures=procedures,
        recip=recip, spvn=spvn, tables=tables, textio=textio)


def _percentile(sorted_ns, pct: float) -> tuple[int, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    n = len(sorted_ns)
    rank = max(1, -(-int(pct * n) // 100))
    return sorted_ns[rank - 1], n - rank


def _passes(ops, seconds: float, min_passes: int, tracer=None):
    """Run whole passes; returns (fastest latency ns per input, passes, attempted, failures)."""
    fastest = [float("inf")] * len(ops)
    passes, failures = 0, []
    deadline = perf_counter() + seconds
    while True:
        for idx, op in enumerate(ops):
            span = tracer.begin_op(idx) if tracer else None
            t0 = perf_counter_ns()
            try:
                out = op.call()
            except Exception as e:  # an error the oracle did not predict
                out = e
            dt = perf_counter_ns() - t0
            if tracer:
                tracer.end_op(span)
            if dt < fastest[idx]:
                fastest[idx] = dt
            if isinstance(out, Exception) or not op.check(out):
                failures.append(f"{op.kind}#{idx}: {out!r}"[:300])
        passes += 1
        full = tracer is not None and len(tracer.span_name) >= SPAN_CAP
        if (full or perf_counter() >= deadline) and passes >= min_passes:
            return fastest, passes, passes * len(ops), failures


def _ops_per_s(fastest) -> float:
    return len(fastest) / (sum(fastest) / 1e9)


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(HERE))
    import workloads

    generate, bind = workloads.WORKLOADS[workload]
    plan = generate(seed, root)
    mm = _import_mesomath(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="tablets-", dir=out_dir))
    try:
        ops = bind(plan, mm, workdir)
        _passes(ops, 0, 1)  # warm-up: one untimed pass
        timed = seconds / 2 if trace else seconds
        fastest, passes, attempted, failures = _passes(ops, timed, MIN_PASSES)
        ops_per_s = _ops_per_s(fastest)
        result = {
            "workload": workload, "seed": seed, "ops_per_pass": len(ops),
            "passes": passes, "attempted": attempted, "failures": failures[:5],
            "failed": len(failures), "meta": plan.meta, "ops_per_s": ops_per_s,
        }
        if trace:
            result.update(_traced(ops, seconds - timed, ops_per_s, out_dir, workload))
            result["attempted"] += result.pop("traced_attempted")
            result["failed"] += len(result["traced_failures"])
            result["failures"] += result.pop("traced_failures")[:5]
        else:
            fastest.sort()
            pct = next(p for p in TAIL_LADDER if _percentile(fastest, p)[1] >= 10)
            tail, beyond = _percentile(fastest, pct)
            result.update({
                "op_p50_us": _percentile(fastest, 50.0)[0] / 1e3,
                "op_tail_us": tail / 1e3, "op_tail_pct": pct,
                "op_tail_samples_beyond": beyond,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            })
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _traced(ops, seconds, untraced_ops_per_s, out_dir: Path, workload: str) -> dict:
    import tracer as T

    tr = T.Tracer()
    tr.install()
    try:
        fastest, passes, attempted, failures = _passes(ops, seconds, 1, tr)
    finally:
        tr.uninstall()
    per_layer = T.summarize(tr, passes)
    per_layer["trace.overhead_ratio"] = untraced_ops_per_s / _ops_per_s(fastest)
    spans = tr.dump(out_dir / f"spans-{workload}.csv.gz")
    return {"per_layer": per_layer, "traced_passes": passes, "spans": spans,
            "traced_attempted": attempted, "traced_failures": failures}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    print(json.dumps(run(Path(a.root), a.workload, a.seed, a.seconds, bool(a.trace))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
