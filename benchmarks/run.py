"""mesomath benchmark: one workload, one seed, one JSON result line.

    python3 benchmarks/run.py --workload recip_sweep --seed 1 --seconds 30 --trace 0

mesomath is imported from ``src/`` of the checkout that holds this file.
With ``--trace 0`` the set-up is timed in several fresh interpreters and
the workload runs untraced in another; the result carries the
``end_to_end`` metrics of ``BENCHMARK.json``.  With ``--trace 1`` the
workload process also runs traced passes and the result carries the
``per_layer`` metrics.  Names and units come from ``BENCHMARK.json``.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the full report (seed, operation
counts, input histograms, tail percentile, failures).  The exit code is
1 when any output disagreed with the oracle, 2 when the checkout has no
mesomath sources.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("recip_sweep", "corpus_replay", "metrology_tables")
#: set-up probes, half before the workload process and half after, so
#: one run samples the host at two moments
SETUP_RUNS = 21
#: a run must end within 180 s; the timed phase takes --seconds of them
CHILD_TIMEOUT_S = 100


def _child(args: list[str], seconds: float) -> str:
    done = subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
        timeout=seconds + CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{args[0]} exited with {done.returncode}")
    return done.stdout.strip().splitlines()[-1]


def _median(xs):
    s = sorted(xs)
    n = len(s)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    if not (ROOT / "src" / "mesomath" / "__init__.py").is_file():
        sys.stderr.write(f"no mesomath sources under {ROOT / 'src'}\n")
        return 2

    def probe_setup(count: int) -> list[float]:
        if a.trace:
            return []
        probe = [str(HERE / "setup_probe.py"), str(ROOT), a.workload]
        return [float(_child(probe, 0)) for _ in range(count)]

    setups = probe_setup(SETUP_RUNS // 2 + 1)
    res = json.loads(_child(
        [str(HERE / "worker.py"), "--root", str(ROOT), "--workload", a.workload,
         "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)],
        a.seconds,
    ))
    setups += probe_setup(SETUP_RUNS // 2)

    if a.trace:
        values = res.pop("per_layer")
    else:
        values = dict(res, setup_s=_median(setups))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if a.trace else "end_to_end"]
    }
    report = dict(res)
    report.update({
        "failed_ops_ratio": res["failed"] / res["attempted"],
        "setup_runs_s": setups,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "processor": platform.processor() or platform.uname().machine,
    })
    print(json.dumps({"report": report}, ensure_ascii=False))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0 if res["failed"] == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
