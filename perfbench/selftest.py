"""Self-test of the benchmark on tiny seeded inputs (about a minute).

    python3 perfbench/selftest.py

Runs every workload's code path with the TINY sizes, once per pass and
seed: seed 1 twice, which must reproduce fail_frac and sandwich_max
exactly, and seed 2 once, which must also pass its output checks. One
traced run per workload must report every per-layer metric named in
BENCHMARK.json, and each untraced run every end-to-end metric. Exits 1 on
the first mismatch.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    gated = {False: [m["name"] for m in spec["end_to_end"]], True: [m["name"] for m in spec["per_layer"]]}
    errors = []
    unknown = [w["name"] for w in spec["workloads"] if w["name"] not in run.WORKLOADS]
    if unknown:
        errors.append(f"BENCHMARK.json names workloads run.py lacks: {unknown}")
    for name, wl in run.WORKLOADS.items():
        first = run.run_workload(wl, 1, 0, False, run.TINY)
        again = run.run_workload(wl, 1, 0, False, run.TINY)
        other = run.run_workload(wl, 2, 0, False, run.TINY)
        traced = run.run_workload(wl, 1, 0, True, run.TINY)
        for label, res in (("seed 1", first), ("seed 1 again", again), ("seed 2", other), ("traced", traced)):
            if not res.correct:
                errors.append(f"{name} {label}: checks failed: {res.problems}")
        for key in ("fail_frac", "sandwich_max"):
            if key in first.info and first.info[key] != again.info[key]:
                errors.append(f"{name}: {key} {first.info[key]} != {again.info[key]} on a repeat")
        if first.info["fail_frac"] != traced.info["fail_frac"]:
            errors.append(f"{name}: tracing changed fail_frac")
        for res, trace in ((first, False), (traced, True)):
            missing = [g for g in gated[trace] if g not in res.metrics]
            if missing:
                errors.append(f"{name}: trace={int(trace)} run lacks {missing}")
        print(f"{name}: fail_frac {first.info['fail_frac'][0]} "
              f"sandwich_max {first.info.get('sandwich_max', ('-',))[0]} "
              f"seed-2 fail_frac {other.info['fail_frac'][0]}", flush=True)
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
