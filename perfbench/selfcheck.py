"""Self-check of the benchmark harness at toy size (a few seconds).

    python3 perfbench/selfcheck.py

Runs every workload at toy size with tracing off and on, and fails unless
each run is correct and emits exactly the metrics BENCHMARK.json names, each
with its unit.  Also checks the independent triangulation counter against
the Catalan numbers, the triangulation counts of points in convex position.
"""

import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import harness
    from oracles import count_triangulations

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for n in range(4, 10):
        ang = np.sort(np.random.default_rng(n).random(n)) * 2.0 * np.pi
        got = count_triangulations(np.c_[np.cos(ang), np.sin(ang)])
        if got != math.comb(2 * n - 4, n - 2) // (n - 1):
            problems.append(f"convex {n}-gon: {got} triangulations")
    for w in spec["workloads"]:
        for trace in (0, 1):
            result, info = harness.measure(w["name"], 7, 0.0, bool(trace), time.perf_counter(), size_name="toy")
            label = f"{w['name']} trace={trace}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: not correct: {info['errors']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                problems.append(f"{label}: metrics {got} != {expected[trace]}")
            json.dumps(result, allow_nan=False)
            print(f"{label}: {result['attempted']} checks, {len(got)} metrics")
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
