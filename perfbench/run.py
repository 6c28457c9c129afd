"""vorfunc benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload enum_scan --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
An untraced run also times the set-up in fresh processes of this script
with ``--setup-only``, one at a time after the timed phase.
Prints an environment/info line, then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}``: end-to-end metrics with
``--trace 0``, per-module metrics with ``--trace 1`` (spans are written to
``perfbench/out/``).  Exits 2 without a result when the package is missing.
See perfbench/DESIGN.md for the workloads, oracles and metric predictions.
"""

import time

START = time.perf_counter()

import os

# Keep BLAS and OpenMP pools to one thread before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("enum_scan", "field_mc", "large_n"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full")
    parser.add_argument("--setup-only", action="store_true", help="print the set-up time only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "vorfunc" / "__init__.py").is_file():
        print(f"error: no vorfunc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness

    if args.setup_only:
        print(json.dumps({"setup_s": harness.set_up(args.workload, args.seed, START, args.size)[2]}))
        return 0
    result, info = harness.measure(
        args.workload, args.seed, args.seconds, bool(args.trace), START, args.size, ROOT / "perfbench" / "out"
    )
    info["start_to_result_s"] = time.perf_counter() - START
    for err in info["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(json.dumps({"env": harness.environment(), "info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
