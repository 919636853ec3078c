"""Run one workload of the dynorient benchmark and print its metrics.

    python3 perfbench/run.py --workload churn-fast --seed 1 --seconds 40 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` and
the metric names and units are read from ``BENCHMARK.json``.  Diagnostics go
to stderr; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  The exit
code is 0 only for a run whose every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dynorient" / "__init__.py").is_file():
        print(f"error: no dynorient package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"workload {args.workload}, seed {args.seed}, trace {args.trace}",
          file=sys.stderr)
    result = bench.run(bench.WORKLOADS[args.workload], args.seed,
                       args.seconds, bool(args.trace))
    fp = result.fingerprint
    print(f"digests: events {fp['events']}, queries {fp['queries']}, "
          f"state {fp['state']}", file=sys.stderr)
    for failure in result.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": result.metrics.get(m["name"]),
                           "unit": m["unit"]} for m in declared}
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
