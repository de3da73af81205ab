"""Benchmark entry point. Run from the repository root:

    python3 bench/run.py --workload inpaint64 --seed 0 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The result and a run
manifest are also written under .bench_runs/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# One BLAS thread keeps timings comparable across machines and runs; the
# variables must be set before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def use_source_tree() -> None:
    """Import gpgd from the checkout's src/ with the pinned BLAS threads."""
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gpgd" / "__init__.py").is_file():
        print(f"error: no gpgd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    use_source_tree()
    import harness  # imports numpy, so only after the BLAS variables are set

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                         ROOT / ".bench_runs")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result["summary"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
