"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload gen-110k|report-1m|serve-live \\
        --seed N --seconds S --trace 0|1

Prints each measured metric by name, unit and sample count, then as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones (layers a
workload does not run report 0).  Exits non-zero when an output check
fails, and without a result when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_common  # noqa: E402
from bench_common import ROOT, BenchError  # noqa: E402


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    try:
        bench_common.require_source()
        if args.workload == "gen-110k":
            import gen_110k as workload
        elif args.workload == "report-1m":
            import report_1m as workload
        else:
            import serve_live as workload
        result = workload.run(args.seed, args.seconds, traced=bool(args.trace))
        metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
        result.emit(metrics, zero_missing=bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    return 0 if not result.failures else 1


if __name__ == "__main__":
    sys.exit(main())
