"""Benchmark for `leadalloc run` on seeded synthetic panels.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload uhf42 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --all          # every workload, untraced then traced

With ``--trace 0`` the program runs as a subprocess, exactly as the
``leadalloc`` console script starts it, back to back in a closed loop with
one pipeline at a time. The benchmark reports the median whole-process
time, the child's peak RSS, panel cells per second and the start-up cost of
``import leadalloc.cli``. With ``--trace 1`` it alternates those subprocess
runs with in-process calls of ``leadalloc.cli.main`` that put a span around
every call cmd_run makes into a leadalloc module, and reports per-layer
times and counts instead.

Every run's artifacts are checked (see check.py). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. Spans, samples and host facts go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import gen

SRC = Path(__file__).resolve().parent.parent / "src"
DEFAULT_SEED = 0
DEFAULT_SECONDS = 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--all", action="store_true", help="run every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "leadalloc" / "cli.py").is_file():
        print(f"no leadalloc sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    print(f"host {json.dumps(harness.host_facts(), sort_keys=True)}")
    if not args.all:
        result = harness.run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in gen.WORKLOADS:
        for trace in (False, True):
            result = harness.run_one(name, args.seed, args.seconds, trace)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
