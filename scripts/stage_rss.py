"""Peak RSS of one `leadalloc run`, read after each stage, in one process.

Usage, from the root of a checkout:

    python3 scripts/stage_rss.py --workload tracts2000 --seed 0

Writes the workload's seeded panel (perfbench/gen.py) to a temporary
directory, then runs ``cli.STAGES`` in table order, as ``run`` does, in a
fresh child process and prints the child's ``ru_maxrss`` in MB after the
imports, after parsing the panel and after each stage. A process's
high-water mark never falls, so each line is the peak up to the end of that
stage. The last line is one JSON object holding the same numbers.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# writes a workload's panel CSV and prints the workload's `leadalloc run` flags
WRITE_PANEL = """import sys, gen
workload = gen.WORKLOADS[sys.argv[1]]
gen.write_panel_csv(workload.panel, int(sys.argv[2]), sys.argv[3])
print(*workload.flags)"""


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KB on Linux


def measure(argv: list[str]) -> dict:
    """Run every stage on ``leadalloc run`` arguments; the peak after each."""
    from leadalloc import cli

    peaks = {"import": maxrss_mb()}
    config = cli.build_config(cli.build_parser().parse_args(argv))
    data = cli._load_panel(config)
    peaks["parse"] = maxrss_mb()
    for name, _ in cli._stages(config, data, *cli.STAGES):
        peaks[name] = maxrss_mb()
    return peaks


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tracts2000")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--measure", nargs=argparse.REMAINDER, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure is not None:  # the child, which has not loaded numpy or leadalloc yet
        sys.path.insert(0, str(ROOT / "src"))
        print(json.dumps(measure(args.measure)))
        return 0

    with tempfile.TemporaryDirectory() as tmp:
        panel_csv, out = Path(tmp) / "panel.csv", Path(tmp) / "out"
        # a child writes the panel: Linux charges a child's ru_maxrss with the
        # size of the process that starts it, so this one never loads numpy
        flags = subprocess.run(
            [sys.executable, "-c", WRITE_PANEL, args.workload, str(args.seed), str(panel_csv)],
            cwd=ROOT / "perfbench", check=True, capture_output=True, text=True, encoding="utf-8",
        ).stdout.split()
        child = subprocess.run(
            [sys.executable, __file__, "--measure", "run", "--input", str(panel_csv), "--out", str(out), *flags],
            check=True, capture_output=True, text=True, encoding="utf-8",
        )
    peaks = json.loads(child.stdout.splitlines()[-1])
    print(f"workload {args.workload} seed {args.seed}: max RSS (MB) at the end of each stage")
    for stage, mb in peaks.items():
        print(f"  {stage:<10} {mb:8.2f}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "maxrss_mb": peaks}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
