"""Run every workload over several seeds and print the run-to-run spread.

    python3 perfbench/series.py --out results.jsonl --seeds 1-10
    python3 perfbench/series.py --out traced.jsonl --seeds 1-3 --trace 1

Each run is a fresh ``run.py`` process, measuring for BENCHMARK.json's
``run_seconds``, that appends its full result to ``--out``; the summary
is ``compare.py``'s one-set table.  Two such files, one per commit, are
what ``compare.py`` compares.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import common
import compare

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default=f"{common.DEFAULT_SEED}")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    args = parser.parse_args(argv)
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = str(spec["run_seconds"])

    status = 0
    for seed in seed_list(args.seeds):
        for workload in common.WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", seconds, "--trace", args.trace,
                 "--record", args.out],
                capture_output=True, text=True, timeout=600, check=False)
            last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
            print(f"{workload} seed {seed}: exit {proc.returncode} {last[0][:100]}",
                  file=sys.stderr)
            if proc.returncode != 0:
                status = 1
                print(proc.stdout + proc.stderr, file=sys.stderr)
    compare.print_table(compare.summarize(args.out))
    return status


if __name__ == "__main__":
    sys.exit(main())
