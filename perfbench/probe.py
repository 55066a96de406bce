"""Set-up probe: time ``import symsq`` plus one warm-up item in a fresh process.

Run by ``run.py`` several times per run.  The benchmark's own input
generation is timed separately and subtracted.  Import is interpreter
work, so the time is scaled by the interpreter reference loop timed
right afterwards, as throughput is; both figures are printed:
``{"setup_s": scaled, "raw_setup_s": as measured}``.

    python3 perfbench/probe.py --workload pair_verdicts --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter

import common


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    common.pin_threads()
    common.add_src_path()

    t0 = perf_counter()
    import workloads  # imports NumPy and every symsq module the workloads call

    t_gen = perf_counter()
    work = workloads.make(args.workload, Path(args.workdir))
    item = next(work.stream(args.seed))
    gen_s = perf_counter() - t_gen
    outcome = work.run(work.functions, item)
    setup_s = perf_counter() - t0 - gen_s

    problems = work.check(item, outcome.output)[0]
    if problems:
        print(f"warm-up item failed its check: {problems[0]}", file=sys.stderr)
        return 1
    import reference

    factor = reference.reference_seconds("interpreter") / reference.REFERENCE_SECONDS["interpreter"]
    print(json.dumps({"setup_s": setup_s / factor, "raw_setup_s": setup_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
