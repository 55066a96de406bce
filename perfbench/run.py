"""symsq benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload pair_verdicts --seed 1 --seconds 25 --trace 0

One caller sends each item only after the previous one returned.  Every
output is checked against an independent route right after its call,
outside the timed region.  With ``--trace 0`` the last stdout line holds
the end-to-end metrics; with ``--trace 1`` the run alternates untraced
and traced chunks, and the last line holds the per-layer metrics from
the traced chunks.  Exit code 1 means an item raised or failed
its check; 2 means the symsq sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import subprocess
import sys
import warnings
from contextlib import ExitStack, contextmanager
from pathlib import Path
from statistics import median
from time import perf_counter

import common
import reference
import spans

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 7
TRACE_ROUNDS = 5
MARK_SECONDS = 1.0
MAX_PROBLEMS_SHOWN = 5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "scaled_items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
COUNTERS = {  # per-layer counters besides the span timings
    "covariance.decided_frac": "frac",
    "collective.squeezing_defined_frac": "frac",
    "oracle.j_ops_hit_ratio": "frac",
    "models.fp_warnings": "count",
    "trace_overhead_frac": "frac",
}


def per_layer_units(workload_classes) -> dict:
    """Every per-layer metric name -> unit, in a fixed order."""
    units = {}
    for cls in workload_classes:
        for name in list(cls.functions) + list(cls.patched):
            if name == "models.sweep":
                units[f"{name}.us_per_row"] = "us"
            else:
                units[f"{name}.us"] = "us"
            units[f"{name}.calls"] = "count"
    units.update({f"{layer}.self_share": "frac" for layer in spans.LAYERS})
    units.update(COUNTERS)
    return units


class Feed:
    """The workload's input stream, shared by all windows of a run.

    Counts the inputs that recur (the same key as an earlier one in this
    run, the warm-up item included) and the call time spent on them.
    """

    def __init__(self, work, seed):
        self.key = work.key
        self.items = work.stream(seed)
        self.seen = set()
        self.drawn = 0
        self.repeated = 0
        self.repeated_seconds = 0.0

    def next(self):
        """(item, True if its input was seen before in this run)."""
        item = next(self.items)
        key = self.key(item)
        self.drawn += 1
        if key in self.seen:
            self.repeated += 1
            return item, True
        self.seen.add(key)
        return item, False


class Window:
    """Samples of one closed-loop measurement window."""

    def __init__(self, reference_kind: str = "interpreter"):
        self.reference_kind = reference_kind
        self.latencies = []   # seconds per sample
        self.items = []       # items each sample counts as
        self.marks = []       # (samples so far, reference loop seconds)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.decided = []
        self.squeezing_defined = []

    def record_failure(self, index, text):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS_SHOWN:
            self.problems.append(f"item {index}: {text}")

    def mark(self):
        self.marks.append((len(self.latencies),
                           reference.reference_seconds(self.reference_kind)))

    def segments(self):
        """(first sample, end sample, speed factor) between consecutive marks.

        The factor is the reference loop's time, averaged over the two
        marks, divided by its REFERENCE_SECONDS: above 1 on a slower stretch.
        """
        nominal = reference.REFERENCE_SECONDS[self.reference_kind]
        return [(lo, hi, (r0 + r1) / 2 / nominal)
                for (lo, r0), (hi, r1) in zip(self.marks, self.marks[1:]) if hi > lo]

    def throughput(self, scaled=True) -> float:
        """Items per second spent inside the calls.  Scaled, each sample's
        time is divided by its segment's speed factor first."""
        if not scaled:
            return sum(self.items) / sum(self.latencies)
        return sum(self.items) / sum(sum(self.latencies[lo:hi]) / factor
                                     for lo, hi, factor in self.segments())


def latency_figures(latencies) -> dict:
    """p50, and the tail: the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    tail_rank = max(1, n - 10)
    return {"samples": n,
            "latency_p50_ms": ordered[(n + 1) // 2 - 1] * 1e3,
            "latency_tail_ms": ordered[tail_rank - 1] * 1e3,
            "tail_rank": tail_rank,
            "tail_percentile": 100.0 * tail_rank / n}


def measure(work, api, feed: Feed, seconds, win: Window) -> None:
    """Closed loop for ``seconds`` over the next inputs of ``feed``.

    The reference loop is timed at the start, about every MARK_SECONDS
    between items, and at the end.
    """
    gc.collect()
    win.mark()
    deadline = perf_counter() + seconds
    next_mark = perf_counter() + MARK_SECONDS
    while (now := perf_counter()) < deadline:
        if now >= next_mark:
            win.mark()
            next_mark = perf_counter() + MARK_SECONDS
        index = win.attempted
        item, repeated = feed.next()
        win.attempted += 1
        t0 = perf_counter()
        try:
            outcome = work.run(api, item)
        except Exception as exc:  # an item that raises is a failed item; keep going
            win.record_failure(index, f"raised {type(exc).__name__}: {exc}")
            continue
        elapsed = perf_counter() - t0
        if repeated:
            feed.repeated_seconds += elapsed
        problems, decided, squeezing_defined = work.check(item, outcome.output)
        if problems:
            win.record_failure(index, "; ".join(problems))
        else:
            win.latencies.append(elapsed)
            win.items.append(outcome.items)
        if decided is not None:
            win.decided.append(decided)
        if squeezing_defined is not None:
            win.squeezing_defined.append(squeezing_defined)
    win.mark()


@contextmanager
def tracing(work, tracer):
    """Count RuntimeWarnings per open span and wrap the workload's patched attributes."""
    with warnings.catch_warnings(), ExitStack() as stack:
        warnings.simplefilter("always", RuntimeWarning)
        warnings.showwarning = tracer.on_warning
        for name, (module, attr) in work.patched.items():
            stack.enter_context(tracer.patch(module, attr, name))
        yield


def setup_seconds(workload: str, seed: int, workdir: Path) -> list:
    """Scaled and raw set-up times of SETUP_PROBES fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_metrics(work, window, tracer, untraced_rate, workloads_module) -> dict:
    recorded = tracer.spans
    per_fn = spans.per_function(recorded)
    units = per_layer_units(workloads_module.WORKLOADS.values())
    values = {k: 0 if u == "count" else 0.0 for k, u in units.items()}
    for name, (calls, med) in per_fn.items():
        values[f"{name}.calls"] = calls
        if name == "models.sweep":
            rows = sum(window.items)
            total = sum(sp.duration for sp in recorded if sp.name == name)
            values[f"{name}.us_per_row"] = total / rows * 1e6 if rows else 0.0
        else:
            values[f"{name}.us"] = med * 1e6
    for layer, share in spans.layer_self_shares(recorded).items():
        values[f"{layer}.self_share"] = share
    if window.decided:
        values["covariance.decided_frac"] = sum(window.decided) / len(window.decided)
    if window.squeezing_defined:
        values["collective.squeezing_defined_frac"] = (
            sum(window.squeezing_defined) / len(window.squeezing_defined))
    if work.name == "oracle_concordance":
        values["oracle.j_ops_hit_ratio"] = workloads_module.j_ops_hit_ratio()
    values["models.fp_warnings"] = tracer.warnings_by_layer["models"]
    traced_rate = window.throughput()
    values["trace_overhead_frac"] = (untraced_rate - traced_rate) / untraced_rate
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def run(args) -> int:
    common.pin_threads()
    os.environ.pop("SYMSQ_TOL", None)  # the benchmark fixes the CLI's sign tolerance
    try:
        common.add_src_path()
        import symsq
        common.check_imported(symsq)
    except (common.SourceMissing, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    workdir = common.ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        work = workloads.make(args.workload, workdir)
        setups = [] if args.trace else setup_seconds(args.workload, args.seed, workdir)
        feed = Feed(work, args.seed)
        work.run(work.functions, feed.next()[0])  # warm-up, untimed

        window = Window(work.reference)
        if not args.trace:
            measure(work, work.functions, feed, args.seconds, window)
            windows = [window]
            rss = peak_rss_mb()
        else:
            # Untraced and traced chunks alternate, so a slower stretch of the
            # machine lands on both sides of trace_overhead_frac.
            plain = Window(work.reference)
            tracer = spans.Tracer()
            api = {name: tracer.wrap(name, fn) for name, fn in work.functions.items()}
            chunk = args.seconds / (2 * TRACE_ROUNDS)
            for _ in range(TRACE_ROUNDS):
                measure(work, work.functions, feed, chunk, plain)
                with tracing(work, tracer):
                    measure(work, api, feed, chunk, window)
            windows = [plain, window]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    env = common.environment(args.seed, args.seconds)
    print("# env " + json.dumps(env))
    for w in windows:
        for text in w.problems:
            print(f"# FAILED {text}")
    print(f"# {work.name}: {attempted} samples ({work.sample}) attempted, {failed} failed, "
          f"failed_frac = {failed / attempted if attempted else 0.0:.6g}")

    call_seconds = sum(sum(w.latencies) for w in windows)
    repeat_frac = feed.repeated_seconds / call_seconds if call_seconds else 0.0
    print(f"# inputs: {feed.drawn} drawn, {feed.repeated} repeated an earlier input of this "
          f"run, taking {repeat_frac:.4g} of the call time")

    if not window.latencies:
        print("error: no item completed", file=sys.stderr)
        return 1
    latency = latency_figures(window.latencies)
    extra = {**latency, "items_per_s": window.throughput(scaled=False),
             "speed_factor": median(f for _, _, f in window.segments()),
             "failed_frac": failed / attempted,
             "inputs_drawn": feed.drawn, "inputs_repeated": feed.repeated,
             "repeated_time_frac": repeat_frac}
    print(f"# unscaled: items_per_s = {extra['items_per_s']:.6g} 1/s, latency per "
          f"{work.sample}: p50 = {latency['latency_p50_ms']:.6g} ms, tail = "
          f"{latency['latency_tail_ms']:.6g} ms at rank {latency['tail_rank']} of "
          f"{latency['samples']} samples (p{latency['tail_percentile']:.4g}, ten beyond it); "
          f"median speed factor {extra['speed_factor']:.4g}")
    if args.trace:
        metrics = traced_metrics(work, window, tracer, plain.throughput(), workloads)
    else:
        values = {
            "setup_s": median(p["setup_s"] for p in setups),
            "scaled_items_per_s": window.throughput(),
            "peak_rss_mb": rss,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        extra["raw_setup_s"] = median(p["raw_setup_s"] for p in setups)
        extra["setup_probes"] = setups
    for name, m in metrics.items():
        print(f"{work.name} {name} = {m['value']:.6g} {m['unit']}")

    if args.record:
        record = {"workload": work.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "metrics": metrics, "extra": extra,
                  "attempted": attempted, "failed": failed}
        with open(args.record, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=common.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=common.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None,
                        help="append the full result, with its environment, to this JSONL file")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
