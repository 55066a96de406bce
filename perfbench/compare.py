"""Summarize one result set, or compare two, from ``run.py --record`` files.

    python3 perfbench/compare.py base.jsonl              # medians, quartiles, spread
    python3 perfbench/compare.py base.jsonl change.jsonl # one verdict per row

Each row is one workload and metric.  Quartiles are those of
``statistics.quantiles(values, n=4)``; the spread is their distance as a
share of the median.  Runs of the two sets are paired by workload, trace
mode and seed.  Every record of both sets must have the same run length;
the tool refuses sets that do not.  The verdict rule:

* improved   - the change wins at least 9/10 of at least 10 pairs (ties
               count for neither side) and the medians differ, in its
               favour, by more than the base's interquartile distance;
* worse      - the change's median is worse than the base's by more than
               the metric's bound (for the ungated figures and per-layer
               metrics, which have none: the base wins 9/10 of at least 10 pairs, by
               more than its interquartile distance);
* unresolved - the base's own spread is wider than the bound, unless
               every change run is better than every base run;
* unchanged  - otherwise.

The tool only reports; it never fails a build.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

from common import ROOT

# Recorded by run.py but not gated; they compare with no bound.
UNGATED = {"items_per_s": "higher", "raw_setup_s": "lower",
           "latency_p50_ms": "lower", "latency_tail_ms": "lower"}


def load(path) -> tuple:
    """({(workload, trace, metric): {seed: value}}, run seconds of every record)."""
    out: dict = {}
    seconds = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            seconds.add(rec["seconds"])
            values = {name: m["value"] for name, m in rec["metrics"].items()}
            values.update({k: rec["extra"][k] for k in UNGATED if k in rec["extra"]})
            for name, value in values.items():
                out.setdefault((rec["workload"], rec["trace"], name), {})[rec["seed"]] = value
    if len(seconds) > 1:
        raise ValueError(f"{path} mixes run lengths {sorted(seconds)}")
    return out, seconds.pop() if seconds else None


def definitions() -> dict:
    """metric -> (better, bound or None) from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    defs = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    defs.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    defs.update({name: (better, None) for name, better in UNGATED.items()})
    return defs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base: dict, change: dict, better: str, bound) -> tuple:
    """(verdict, win fraction, pairs) for two {seed: value} maps."""
    sign = -1.0 if better == "lower" else 1.0  # positive gain = better
    seeds = sorted(set(base) & set(change))
    wins = sum(sign * (change[s] - base[s]) > 0 for s in seeds)
    losses = sum(sign * (change[s] - base[s]) < 0 for s in seeds)
    a, b = list(base.values()), list(change.values())
    q1a, meda, q3a = quartiles(a)
    medb = quartiles(b)[1]
    gain = sign * (medb - meda)
    iqr = q3a - q1a
    pairs = len(seeds)
    win_frac = wins / pairs if pairs else 0.0
    if pairs >= 10 and win_frac >= 0.9 and gain > iqr:
        return "improved", win_frac, pairs
    if bound is not None:
        if meda and -gain / abs(meda) > bound:
            return "worse", win_frac, pairs
        all_better = min(sign * x for x in b) > max(sign * x for x in a)
        if spread(a) > bound and not all_better:
            return "unresolved", win_frac, pairs
    elif pairs >= 10 and losses / pairs >= 0.9 and -gain > iqr:
        return "worse", win_frac, pairs
    return "unchanged", win_frac, pairs


def _fmt(v) -> str:
    return f"{v:.6g}"


def summarize(path) -> list:
    defs = definitions()
    rows = []
    for (workload, trace, name), by_seed in sorted(load(path)[0].items()):
        vals = list(by_seed.values())
        q1, med, q3 = quartiles(vals)
        bound = defs.get(name, (None, None))[1]
        sp = spread(vals)
        flag = ""
        if bound is not None and name != "setup_s":
            flag = "steady" if sp < bound / 3 else ("within bound" if sp <= bound else "NOISY")
        rows.append([workload, name, str(len(vals)), _fmt(med), _fmt(q1), _fmt(q3),
                     f"{sp:.4f}", "" if bound is None else str(bound), flag])
    return [["workload", "metric", "runs", "median", "q1", "q3", "spread", "bound", ""]] + rows


def compare(base_path, change_path) -> list:
    defs = definitions()
    (base, base_s), (change, change_s) = load(base_path), load(change_path)
    if base_s != change_s:
        raise ValueError(f"run lengths differ: {base_s} s in {base_path}, "
                         f"{change_s} s in {change_path}")
    rows = [["workload", "metric", "base median", "base q1..q3", "change median",
             "change q1..q3", "change %", "wins", "verdict"]]
    for key in sorted(set(base) & set(change)):
        workload, _, name = key
        better, bound = defs.get(name, ("lower", None))
        a, b = base[key], change[key]
        qa, qb = quartiles(list(a.values())), quartiles(list(b.values()))
        pct = (qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1] else float("nan")
        v, win_frac, pairs = verdict(a, b, better, bound)
        rows.append([workload, name, _fmt(qa[1]), f"{_fmt(qa[0])}..{_fmt(qa[2])}",
                     _fmt(qb[1]), f"{_fmt(qb[0])}..{_fmt(qb[2])}", f"{pct:+.2f}",
                     f"{win_frac:.2f} of {pairs}", v])
    return rows


def print_table(rows) -> None:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    try:
        rows = compare(args.base, args.change) if args.change else summarize(args.base)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print_table(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
