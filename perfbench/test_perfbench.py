"""Self-tests of the benchmark itself (not of symsq).

    python3 -m pytest perfbench -q
"""

import itertools
import json
import math

import numpy as np
import pytest

import common

common.add_src_path()

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Span, Tracer, layer_self_shares, self_times  # noqa: E402


def _same(a, b):
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def _first(work, seed, count):
    return list(itertools.islice(work.stream(seed), count))


@pytest.mark.parametrize("name", common.WORKLOAD_NAMES)
def test_stream_is_deterministic_per_seed(name, tmp_path):
    work = workloads.make(name, tmp_path)
    first, again, other = _first(work, 7, 200), _first(work, 7, 200), _first(work, 8, 200)
    assert all(_same(a, b) for a, b in zip(first, again))
    assert not all(_same(a, b) for a, b in zip(first, other))


@pytest.mark.parametrize("name", ["pair_verdicts", "lu_equivalence", "oracle_concordance"])
def test_stream_inputs_do_not_repeat(name):
    work = workloads.make(name)
    keys = [work.key(item) for item in _first(work, 3, 3000)]
    assert len(set(keys)) == len(keys)


def test_dicke_points_are_drawn_without_replacement():
    work = workloads.make("oracle_concordance")
    points = [p for p in _first(work, 4, 6 * 11473) if p[0] == "dicke"]
    assert len(points) == 11473 == len(set(points))


def test_feed_counts_repeated_inputs():
    class Repeating:
        key = staticmethod(lambda item: item)

        @staticmethod
        def stream(seed):
            yield from (seed, seed + 1, seed, seed)

    feed = run.Feed(Repeating, 5)
    assert [feed.next()[1] for _ in range(4)] == [False, False, True, True]
    assert (feed.drawn, feed.repeated) == (4, 2)


def test_pair_block_keeps_the_counted_shares():
    work = workloads.PairVerdicts
    total = sum(work.COUNTS.values())
    size = sum(work.BLOCK.values())
    assert work.BLOCK == {k: round(v * size / total) for k, v in work.COUNTS.items()}
    order = workloads.block_order(list(work.BLOCK.values()))
    assert [order.count(k) for k in range(len(work.BLOCK))] == list(work.BLOCK.values())
    # Every prefix of the block is within one item of the shares, kind by kind.
    for length in range(1, size + 1):
        for k, w in enumerate(work.BLOCK.values()):
            assert abs(order[:length].count(k) - length * w / size) < 1


def test_workload_names_agree():
    assert tuple(workloads.WORKLOADS) == common.WORKLOAD_NAMES


def test_pair_check_flags_planted_wrong_verdicts():
    work = workloads.make("pair_verdicts")
    # Rank-1 triplet states are entangled away from the product states.
    rho = next(r for r in work.stream(3)
               if np.linalg.eigvalsh(workloads.lapack_partial_transpose(r))[0] < -1e-3)
    out = work.run(work.functions, rho).output
    assert work.check(rho, out)[0] == []
    ppt_min, c_min, c_neg, i5, xi_sq, witness = out
    flipped = (ppt_min, c_min, not c_neg, i5, xi_sq, witness)
    assert any("C < 0" in p for p in work.check(rho, flipped)[0])
    wrong_sign = (ppt_min, c_min, c_neg, -i5 if abs(i5) > 1e-6 else 1.0, xi_sq, witness)
    if xi_sq is not None and abs(xi_sq - 1.0) > 1e-6:
        assert any("sign(I5)" in p for p in work.check(rho, wrong_sign)[0])
    bad_witness = (ppt_min, c_min, c_neg, i5, xi_sq, [w + 1e-3 for w in witness])
    assert any("witness" in p for p in work.check(rho, bad_witness)[0])


def test_lu_check_flags_drift_and_inequivalence():
    work = workloads.make("lu_equivalence")
    triple = next(work.stream(5))
    before, after, t_diag, same, conc = work.run(work.functions, triple).output
    assert work.check(triple, (before, after, t_diag, same, conc))[0] == []
    drifted = (before[0] + 1e-6,) + tuple(before[1:])
    assert work.check(triple, (drifted, after, t_diag, same, conc))[0]
    assert work.check(triple, (before, after, t_diag, False, conc))[0]
    assert work.check(triple, (before, after, t_diag, same, conc + 1e-4))[0]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_check_flags_corrupted_row(fmt, tmp_path):
    work = workloads.make("model_sweep", tmp_path)
    call = next(c for c in work.stream(2) if c[0] == "ku" and c[2] == fmt)
    outcome = work.run(work.functions, call)
    assert outcome.items == len(call[4])
    assert work.check(call, outcome.output)[0] == []
    path = outcome.output[1]
    lines = path.read_text(encoding="utf-8").splitlines()
    if fmt == "csv":
        cells = lines[2].split(",")
        cells[3] = repr(float(cells[3]) * (1 + 1e-12) + 1e-300)
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        recs = json.loads(path.read_text(encoding="utf-8"))
        recs[1]["branch"] = "separable_signature" if recs[1]["branch"] != \
            "separable_signature" else "I5_negative"
        path.write_text(json.dumps(recs), encoding="utf-8")
    problems = work.check(call, outcome.output)[0]
    assert problems and "row 1" in problems[0]


@pytest.mark.parametrize("model", ["ku", "atomic", "dicke"])
def test_sweep_check_recomputes_a_row_from_the_simulator(model, tmp_path):
    work = workloads.make("model_sweep", tmp_path)
    call = next(c for c in work.stream(4) if c[0] == model and c[5] is not None)
    outcome = work.run(work.functions, call)
    assert work.check(call, outcome.output)[0] == []
    n, params, at = call[1], call[4], call[5]
    row = work.parse(outcome.output[1], call[2])[at]
    assert work.check_against_oracle(model, n, params[at], row) == []
    assert work.check_against_oracle(model, n, params[at], {**row, "I5": row["I5"] + 1e-6})
    if not math.isnan(row["xi_sq"]) and row["I3"] > 1e-6:
        wrong = {**row, "xi_sq": row["xi_sq"] * (1 + 1e-6)}
        assert work.check_against_oracle(model, n, params[at], wrong)


def test_oracle_check_uses_the_atomic_limit():
    work = workloads.make("oracle_concordance")
    assert work.check(("atomic", 10, 0.5), 5e-9)[0] == []
    assert work.check(("ku", 10, 0.5), 5e-9)[0]


def _span(name, parent, start, end):
    return Span(name, parent, start, end)


def test_self_time_on_a_synthetic_tree():
    spans = [
        _span("cli.main", -1, 0.0, 10.0),
        _span("models.sweep", 0, 1.0, 4.0),
        _span("models.sweep", 0, 3.0, 6.0),     # overlaps its sibling: union is 1..6
        _span("oracle.moments_of", 1, 2.0, 3.0),
        _span("states.construct", 0, 9.0, 12.0),  # runs past its parent: clipped to 9..10
        _span("numerics.hermitian_eigenvalues", -1, 20.0, 21.5),
    ]
    assert self_times(spans) == pytest.approx([10 - 5 - 1, 3 - 1, 3, 1, 3, 1.5])
    shares = layer_self_shares(spans)
    total = 4 + 2 + 3 + 1 + 3 + 1.5
    assert set(shares) == set(LAYERS)
    assert shares["models"] == pytest.approx(5 / total)
    assert shares["cli"] == pytest.approx(4 / total)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores_patches():
    import types

    tracer = Tracer()
    module = types.SimpleNamespace(inner=lambda x: x + 1)
    outer = tracer.wrap("cli.main", lambda x: module.inner(x) * 2)
    with tracer.patch(module, "inner", "models.sweep"):
        assert outer(1) == 4
    assert module.inner(1) == 2  # the patch is gone; this call records no span
    names = [(sp.name, sp.parent) for sp in tracer.spans]
    assert names == [("cli.main", -1), ("models.sweep", 0)]
    with pytest.raises(ValueError):
        tracer.wrap("nolayer.f", abs)


def test_latency_tail_has_ten_samples_beyond_it():
    lat = [float(i) / 1e3 for i in range(1, 1001)]
    fig = run.latency_figures(lat)
    assert (fig["latency_p50_ms"], fig["latency_tail_ms"], fig["tail_rank"]) == (500.0, 990.0, 990)
    assert fig["tail_percentile"] == 99.0 and fig["samples"] == 1000


def test_throughput_scales_each_segment():
    ref = run.reference.REFERENCE_SECONDS["interpreter"]
    win = run.Window("interpreter")
    win.latencies = [1.0] * 10 + [0.5] * 10 + [0.25] * 10
    win.items = [2] * 30
    # Three segments, on stretches 1x, 1.5x and 1.5x as slow as the reference.
    win.marks = [(0, ref), (10, ref), (20, 2 * ref), (20, 2 * ref), (30, ref)]
    assert [seg[:2] for seg in win.segments()] == [(0, 10), (10, 20), (20, 30)]
    assert win.throughput(scaled=False) == pytest.approx(60 / 17.5)
    assert win.throughput() == pytest.approx(60 / (10 + 5 / 1.5 + 2.5 / 1.5))


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    want = run.per_layer_units(workloads.WORKLOADS.values())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == want
    assert [w["name"] for w in spec["workloads"]] == list(common.WORKLOAD_NAMES)


def test_compare_verdicts():
    base = {s: 100.0 + s % 3 for s in range(10)}
    faster = {s: v * 0.8 for s, v in base.items()}
    slower = {s: v * 1.3 for s, v in base.items()}
    assert compare.verdict(base, faster, "lower", 0.1)[0] == "improved"
    assert compare.verdict(base, slower, "lower", 0.1)[0] == "worse"
    assert compare.verdict(base, dict(base), "lower", 0.1)[0] == "unchanged"
    noisy = {s: 100.0 * (1 + 0.5 * (s % 2)) for s in range(10)}
    assert compare.verdict(noisy, dict(noisy), "lower", 0.1)[0] == "unresolved"
    assert math.isclose(compare.spread([1.0, 2.0, 3.0, 4.0, 5.0]), 3.0 / 3.0)


def test_compare_refuses_different_run_lengths(tmp_path):
    def write(path, seconds):
        rec = {"workload": "lu_equivalence", "seed": 1, "seconds": seconds, "trace": 0,
               "metrics": {"setup_s": {"value": 0.1, "unit": "s"}}, "extra": {}}
        path.write_text(json.dumps(rec) + "\n", encoding="utf-8")
        return path

    base, short = write(tmp_path / "a.jsonl", 25), write(tmp_path / "b.jsonl", 10)
    with pytest.raises(ValueError, match="run lengths differ"):
        compare.compare(base, short)
    assert compare.main([str(base), str(short)]) == 2
