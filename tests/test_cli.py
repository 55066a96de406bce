"""Command-line surface: exit codes, determinism, output formats."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import symsq
from symsq.cli import (
    EXIT_BAD_RANGE,
    EXIT_INVALID_STATE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VERIFY_FAIL,
    main,
)
from symsq.models import SWEEP_FIELDS


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.json"
    path.write_text(json.dumps({"special": {"a": 0, "b": 0, "c": 0.5, "d": 0}}))
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    """Maximally mixed state on the triplet subspace (separable)."""
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(
        {"special": {"a": 1 / 3, "b": 0, "c": 1 / 6, "d": 1 / 3}}))
    return str(path)


def test_analyze_bell_json(bell_file, capsys):
    assert main(["analyze", bell_file, "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is True
    assert abs(report["invariants"]["I1"] + 1.0) < 1e-12
    assert report["classification"] == "I3_zero_I1_negative"
    assert report["entangled"] is True
    assert "xi_sq" not in report
    assert all(row["xi_sq"] is None for row in report["collective"])  # zero mean spin


def test_analyze_maximally_mixed(mixed_file, capsys):
    assert main(["analyze", mixed_file, "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["entangled"] is False
    assert not any(report["flags"].values())


def test_analyze_text_and_json_values_agree(bell_file, capsys):
    main(["analyze", bell_file, "--format", "json"])
    js = json.loads(capsys.readouterr().out)
    main(["analyze", bell_file, "--format", "text"])
    text = capsys.readouterr().out
    line = next(l for l in text.splitlines() if l.startswith("invariants.I1 ="))
    assert float(line.split("=")[1]) == js["invariants"]["I1"]


def _flatten(obj, prefix=""):
    if not isinstance(obj, (dict, list)):
        return {prefix[:-1]: obj}
    leaves = {}
    for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        leaves.update(_flatten(v, f"{prefix}{k}."))
    return leaves


def _text_leaf(raw):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw  # bare strings such as the input path and the branch name


def _analyze_stdout(path, n_list, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", path, "--N", n_list, "--format", fmt]) == EXIT_OK
    return out.getvalue()


@st.composite
def _special_params(draw):
    a = draw(st.floats(0.0, 1.0))
    d = draw(st.floats(0.0, 1.0 - a))
    b = draw(st.floats(-1.0, 1.0)) * math.sqrt(a * d)
    return {"a": a, "b": b, "c": (1.0 - a - d) / 2.0, "d": d}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(params=_special_params(),
       n_values=st.lists(st.integers(2, 1000), min_size=1, max_size=4))
def test_analyze_text_and_json_agree_on_every_leaf(params, n_values):
    n_list = ",".join(map(str, n_values))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "state.json")
        Path(path).write_text(json.dumps({"special": params}))
        leaves = _flatten(json.loads(_analyze_stdout(path, n_list, "json")))
        text = _analyze_stdout(path, n_list, "text")
    lines = dict(line.split(" = ", 1) for line in text.splitlines())
    del leaves["elapsed_ms"], lines["elapsed_ms"]
    assert lines.keys() == leaves.keys()
    for key, raw in lines.items():
        assert _text_leaf(raw) == leaves[key], key
    assert [leaves[f"collective.{i}.N"] for i in range(len(n_values))] == n_values


def test_analyze_collective_rows(bell_file, capsys):
    main(["analyze", bell_file, "--N", "2,6", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert [row["N"] for row in report["collective"]] == [2, 6]
    assert all(row["entangled"] for row in report["collective"])


def test_analyze_xi_sq_per_n_ignores_order(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"special": {"a": 0.5, "b": 0.3, "c": 0.1, "d": 0.3}}))
    rows = {}
    for n_list in ("2,10", "10,2"):
        main(["analyze", str(path), "--N", n_list, "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        rows[n_list] = {row["N"]: row for row in report["collective"]}
    assert rows["2,10"] == rows["10,2"]
    assert rows["2,10"][2]["xi_sq"] == pytest.approx(0.6)
    assert rows["2,10"][10]["xi_sq"] == pytest.approx(-2.6)


def test_analyze_tiny_coherence_raises_no_warning(tmp_path, capsys):
    """A coherence b near 1e-232 next to an O(1) diagonal gap gives a Jacobi
    rotation with |tau| near 1e231, where tau * tau overflows."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"special": {
        "a": 0.5, "b": 5.2533275252536114e-232, "c": 0.125, "d": 0.25}}))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["analyze", str(path)]) == EXIT_OK
        assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK


def test_analyze_invalid_state_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "bloch": {"s": [0, 0, 2], "r": [0, 0, 2],
                  "T": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}}))
    assert main(["analyze", str(path)]) == EXIT_INVALID_STATE


def test_analyze_parse_error_exit_code(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == EXIT_PARSE_ERROR
    path.write_text(json.dumps({"wrong": 1}))
    assert main(["analyze", str(path)]) == EXIT_PARSE_ERROR


@pytest.mark.parametrize("bad_n", ["1", "0", "x", "2,1", "3.5", ","])
def test_analyze_bad_n_exit_code(bell_file, bad_n, capsys):
    assert main(["analyze", bell_file, "--N", bad_n]) == EXIT_BAD_RANGE
    assert capsys.readouterr().out == ""


def test_module_entry_point_bad_n_exit_code(bell_file):
    src = str(Path(symsq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "symsq.cli", "analyze", bell_file, "--N", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_BAD_RANGE
    assert proc.stdout == "" and "N must be an integer >= 2" in proc.stderr


def test_sweep_csv_schema(capsys):
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "0:3.14:5"]) == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ",".join(SWEEP_FIELDS)
    assert len(lines) == 6
    assert lines[1].startswith("ku,4,0,")


def test_sweep_deterministic(capsys):
    args = ["sweep", "--model", "atomic", "--N", "4,6", "--param-range", "0.1:0.9:7"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_sweep_csv_round_trip(capsys):
    main(["sweep", "--model", "ku", "--N", "4", "--param-range", "0:1:4"])
    lines = capsys.readouterr().out.strip().splitlines()
    from symsq.models import ku_pair
    for line in lines[1:]:
        cells = line.split(",")
        _, _, inv = ku_pair(4, float(cells[2]))
        assert float(cells[7]) == inv.I5  # exact decimal round trip


def test_sweep_json_format(capsys):
    main(["sweep", "--model", "dicke", "--N", "4", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5  # M = -2..2
    assert rows[2]["param"] == 0.0
    assert rows[2]["branch"] == "I3_zero_I1_negative"


def test_sweep_bad_range_exit_code(capsys):
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "1:0:5"]) == EXIT_BAD_RANGE
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "0:1"]) == EXIT_BAD_RANGE
    assert main(["sweep", "--model", "atomic", "--N", "4"]) == EXIT_BAD_RANGE


def test_sweep_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "0:1:3", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith(",".join(SWEEP_FIELDS))


def test_verify_quick_passes(capsys):
    assert main(["verify", "--level", "quick", "--seed", "42"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_failure_hook(capsys):
    assert main(["verify", "--level", "quick", "--seed", "42",
                 "--tolerance-scale", "1e-30"]) == EXIT_VERIFY_FAIL
    assert "FAIL" in capsys.readouterr().out


def test_symsq_tol_env(monkeypatch, bell_file, capsys):
    monkeypatch.setenv("SYMSQ_TOL", "3")
    main(["analyze", bell_file, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    # with a huge tolerance the Bell state no longer counts as entangled
    assert report["entangled"] is False
    monkeypatch.setenv("SYMSQ_TOL", "not-a-number")
    assert main(["analyze", bell_file]) == EXIT_INVALID_STATE
