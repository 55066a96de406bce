"""Command-line surface: exit codes, determinism, output formats."""

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import symsq
from symsq import cli, covariance, models, states
from symsq.cli import (
    EXIT_BAD_RANGE,
    EXIT_INVALID_STATE,
    EXIT_OK,
    EXIT_PARSE_ERROR,
    EXIT_VERIFY_FAIL,
    main,
)
from symsq.errors import DomainError
from symsq.models import SWEEP_FIELDS
from symsq.states import SpecialClassState, random_symmetric_state, rho_from_bloch


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


def _rho_obj(rho):
    return {"rho": [[[z.real, z.imag] for z in row] for row in rho.tolist()]}


_SYMMETRIC = random_symmetric_state(3, seed=11)
_SPECIAL = {"a": 0.5, "b": 0.3, "c": 0.1, "d": 0.3}
_KET_01 = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)
# A state file of each kind and the rho it describes.
_STATE_FILES = {
    "rho": (_rho_obj(_SYMMETRIC.rho), _SYMMETRIC.rho),
    "bloch": ({"bloch": {"s": _SYMMETRIC.s.tolist(), "r": _SYMMETRIC.r.tolist(),
                         "T": _SYMMETRIC.T.tolist()}},
              rho_from_bloch(_SYMMETRIC.s, _SYMMETRIC.r, _SYMMETRIC.T)),
    "special": ({"special": _SPECIAL}, SpecialClassState(**_SPECIAL).matrix()),
    "rho_01": (_rho_obj(_KET_01), _KET_01),
}


def _count_rho_solves(monkeypatch):
    """(name, matrix) of each solve that states makes through
    hermitian_eigh or hermitian_eigenvalues while the test runs."""
    solved = []

    def counted(name, solve):
        def call(m):
            solved.append((name, np.array(m)))
            return solve(m)
        return call

    for name in ("hermitian_eigh", "hermitian_eigenvalues"):
        monkeypatch.setattr(states, name, counted(name, getattr(states, name)))
    return solved


@pytest.mark.parametrize("kind", list(_STATE_FILES))
def test_analyze_solves_each_rho_once(kind, tmp_path, monkeypatch, capsys):
    """analyze decides symmetry on the state it loaded, and a valid file's
    rho goes through no eigen solve: the positivity gate is a Cholesky
    factorization and no output needs concurrence.  |01><01| reports
    symmetric = false and no invariants."""
    obj, rho = _STATE_FILES[kind]
    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj))
    solved = _count_rho_solves(monkeypatch)
    assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK
    assert not any(np.array_equal(m, rho) for _, m in solved)
    report = json.loads(capsys.readouterr().out)
    assert report["symmetric"] is (kind != "rho_01")
    assert ("invariants" in report) is report["symmetric"]


def test_analyze_solves_a_rejected_rho_once(tmp_path, monkeypatch, capsys):
    """A Werner matrix p |psi-><psi-| + (1 - p) I/4 with p = 1.01 has the
    triple eigenvalue -0.0025: its failed factorization sends it to one
    value-only eigen solve, whose least eigenvalue rejects it."""
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rho = (1.01 * np.outer(singlet, singlet) - 0.01 * np.eye(4) / 4.0).astype(complex)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_rho_obj(rho)))
    solved = _count_rho_solves(monkeypatch)
    assert main(["analyze", str(path), "--format", "json"]) == EXIT_INVALID_STATE
    assert [name for name, m in solved if np.array_equal(m, rho)] == ["hermitian_eigenvalues"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: invalid state: density matrix has a negative eigenvalue\n"


def test_analyze_solves_c_once_for_every_n(tmp_path, monkeypatch, capsys):
    """analyze --N 2,3,10,100 solves the state's C once for the C test and
    once for each of the four witness rows, k + 1 solves for k values of
    N, each of the same C, and every row reads its least eigenvalue."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_rho_obj(_SYMMETRIC.rho)))
    solved = []
    solve = covariance.symmetric_eigenvalues

    def counted(m):
        solved.append(np.array(m))
        return solve(m)

    monkeypatch.setattr(covariance, "symmetric_eigenvalues", counted)
    assert main(["analyze", str(path), "--N", "2,3,10,100", "--format", "json"]) == EXIT_OK
    assert len(solved) == 5 and solved[0].shape == (3, 3)
    assert all(np.array_equal(m, solved[0]) for m in solved)
    report = json.loads(capsys.readouterr().out)
    c_min = report["c_min_eigenvalue"]
    for row in report["collective"]:
        n = row["N"]
        assert row["witness_min_eigenvalue"] == 0.25 * n * (1.0 + (n - 1) * c_min)


def test_analyze_special_parameters_not_numbers_exit_code(tmp_path, capsys):
    """A "special" state whose four parameters are lists of one length
    reads as an array, not four numbers: a parse error, exit 3."""
    path = tmp_path / "special.json"
    path.write_text(json.dumps({"special": {"a": [0.25], "b": [0.0], "c": [0.25],
                                            "d": [0.25]}}))
    assert main(["analyze", str(path)]) == EXIT_PARSE_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot parse state file: 'special' parameters "
                            "a, b, c, d must be numbers\n")


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


_ZERO_T = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
_INF_RHO = [[[0, 0]] * 4 for _ in range(4)]
_INF_RHO[0][0] = [math.inf, 0]


@pytest.mark.parametrize("state", [
    {"special": {"a": math.nan, "b": 0, "c": 0.25, "d": 0.5}},
    {"bloch": {"s": [0, 0, math.nan], "r": [0, 0, 0], "T": _ZERO_T}},
    {"rho": _INF_RHO},
], ids=["special", "bloch", "rho"])
def test_analyze_non_finite_state_exit_code(tmp_path, capsys, state):
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))  # writes NaN / Infinity, which json.load reads back
    assert main(["analyze", str(path)]) == EXIT_INVALID_STATE
    assert "finite" in capsys.readouterr().err


_HUGE_RHO = [[[0, 0]] * 4 for _ in range(4)]
_HUGE_RHO[0][0] = [10**400, 0]


@pytest.mark.parametrize("state", [
    {"special": {"a": 10**400, "b": 0, "c": 0.25, "d": 0.5}},
    {"bloch": {"s": [0, 0, 10**400], "r": [0, 0, 0], "T": _ZERO_T}},
    {"rho": _HUGE_RHO},
], ids=["special", "bloch", "rho"])
def test_analyze_number_past_the_float_range_exit_code(tmp_path, capsys, state):
    """A JSON integer no float holds exits 2 under every state key, with
    one error line and no traceback."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))  # a 401-digit integer, which json.load reads back
    assert main(["analyze", str(path)]) == EXIT_INVALID_STATE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: invalid state: input has a number past the float range; it must be finite"]


_BIG_RHO = [[[0.0, 0.0]] * 4, [[0.0, 0.0], [0.5, 0.0], [0.5, 1e308], [0.0, 0.0]],
            [[0.0, 0.0], [0.5, -1e308], [0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]] * 4]
_INFINITE_IM_RHO = [[[0.25, math.inf if (i, j) == (0, 0) else 0.0] for j in range(4)]
                    for i in range(4)]


@pytest.mark.parametrize("state, message", [
    ({"special": {"a": 0.0, "b": 1e308, "c": 0.5, "d": 0.0}},
     "density matrix has an entry of modulus above 2"),
    ({"bloch": {"s": [0, 0, 1e308], "r": [0, 0, 1e308], "T": _ZERO_T}},
     "Bloch data has an entry of modulus above 2"),
    ({"rho": _BIG_RHO}, "density matrix has an entry of modulus above 2"),
    ({"rho": _INFINITE_IM_RHO}, "density matrix has a non-finite entry"),
], ids=["special", "bloch", "rho", "rho_infinite_imaginary_part"])
def test_analyze_huge_finite_entry_exit_code(tmp_path, state, message):
    """A finite entry far outside any state (here 1e308), and an infinite
    imaginary part under "rho", exit 2 with one error line and no warning:
    the gates refuse them before a sum or product can overflow."""
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))  # json writes inf as its Infinity literal
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _in_process(["analyze", str(path)]) == (
            EXIT_INVALID_STATE, "", f"error: invalid state: {message}\n")


@pytest.mark.parametrize("bloch", [
    {"s": [0, 0], "r": [0, 0, 0], "T": _ZERO_T},
    {"s": [0, 0, 0, 5], "r": [0, 0, 0], "T": _ZERO_T},
    {"s": [[0], [0], [0]], "r": [0, 0, 0], "T": _ZERO_T},
], ids=["short", "long", "column"])
def test_analyze_bloch_shape_exit_code(tmp_path, capsys, bloch):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"bloch": bloch}))
    assert main(["analyze", str(path)]) == EXIT_PARSE_ERROR
    assert "shape" in capsys.readouterr().err


@pytest.mark.parametrize("bad_n", ["1", "0", "x", "2,1", "3.5", ","])
def test_analyze_bad_n_exit_code(bell_file, bad_n, capsys):
    assert main(["analyze", bell_file, "--N", bad_n]) == EXIT_BAD_RANGE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    ["analyze"],
    ["sweep", "--model", "ku", "--param-range", "0:1:3"],
    ["sweep", "--model", "atomic", "--param-range", "0.2:0.8:3"],
    ["sweep", "--model", "dicke"],
], ids=["analyze", "sweep_ku", "sweep_atomic", "sweep_dicke"])
def test_n_past_the_float_range_exits_bad_range(command, bell_file, capsys):
    """An N that no float holds exits 4, as a rejected N = 1 does, with the
    N gate's message and no traceback."""
    argv = command + [bell_file] if command == ["analyze"] else command
    assert main(argv + ["--N", str(10**400)]) == EXIT_BAD_RANGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: N must be an integer >= 2 and <= ")


def _in_process(argv):
    """(exit code, stdout, stderr) of main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_interpreter(argv):
    """(exit code, stdout, stderr) of `python -m symsq.cli` with argv."""
    src = str(Path(symsq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "symsq.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr


def test_module_entry_point_bad_n_exit_code(bell_file):
    code, out, err = _fresh_interpreter(["analyze", bell_file, "--N", "1"])
    assert code == EXIT_BAD_RANGE
    assert out == "" and "N must be an integer >= 2" in err


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


def test_sweep_row_cap_gate():
    """One sweep call builds at most cli._MAX_SWEEP_ROWS rows: the gate
    alone passes the cap and refuses one row past it."""
    cap = cli._MAX_SWEEP_ROWS
    cli._check_rows(cap)
    with pytest.raises(symsq.errors.SymsqError, match=f"at most {cap} rows, not {cap + 1}$"):
        cli._check_rows(cap + 1)


def test_sweep_past_the_row_cap_exits_bad_range(monkeypatch):
    """Under a cap of 12 rows, steps times the N count and the N + 1 rows of
    each Dicke grid are checked before any model is swept: a refused call
    exits 4 with one error line and prints nothing."""
    monkeypatch.setattr(cli, "_MAX_SWEEP_ROWS", 12)
    swept = []
    real_sweep = models.sweep
    monkeypatch.setattr(models, "sweep", lambda *a: swept.append(a) or real_sweep(*a))
    ku = ["sweep", "--model", "ku", "--N"]
    dicke = ["sweep", "--model", "dicke", "--N"]
    for argv, rows in ((ku + ["4", "--param-range", "0:1:12"], 12),
                       (ku + ["4,6", "--param-range", "0:1:6"], 12),
                       (ku + ["4", "--param-range", "0:1:13"], 13),
                       (ku + ["4,6", "--param-range", "0:1:7"], 14),
                       (dicke + ["10"], 11), (dicke + ["10,2"], 14), (dicke + ["12"], 13)):
        swept.clear()
        code, out, err = _in_process(argv)
        if rows <= 12:
            assert code == EXIT_OK and len(swept) == 1, argv
        else:
            assert (code, out, err, swept) == (
                EXIT_BAD_RANGE, "", f"error: a sweep builds at most 12 rows, not {rows}\n", []), argv


@st.composite
def _sweep_call(draw):
    """A sweep's model, N list and --param-range (None for every Dicke M)."""
    model = draw(st.sampled_from(models.MODEL_NAMES))
    ns = draw(st.lists(st.integers(2, 400), min_size=1, max_size=3))
    if model == "dicke":
        return model, ns, None
    if model == "atomic":
        ns = [n + n % 2 for n in ns]
        lo = draw(st.floats(1e-6, 0.999))
        hi = draw(st.floats(lo, 0.999999))
    else:
        lo = draw(st.floats(-10.0, 10.0))
        hi = lo + draw(st.floats(0.0, 10.0))
    steps = draw(st.integers(1, 40))
    return model, ns, f"{lo!r}:{hi!r}:{steps}"


def _sweep_argv(model, ns, raw):
    argv = ["sweep", "--model", model, "--N", ",".join(map(str, ns))]
    return argv + (["--param-range", raw] if raw else [])


def _reference_records(model, ns, raw):
    """The rows a sweep call covers, one models.sweep call per N for Dicke's
    every-M grids."""
    if raw is None:
        tables = [models.sweep(model, [m2 / 2 for m2 in range(-n, n + 1, 2)], [n]) for n in ns]
    else:
        tables = [models.sweep(model, cli._parse_range(raw), ns)]
    return [row.as_record() for table in tables for row in table]


def _sweep_stdout(argv):
    code, out, err = _in_process(argv)
    assert code == EXIT_OK, err
    return out


def _same_bits(a, b) -> bool:
    return (math.isnan(a) and math.isnan(b)) or float(a).hex() == float(b).hex()


@settings(derandomize=True, deadline=None, max_examples=40)
@given(call=_sweep_call())
def test_sweep_csv_and_json_round_trip_bit_exact(call):
    """Every float of a sweep comes back bit-exact from its 17-digit CSV and
    JSON text; JSON writes a negative zero as -0.0, so it keeps its sign."""
    want = _reference_records(*call)
    argv = _sweep_argv(*call)
    rows = list(csv.DictReader(io.StringIO(_sweep_stdout(argv + ["--format", "csv"]))))
    records = json.loads(_sweep_stdout(argv + ["--format", "json"]))
    assert len(rows) == len(records) == len(want)
    for row, rec, w in zip(rows, records, want):
        for key in SWEEP_FIELDS:
            if key in ("model", "branch"):
                assert row[key] == rec[key] == w[key]
            elif key == "N":
                assert int(row[key]) == rec[key] == w[key]
            else:
                json_value = math.nan if rec[key] is None else rec[key]
                assert _same_bits(float(row[key]), w[key]), (key, row[key], w[key])
                assert _same_bits(json_value, w[key]), (key, rec[key], w[key])


def _assert_same_text(got: str, want: str):
    """Fails with the first difference only: pytest's diff of two long texts
    takes minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at {at}: {got[at - 40:at + 40]!r} vs {want[at - 40:at + 40]!r}")


def _assert_sweep_bytes_match_generic_renderer(call):
    """The columnar CSV and JSON are the bytes that _csv_cell and _to_json
    give for the rows' as_record() dicts."""
    records = _reference_records(*call)
    argv = _sweep_argv(*call)
    csv_lines = [",".join(SWEEP_FIELDS)]
    csv_lines += [",".join(cli._csv_cell(rec[k]) for k in SWEEP_FIELDS) for rec in records]
    _assert_same_text(_sweep_stdout(argv), "\n".join(csv_lines) + "\n")
    _assert_same_text(_sweep_stdout(argv + ["--format", "json"]), cli._to_json(records) + "\n")
    return records


@settings(derandomize=True, deadline=None, max_examples=40)
@given(call=_sweep_call())
def test_sweep_bytes_match_generic_renderer(call):
    _assert_sweep_bytes_match_generic_renderer(call)


def test_sweep_bytes_match_generic_renderer_on_edge_cases():
    # KU at N = 1000: xi^2 is finite at chi t = 0 and NaN (I3 below tol) after.
    records = _assert_sweep_bytes_match_generic_renderer(("ku", [1000], "0:1:3"))
    assert not math.isnan(records[0]["xi_sq"]) and math.isnan(records[1]["xi_sq"])
    # Dicke N = 4: I4 is -0.0 at M = 0.
    records = _assert_sweep_bytes_match_generic_renderer(("dicke", [4], None))
    assert math.copysign(1.0, records[2]["I4"]) == -1.0 and records[2]["I4"] == 0.0
    i4 = json.loads(_sweep_stdout(_sweep_argv("dicke", [4], None) + ["--format", "json"]))[2]["I4"]
    assert isinstance(i4, float) and math.copysign(1.0, i4) == -1.0
    records = _assert_sweep_bytes_match_generic_renderer(("atomic", [6], "0.25:0.75:1"))
    assert len(records) == 1
    records = _assert_sweep_bytes_match_generic_renderer(("dicke", [2, 3, 7], None))
    assert [rec["N"] for rec in records] == [2] * 3 + [3] * 4 + [7] * 8


_SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
                   -2.2250738585072014e-308, 1e308, -1.7976931348623157e308]


def _float_column(n):
    """n floats: any finite double, integral values, and the values whose
    text differs between CSV, JSON and %.17g."""
    cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                     st.integers(-2**60, 2**60).map(float), st.sampled_from(_SPECIAL_FLOATS))
    return st.one_of(st.lists(cell, min_size=n, max_size=n), st.just([math.nan] * n))


@st.composite
def _raw_sweep_columns(draw):
    """Columns as models.sweep holds them: str, int and float lists of one length."""
    n = draw(st.integers(0, 8))
    text = st.text(st.characters(exclude_categories=("Cs",)), max_size=6) | \
        st.sampled_from(['"', '\\', "a,b", "\u00e9\u03be\u00b2", "\n"])
    columns = {}
    for k in SWEEP_FIELDS:
        if k in ("model", "branch"):
            columns[k] = draw(st.lists(text, min_size=n, max_size=n))
        elif k == "N":
            columns[k] = draw(st.lists(st.integers(-2**70, 2**70), min_size=n, max_size=n))
        else:
            columns[k] = draw(_float_column(n))
    return columns


def _finite_columns(**cols):
    """Three rows of finite, nonzero floats, with the columns given replaced."""
    columns = {k: [0.5, -1.25, 3e-7] for k in SWEEP_FIELDS}
    columns.update(model=["ku"] * 3, N=[4, 5, 6], branch=["a", "b", "a"])
    columns.update(cols)
    return columns


@settings(derandomize=True, deadline=None, max_examples=300)
@given(columns=_raw_sweep_columns())
@example(columns={k: [] for k in SWEEP_FIELDS})
@example(columns={**{k: [math.nan] * 2 for k in SWEEP_FIELDS}, "model": ["ku"] * 2,
                  "N": [4, 4], "branch": ['"', "\u00e9"]})
# One-valued columns, written into the template, one holding '%'.
@example(columns=_finite_columns(model=["%s 100%"] * 3, N=[7] * 3, branch=["%d"] * 3))
# One NaN and one infinity of each sign among finite floats.
@example(columns=_finite_columns(xi_sq=[0.5, math.nan, 2.0], I1=[math.inf, 1.0, -math.inf]))
# One negative zero, which JSON writes as -0.0 and CSV as -0.
@example(columns=_finite_columns(I4=[1.0, -0.0, 0.5]))
def test_render_sweep_matches_cell_renderers(columns):
    """The per-row %-templates write the bytes of _csv_cell and _to_json
    applied to each record, on any column values."""
    records = [dict(zip(SWEEP_FIELDS, values))
               for values in zip(*(columns[k] for k in SWEEP_FIELDS))]
    csv_lines = [",".join(SWEEP_FIELDS)]
    csv_lines += [",".join(cli._csv_cell(rec[k]) for k in SWEEP_FIELDS) for rec in records]
    assert cli._render_sweep(columns, "csv") == "\n".join(csv_lines) + "\n"
    assert cli._render_sweep(columns, "json") == cli._to_json(records) + "\n"


def test_json_negative_zero_keeps_its_sign():
    assert cli._to_json([-0.0, 0.0, np.float64(-0.0)]) == "[\n  -0.0,\n  0,\n  -0.0\n]"
    assert [math.copysign(1.0, v) for v in json.loads(cli._to_json([-0.0, 0.0]))] == [-1.0, 1.0]
    # Text and CSV keep writing -0.
    assert cli._render_text({"x": -0.0}) == ["x = -0"] and cli._csv_cell(-0.0) == "-0"


def test_sweep_negative_lower_bound_with_and_without_equals():
    base = ["sweep", "--model", "ku", "--N", "4"]
    spaced = _sweep_stdout(base + ["--param-range", "-1:1:5"])
    assert spaced == _sweep_stdout(base + ["--param-range=-1:1:5"])
    assert spaced.splitlines()[1].startswith("ku,4,-1,")


@pytest.mark.parametrize("flag", ["--param", "--param-r", "--pa"])
def test_sweep_abbreviated_param_range_takes_negative_lower_bound(flag):
    base = ["sweep", "--model", "ku", "--N", "4"]
    assert _sweep_stdout(base + [flag, "-1:1:5"]) == _sweep_stdout(base + ["--param-range=-1:1:5"])


def test_sweep_to_file(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "0:1:3", "--out", str(out)]) == EXIT_OK
    assert out.read_text().startswith(",".join(SWEEP_FIELDS))


@pytest.mark.parametrize("old", [None, b"x" * 100_000], ids=["new", "longer"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_out_holds_exactly_the_payload(tmp_path, old, fmt):
    argv = ["sweep", "--model", "ku", "--N", "4", "--param-range", "0:1:3", "--format", fmt]
    out = tmp_path / "rows"
    if old is not None:
        out.write_bytes(old)
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == _sweep_stdout(argv).encode("utf-8")


@pytest.mark.skipif(os.name != "posix", reason="needs /dev/null")
def test_sweep_out_dev_null_exit_code(capsys):
    """--out accepts a target that is not a regular file."""
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "0:1:3", "--out", os.devnull]) == EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_sweep_unwritable_out_exit_code(tmp_path, capsys):
    assert main(["sweep", "--model", "ku", "--N", "4",
                 "--param-range", "0:1:3", "--out", str(tmp_path)]) == EXIT_BAD_RANGE
    assert "cannot write" in capsys.readouterr().err


def test_verify_quick_passes(capsys):
    assert main(["verify", "--level", "quick", "--seed", "42"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("PASS") == 4 and "FAIL" not in out


def test_verify_failure_hook(monkeypatch, capsys):
    monkeypatch.setattr(cli, "suite_ppt_c", lambda rng, count, tol: (1, 0.0, False))
    assert main(["verify", "--level", "quick", "--seed", "42"]) == EXIT_VERIFY_FAIL
    out = capsys.readouterr().out
    assert "FAIL ppt_equals_c_negativity" in out and out.count("PASS") == 3


def test_suites_reject_a_count_that_checks_nothing():
    """A suite run on no samples would pass vacuously: every count but an
    integer >= 1 raises DomainError, NaN and a bool included."""
    for suite in (cli.suite_invariance, cli.suite_ppt_c, cli.suite_xi_i5):
        for count in (0, -3, True, 2.5, math.nan):
            with pytest.raises(DomainError):
                suite(np.random.default_rng(0), count, 1e-9)
        suite(np.random.default_rng(0), np.int64(5), 1e-9)


def test_suite_count_cap_gate():
    """A suite call draws at most cli._MAX_SUITE_COUNT samples: the gate
    alone passes the cap and refuses one sample past it, and every suite
    refuses cap + 1 before it draws anything."""
    cap = cli._MAX_SUITE_COUNT
    assert cli._suite_args(cap, 1e-9) == (cap, 1e-9)
    with pytest.raises(DomainError, match=f"<= {cap}$"):
        cli._suite_args(cap + 1, 1e-9)
    for suite in (cli.suite_invariance, cli.suite_ppt_c, cli.suite_xi_i5):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(DomainError):
            suite(rng, cap + 1, 1e-9)
        assert rng.bit_generator.state == before


def test_ppt_c_suite_checks_the_witness_through_the_moments(monkeypatch):
    """The witness deviation compares collective_criterion's minimum, read
    from C, with eigvalsh of the witness matrix built from
    moments_from_pair: a second moment moved by 1e-6 fails the suite."""
    assert cli.suite_ppt_c(np.random.default_rng(4024), 20, 1e-9)[2]
    exact = covariance.moments_from_pair

    def moved(s, t, n):
        m = exact(s, t, n)
        return dataclasses.replace(m, j_second=m.j_second + 1e-6 * np.eye(3))

    monkeypatch.setattr(covariance, "moments_from_pair", moved)
    _, witness_dev, ok = cli.suite_ppt_c(np.random.default_rng(4024), 20, 1e-9)
    assert not ok and witness_dev > 1e-7


@settings(derandomize=True, deadline=None, max_examples=20)
@given(seed=st.integers(0, 2**32 - 1))
def test_ppt_equals_c_negativity_on_any_seed(seed):
    disagreements, witness_dev, ok = cli.suite_ppt_c(np.random.default_rng(seed), 25, 1e-9)
    assert ok, (seed, disagreements, witness_dev)


def test_one_parser_serves_alternating_calls(bell_file, monkeypatch):
    """The parser is built once per process; calls that alternate between
    subcommands and options exit and print as a fresh interpreter does, so
    no call's values carry over to the next."""
    monkeypatch.delenv("SYMSQ_TOL", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this
    ku = ["sweep", "--model", "ku", "--N", "4"]
    calls = [
        (["analyze", bell_file, "--N", "2,6", "--format", "json"], EXIT_OK),
        (ku + ["--param-range", "-1:1:5", "--format", "json", "--N", "4,6"], EXIT_OK),
        (["sweep", "--model", "dicke", "--N", "3"], EXIT_OK),
        (["verify", "--level", "quick"], EXIT_OK),
        (ku + ["--param-range", "1:0:5"], EXIT_BAD_RANGE),
        (["analyze", bell_file], EXIT_OK),
        (["sweep", "--model", "nope"], 2),
        (ku + ["--param-range=0:1:3"], EXIT_OK),
        (["sweep", "--model", "atomic", "--N", "4"], EXIT_BAD_RANGE),
    ]
    elapsed = re.compile(r"(elapsed_ms\W+)[-+.\de]+")
    for argv, code in calls:
        here, fresh = _in_process(argv), _fresh_interpreter(argv)
        assert here[0] == fresh[0] == code, (argv, here, fresh)
        for a, b in zip(here[1:], fresh[1:]):
            assert elapsed.sub(r"\1", a) == elapsed.sub(r"\1", b), argv


def test_symsq_tol_env(monkeypatch, bell_file, capsys):
    monkeypatch.setenv("SYMSQ_TOL", "3")
    main(["analyze", bell_file, "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    # with a huge tolerance the Bell state no longer counts as entangled
    assert report["entangled"] is False
    monkeypatch.setenv("SYMSQ_TOL", "not-a-number")
    assert main(["analyze", bell_file]) == EXIT_INVALID_STATE
    assert "SYMSQ_TOL is not a number: 'not-a-number'" in capsys.readouterr().err
    for raw in ("nan", "inf", "0", "-1e-9"):
        monkeypatch.setenv("SYMSQ_TOL", raw)
        assert main(["analyze", bell_file]) == EXIT_INVALID_STATE, raw
        assert "SYMSQ_TOL must be a positive finite number" in capsys.readouterr().err, raw
    # main reads SYMSQ_TOL once, before any command runs: every command
    # exits with the same code and the same stderr, and prints nothing.
    commands = (["analyze", bell_file], ["sweep", "--model", "ku", "--param-range", "0:1:3"],
                ["verify", "--level", "quick"])
    for raw in ("not-a-number", "nan", "inf", "0", "-1e-9"):
        monkeypatch.setenv("SYMSQ_TOL", raw)
        outputs = []
        for argv in commands:
            assert main(argv) == EXIT_INVALID_STATE, (raw, argv)
            outputs.append(capsys.readouterr())
        assert outputs[0].out == "" and outputs[0].err.startswith("error: SYMSQ_TOL "), raw
        assert outputs == [outputs[0]] * len(commands), raw


def test_negative_seed_is_a_usage_error(capsys):
    """--seed takes what np.random.default_rng takes; a negative seed exits 2
    with a usage line, as a seed that is not an integer does."""
    for seed in ("-1", "abc", "1.5"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed", seed])
        assert exc.value.code == 2, seed
        err = capsys.readouterr().err
        assert err.startswith("usage: symsq verify") and "argument --seed" in err, seed
    assert cli._seed("+7") == cli._seed(" 7") == 7


def test_xi_sq_is_defined_where_the_mean_spin_is_above_tol(tmp_path, capsys):
    """A KU point at N = 40, chi t = 0.794 has I3 = 9.2e-13, below SIGN_TOL
    but with a nonzero mean spin: analyze, like sweep, leaves xi^2
    undefined there: the classification takes its I3 <= tol branches."""
    s, t, inv = models.ku_pair(40, 0.794)
    assert 0.0 < inv.I3 < cli.SIGN_TOL
    path = tmp_path / "ku.json"
    path.write_text(json.dumps({"bloch": {"s": s.tolist(), "r": s.tolist(), "T": t.tolist()}}))
    assert main(["analyze", str(path), "--N", "40", "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["collective"][0]["xi_sq"] is None
    assert main(["sweep", "--model", "ku", "--N", "40",
                 "--param-range", "0.794:0.794:1"]) == EXIT_OK
    row = dict(zip(SWEEP_FIELDS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert row["xi_sq"] == "nan"


def test_xi_sq_needs_an_axis_below_any_tol(monkeypatch, tmp_path, capsys):
    """With SYMSQ_TOL below I3 = |s|^2 <= ZERO_SPIN_TOL^2, squeezing finds no
    axis: analyze and sweep leave xi^2 undefined there and exit 0."""
    monkeypatch.setenv("SYMSQ_TOL", "1e-100")
    path = tmp_path / "tiny_spin.json"
    path.write_text(json.dumps({"bloch": {"s": [0, 0, 1e-13], "r": [0, 0, 1e-13],
                                          "T": [[0.5, 0, 0], [0, 0.5, 0], [0, 0, 0]]}}))
    assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["collective"][0]["xi_sq"] is None
    # chi t = 1.5 at N = 40: |s| = cos(1.5)^39, about 1e-45.
    assert main(["sweep", "--model", "ku", "--N", "40", "--param-range", "1.5:1.5:1"]) == EXIT_OK
    row = dict(zip(SWEEP_FIELDS, capsys.readouterr().out.splitlines()[1].split(",")))
    assert 0.0 < float(row["I3"]) < 1e-24 and row["xi_sq"] == "nan"


def test_analyze_reads_asymmetric_pair_data_as_a_plain_state(tmp_path, capsys):
    """T - T^T = 2e-9 is past the symmetry rule's DEFAULT_TOL: analyze
    reports a valid state with symmetric = false."""
    state = random_symmetric_state(3, seed=5)
    t = state.T + 1e-9 * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    path = tmp_path / "state.json"
    path.write_text(json.dumps(_rho_obj(rho_from_bloch(state.s, state.s, t))))
    assert main(["analyze", str(path), "--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["symmetric"] is False


_EDGE_MULTIPLES = st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 2.0, 100.0])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 3),
       eps=st.lists(st.tuples(_EDGE_MULTIPLES, st.sampled_from([-1.0, 1.0])),
                    min_size=4, max_size=4))
def test_analyze_accepts_every_state_at_the_symmetry_edge(perturbed_triplet, tmp_path_factory,
                                                          seed, rank, eps):
    """analyze exits 0 on the file of every state the constructor accepts,
    with r - s, T - T^T, Tr T - 1 and Tr rho - 1 moved by up to 1e-8, and
    reports the state's own symmetric field."""
    rho = perturbed_triplet(seed, rank, [k * sign * 1e-10 for k, sign in eps])
    try:
        symmetric = states.TwoQubitState(rho).symmetric
    except symsq.errors.SymsqError:
        return
    path = tmp_path_factory.mktemp("edge") / "state.json"
    path.write_text(json.dumps(_rho_obj(rho)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", str(path), "--N", "2,10,100", "--format", "json"])
    assert (code, err.getvalue()) == (EXIT_OK, "")
    assert json.loads(out.getvalue())["symmetric"] is symmetric
