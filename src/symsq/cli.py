"""Command-line interface: analyze a state file, sweep a model, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid state,
3 state-file parse error, 4 invalid sweep range, model, N or --out path.
The environment variable SYMSQ_TOL, read once by main, overrides the
default sign-test tolerance, numerics.SIGN_TOL.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import models, oracle
from .collective import _xi_sq_defined, check_n, classify_invariants, pair_from_moments, squeezing
from .covariance import bar_invariants, c_negativity_test, collective_criterion
from .errors import SymsqError
from .invariants import makhlin_all, separability_flags, symmetric_six, symmetric_six_from_bloch
from .numerics import SIGN_TOL, _below, _check_int, check_tol, hermitian_eigenvalues
from .states import (
    apply_local_unitaries,
    haar_unitary_2x2,
    load_state_file,
    partial_transpose,
    random_symmetric_state,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID_STATE = 2
EXIT_PARSE_ERROR = 3
EXIT_BAD_RANGE = 4


def _tol() -> float:
    """SYMSQ_TOL as a sign-test margin; SIGN_TOL when it is not set."""
    raw = os.environ.get("SYMSQ_TOL", repr(SIGN_TOL))
    try:
        return check_tol(float(raw), "SYMSQ_TOL")
    except ValueError:
        raise SymsqError(f"SYMSQ_TOL is not a number: {raw!r}") from None


# ----------------------------------------------------------------------
# Deterministic serialization: floats at 17 significant digits in JSON,
# identical values in the text and CSV renderings.

def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "null"
    if math.isinf(v):
        return '"Infinity"' if v > 0 else '"-Infinity"'
    return format(float(v), ".17g")


def _scalar_text(v) -> str:
    """A scalar as text; JSON adds quotes to strings and CSV writes NaN as nan."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (float, np.floating)):
        return _fmt_float(float(v))
    return str(v)


def _to_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {_to_json(v, indent + 1)}'
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (float, np.floating)) and obj == 0.0 and math.copysign(1.0, obj) < 0.0:
        return "-0.0"  # "-0" reads back as the integer 0, without its sign
    return _scalar_text(obj)


def _render_text(obj, prefix: str = "") -> list:
    lines = []
    for k, v in obj.items() if isinstance(obj, dict) else enumerate(obj):
        key = f"{prefix}{k}"
        if isinstance(v, (dict, list, tuple)):
            lines.extend(_render_text(v, key + "."))
        else:
            lines.append(f"{key} = {_scalar_text(v)}")
    return lines


# ----------------------------------------------------------------------
# analyze

def _parse_n_list(raw: str) -> list:
    try:
        values = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError as exc:
        raise SymsqError(f"invalid N list: {raw!r}") from exc
    if not values:
        raise SymsqError("the N list is empty")
    return [check_n(n) for n in values]


def cmd_analyze(args) -> int:
    t0 = time.perf_counter()
    try:
        state = load_state_file(args.path)
    except (json.JSONDecodeError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: cannot parse state file: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except SymsqError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE

    try:
        n_values = _parse_n_list(args.N)
    except SymsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    pt_eigs = hermitian_eigenvalues(partial_transpose(state))
    report = {
        "input": os.fspath(args.path),
        "symmetric": state.symmetric,
        "bloch": {
            "s": list(state.s),
            "r": list(state.r),
            "T": [list(row) for row in state.T],
        },
        "ppt_min_eigenvalue": float(pt_eigs[0]),
        "makhlin": makhlin_all(state).as_dict(),
    }
    if state.symmetric:
        inv = symmetric_six(state)
        flags = separability_flags(inv, args.tol)
        bars = bar_invariants(state, args.tol)
        c_min, c_neg = c_negativity_test(state, args.tol)
        cls = classify_invariants(inv, args.tol)
        report["invariants"] = inv.as_dict()
        report["flags"] = dataclasses.asdict(flags)
        report["bar_invariants"] = dataclasses.asdict(bars)
        report["c_min_eigenvalue"] = c_min
        report["entangled"] = c_neg
        report["classification"] = cls.branch.value
        spin = _xi_sq_defined(inv.I3, args.tol)
        collective = []
        for n in n_values:
            crit = collective_criterion(state.s, state.T, n, args.tol)
            xi_sq = squeezing(state.s, state.T, n).xi_sq if spin else float("nan")
            collective.append({
                "N": n,
                "witness_min_eigenvalue": crit.min_eig,
                "threshold": n / 4.0,
                "entangled": crit.entangled,
                "xi_sq": xi_sq,
            })
        report["collective"] = collective
    report["elapsed_ms"] = (time.perf_counter() - t0) * 1e3

    if args.format == "json":
        print(_to_json(report))
    else:
        print("\n".join(_render_text(report)))
    return EXIT_OK


# ----------------------------------------------------------------------
# sweep

# Most rows one sweep call builds.  A row peaks at about 1.4 KB of RSS in
# JSON (its columns, its model stack and its text; 1.1 KB in CSV), so 2^17
# rows take about 185 MB and under 2 s (2-vCPU Xeon).
_MAX_SWEEP_ROWS = 2**17


def _check_rows(rows: int) -> None:
    """Raise SymsqError, before a row is built, past _MAX_SWEEP_ROWS rows."""
    if rows > _MAX_SWEEP_ROWS:
        raise SymsqError(f"a sweep builds at most {_MAX_SWEEP_ROWS} rows, not {rows}")


def _parse_range(raw: str, n_count: int = 1):
    """lo:hi:steps as the list of steps parameter values, refused before it
    is built when steps rows at each of n_count N pass the row cap."""
    parts = raw.split(":")
    if len(parts) != 3:
        raise SymsqError("range must be lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SymsqError(f"invalid range {raw!r}") from exc
    if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise SymsqError("range requires finite lo <= hi and steps >= 1")
    _check_rows(steps * n_count)
    if steps == 1:
        return [lo]
    return list(np.linspace(lo, hi, steps))


def _sweep_columns(args) -> dict:
    n_values = _parse_n_list(args.N)
    if args.model == "dicke" and args.param_range is None:
        _check_rows(sum(n + 1 for n in n_values))
        tables = [models.sweep("dicke", [m / 2.0 for m in range(-n, n + 1, 2)], [n], args.tol)
                  for n in n_values]
        columns = tables[0].columns
        for table in tables[1:]:
            for k, col in columns.items():
                col.extend(table.columns[k])
        return columns
    if args.param_range is None:
        raise SymsqError("--param-range is required for this model")
    params = _parse_range(args.param_range, len(n_values))
    return models.sweep(args.model, params, n_values, args.tol).columns


def _csv_cell(v) -> str:
    return "nan" if isinstance(v, float) and math.isnan(v) else _scalar_text(v)


# The text %.17g writes for a float whose cell text differs, in CSV and in
# JSON: an infinity, and in JSON a NaN or a negative zero.
_ODD_TEXT = {False: frozenset({"inf", "-inf"}), True: frozenset({"nan", "inf", "-inf", "-0"})}


def _column_cells(col: list, json_out: bool) -> tuple:
    """A sweep column's piece of the row template and the values that go
    into it, None for a piece of literal text.

    A str or int column of one value is literal text, its '%' escaped; any
    other goes in under %s, rendered once per distinct value.  A float
    column goes in raw under %.17g, which writes _fmt_float's text for a
    finite float and _csv_cell's for a NaN.  A float column with a cell
    whose text differs (_ODD_TEXT) is formatted in bulk under %.17g, and
    goes in under %s with only those cells replaced by the cell renderer's
    text.
    """
    cell = _to_json if json_out else _csv_cell
    if not (col and isinstance(col[0], float)):
        if col and col.count(col[0]) == len(col):
            return cell(col[0]).replace("%", "%%"), None
        memo = {v: cell(v) for v in set(col)}
        return "%s", [memo[v] for v in col]
    if json_out:
        raw = all(map(math.isfinite, col)) and 0.0 not in col
    else:
        raw = not any(map(math.isinf, col))
    if raw:
        return "%.17g", col
    cells = (",".join(["%.17g"] * len(col)) % tuple(col)).split(",")
    odd = _ODD_TEXT[json_out]
    for i, text in enumerate(cells):
        if text in odd:
            cells[i] = cell(col[i])
    return "%s", cells


def _render_sweep(columns: dict, fmt: str) -> str:
    """CSV or JSON of sweep columns, byte for byte what _csv_cell and
    _to_json write for the rows' as_record() dicts: one %-template, with
    the one-valued columns written into it, filled once per row."""
    fields = models.SWEEP_FIELDS
    specs, cols = zip(*(_column_cells(columns[k], fmt == "json") for k in fields))
    # The float columns are never literal, so the rows are those of the rest.
    values = zip(*[col for col in cols if col is not None])
    if fmt == "json":
        if not columns[fields[0]]:
            return "[]\n"
        row = "  {\n" + ",\n".join(f"    {json.dumps(k)}: {spec}"
                                    for k, spec in zip(fields, specs)) + "\n  }"
        return "[\n" + ",\n".join([row % v for v in values]) + "\n]\n"
    row = ",".join(specs)
    return "\n".join([",".join(fields)] + [row % v for v in values]) + "\n"


def cmd_sweep(args) -> int:
    try:
        columns = _sweep_columns(args)
    except SymsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    payload = _render_sweep(columns, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_BAD_RANGE
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify

# The four suites below are also acceptance criteria 08, 04, 05 and 06;
# their fixed bounds are part of the gate and must not be loosened.

# Most samples one suite call draws: ten times verify --level full's 10^4.
# suite_invariance, the slowest suite, takes about 0.48 ms a sample
# (2-vCPU Xeon), so about 50 s at the cap.
_MAX_SUITE_COUNT = 10**5


def _suite_args(count, tol) -> tuple:
    """A suite's count as an int in 1.._MAX_SUITE_COUNT and its tol, checked
    before anything is drawn."""
    return _check_int(count, "count", 1, _MAX_SUITE_COUNT), check_tol(tol)


def suite_invariance(rng, count, tol):
    """The 18 invariants under count Haar pairs u1 (x) u2, then I1..I6 and
    the branch under count // 5 pairs u (x) u.  Returns (drift, flips, ok)."""
    count, tol = _suite_args(count, tol)
    drift = 0.0
    for _ in range(count):
        state = random_symmetric_state(3, rng)
        u1, u2 = haar_unitary_2x2(rng), haar_unitary_2x2(rng)
        rotated = apply_local_unitaries(state, u1, u2)
        a, b = makhlin_all(state).values, makhlin_all(rotated).values
        drift = max(drift, max(abs(x - y) for x, y in zip(a, b)))
    flips = 0
    for _ in range(count // 5):
        state = random_symmetric_state(3, rng)
        u = haar_unitary_2x2(rng)
        rotated = apply_local_unitaries(state, u, u)
        inv_a = symmetric_six(state)
        inv_b = symmetric_six_from_bloch(rotated.s, rotated.T)
        for k in ("I1", "I2", "I3", "I4", "I5", "I6"):
            drift = max(drift, abs(getattr(inv_a, k) - getattr(inv_b, k)))
        ca, cb = classify_invariants(inv_a, tol), classify_invariants(inv_b, tol)
        if ca.branch != cb.branch and ca.margin > 1e-7:
            flips += 1
    return drift, flips, drift < 1e-9 and flips == 0


def suite_ppt_c(rng, count, tol):
    """PPT (LAPACK eigvalsh of the partial transpose) vs C < 0 on count
    states of rank 1..3, and the witness minimum at N = 10, which the
    library reads from C as (N/4)(1 + (N - 1) min eig(C)), vs eigvalsh of
    the witness matrix it builds from the moments.  Returns
    (disagreements, witness deviation, ok)."""
    count, tol = _suite_args(count, tol)
    disagreements = 0
    witness_dev = 0.0
    for _ in range(count):
        state = random_symmetric_state(int(rng.integers(1, 4)), rng)
        w = np.linalg.eigvalsh(partial_transpose(state))
        _, c_neg = c_negativity_test(state, tol)
        if _below(w[0], tol)[0] != c_neg:
            disagreements += 1
        crit = collective_criterion(state.s, state.T, 10, tol)
        witness_dev = max(witness_dev,
                          abs(np.linalg.eigvalsh(crit.witness_matrix)[0] - crit.min_eig))
    return disagreements, witness_dev, disagreements == 0 and witness_dev < 1e-10


def suite_xi_i5(rng, count, tol):
    """sign(xi^2 - 1) = sign(I5) on count random rank-3 states with
    sqrt(I3) > 0.1, then on KU sweeps at N = 4, 6, 8, skipping the band
    |I5| <= tol.  Returns (disagreements, compared, skipped, ok)."""
    count, tol = _suite_args(count, tol)

    def samples():
        checked = 0
        while checked < count:
            state = random_symmetric_state(3, rng)
            inv = symmetric_six(state)
            if math.sqrt(inv.I3) > 0.1:
                checked += 1
                yield state.s, state.T, 2, inv
        for n in (4, 6, 8):
            for ct in np.linspace(0.05, 1.5, 40):
                s, t, inv = models.ku_pair(n, float(ct))
                if inv.I3 >= 0.01:
                    yield s, t, n, inv

    disagreements = compared = skipped = 0
    for s, t, n, inv in samples():
        if _below(inv.I5, tol)[0] or _below(-inv.I5, tol)[0]:
            compared += 1
            disagreements += (squeezing(s, t, n).xi_sq < 1.0) != (inv.I5 < 0.0)
        else:
            skipped += 1
    return disagreements, compared, skipped, disagreements == 0


def _bloch_dev(s, t, moments) -> float:
    so, to = pair_from_moments(moments)
    return max(float(np.max(np.abs(s - so))), float(np.max(np.abs(t - to))))


def suite_oracle(n_values):
    """Closed forms vs the simulator at each N: every Dicke M, 50 KU points
    (and <J3> = -(N/2) cos^(N-1) chi t), 25 atomic points at even N.
    Returns (Dicke/KU deviation, atomic deviation, <J3> deviation, ok)."""
    dev_closed = dev_atomic = dev_j3 = 0.0
    for n in map(check_n, n_values):
        for m2 in range(-n, n + 1, 2):
            state, _ = models.dicke_pair(n, m2 / 2)
            dev_closed = max(dev_closed, _bloch_dev(
                *state.bloch(), oracle.moments_of(oracle.build_dicke_state(n, m2 / 2))))
        for ct in np.linspace(0.0, np.pi, 50):
            m = oracle.moments_of(oracle.evolve_ku(n, float(ct)))
            dev_j3 = max(dev_j3, abs(m.j_mean[2] + 0.5 * n * np.cos(ct) ** (n - 1)))
            s, t, _ = models.ku_pair(n, float(ct))
            dev_closed = max(dev_closed, _bloch_dev(s, t, m))
        if n % 2 == 0:
            for x in np.linspace(0.02, 0.98, 25):
                s, t, _ = models.atomic_pair(n, float(x))
                dev_atomic = max(dev_atomic, _bloch_dev(
                    s, t, oracle.moments_of(oracle.build_atomic_state(n, 0.5 * math.log(x)))))
    ok = dev_closed < 1e-9 and dev_atomic < 1e-8 and dev_j3 < 1e-10
    return dev_closed, dev_atomic, dev_j3, ok


def cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.level == "full":
        count, n_values = 10_000, range(2, 11)
    else:
        count, n_values = 200, (2, 3, 4, 6)

    results = []
    drift, flips, ok = suite_invariance(rng, count, args.tol)
    results.append(("local_unitary_invariance",
                    f"max drift {drift:.3e}, {flips} branch flips / {count // 5}", ok))
    mism, witness_dev, ok = suite_ppt_c(rng, count, args.tol)
    results.append(("ppt_equals_c_negativity",
                    f"{mism} disagreements / {count}, witness dev {witness_dev:.3e}", ok))
    mism, compared, skipped, ok = suite_xi_i5(rng, count, args.tol)
    results.append(("squeezing_equals_I5_sign", f"{mism} disagreements / {compared} "
                    f"compared, {skipped} skipped in |I5| <= tol band", ok))
    dev, dev_atomic, dev_j3, ok = suite_oracle(n_values)
    results.append(("models_vs_oracle", f"max deviation {dev:.3e}, "
                    f"atomic {dev_atomic:.3e}, <J3> {dev_j3:.3e}", ok))
    for name, detail, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return EXIT_OK if all(ok for *_, ok in results) else EXIT_VERIFY_FAIL


# ----------------------------------------------------------------------

def _seed(raw: str) -> int:
    """--seed as an int >= 0, as np.random.default_rng takes it."""
    if not raw.strip().lstrip("+").isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer: {raw!r}")
    return int(raw)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls."""
    parser = argparse.ArgumentParser(
        prog="symsq",
        description="Pairwise entanglement invariants for symmetric qubit systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="analyze a two-qubit state file")
    p_an.add_argument("path", help="JSON state file with 'rho', 'bloch' or 'special'")
    p_an.add_argument("--N", default="2",
                      help="comma-separated N values for the collective criterion")
    p_an.add_argument("--format", choices=("json", "text"), default="text")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = sub.add_parser("sweep", help="sweep a model over a parameter range")
    p_sw.add_argument("--model", required=True, choices=models.MODEL_NAMES)
    p_sw.add_argument("--N", default="2", help="comma-separated N values")
    p_sw.add_argument("--param-range", default=None,
                      help="lo:hi:steps (omit for dicke to cover all valid M)")
    p_sw.add_argument("--out", default=None, help="output path (default stdout)")
    p_sw.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sw.set_defaults(func=cmd_sweep)

    p_ve = sub.add_parser("verify", help="run the randomized property suites")
    p_ve.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ve.add_argument("--seed", type=_seed, default=42)
    p_ve.set_defaults(func=cmd_verify)
    return parser


def _fold_param_range(argv) -> list:
    """'--param-range VALUE', or an abbreviation such as '--param VALUE', as
    '--param-range=VALUE', so argparse takes a negative lower bound such as
    -1:1:5 as the value, not as an option."""
    out = []
    for tok in argv:
        if (out and len(out[-1]) > 2 and "--param-range".startswith(out[-1])
                and not tok.startswith("--")):
            out[-1] = f"--param-range={tok}"
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_fold_param_range(argv))
    try:
        args.tol = _tol()  # read once, for every command
        return args.func(args)
    except SymsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE


if __name__ == "__main__":
    sys.exit(main())
