"""Command-line interface: analyze a state file, sweep a model, verify.

Exit codes: 0 success, 1 verification failure, 2 invalid state,
3 state-file parse error, 4 invalid sweep range, model or N.
The environment variable SYMSQ_TOL overrides the default sign-test
tolerance, numerics.SIGN_TOL.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import models, oracle
from .collective import check_n, classify_invariants, pair_from_moments, squeezing
from .covariance import bar_invariants, c_negativity_test, collective_criterion
from .errors import SymsqError, ZeroMeanSpin
from .invariants import makhlin_all, separability_flags, symmetric_six
from .numerics import SIGN_TOL, hermitian_eigenvalues
from .states import (
    SymmetricTwoQubitState,
    apply_local_unitaries,
    haar_unitary_2x2,
    load_state_file,
    partial_transpose,
    random_special_class,
    random_symmetric_state,
    symmetric_from_special,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_INVALID_STATE = 2
EXIT_PARSE_ERROR = 3
EXIT_BAD_RANGE = 4


def _tol() -> float:
    raw = os.environ.get("SYMSQ_TOL")
    if raw is None:
        return SIGN_TOL
    try:
        val = float(raw)
    except ValueError as exc:
        raise SymsqError(f"SYMSQ_TOL is not a number: {raw!r}") from exc
    if not (val > 0 and math.isfinite(val)):
        raise SymsqError("SYMSQ_TOL must be a positive finite number")
    return val


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
    tol = _tol()
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
        sym = state if isinstance(state, SymmetricTwoQubitState) \
            else SymmetricTwoQubitState(state.rho)
    except SymsqError:
        sym = None

    try:
        n_values = _parse_n_list(args.N)
    except SymsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    pt_eigs = hermitian_eigenvalues(partial_transpose(state))
    report = {
        "input": os.fspath(args.path),
        "symmetric": sym is not None,
        "bloch": {
            "s": list(state.s),
            "r": list(state.r),
            "T": [list(row) for row in state.T],
        },
        "ppt_min_eigenvalue": float(pt_eigs[0]),
        "makhlin": makhlin_all(state).as_dict(),
    }
    if sym is not None:
        inv = symmetric_six(sym)
        flags = separability_flags(inv, tol)
        bars = bar_invariants(sym, tol)
        c_min, c_neg = c_negativity_test(sym, tol)
        cls = classify_invariants(inv, tol)
        report["invariants"] = inv.as_dict()
        report["flags"] = {
            "I4_negative": flags.I4_negative,
            "I5_negative": flags.I5_negative,
            "I4_minus_I3sq_negative": flags.I4_minus_I3sq_negative,
            "I1_negative_with_I3_zero": flags.I1_negative_with_I3_zero,
        }
        report["bar_invariants"] = {
            "bar1": bars.bar1, "bar2": bars.bar2,
            "bar3": bars.bar3, "bar4": bars.bar4,
            "entangled": bars.entangled,
        }
        report["c_min_eigenvalue"] = c_min
        report["entangled"] = c_neg
        report["classification"] = cls.branch.value
        collective = []
        for n in n_values:
            crit = collective_criterion(sym.s, sym.T, n, tol)
            try:
                xi_sq = squeezing(sym.s, sym.T, n).xi_sq
            except ZeroMeanSpin:
                xi_sq = float("nan")
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

def _parse_range(raw: str):
    parts = raw.split(":")
    if len(parts) != 3:
        raise SymsqError("range must be lo:hi:steps")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SymsqError(f"invalid range {raw!r}") from exc
    if steps < 1 or not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
        raise SymsqError("range requires finite lo <= hi and steps >= 1")
    if steps == 1:
        return [lo]
    return list(np.linspace(lo, hi, steps))


def _sweep_rows(args):
    tol = _tol()
    n_values = _parse_n_list(args.N)
    if args.model == "dicke" and args.param_range is None:
        rows = []
        for n in n_values:
            params = [m / 2.0 for m in range(-n, n + 1, 2)]
            rows.extend(models.sweep("dicke", params, [n], tol))
        return rows
    if args.param_range is None:
        raise SymsqError("--param-range is required for this model")
    params = _parse_range(args.param_range)
    return models.sweep(args.model, params, n_values, tol)


def _csv_cell(v) -> str:
    return "nan" if isinstance(v, float) and math.isnan(v) else _scalar_text(v)


def cmd_sweep(args) -> int:
    try:
        rows = _sweep_rows(args)
    except SymsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_RANGE
    records = [r.as_record() for r in rows]
    if args.format == "json":
        payload = _to_json(records) + "\n"
    else:
        lines = [",".join(models.SWEEP_FIELDS)]
        for rec in records:
            lines.append(",".join(_csv_cell(rec[k]) for k in models.SWEEP_FIELDS))
        payload = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify

def _suite_invariance(rng, count, tol):
    worst = 0.0
    for _ in range(count):
        base = symmetric_from_special(random_special_class(rng)) \
            if rng.random() < 0.5 else random_symmetric_state(3, rng)
        u1 = haar_unitary_2x2(rng)
        u2 = haar_unitary_2x2(rng)
        rotated = apply_local_unitaries(base, u1, u2)
        a = makhlin_all(base).values
        b = makhlin_all(rotated).values
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    return worst, worst < tol


def _suite_ppt_c(rng, count, tol):
    mismatches = 0
    for _ in range(count):
        state = random_symmetric_state(3, rng)
        w = hermitian_eigenvalues(partial_transpose(state))
        ppt_neg = w[0] < -tol
        _, c_neg = c_negativity_test(state, tol)
        if ppt_neg != c_neg and abs(w[0]) > 10 * tol:
            mismatches += 1
    return mismatches, mismatches == 0


def _suite_xi_i5(rng, count, tol):
    mismatches = 0
    for _ in range(count):
        state = random_symmetric_state(3, rng)
        inv = symmetric_six(state)
        if inv.I3 <= 1e-6:
            continue
        xi_sq = squeezing(state.s, state.T, 2).xi_sq
        squeezed = xi_sq < 1.0 - tol
        i5_neg = inv.I5 < -tol
        if squeezed != i5_neg and abs(inv.I5) > 10 * tol:
            mismatches += 1
    return mismatches, mismatches == 0


def _suite_oracle(n_values, tol_closed, tol_atomic):
    worst = 0.0
    worst_atomic = 0.0
    for n in n_values:
        for m2 in range(-n, n + 1, 2):
            st, _ = models.dicke_pair(n, m2 / 2.0)
            s, t = st.bloch()
            so, to = pair_from_moments(
                oracle.moments_of(oracle.build_dicke_state(n, m2 / 2.0)))
            worst = max(worst, float(np.max(np.abs(s - so))),
                        float(np.max(np.abs(t - to))))
        for ct in np.linspace(0.0, np.pi, 11):
            s, t, _ = models.ku_pair(n, float(ct))
            so, to = pair_from_moments(oracle.moments_of(oracle.evolve_ku(n, float(ct))))
            worst = max(worst, float(np.max(np.abs(s - so))),
                        float(np.max(np.abs(t - to))))
        if n % 2 == 0:
            for x in (0.1, 0.5, 0.9):
                s, t, _ = models.atomic_pair(n, x)
                so, to = pair_from_moments(
                    oracle.moments_of(oracle.build_atomic_state(n, 0.5 * math.log(x))))
                worst_atomic = max(worst_atomic, float(np.max(np.abs(s - so))),
                                   float(np.max(np.abs(t - to))))
    return max(worst, worst_atomic), worst < tol_closed and worst_atomic < tol_atomic


def cmd_verify(args) -> int:
    tol = _tol() * args.tolerance_scale
    rng = np.random.default_rng(args.seed)
    if args.level == "full":
        count, n_values = 10_000, range(2, 11)
    else:
        count, n_values = 200, (2, 3, 4, 6)

    results = []
    dev, ok = _suite_invariance(rng, count, 1e-9 * args.tolerance_scale)
    results.append(("local_unitary_invariance", f"max drift {dev:.3e}", ok))
    mism, ok = _suite_ppt_c(rng, count, tol)
    results.append(("ppt_equals_c_negativity", f"{mism} disagreements / {count}", ok))
    mism, ok = _suite_xi_i5(rng, count, tol)
    results.append(("squeezing_equals_I5_sign", f"{mism} disagreements / {count}", ok))
    dev, ok = _suite_oracle(n_values, 1e-9 * args.tolerance_scale,
                            1e-8 * args.tolerance_scale)
    results.append(("models_vs_oracle", f"max deviation {dev:.3e}", ok))

    failed = False
    for name, detail, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed = failed or not ok
    return EXIT_VERIFY_FAIL if failed else EXIT_OK


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
    p_ve.add_argument("--seed", type=int, default=42)
    p_ve.add_argument("--tolerance-scale", type=float, default=1.0,
                      help=argparse.SUPPRESS)  # test hook for the failure path
    p_ve.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SymsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_STATE


if __name__ == "__main__":
    sys.exit(main())
