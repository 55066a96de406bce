"""Write the CLI output corpus that tests/test_cli_corpus.py replays.

    PYTHONPATH=src python3 tests/make_cli_corpus.py tests/cli_corpus

It writes about fifty seeded state files to OUT/states/ and, to
OUT/expected.json, the exit code, stdout and stderr of each recorded
command, run in process through symsq.cli.main from OUT as the working
directory with SYMSQ_TOL unset:

* `analyze` in text and JSON at --N 2,3,10,100 on every state file, with
  the elapsed_ms entry dropped;
* ku, atomic and dicke sweeps in CSV and JSON, and one refused range;
* `verify --level quick`.

The states come from the package's samplers and models only: triplet
states of rank 1..3, separable states, Ginibre states (also under local
unitaries), special-class states with c - |b| at 0 and at +-2 SIGN_TOL and
with a = d (I3 = 0), with |s| below 1e-4 and at the positivity edge, the
Bell corner, ku, atomic and Dicke pair data, ku data on both sides of the
symmetry rule, and files that fail to parse or hold an invalid state.  Run it with the symsq
tree whose outputs are to be the reference; the corpus is a record of
that tree's behaviour, not of this script's.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

import numpy as np

from symsq import cli, models
from symsq.numerics import SIGN_TOL
from symsq.states import (
    apply_local_unitaries,
    haar_unitary_2x2,
    random_separable_symmetric,
    random_special_class,
    random_symmetric_state,
)

SEED = 20240601
N_LIST = "2,3,10,100"
# elapsed_ms is the one entry of an analyze report that is not a result.
_ELAPSED = re.compile(r'^elapsed_ms = [^\n]*\n|,\n  "elapsed_ms": [^\n]*(?=\n\})', re.M)


def without_elapsed(text: str) -> str:
    """An analyze report, text or JSON, without its elapsed_ms entry."""
    return _ELAPSED.sub("", text)


def run(argv) -> dict:
    """{"argv", "exit", "stdout", "stderr"} of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": without_elapsed(out.getvalue()), "stderr": err.getvalue()}


def _rho_file(rho) -> dict:
    return {"rho": [[[float(z.real), float(z.imag)] for z in row] for row in rho]}


def _bloch_file(s, t) -> dict:
    s = [float(v) for v in s]
    return {"bloch": {"s": s, "r": s, "T": [[float(v) for v in row] for row in t]}}


def _special_file(a, b, c, d) -> dict:
    return {"special": {"a": a, "b": b, "c": c, "d": d}}


def state_files(rng) -> dict:
    """name -> file text of every corpus state."""
    files = {}
    for rank in (1, 2, 3):
        for k in range(3):
            files[f"triplet_rank{rank}_{k}"] = _rho_file(random_symmetric_state(rank, rng).rho)
    for k, terms in enumerate((1, 3, 5)):
        files[f"separable_{k}"] = _rho_file(random_separable_symmetric(terms, rng).rho)
    for k, rank in enumerate((4, 2, 1)):
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        files[f"ginibre_{k}"] = _rho_file(rho / np.trace(rho).real)
    state = apply_local_unitaries(random_symmetric_state(3, rng),
                                  haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    files["rotated_triplet"] = _rho_file(state.rho)
    for k in range(3):
        p = random_special_class(rng)
        files[f"special_random_{k}"] = _special_file(p.a, p.b, p.c, p.d)
    # c - |b| at 0 and at +-2 SIGN_TOL, with a mean spin (a != d) and without.
    for a, d in ((0.35, 0.25), (0.3, 0.3)):
        for name, gap in (("zero", 0.0), ("plus", 2 * SIGN_TOL), ("minus", -2 * SIGN_TOL)):
            for sign in (1.0, -1.0):
                tag = f"{'spin' if a != d else 'a_eq_d'}_gap_{name}_b{'+' if sign > 0 else '-'}"
                files[f"special_{tag}"] = _special_file(a, sign * (0.2 - gap), 0.2, d)
    files["special_a_eq_d_separable"] = _special_file(0.3, 0.1, 0.2, 0.3)
    files["special_a_eq_d_entangled"] = _special_file(0.3, 0.25, 0.2, 0.3)
    # I3 = 9e-10, below SIGN_TOL: no mean spin by the classification's rule.
    files["special_spin_below_tol"] = _special_file(0.3 + 1.5e-5, 0.1, 0.2, 0.3 - 1.5e-5)
    # b^2 = ad: the least eigenvalue of the outer block is zero.
    files["special_psd_edge"] = _special_file(0.36, 0.24, 0.24, 0.16)
    files["bell_special"] = _special_file(0.0, 0.0, 0.5, 0.0)
    files["bell_bloch"] = _bloch_file([0.0, 0.0, 0.0], np.diag([1.0, 1.0, -1.0]))
    for n, ct in ((4, 0.1), (4, 0.6), (10, 0.3), (100, 0.02)):
        s, t, _ = models.ku_pair(n, ct)
        files[f"ku_N{n}_{ct}"] = _bloch_file(s, t)
    # r off s by half and by twice the symmetry rule's DEFAULT_TOL.
    for name, off in (("in", 5e-11), ("out", 2e-10)):
        obj = _bloch_file(s, t)
        obj["bloch"]["r"] = [v + off for v in obj["bloch"]["s"]]
        files[f"ku_symmetry_edge_{name}"] = obj
    for n, x in ((4, 0.8), (10, 0.5), (100, 0.9)):
        s, t, _ = models.atomic_pair(n, x)
        files[f"atomic_N{n}_{x}"] = _bloch_file(s, t)
    for n, m in ((4, 0.0), (4, 1.0), (7, 0.5)):
        state, _ = models.dicke_pair(n, m)
        files[f"dicke_N{n}_M{m}"] = _special_file(state.a, state.b, state.c, state.d)
    texts = {name: json.dumps(obj) for name, obj in files.items()}
    texts.update({
        "invalid_not_json": "{\"rho\": [[",
        "invalid_two_keys": json.dumps({**_special_file(0.5, 0.0, 0.25, 0.0),
                                        **_bloch_file([0, 0, 0], np.eye(3) / 3)}),
        "invalid_rho_shape": json.dumps({"rho": [[1, 0], [0, 0]]}),
        "invalid_not_positive": json.dumps(_special_file(0.5, 0.6, 0.0, 0.5)),
        "invalid_trace": json.dumps(_special_file(0.5, 0.0, 0.25, 0.25)),
        "invalid_nan": '{"special": {"a": NaN, "b": 0.0, "c": 0.25, "d": 0.5}}',
        "invalid_not_hermitian": json.dumps(_rho_file(np.diag([1.0, 0, 0, 0]) + np.eye(4, k=1))),
    })
    return texts


def commands(names) -> list:
    """The argv of every recorded command."""
    argv = [["analyze", f"states/{name}.json", "--N", N_LIST, "--format", fmt]
            for name in names for fmt in ("text", "json")]
    for fmt in ("csv", "json"):
        argv += [
            ["sweep", "--model", "ku", "--N", "4,10", "--param-range", "0.05:1.5:12",
             "--format", fmt],
            ["sweep", "--model", "atomic", "--N", "4,100", "--param-range", "0.05:0.95:10",
             "--format", fmt],
            ["sweep", "--model", "dicke", "--N", "2,3,10", "--format", fmt],
            ["sweep", "--model", "dicke", "--N", "6", "--param-range", "-3:3:7",
             "--format", fmt],
        ]
    argv += [["sweep", "--model", "ku", "--param-range", "1:0:3"],
             ["verify", "--level", "quick"]]
    return argv


def main(out: Path) -> None:
    texts = state_files(np.random.default_rng(SEED))
    (out / "states").mkdir(parents=True, exist_ok=True)
    for name, text in texts.items():
        (out / "states" / f"{name}.json").write_text(text + "\n", encoding="utf-8")
    os.environ.pop("SYMSQ_TOL", None)
    here = Path.cwd()
    os.chdir(out)
    try:
        cases = [run(argv) for argv in commands(sorted(texts))]
    finally:
        os.chdir(here)
    (out / "expected.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve())
