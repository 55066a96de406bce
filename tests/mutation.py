"""Mutation check: do the tests catch the faults that matter?

    python3 tests/mutation.py              # every mutant
    python3 tests/mutation.py ID [ID ...]  # the named mutants

Each row of MUTANTS is one fault: a file of src/symsq, one exact snippet
of it, the snippet's replacement and the test node ids expected to fail
once it is applied.  The script refuses the table, before it runs
anything, if a snippet is not found exactly once.  For each mutant it
copies src/, tests/ and pyproject.toml into a temporary directory,
applies the mutant there and runs

    python -m pytest -q -x -p no:cacheprovider <the row's tests>

against the copy, one pytest process at a time; it never writes to the
working tree.  A mutant is killed when pytest fails and survives when the
named tests pass.  Before the mutants, the union of all named tests runs
once on an unmutated copy: a test that fails there kills nothing.

A survivor is a missing test, or an equivalent mutant: a row that cannot
be killed says why in its `equivalent` field.  Exit status 0 when every
mutant is killed or noted as equivalent, 1 when one survives, 2 when the
table or the unmutated run is refused.

Stdlib only.  Pytest does not collect this file: it collects test_*.py.
This is mutation testing in the sense of DeMillo, Lipton and Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    id: str
    path: str            # relative to src/symsq
    snippet: str         # found exactly once in path
    replacement: str
    tests: tuple         # pytest node ids, relative to the repository root
    equivalent: str = ""  # why no test can kill it, for a row that survives


_STRICT = "tests/test_hygiene.py::test_every_sign_test_is_strict"

MUTANTS = (
    # One integer gate, one home for each qubit-count rule.
    Mutant("int-gate-takes-bool", "numerics.py",
           "if isinstance(value, bool) or not isinstance(value, (int, np.integer))",
           "if not isinstance(value, (int, np.integer))",
           ("tests/test_oracle.py::test_j_operators_validation",)),
    Mutant("check-n-from-one", "collective.py",
           'return _check_int(n, "N", 2, error=InvalidN)',
           'return _check_int(n, "N", 1, error=InvalidN)',
           ("tests/test_collective.py::test_every_n_entry_shares_one_check",)),
    Mutant("collective-state-unchecked-n", "oracle.py",
           'n = _check_int(self.N, "N", 1, error=InvalidN)',
           "n = self.N",
           ("tests/test_oracle.py::test_collective_state_shape_check",)),
    Mutant("parity-in-floats", "collective.py",
           "(twom % 2 != n % 2)",
           "((n + twom) % 2 != 0)",
           ("tests/test_models.py::test_spin_label_parity_is_exact_at_any_n",)),
    Mutant("even-n-dropped", "collective.py",
           '    if n % 2:\n        raise ParityViolation("the steady state requires an even N")\n',
           "",
           ("tests/test_models.py::test_atomic_validation",
            "tests/test_oracle.py::test_atomic_state_parity")),
    Mutant("xi-sq-without-zero-spin", "collective.py",
           "return (I3 > tol) & (np.sqrt(I3) > ZERO_SPIN_TOL)",
           "return I3 > tol",
           ("tests/test_cli.py::test_xi_sq_needs_an_axis_below_any_tol",)),
    # One moment map, one triplet basis.
    Mutant("moment-map-factor", "collective.py",
           "j_second = 0.25 * n * (np.eye(3) + (n - 1) * t)",
           "j_second = 0.25 * n * (np.eye(3) + n * t)",
           ("tests/test_collective.py::test_moment_map_factors",)),
    Mutant("trace-gate-dropped", "collective.py",
           "if abs(np.trace(t) - 1.0) > DEFAULT_TOL:",
           "if False:",
           ("tests/test_collective.py::test_moment_map_validation",)),
    Mutant("witness-mean-spin-sign", "covariance.py",
           "(1.0 - 1.0 / N)",
           "(1.0 + 1.0 / N)",
           ("tests/test_covariance.py::test_collective_witness_identity",
            "tests/test_acceptance.py::test_criterion_09_bar_identities_and_witness_identity")),
    Mutant("triplet-row-is-singlet", "states.py",
           "[0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],",
           "[0.0, 1.0 / np.sqrt(2.0), -1.0 / np.sqrt(2.0), 0.0],",
           ("tests/test_covariance.py::test_basis_change_matrices_are_unitary",)),
    Mutant("singlet-row-is-triplet", "covariance.py",
           "[0, 1 / _SQ2, -1 / _SQ2, 0]",
           "[0, 1 / _SQ2, 1 / _SQ2, 0]",
           ("tests/test_covariance.py::test_basis_change_matrices_are_unitary",)),
    # Sign tests and gates.
    Mutant("c-test-plus-tol", "covariance.py",
           "return min_eig, min_eig < -tol",
           "return min_eig, min_eig < tol",
           (f"{_STRICT}[c_negativity_test]",)),
    Mutant("c-test-le", "covariance.py",
           "return min_eig, min_eig < -tol",
           "return min_eig, min_eig <= -tol",
           (f"{_STRICT}[c_negativity_test]",)),
    Mutant("bar1-le", "covariance.py",
           "entangled=bar1 < -tol or",
           "entangled=bar1 <= -tol or",
           (f"{_STRICT}[bar_invariants]",)),
    Mutant("bar4-le", "covariance.py",
           "or bar4 < -tol,",
           "or bar4 <= -tol,",
           (f"{_STRICT}[bar_invariants]",)),
    Mutant("witness-le", "covariance.py",
           "entangled=min_eig < N / 4.0 - tol)",
           "entangled=min_eig <= N / 4.0 - tol)",
           (f"{_STRICT}[collective_criterion]",)),
    Mutant("classify-le", "collective.py",
           "holds = np.concatenate([tested < -tol,",
           "holds = np.concatenate([tested <= -tol,",
           (f"{_STRICT}[classify_invariants]",)),
    *(Mutant(f"flag-{flag}-le", "invariants.py", f"{flag}={value} < -tol", f"{flag}={value} <= -tol",
             (f"{_STRICT}[separability_flags.{flag}]",))
      for flag, value in (("I4_negative", "inv.I4"), ("I5_negative", "inv.I5"),
                          ("I4_minus_I3sq_negative", "inv.combo_I4_minus_I3sq"))),
    Mutant("flag-I1_negative_with_I3_zero-le", "invariants.py",
           "and inv.I1 < -tol,",
           "and inv.I1 <= -tol,",
           (f"{_STRICT}[separability_flags.I1_negative_with_I3_zero]",)),
    Mutant("flips-entry-dropped", "invariants.py",
           "    np.array([-1.0, -1.0, 1.0]),\n)",
           ")",
           ("tests/test_invariants.py::test_canonical_form_matches_under_local_unitaries",)),
    Mutant("svd3-no-null-flip", "numerics.py",
           "if d[0] <= SVD_NULL_TOL * max(1.0, d[-1]):",
           "if False:",
           ("tests/test_numerics.py::test_svd3_rotations_diagonalization_and_sign_rule",)),
    Mutant("classify-i5-i4-swapped", "collective.py",
           "np.array([inv.I5, inv.I4, inv.combo_I4_minus_I3sq, inv.I1])",
           "np.array([inv.I4, inv.I5, inv.combo_I4_minus_I3sq, inv.I1])",
           ("tests/test_collective.py::test_classification_takes_the_first_negative_test",)),
    Mutant("symmetry-tol-x100", "states.py",
           "symmetric = bool(np.max(np.abs(r - s)) <= DEFAULT_TOL",
           "symmetric = bool(np.max(np.abs(r - s)) <= 100 * DEFAULT_TOL",
           ("tests/test_states.py::test_every_symmetric_state_passes_every_symmetric_consumer",)),
    Mutant("edge-guard-zero", "states.py",
           "_EDGE_GUARD = 1e-12",
           "_EDGE_GUARD = 0.0",
           ("tests/test_states.py::test_special_class_rejections_at_the_old_tolerance",)),
    Mutant("psd-tol-x100", "states.py",
           "FROM_BLOCH_PSD_TOL = 1e-9",
           "FROM_BLOCH_PSD_TOL = 1e-7",
           ("tests/test_states.py::test_special_class_rejections_at_the_old_tolerance",)),
)


def _check_table(mutants) -> list:
    """One line for each row whose snippet is not found exactly once."""
    counts = [(m, (ROOT / "src" / "symsq" / m.path).read_text().count(m.snippet))
              for m in mutants]
    return [f"{m.id}: snippet found {n} times in src/symsq/{m.path}"
            for m, n in counts if n != 1]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    """The named tests on the copy at tree, importing symsq from its src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900)


def _run(mutant: Mutant | None, tests) -> tuple:
    """(pytest's return code, its last output line, seconds) for the tests
    on a fresh copy of the tree with mutant applied (None: unmutated)."""
    with tempfile.TemporaryDirectory(prefix="symsq-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            path = tree / "src" / "symsq" / mutant.path
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        t0 = time.perf_counter()
        done = _pytest(tree, tests)
        lines = (done.stdout.strip() or done.stderr.strip() or "(no output)").splitlines()
        return done.returncode, lines[-1], time.perf_counter() - t0


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = sorted(set(argv) - {m.id for m in MUTANTS})
    errors = _check_table(MUTANTS) + [f"{i}: no such mutant" for i in unknown]
    if errors:
        print("refused:", *errors, sep="\n  ")
        return 2
    union = list(dict.fromkeys(t for m in chosen for t in m.tests))
    code, last, secs = _run(None, union)
    if code != 0:
        print(f"refused: the named tests fail without a mutant ({secs:.1f} s): {last}")
        return 2
    print(f"unmutated: {len(union)} named tests pass ({secs:.1f} s)")
    survivors = []
    for m in chosen:
        code, last, secs = _run(m, m.tests)
        verdict = "killed" if code else ("equivalent" if m.equivalent else "SURVIVED")
        print(f"{verdict:10} {m.id:32} {secs:6.1f} s  {last}")
        if not code:
            survivors.append(m)
            if m.equivalent:
                print(f"{'':10} {m.equivalent}")
    print(f"killed {len(chosen) - len(survivors)} of {len(chosen)} mutants")
    return 1 if any(not m.equivalent for m in survivors) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
