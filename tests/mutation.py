"""Mutation check: do the tests catch the faults that matter?

    python3 tests/mutation.py              # every mutant
    python3 tests/mutation.py ID [ID ...]  # the named mutants

Each row of MUTANTS is one fault: a file of src/symsq, one exact snippet
of it, the snippet's replacement and the test node ids expected to fail
once it is applied.  The script refuses the table, before it runs
anything, if a snippet is not found exactly once.  For each mutant it
copies src/, tests/, pyproject.toml and README.md into a temporary
directory, applies the mutant there and runs

    python -m pytest -q -x -p no:cacheprovider <the row's tests>

against the copy, one pytest process at a time; it never writes to the
working tree.  A mutant is killed when pytest fails.  A mutant that
passes its named tests runs once more on the same mutated copy under the
whole Tier-1 suite (`python -m pytest -q --continue-on-collection-errors`,
with -x): it is `killed (Tier-1)` when that fails, which means its row
names the wrong tests, and survives when that passes too.  Before the
mutants, the union of all named tests runs once on an unmutated copy, and
so does Tier-1 the first time it kills a mutant: a test that fails there
kills nothing.

A survivor is a missing test, or an equivalent mutant: a row that cannot
be killed says why in its `equivalent` field.  Exit status 0 when every
mutant is killed (by its named tests or by Tier-1) or noted as
equivalent, 1 when one survives, 2 when the table or an unmutated run is
refused.

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
_STRICT_CASES = ("bar_invariants", "c_negativity_test", "classify_invariants",
                 "collective_criterion",
                 *(f"separability_flags.{flag}" for flag in (
                     "I1_negative_with_I3_zero", "I4_minus_I3sq_negative", "I4_negative",
                     "I5_negative")))
_VALUES = "tests/test_numerics.py::test_value_only_solve_is_the_full_solve_without_vectors"
_LAPACK = "tests/test_covariance.py::test_symmetric_eigenvalues_agree_with_jacobi"
_WALK = "tests/test_hygiene.py::test_nan_in_a_numeric_parameter_raises"
_POLES = "tests/test_collective.py::test_squeezing_is_exact_near_the_poles"
_HUGE = "tests/test_cli.py::test_analyze_number_past_the_float_range_exit_code"
_HOUSEHOLDER = "v = n0 + np.copysign(1.0, n0[..., 2:]) * _EYE3[2]"
# The Tier-1 command, as pytest arguments; testpaths names tests/.
_TIER1 = ("--continue-on-collection-errors",)

MUTANTS = (
    # One integer gate, one home for each qubit-count rule.
    Mutant("int-gate-takes-bool", "numerics.py",
           "if isinstance(value, bool) or not isinstance(value, (int, np.integer))",
           "if not isinstance(value, (int, np.integer))",
           ("tests/test_oracle.py::test_j_operators_validation",)),
    Mutant("check-n-from-one", "collective.py",
           'return _check_int(n, "N", 2, 2**53, error=InvalidN)',
           'return _check_int(n, "N", 1, 2**53, error=InvalidN)',
           ("tests/test_collective.py::test_every_n_entry_shares_one_check",)),
    Mutant("collective-state-unchecked-n", "oracle.py",
           "n = _check_oracle_n(self.N)",
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
           "return _below(-I3, tol)[0] & (np.sqrt(I3) > ZERO_SPIN_TOL)",
           "return _below(-I3, tol)[0]",
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
    # One sign-test rule, and each sign test's call into it.
    Mutant("sign-rule-not-strict", "numerics.py",
           "return margin > 0.0, margin",
           "return margin >= 0.0, margin",
           (*(f"{_STRICT}[{case}]" for case in _STRICT_CASES),
            "tests/test_numerics.py::test_sign_rule_is_strict_below_edge_minus_tol")),
    # Each site passes -tol for tol, and its own strict case fails.
    *(Mutant(f"{name}-minus-tol", path, snippet, snippet.replace(", tol)", ", -tol)"),
             (f"{_STRICT}[{case}]",))
      for name, case, path, snippet in (
          ("c-test", "c_negativity_test", "covariance.py", "min_eig, _below(min_eig, tol)"),
          ("bar1", "bar_invariants", "covariance.py", "_below(bar1, tol)"),
          ("bar4", "bar_invariants", "covariance.py", "_below(bar4, tol)"),
          ("classify", "classify_invariants", "collective.py", "_below(tested, tol)"),
          *((f"flag-{flag}", f"separability_flags.{flag}", "invariants.py",
             f"_below({value}, tol)")
            for flag, value in (("I4_negative", "inv.I4"), ("I5_negative", "inv.I5"),
                                ("I4_minus_I3sq_negative", "inv.combo_I4_minus_I3sq"),
                                ("I1_negative_with_I3_zero", "inv.I1"))))),
    Mutant("witness-edge-dropped", "covariance.py",
           "_below(min_eig, tol, N / 4.0)",
           "_below(min_eig, tol)",
           (f"{_STRICT}[collective_criterion]",)),
    Mutant("spin-complement-as-int", "collective.py",
           "np.logical_not(spin)",
           "~spin",
           ("tests/test_collective.py::test_mean_spin_skips_the_i1_test",)),
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
    Mutant("n-gate-unbounded", "collective.py",
           'return _check_int(n, "N", 2, 2**53, error=InvalidN)',
           'return _check_int(n, "N", 2, error=InvalidN)',
           ("tests/test_collective.py::test_check_n_takes_n_up_to_2_53",
            "tests/test_collective.py::test_every_n_entry_shares_one_check",
            "tests/test_cli.py::test_n_past_the_float_range_exits_bad_range")),
    # The eigensolver and the faster paths around it.
    Mutant("jacobi-first-superdiagonal", "numerics.py",
           "upper = np.triu_indices(n, 1)",
           "upper = (np.arange(n - 1), np.arange(1, n))",
           (_VALUES,)),
    Mutant("values-unsorted", "numerics.py",
           "return (w[order], v[:, order]) if vectors else w[order]",
           "return (w[order], v[:, order]) if vectors else w",
           (_VALUES,)),
    Mutant("jacobi-cap-no-raise", "numerics.py",
           "if off >= _JACOBI_OFF_TARGET:",
           "if False:",
           ("tests/test_numerics.py::test_jacobi_raises_when_sweeps_run_out",)),
    Mutant("concurrence-no-clip", "states.py",
           "x = v * np.sqrt(np.clip(w, 0.0, None))",
           "x = v * np.sqrt(w)",
           ("tests/test_invariants.py::test_concurrence_is_invariant_under_local_unitaries",)),
    Mutant("c-memo-keyed-on-s", "covariance.py",
           "    return _least_eigenvalue(c.shape, c.tobytes())\n",
           "    key = np.asarray(s, dtype=float).tobytes()\n"
           "    if getattr(korbicz_minimum, 'key', None) != key:\n"
           "        korbicz_minimum.key = key\n"
           "        korbicz_minimum.least = float(symmetric_eigenvalues(c)[0])\n"
           "    return korbicz_minimum.least\n",
           ("tests/test_covariance.py::test_c_memo_follows_s_and_t",)),
    Mutant("psd-shift-unguarded", "states.py",
           "_PSD_SHIFT = FROM_BLOCH_PSD_TOL - _EDGE_GUARD",
           "_PSD_SHIFT = FROM_BLOCH_PSD_TOL",
           ("tests/test_states.py::test_positivity_gate_decides_by_the_least_eigenvalue",)),
    # LAPACK for the real symmetric solves.
    Mutant("symmetric-values-descending", "numerics.py",
           "return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))",
           "return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))[::-1]",
           (_LAPACK,)),
    Mutant("symmetric-gate-dropped", "numerics.py",
           "return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))",
           "a = check_finite(m)\n    return np.linalg.eigvalsh((a + a.T) / 2.0)",
           (_LAPACK,)),
    Mutant("korbicz-c-unsymmetrized", "covariance.py",
           "    c = (c + c.T) / 2.0\n",
           "",
           ("tests/test_covariance.py::test_c_an_ulp_less_symmetric_than_t_is_solved",)),
    # Huge numbers fail at the gates.
    Mutant("check-finite-overflows", "numerics.py",
           "out = [_as_array(a, float) for a in arrays]",
           "out = [np.asarray(a, dtype=float) for a in arrays]",
           (f"{_WALK}[models.dicke_pair:M]",)),
    Mutant("object-matrix-unconverted", "numerics.py",
           "    if a.dtype == object:\n",
           "    if False:\n",
           (f"{_WALK}[numerics.hermitian_eigh:m]",)),
    Mutant("unitary-gate-overflows", "numerics.py",
           "a = _as_array(u, complex, NonUnitary)",
           "a = np.asarray(u, dtype=complex)",
           (f"{_WALK}[numerics.check_unitary_2x2:u]",)),
    Mutant("check-tol-overflows", "numerics.py",
           "    except OverflowError:\n        raise DomainError(message) from None\n",
           "    except ZeroDivisionError:\n        raise DomainError(message) from None\n",
           (f"{_WALK}[numerics.check_tol:tol]",)),
    Mutant("special-overflows", "states.py",
           'params = _as_array([sp["a"], sp["b"], sp["c"], sp["d"]], float)',
           'params = np.array([float(sp["a"]), float(sp["b"]), float(sp["c"]), float(sp["d"])])',
           (f"{_HUGE}[special]",)),
    Mutant("rho-overflows", "states.py",
           'arr = _as_array(obj["rho"], float)',
           'arr = np.asarray(obj["rho"], dtype=float)',
           (f"{_HUGE}[rho]",)),
    # One reflection onto the axis, with no branch on the spin direction.
    Mutant("householder-unsigned", "collective.py",
           _HOUSEHOLDER,
           "v = n0 + 1.0 * _EYE3[2]",
           (f"{_POLES}[0.0--e3]",
            "tests/test_collective.py::test_squeezing_along_e3_reads_the_2x2_block_exactly[-e3]")),
    Mutant("householder-pole-snap", "collective.py",
           _HOUSEHOLDER,
           "pole = abs(n0[..., 2:]) > 1.0 - 1e-14\n"
           "    v = np.where(pole, np.copysign(_EYE3[2], n0[..., 2:]), n0)\n"
           "    " + _HOUSEHOLDER.replace("n0 +", "v +"),
           (f"{_POLES}[1e-09-+e3]", f"{_POLES}[1e-09--e3]")),
    # The 18 Makhlin formulas: T T^T and T^T T mixed, or an operand swapped.
    *(Mutant(f"makhlin-{name}", "invariants.py", snippet, replacement,
             ("tests/test_invariants.py::test_local_unitary_invariance",))
      for name, snippet, replacement in (
          ("I12", "        s @ tr,  ", "        s @ (t.T @ r),  "),
          ("I13", "s @ (tt @ tr),", "s @ (ttt @ tr),"),
          ("I14", '"ijk,lmn,i,l,jm,kn->"', '"ijk,lmn,i,l,mj,kn->"'),
          ("I16", "_triple(ts_left, r, tttr),", "_triple(ts_left, r, tt @ r),"),
          ("I17", "_triple(ts_left, ttt @ ts_left, r),", "_triple(ts_left, tt @ ts_left, r),"),
          ("I18", "_triple(s, tr, tt @ tr),", "_triple(s, tr, ttt @ tr),"))),
    # The spin-label rule, the samplers' rank, the local-unitary image and
    # the simulator's cache key.
    Mutant("m-parity-dropped", "collective.py",
           "(abs(2 * m - twom) > INTEGER_TOL) | (twom % 2 != n % 2) | (abs(twom) > n)",
           "(abs(2 * m - twom) > INTEGER_TOL) | (abs(twom) > n)",
           ("tests/test_models.py::test_dicke_parity_validation",)),
    Mutant("m-integer-exact", "collective.py",
           "(abs(2 * m - twom) > INTEGER_TOL)",
           "(2 * m != twom)",
           ("tests/test_models.py::test_dicke_parity_validation",)),
    Mutant("image-through-the-constructor", "states.py",
           "    image = object.__new__(TwoQubitState)\n"
           "    _fill(image, _checked_rho(big @ state.rho @ big.conj().T))\n"
           "    return image\n",
           "    return TwoQubitState(big @ state.rho @ big.conj().T)\n",
           ("tests/test_invariants.py::test_apply_local_unitaries_solves_no_eigenproblem",)),
    Mutant("image-copies-the-parents-memo", "states.py",
           "    return image\n",
           "    object.__setattr__(image, '_memo', state._memo)\n    return image\n",
           ("tests/test_invariants.py::test_apply_local_unitaries_solves_no_eigenproblem",)),
    Mutant("j-ops-key-unnormalized", "oracle.py",
           "    return _build_j_operators(_check_oracle_n(N))\n",
           "    _check_oracle_n(N)\n    return _build_j_operators(N)\n",
           ("tests/test_oracle.py::test_j_operator_cache_keeps_one_entry_per_n",)),
    Mutant("rank-gate-unbounded", "states.py",
           'rank = _check_int(rank, "rank", 1, 3)',
           'rank = _check_int(rank, "rank", 1)',
           ("tests/test_states.py::test_sampler_validation",)),
    # Each solve returns only what its caller reads.
    Mutant("rejected-rho-solves-vectors", "states.py",
           "least = hermitian_eigenvalues(rho)[0]",
           "least = hermitian_eigh(rho)[0][0]",
           ("tests/test_cli.py::test_analyze_solves_a_rejected_rho_once",)),
    # The I1 flag over stacks, one pair's flags as Python bools.
    Mutant("flag-i1-scalar-and", "invariants.py",
           "_scalar(np.logical_not(spin) & _below(inv.I1, tol)[0])",
           "not spin and _below(inv.I1, tol)[0]",
           ("tests/test_invariants.py::test_separability_flags_over_a_stack",)),
    Mutant("flag-i1-numpy-bool", "invariants.py",
           "_scalar(np.logical_not(spin) & _below(inv.I1, tol)[0])",
           "np.logical_not(spin) & _below(inv.I1, tol)[0]",
           ("tests/test_invariants.py::test_separability_flags_over_a_stack",)),
    # The simulator's one capped N gate, and each entry's call into it.
    *(Mutant(name, "oracle.py", snippet, replacement,
             ("tests/test_oracle.py::test_simulator_n_is_capped",))
      for name, snippet, replacement in (
          ("oracle-cap-dropped", 'return _check_int(n, "N", lo, _MAX_N, error=InvalidN)',
           'return _check_int(n, "N", lo, error=InvalidN)'),
          ("j-ops-uncapped", "return _build_j_operators(_check_oracle_n(N))",
           'return _build_j_operators(_check_int(N, "N", 1, error=InvalidN))'),
          ("collective-state-uncapped", "n = _check_oracle_n(self.N)",
           'n = _check_int(self.N, "N", 1, error=InvalidN)'),
          ("dicke-state-uncapped", "N = _check_oracle_n(N, 2)", "N = check_n(N)"))),
    # A tolerance moved without its README row.
    Mutant("readme-tol-stale", "numerics.py",
           "SVD_NULL_TOL = 1e-13",
           "SVD_NULL_TOL = 1e-12",
           ("tests/test_hygiene.py::test_readme_tolerance_table_lists_every_tolerance",)),
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
    # README.md: test_readme_tolerance_table_lists_every_tolerance reads it.
    for name in ("pyproject.toml", "README.md"):
        shutil.copy2(ROOT / name, dest / name)


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    """The named tests on the copy at tree, importing symsq from its src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(tree / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900)


def _run(mutant: Mutant | None, *stages) -> tuple:
    """Pytest over each stage's tests in turn, on one fresh copy of the tree
    with mutant applied (None: unmutated), up to the first stage that
    fails: (its return code, its last output line, seconds in all, the
    index of the last stage run)."""
    with tempfile.TemporaryDirectory(prefix="symsq-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is not None:
            path = tree / "src" / "symsq" / mutant.path
            path.write_text(path.read_text().replace(mutant.snippet, mutant.replacement))
        t0 = time.perf_counter()
        for stage, tests in enumerate(stages):
            done = _pytest(tree, tests)
            if done.returncode:
                break
        lines = (done.stdout.strip() or done.stderr.strip() or "(no output)").splitlines()
        return done.returncode, lines[-1], time.perf_counter() - t0, stage


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m.id in argv]
    unknown = sorted(set(argv) - {m.id for m in MUTANTS})
    errors = _check_table(MUTANTS) + [f"{i}: no such mutant" for i in unknown]
    if errors:
        print("refused:", *errors, sep="\n  ")
        return 2
    union = list(dict.fromkeys(t for m in chosen for t in m.tests))
    code, last, secs, _ = _run(None, union)
    if code != 0:
        print(f"refused: the named tests fail without a mutant ({secs:.1f} s): {last}")
        return 2
    print(f"unmutated: {len(union)} named tests pass ({secs:.1f} s)")
    survivors = []
    tier1_passes = False
    for m in chosen:
        code, last, secs, stage = _run(m, m.tests, _TIER1)
        if code and stage and not tier1_passes:
            base, base_last, base_secs, _ = _run(None, _TIER1)
            if base:
                print(f"refused: Tier-1 fails without a mutant ({base_secs:.1f} s): {base_last}")
                return 2
            print(f"unmutated: Tier-1 passes ({base_secs:.1f} s)")
            tier1_passes = True
        if code:
            verdict = "killed (Tier-1)" if stage else "killed"
        else:
            verdict = "equivalent" if m.equivalent else "SURVIVED"
        print(f"{verdict:15} {m.id:32} {secs:6.1f} s  {last}")
        if not code:
            survivors.append(m)
            if m.equivalent:
                print(f"{'':15} {m.equivalent}")
    print(f"killed {len(chosen) - len(survivors)} of {len(chosen)} mutants")
    return 1 if any(not m.equivalent for m in survivors) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
