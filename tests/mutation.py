"""Mutation check: do the tests catch the faults that matter?

    python3 tests/mutation.py              # every mutant
    python3 tests/mutation.py ID [ID ...]  # the named mutants

Each row of MUTANTS is one fault: a file of src/symsq, one exact snippet
of it, the snippet's replacement and the test node ids expected to fail
once it is applied.  The script refuses the table, before it runs
anything, if a snippet is not found exactly once.  For each mutant it
copies src/, tests/, perfbench/, pyproject.toml, README.md and
BENCHMARK.json into a temporary directory, applies the mutant there and
runs

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
_BIG = "tests/test_cli.py::test_analyze_huge_finite_entry_exit_code"
_RENDER = "tests/test_cli.py::test_render_sweep_matches_cell_renderers"
_PAULI_RANGE = "tests/test_states.py::test_rho_from_bloch_fails_loudly_past_the_float_range"
_GATE_FINITE = ("tests/test_numerics.py::"
                "test_eigen_gate_refuses_a_non_finite_entry_before_hermiticity")
_GATE_EDGE = "tests/test_numerics.py::test_eigen_gate_refuses_only_beyond_default_tol"
# The Tier-1 command, as pytest arguments; testpaths names tests/ and
# perfbench/.
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
    Mutant("i1-tested-with-spin", "collective.py",
           "_TESTS_WITH_SPIN = np.array([True, True, True, False])",
           "_TESTS_WITH_SPIN = np.array([True, True, True, True])",
           ("tests/test_collective.py::test_mean_spin_skips_the_i1_test",)),
    # The flip choice of the canonical form, as one array.
    Mutant("flips-entry-dropped", "invariants.py",
           "    [-1.0, -1.0, 1.0],\n])",
           "])",
           ("tests/test_invariants.py::test_canonical_form_matches_under_local_unitaries",
            "tests/test_invariants.py::test_canonical_form_is_the_flip_loop")),
    Mutant("flip-choice-min", "invariants.py",
           "keys.index(max(keys))",
           "keys.index(min(keys))",
           ("tests/test_invariants.py::test_canonical_form_is_the_flip_loop",)),
    Mutant("svd3-no-null-flip", "numerics.py",
           "if d[0] <= SVD_NULL_TOL * max(1.0, d[-1]):",
           "if False:",
           ("tests/test_numerics.py::test_svd3_rotations_diagonalization_and_sign_rule",)),
    Mutant("separable-margin-min", "collective.py",
           "margins[4] = -margins[:4].max(axis=0)",
           "margins[4] = -margins[:4].min(axis=0)",
           ("tests/test_collective.py::test_stacked_classification_is_the_if_chain",)),
    Mutant("classify-i5-i4-swapped", "collective.py",
           "(inv.I5, inv.I4, inv.combo_I4_minus_I3sq, inv.I1)",
           "(inv.I4, inv.I5, inv.combo_I4_minus_I3sq, inv.I1)",
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
    Mutant("psd-shift-unguarded", "states.py",
           "_PSD_SHIFT = FROM_BLOCH_PSD_TOL - _EDGE_GUARD",
           "_PSD_SHIFT = FROM_BLOCH_PSD_TOL",
           ("tests/test_states.py::test_positivity_gate_decides_by_the_least_eigenvalue",)),
    # LAPACK for the real symmetric solves.
    Mutant("symmetric-values-descending", "numerics.py",
           "return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))",
           "return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))[::-1]",
           (_LAPACK,)),
    # The shared eigen gate: finiteness first, then m - m^dag beyond
    # DEFAULT_TOL.
    Mutant("eigen-gate-hermiticity-first", "numerics.py",
           "    if not all(map(cmath.isfinite, a.ravel().tolist())):\n"
           '        raise DomainError("matrix has a non-finite entry")\n'
           "    ah = a.conj().T\n"
           "    if abs(a - ah).max() > DEFAULT_TOL:\n"
           '        raise NonHermitian("matrix deviates from Hermiticity beyond DEFAULT_TOL")\n',
           "    ah = a.conj().T\n"
           "    if abs(a - ah).max() > DEFAULT_TOL:\n"
           '        raise NonHermitian("matrix deviates from Hermiticity beyond DEFAULT_TOL")\n'
           "    if not all(map(cmath.isfinite, a.ravel().tolist())):\n"
           '        raise DomainError("matrix has a non-finite entry")\n',
           (_GATE_FINITE,)),
    Mutant("eigen-gate-flipped", "numerics.py",
           "if abs(a - ah).max() > DEFAULT_TOL:",
           "if abs(a - ah).max() < DEFAULT_TOL:",
           (_GATE_EDGE,)),
    Mutant("eigen-gate-not-strict", "numerics.py",
           "if abs(a - ah).max() > DEFAULT_TOL:",
           "if abs(a - ah).max() >= DEFAULT_TOL:",
           (_GATE_EDGE,)),
    Mutant("symmetric-gate-dropped", "numerics.py",
           "return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))",
           "a = check_finite(m)\n    return np.linalg.eigvalsh((a + a.T) / 2.0)",
           (_LAPACK,)),
    Mutant("korbicz-c-unsymmetrized", "covariance.py",
           "symmetric_eigenvalues((c + c.T) / 2.0)",
           "symmetric_eigenvalues(c)",
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
    # The 18 Makhlin formulas, as rows of the stacked kernel: T T^T and
    # T^T T mixed, or an operand swapped.
    *(Mutant(f"makhlin-{name}", "invariants.py", snippet, replacement,
             ("tests/test_invariants.py::test_local_unitary_invariance",))
      for name, snippet, replacement in (
          ("I12", "ttt2r, tr, ttr])", "ttt2r, t.T @ r, ttr])"),
          ("I13", "tr, ttr])).tolist()", "tr, ttt @ tr])).tolist()"),
          ("I14", "2.0 * float(s @ x[7:])", "2.0 * float(r @ x[7:])"),
          ("I16", "ttt2r, tr, tttr, r,", "ttt2r, tr, tt @ r, r,"),
          ("I17", "ttt @ ts_left, tr,", "tt @ ts_left, tr,"),
          ("I18", "r, ttr, r, r, r]", "r, ttt @ tr, r, r, r]"))),
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
    # One eigensolve of J1 per N: one-axis twisting and the atomic column.
    Mutant("d-column-off-by-one", "oracle.py",
           "np.real(self.j1_spectrum[1][:, self.N // 2])",
           "np.real(self.j1_spectrum[1][:, self.N // 2 - 1])",
           ("tests/test_models.py::test_wigner_d_matches_rotation_oracle",
            "tests/test_oracle.py::test_d_column_is_a_unit_vector")),
    Mutant("ku-phase-linear-in-w", "oracle.py",
           "np.exp(-1j * chi_t * (w * w))",
           "np.exp(-1j * chi_t * w)",
           ("tests/test_oracle.py::test_ku_mean_spin_closed_form",
            "tests/test_oracle.py::test_ku_matches_the_closed_forms_at_large_n")),
    Mutant("d-column-unsigned", "oracle.py",
           "return col * (np.sign(col[0]) * (-1) ** (self.N // 2))",
           "return col",
           ("tests/test_oracle.py::test_d_column_is_a_unit_vector",
            "tests/test_oracle.py::test_cached_spectra_match_a_fresh_eigh[10]")),
    # Both collective moments as matrix products.
    Mutant("second-moments-unconjugated", "oracle.py",
           "np.real(v.conj() @ v.T)",
           "np.real(v @ v.T)",
           ("tests/test_oracle.py::test_ladder_moments_match_dense_operators",)),
    Mutant("mean-unconjugated", "oracle.py",
           "np.real(v @ psi.conj())",
           "np.real(v @ psi)",
           ("tests/test_oracle.py::test_ku_mean_spin_closed_form",
            "tests/test_oracle.py::test_ladder_moments_match_dense_operators")),
    Mutant("wigner-sign-j-minus-m", "models.py",
           "(-1.0) ** (jp // 2)",
           "(-1.0) ** ((n - jp) // 2)",
           ("tests/test_models.py::test_wigner_d_small_values",
            "tests/test_models.py::test_wigner_d_matches_rotation_oracle")),
    # What one sweep call builds: its rows, and each atomic table.
    *(Mutant(name, path, snippet, replacement, tests)
      for name, path, snippet, replacement, tests in (
          ("rows-cap-dropped", "cli.py", "if rows > _MAX_SWEEP_ROWS:", "if False:",
           ("tests/test_cli.py::test_sweep_row_cap_gate",)),
          ("rows-cap-per-n", "cli.py", "_check_rows(steps * n_count)", "_check_rows(steps)",
           ("tests/test_cli.py::test_sweep_past_the_row_cap_exits_bad_range",)),
          ("dicke-grid-uncapped", "cli.py", "        _check_rows(sum(n + 1 for n in n_values))\n",
           "", ("tests/test_cli.py::test_sweep_past_the_row_cap_exits_bad_range",)),
          ("atomic-cap-dropped", "models.py",
           "if points * (n // 2 + 1) > _MAX_ATOMIC_WEIGHTS:", "if False:",
           ("tests/test_models.py::test_atomic_table_cap_gate",)),
          ("atomic-cap-on-n-alone", "models.py",
           "if points * (n // 2 + 1) > _MAX_ATOMIC_WEIGHTS:",
           "if n // 2 + 1 > _MAX_ATOMIC_WEIGHTS:",
           ("tests/test_models.py::test_atomic_table_cap_gate",)),
          ("atomic-pair-ungated", "models.py", "    _check_atomic_size(N, x.size)\n", "",
           ("tests/test_models.py::test_atomic_table_cap_is_checked_before_any_table",)),
          ("wigner-d-ungated", "models.py", "    _check_atomic_size(n, 1)\n", "",
           ("tests/test_models.py::test_atomic_table_cap_is_checked_before_any_table",)),
          ("atomic-sweep-checks-late", "models.py",
           "        for n in n_values:\n            _check_atomic_size(_check_even_n(n), params.size)\n",
           "        pass\n",
           ("tests/test_models.py::test_atomic_table_cap_is_checked_before_any_table",)))),
    # verify's witness check takes the library's own route, and the sample
    # and term counts have caps.
    Mutant("witness-check-c-against-itself", "cli.py",
           "        crit = collective_criterion(state.s, state.T, 10, tol)\n"
           "        witness_dev = max(witness_dev,\n"
           "                          abs(np.linalg.eigvalsh(crit.witness_matrix)[0] - crit.min_eig))\n",
           "        min_eig = c_negativity_test(state, tol)[0]\n"
           "        c = state.T - np.outer(state.s, state.s)\n"
           "        witness_dev = max(witness_dev, abs(np.linalg.eigvalsh(c)[0] - min_eig))\n",
           ("tests/test_cli.py::test_ppt_c_suite_checks_the_witness_through_the_moments",)),
    Mutant("suite-count-cap-dropped", "cli.py",
           '_check_int(count, "count", 1, _MAX_SUITE_COUNT)',
           '_check_int(count, "count", 1)',
           ("tests/test_cli.py::test_suite_count_cap_gate",)),
    Mutant("term-cap-dropped", "states.py",
           '_check_int(n_terms, "n_terms", 1, _MAX_TERMS)',
           '_check_int(n_terms, "n_terms", 1)',
           ("tests/test_states.py::test_term_count_cap",)),
    # A finite entry far outside any state fails at its gate.
    Mutant("rho-entry-unbounded", "states.py",
           "(np.abs(a) <= _ENTRY_BOUND).all()", "np.isfinite(a).all()",
           (f"{_BIG}[special]", f"{_BIG}[rho]")),
    Mutant("bloch-entry-unbounded", "states.py",
           '    _check_bounded(bloch, "Bloch data")\n', "",
           (f"{_BIG}[bloch]",)),
    Mutant("rho-json-by-arithmetic", "states.py",
           "        rho = np.empty((4, 4), dtype=complex)\n"
           "        rho.real, rho.imag = arr[..., 0], arr[..., 1]",
           "        rho = arr[..., 0] + 1j * arr[..., 1]",
           (f"{_BIG}[rho_infinite_imaginary_part]",)),
    # A sweep row's text: odd float cells patched after bulk formatting,
    # one-valued columns written into the template, branch text by index.
    Mutant("sweep-odd-cell-unpatched", "cli.py",
           "            cells[i] = cell(col[i])\n",
           "            pass\n",
           (_RENDER,)),
    Mutant("sweep-literal-unescaped", "cli.py",
           'return cell(col[0]).replace("%", "%%"), None',
           "return cell(col[0]), None",
           (_RENDER,)),
    Mutant("sweep-csv-inf-raw", "cli.py",
           "raw = not any(map(math.isinf, col))",
           "raw = True",
           (_RENDER,)),
    Mutant("sweep-xi-unmasked-at-zero-spin", "models.py",
           "        if spin.all():\n",
           "        if spin.any():\n",
           ("tests/test_models.py::test_stacked_sweep_matches_unbatched_calls[dicke]",)),
    Mutant("sweep-branch-text-reversed", "collective.py",
           "np.array([b.value for b in Branch], dtype=object)",
           "np.array([b.value for b in reversed(Branch)], dtype=object)",
           ("tests/test_models.py::test_stacked_sweep_matches_unbatched_calls",)),
    # rho_from_bloch fails loudly past the float range, and warns nothing.
    Mutant("rho-from-bloch-unchecked", "states.py",
           "    if not np.isfinite(rho).all():\n"
           '        raise DomainError("the Pauli sum of the Bloch data leaves the float range")\n',
           "",
           (_PAULI_RANGE,)),
    Mutant("rho-from-bloch-warns", "states.py",
           '    with np.errstate(over="ignore", invalid="ignore"):\n',
           "    if True:\n",
           (_PAULI_RANGE,)),
    # wigner_d_pi2 is the table's entry in the table's operation order.
    Mutant("wigner-d-regrouped", "models.py",
           "lg(jp + 1) + lg(n - jp + 1) - n * math.log(2.0)",
           "lg(jp + 1) + (lg(n - jp + 1) - n * math.log(2.0))",
           ("tests/test_models.py::test_wigner_d_is_the_table_entry_bit_for_bit",)),
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
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    # README.md: test_readme_tolerance_table_lists_every_tolerance reads it;
    # BENCHMARK.json: perfbench's self-tests read it.
    for name in ("pyproject.toml", "README.md", "BENCHMARK.json"):
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
