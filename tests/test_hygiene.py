"""Hygiene of the package and its tests: every imported name is used, every
tol parameter is a sign-test margin, and non-finite input raises a
SymsqError."""

import ast
from pathlib import Path

import numpy as np
import pytest

from symsq import models, oracle
from symsq.collective import classify_invariants, moments_from_pair, squeezing
from symsq.covariance import collective_criterion
from symsq.errors import SymsqError
from symsq.invariants import SymmetricInvariants, separability_flags
from symsq.numerics import check_unitary_2x2, hermitian_eigh, su2_to_so3, svd3

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "symsq").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _unused_imports(tree) -> list:
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_every_imported_name_is_used():
    unused = {path.relative_to(ROOT).as_posix(): names for path in SOURCES
              if (names := _unused_imports(ast.parse(path.read_text())))}
    assert unused == {}


def _loose_tolerances(tree) -> list:
    """Functions whose parameter named tol defaults to anything but SIGN_TOL."""
    loose = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = [*zip(positional[len(positional) - len(a.defaults):], a.defaults),
                         *zip(a.kwonlyargs, a.kw_defaults)]
            if any(p.arg == "tol" and d is not None and ast.unparse(d) != "SIGN_TOL"
                   for p, d in defaulted):
                loose.append(node.name)
    return loose


def test_every_tol_parameter_is_a_sign_test():
    """A tol parameter is either required or defaults to SIGN_TOL, the margin
    that SYMSQ_TOL overrides; every other tolerance is a module constant."""
    loose = {path.name: names for path in sorted((ROOT / "src" / "symsq").glob("*.py"))
             if (names := _loose_tolerances(ast.parse(path.read_text())))}
    assert loose == {}


@pytest.mark.parametrize("call", [
    lambda: collective_criterion([0, 0, np.nan], np.eye(3) / 3, 4),
    lambda: hermitian_eigh(np.diag([1.0, np.inf])),
    lambda: models.wigner_d_pi2(np.nan, 0),
    lambda: models.wigner_d_pi2(2, np.nan),
    lambda: models.dicke_pair(4, np.nan),
    lambda: models.dicke_pair(4, np.inf),
    lambda: oracle.build_dicke_state(4, np.nan),
    lambda: oracle.build_dicke_state(4, np.inf),
    lambda: oracle.evolve_ku(4, np.nan),
    lambda: oracle.build_atomic_state(4, np.nan),
    lambda: oracle.build_atomic_state(4, -np.inf),
    lambda: models.ku_pair(4, np.nan),
    lambda: models.atomic_pair(4, np.nan),
    *(lambda m=m: models.sweep(m, [np.nan], [4]) for m in models.MODEL_NAMES),
    lambda: classify_invariants(SymmetricInvariants(*[np.nan] * 6)),
    lambda: separability_flags(SymmetricInvariants(*[np.nan] * 6)),
    lambda: check_unitary_2x2(np.full((2, 2), np.nan)),
    lambda: su2_to_so3(np.full((2, 2), np.nan)),
    lambda: squeezing([np.nan, 0, 0.5], np.eye(3) / 3, 4),
    lambda: moments_from_pair([np.nan, 0, 0.5], np.eye(3) / 3, 4),
    lambda: moments_from_pair([0, 0, 0.5], np.full((3, 3), np.nan), 4),
    lambda: svd3(np.full((3, 3), np.nan)),
], ids=["collective_criterion", "hermitian_eigh", "wigner_d_pi2_J", "wigner_d_pi2_M", "dicke_pair_nan",
        "dicke_pair_inf", "build_dicke_state_nan", "build_dicke_state_inf",
        "evolve_ku", "build_atomic_state_nan", "build_atomic_state_inf", "ku_pair", "atomic_pair",
        *(f"sweep_{m}" for m in models.MODEL_NAMES), "classify_invariants",
        "separability_flags", "check_unitary_2x2", "su2_to_so3", "squeezing",
        "moments_from_pair_s", "moments_from_pair_T", "svd3"])
def test_non_finite_input_raises_symsq_error(call):
    with pytest.raises(SymsqError):
        call()
