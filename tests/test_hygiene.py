"""Hygiene of the package and its tests: every imported name is used, every
tol parameter is a sign-test margin and every sign test is strict, a NaN or
an infinity in any numeric parameter of any public function, or a
non-finite entry anywhere in a stack, raises a SymsqError, a qubit count
takes any integer type, and each rule has one home."""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import symsq
from symsq import models, oracle
from symsq.collective import (
    Branch,
    CollectiveMoments,
    classify_invariants,
    moments_from_pair,
    squeezing,
)
from symsq.covariance import bar_invariants, c_negativity_test, collective_criterion
from symsq.errors import SymsqError
from symsq.invariants import (
    SymmetricInvariants,
    separability_flags,
    special_class_six,
    symmetric_six_from_bloch,
)
from symsq.numerics import SIGN_TOL, check_unitary_2x2, hermitian_eigh, su2_to_so3, svd3
from symsq.states import SpecialClassState, symmetric_from_special

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "symsq").glob("*.py"))
SOURCES = sorted([*PACKAGE, *(ROOT / "tests").glob("*.py")])


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


def _modules_with(predicate) -> list:
    """The package modules whose AST has a node for which predicate holds."""
    return sorted(path.stem for path in PACKAGE
                  if any(map(predicate, ast.walk(ast.parse(path.read_text())))))


def test_each_rule_has_one_home():
    """One integer gate: np.integer is named in numerics only.  One xi^2
    rule: ZERO_SPIN_TOL is read in collective only.  One even-N gate: its
    message is spelled once."""
    assert _modules_with(lambda node: isinstance(node, ast.Attribute)
                         and ast.unparse(node) == "np.integer") == ["numerics"]
    assert _modules_with(lambda node: isinstance(node, ast.Name) and node.id == "ZERO_SPIN_TOL"
                         or isinstance(node, ast.alias) and node.name == "ZERO_SPIN_TOL") \
        == ["collective"]
    texts = [node.value for path in PACKAGE for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert sum(text.count("the steady state requires an even N") for text in texts) == 1


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
    loose = {path.name: names for path in PACKAGE
             if (names := _loose_tolerances(ast.parse(path.read_text())))}
    assert loose == {}


# Bell pair |1,0>: C = T = diag(1, 1, -1), so the C test, det C and
# (Tr^2 C - Tr C^2)/2 sit at -1 and the witness minimum at N = 2 at 0.
_BELL = symmetric_from_special(SpecialClassState(a=0.0, b=0.0, c=0.5, d=0.0))
# No mean spin, and I1, I4, I5 and I4 - I3^2 all at -0.01.
_AT_EDGE = SymmetricInvariants(I1=-0.01, I2=0.0, I3=0.0, I4=-0.01, I5=-0.01, I6=0.0)
# Each sign test as (tol -> its verdict "entangled"), and the tol at which
# its deciding value sits exactly at -tol.
SIGN_TESTS = {
    "c_negativity_test": (lambda tol: c_negativity_test(_BELL, tol)[1], 1.0),
    "bar_invariants": (lambda tol: bar_invariants(_BELL, tol).entangled, 1.0),
    "collective_criterion": (lambda tol: collective_criterion(_BELL.s, _BELL.T, 2, tol).entangled,
                             0.5),
    "classify_invariants": (lambda tol: classify_invariants(_AT_EDGE, tol).branch
                            is not Branch.SEPARABLE_SIGNATURE, 0.01),
    **{f"separability_flags.{flag}": (
        lambda tol, flag=flag: getattr(separability_flags(_AT_EDGE, tol), flag), 0.01)
       for flag in ("I4_negative", "I5_negative", "I4_minus_I3sq_negative",
                    "I1_negative_with_I3_zero")},
}


@pytest.mark.parametrize("name", sorted(SIGN_TESTS))
def test_every_sign_test_is_strict(name):
    """A sign test reads "entangled" only strictly below -tol: at the tol
    where its deciding value is exactly -tol it reads separable, and one
    ulp below that tol it reads entangled."""
    entangled, edge = SIGN_TESTS[name]
    assert not entangled(edge)
    assert entangled(np.nextafter(edge, 0.0))


def _module_tolerances() -> dict:
    """module.NAME -> value of every module-level *_TOL and *_GAP constant
    that a module of src/symsq defines (not imports)."""
    found = {}
    for info in pkgutil.iter_modules(symsq.__path__):
        module = importlib.import_module(f"symsq.{info.name}")
        for node in ast.parse(inspect.getsource(module)).body:
            names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            for name in filter(re.compile(r"[A-Z0-9_]+_(TOL|GAP)").fullmatch, names):
                found[f"{info.name}.{name}"] = getattr(module, name)
    return found


def test_readme_tolerance_table_lists_every_tolerance():
    """The README's table of tolerances has one row per module constant,
    with its value, and no row for a constant that does not exist."""
    rows = re.findall(r"^\| `(\w+\.\w+)` \| ([-+.e0-9]+) \|",
                      (ROOT / "README.md").read_text(), flags=re.M)
    assert {name: float(value) for name, value in rows} == _module_tolerances()


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
    """Hand-picked non-finite calls.  The walk below feeds NaN, +inf and
    -inf to every numeric parameter of every public function, so it repeats
    each of these cases but sweep_atomic and sweep_dicke (it sweeps ku)."""
    with pytest.raises(SymsqError):
        call()


def _is_function(obj) -> bool:
    """A function, also behind a cache wrapper such as functools.lru_cache."""
    return callable(obj) and inspect.isfunction(inspect.unwrap(obj))


def _public_functions() -> dict:
    """Every public module-level function of src/symsq, by module.name."""
    found = {}
    for info in pkgutil.iter_modules(symsq.__path__):
        module = importlib.import_module(f"symsq.{info.name}")
        for name, fn in inspect.getmembers(module, _is_function):
            if fn.__module__ == module.__name__ and not name.startswith("_"):
                found[f"{info.name}.{name}"] = fn
    return found


PUBLIC = _public_functions()

# Parameters that get no NaN: the data they take are not numbers the
# function computes with, or they are gated elsewhere.
EXEMPT = {
    # states: the constructors of TwoQubitState, SpecialClassState and
    # CollectiveState hold their own gates; obj is a JSON state object and
    # psi a full-Hilbert state vector
    "state", "s1", "s2", "p", "obj", "psi",
    # random generators and seeds
    "rng", "seed",
    # a file path, CLI arguments, and a label for an error message
    "path", "args", "argv", "name",
    # not a number: a model name
    "model",
}

_S, _T = np.array([0.0, 0.0, 0.5]), np.eye(3) / 3
_SPECIAL = SpecialClassState(a=0.4, b=0.1, c=0.1, d=0.4)
_PSI = np.zeros(16)
_PSI[0] = 1.0

# A value every public function accepts, by parameter name.
VALID = {
    "s": _S, "r": _S, "T": _T, "t": _T, "k_hat": [0.0, 0.0, 1.0],
    "inv": symmetric_six_from_bloch(_S, _T),
    "N": 4, "n": 4, "J": 2, "M": 0, "x": 0.5, "chi_t": 0.3, "theta": -0.3,
    "a": _SPECIAL.a, "b": _SPECIAL.b, "c": _SPECIAL.c, "d": _SPECIAL.d,
    "u": np.eye(2), "u1": np.eye(2), "u2": np.eye(2), "m": np.eye(2),
    "params": [0.3], "n_values": [4], "tol": SIGN_TOL, "arrays": [0.5],
    "state": symmetric_from_special(_SPECIAL), "psi": _PSI,
    "rng": np.random.default_rng(0), "count": 1, "rank": 2, "n_terms": 2, "model": "ku",
}
# Where a name means something else in one function.
VALID_IN = {
    "collective.pair_from_moments": {
        "m": CollectiveMoments(N=4, j_mean=2 * _S, j_second=np.eye(3) + 3 * _T)},
}


def _with_bad(value, bad: float):
    """value with its last number, or its last field's last number, set to bad."""
    if dataclasses.is_dataclass(value):
        last = dataclasses.fields(value)[-1].name
        return dataclasses.replace(value, **{last: _with_bad(getattr(value, last), bad)})
    if np.ndim(value) == 0:
        return bad
    out = np.array(value, dtype=float)
    out.flat[-1] = bad
    return out


def _call(fn, values: dict):
    """fn on values by name; a *args parameter takes its value as one argument."""
    params = inspect.signature(fn).parameters
    star = [values.pop(k) for k, p in params.items()
            if p.kind is p.VAR_POSITIONAL and k in values]
    return fn(*star, **values)


def _values(qual: str, name: str) -> dict:
    """Valid values of the required parameters of PUBLIC[qual], and of name."""
    valid = {**VALID, **VALID_IN.get(qual, {})}
    return {k: valid[k] for k, p in inspect.signature(PUBLIC[qual]).parameters.items()
            if k == name or p.default is p.empty}


NAN_CASES = [(qual, name) for qual, fn in PUBLIC.items()
             for name in inspect.signature(fn).parameters if name not in EXEMPT]


def test_every_parameter_has_a_value_or_is_exempt():
    """Every parameter name has a valid value or an exemption, and every
    exemption names a parameter that some public function takes."""
    names = {name for fn in PUBLIC.values() for name in inspect.signature(fn).parameters}
    assert names - VALID.keys() - EXEMPT == set()
    assert EXEMPT - names == set()


@pytest.mark.parametrize("qual, name", NAN_CASES, ids=[f"{q}:{n}" for q, n in NAN_CASES])
def test_nan_in_a_numeric_parameter_raises(qual, name):
    """Each public function runs on valid values, and raises a SymsqError
    once one numeric parameter, tol included, holds a NaN, +inf or -inf."""
    fn = PUBLIC[qual]
    values = _values(qual, name)
    _call(fn, dict(values))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(SymsqError):
            _call(fn, {**values, name: _with_bad(values[name], bad)})


# The collective-spin builders take any spin J = N/2 >= 1/2 (tests build the
# J = 1/2 operators); every other qubit count is check_n's N >= 2.
SPIN_FROM_ONE = {"oracle.build_j_operators", "oracle.rotation_pi2_about_2"}

INT_CASES = [(qual, name) for qual, fn in PUBLIC.items()
             for name in inspect.signature(fn).parameters if name in ("N", "n")]


@pytest.mark.parametrize("qual, name", INT_CASES, ids=[f"{q}:{n}" for q, n in INT_CASES])
def test_qubit_count_takes_any_integer_type(qual, name):
    """A qubit count N or n gives the same result for np.int64(4) as for 4,
    and raises a SymsqError on 4.5 and, outside SPIN_FROM_ONE, on 1."""
    fn = PUBLIC[qual]
    values = _values(qual, name)
    # 4 and np.int64(4) are equal keys: start a cached function afresh.
    getattr(fn, "cache_clear", lambda: None)()
    assert repr(_call(fn, {**values, name: np.int64(4)})) == repr(_call(fn, dict(values)))
    for bad in (4.5, 1):
        if bad == 1 and qual in SPIN_FROM_ONE:
            _call(fn, {**values, name: bad})
        else:
            with pytest.raises(SymsqError):
                _call(fn, {**values, name: bad})


@st.composite
def _stacks(draw):
    """A finite (K, 12) stack, K in 1..8, and a copy with one drawn entry
    replaced by NaN, +inf or -inf."""
    k = draw(st.integers(1, 8))
    entries = draw(st.lists(st.floats(0.125, 1.0), min_size=12 * k, max_size=12 * k))
    good = np.array(entries).reshape(k, 12)
    bad = good.copy()
    bad.flat[draw(st.integers(0, 12 * k - 1))] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return good, bad


def _stacked_calls(x):
    """The stacked entry points on one (K, 12) stack: s = x[:, :3] and
    T = x[:, 3:] as (K, 3, 3); the 12K entries as four special-class
    parameter vectors; the 12K entries as KU parameters."""
    s, t = x[:, :3], x[:, 3:].reshape(-1, 3, 3)
    return [
        lambda: symmetric_six_from_bloch(s, t),
        lambda: squeezing(s, t, 4),
        lambda: special_class_six(*x.T.reshape(4, -1)),
        lambda: models.sweep("ku", x.ravel(), [4]),
    ]


@settings(derandomize=True, deadline=None)
@given(_stacks())
def test_non_finite_entry_in_a_stack_raises(stacks):
    good, bad = stacks
    for call in _stacked_calls(good):
        call()
    for call in _stacked_calls(bad):
        with pytest.raises(SymsqError):
            call()
