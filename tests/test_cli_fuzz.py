"""Grammar fuzzers for the CLI: every argv they draw for `symsq analyze`,
`symsq sweep` and `symsq verify` ends in a documented exit code.

State files come from a grammar: the three valid shapes ("special",
"bloch", "rho") with hostile leaves (NaN and Infinity literals, which
json reads, 10**400, bools, null, strings, extra nesting), wrong key
sets, arbitrary JSON and text that is not JSON.  Sweeps draw a model,
--N lists, --param-range strings (well formed, malformed, a negative lo,
steps past the row cap) under each spelling of the option, --format and
--out paths (fresh, a directory, a missing parent).  Verify draws
--seed.  Every run draws SYMSQ_TOL.  These argv are well formed, so
argparse never exits.  The property: main returns a documented code and
never raises or warns, a nonzero code other than verify's 1 prints
exactly one "error:" line to stderr and nothing to stdout, and verify
returns 1 only when it prints a FAIL line.

A last fuzzer draws malformed sweep argv (unknown, repeated and
abbreviated options, missing values, bad --model and --format choices,
stray positionals): main ends in argparse's SystemExit(2) or returns a
documented code, never raises anything else or warns, and a nonzero end
writes nothing to stdout.
"""

import contextlib
import io
import json
import os
import warnings

import pytest
from hypothesis import example, given, settings, strategies as st

from symsq import cli, models

_HUGE = 10**400  # past the float range; json writes it as digits
_HOSTILE = st.one_of(
    st.sampled_from([float("nan"), float("inf"), float("-inf"), _HUGE, -_HUGE,
                     True, False, None, "", "0.5", 1e308, -0.0, [], {}]),
    st.floats(-2.0, 2.0),
    st.text(max_size=4),
    st.lists(st.floats(-1.0, 1.0), max_size=3),
    st.dictionaries(st.sampled_from(["a", "re", "0"]), st.integers(-2, 2), max_size=2),
)

# Valid states in each shape: the Bell pair |1,0>, a product state and a
# state that is not exchange symmetric.
_VALID = [
    {"special": {"a": 0.0, "b": 0.0, "c": 0.5, "d": 0.0}},
    {"special": {"a": 0.25, "b": 0.1, "c": 0.25, "d": 0.25}},
    {"bloch": {"s": [0.0, 0.0, 0.0], "r": [0.0, 0.0, 0.0],
               "T": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, -1.0]]}},
    {"bloch": {"s": [0.0, 0.0, 0.5], "r": [0.0, 0.0, -0.5],
               "T": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -0.25]]}},
    {"rho": [[[0.0, 0.0]] * 4, [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]],
             [[0.0, 0.0], [0.5, 0.0], [0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0]] * 4]},
    {"rho": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]},
]


def _nodes(obj, path=()):
    """The path of every value under obj, obj itself first."""
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) \
        if isinstance(obj, list) else ()
    for k, v in children:
        yield from _nodes(v, path + (k,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


def _get(obj, path):
    for k in path:
        obj = obj[k]
    return obj


@st.composite
def _shapes(draw):
    """A valid state with up to three of its values replaced: a leaf by a
    hostile value, a list by one entry short, one long or nested once more,
    a dict by one key short or one key more."""
    state = draw(st.sampled_from(_VALID))
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(list(_nodes(state))[1:]))
        node = _get(state, path)
        if isinstance(node, list):
            new = draw(st.sampled_from([node[:-1], node + [0.0], [node]]))
        elif isinstance(node, dict):
            new = draw(st.sampled_from([dict(list(node.items())[1:]), {**node, "e": 0.0}]))
        else:
            new = draw(_HOSTILE)
        state = _replaced(state, path, new)
    return state


_WRONG_KEYS = st.sampled_from(_VALID).flatmap(lambda state: st.sampled_from([
    {},
    {k.upper(): v for k, v in state.items()},
    {**state, "extra": 1},
    {**state, **_VALID[0]} if "special" not in state else {**state, **_VALID[4]},
    [state],
]))

_ANY_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=12,
)

# The shapes thrice, so that about half the files are states.
_FILES = st.one_of(
    _shapes().map(json.dumps),
    _shapes().map(json.dumps),
    _shapes().map(json.dumps),
    _WRONG_KEYS.map(json.dumps),
    _ANY_JSON.map(json.dumps),
    _shapes().map(lambda state: json.dumps(state)[:-1]),  # not JSON
    st.text(max_size=12),
)

_N_EDGE = st.sampled_from([str(2**53), " 7 "])
_N_BAD = st.sampled_from(["0", "1", "-3", str(2**53 + 1), str(_HUGE), "4.5", "abc", "", " ",
                          "1e3", "0x10"])
_N_TOKEN = st.one_of(st.integers(2, 200).map(str), _N_EDGE, _N_BAD)
_N_LISTS = st.lists(_N_TOKEN, min_size=1, max_size=5).map(",".join)
_TOLS = st.one_of(st.none(), st.sampled_from(
    ["1e-9", "0.5", " 1e-6 ", "3", "nan", "inf", "-inf", "0", "-1e-9", "abc", "", "1e400",
     str(_HUGE)]))


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _main(argv, tol):
    """cli.main(argv) in process, with SYMSQ_TOL = tol (unset for None) and
    every warning an error: (code, stdout, stderr), where argparse's
    SystemExit(c) gives the code ("usage", c)."""
    saved = os.environ.pop("SYMSQ_TOL", None)
    if tol is not None:
        os.environ["SYMSQ_TOL"] = tol
    out, err = io.StringIO(), io.StringIO()
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error, as a code no command returns
                code = ("usage", exc.code)
    finally:
        os.environ.pop("SYMSQ_TOL", None)
        if saved is not None:
            os.environ["SYMSQ_TOL"] = saved
    return code, out.getvalue(), err.getvalue()


def _assert_one_error_line(out, err, context):
    lines = err.splitlines()
    assert out == "" and len(lines) == 1 and lines[0].startswith("error: "), (context, err)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=_FILES, n_list=st.one_of(st.none(), _N_LISTS),
       fmt=st.sampled_from([None, "json", "text"]), tol=_TOLS)
def test_analyze_ends_in_a_documented_exit_code(work_dir, text, n_list, fmt, tol):
    path = work_dir / "state.json"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", str(path)]
    argv += [] if n_list is None else [f"--N={n_list}"]
    argv += [] if fmt is None else ["--format", fmt]
    code, out, err = _main(argv, tol)
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID_STATE, cli.EXIT_PARSE_ERROR,
                    cli.EXIT_BAD_RANGE), (argv, tol, text)
    if code == cli.EXIT_OK:
        assert out and err == ""
    else:
        _assert_one_error_line(out, err, (argv, tol, text))


# Sweep sizes stay at a few hundred rows: N up to 40 (and 2^53, which every
# gate refuses to build), at most 40 steps, or steps past the row cap.  Half
# the N lists are well formed.
_SWEEP_N = st.integers(2, 40).map(str)
_SWEEP_N_LISTS = st.one_of(
    st.lists(_SWEEP_N, min_size=1, max_size=3),
    st.lists(st.one_of(_SWEEP_N, _N_EDGE, _N_BAD), min_size=1, max_size=5),
).map(",".join)
_BOUND = st.one_of(st.floats(-1.5, 3.5).map(repr), st.sampled_from(
    ["0", "1", "-1", "0.5", " 0.25", "nan", "inf", "-inf", "1e400", "abc", "", "1:"]))
_STEPS = st.one_of(st.integers(1, 40).map(str), st.sampled_from(
    ["0", "-2", "2.5", "1e3", "", " 3", str(cli._MAX_SWEEP_ROWS + 1), str(10**30)]))
_RANGES = st.one_of(
    st.tuples(st.floats(0.01, 0.49), st.floats(0.5, 0.99), st.integers(1, 40))
    .map(lambda r: f"{r[0]!r}:{r[1]!r}:{r[2]}"),
    st.tuples(_BOUND, _BOUND, _STEPS).map(":".join),
    st.sampled_from(["", "0:1", "0:1:2:3", ":::", "0;1;2", "-1:1:5", "0.1:0.9:3"]))
# Each spelling of the option: the full name, an abbreviation argparse
# accepts, and the joined form.
_RANGE_ARGS = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["--param-range", "--param", "--pa"]), _RANGES).map(list),
    _RANGES.map(lambda raw: [f"--param-range={raw}"]),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(model=st.sampled_from(models.MODEL_NAMES),
       n_list=st.one_of(st.none(), _SWEEP_N_LISTS),
       range_args=_RANGE_ARGS, fmt=st.sampled_from([None, "csv", "json"]),
       out_kind=st.sampled_from([None, "fresh", "directory", "missing parent"]), tol=_TOLS)
def test_sweep_ends_in_a_documented_exit_code(work_dir, model, n_list, range_args, fmt,
                                              out_kind, tol):
    out_path = {None: None, "fresh": work_dir / "sweep.out", "directory": work_dir,
                "missing parent": work_dir / "missing" / "sweep.out"}[out_kind]
    if out_kind == "fresh" and out_path.exists():
        out_path.unlink()
    argv = ["sweep", "--model", model]
    argv += [] if n_list is None else [f"--N={n_list}"]
    argv += range_args or []
    argv += [] if fmt is None else ["--format", fmt]
    argv += [] if out_path is None else ["--out", str(out_path)]
    code, out, err = _main(argv, tol)
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID_STATE, cli.EXIT_BAD_RANGE), (argv, tol)
    if code != cli.EXIT_OK:
        _assert_one_error_line(out, err, (argv, tol))
    elif out_path is None:
        assert out and err == ""
    else:
        assert out == "" and err == "" and out_path.read_text(encoding="utf-8")


_SEEDS = st.one_of(st.integers(0, 2**64).map(str), st.sampled_from(["+7", " 42 ", "0"]))


@settings(derandomize=True, deadline=None, max_examples=6)
@example(level="quick", seed=None, tol="0.5")  # PPT and C < 0 disagree at this tol: exit 1
@given(level=st.sampled_from([None, "quick"]), seed=st.one_of(st.none(), _SEEDS), tol=_TOLS)
def test_verify_ends_in_a_documented_exit_code(level, seed, tol):
    argv = ["verify"]
    argv += [] if level is None else ["--level", level]
    argv += [] if seed is None else ["--seed", seed]
    code, out, err = _main(argv, tol)
    assert code in (cli.EXIT_OK, cli.EXIT_VERIFY_FAIL, cli.EXIT_INVALID_STATE), (argv, tol)
    if code == cli.EXIT_INVALID_STATE:
        _assert_one_error_line(out, err, (argv, tol))
        return
    verdicts = [line.split(" ", 1)[0] for line in out.splitlines()]
    assert err == "" and len(verdicts) == 4 and set(verdicts) <= {"PASS", "FAIL"}, (argv, tol)
    assert (code == cli.EXIT_VERIFY_FAIL) == ("FAIL" in verdicts), (argv, tol, out)


# Malformed sweep argv: units of one or two tokens, in any order and
# number, so an option may repeat, lose its value to the next option or
# take a value from the wrong option's choices.  No token abbreviates
# --help.  --out values are relative paths, written in the work directory.
_ARGV_OPTIONS = ["--model", "--mod", "--N", "--param-range", "--param", "--format", "--form",
                 "--out", "--seed", "--level", "--bogus", "-N", "-m", "--", "--N=",
                 "--model=ku", "--format=xml", "--format=json", "--param-range=-1:1:3"]
_ARGV_VALUES = ["ku", "dicke", "atomic", "KU", "gauss", "csv", "json", "xml", "text", "4",
                "3,5", "0", "abc", "0:1:3", "-1:1:3", "0.1:0.9:2", "1:0:3", "", "sweep.out",
                "analyze"]
_ARGV_UNITS = st.one_of(
    st.sampled_from([["--model", "ku"], ["--model", "dicke"], ["--model", "atomic"],
                     ["--N", "4"], ["--param-range", "0.1:0.9:3"], ["--format", "json"],
                     ["--out", "sweep.out"]]),
    st.tuples(st.sampled_from(_ARGV_OPTIONS), st.sampled_from(_ARGV_VALUES)).map(list),
    st.sampled_from(_ARGV_OPTIONS).map(lambda tok: [tok]),
    st.sampled_from(_ARGV_VALUES).map(lambda tok: [tok]),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@example(units=[["--model", "ku"], ["--N", "4"], ["--param-range", "0.1:0.9:3"]])  # exit 0
@example(units=[["--model", "ku"], ["--N"]])  # a missing value
@example(units=[["--model", "ku"], ["--model", "gauss"]])  # a bad choice, repeated
@example(units=[["--model", "dicke"], ["--format", "xml"]])  # a bad format
@example(units=[["--model", "dicke"], ["stray"]])  # a stray positional
@example(units=[["--model", "dicke"], ["--bogus", "1"]])  # an unknown option
@given(units=st.lists(_ARGV_UNITS, max_size=6))
def test_malformed_sweep_argv_ends_in_a_usage_error_or_a_documented_code(work_dir, units):
    argv = ["sweep"] + [tok for unit in units for tok in unit]
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        code, out, err = _main(argv, None)
    finally:
        os.chdir(cwd)
    assert code == ("usage", 2) or code in (cli.EXIT_OK, cli.EXIT_INVALID_STATE,
                                             cli.EXIT_PARSE_ERROR, cli.EXIT_BAD_RANGE), argv
    if code != cli.EXIT_OK:
        assert out == "" and err, (argv, out)
