"""A grammar fuzzer for `symsq analyze`: every state file, --N list,
--format and SYMSQ_TOL it draws ends in a documented exit code.

State files come from a grammar: the three valid shapes ("special",
"bloch", "rho") with hostile leaves (NaN and Infinity literals, which
json reads, 10**400, bools, null, strings, extra nesting), wrong key
sets, arbitrary JSON and text that is not JSON.  Every argv is well
formed, so argparse never exits; its usage errors are pinned elsewhere.
The property: main returns 0, 2, 3 or 4 and never raises, and a nonzero
code prints exactly one "error:" line to stderr and nothing to stdout.
"""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from symsq import cli

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

_N_TOKEN = st.one_of(st.integers(2, 200).map(str), st.sampled_from([str(2**53), " 7 "]),
                     st.sampled_from(["0", "1", "-3", str(2**53 + 1), str(_HUGE),
                                      "4.5", "abc", "", " ", "1e3", "0x10"]))
_N_LISTS = st.lists(_N_TOKEN, min_size=1, max_size=5).map(",".join)
_TOLS = st.one_of(st.none(), st.sampled_from(
    ["1e-9", "0.5", " 1e-6 ", "3", "nan", "inf", "-inf", "0", "-1e-9", "abc", "", "1e400",
     str(_HUGE)]))


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=300)
@given(text=_FILES, n_list=st.one_of(st.none(), _N_LISTS),
       fmt=st.sampled_from([None, "json", "text"]), tol=_TOLS)
def test_analyze_ends_in_a_documented_exit_code(work_dir, text, n_list, fmt, tol):
    path = work_dir / "state.json"
    path.write_text(text, encoding="utf-8")
    argv = ["analyze", str(path)]
    argv += [] if n_list is None else [f"--N={n_list}"]
    argv += [] if fmt is None else ["--format", fmt]
    saved = os.environ.pop("SYMSQ_TOL", None)
    if tol is not None:
        os.environ["SYMSQ_TOL"] = tol
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.environ.pop("SYMSQ_TOL", None)
        if saved is not None:
            os.environ["SYMSQ_TOL"] = saved
    assert code in (cli.EXIT_OK, cli.EXIT_INVALID_STATE, cli.EXIT_PARSE_ERROR,
                    cli.EXIT_BAD_RANGE), (argv, tol, text)
    if code == cli.EXIT_OK:
        assert out.getvalue() and err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == "" and len(lines) == 1 and lines[0].startswith("error: "), (
            argv, tol, text, err.getvalue())
