"""Density-matrix construction, Bloch round trips, concurrence, samplers."""

import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq import states
from symsq.collective import collective_forms, moments_from_pair, squeezing
from symsq.covariance import (
    bar_invariants,
    c_matrix,
    c_negativity_test,
    collective_criterion,
    ppt_equivalence_chain,
)
from symsq.errors import (
    DomainError,
    InvalidDensityMatrix,
    NonUnitary,
    NotPositive,
    NotSymmetricState,
    TraceViolation,
)
from symsq.invariants import symmetric_six
from symsq.numerics import DEFAULT_TOL, SIGN_TOL, hermitian_eigh
from symsq.states import (
    SpecialClassState,
    SymmetricTwoQubitState,
    TwoQubitState,
    apply_local_unitaries,
    concurrence,
    haar_unitary_2x2,
    load_state_file,
    partial_transpose,
    random_separable_symmetric,
    random_special_class,
    random_symmetric_state,
    rho_from_bloch,
    state_from_json,
    symmetric_from_special,
)


# ----------------------------------------------------------------------
# Validation

def test_rejects_wrong_shape():
    with pytest.raises(InvalidDensityMatrix):
        TwoQubitState(np.eye(3, dtype=complex) / 3)


def test_rejects_non_hermitian():
    m = np.eye(4, dtype=complex) / 4
    m[0, 1] = 0.1
    with pytest.raises(InvalidDensityMatrix):
        TwoQubitState(m)


def test_rejects_wrong_trace():
    with pytest.raises(InvalidDensityMatrix):
        TwoQubitState(np.eye(4, dtype=complex))


def test_rejects_negative_eigenvalue():
    with pytest.raises(NotPositive) as exc:
        TwoQubitState(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
    assert exc.value.min_eig < -0.4


def _haar_unitary_4x4(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(seed=st.integers(0, 2**32 - 1),
       delta=st.sampled_from([1e-3, -1e-3, 1e-6, -1e-6, 1e-9, -1e-9, 0.0]),
       zeros=st.integers(0, 2))
def test_positivity_gate_decides_by_the_least_eigenvalue(seed, delta, zeros):
    """rho = V diag(w) V^dag with Haar V and least eigenvalue
    -FROM_BLOCH_PSD_TOL (1 + delta), the next `zeros` eigenvalues zero:
    the Cholesky gate accepts rho exactly when hermitian_eigh's least
    eigenvalue is at least -FROM_BLOCH_PSD_TOL, and a rejection carries
    that eigenvalue bit for bit.  At delta = 0 and +-1e-9 the boundary is
    within rounding: there a shift of FROM_BLOCH_PSD_TOL itself lets the
    factorization accept about a fifth of the states that hermitian_eigh
    rejects, which the 1e-12 inside states._PSD_SHIFT prevents."""
    rng = np.random.default_rng(seed)
    tol = states.FROM_BLOCH_PSD_TOL
    w = np.zeros(4)
    w[0] = -tol * (1.0 + delta)
    w[1 + zeros:] = rng.exponential(size=3 - zeros)
    w[1 + zeros:] *= (1.0 - w[0]) / w[1 + zeros:].sum()
    v = _haar_unitary_4x4(rng)
    rho = (v * w) @ v.conj().T
    least = hermitian_eigh(rho)[0][0]
    try:
        TwoQubitState(rho)
    except NotPositive as exc:
        assert least < -tol
        assert exc.min_eig == least
    else:
        assert least >= -tol


def _ginibre_rho(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


_SAMPLERS = {
    "rank1": lambda rng: random_symmetric_state(1, rng).rho,
    "rank2": lambda rng: random_symmetric_state(2, rng).rho,
    "rank3": lambda rng: random_symmetric_state(3, rng).rho,
    "separable": lambda rng: random_separable_symmetric(int(rng.integers(1, 6)), rng).rho,
    "special": lambda rng: random_special_class(rng).matrix(),
    "ginibre": _ginibre_rho,
}


@settings(derandomize=True, deadline=None, max_examples=120)
@given(kind=st.sampled_from(list(_SAMPLERS)), seed=st.integers(0, 2**32 - 1))
def test_positivity_gate_accepts_every_sampler_without_a_solve(kind, seed):
    """Every sampler's rho, rank-deficient ones included, passes the
    factorization itself, so its constructor solves no eigenproblem."""
    rho = _SAMPLERS[kind](np.random.default_rng(seed))
    solved = []
    with pytest.MonkeyPatch.context() as mp:
        for name in ("hermitian_eigh", "hermitian_eigenvalues"):
            solve = getattr(states, name)
            mp.setattr(states, name, lambda m, solve=solve: solved.append(m) or solve(m))
        TwoQubitState(rho)
    assert solved == []


def test_symmetric_rejects_singlet_population():
    singlet = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)
    rho = np.outer(singlet, singlet.conj())
    with pytest.raises(NotSymmetricState):
        SymmetricTwoQubitState(rho)


def _bits(result) -> bytes:
    """The float64 bytes of a result: a dataclass, a tuple or an array."""
    if dataclasses.is_dataclass(result):
        result = dataclasses.astuple(result)
    return np.asarray(result, dtype=float).tobytes()


def test_symmetric_rejects_asymmetric_bloch(rng):
    # |01><01| has r != s
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1.0
    with pytest.raises(NotSymmetricState):
        SymmetricTwoQubitState(rho)
    # A plain state's symmetric flag holds exactly where the symmetric
    # constructor accepts, and the symmetric-only functions give the same
    # bits on either type.
    sampled = [random_symmetric_state(rank, rng).rho for rank in (1, 2, 3)]
    sampled += [random_separable_symmetric(3, rng).rho,
                symmetric_from_special(random_special_class(rng)).rho]
    for m in sampled:
        plain, sym = TwoQubitState(m), SymmetricTwoQubitState(m)
        assert plain.symmetric
        for fn in (symmetric_six, c_matrix, c_negativity_test, bar_invariants):
            assert _bits(fn(plain)) == _bits(fn(sym)), fn.__name__
    singlet = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    for m in (np.outer(singlet, singlet), rho, np.eye(4) / 4):
        assert not TwoQubitState(m).symmetric
        with pytest.raises(NotSymmetricState):
            SymmetricTwoQubitState(m)


# Multiples of DEFAULT_TOL on both sides of the edge of the symmetry and
# trace rules, up to 100 DEFAULT_TOL = 1e-8.
_EDGE_MULTIPLES = st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0, 1.01, 2.0, 100.0])


@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 3),
       eps=st.lists(st.tuples(_EDGE_MULTIPLES, st.sampled_from([-1.0, 1.0])),
                    min_size=4, max_size=4))
def test_every_symmetric_state_passes_every_symmetric_consumer(perturbed_triplet,
                                                               seed, rank, eps):
    """A triplet state with r - s, T - T^T, Tr T - 1 and Tr rho - 1 moved
    by up to 1e-8 each: it is symmetric when the first three are within
    DEFAULT_TOL, and a symmetric state passes every function that takes
    one.  The later checks of each rule (hermitian_eigh on C and T, Tr T in
    moments_from_pair, ChainMismatch) are at DEFAULT_TOL too, and
    moments_from_pair rejects Tr T exactly where the rule does."""
    eps = [k * sign * DEFAULT_TOL for k, sign in eps]
    try:
        state = TwoQubitState(perturbed_triplet(seed, rank, eps))
    except (InvalidDensityMatrix, NotPositive):
        return
    largest = max(map(abs, eps[:3]))
    if largest <= 0.99 * DEFAULT_TOL:
        assert state.symmetric
    elif largest >= 1.01 * DEFAULT_TOL:
        assert not state.symmetric
    if abs(np.trace(state.T) - 1.0) > DEFAULT_TOL:
        with pytest.raises(TraceViolation):
            moments_from_pair(state.s, state.T, 2)
    if not state.symmetric:
        return
    inv = symmetric_six(state)
    c_matrix(state)
    c_negativity_test(state)
    bar_invariants(state)
    ppt_equivalence_chain(state)
    for n in (2, 10, 100):
        collective_criterion(state.s, state.T, n)
        moments_from_pair(state.s, state.T, n)
        if inv.I3 > SIGN_TOL:
            squeezing(state.s, state.T, n)
            collective_forms(inv, state.s, state.T, n)


def test_states_compare_and_hash_by_identity(rng):
    """Two states are equal only when they are one object, also when they
    hold the same rho, so states work as set members and dict keys."""
    a = random_symmetric_state(2, rng)
    b = TwoQubitState(a.rho)
    assert a == a and a != b
    assert {a, b, a} == {b, a} and len({a, b}) == 2


# ----------------------------------------------------------------------
# Bloch decomposition

def test_bloch_round_trip(rng):
    for _ in range(50):
        state = random_symmetric_state(3, rng)
        rebuilt = rho_from_bloch(state.s, state.r, state.T)
        assert np.max(np.abs(rebuilt - state.rho)) < 1e-12


# Pauli matrices written out here, so these checks share no table with symsq.
_I2 = np.array([[1, 0], [0, 1]], dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _ginibre_state(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return TwoQubitState(rho / np.trace(rho).real)


def test_bloch_data_are_pauli_expectations(rng):
    """s_i = Tr rho (sigma_i x I), r_j = Tr rho (I x sigma_j) and
    T_ij = Tr rho (sigma_i x sigma_j) on Ginibre and symmetric states."""
    for k in range(200):
        state = _ginibre_state(rng) if k % 2 else random_symmetric_state(1 + k % 3, rng)

        def expval(a, b):
            return np.trace(state.rho @ np.kron(a, b)).real

        paulis = (_X, _Y, _Z)
        assert np.max(np.abs(state.s - [expval(a, _I2) for a in paulis])) < 1e-15
        assert np.max(np.abs(state.r - [expval(_I2, b) for b in paulis])) < 1e-15
        t = [[expval(a, b) for b in paulis] for a in paulis]
        assert np.max(np.abs(state.T - t)) < 1e-15


def test_rho_from_bloch_is_the_pauli_sum(rng):
    """rho_from_bloch(s, r, T) = (1/4)(I x I + s_i sigma_i x I + r_j I x sigma_j
    + T_ij sigma_i x sigma_j) for arbitrary real s, r and T."""
    paulis = (_X, _Y, _Z)
    for _ in range(100):
        s, r, t = rng.normal(size=3), rng.normal(size=3), rng.normal(size=(3, 3))
        expected = np.kron(_I2, _I2)
        for i in range(3):
            expected = expected + s[i] * np.kron(paulis[i], _I2) + r[i] * np.kron(_I2, paulis[i])
            for j in range(3):
                expected = expected + t[i, j] * np.kron(paulis[i], paulis[j])
        assert np.max(np.abs(rho_from_bloch(s, r, t) - expected / 4)) < 1e-15


@pytest.mark.parametrize("big", [
    ([1e308] * 3, [1e308] * 3, np.full((3, 3), 1e308)),   # every entry
    ([0.0, 0.0, 1e308], [0.0, 0.0, 1e308], np.zeros((3, 3))),  # rho_00 = (1 + s3 + r3)/4
    ([0.0] * 3, [0.0] * 3, np.diag([1e308, -1e308, 0.0])),  # rho_03 = (T11 - T22)/4
], ids=["all", "s3_r3", "T11_T22"])
def test_rho_from_bloch_fails_loudly_past_the_float_range(big):
    """Finite Bloch entries whose Pauli sum leaves the float range raise
    DomainError, with no RuntimeWarning, instead of NaN or inf entries."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="leaves the float range"):
            rho_from_bloch(*big)


def test_bloch_of_product_state(product_state):
    assert np.allclose(product_state.s, [0, 0, 1])
    assert np.allclose(product_state.r, [0, 0, 1])
    assert np.allclose(product_state.T, np.diag([0, 0, 1]))


def test_maximally_mixed_bloch(maximally_mixed):
    assert np.allclose(maximally_mixed.rho, np.eye(4) / 4)
    assert np.allclose(maximally_mixed.s, 0)
    assert np.allclose(maximally_mixed.T, 0)


# ----------------------------------------------------------------------
# Special class

def test_special_class_matrix_and_bloch(bell_state):
    p = SpecialClassState(a=0.2, b=0.1, c=0.25, d=0.3)
    state = symmetric_from_special(p)
    s, t = p.bloch()
    assert np.allclose(state.s, s, atol=1e-12)
    assert np.allclose(state.T, t, atol=1e-12)
    # Bell fixture equals the c = 1/2 corner
    assert np.allclose(bell_state.T, np.diag([1.0, 1.0, -1.0]), atol=1e-12)


def test_special_class_validation():
    with pytest.raises(InvalidDensityMatrix):
        SpecialClassState(a=0.5, b=0.0, c=0.5, d=0.5)  # trace constraint
    with pytest.raises(NotPositive) as exc:
        SpecialClassState(a=-0.1, b=0.0, c=0.3, d=0.5)
    assert exc.value.min_eig == -0.1
    with pytest.raises(NotPositive):
        SpecialClassState(a=0.1, b=0.2, c=0.35, d=0.2)  # b^2 > a d


def test_special_class_rejections_at_the_old_tolerance():
    """Parameters within 1e-9 of a rule but past the state's edge: the
    normalization off by 5e-10, and a least eigenvalue of -1e-9 (1 + 5e-9)."""
    with pytest.raises(InvalidDensityMatrix):
        SpecialClassState(a=0.3, b=0.0, c=0.2, d=0.3 + 5e-10)
    with pytest.raises(NotPositive) as exc:
        SpecialClassState(a=0.25, b=0.25 + 1e-9, c=0.25, d=0.25)
    assert exc.value.min_eig < -states.FROM_BLOCH_PSD_TOL
    least = np.linalg.eigvalsh(_special_matrix(0.25, 0.25 + 1e-9, 0.25, 0.25))[0]
    assert abs(exc.value.min_eig - least) <= 1e-15


def _special_matrix(a, b, c, d) -> np.ndarray:
    """SpecialClassState(a, b, c, d).matrix(), also for parameters it rejects."""
    return np.array([[a, 0, 0, b], [0, c, c, 0], [0, c, c, 0], [b, 0, 0, d]], dtype=complex)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(seed=st.integers(0, 2**32 - 1),
       block=st.sampled_from(["ad", "c", "inside"]),
       delta=st.sampled_from([-1e-3, -1e-9, 0.0, 1e-9, 1e-3, -1.0, 2.0]),
       norm=st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, 10.0]),
       sign=st.sampled_from([-1.0, 1.0]))
def test_every_accepted_special_class_builds_a_state(seed, block, delta, norm, sign):
    """Special-class parameters with a + 2c + d - 1 at `norm` DEFAULT_TOL
    and, unless block is "inside", the least eigenvalue -FROM_BLOCH_PSD_TOL
    (1 + delta) in the [[a, b], [b, d]] or the [[c, c], [c, c]] block.
    SpecialClassState accepts exactly what SymmetricTwoQubitState accepts
    of the matrix, and a NotPositive carries its least eigenvalue."""
    rng = np.random.default_rng(seed)
    lam = states.FROM_BLOCH_PSD_TOL * (1.0 + delta)
    a, two_c, d = rng.dirichlet(np.ones(3))
    b = rng.uniform(-1.0, 1.0) * math.sqrt(a * d)
    if block == "ad":
        b = math.copysign(math.sqrt((a + lam) * (d + lam)), b)
    elif block == "c":
        a, d = a + (two_c + lam) / 2, d + (two_c + lam) / 2
        two_c = -lam
    params = {"a": float(a), "b": float(b), "c": float((two_c + sign * norm * DEFAULT_TOL) / 2),
              "d": float(d)}
    rho = _special_matrix(**params)
    try:
        state = SymmetricTwoQubitState(rho)
    except (InvalidDensityMatrix, NotPositive, NotSymmetricState) as exc:
        with pytest.raises(type(exc)) as raised:
            SpecialClassState(**params)
        if isinstance(exc, NotPositive):
            assert raised.value.min_eig == exc.min_eig
            assert abs(exc.min_eig - np.linalg.eigvalsh(rho)[0]) <= 1e-15
        return
    assert np.array_equal(symmetric_from_special(SpecialClassState(**params)).rho, state.rho)


def test_special_class_allows_b_above_c():
    # |b| > c is physical as long as b^2 <= a d; the resulting state
    # has lambda_3 = c - |b| < 0 (entangled via I5 < 0).
    p = SpecialClassState(a=0.4, b=0.3, c=0.1, d=0.4)
    state = symmetric_from_special(p)
    w = np.linalg.eigvalsh(partial_transpose(state))
    assert w[0] < -1e-6


# ----------------------------------------------------------------------
# Partial transpose and concurrence

def test_partial_transpose_involution(rng):
    state = random_symmetric_state(3, rng)
    assert np.allclose(partial_transpose(partial_transpose(state)), state.rho)


def test_partial_transpose_detects_bell(bell_state, product_state):
    assert np.linalg.eigvalsh(partial_transpose(bell_state))[0] < -0.49
    assert np.linalg.eigvalsh(partial_transpose(product_state))[0] > -1e-12


def test_concurrence_known_values(bell_state, product_state, maximally_mixed):
    assert abs(concurrence(bell_state) - 1.0) < 1e-8
    assert concurrence(product_state) < 1e-8
    assert concurrence(maximally_mixed) < 1e-8


def test_concurrence_werner_family():
    # Werner states p|1,0><1,0| + (1-p) I/4: C = max(0, (3p - 1)/2).
    bell = np.zeros((4, 4), dtype=complex)
    v = np.array([0, 1, 1, 0]) / np.sqrt(2)
    bell = np.outer(v, v)
    for p in (0.2, 0.4, 0.6, 0.9):
        rho = p * bell + (1 - p) * np.eye(4) / 4
        c = concurrence(TwoQubitState(rho))
        assert abs(c - max(0.0, (3 * p - 1) / 2)) < 1e-8


def test_concurrence_agrees_with_ppt_sign(rng):
    # For two qubits: entangled (C > 0) iff PPT fails.
    for _ in range(100):
        state = random_symmetric_state(2, rng)
        c = concurrence(state)
        neg = np.linalg.eigvalsh(partial_transpose(state))[0]
        assert (c > 1e-7) == (neg < -1e-7) or abs(neg) < 1e-6


# ----------------------------------------------------------------------
# Local unitaries

def test_apply_local_unitaries_rotates_bloch(rng):
    from symsq.numerics import su2_to_so3
    state = random_symmetric_state(3, rng)
    u1, u2 = haar_unitary_2x2(rng), haar_unitary_2x2(rng)
    out = apply_local_unitaries(state, u1, u2)
    o1, o2 = su2_to_so3(u1), su2_to_so3(u2)
    assert np.max(np.abs(out.s - o1 @ state.s)) < 1e-12
    assert np.max(np.abs(out.r - o2 @ state.r)) < 1e-12
    assert np.max(np.abs(out.T - o1 @ state.T @ o2.T)) < 1e-12


def test_apply_local_unitaries_rejects_non_unitary(rng):
    state = random_symmetric_state(2, rng)
    with pytest.raises(NonUnitary):
        apply_local_unitaries(state, np.ones((2, 2)), np.eye(2))


# ----------------------------------------------------------------------
# Samplers

def test_samplers_deterministic():
    a = random_symmetric_state(3, seed=7)
    b = random_symmetric_state(3, seed=7)
    assert np.array_equal(a.rho, b.rho)
    p1, p2 = random_special_class(seed=9), random_special_class(seed=9)
    assert (p1.a, p1.b, p1.c, p1.d) == (p2.a, p2.b, p2.c, p2.d)


def test_separable_sampler_is_ppt(rng):
    for _ in range(50):
        state = random_separable_symmetric(4, rng)
        assert np.linalg.eigvalsh(partial_transpose(state))[0] > -1e-9


def test_sampler_validation():
    """rank and n_terms pass one integer gate: anything but an integer (not
    a bool) in range raises DomainError; any integer type is accepted."""
    for bad in (0, 4, -1, 2.5, math.nan, True):
        with pytest.raises(DomainError):
            random_symmetric_state(bad, seed=1)
    for bad in (0, -2, 2.5, math.nan, math.inf, True):
        with pytest.raises(DomainError):
            random_separable_symmetric(bad, seed=1)
    assert np.array_equal(random_symmetric_state(np.int64(2), seed=1).rho,
                          random_symmetric_state(2, seed=1).rho)
    assert np.array_equal(random_separable_symmetric(np.int32(3), seed=1).rho,
                          random_separable_symmetric(3, seed=1).rho)


def test_term_count_cap(monkeypatch):
    """random_separable_symmetric mixes at most states._MAX_TERMS terms: at a
    cap lowered to 3 it draws 3 terms and refuses 4, and at the real cap it
    refuses cap + 1 before it draws anything."""
    with monkeypatch.context() as patch:
        patch.setattr(states, "_MAX_TERMS", 3)
        random_separable_symmetric(3, seed=1)
        with pytest.raises(DomainError, match="<= 3$"):
            random_separable_symmetric(4, seed=1)
    cap = states._MAX_TERMS
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    with pytest.raises(DomainError, match=f"<= {cap}$"):
        random_separable_symmetric(cap + 1, rng)
    assert rng.bit_generator.state == before


# ----------------------------------------------------------------------
# State files

def test_state_from_json_variants(tmp_path):
    rho = np.eye(4) / 4
    obj = {"rho": [[[float(rho[i, j].real), 0.0] for j in range(4)] for i in range(4)]}
    st = state_from_json(obj)
    assert np.allclose(st.rho, rho)

    obj = {"bloch": {"s": [0, 0, 0], "r": [0, 0, 0],
                     "T": [[1, 0, 0], [0, 1, 0], [0, 0, -1]]}}
    st = state_from_json(obj)
    assert np.allclose(st.T, np.diag([1, 1, -1]))

    obj = {"special": {"a": 0.0, "b": 0.0, "c": 0.5, "d": 0.0}}
    st = state_from_json(obj)
    assert isinstance(st, SymmetricTwoQubitState)

    path = tmp_path / "state.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    st2 = load_state_file(path)
    assert np.allclose(st2.rho, st.rho)


def test_state_from_json_requires_exactly_one_key():
    with pytest.raises(ValueError):
        state_from_json({})
    with pytest.raises(ValueError):
        state_from_json({"rho": [], "bloch": {}})
    with pytest.raises(ValueError):
        state_from_json({"rho": [[0.0] * 4] * 4})  # missing [re, im] pairs
