"""Local-unitary invariants: the 18-member set, symmetric reduction,
special-class closed forms, sign tests, canonical form."""

import copy
import dataclasses
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq import invariants, numerics, states
from symsq.errors import NotSymmetricState
from symsq.invariants import (
    MAKHLIN_NAMES,
    SymmetricInvariants,
    canonical_form,
    locally_equivalent,
    makhlin_all,
    makhlin_from_bloch,
    separability_flags,
    special_class_invariants,
    symmetric_six,
    symmetric_six_from_bloch,
)
from symsq.models import dicke_pair, ku_pair
from symsq.numerics import PAULI_PAIRS, hermitian_eigh
from symsq.states import (
    SpecialClassState,
    TwoQubitState,
    apply_local_unitaries,
    concurrence,
    from_bloch,
    haar_unitary_2x2,
    random_special_class,
    random_symmetric_state,
)


# ----------------------------------------------------------------------
# Fixed values

def test_bell_invariants(bell_state):
    inv = symmetric_six(bell_state)
    assert abs(inv.I1 + 1.0) < 1e-12
    assert abs(inv.I2 - 3.0) < 1e-12
    assert abs(inv.I3) < 1e-12
    assert abs(inv.I4) < 1e-12
    assert abs(inv.I5) < 1e-12
    m = makhlin_all(bell_state)
    assert abs(m.I1 + 1.0) < 1e-12 and abs(m.I2 - 3.0) < 1e-12
    assert abs(m.I4) < 1e-12 and abs(m.I7) < 1e-12


def test_maximally_mixed_invariants(maximally_mixed):
    m = makhlin_all(maximally_mixed)
    assert all(abs(v) < 1e-14 for v in m.values)


def test_product_state_invariants(product_state):
    inv = symmetric_six(product_state)
    assert abs(inv.I2 - 1.0) < 1e-12
    assert abs(inv.I3 - 1.0) < 1e-12
    assert abs(inv.I4 - 1.0) < 1e-12
    assert abs(inv.I1) < 1e-12 and abs(inv.I5) < 1e-12


def test_symmetric_six_requires_symmetric_state(maximally_mixed):
    with pytest.raises(NotSymmetricState):
        symmetric_six(maximally_mixed)


# ----------------------------------------------------------------------
# Invariance and symmetric degeneracies

def test_local_unitary_invariance(rng):
    for _ in range(100):
        state = random_symmetric_state(3, rng)
        out = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
        a, b = makhlin_all(state).values, makhlin_all(out).values
        assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


def _one_shot_makhlin(s, r, t) -> np.ndarray:
    """I1..I18, each by its own products of (s, r, T), I14 by one
    six-operand einsum: the formulas that makhlin_from_bloch stacks."""
    eps = invariants.EPS

    def triple(a, b, c):
        return np.einsum("ijk,i,j,k->", eps, a, b, c)

    tt, ttt = t @ t.T, t.T @ t
    tts, tttr, ts_left, tr = tt @ s, ttt @ r, t.T @ s, t @ r
    return np.array([
        triple(t[0], t[1], t[2]), np.trace(ttt), np.trace(ttt @ ttt),
        s @ s, s @ tts, s @ (tt @ tts), r @ r, r @ tttr, r @ (ttt @ tttr),
        triple(s, tts, tt @ tts), triple(r, tttr, ttt @ tttr),
        s @ tr, s @ (tt @ tr), np.einsum("ijk,lmn,i,l,jm,kn->", eps, eps, s, r, t, t),
        triple(s, tts, tr), triple(ts_left, r, tttr), triple(ts_left, ttt @ ts_left, r),
        triple(s, tr, tt @ tr),
    ])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["ginibre", "triplet", "image", "special"]),
       seed=st.integers(0, 2**32 - 1))
def test_stacked_makhlin_is_the_one_shot_formulas(kind, seed):
    """Each of the 18 invariants that the stacked contractions give lies
    within 1e-15 (1 + |v|) of its one-shot formula's value v, on generic
    states, symmetric ones, their local-unitary images and special-class
    states (whose s and T have zero entries)."""
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        state = TwoQubitState(_ginibre_rho(rng))
    elif kind == "special":
        state = states.symmetric_from_special(random_special_class(rng))
    else:
        state = random_symmetric_state(int(rng.integers(1, 4)), rng)
        if kind == "image":
            state = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    want = _one_shot_makhlin(*state.bloch())
    got = np.array(makhlin_all(state).values)
    assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + np.abs(want))), got - want


def test_makhlin_names_past_i18_are_missing_attributes():
    """MakhlinInvariants answers I1..I18 by name and raises AttributeError
    for any other missing name, so hasattr and copy.deepcopy work."""
    m = makhlin_from_bloch([0.1, 0.0, 0.2], [0.0, 0.3, 0.0], np.diag([0.5, -0.2, 0.1]))
    assert [getattr(m, name) for name in MAKHLIN_NAMES] == list(m.values)
    assert not hasattr(m, "I19") and not hasattr(m, "I0")
    with pytest.raises(AttributeError):
        m.I19
    twin = copy.deepcopy(m)
    assert twin == m and twin is not m and twin.I14 == m.I14


def test_symmetric_degeneracies(rng):
    """For exchange-symmetric states the 18 invariants collapse pairwise."""
    for _ in range(50):
        state = random_symmetric_state(3, rng)
        m = makhlin_all(state)
        for lhs, rhs in (("I4", "I7"), ("I5", "I8"), ("I6", "I9"),
                         ("I10", "I11"), ("I15", "I16"), ("I17", "I18")):
            assert abs(getattr(m, lhs) - getattr(m, rhs)) < 1e-11


def test_symmetric_six_consistent_with_makhlin(rng):
    for _ in range(50):
        state = random_symmetric_state(3, rng)
        six = symmetric_six(state)
        m = makhlin_all(state)
        assert abs(six.I1 - m.I1) < 1e-12
        assert abs(six.I2 - m.I2) < 1e-12
        assert abs(six.I3 - m.I4) < 1e-12  # s.s
        assert abs(six.I4 - m.I12) < 1e-12  # s.T s (r = s)
        assert abs(six.I6 - m.I18) < 1e-11


# ----------------------------------------------------------------------
# Special class

def test_special_class_closed_forms(rng):
    for _ in range(500):
        p = random_special_class(rng)
        closed = special_class_invariants(p)
        s, t = p.bloch()
        direct = symmetric_six_from_bloch(s, t)
        for k in ("I1", "I2", "I3", "I4", "I5", "I6"):
            assert abs(getattr(closed, k) - getattr(direct, k)) < 1e-12


def test_special_class_state_passes_no_second_gate(rng):
    """A SpecialClassState's invariants and Bloch data are what the gated
    special_class_six and special_class_bloch return, and the gate leaves
    the fields of one state Python floats."""
    p = random_special_class(rng)
    six = invariants.special_class_six(p.a, p.b, p.c, p.d)
    s, t = states.special_class_bloch(p.a, p.b, p.c, p.d)
    assert special_class_invariants(p) == six
    assert all(type(v) is float for v in dataclasses.astuple(six))
    s_p, t_p = p.bloch()
    assert np.array_equal(s_p, s) and np.array_equal(t_p, t)


def test_special_class_reduction_identities(rng):
    """When I3 != 0: I1 = I5 I4 / (2 I3^2) and
    I2 = ((I3 - I4)^2 - I3 I5 + I4^2)/I3^2."""
    for _ in range(500):
        p = random_special_class(rng)
        inv = special_class_invariants(p)
        if inv.I3 < 1e-6:
            continue
        assert abs(inv.I1 - inv.I5 * inv.I4 / (2 * inv.I3 ** 2)) < 1e-9
        rhs = ((inv.I3 - inv.I4) ** 2 - inv.I3 * inv.I5 + inv.I4 ** 2) / inv.I3 ** 2
        assert abs(inv.I2 - rhs) < 1e-9


def test_special_class_bell_corner():
    inv = special_class_invariants(SpecialClassState(a=0.0, b=0.0, c=0.5, d=0.0))
    assert abs(inv.I1 + 1.0) < 1e-15


def test_b_sign_is_unphysical(rng):
    for _ in range(50):
        p = random_special_class(rng)
        q = SpecialClassState(a=p.a, b=-p.b, c=p.c, d=p.d)
        a, b = special_class_invariants(p), special_class_invariants(q)
        for k in ("I1", "I2", "I3", "I4", "I5", "I6"):
            assert abs(getattr(a, k) - getattr(b, k)) < 1e-15


# ----------------------------------------------------------------------
# Sign tests

def test_separability_flags_bell(bell_state):
    flags = separability_flags(symmetric_six(bell_state))
    assert dataclasses.astuple(flags) == (False, False, False, True)


def test_separability_flags_lambda3_negative():
    # lambda_3 = c - |b| < 0 with I3 = (a - d)^2 != 0 forces I5 < 0
    p = SpecialClassState(a=0.5, b=0.3, c=0.1, d=0.3)
    flags = separability_flags(special_class_invariants(p))
    assert flags.I5_negative


def test_flags_false_on_product(product_state):
    flags = separability_flags(symmetric_six(product_state))
    assert not any(dataclasses.astuple(flags))


def test_separability_flags_over_a_stack(rng):
    """Flags of stacked invariants are the per-pair flags entry by entry,
    and one pair's flags are Python bools, which the CLI prints as
    true/false.  The stack sets each flag somewhere and clears it
    somewhere; the models' own stacks take the same call."""
    pairs = [dicke_pair(4, 0)[1], dicke_pair(6, 1)[1], dicke_pair(4, 2)[1],
             ku_pair(4, 0.1)[2],
             *(symmetric_six(random_symmetric_state(r, rng)) for r in (1, 2, 3, 3))]
    stacked = SymmetricInvariants(*(np.array([getattr(one, f"I{k}") for one in pairs])
                                    for k in range(1, 7)))
    flags = dataclasses.asdict(separability_flags(stacked))
    for k, one in enumerate(pairs):
        for name, value in dataclasses.asdict(separability_flags(one)).items():
            assert type(value) is bool and flags[name][k] == value
    assert all(column.any() and not column.all() for column in flags.values())
    ku_flags = separability_flags(ku_pair(4, np.array([0.1, 0.5]))[2])
    assert ku_flags.I5_negative.tolist() == [True, True]
    assert ku_flags.I1_negative_with_I3_zero.tolist() == [False, False]


def test_i5_negative_implies_i1_negative(rng):
    """One-sided implication that does hold on the special class."""
    for _ in range(1000):
        inv = special_class_invariants(random_special_class(rng))
        if inv.I5 < -1e-9 and inv.I3 > 1e-9:
            assert inv.I1 < 1e-12


def test_i1_negative_does_not_imply_i2_above_one():
    """Regression: a valid special-class state with det T < 0 but
    Tr T^2 < 1, so no inequality I1 < 0 => I2 > 1 can hold."""
    inv = special_class_invariants(SpecialClassState(a=0.35, b=0.0, c=0.3, d=0.05))
    assert inv.I1 < -1e-3
    assert inv.I2 < 1.0


# ----------------------------------------------------------------------
# Canonical form / local equivalence

def test_canonical_form_diagonal_fixture(product_state):
    cf = canonical_form(product_state)
    assert cf.degeneracy == "two_equal"
    assert np.allclose(sorted(np.abs(cf.t_diag)), [0, 0, 1], atol=1e-12)


def test_canonical_form_matches_under_local_unitaries(rng):
    for _ in range(30):
        state = random_symmetric_state(3, rng)
        rotated = apply_local_unitaries(
            state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
        a, b = canonical_form(state), canonical_form(rotated)
        if a.degeneracy != "none" or b.degeneracy != "none":
            continue
        assert np.max(np.abs(a.t_diag - b.t_diag)) < 1e-8
        assert np.max(np.abs(a.s_canon - b.s_canon)) < 1e-7
        assert np.max(np.abs(a.r_canon - b.r_canon)) < 1e-7


def test_schmidt_pure_state_canonical_t():
    """Pure product-basis superposition k1|00> + k2|11>:
    canonical |t_diag| = (2 k1 k2, 2 k1 k2, 1)."""
    k1, k2 = np.cos(0.4), np.sin(0.4)
    v = np.array([k1, 0, 0, k2], dtype=complex)
    state = from_bloch(*_bloch_of(np.outer(v, v.conj())))
    cf = canonical_form(state)
    expected = sorted([2 * k1 * k2, 2 * k1 * k2, 1.0])
    assert np.allclose(sorted(np.abs(cf.t_diag)), expected, atol=1e-10)


def _bloch_of(rho):
    state = TwoQubitState(rho)
    return state.s, state.r, state.T


def test_locally_equivalent_true_and_false(rng):
    state = random_symmetric_state(3, rng)
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    assert locally_equivalent(state, rotated)
    other = random_symmetric_state(3, rng)
    assert not locally_equivalent(state, other)


def _ginibre_rho(rng):
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _two_solve_concurrence(rho):
    """Wootters' lambda_i as square roots of the spectrum of
    sqrt(rho) rho~ sqrt(rho), with both eigenproblems solved afresh."""
    w, v = hermitian_eigh(rho)
    sqrt_rho = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    sysy = PAULI_PAIRS[2, 2]
    m = sqrt_rho @ (sysy @ rho.conj() @ sysy) @ sqrt_rho
    lam = np.sqrt(np.clip(hermitian_eigh(m)[0], 0.0, None))[::-1]
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _fresh_factor_concurrence(rho):
    """concurrence's formula on a fresh hermitian_eigh of rho."""
    w, v = hermitian_eigh(rho)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(x.T @ PAULI_PAIRS[2, 2] @ x, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1))
def test_locally_equivalent_generic_states(seed):
    """A generic (Ginibre) state and its copy under a Haar u1 (x) u2 agree
    on all 18 invariants within LOCAL_EQUIVALENCE_TOL.  concurrence
    equals its formula on a fresh hermitian_eigh bit for bit.  The
    singular values of tau = X^T (sy x sy) X give the concurrence that the
    spectrum of sqrt(rho) rho~ sqrt(rho) gives."""
    rng = np.random.default_rng(seed)
    state = TwoQubitState(_ginibre_rho(rng))
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    assert locally_equivalent(state, rotated)
    for st_ in (state, rotated):
        assert concurrence(st_) == _fresh_factor_concurrence(st_.rho)
        assert abs(concurrence(st_) - _two_solve_concurrence(st_.rho)) < 1e-9


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["ginibre", "pure", "triplet"]), seed=st.integers(0, 2**32 - 1))
def test_concurrence_is_invariant_under_local_unitaries(kind, seed):
    """An image under a Haar u1 (x) u2 has its parent's concurrence, also
    for states of rank 1..3; a pure state's is the closed form
    C(psi) = |psi^T (sy x sy) psi|."""
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        state = TwoQubitState(_ginibre_rho(rng))
    elif kind == "pure":
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        state = TwoQubitState(np.outer(psi, psi.conj()))
        assert abs(concurrence(state) - abs(psi @ PAULI_PAIRS[2, 2] @ psi)) < 1e-9
    else:
        state = random_symmetric_state(int(rng.integers(1, 4)), rng)
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    assert abs(concurrence(rotated) - concurrence(state)) < 1e-9


def _bell_diagonal(t_diag):
    return from_bloch([0, 0, 0], [0, 0, 0], np.diag(t_diag))


def _canonical_by_the_flip_loop(state):
    """The reference: canonical_form's choice as a loop over the four flips,
    keeping the first whose 9-digit (s, r) tuple is largest."""
    o1, d, o2 = numerics.svd3(state.T)
    s_c, r_c = o1 @ state.s, o2 @ state.r
    best = None
    for f in ([1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]):
        cand_s, cand_r = np.array(f) * s_c, np.array(f) * r_c
        key = tuple(np.round(np.concatenate([cand_s, cand_r]), 9))
        if best is None or key > best[0]:
            best = (key, cand_s, cand_r)
    return d, best[1], best[2]


def test_canonical_form_is_the_flip_loop():
    """canonical_form is bit for bit the loop over the flips on seeded
    Ginibre states and on a state with s = r = 0, where the four flips
    round equal and the first (the identity) wins."""
    rng = np.random.default_rng(2028)
    tie = _bell_diagonal([0.5, -0.3, 0.1])
    for state in [tie, *(TwoQubitState(_ginibre_rho(rng)) for _ in range(300))]:
        cf = canonical_form(state)
        for got, want in zip((cf.t_diag, cf.s_canon, cf.r_canon),
                             _canonical_by_the_flip_loop(state)):
            assert got.tobytes() == want.tobytes()
    cf = canonical_form(tie)
    assert not np.signbit(cf.s_canon).any() and not np.signbit(cf.r_canon).any()


def test_degeneracy_boundary_band_gets_a_label(rng):
    """A relative singular-value gap of 3e-8, just above DEGENERACY_REL_GAP,
    is an ordinary input: canonical_form labels it and the state is locally
    equivalent to a rotated copy."""
    state = _bell_diagonal([0.5, 0.5 * (1 + 3e-8), -0.1])
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    assert canonical_form(state).degeneracy in ("none", "two_equal", "all_equal")
    assert canonical_form(rotated).degeneracy in ("none", "two_equal", "all_equal")
    assert locally_equivalent(state, rotated)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(a=st.floats(0.1, 0.4), eps=st.floats(0.0, 1e-6), c=st.floats(-0.1, 0.1),
       seed=st.integers(0, 2**32 - 1))
def test_near_degenerate_bell_diagonal_canonical_form(a, eps, c, seed):
    """Bell-diagonal states T = diag(a, a(1 + eps), c) (PSD on this box) and
    Haar-rotated copies share the canonical T and are locally equivalent."""
    rng = np.random.default_rng(seed)
    state = _bell_diagonal([a, a * (1 + eps), c])
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    cf, cf_rot = canonical_form(state), canonical_form(rotated)
    assert np.max(np.abs(cf.t_diag - cf_rot.t_diag)) < 1e-8
    assert locally_equivalent(state, rotated)


def test_makhlin_from_bloch_direct():
    m = makhlin_from_bloch([0, 0, 0], [0, 0, 0], np.diag([1.0, 1.0, -1.0]))
    assert abs(m.I1 + 1.0) < 1e-15
    assert abs(m.I2 - 3.0) < 1e-15
    assert len(MAKHLIN_NAMES) == 18


# ----------------------------------------------------------------------
# One decomposition and one Makhlin set per state


def _count_calls(monkeypatch):
    """A Counter of eigensolves ("eigh"; "vectors" for those that build
    eigenvectors) and makhlin_from_bloch ("makhlin") calls, filled while
    the test runs."""
    counts = Counter()
    solve, lapack = numerics._jacobi_hermitian, np.linalg.eigvalsh

    def counted_solve(a, vectors):
        counts["eigh"] += 1
        counts["vectors"] += vectors
        return solve(a, vectors)

    def counted_lapack(a):
        counts["eigh"] += 1
        return lapack(a)

    def counted_makhlin(*args):
        counts["makhlin"] += 1
        return makhlin(*args)

    # Every complex solve, with or without eigenvectors, reaches the one
    # Jacobi solver, and every real symmetric solve LAPACK's eigvalsh.
    makhlin = invariants.makhlin_from_bloch
    monkeypatch.setattr(numerics, "_jacobi_hermitian", counted_solve)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_lapack)
    monkeypatch.setattr(invariants, "makhlin_from_bloch", counted_makhlin)
    return counts


def test_one_lu_item_solves_one_eigenproblem_and_four_makhlin_sets(monkeypatch, rng):
    """One lu_equivalence item by hand: the constructor and its
    local-unitary image solve no eigenproblem (positivity is a Cholesky
    factorization), and concurrence solves the one, hermitian_eigh(rho),
    the item's only solve that builds eigenvectors.  Each of the four
    callers of a state's 18 invariants (makhlin_all twice, then
    locally_equivalent for both states) computes its own set.  A second
    concurrence call solves its own factor again: nothing is kept."""
    counts = _count_calls(monkeypatch)
    state = TwoQubitState(_ginibre_rho(rng))
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    makhlin_all(state)
    makhlin_all(rotated)
    canonical_form(rotated)
    assert locally_equivalent(state, rotated)
    assert counts["eigh"] == 0
    concurrence(state)
    assert counts == {"eigh": 1, "vectors": 1, "makhlin": 4}
    concurrence(state)
    assert counts == {"eigh": 2, "vectors": 2, "makhlin": 4}


def test_apply_local_unitaries_solves_no_eigenproblem(monkeypatch, rng):
    """The image inherits positivity from its parent, also an image's image,
    so it runs no positivity gate, neither a solve nor a factorization.  Its
    Bloch data are its own: its Makhlin set is a fresh state's of its rho."""
    state = TwoQubitState(_ginibre_rho(rng))
    counts = _count_calls(monkeypatch)
    factored, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: factored.append(a) or cholesky(a))
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    apply_local_unitaries(rotated, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    assert counts["eigh"] == 0 and factored == []
    assert makhlin_all(rotated).values == makhlin_all(TwoQubitState(rotated.rho)).values


def _rank_one_triplet_rho(rng):
    amp = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi = amp @ states.TRIPLET_BASIS / np.linalg.norm(amp)
    return np.outer(psi, psi.conj())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(kind=st.sampled_from(["ginibre", "rank1_triplet", "separable"]),
       seed=st.integers(0, 2**32 - 1))
def test_image_inherits_the_parents_positivity_verdict(kind, seed):
    """Under Haar u1 (x) u2 the smallest eigenvalue moves by rounding only,
    so the positivity verdict an image inherits is the one a fresh gate
    gives, also for rank-1 states whose smallest eigenvalue is zero."""
    rng = np.random.default_rng(seed)
    if kind == "ginibre":
        state = TwoQubitState(_ginibre_rho(rng))
    elif kind == "rank1_triplet":
        state = TwoQubitState(_rank_one_triplet_rho(rng))
    else:
        state = states.random_separable_symmetric(int(rng.integers(1, 6)), rng)
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    w_parent, w_image = hermitian_eigh(state.rho)[0][0], hermitian_eigh(rotated.rho)[0][0]
    assert abs(w_image - w_parent) < 1e-12
    assert w_image >= -states.FROM_BLOCH_PSD_TOL


def test_state_arrays_are_read_only(rng):
    """The state keeps its own read-only copy of rho: a write to the
    caller's array, or an in-place write to any array the state holds,
    leaves concurrence and the Makhlin set as a fresh state computes them."""
    rho = _ginibre_rho(rng)
    kept = rho.copy()
    state = TwoQubitState(rho)
    conc, inv = concurrence(state), makhlin_all(state)
    rho[0, 0] += 1.0
    for arr in (state.rho, state.s, state.r, state.T):
        with pytest.raises(ValueError):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr *= 2.0
    fresh = TwoQubitState(kept)
    assert concurrence(state) == conc == concurrence(fresh)
    assert makhlin_all(state).values == inv.values == makhlin_all(fresh).values
