"""Covariance-matrix criterion, PPT equivalence chain, bar invariants,
collective witness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq import covariance, numerics, states
from symsq.collective import classify_invariants, squeezing
from symsq.covariance import (
    U_ANGULAR,
    U_PRIME,
    bar_invariants,
    c_matrix,
    c_negativity_test,
    collective_criterion,
    korbicz_minimum,
    korbicz_witness,
    ppt_equivalence_chain,
)
from symsq.errors import (DomainError, InvalidN, NonHermitian, NonUnitVector,
                          NotSymmetricState)
from symsq.invariants import makhlin_all, symmetric_six
from symsq.numerics import SIGN_TOL
from symsq.states import (
    SpecialClassState,
    SymmetricTwoQubitState,
    partial_transpose,
    random_separable_symmetric,
    random_special_class,
    random_symmetric_state,
    rho_from_bloch,
    symmetric_from_special,
)


def test_basis_change_matrices_are_unitary():
    for u in (U_ANGULAR, U_PRIME, U_PRIME @ U_ANGULAR):
        assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-14


def test_c_matrix_requires_symmetric(maximally_mixed):
    with pytest.raises(NotSymmetricState):
        c_matrix(maximally_mixed)


def test_bell_is_c_negative(bell_state):
    min_eig, entangled = c_negativity_test(bell_state)
    assert entangled and min_eig < -0.9


def test_c_an_ulp_less_symmetric_than_t_is_solved(perturbed_triplet):
    """A symmetric state whose T - T^T sits at DEFAULT_TOL: C = T - s s^T
    rounds past it, and every C consumer solves (C + C^T)/2 instead of
    raising NonHermitian at the solver's symmetry gate."""
    state = states.TwoQubitState(perturbed_triplet(9, 3, [0.0, numerics.DEFAULT_TOL, 0.0, 0.0]))
    c = c_matrix(state)
    assert state.symmetric and np.max(np.abs(c - c.T)) > numerics.DEFAULT_TOL
    with pytest.raises(NonHermitian):
        numerics.symmetric_eigenvalues(c)
    least = numerics.symmetric_eigenvalues((c + c.T) / 2)[0]
    covariance._least_eigenvalue.cache_clear()
    assert c_negativity_test(state)[0] == least
    assert collective_criterion(state.s, state.T, 10).min_eig == 2.5 * (1.0 + 9 * least)


def test_separable_states_are_c_nonnegative(rng):
    for _ in range(200):
        state = random_separable_symmetric(4, rng)
        min_eig, entangled = c_negativity_test(state)
        assert min_eig > -1e-9 and not entangled


def test_ppt_chain_exact_on_bell(bell_state):
    diag = ppt_equivalence_chain(bell_state)
    assert diag.bordered_deviation < 1e-12
    assert diag.block_deviation < 1e-12
    assert diag.negatives_pt == diag.negatives_block == 1
    assert diag.inertia_match


def test_ppt_chain_random(rng):
    for _ in range(200):
        state = random_symmetric_state(3, rng)
        diag = ppt_equivalence_chain(state)
        assert diag.bordered_deviation < 1e-11
        assert diag.block_deviation < 1e-11
        assert diag.inertia_match


def test_ppt_verdict_equals_c_verdict(rng):
    for _ in range(300):
        state = random_symmetric_state(3, rng)
        w = np.linalg.eigvalsh(partial_transpose(state))
        min_eig, c_neg = c_negativity_test(state)
        if min(abs(w[0]), abs(min_eig)) < 1e-8:
            continue  # boundary band
        assert (w[0] < 0) == c_neg


def test_bar_invariant_identities(rng):
    """bar1 = I1 - I5/2, bar2 = 1 - I3, bar3 = I2 + I3^2 - 2 I4."""
    for _ in range(300):
        state = random_symmetric_state(3, rng)
        inv = symmetric_six(state)
        bars = bar_invariants(state)
        assert abs(bars.bar1 - (inv.I1 - inv.I5 / 2)) < 1e-12
        assert abs(bars.bar2 - (1 - inv.I3)) < 1e-12
        assert abs(bars.bar3 - (inv.I2 + inv.I3 ** 2 - 2 * inv.I4)) < 1e-12
        assert abs(bars.bar4 - 0.5 * (bars.bar2 ** 2 - bars.bar3)) < 1e-12


def test_bar_verdict_equals_c_verdict(rng):
    """Entangled iff bar1 < 0 or bar4 < 0 (3x3 C with Tr C >= 0)."""
    for _ in range(300):
        state = random_symmetric_state(3, rng)
        bars = bar_invariants(state)
        min_eig, c_neg = c_negativity_test(state)
        if abs(min_eig) < 1e-8 or min(abs(bars.bar1), abs(bars.bar4)) < 1e-10:
            continue
        assert bars.entangled == c_neg


def test_collective_witness_identity(rng):
    """V^(N) + S S^T / N = (N/4)(I + (N-1) C) for every N."""
    state = random_symmetric_state(3, rng)
    c = c_matrix(state)
    for n in range(2, 51):
        crit = collective_criterion(state.s, state.T, n)
        target = 0.25 * n * (np.eye(3) + (n - 1) * c)
        assert np.max(np.abs(crit.witness_matrix - target)) < 1e-12


def test_collective_witness_verdict_matches_c(rng):
    for _ in range(100):
        state = random_symmetric_state(3, rng)
        min_eig, c_neg = c_negativity_test(state)
        if abs(min_eig) < 1e-8:
            continue
        for n in (2, 5, 17):
            crit = collective_criterion(state.s, state.T, n)
            assert crit.entangled == c_neg


def test_collective_criterion_validates_n(rng):
    state = random_symmetric_state(3, rng)
    with pytest.raises(InvalidN):
        collective_criterion(state.s, state.T, 1)


def test_korbicz_witness_and_minimum(rng):
    for _ in range(100):
        state = random_symmetric_state(3, rng)
        kmin = korbicz_minimum(state.s, state.T)
        min_eig, _ = c_negativity_test(state)
        assert abs(kmin - min_eig) < 1e-10
        # any direction upper-bounds the minimum
        k = rng.normal(size=3)
        k /= np.linalg.norm(k)
        assert korbicz_witness(state.s, state.T, k) >= kmin - 1e-12


def test_korbicz_rejects_non_unit(rng):
    state = random_symmetric_state(3, rng)
    with pytest.raises(NonUnitVector):
        korbicz_witness(state.s, state.T, [1.0, 1.0, 0.0])


def test_special_class_ppt_matches_closed_eigenvalues(rng):
    """PT spectrum of the special class equals
    {(a+d)/2 -/+ sqrt((a-d)^2 + 4c^2)/2, c -/+ |b|} as a multiset."""
    for _ in range(300):
        p = random_special_class(rng)
        state = symmetric_from_special(p)
        w = np.sort(np.linalg.eigvalsh(partial_transpose(state)))
        disc = np.sqrt((p.a - p.d) ** 2 + 4 * p.c ** 2)
        closed = np.sort([
            0.5 * (p.a + p.d) - 0.5 * disc,
            0.5 * (p.a + p.d) + 0.5 * disc,
            p.c - abs(p.b),
            p.c + abs(p.b),
        ])
        assert np.max(np.abs(w - closed)) < 1e-10


def _count_c_solves(monkeypatch):
    """The shapes of the matrices covariance hands to its symmetric
    eigensolver, with the memo of the last C emptied first."""
    solved = []
    solve = covariance.symmetric_eigenvalues

    def counted(m):
        solved.append(np.shape(m))
        return solve(m)

    monkeypatch.setattr(covariance, "symmetric_eigenvalues", counted)
    covariance._least_eigenvalue.cache_clear()
    return solved


def test_one_pair_solves_c_once_for_every_n(monkeypatch, rng):
    """c_negativity_test and the collective witness at N = 2, 10 and 100
    read one solve of the pair's C."""
    state = random_symmetric_state(3, rng)
    solved = _count_c_solves(monkeypatch)
    min_eig, _ = c_negativity_test(state)
    for n in (2, 10, 100):
        crit = collective_criterion(state.s, state.T, n)
        assert crit.min_eig == 0.25 * n * (1.0 + (n - 1) * min_eig)
    assert korbicz_minimum(state.s, state.T) == min_eig
    assert solved == [(3, 3)]


def test_one_pair_item_makes_two_eigensolves(monkeypatch, rng):
    """One pair-verdicts item by hand (construct, 18 and 6 invariants, PPT,
    C test, bar invariants, branch, squeezing, witness at three N) solves
    two eigenproblems, each for its values alone: its partial transpose by
    Jacobi and C by LAPACK.  The constructor's positivity gate is a
    Cholesky factorization and no verdict needs concurrence, so rho itself
    is never solved."""
    rho = random_symmetric_state(3, rng).rho
    covariance._least_eigenvalue.cache_clear()
    solved, vectors = [], []
    jacobi, lapack = numerics._jacobi_hermitian, np.linalg.eigvalsh

    def counted_jacobi(a, with_vectors):
        solved.append(("jacobi", np.shape(a)))
        vectors.append(with_vectors)
        return jacobi(a, with_vectors)

    def counted_lapack(a):
        solved.append(("lapack", np.shape(a)))
        return lapack(a)

    # Every complex solve, with or without eigenvectors, reaches the one
    # Jacobi solver, and every real symmetric solve LAPACK's eigvalsh.
    monkeypatch.setattr(numerics, "_jacobi_hermitian", counted_jacobi)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted_lapack)
    state = SymmetricTwoQubitState(rho)
    makhlin_all(state)
    inv = symmetric_six(state)
    numerics.hermitian_eigenvalues(partial_transpose(state))
    c_negativity_test(state)
    bar_invariants(state)
    classify_invariants(inv)
    squeezing(state.s, state.T, 2)
    for n in (2, 10, 100):
        collective_criterion(state.s, state.T, n)
    assert solved == [("jacobi", (4, 4)), ("lapack", (3, 3))]
    assert vectors == [False]


def _spin_flip_mix(state, p):
    """p rho + (1 - p) rho~ with rho~ the spin flip of rho: a symmetric state
    with Bloch data ((2p - 1) s, (2p - 1) s, T)."""
    w = 2.0 * p - 1.0
    return SymmetricTwoQubitState(rho_from_bloch(w * state.s, w * state.s, state.T))


def test_c_memo_follows_s_and_t(rng):
    """Alternating pairs that share s but not T (special class, different b)
    or T but not s (spin-flip mixtures, all given the one T array) each get
    their own C's least eigenvalue from korbicz_minimum, c_negativity_test
    and the witness."""
    same_s = [symmetric_from_special(SpecialClassState(a=0.4, b=b, c=0.15, d=0.3))
              for b in (-0.3, 0.0, 0.2)]
    assert all(np.array_equal(x.s, same_s[0].s) for x in same_s)
    base = random_symmetric_state(2, rng)
    same_t = [_spin_flip_mix(base, p) for p in (1.0, 0.75, 0.5)]
    pairs = [(x.s, x.T, x) for x in same_s] + [(x.s, base.T, x) for x in same_t]
    wants = [float(np.linalg.eigvalsh(t - np.outer(s, s))[0]) for s, t, _ in pairs]
    assert len({round(w, 9) for w in wants}) == len(pairs)
    order = [0, 1, 2, 1, 0, 3, 4, 5, 4, 3, 0, 5, 1, 4, 2, 3]
    for k in order:
        s, t, _ = pairs[k]
        assert abs(korbicz_minimum(s, t) - wants[k]) < 1e-12
        for n in (2, 17):
            crit = collective_criterion(s, t, n)
            assert abs(crit.min_eig - 0.25 * n * (1.0 + (n - 1) * wants[k])) < 1e-12 * n * n
    for k in order:
        state = pairs[k][2]
        min_eig, _ = c_negativity_test(state)
        assert abs(min_eig - np.linalg.eigvalsh(c_matrix(state))[0]) < 1e-12


def test_witness_minimum_matches_its_matrix(rng):
    """min_eig agrees with LAPACK's least eigenvalue of the moment-built
    witness matrix within 1e-14 N^2 for every N in 2..1000."""
    samples = [random_symmetric_state(rank, rng) for rank in (1, 2, 3)]
    samples += [random_separable_symmetric(3, rng),
                symmetric_from_special(random_special_class(rng))]
    for state in samples:
        for n in range(2, 1001):
            crit = collective_criterion(state.s, state.T, n)
            lapack = np.linalg.eigvalsh(crit.witness_matrix)[0]
            assert abs(crit.min_eig - lapack) <= 1e-14 * n * n, (n, crit.min_eig, lapack)


def _sampled_state(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "triplet":
        return random_symmetric_state(int(rng.integers(1, 4)), rng)
    if kind == "separable":
        return random_separable_symmetric(int(rng.integers(1, 6)), rng)
    return symmetric_from_special(random_special_class(rng))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kind=st.sampled_from(["triplet", "separable", "special"]),
       seed=st.integers(0, 2**32 - 1))
def test_c_carries_the_partial_transpose_sign(kind, seed):
    """det(rho^Gamma) = det(C)/16, and C has at most one negative eigenvalue,
    as rho^Gamma is congruent to (1/2) diag(C, 1); LAPACK on both sides."""
    state = _sampled_state(kind, seed)
    c = c_matrix(state)
    det_pt = float(np.real(np.linalg.det(partial_transpose(state))))
    assert abs(det_pt - np.linalg.det(c) / 16.0) <= 1e-15
    assert np.sum(np.linalg.eigvalsh(c) < -1e-12) <= 1


def _congruence_floor(s_norm):
    """f(|s|) = (1 + |s|^2/2 - |s| sqrt(1 + |s|^2/4))/2 = sigma_min(L)^2/2
    for L = [[1, s^T], [0, I]]; at least (3 - sqrt(5))/4 for |s| <= 1."""
    return (1.0 + s_norm**2 / 2.0 - s_norm * np.sqrt(1.0 + s_norm**2 / 4.0)) / 2.0


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_partial_transpose_over_c_lies_in_the_band(rank, seed):
    """rho^Gamma is congruent to (1/2) L^T diag(1, C) L, so by Ostrowski's
    theorem lambda_min(rho^Gamma)/lambda_min(C) lies in [f(|s|), 1/2]
    wherever lambda_min(C) < -1e-6, up to 1e-14 of rounding in either
    eigenvalue.  So the PPT and C < 0 verdicts at one tol can disagree only
    for lambda_min(C) in [-tol/f(|s|), -tol), as the README states."""
    state = random_symmetric_state(rank, seed)
    c_min = korbicz_minimum(state.s, state.T)
    if c_min < -1e-6:
        pt_min = numerics.hermitian_eigenvalues(partial_transpose(state))[0]
        floor = _congruence_floor(np.linalg.norm(state.s))
        assert floor >= (3.0 - np.sqrt(5.0)) / 4.0
        assert c_min / 2.0 - 1e-14 <= pt_min <= floor * c_min + 1e-14


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_i5_factors_through_the_transverse_eigenvalues(rank, seed):
    """I5 = 2 |s|^2 t_- t_+ with t_-, t_+ the transverse eigenvalues of T
    that squeezing returns, so sign(xi^2 - 1) = sign(I5) and verify's
    |I5| <= tol band is |xi^2 - 1| <= (N - 1) tol / (2 |s|^2 t_+)."""
    state = random_symmetric_state(rank, seed)
    sq = squeezing(state.s, state.T, 2)
    product = 2.0 * (state.s @ state.s) * sq.t_perp_minus * sq.t_perp_plus
    assert abs(symmetric_six(state).I5 - product) <= 1e-11


def _drawn_symmetric(kind, n, seed):
    """An n x n real symmetric matrix of the given kind drawn from seed, or
    for a sampler kind the (C + C^T)/2 of a sampled state (n unused)."""
    if kind in ("triplet", "separable", "special"):
        c = c_matrix(_sampled_state(kind, seed))
        return (c + c.T) / 2
    z = np.random.default_rng(seed).normal(size=(n, n))
    if kind == "dense":
        return (z + z.T) / 2
    if kind == "diagonal":
        return np.diag(z[0])
    o = np.linalg.qr(z)[0]
    if kind == "degenerate":  # an orthogonal conjugate of a repeated diagonal
        w = np.full(n, z[0, 0])
        if n > 2:
            w[-1] = z[-1, -1]
    else:  # rank-deficient: the least eigenvalue is zero
        w = np.concatenate([[0.0], np.abs(z[0, 1:])])
    return (o * w) @ o.T


@settings(derandomize=True, deadline=None, max_examples=400)
@given(kind=st.sampled_from(["dense", "diagonal", "degenerate", "rank_deficient",
                             "triplet", "separable", "special"]),
       n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_symmetric_eigenvalues_agree_with_jacobi(kind, n, seed):
    """LAPACK's symmetric_eigenvalues against the Jacobi solver as the
    independent route: the eigenvalues agree within 1e-14 max(1, ||m||), the
    C < 0 verdict agrees outside |lambda_min| <= 10 SIGN_TOL (for a sampled
    state, c_negativity_test's own), and complex input or an asymmetry
    above DEFAULT_TOL raises."""
    m = _drawn_symmetric(kind, n, seed)
    w = numerics.symmetric_eigenvalues(m)
    w_jacobi = numerics.hermitian_eigenvalues(m)
    assert np.max(np.abs(w - w_jacobi)) <= 1e-14 * max(1.0, np.linalg.norm(m, 2))
    least = w[0]
    if kind in ("triplet", "separable", "special"):
        covariance._least_eigenvalue.cache_clear()
        least, entangled = c_negativity_test(_sampled_state(kind, seed))
        assert entangled == (least < -SIGN_TOL)
    if abs(w_jacobi[0]) > 10 * SIGN_TOL:
        assert (least < -SIGN_TOL) == (w_jacobi[0] < -SIGN_TOL)
    with pytest.raises(DomainError):
        numerics.symmetric_eigenvalues(m + 0j)
    if len(m) > 1:
        asymmetric = m.copy()
        asymmetric[0, -1] += 2 * numerics.DEFAULT_TOL
        with pytest.raises(NonHermitian):
            numerics.symmetric_eigenvalues(asymmetric)
