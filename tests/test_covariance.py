"""Covariance-matrix criterion, PPT equivalence chain, bar invariants,
collective witness."""

import numpy as np
import pytest

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
from symsq.errors import InvalidN, NonUnitVector, NotSymmetricState
from symsq.invariants import symmetric_six
from symsq.states import (
    partial_transpose,
    random_separable_symmetric,
    random_special_class,
    random_symmetric_state,
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
