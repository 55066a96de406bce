"""Moment map, spin squeezing, invariant-sign classification."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq.collective import (
    Branch,
    check_n,
    classify_invariants,
    collective_forms,
    moments_from_pair,
    pair_from_moments,
    squeezing,
)
from symsq.covariance import c_negativity_test, collective_criterion
from symsq.errors import InvalidN, TraceViolation, ZeroMeanSpin
from symsq.invariants import SymmetricInvariants, special_class_invariants, symmetric_six
from symsq.models import atomic_pair, dicke_pair, ku_pair
from symsq.numerics import SIGN_TOL
from symsq.states import (
    SpecialClassState,
    random_special_class,
    random_symmetric_state,
    symmetric_from_special,
)


def test_moment_map_round_trip(rng):
    state = random_symmetric_state(3, rng)
    for n in (2, 3, 7, 40):
        m = moments_from_pair(state.s, state.T, n)
        s, t = pair_from_moments(m)
        assert np.max(np.abs(s - state.s)) < 1e-12
        assert np.max(np.abs(t - state.T)) < 1e-12


@settings(derandomize=True, deadline=None, max_examples=50)
@given(rank=st.integers(1, 3), seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10_000))
def test_moment_map_round_trip_property(rank, seed, n):
    state = random_symmetric_state(rank, seed)
    s, t = pair_from_moments(moments_from_pair(state.s, state.T, n))
    assert np.max(np.abs(s - state.s)) < 1e-12
    assert np.max(np.abs(t - state.T)) < 1e-12


def test_moment_map_factors():
    s = np.array([0.0, 0.0, 1.0])
    t = np.diag([0.0, 0.0, 1.0])
    m = moments_from_pair(s, t, 6)
    assert np.allclose(m.j_mean, [0, 0, 3])  # N s / 2
    assert abs(m.j_second[2, 2] - 9.0) < 1e-12  # (N/4)(1 + (N-1))


def test_moment_map_validation(rng):
    state = random_symmetric_state(3, rng)
    with pytest.raises(InvalidN):
        moments_from_pair(state.s, state.T, 1)
    with pytest.raises(TraceViolation):
        moments_from_pair(state.s, 2 * state.T, 4)
    # Tr T = 2.7: the witness, built from the moments, gates the trace too.
    for call in (moments_from_pair, collective_criterion):
        with pytest.raises(TraceViolation):
            call(np.zeros(3), 0.9 * np.eye(3), 4)


def test_squeezing_coherent_state_is_unity(product_state):
    rep = squeezing(product_state.s, product_state.T, 10)
    assert abs(rep.xi_sq - 1.0) < 1e-12


def test_squeezing_requires_mean_spin(bell_state):
    with pytest.raises(ZeroMeanSpin):
        squeezing(bell_state.s, bell_state.T, 4)


def test_squeezing_transverse_eigenvalues(rng):
    """t_perp_-/+ are the eigenvalues of T restricted to the plane
    orthogonal to the mean spin."""
    for _ in range(50):
        state = random_symmetric_state(3, rng)
        s0 = np.linalg.norm(state.s)
        if s0 < 0.1:
            continue
        rep = squeezing(state.s, state.T, 5)
        n0 = state.s / s0
        # orthonormal transverse frame
        a = np.eye(3)[np.argmin(np.abs(n0))]
        e1 = np.cross(n0, a)
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n0, e1)
        tp = np.array([[e1 @ state.T @ e1, e1 @ state.T @ e2],
                       [e2 @ state.T @ e1, e2 @ state.T @ e2]])
        w = np.sort(np.linalg.eigvalsh(tp))
        assert abs(rep.t_perp_minus - w[0]) < 1e-10
        assert abs(rep.t_perp_plus - w[1]) < 1e-10
        assert abs(rep.xi_sq - (1 + 4 * rep.t_perp_minus)) < 1e-12


def test_squeezed_iff_i5_negative(rng):
    mismatches = 0
    for _ in range(500):
        state = random_symmetric_state(3, rng)
        inv = symmetric_six(state)
        if inv.I3 < 0.01 or abs(inv.I5) < 1e-8:
            continue
        xi_sq = squeezing(state.s, state.T, 2).xi_sq
        if (xi_sq < 1.0) != (inv.I5 < 0.0):
            mismatches += 1
    assert mismatches == 0


def test_classification_branches(bell_state, product_state):
    assert classify_invariants(symmetric_six(bell_state)).branch is Branch.I3_ZERO_I1_NEGATIVE
    assert classify_invariants(symmetric_six(product_state)).branch is Branch.SEPARABLE_SIGNATURE
    # W-like reduced pair: I4, I5 nonnegative but I4 - I3^2 < 0
    from symsq.models import dicke_pair
    _, inv = dicke_pair(4, 1)
    assert classify_invariants(inv).branch is Branch.I4_POS_COMBO_NEGATIVE


@pytest.mark.parametrize("i5, i4, branch", [
    (-0.02, -0.01, Branch.I5_NEGATIVE),
    (0.02, -0.01, Branch.I4_NEGATIVE),
    (0.02, 0.01, Branch.I4_POS_COMBO_NEGATIVE),
])
def test_classification_takes_the_first_negative_test(i5, i4, branch):
    """With a mean spin (I3 = 0.25) the tests run I5, I4, I4 - I3^2 in that
    order, and the first negative one decides the branch and its margin."""
    inv = SymmetricInvariants(I1=0.1, I2=0.1, I3=0.25, I4=i4, I5=i5, I6=0.1)
    cls = classify_invariants(inv)
    first = {Branch.I5_NEGATIVE: i5, Branch.I4_NEGATIVE: i4,
             Branch.I4_POS_COMBO_NEGATIVE: inv.combo_I4_minus_I3sq}[branch]
    assert cls.branch is branch and cls.margin == -first - SIGN_TOL


def test_mean_spin_skips_the_i1_test():
    """With a mean spin (I3 > tol) I1 is not tested: I5, I4 and I4 - I3^2
    all nonnegative and I1 < -tol read the separable signature, whose
    margin is the smallest tested value's distance above -tol."""
    inv = SymmetricInvariants(I1=-0.5, I2=0.1, I3=0.25, I4=0.1, I5=0.02, I6=0.1)
    cls = classify_invariants(inv)
    assert cls.branch is Branch.SEPARABLE_SIGNATURE
    assert type(cls.margin) is float
    assert cls.margin == min(inv.I5, inv.I4, inv.combo_I4_minus_I3sq) + SIGN_TOL


def test_classification_complete_on_special_class(rng):
    """On the special class the four sign tests exactly decide
    entanglement (PPT verdict)."""
    for _ in range(2000):
        p = random_special_class(rng)
        state = symmetric_from_special(p)
        min_eig, entangled = c_negativity_test(state)
        if abs(min_eig) < 1e-7:
            continue
        cls = classify_invariants(special_class_invariants(p))
        assert (cls.branch is not Branch.SEPARABLE_SIGNATURE) == entangled


def test_classification_incomplete_in_general():
    """Regression: outside the special class a symmetric state can be
    entangled (C < 0) while I1, I4, I5, I4 - I3^2 are all positive; the
    sign tests are sufficient conditions only."""
    found = False
    rng = np.random.default_rng(3)
    for _ in range(3000):
        state = random_symmetric_state(3, rng)
        min_eig, entangled = c_negativity_test(state)
        if not entangled or min_eig > -1e-3:
            continue
        inv = symmetric_six(state)
        if (inv.I3 > 1e-3 and inv.I1 > 1e-6 and inv.I4 > 1e-6
                and inv.I5 > 1e-6 and inv.combo_I4_minus_I3sq > 1e-6):
            found = True
            break
    assert found


def test_collective_forms_dual_route(rng):
    for _ in range(100):
        state = random_symmetric_state(3, rng)
        if np.linalg.norm(state.s) < 0.05:
            continue
        inv = symmetric_six(state)
        for n in (2, 4, 9):
            rec = collective_forms(inv, state.s, state.T, n)
            assert rec.max_deviation < 1e-10


def test_collective_forms_requires_mean_spin(bell_state):
    with pytest.raises(ZeroMeanSpin):
        collective_forms(symmetric_six(bell_state), bell_state.s, bell_state.T, 4)


# A symmetric state with nonzero mean spin, so every N-taking entry runs.
_SPIN_STATE = symmetric_from_special(SpecialClassState(a=0.5, b=0.3, c=0.1, d=0.3))

_N_ENTRIES = {
    "moments_from_pair": lambda n: moments_from_pair(_SPIN_STATE.s, _SPIN_STATE.T, n),
    "pair_from_moments": lambda n: pair_from_moments(dataclasses.replace(
        moments_from_pair(_SPIN_STATE.s, _SPIN_STATE.T, 4), N=n)),
    "squeezing": lambda n: squeezing(_SPIN_STATE.s, _SPIN_STATE.T, n),
    "collective_forms": lambda n: collective_forms(
        symmetric_six(_SPIN_STATE), _SPIN_STATE.s, _SPIN_STATE.T, n),
    "collective_criterion": lambda n: collective_criterion(_SPIN_STATE.s, _SPIN_STATE.T, n),
    "ku_pair": lambda n: ku_pair(n, 0.3),
    "dicke_pair": lambda n: dicke_pair(n, 0),
    "atomic_pair": lambda n: atomic_pair(n, 0.5),
}


@pytest.mark.parametrize("entry", sorted(_N_ENTRIES))
def test_every_n_entry_shares_one_check(entry):
    """N = 10^400 is past 2^53 and the float range: without the gate's
    upper bound it would fail at its first conversion to a float or a C
    integer, so each call is O(1) either way."""
    call = _N_ENTRIES[entry]
    for bad in (1, 0, 4.0, 10**400):
        with pytest.raises(InvalidN):
            call(bad)
    call(np.int64(4))


def test_check_n_takes_n_up_to_2_53():
    """Every integer up to 2^53 is exact as a float, the first one past it
    is not."""
    assert check_n(2**53) == 2**53
    with pytest.raises(InvalidN, match="N must be an integer >= 2 and <= 9007199254740992"):
        check_n(2**53 + 1)
