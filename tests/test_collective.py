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


def _transverse_reference(s, T):
    """Ascending eigenvalues of T on the plane normal to s, in an
    orthonormal basis from a complete QR of s: no rotation to an axis."""
    q = np.linalg.qr(np.reshape(s, (3, 1)), mode="complete")[0][:, 1:]
    return np.linalg.eigvalsh(q.T @ T @ q)


def _pole_direction(sign, angle, phi):
    """The unit vector at `angle` rad from sign * e3, at azimuth phi."""
    return np.array([np.sin(angle) * np.cos(phi), np.sin(angle) * np.sin(phi),
                     sign * np.cos(angle)])


def _assert_matches_reference(s, T):
    """squeezing(s, T, 2) over a stack (K, 3), (K, 3, 3) and for each pair
    alone: t-/+ and xi^2 = 1 + t- within 1e-14 max(1, |T|) of the reference."""
    stacked = squeezing(s, T, 2)
    for k in range(len(s)):
        tol = 1e-14 * max(1.0, np.linalg.norm(T[k], 2))
        w = _transverse_reference(s[k], T[k])
        alone = squeezing(s[k], T[k], 2)
        for minus, plus, xi_sq in ((alone.t_perp_minus, alone.t_perp_plus, alone.xi_sq),
                                   (stacked.t_perp_minus[k], stacked.t_perp_plus[k],
                                    stacked.xi_sq[k])):
            assert abs(minus - w[0]) <= tol
            assert abs(plus - w[1]) <= tol
            assert abs(xi_sq - (1.0 + w[0])) <= tol


_POLE_ANGLES = (0.0, 1e-9, 1e-7, 3e-7, 1e-6, 1e-4, 1e-2)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+e3", "-e3"])
@pytest.mark.parametrize("angle", _POLE_ANGLES)
def test_squeezing_is_exact_near_the_poles(sign, angle):
    """Near +-e3 the transverse eigenvalues keep full precision, in the
    band where a rotation built from 1 + n0_3, or a snap onto the axis,
    loses up to 4e-3 of them."""
    T = np.stack([random_symmetric_state(3, seed).T for seed in (11, 12, 13)])
    s = 0.6 * np.stack([_pole_direction(sign, angle, phi) for phi in (0.0, 0.7, 2.5)])
    _assert_matches_reference(s, T)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), directions=st.lists(st.one_of(
    st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda v: np.linalg.norm(v) > 1e-3),
    st.builds(_pole_direction, st.sampled_from([1.0, -1.0]), st.floats(0.0, 1e-2),
              st.floats(0.0, 2 * np.pi))), min_size=1, max_size=4))
def test_squeezing_matches_the_reference_on_drawn_directions(seed, directions):
    s = np.array(directions, dtype=float)
    T = np.stack([random_symmetric_state(1 + k % 3, seed + k).T for k in range(len(s))])
    _assert_matches_reference(s, T)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["+e3", "-e3"])
def test_squeezing_along_e3_reads_the_2x2_block_exactly(sign):
    """A spin exactly along +-e3 gives t-/+ of T[:2, :2] by the closed 2x2
    formula bit for bit, for one pair and over a stack (the ku model's
    spins lie along -e3)."""
    T = np.stack([random_symmetric_state(3, seed).T for seed in (11, 12, 13)])
    pairs = [(np.array([0.0, 0.0, sign * 0.6]), T)]
    if sign < 0:
        s_ku, T_ku = ku_pair(10, np.linspace(0.01, 0.99, 7))[:2]
        pairs.append((s_ku, T_ku))
    for s, t in pairs:
        a, b, c = t[..., 0, 0], t[..., 1, 1], t[..., 0, 1]
        disc = np.sqrt((a - b) ** 2 + 4 * c * c)
        rep = squeezing(np.broadcast_to(s, t.shape[:-1]), t, 2)
        assert np.array_equal(rep.t_perp_minus, 0.5 * (a + b - disc))
        assert np.array_equal(rep.t_perp_plus, 0.5 * (a + b + disc))
        for k in range(len(t)):
            one = squeezing(np.broadcast_to(s, t.shape[:-1])[k], t[k], 2)
            assert one.t_perp_minus == 0.5 * (a[k] + b[k] - disc[k])
            assert one.t_perp_plus == 0.5 * (a[k] + b[k] + disc[k])


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


def _if_chain(i1, i3, i4, i5, tol):
    """classify_invariants on one pair as a chain of float tests: x < -tol
    when its margin (0 - tol) - x is positive."""
    def margin(x):
        return (0.0 - tol) - x
    if margin(-i3) > 0.0:
        tests = ((Branch.I5_NEGATIVE, i5), (Branch.I4_NEGATIVE, i4),
                 (Branch.I4_POS_COMBO_NEGATIVE, i4 - i3 * i3))
    else:
        tests = ((Branch.I3_ZERO_I1_NEGATIVE, i1),)
    for branch, x in tests:
        if margin(x) > 0.0:
            return branch, margin(x)
    return Branch.SEPARABLE_SIGNATURE, -max(margin(x) for _, x in tests)


_EDGES = st.sampled_from([0.0, -0.0, SIGN_TOL, -SIGN_TOL, 2 * SIGN_TOL, -2 * SIGN_TOL,
                          np.nextafter(-SIGN_TOL, 0.0), np.nextafter(-SIGN_TOL, -1.0), 0.25])
_INVARIANT = st.one_of(_EDGES, st.floats(-1.0, 1.0))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(rows=st.lists(st.tuples(_INVARIANT, _EDGES | st.floats(0.0, 1.0), _INVARIANT, _INVARIANT),
                     min_size=1, max_size=12))
def test_stacked_classification_is_the_if_chain(rows):
    """Over a stack, each pair's branch and margin are the if-chain's, bit
    for bit, at and around the tol edges; so is a single pair's."""
    i1, i3, i4, i5 = map(np.array, zip(*rows))
    inv = SymmetricInvariants(I1=i1, I2=np.zeros_like(i1), I3=i3, I4=i4, I5=i5,
                              I6=np.zeros_like(i1))
    cls = classify_invariants(inv)
    for k, row in enumerate(rows):
        branch, margin = _if_chain(*row, SIGN_TOL)
        assert cls.branch[k] is branch and cls.margin[k].hex() == margin.hex(), row
        one = classify_invariants(SymmetricInvariants(row[0], 0.0, row[1], row[2], row[3], 0.0))
        assert one.branch is branch and one.margin.hex() == margin.hex(), row


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
