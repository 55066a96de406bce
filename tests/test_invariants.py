"""Local-unitary invariants: the 18-member set, symmetric reduction,
special-class closed forms, sign tests, canonical form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq.errors import NotSymmetricState
from symsq.invariants import (
    MAKHLIN_NAMES,
    canonical_form,
    locally_equivalent,
    makhlin_all,
    makhlin_from_bloch,
    separability_flags,
    special_class_invariants,
    symmetric_six,
    symmetric_six_from_bloch,
)
from symsq.states import (
    SpecialClassState,
    apply_local_unitaries,
    from_bloch,
    haar_unitary_2x2,
    random_special_class,
    random_symmetric_state,
    symmetric_from_special,
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
    assert flags.I1_negative_with_I3_zero
    assert flags.any_entangled


def test_separability_flags_lambda3_negative():
    # lambda_3 = c - |b| < 0 with I3 = (a - d)^2 != 0 forces I5 < 0
    p = SpecialClassState(a=0.5, b=0.3, c=0.1, d=0.3)
    flags = separability_flags(special_class_invariants(p))
    assert flags.I5_negative


def test_flags_false_on_product(product_state):
    flags = separability_flags(symmetric_six(product_state))
    assert not flags.any_entangled


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
    from symsq.states import TwoQubitState
    st = TwoQubitState(rho)
    return st.s, st.r, st.T


def test_locally_equivalent_true_and_false(rng):
    state = random_symmetric_state(3, rng)
    rotated = apply_local_unitaries(state, haar_unitary_2x2(rng), haar_unitary_2x2(rng))
    assert locally_equivalent(state, rotated)
    other = random_symmetric_state(3, rng)
    assert not locally_equivalent(state, other)


def _bell_diagonal(t_diag):
    return from_bloch([0, 0, 0], [0, 0, 0], np.diag(t_diag))


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
