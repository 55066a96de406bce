"""Brute-force collective simulator: operator algebra, model states,
moment extraction, full-Hilbert cross-check."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq import oracle
from symsq.collective import pair_from_moments
from symsq.errors import InvalidN, ParityViolation
from symsq.models import atomic_pair, ku_pair
from symsq.oracle import (
    CollectiveState,
    build_atomic_state,
    build_dicke_state,
    build_j_operators,
    evolve_ku,
    full_hilbert_vector,
    moments_of,
    pair_state_of,
    reduced_pair_from_full,
)
from symsq.states import TwoQubitState


def test_j_operator_algebra():
    for n in (1, 2, 5, 20, 50):
        ops = build_j_operators(n)
        j = n / 2.0
        comm = ops.J1 @ ops.J2 - ops.J2 @ ops.J1
        assert np.max(np.abs(comm - 1j * ops.J3)) < 1e-12 * max(1, n)
        casimir = ops.J1 @ ops.J1 + ops.J2 @ ops.J2 + ops.J3 @ ops.J3
        assert np.max(np.abs(casimir - j * (j + 1) * np.eye(n + 1))) < 1e-10


def test_j_operators_validation():
    with pytest.raises(InvalidN):
        build_j_operators(0)
    with pytest.raises(InvalidN, match="N must be an integer >= 1"):  # not a bool
        build_j_operators(True)


def test_collective_state_shape_check():
    """N is checked when the state is built, so a float N never reaches
    moments_of; an integer N of any type is kept as an int."""
    with pytest.raises(InvalidN):
        CollectiveState(N=3, amplitudes=np.ones(3))
    for bad_n, amp in ((-1, np.zeros(0)), (3.0, np.ones(4) / 2)):
        with pytest.raises(InvalidN, match="N must be an integer >= 1"):
            CollectiveState(N=bad_n, amplitudes=amp)
    assert type(CollectiveState(N=np.int64(1), amplitudes=[1, 0]).N) is int


def test_simulator_n_is_capped():
    """The simulator takes N up to oracle._MAX_N, checked before anything
    is allocated: each entry's own gate raises, with its own lower bound.
    The gate alone runs at the cap; the entries run at cap + 1, where a
    missing gate would cost O(N) memory or one dense solve, never a huge
    allocation."""
    cap = oracle._MAX_N
    assert oracle._check_oracle_n(cap) == cap == oracle._check_oracle_n(np.int64(cap), 2)
    for lo, call in ((1, oracle._check_oracle_n), (1, build_j_operators),
                     (1, lambda n: CollectiveState(N=n, amplitudes=np.eye(n + 1)[0])),
                     (2, lambda n: build_dicke_state(n, 0.5)), (1, lambda n: evolve_ku(n, 0.3)),
                     (1, lambda n: build_atomic_state(n + 1, 0.3))):
        with pytest.raises(InvalidN, match=f"N must be an integer >= {lo} and <= {cap}$"):
            call(cap + 1)


def test_ku_mean_spin_closed_form():
    """<J_3> of the twisted state equals -(N/2) cos^(N-1)(chi t)."""
    for n in (2, 4, 7):
        for ct in np.linspace(0, np.pi, 20):
            st = evolve_ku(n, float(ct))
            m = moments_of(st)
            assert abs(m.j_mean[2] + 0.5 * n * np.cos(ct) ** (n - 1)) < 1e-12
            assert abs(m.j_mean[0]) < 1e-12


def test_ku_initial_state_is_coherent():
    st = evolve_ku(5, 0.0)
    amp = np.zeros(6)
    amp[-1] = 1.0
    assert np.max(np.abs(np.abs(st.amplitudes) - amp)) < 1e-12


def test_d_column_is_a_unit_vector():
    """The column of the unitary exp(-i pi/2 J2) has unit norm, is real, is
    zero where J + M is odd, and starts at d^J_J0(pi/2) =
    (-1)^J sqrt((2J)!)/(2^J J!), sign included, whatever sign eigh gives."""
    for n in (*range(2, 41, 2), 150):
        col = build_j_operators(n).d_column
        assert col.dtype == float and abs(np.linalg.norm(col) - 1.0) < 1e-12
        assert np.max(np.abs(col[1::2])) < 1e-12
        j = n // 2
        assert abs(col[0] - (-1) ** j * math.sqrt(math.comb(n, j)) / 2**j) < 1e-12, n


@pytest.mark.parametrize("n", [700, 1000])
def test_ku_matches_the_closed_forms_at_large_n(n):
    """Over 100 chi_t in [0, pi] the simulator's KU pair data lie within
    1e-12 of ku_pair, and <J3> within 2e-10 of -(N/2) cos^(N-1)(chi_t)."""
    for ct in np.linspace(0.0, np.pi, 100):
        m = moments_of(evolve_ku(n, float(ct)))
        assert abs(m.j_mean[2] + 0.5 * n * np.cos(ct) ** (n - 1)) < 2e-10
        s, t = pair_from_moments(m)
        s_model, t_model, _ = ku_pair(n, float(ct))
        assert np.max(np.abs(s - s_model)) < 1e-12
        assert np.max(np.abs(t - t_model)) < 1e-12


def test_atomic_state_is_r3_null_vector():
    """The steady state with weight x = e^{2 theta} is annihilated by
    (J_- cosh xi + J_+ sinh xi)/sqrt(2 sinh 2 xi) with tanh xi = x."""
    for n in (2, 4, 6, 8):
        for x in (0.1, 0.5, 0.9):
            st = build_atomic_state(n, 0.5 * np.log(x))
            ops = build_j_operators(n)
            xi = np.arctanh(x)
            jm = ops.J1 - 1j * ops.J2
            jp = ops.J1 + 1j * ops.J2
            r3 = (jm * np.cosh(xi) + jp * np.sinh(xi)) / np.sqrt(2 * np.sinh(2 * xi))
            assert np.linalg.norm(r3 @ st.amplitudes) < 1e-12


def test_atomic_state_parity():
    st = build_atomic_state(4, -0.3)
    # odd-M amplitudes vanish (d-coefficient parity)
    assert abs(st.amplitudes[1]) < 1e-15 and abs(st.amplitudes[3]) < 1e-15
    with pytest.raises(ParityViolation):
        build_atomic_state(3, -0.3)


def test_atomic_state_survives_large_exponents():
    """exp(M theta) overflows or underflows for large N |theta|; the state
    must still come out normalized and match the log-space closed form."""
    x = 1e-5
    state = build_atomic_state(150, 0.5 * np.log(x))
    s, t = pair_from_moments(moments_of(state))
    s_model, t_model, _ = atomic_pair(150, x)
    assert np.max(np.abs(s - s_model)) < 1e-13
    assert np.max(np.abs(t - t_model)) < 1e-13
    for theta in (400.0, -400.0):
        amp = build_atomic_state(4, theta).amplitudes
        assert np.all(np.isfinite(amp))
        assert abs(np.linalg.norm(amp) - 1.0) < 1e-12


def test_atomic_moments_closed_forms():
    for n in (2, 4, 8):
        for x in (0.2, 0.7):
            st = build_atomic_state(n, 0.5 * np.log(x))
            m = moments_of(st)
            j3 = m.j_mean[2]
            e = (1 - x) / (1 + x)  # e^{-2 xi}, tanh xi = x
            assert abs(m.j_second[0, 0] + 0.5 * j3 * e) < 1e-12
            assert abs(m.j_second[1, 1] + 0.5 * j3 / e) < 1e-12
            jj = (n / 2) * (n / 2 + 1)
            assert abs(m.j_second[0, 0] + m.j_second[1, 1]
                       + m.j_second[2, 2] - jj) < 1e-10
            # off-diagonal anticommutators vanish
            off = m.j_second - np.diag(np.diag(m.j_second))
            assert np.max(np.abs(off)) < 1e-12


def test_dicke_state_moments():
    for n in (2, 4, 6):
        for m2 in range(-n, n + 1, 2):
            st = build_dicke_state(n, m2 / 2)
            m = moments_of(st)
            assert abs(m.j_mean[2] - m2 / 2) < 1e-13
            assert abs(m.j_mean[0]) < 1e-13 and abs(m.j_mean[1]) < 1e-13


def test_pair_state_of_is_valid_symmetric():
    for n in (2, 3, 5):
        for ct in (0.0, 0.3, 1.2):
            pair = pair_state_of(evolve_ku(n, ct))
            assert abs(np.trace(pair.T) - 1.0) < 1e-10


def test_full_hilbert_embedding_matches_pair_reduction():
    """Partial trace of the symmetrized 2^N vector equals the
    moment-inversion pair state."""
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 6):
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        amp /= np.linalg.norm(amp)
        st = CollectiveState(N=n, amplitudes=amp)
        psi = full_hilbert_vector(st)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
        rho_pair = reduced_pair_from_full(psi, n)
        expected = pair_state_of(st).rho
        assert np.max(np.abs(rho_pair - expected)) < 1e-12
        TwoQubitState(rho_pair)  # valid density matrix


def test_full_hilbert_rejects_large_n():
    with pytest.raises(InvalidN):
        full_hilbert_vector(CollectiveState(N=7, amplitudes=np.eye(8)[0]))


def _dense_moments(n, psi):
    """<J_i> and (1/2)<{J_i, J_j}> from the dense operators."""
    ops = build_j_operators(n)
    js = (ops.J1, ops.J2, ops.J3)
    mean = np.array([np.real(np.vdot(psi, a @ psi)) for a in js])
    second = np.array([[0.5 * np.real(np.vdot(psi, (a @ b + b @ a) @ psi)) for b in js]
                       for a in js])
    return mean, second


def _assert_moments_match_dense(n, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    amp /= np.linalg.norm(amp)
    m = moments_of(CollectiveState(N=n, amplitudes=amp))
    mean, second = _dense_moments(n, amp)
    bound = 1e-12 * max(1, n * n)
    assert np.max(np.abs(m.j_mean - mean)) < bound
    assert np.max(np.abs(m.j_second - second)) < bound


@pytest.mark.parametrize("n", [1, 2, 5, 50, 150])
def test_ladder_moments_match_dense_operators(n):
    _assert_moments_match_dense(n, 7 + n)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(n=st.integers(1, 150), seed=st.integers(0, 2**32 - 1))
def test_ladder_moments_match_dense_operators_property(n, seed):
    _assert_moments_match_dense(n, seed)


@pytest.mark.parametrize("n", [1, 2, 7, 150])
def test_second_moments_are_exactly_symmetric(n):
    rng = np.random.default_rng(n)
    amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    for psi in (amp / np.linalg.norm(amp), evolve_ku(max(n, 2), 0.7).amplitudes):
        m = moments_of(CollectiveState(N=psi.size - 1, amplitudes=psi))
        assert np.array_equal(m.j_second, m.j_second.T)


@pytest.mark.parametrize("n", [2, 10, 40, 150])
def test_cached_spectra_match_a_fresh_eigh(n):
    ops = build_j_operators(n)
    w, v = np.linalg.eigh(np.real(ops.J1 @ ops.J1))
    start = np.zeros(n + 1)
    start[-1] = 1.0
    for ct in (0.0, 0.4, 2.9):
        want = v @ np.diag(np.exp(-1j * ct * w)) @ v.T @ start
        assert np.max(np.abs(evolve_ku(n, ct).amplitudes - want)) < 1e-12
    w, v = np.linalg.eigh(ops.J2)
    column = np.real((v @ np.diag(np.exp(-0.5j * np.pi * w)) @ v.conj().T)[:, n // 2])
    for theta in (-2.0, -0.3, 0.0):
        amp = column * np.exp(ops.m * theta)
        want = amp / np.linalg.norm(amp)
        assert np.max(np.abs(build_atomic_state(n, theta).amplitudes - want)) < 1e-12


def test_j_operator_cache_is_bounded_and_refills():
    assert build_j_operators.cache_info().maxsize is not None
    build_j_operators.cache_clear()
    assert build_j_operators.cache_info().currsize == 0
    moments_of(evolve_ku(6, 0.5))
    assert build_j_operators.cache_info().currsize == 1
    assert build_j_operators(6) is build_j_operators(6)


def test_j_operator_cache_keeps_one_entry_per_n():
    """However N is spelled, one N is one cache entry, keyed and kept as an int."""
    build_j_operators.cache_clear()
    ops = build_j_operators(np.int64(4))
    assert type(ops.N) is int
    assert build_j_operators(N=4) is ops and build_j_operators(4) is ops
    assert build_j_operators.cache_info().currsize == 1
    with pytest.raises(InvalidN):
        build_j_operators(N=4.0)
