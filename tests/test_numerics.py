"""Hand-rolled eigensolver kernels checked against the LAPACK oracle, and
the one sign-test rule."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symsq import numerics
from symsq.errors import NoConvergence, NonHermitian, NonSquare
from symsq.numerics import (
    PAULI_PAIRS,
    SVD_NULL_TOL,
    hermitian_eigenvalues,
    hermitian_eigh,
    su2_to_so3,
    svd3,
)

_I2 = np.eye(2, dtype=complex)
_SIGMA = (np.array([[0, 1], [1, 0]], dtype=complex),
          np.array([[0, -1j], [1j, 0]]),
          np.array([[1, 0], [0, -1]], dtype=complex))


def _random_hermitian(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (z + z.conj().T) / 2


def test_hermitian_eigh_matches_lapack(rng):
    for n in (2, 3, 4, 6):
        for _ in range(25):
            h = _random_hermitian(rng, n)
            w, v = hermitian_eigh(h)
            w_ref = np.linalg.eigvalsh(h)
            assert np.max(np.abs(w - w_ref)) < 1e-12 * max(1, np.max(np.abs(w_ref)))
            # reconstruction and orthonormality
            assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - h)) < 1e-12
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-12


def test_hermitian_eigh_degenerate_spectrum():
    h = np.diag([2.0, 2.0, 2.0, -1.0]).astype(complex)
    u = np.linalg.qr(np.random.default_rng(5).normal(size=(4, 4))
                     + 1j * np.random.default_rng(6).normal(size=(4, 4)))[0]
    h = u @ h @ u.conj().T
    w = hermitian_eigenvalues(h)
    assert np.allclose(w, [-1, 2, 2, 2], atol=1e-12)


def test_hermitian_eigh_rejects_bad_input():
    with pytest.raises(NonSquare):
        hermitian_eigh(np.ones((2, 3)))
    with pytest.raises(NonHermitian):
        hermitian_eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd3_reconstruction_and_conventions(rng):
    for _ in range(200):
        t = rng.normal(size=(3, 3))
        o1, d, o2 = svd3(t)
        # proper rotations
        assert abs(np.linalg.det(o1) - 1.0) < 1e-11
        assert abs(np.linalg.det(o2) - 1.0) < 1e-11
        assert np.max(np.abs(o1 @ o1.T - np.eye(3))) < 1e-11
        # diagonalization: O1 T O2^T = diag(d)
        assert np.max(np.abs(o1 @ t @ o2.T - np.diag(d))) < 1e-10
        # signed singular values carry det: product equals det T
        assert abs(np.prod(d) - np.linalg.det(t)) < 1e-10
        # magnitudes match the LAPACK singular values
        assert np.max(np.abs(np.sort(np.abs(d)) - np.sort(np.linalg.svd(t)[1]))) < 1e-10


def test_svd3_sign_convention_by_determinant(rng):
    for _ in range(50):
        t = rng.normal(size=(3, 3))
        _, d, _ = svd3(t)
        if np.linalg.det(t) < -1e-12:
            assert np.all(d < 1e-12)
        elif np.linalg.det(t) > 1e-12:
            assert np.all(d > -1e-12)


def test_svd3_singular_matrix():
    t = np.diag([1.0, 0.5, 0.0])
    o1, d, o2 = svd3(t)
    assert np.max(np.abs(o1 @ t @ o2.T - np.diag(d))) < 1e-12
    assert abs(np.linalg.det(o1) - 1.0) < 1e-12


def test_svd3_small_singular_value_accuracy(rng):
    """Singular values come from T itself, not from T^T T, so a small one
    keeps its digits."""
    for _ in range(200):
        q1 = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        q2 = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        _, d, _ = svd3(q1 @ np.diag([0.9, 0.5, 1e-9]) @ q2.T)
        assert abs(abs(d[0]) - 1e-9) < 1e-15


@settings(derandomize=True, deadline=None, max_examples=200)
@given(entries=st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9), rank=st.integers(1, 3))
def test_svd3_rotations_diagonalization_and_sign_rule(entries, rank):
    """On drawn T, of rank at most 1, 2 or 3: o1 and o2 are proper rotations,
    o1 T o2^T = diag(d) with |d| ascending, and d carries the sign of det T
    (only its smallest entry may be negative when T counts as singular)."""
    a = np.array(entries).reshape(3, 3)
    t = a if rank == 3 else a[:, :rank] @ a[:rank, :]
    o1, d, o2 = svd3(t)
    for o in (o1, o2):
        assert np.max(np.abs(o @ o.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12
    assert np.max(np.abs(o1 @ t @ o2.T - np.diag(d))) < 1e-12
    assert np.all(np.diff(np.abs(d)) >= 0.0)
    if abs(d[0]) <= SVD_NULL_TOL * max(1.0, abs(d[-1])):
        assert np.all(d[1:] >= 0.0)
    else:
        assert np.all(d * np.sign(np.linalg.det(t)) > 0.0)


def test_pauli_algebra():
    """PAULI_PAIRS[mu, nu] is sigma_mu (x) sigma_nu of the literal Pauli
    matrices, which obey [s1, s2] = 2i s3, s^2 = I and Tr s = 0."""
    s1, s2, s3 = _SIGMA
    assert np.allclose(s1 @ s2 - s2 @ s1, 2j * s3)
    for s in _SIGMA:
        assert np.allclose(s @ s, np.eye(2))
        assert abs(np.trace(s)) < 1e-15
    basis = (_I2, *_SIGMA)
    for mu, a in enumerate(basis):
        for nu, b in enumerate(basis):
            assert np.array_equal(PAULI_PAIRS[mu, nu], np.kron(a, b))


def test_su2_to_so3_is_rotation(rng):
    from symsq.states import haar_unitary_2x2
    for _ in range(50):
        u = haar_unitary_2x2(rng)
        o = su2_to_so3(u)
        assert np.max(np.abs(o @ o.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12
        # defining property: u sigma_j u^dag = sum_i O_ij sigma_i
        for j in range(3):
            lhs = u @ _SIGMA[j] @ u.conj().T
            rhs = sum(o[i, j] * _SIGMA[i] for i in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_su2_to_so3_homomorphism(rng):
    from symsq.states import haar_unitary_2x2
    u, v = haar_unitary_2x2(rng), haar_unitary_2x2(rng)
    assert np.max(np.abs(su2_to_so3(u @ v) - su2_to_so3(u) @ su2_to_so3(v))) < 1e-12


@pytest.mark.parametrize("solve", [hermitian_eigh, hermitian_eigenvalues],
                         ids=["hermitian_eigh", "hermitian_eigenvalues"])
def test_jacobi_raises_when_sweeps_run_out(solve, rng, monkeypatch):
    monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        solve(_random_hermitian(rng, 4))


def _drawn_hermitian(kind, n, seed):
    """An n x n Hermitian matrix of the given kind, drawn from seed."""
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "complex":
        return (z + z.conj().T) / 2
    if kind == "real":
        return (z.real + z.real.T) / 2
    if kind == "diagonal":  # already diagonal: the solver runs no sweep
        return np.diag(z.real[0])
    if kind == "skip_superdiagonal":  # |a_pq| > 0 only for p - q even
        h = (z + z.conj().T) / 2
        return np.where(np.add.outer(np.arange(n), np.arange(n)) % 2, 0.0, h)
    u = np.linalg.qr(z)[0]
    if kind == "degenerate":  # a unitary conjugate of a repeated diagonal
        w = np.repeat(z.real[0, :2], [n - 1, 1])
    else:  # rank-deficient: the least eigenvalue is zero
        w = np.concatenate([[0.0], np.abs(z.real[0, 1:])])
    return (u * w) @ u.conj().T


@settings(derandomize=True, deadline=None, max_examples=300)
@given(kind=st.sampled_from(["complex", "real", "diagonal", "skip_superdiagonal",
                             "degenerate", "rank_deficient"]),
       n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_value_only_solve_is_the_full_solve_without_vectors(kind, n, seed):
    """hermitian_eigenvalues(h) is hermitian_eigh(h)[0] byte for byte, and
    both lie within 1e-12 max(1, |w|) of LAPACK's eigvalsh."""
    h = _drawn_hermitian(kind, n, seed)
    w = hermitian_eigenvalues(h)
    assert w.tobytes() == hermitian_eigh(h)[0].tobytes()
    w_ref = np.linalg.eigvalsh(h)
    assert np.max(np.abs(w - w_ref)) <= 1e-12 * max(1.0, np.max(np.abs(w_ref)))


_SMALLEST_NORMAL = float(np.finfo(float).tiny)
_EDGES = st.one_of(st.just(0.0), st.integers(2, 2**53).map(lambda n: n / 4.0))


def _near(v: float, steps: int) -> float:
    """v moved steps ulps up (steps > 0) or down."""
    for _ in range(abs(steps)):
        v = np.nextafter(v, math.copysign(math.inf, steps))
    return float(v)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(tol=st.floats(0.0, 1e3, exclude_min=True), edge=_EDGES, data=st.data())
def test_sign_rule_is_strict_below_edge_minus_tol(tol, edge, data):
    """_below(x, tol, edge) reads x < edge - tol and its margin is positive
    exactly then, on x at and next to edge - tol, at +-0.0, subnormal or
    anywhere; a Python float gives a Python bool and float, and an array
    gives the same verdicts and margins elementwise."""
    x = data.draw(st.one_of(
        st.integers(-3, 3).map(lambda k: _near(edge - tol, k)),
        st.sampled_from([0.0, -0.0]),
        st.floats(-_SMALLEST_NORMAL, _SMALLEST_NORMAL),
        st.floats(allow_nan=False, allow_infinity=False)))
    verdict, margin = numerics._below(x, tol, edge)
    assert type(verdict) is bool and type(margin) is float
    assert verdict == (x < edge - tol)
    assert (margin > 0.0) == verdict
    xs = np.array([x, _near(edge - tol, -1), edge - tol, _near(edge - tol, 1)])
    verdicts, margins = numerics._below(xs, tol, edge)
    expected = [numerics._below(float(v), tol, edge) for v in xs]
    assert verdicts.tolist() == [v for v, _ in expected]
    assert margins.tolist() == [m for _, m in expected]
