"""Hand-rolled eigensolver kernels checked against the LAPACK oracle."""

import numpy as np
import pytest

from symsq import numerics
from symsq.errors import NoConvergence, NonHermitian, NonSquare, NonSymmetric
from symsq.numerics import (
    hermitian_eigenvalues,
    hermitian_eigh,
    pauli,
    su2_to_so3,
    svd3,
    sym3_eigen,
)


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


def test_sym3_eigen_matches_lapack(rng):
    for _ in range(100):
        a = rng.normal(size=(3, 3))
        a = (a + a.T) / 2
        w, rot = sym3_eigen(a)
        assert np.all(np.diff(w) >= -1e-14)  # ascending
        assert np.max(np.abs(np.sort(np.linalg.eigvalsh(a)) - w)) < 1e-12
        # rows are eigenvectors forming a proper rotation
        assert np.max(np.abs(rot @ a @ rot.T - np.diag(w))) < 1e-12
        assert abs(np.linalg.det(rot) - 1.0) < 1e-12


def test_sym3_eigen_rejects_asymmetric():
    with pytest.raises(NonSymmetric):
        sym3_eigen(np.array([[0.0, 1.0, 0], [0, 0, 0], [0, 0, 0]]))


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


def test_pauli_algebra():
    s1, s2, s3 = pauli(0), pauli(1), pauli(2)
    assert np.allclose(s1 @ s2 - s2 @ s1, 2j * s3)
    for s in (s1, s2, s3):
        assert np.allclose(s @ s, np.eye(2))
        assert abs(np.trace(s)) < 1e-15


def test_su2_to_so3_is_rotation(rng):
    from symsq.states import haar_unitary_2x2
    for _ in range(50):
        u = haar_unitary_2x2(rng)
        o = su2_to_so3(u)
        assert np.max(np.abs(o @ o.T - np.eye(3))) < 1e-12
        assert abs(np.linalg.det(o) - 1.0) < 1e-12
        # defining property: u sigma_j u^dag = sum_i O_ij sigma_i
        for j in range(3):
            lhs = u @ pauli(j) @ u.conj().T
            rhs = sum(o[i, j] * pauli(i) for i in range(3))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_su2_to_so3_homomorphism(rng):
    from symsq.states import haar_unitary_2x2
    u, v = haar_unitary_2x2(rng), haar_unitary_2x2(rng)
    assert np.max(np.abs(su2_to_so3(u @ v) - su2_to_so3(u) @ su2_to_so3(v))) < 1e-12


def test_jacobi_raises_when_sweeps_run_out(rng, monkeypatch):
    monkeypatch.setattr(numerics, "_JACOBI_MAX_SWEEPS", 1)
    with pytest.raises(NoConvergence):
        hermitian_eigh(_random_hermitian(rng, 4))
