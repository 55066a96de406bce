"""Small dense linear algebra used throughout the package.

All matrices here are tiny (at most a few hundred rows for the collective
simulator, usually 3x3 or 4x4), so the eigensolvers are cyclic Jacobi
sweeps: simple, robust and accurate to machine precision for Hermitian /
real-symmetric input.  The 3x3 SVD (LAPACK's, with fixed sign and rotation
conventions) and the SU(2) -> SO(3) covering map are the geometric
workhorses for correlation-matrix manipulations.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence, NonHermitian, NonSquare, NonSymmetric, NonUnitary

DEFAULT_TOL = 1e-10
# Default margin of every entanglement sign test (invariant signs, min eig
# of C, the collective witness); the CLI's SYMSQ_TOL overrides it.
SIGN_TOL = 1e-9

# svd3's sign rule counts a singular value at most this (times max(1,
# largest)) as zero.  Bloch data are O(1) with O(eps) rounding noise, so a
# rotated copy of a singular T keeps its smallest singular value far below.
SVD_NULL_TOL = 1e-13

_JACOBI_OFF_TARGET = 1e-14
_JACOBI_MAX_SWEEPS = 50


def _as_square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _max_off_diagonal(a: np.ndarray) -> float:
    return float(np.abs(np.triu(a, 1)).max())


def _jacobi_hermitian(a: np.ndarray):
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Returns (eigenvalues ascending, unitary V) with  V^dag a V = diag.
    Raises NoConvergence if the off-diagonal part is still above target
    after the last allowed sweep.
    """
    n = a.shape[0]
    a = a.astype(complex).copy()
    v = np.eye(n, dtype=complex)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if _max_off_diagonal(a) < _JACOBI_OFF_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                m = abs(apq)
                if m < 1e-300:
                    continue
                # Phase rotation makes the 2x2 block real, then a standard
                # real Jacobi rotation annihilates it.
                phase = apq / m
                tau = (a[q, q].real - a[p, p].real) / (2.0 * m)
                if abs(tau) > 1e150:
                    # Limit of both branches below; tau * tau would overflow.
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                # 2x2 unitary W = [[c, s], [-s/phase, c/phase]]
                pc = np.conj(phase)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * pc * col_q
                a[:, q] = s * col_p + c * pc * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * pc * vq
                v[:, q] = s * vp + c * pc * vq
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        off = _max_off_diagonal(a)
        if off >= _JACOBI_OFF_TARGET:
            raise NoConvergence(
                f"Jacobi left off-diagonal {off:.3e} after {_JACOBI_MAX_SWEEPS} sweeps")
    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def hermitian_eigh(m, tol: float = DEFAULT_TOL):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    a = _as_square(m)
    if np.max(np.abs(a - a.conj().T)) > tol:
        raise NonHermitian("matrix deviates from Hermiticity beyond tol")
    h = (a + a.conj().T) / 2.0
    return _jacobi_hermitian(h)


def hermitian_eigenvalues(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    w, _ = hermitian_eigh(m, tol)
    return w


def sym3_eigen(t, tol: float = DEFAULT_TOL):
    """Eigendecomposition of a real symmetric 3x3 matrix.

    Returns (eigenvalues ascending, rotation) with rotation in SO(3) and
    rotation @ t @ rotation.T diagonal.  Eigenvector sign is fixed so the
    first nonzero component of each row is positive; the third row is then
    replaced by the cross product of the first two so det = +1 always.
    """
    a = np.asarray(t, dtype=float)
    if a.shape != (3, 3):
        raise NonSymmetric(f"expected 3x3, got {a.shape}")
    if np.max(np.abs(a - a.T)) > tol:
        raise NonSymmetric("matrix is not symmetric within tol")
    w, v = _jacobi_hermitian((a + a.T) / 2.0 + 0j)
    rows = np.real(v).T  # rows are eigenvectors since rows @ t @ rows.T = diag
    for i in range(2):
        nz = np.nonzero(np.abs(rows[i]) > 1e-12)[0]
        if nz.size and rows[i, nz[0]] < 0.0:
            rows[i] = -rows[i]
    rows[2] = np.cross(rows[0], rows[1])
    return w, rows


def svd3(t):
    """Signed singular value decomposition of a real 3x3 matrix.

    Returns (o1, diag, o2) with o1, o2 proper rotations and
    o1 @ t @ o2.T = diag(diag).  Sign convention: all diagonal entries are
    nonnegative when det t >= 0 and all nonpositive otherwise.  A t whose
    smallest singular value is at most SVD_NULL_TOL * max(1, largest)
    counts as singular (det t = 0); only that smallest entry may then be
    negative, carrying the sign of det t.  Entries are ordered by ascending
    absolute value.
    """
    a = np.asarray(t, dtype=float)
    if a.shape != (3, 3):
        raise NonSquare(f"expected 3x3, got {a.shape}")
    u, sigma, vt = np.linalg.svd(a)
    # LAPACK orders singular values descending; rows of o1 / o2 are the
    # left / right singular vectors in ascending order.
    o1, d, o2 = u.T[::-1], sigma[::-1], vt[::-1]
    # Negating o1 and o2 together leaves o1 @ t @ o2.T unchanged.
    if np.linalg.det(o2) < 0.0:
        o1, o2 = -o1, -o2
    # Now det(o1) is the sign of det t.  Flipping the null left vector of a
    # singular t makes o1 proper and leaves d nonnegative; otherwise negating
    # every row also pushes the sign onto all of d.
    if np.linalg.det(o1) < 0.0:
        if d[0] <= SVD_NULL_TOL * max(1.0, d[-1]):
            o1[0], d[0] = -o1[0], -d[0]
        else:
            o1, d = -o1, -d
    return o1, d, o2


_SIGMA = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def pauli(i: int) -> np.ndarray:
    """Pauli matrix sigma_i, i in {0,1,2} for (x, y, z)."""
    return _SIGMA[i]


def su2_to_so3(u, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Rotation O with O_ij = Tr(sigma_i u sigma_j u^dag) / 2."""
    a = np.asarray(u, dtype=complex)
    if a.shape != (2, 2):
        raise NonUnitary(f"expected 2x2, got {a.shape}")
    if np.max(np.abs(a.conj().T @ a - np.eye(2))) > tol:
        raise NonUnitary("matrix is not unitary within tol")
    o = np.empty((3, 3))
    adj = a.conj().T
    for j in range(3):
        m = a @ _SIGMA[j] @ adj
        for i in range(3):
            o[i, j] = 0.5 * np.real(np.trace(_SIGMA[i] @ m))
    return o
