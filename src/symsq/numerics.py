"""Small dense linear algebra used throughout the package.

All matrices here are tiny (3x3 or 4x4), and the eigensolves split by
kind.  symmetric_eigenvalues solves the real symmetric Bloch-data
matrices (C = T - s s^T, T and the ppt_equivalence_chain block) with
LAPACK's eigvalsh.  hermitian_eigh and hermitian_eigenvalues solve the
complex density matrices (rho^Gamma, concurrence's rho, a rho that the
Cholesky gate rejects) by cyclic complex Jacobi sweeps: simple, robust and
accurate to machine precision; the second solves for the eigenvalues alone
and builds no eigenvector matrix, with the same eigenvalues bit for bit.
All three share one gate, _hermitian_part: finiteness first, then one
comparison of m with m^dag against DEFAULT_TOL, then (m + m^dag)/2.  The
3x3 SVD (LAPACK's, with fixed sign and rotation conventions) and the
SU(2) -> SO(3) covering map are the geometric workhorses for
correlation-matrix manipulations; PAULI_PAIRS is the one Pauli basis that
every rho <-> (s, r, T) conversion contracts.
check_finite and check_tol are the two input gates: every public function
that takes pair data, moments or model parameters passes them through the
first, and every sign test passes its tol through the second; a Python int
past the float range fails either with DomainError, never OverflowError.
_below is the one sign-test rule, x < edge - tol with its margin: every
comparison against tol but check_tol's goes through it.
_check_int is the gate on every integer: the samplers' rank and term
count, the verify suites' sample count and every qubit count N.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, NoConvergence, NonHermitian, NonSquare, NonUnitary

# Structural gate: Hermiticity of eigensolver input and of density
# matrices, their unit trace, and unitarity of 2x2 local factors.
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


def _as_array(a, dtype, error=DomainError) -> np.ndarray:
    """a as an array of dtype; raises error, not OverflowError, on a Python
    int past the float range."""
    try:
        return np.asarray(a, dtype=dtype)
    except OverflowError:
        raise error("input has a number past the float range; it must be finite") from None


def check_finite(*arrays):
    """The real arrays as float arrays, one array or a tuple of them;
    raises DomainError if any entry is NaN, infinite or past the float range."""
    out = [_as_array(a, float) for a in arrays]
    for a in out:
        # On a pair's few entries a Python loop costs a third of a ufunc
        # and a reduction; stacks take the ufunc.
        if a.size <= 16:
            finite = all(map(math.isfinite, a.ravel().tolist()))
        else:
            finite = np.isfinite(a).all()
        if not finite:
            raise DomainError("input has a NaN or infinite entry; it must be finite")
    return out[0] if len(out) == 1 else tuple(out)


def check_tol(tol, name: str = "tol") -> float:
    """A sign-test margin as a float; raises DomainError unless 0 < tol < inf."""
    message = f"{name} must be a positive finite number"
    try:
        tol = float(tol)
    except OverflowError:
        raise DomainError(message) from None
    if not 0.0 < tol < math.inf:
        raise DomainError(message)
    return tol


def _below(x, tol: float, edge: float = 0.0):
    """(verdict, margin) of the sign test x < edge - tol, elementwise:
    margin = (edge - tol) - x and verdict = margin > 0, which is exactly
    x < edge - tol in IEEE arithmetic.  A Python float x gives a Python
    bool and float."""
    margin = (edge - tol) - x
    return margin > 0.0, margin


def _check_int(value, name: str, lo: int, hi: float = math.inf, error=DomainError) -> int:
    """An integer parameter (a sample count, rank, term count or qubit
    count) as an int; raises error unless an integer, not a bool, in lo..hi."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or not lo <= value <= hi:
        bounds = f">= {lo}" if hi == math.inf else f">= {lo} and <= {hi}"
        raise error(f"{name} must be an integer {bounds}")
    return int(value)


def _scalar(x):
    """A kernel's result for one pair, a 0-d float or bool, as a Python
    float or bool; a stacked result as it is.  (.item() gives the same
    value at several times the cost on a NumPy scalar.)"""
    if x.ndim:
        return x
    return bool(x) if isinstance(x, np.bool_) else float(x)


def _as_square(m) -> np.ndarray:
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquare(f"expected a square matrix, got shape {a.shape}")
    return a


def _jacobi_hermitian(a: np.ndarray, vectors: bool):
    """Diagonalize a Hermitian matrix by cyclic complex Jacobi rotations.

    Returns w, the eigenvalues ascending, or (w, V) when vectors is true,
    with V unitary and V^dag a V = diag(w); a value-only solve builds no V.
    Raises NoConvergence if the off-diagonal part is still above target
    after the last allowed sweep.
    """
    n = a.shape[0]
    a = a.astype(complex)
    v = np.eye(n, dtype=complex) if vectors else None
    upper = np.triu_indices(n, 1)
    for _ in range(_JACOBI_MAX_SWEEPS):
        if np.abs(a[upper]).max(initial=0.0) < _JACOBI_OFF_TARGET:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a.item(p, q)
                m = abs(apq)
                if m < 1e-300:
                    continue
                # Phase rotation makes the 2x2 block real, then a standard
                # real Jacobi rotation annihilates it.  The phase apq / m
                # is spelled as NumPy's complex division by (m, 0) rounds
                # it, signed zeros included.
                scl = 1.0 / m
                phase = complex((apq.real + apq.imag * 0.0) * scl,
                                (apq.imag - apq.real * 0.0) * scl)
                tau = (a.item(q, q).real - a.item(p, p).real) / (2.0 * m)
                if abs(tau) > 1e150:
                    # Limit of both branches below; tau * tau would overflow.
                    t = 0.5 / tau
                elif tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                # 2x2 unitary W = [[c, s], [-s/phase, c/phase]]; each pair of
                # new columns (rows) is computed from views before either
                # is written.
                pc = phase.conjugate()
                col_p, col_q = a[:, p], a[:, q]
                a[:, p], a[:, q] = c * col_p - s * pc * col_q, s * col_p + c * pc * col_q
                row_p, row_q = a[p, :], a[q, :]
                a[p, :], a[q, :] = c * row_p - s * phase * row_q, s * row_p + c * phase * row_q
                if vectors:
                    vp, vq = v[:, p], v[:, q]
                    v[:, p], v[:, q] = c * vp - s * pc * vq, s * vp + c * pc * vq
                a[p, q] = 0.0
                a[q, p] = 0.0
    else:
        off = np.abs(a[upper]).max(initial=0.0)
        if off >= _JACOBI_OFF_TARGET:
            raise NoConvergence(
                f"Jacobi left off-diagonal {off:.3e} after {_JACOBI_MAX_SWEEPS} sweeps")
    w = np.real(np.diag(a))
    order = np.argsort(w, kind="stable")
    return (w[order], v[:, order]) if vectors else w[order]


def _hermitian_part(m) -> np.ndarray:
    """(m + m^dag)/2 of a square matrix; raises DomainError on a non-finite
    entry and NonHermitian if m deviates from Hermiticity beyond DEFAULT_TOL."""
    a = _as_square(m)
    if a.dtype == object:
        # A Python int past int64, in a list, makes an object array.
        a = _as_array(a, complex)
    # Finiteness first: an infinite entry would make a - a^dag warn on
    # inf - inf.  On a 3x3 or 4x4 the Python loop costs less than a ufunc
    # and a reduction.
    if not all(map(cmath.isfinite, a.ravel().tolist())):
        raise DomainError("matrix has a non-finite entry")
    ah = a.conj().T
    if abs(a - ah).max() > DEFAULT_TOL:
        raise NonHermitian("matrix deviates from Hermiticity beyond DEFAULT_TOL")
    return (a + ah) / 2.0


def hermitian_eigh(m):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix."""
    return _jacobi_hermitian(_hermitian_part(m), True)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix; no eigenvectors
    are built."""
    return _jacobi_hermitian(_hermitian_part(m), False)


def symmetric_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a real symmetric matrix: LAPACK's eigvalsh
    of (m + m^T)/2, behind the gate of hermitian_eigenvalues.  Raises
    DomainError on complex input."""
    if np.iscomplexobj(m):
        raise DomainError("expected a real matrix, got a complex one")
    return np.linalg.eigvalsh(_hermitian_part(_as_array(m, float)))


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
    a = check_finite(t)
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


_SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)

# PAULI_PAIRS[mu, nu] = sigma_mu (x) sigma_nu for mu, nu in 0..3 with
# sigma_0 = I: rho = (1/4) sum_{mu nu} R_{mu nu} PAULI_PAIRS[mu, nu], where
# R_00 = 1, R[1:, 0] = s, R[0, 1:] = r and R[1:, 1:] = T.
_PAULI = np.concatenate([np.eye(2, dtype=complex)[None], _SIGMA])
PAULI_PAIRS = np.array([[np.kron(a, b) for b in _PAULI] for a in _PAULI])


def check_unitary_2x2(u) -> np.ndarray:
    """u as a complex array; raises NonUnitary unless a finite 2x2 unitary within DEFAULT_TOL."""
    a = _as_array(u, complex, NonUnitary)
    # Finiteness first: an infinite entry would make a^dag a warn on inf * 0.
    if a.shape != (2, 2) or not np.isfinite(a).all() \
            or not np.max(np.abs(a.conj().T @ a - np.eye(2))) <= DEFAULT_TOL:
        raise NonUnitary("expected a 2x2 unitary")
    return a


def su2_to_so3(u) -> np.ndarray:
    """Rotation O with O_ij = Tr(sigma_i u sigma_j u^dag) / 2."""
    a = check_unitary_2x2(u)
    rotated = a @ _SIGMA @ a.conj().T
    return 0.5 * np.real(np.einsum("iab,jba->ij", _SIGMA, rotated))
