"""Two-qubit density matrices and their Bloch decomposition.

Basis convention throughout: the computational product basis
{|00>, |01>, |10>, |11>} with |0> the spin-up (m = +1/2) single-qubit
state.  The exchange-symmetric (triplet) subspace is spanned by
|1,1> = |00>, |1,0> = (|01> + |10>)/sqrt(2), |1,-1> = |11>, and the
singlet is (|01> - |10>)/sqrt(2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidDensityMatrix, NotPositive, NotSymmetricState
from .numerics import (
    DEFAULT_TOL,
    PAULI_PAIRS,
    _as_array,
    _check_int,
    check_finite,
    check_unitary_2x2,
    hermitian_eigenvalues,
    hermitian_eigh,
)

# Positivity gate used when assembling states from Bloch data; slightly
# looser than the working tolerance to absorb rounding accumulated in
# model-generated inputs.
FROM_BLOCH_PSD_TOL = 1e-9
# A fast gate (a Cholesky factorization, a closed form) accepts only what
# lies _EDGE_GUARD inside a rule's edge, far above its rounding, so the
# exact test accepts it too; it leaves the rest to the exact test.
_EDGE_GUARD = 1e-12
_PSD_SHIFT = FROM_BLOCH_PSD_TOL - _EDGE_GUARD
_PSD_SHIFT_4 = _PSD_SHIFT * np.eye(4)
# Every entry of a state's rho lies in the unit disc and every Bloch entry
# in [-1, 1].  The gates refuse a finite entry of modulus above 2, which no
# rounding of a state reaches, so no sum or product after them overflows.
_ENTRY_BOUND = 2.0
# Most terms random_separable_symmetric mixes: a term takes about 0.18 ms
# (2-vCPU Xeon), so about 18 s and 0.8 MB of weights at the cap.
_MAX_TERMS = 10**5

# PAULI_PAIRS transposed on its last two axes: the sum of rho times entry
# (mu, nu) is Tr(rho sigma_mu (x) sigma_nu).
_PAULI_PAIRS_T = np.ascontiguousarray(PAULI_PAIRS.swapaxes(-1, -2))

TRIPLET_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0), 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ],
    dtype=complex,
)  # rows: |1,1>, |1,0>, |1,-1>


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A validated 4x4 density matrix with its Bloch data (s, r, T).

    The constructor keeps a copy of rho and its Bloch data.  Its positivity
    gate is one Cholesky factorization of h + _PSD_SHIFT I, with
    h = (rho + rho^dag)/2: up to rounding, it succeeds exactly when the
    least eigenvalue of h is above -_PSD_SHIFT (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 10).  Only a failed
    factorization solves hermitian_eigenvalues(rho), whose least eigenvalue
    then decides, so the verdict is always the eigensolver's and NotPositive
    carries its least eigenvalue.  All of these arrays are read-only, so
    nothing derived from them can go stale.
    `symmetric` says whether the state is exchange-symmetric: r = s,
    T = T^T and Tr T = 1, each within DEFAULT_TOL, as every later check of
    them.  It is decided once, on the state's own Bloch data, and every
    operation that needs a symmetric state reads it.  States compare and
    hash by identity.
    """

    rho: np.ndarray
    s: np.ndarray = field(init=False)
    r: np.ndarray = field(init=False)
    T: np.ndarray = field(init=False)
    symmetric: bool = field(init=False, repr=False)

    def __post_init__(self):
        rho = _checked_rho(self.rho)
        try:
            np.linalg.cholesky((rho + rho.conj().T) / 2.0 + _PSD_SHIFT_4)
        except np.linalg.LinAlgError:
            least = hermitian_eigenvalues(rho)[0]
            if least < -FROM_BLOCH_PSD_TOL:
                raise NotPositive("density matrix has a negative eigenvalue",
                                  min_eig=float(least)) from None
        _fill(self, rho)

    def bloch(self):
        return self.s, self.r, self.T


def _checked_rho(rho) -> np.ndarray:
    """rho as a complex copy; raises InvalidDensityMatrix unless a finite,
    Hermitian 4x4 matrix of unit trace."""
    rho = np.array(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise InvalidDensityMatrix(f"expected 4x4, got {rho.shape}")
    _check_bounded(rho, "density matrix")
    if np.max(np.abs(rho - rho.conj().T)) > DEFAULT_TOL:
        raise InvalidDensityMatrix("density matrix is not Hermitian")
    if abs(np.trace(rho).real - 1.0) > DEFAULT_TOL:
        raise InvalidDensityMatrix("trace differs from 1")
    return rho


def _check_bounded(a: np.ndarray, what: str) -> None:
    """Raises InvalidDensityMatrix unless every entry of a is finite and at
    most _ENTRY_BOUND in modulus (one comparison when all are)."""
    if not (np.abs(a) <= _ENTRY_BOUND).all():
        kind = f"an entry of modulus above {_ENTRY_BOUND:g}" if np.isfinite(a).all() \
            else "a non-finite entry"
        raise InvalidDensityMatrix(f"{what} has {kind}")


def _read_only(*arrays) -> tuple:
    """The arrays, each made read-only in place."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _fill(state: TwoQubitState, rho: np.ndarray) -> None:
    """Set the fields of a state whose rho passed every gate: its Bloch
    data and the symmetry rule on them."""
    bloch = np.real(np.sum(rho * _PAULI_PAIRS_T, axis=(-2, -1)))
    # Contiguous copies: matmul rounds differently on strided views.
    s, r, t = _read_only(bloch[1:, 0].copy(), bloch[0, 1:].copy(), bloch[1:, 1:].copy())
    symmetric = bool(np.max(np.abs(r - s)) <= DEFAULT_TOL
                     and np.max(np.abs(t - t.T)) <= DEFAULT_TOL
                     and abs(np.trace(t) - 1.0) <= DEFAULT_TOL)
    fields = {"rho": _read_only(rho)[0], "s": s, "r": r, "T": t, "symmetric": symmetric}
    for name, value in fields.items():
        object.__setattr__(state, name, value)


class SymmetricTwoQubitState(TwoQubitState):
    """A TwoQubitState whose constructor raises NotSymmetricState unless
    `symmetric` holds, so the singlet population (1 - Tr T)/4 vanishes."""

    def __post_init__(self):
        super().__post_init__()
        _require_symmetric(self)


def _require_symmetric(state: TwoQubitState) -> None:
    """Raises NotSymmetricState unless the state is exchange-symmetric."""
    if not state.symmetric:
        raise NotSymmetricState("state violates r = s, T = T^T or Tr T = 1")


def _bloch_matrix(s, r, T) -> np.ndarray:
    """The 4x4 real matrix [[1, r^T], [s, T]] (shapes and finiteness checked)."""
    s, r, t = check_finite(s, r, T)
    if s.shape != (3,) or r.shape != (3,) or t.shape != (3, 3):
        raise ValueError(f"Bloch data need s, r of shape (3,) and T of shape (3, 3), "
                         f"got {s.shape}, {r.shape}, {t.shape}")
    return np.block([[np.ones((1, 1)), r[None]], [s[:, None], t]])


def rho_from_bloch(s, r, T) -> np.ndarray:
    """Assemble the 4x4 matrix of the Bloch parametrization (shapes and
    finiteness checked); raises DomainError, with no warning, when the
    Pauli sum leaves the float range."""
    bloch = _bloch_matrix(s, r, T)
    with np.errstate(over="ignore", invalid="ignore"):
        rho = np.tensordot(bloch, PAULI_PAIRS, axes=2) / 4.0
    if not np.isfinite(rho).all():
        raise DomainError("the Pauli sum of the Bloch data leaves the float range")
    return rho


def from_bloch(s, r, T) -> TwoQubitState:
    """Build a validated state from Bloch data; rejects non-PSD input, and
    an entry of modulus above _ENTRY_BOUND before the Pauli sum."""
    bloch = _bloch_matrix(s, r, T)
    _check_bounded(bloch, "Bloch data")
    return TwoQubitState(np.tensordot(bloch, PAULI_PAIRS, axes=2) / 4.0)


@dataclass(frozen=True)
class SpecialClassState:
    """Four-parameter symmetric family rho = [[a,0,0,b],[0,c,c,0],[0,c,c,0],[b,0,0,d]].

    Normalized so that a + 2c + d = 1.  b is real (its sign is physical
    only through |b| in every closed form).  It accepts exactly what
    SymmetricTwoQubitState accepts of its matrix: closed forms accept what
    lies _EDGE_GUARD inside the trace rule and rho + _PSD_SHIFT I >= 0 on
    the blocks, and the state's own gates decide the rest, NaN included.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        if not (abs(a + 2 * c + d - 1.0) <= DEFAULT_TOL - _EDGE_GUARD
                and min(a, d, 2 * c) >= -_PSD_SHIFT
                and b * b <= (a + _PSD_SHIFT) * (d + _PSD_SHIFT)):
            SymmetricTwoQubitState(self.matrix())

    def matrix(self) -> np.ndarray:
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.array(
            [
                [a, 0, 0, b],
                [0, c, c, 0],
                [0, c, c, 0],
                [b, 0, 0, d],
            ],
            dtype=complex,
        )

    def bloch(self):
        return special_class_bloch(self.a, self.b, self.c, self.d)


def special_class_bloch(a, b, c, d):
    """(s, T) of the special class; over leading axes when a and d are
    arrays of one shape (b and c broadcast against them)."""
    check_finite(a, b, c, d)
    sz = np.asarray(a - d)
    s = np.zeros(sz.shape + (3,))
    s[..., 2] = sz
    t = np.zeros(sz.shape + (3, 3))
    for i, tii in enumerate((2 * (c + b), 2 * (c - b), a + d - 2 * c)):
        t[..., i, i] = tii
    return s, t


def symmetric_from_special(p: SpecialClassState) -> SymmetricTwoQubitState:
    return SymmetricTwoQubitState(p.matrix())


def partial_transpose(state: TwoQubitState) -> np.ndarray:
    """Partial transpose over the second qubit: rho_{m mu; n nu} -> rho_{m nu; n mu}."""
    rho = state.rho if isinstance(state, TwoQubitState) else np.asarray(state, dtype=complex)
    pt = rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    return pt


def concurrence(state: TwoQubitState) -> float:
    """Wootters concurrence max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4).

    The lambda_i, in descending order, are the square roots of the
    eigenvalues of rho (sy x sy) rho* (sy x sy).  For any factor
    rho = X X^dag they are the singular values of the complex symmetric
    tau = X^T (sy x sy) X (Wootters, PRL 80, 2245 (1998)), here
    X = V sqrt(w) from hermitian_eigh(rho).
    """
    w, v = hermitian_eigh(state.rho)
    x = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(x.T @ PAULI_PAIRS[2, 2] @ x, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def apply_local_unitaries(state: TwoQubitState, u1, u2) -> TwoQubitState:
    """Conjugate by u1 (x) u2; Bloch data rotates by the SO(3) images.

    The image passes the constructor's shape, finiteness, Hermiticity and
    trace gates and its symmetry rule, but skips the positivity gate: u1
    and u2 are unitary within DEFAULT_TOL, so its eigenvalues are the
    parent's within 2 DEFAULT_TOL and it inherits the parent's positivity.
    """
    big = np.kron(check_unitary_2x2(u1), check_unitary_2x2(u2))
    image = object.__new__(TwoQubitState)
    _fill(image, _checked_rho(big @ state.rho @ big.conj().T))
    return image


# ----------------------------------------------------------------------
# Random samplers (deterministic given a seed).

def _rng(seed):
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def haar_qubit_state(rng) -> np.ndarray:
    """Haar-random pure qubit ket via normalized complex Gaussians."""
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    return z / np.linalg.norm(z)


def haar_unitary_2x2(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def _dirichlet_flat(rng, n: int) -> np.ndarray:
    """Flat Dirichlet weights via normalized standard exponentials."""
    e = rng.exponential(size=n)
    return e / e.sum()


def random_separable_symmetric(n_terms: int, seed=None) -> SymmetricTwoQubitState:
    """Convex mixture sum_w p_w rho_w (x) rho_w of identical pure pairs."""
    n_terms = _check_int(n_terms, "n_terms", 1, _MAX_TERMS)
    rng = _rng(seed)
    p = _dirichlet_flat(rng, n_terms)
    rho = np.zeros((4, 4), dtype=complex)
    for w in range(n_terms):
        psi = haar_qubit_state(rng)
        one = np.outer(psi, psi.conj())
        rho += p[w] * np.kron(one, one)
    return SymmetricTwoQubitState(rho)


def random_symmetric_state(rank: int, seed=None) -> SymmetricTwoQubitState:
    """Random mixed state supported on span{|1,1>, |1,0>, |1,-1>}."""
    rank = _check_int(rank, "rank", 1, 3)
    rng = _rng(seed)
    p = _dirichlet_flat(rng, rank)
    rho = np.zeros((4, 4), dtype=complex)
    for w in range(rank):
        amp = rng.normal(size=3) + 1j * rng.normal(size=3)
        amp /= np.linalg.norm(amp)
        psi = amp @ TRIPLET_BASIS
        rho += p[w] * np.outer(psi, psi.conj())
    return SymmetricTwoQubitState(rho)


def random_special_class(seed=None) -> SpecialClassState:
    """Uniform-ish sampler over the special class: (a, 2c, d) flat on the
    simplex and b uniform in the positivity interval [-sqrt(ad), sqrt(ad)]."""
    rng = _rng(seed)
    a, two_c, d = _dirichlet_flat(rng, 3)
    bmax = np.sqrt(a * d)
    b = rng.uniform(-bmax, bmax) if bmax > 0 else 0.0
    return SpecialClassState(a=float(a), b=float(b), c=float(two_c / 2), d=float(d))


# ----------------------------------------------------------------------
# State file format: a JSON object with exactly one of the keys
# "rho" (4x4 array of [re, im] pairs), "bloch" ({"s","r","T"}) or
# "special" ({"a","b","c","d"}).

def state_from_json(obj: dict) -> TwoQubitState:
    keys = {"rho", "bloch", "special"} & set(obj)
    if len(keys) != 1:
        raise ValueError("state object must contain exactly one of 'rho', 'bloch', 'special'")
    key = keys.pop()
    if key == "rho":
        arr = _as_array(obj["rho"], float)
        if arr.shape != (4, 4, 2):
            raise ValueError("'rho' must be a 4x4 array of [re, im] pairs")
        rho = np.empty((4, 4), dtype=complex)
        rho.real, rho.imag = arr[..., 0], arr[..., 1]  # copied, so an infinite part stays as read
        return TwoQubitState(rho)
    if key == "bloch":
        b = obj["bloch"]
        return from_bloch(b["s"], b["r"], b["T"])
    sp = obj["special"]
    params = _as_array([sp["a"], sp["b"], sp["c"], sp["d"]], float)
    if params.shape != (4,):
        raise ValueError("'special' parameters a, b, c, d must be numbers")
    return symmetric_from_special(SpecialClassState(*params.tolist()))


def load_state_file(path) -> TwoQubitState:
    with open(path, encoding="utf-8") as fh:
        return state_from_json(json.load(fh))
