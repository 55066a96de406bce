"""Brute-force symmetric-subspace simulator.

Everything here works directly with the (N+1)-dimensional collective
basis |J = N/2, M> (M descending from N/2): states come from LAPACK
eigensolves of the dense collective operators, done once per N, and
moments from the ladder action of J+ and J- on the state.  This route is
deliberately disjoint from the closed forms and the hand-rolled Jacobi
kernels it is used to check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

import numpy as np

from .collective import CollectiveMoments, _check_even_n, _check_m, check_n, pair_from_moments
from .errors import InvalidN, NormalizationFailure
from .numerics import _check_int, check_finite
from .states import SymmetricTwoQubitState, rho_from_bloch


@dataclass(frozen=True)
class CollectiveState:
    N: int
    amplitudes: np.ndarray  # length N+1, index i <-> M = N/2 - i

    def __post_init__(self):
        n = _check_int(self.N, "N", 1, error=InvalidN)  # any spin J = N/2 >= 1/2
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (n + 1,):
            raise InvalidN("amplitude vector must have length N+1")
        object.__setattr__(self, "N", n)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class JOperators:
    """Per-N data of the collective basis |J = N/2, M>, M = N/2 ... -N/2.

    Stores M and the ladder coefficients; everything else derived from N
    is computed on access (the dense matrices) or once on first access
    (the spectral data), so clearing build_j_operators' cache frees all of
    it.
    """

    N: int
    m: np.ndarray  # M of each basis index
    # ladder[i - 1] = sqrt((J - M)(J + M + 1)) at M = m[i]: J+ |J, m[i]> =
    # ladder[i - 1] |J, m[i - 1]>, raising M moves one index up.
    ladder: np.ndarray

    @property
    def J1(self) -> np.ndarray:
        jp = np.diag(self.ladder, 1)
        return (jp + jp.T) / 2.0 + 0j

    @property
    def J2(self) -> np.ndarray:
        jp = np.diag(self.ladder, 1)
        return (jp - jp.T) / 2.0j

    @property
    def J3(self) -> np.ndarray:
        return np.diag(self.m) + 0j

    @cached_property
    def j1_squared_spectrum(self) -> tuple:
        """(w, v) of J1^2 from LAPACK eigh; v is stored complex, since
        every use multiplies it with a complex vector."""
        j1 = self.J1
        w, v = np.linalg.eigh(np.real(j1 @ j1))
        return w, v.astype(complex)

    @cached_property
    def d_column(self) -> np.ndarray:
        """<J, M| exp(-i (pi/2) J2) |J, 0> for every M (even N only)."""
        return np.real(rotation_pi2_about_2(self.N)[:, self.N // 2])


def build_j_operators(N: int) -> JOperators:
    """Collective spin data in the |J, M> basis, M = N/2 ... -N/2, for any
    spin J = N/2 >= 1/2.  Cached per N: N is checked and made an int
    first, so 4, N=4 and np.int64(4) share one entry of the cache that
    cache_info and cache_clear report on."""
    return _build_j_operators(_check_int(N, "N", 1, error=InvalidN))


@lru_cache(maxsize=16)
def _build_j_operators(N: int) -> JOperators:
    j = N / 2.0
    m = j - np.arange(N + 1)
    ladder = np.sqrt((j - m[1:]) * (j + m[1:] + 1.0))
    return JOperators(N=N, m=m, ladder=ladder)


build_j_operators.cache_info = _build_j_operators.cache_info
build_j_operators.cache_clear = _build_j_operators.cache_clear


def evolve_ku(N: int, chi_t: float) -> CollectiveState:
    """One-axis twisting exp(-i chi_t J1^2) applied to |J, -J>."""
    N = check_n(N)
    check_finite(chi_t)
    w, v = build_j_operators(N).j1_squared_spectrum
    # The start state is the last basis vector (M = -N/2), so its
    # eigenbasis components are the last row of v.
    psi = v @ (np.exp(-1j * chi_t * w) * v[-1])
    return CollectiveState(N=N, amplitudes=psi)


def rotation_pi2_about_2(N: int) -> np.ndarray:
    """Matrix of exp(-i (pi/2) J2) on the collective basis."""
    ops = build_j_operators(N)
    w, v = np.linalg.eigh(ops.J2)
    return v @ np.diag(np.exp(-1j * (np.pi / 2) * w)) @ v.conj().T


def build_atomic_state(N: int, theta: float) -> CollectiveState:
    """Zero eigenstate of the squeezed-bath lowering operator.

    Amplitudes proportional to <J,M| exp(-i pi/2 J2) |J,0> e^(M theta);
    the rotation matrix element is evaluated spectrally, so this route
    shares nothing with the closed-sum coefficient formula it validates.
    """
    N = _check_even_n(N)
    check_finite(theta)
    ops = build_j_operators(N)
    # Shift the exponent by its largest value, so exp never overflows.
    exponent = ops.m * theta
    amp = ops.d_column * np.exp(exponent - exponent.max())
    norm = np.linalg.norm(amp)
    if not (np.isfinite(norm) and norm > 0.0):
        raise NormalizationFailure("atomic amplitudes have no finite nonzero norm")
    return CollectiveState(N=N, amplitudes=amp / norm)


def build_dicke_state(N: int, M) -> CollectiveState:
    """The basis state |J = N/2, M>."""
    N = check_n(N)
    amp = np.zeros(N + 1, dtype=complex)
    amp[(N - int(_check_m(N, M))) // 2] = 1.0
    return CollectiveState(N=N, amplitudes=amp)


def moments_of(state: CollectiveState) -> CollectiveMoments:
    """<J_i> and (1/2)<{J_i, J_j}> from J+ psi and J- psi, O(N)."""
    ops = build_j_operators(state.N)
    psi = state.amplitudes
    raised = np.zeros_like(psi)
    raised[:-1] = ops.ladder * psi[1:]
    lowered = np.zeros_like(psi)
    lowered[1:] = ops.ladder * psi[:-1]
    vecs = [(raised + lowered) / 2.0, (raised - lowered) / 2.0j, ops.m * psi]
    bra = psi.conj()
    j_mean = np.array([np.real(bra @ vec) for vec in vecs])
    j_second = np.empty((3, 3))
    for i in range(3):
        for k in range(i, 3):
            val = np.real(np.vdot(vecs[i], vecs[k]))
            j_second[i, k] = val
            j_second[k, i] = val
    return CollectiveMoments(N=state.N, j_mean=j_mean, j_second=j_second)


def pair_state_of(state: CollectiveState) -> SymmetricTwoQubitState:
    """Two-qubit reduced state of any pair, via the moment inversion."""
    check_n(state.N)
    s, t = pair_from_moments(moments_of(state))
    return SymmetricTwoQubitState(rho_from_bloch(s, s, t))


# ----------------------------------------------------------------------
# Full 2^N-dimensional cross-check utilities (test-scale N <= 6 only).

def full_hilbert_vector(state: CollectiveState) -> np.ndarray:
    """Embed the collective state into the 2^N product space.

    |J, M> is the normalized symmetrization of the strings with
    k = N/2 - M spin-down qubits (|0> is spin-up).
    """
    n = state.N
    if n > 6:
        raise InvalidN("full-Hilbert embedding is a test utility for N <= 6")
    psi = np.zeros(2 ** n, dtype=complex)
    for idx in range(2 ** n):
        k = bin(idx).count("1")
        psi[idx] = state.amplitudes[k] / np.sqrt(comb(n, k))
    return psi


def reduced_pair_from_full(psi: np.ndarray, n: int) -> np.ndarray:
    """Partial trace over qubits 3..N of a pure 2^N state vector."""
    m = psi.reshape(4, 2 ** (check_n(n) - 2))
    return m @ m.conj().T
