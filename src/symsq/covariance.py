"""Covariance-matrix entanglement criteria for two-qubit and collective states.

The central object for a symmetric pair state is C = T - s s^T: the state
is entangled exactly when C has a negative eigenvalue, and this is
equivalent to the partial-transpose test.  The equivalence is verified
constructively through a basis change to the angular-momentum basis
followed by a congruence that block-diagonalizes the partially transposed
matrix into (1/2) diag(T - s s^T, 1).

The collective witness of N such qubits is the same matrix seen through an
affine map: <JJ>_sym - (1 - 1/N) <J><J>^T = (N/4)(I + (N - 1) C).  So the
least eigenvalue of C decides c_negativity_test, korbicz_minimum and
collective_criterion at every N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .collective import moments_from_pair
from .errors import ChainMismatch, NonUnitVector
from .invariants import _triple
from .numerics import (SIGN_TOL, _below, check_finite, check_tol, hermitian_eigenvalues,
                       symmetric_eigenvalues)
from .states import (TRIPLET_BASIS, TwoQubitState, _require_symmetric, partial_transpose,
                     rho_from_bloch)

# Product basis -> {|1,1>, |1,0>, |1,-1>, |0,0>}.
_SQ2 = np.sqrt(2.0)
U_ANGULAR = np.vstack([TRIPLET_BASIS, [0, 1 / _SQ2, -1 / _SQ2, 0]])

# Angular-momentum basis -> the real combinations {|X>, |Y>, |Z>, |0,0>}
# in which the partially transposed symmetric state becomes the real
# bordered matrix (1/2) [[T, s], [s^T, 1]].
U_PRIME = (1 / _SQ2) * np.array(
    [
        [-1, 0, 1, 0],
        [-1j, 0, -1j, 0],
        [0, _SQ2, 0, 0],
        [0, 0, 0, _SQ2],
    ],
    dtype=complex,
)

# How far |k_hat| may be from 1 in korbicz_witness.
UNIT_NORM_TOL = 1e-9
# ppt_equivalence_chain: the largest entry-wise deviation of the bordered
# and block forms from their closed-form targets, and the level below
# which an eigenvalue counts as negative in the inertia comparison.
CHAIN_DEVIATION_TOL = 1e-10
CHAIN_INERTIA_TOL = 1e-11


@dataclass(frozen=True)
class BarInvariants:
    bar1: float  # det C
    bar2: float  # Tr C
    bar3: float  # Tr C^2
    bar4: float  # (bar2^2 - bar3)/2
    entangled: bool  # bar1 < 0 or bar4 < 0


@dataclass(frozen=True)
class CollectiveCriterion:
    witness_matrix: np.ndarray  # <JJ>_sym - (1 - 1/N) S S^T, mean spin S = <J>
    min_eig: float
    entangled: bool         # min_eig < N/4


@dataclass(frozen=True)
class ChainDiagnostics:
    bordered_deviation: float   # vs (1/2) [[T, s],[s^T, 1]]
    block_deviation: float      # vs (1/2) diag(T - ss^T, 1) after congruence
    negatives_pt: int
    negatives_block: int
    inertia_match: bool


def _c(s, T) -> np.ndarray:
    """C = T - s s^T of pair data (s, T)."""
    s, t = check_finite(s, T)
    return t - np.outer(s, s)


def c_matrix(state: TwoQubitState) -> np.ndarray:
    _require_symmetric(state)
    return _c(state.s, state.T)


def c_negativity_test(state: TwoQubitState, tol: float = SIGN_TOL):
    """(min eigenvalue of C, entangled flag); exact PPT-equivalent test."""
    _require_symmetric(state)
    tol = check_tol(tol)
    min_eig = korbicz_minimum(state.s, state.T)
    return min_eig, _below(min_eig, tol)[0]


def ppt_equivalence_chain(state: TwoQubitState) -> ChainDiagnostics:
    """Verify the constructive PPT <-> C < 0 chain step by step."""
    _require_symmetric(state)
    s, t = state.s, state.T
    pt = partial_transpose(state)
    # Composing the transpose with a pi rotation of the second qubit about
    # axis 2 flips the sign of every sigma_2i; the composite is unitarily
    # equivalent to the bare partial transpose (same spectrum) and is the
    # form the basis-change chain diagonalizes.
    pt_rotated = rho_from_bloch(s, -s, -t)

    u = U_PRIME @ U_ANGULAR
    bordered = u @ pt_rotated @ u.conj().T
    target = 0.5 * np.block([[t, s.reshape(3, 1)], [s.reshape(1, 3), np.ones((1, 1))]])
    dev_bordered = float(np.max(np.abs(bordered - target)))

    ell = np.eye(4)
    ell[:3, 3] = -s
    block = ell @ np.real(bordered) @ ell.T
    block_target = np.zeros((4, 4))
    block_target[:3, :3] = 0.5 * _c(s, t)
    block_target[3, 3] = 0.5
    dev_block = float(np.max(np.abs(block - block_target)))
    if max(dev_bordered, dev_block) > CHAIN_DEVIATION_TOL:
        raise ChainMismatch(
            f"transformation chain deviates: bordered {dev_bordered:g}, block {dev_block:g}")

    # Congruence preserves inertia, not the spectrum: compare counts of
    # negative eigenvalues on the two ends of the chain.
    w_pt = hermitian_eigenvalues(pt)
    w_block = symmetric_eigenvalues(block)
    neg_pt = int(np.sum(w_pt < -CHAIN_INERTIA_TOL))
    neg_block = int(np.sum(w_block < -CHAIN_INERTIA_TOL))
    return ChainDiagnostics(
        bordered_deviation=dev_bordered,
        block_deviation=dev_block,
        negatives_pt=neg_pt,
        negatives_block=neg_block,
        inertia_match=neg_pt == neg_block,
    )


def bar_invariants(state: TwoQubitState, tol: float = SIGN_TOL) -> BarInvariants:
    tol = check_tol(tol)
    c = c_matrix(state)
    bar1 = float(_triple(c[0], c[1], c[2]))
    bar2 = float(np.trace(c))
    bar3 = float(np.trace(c @ c))
    bar4 = 0.5 * (bar2 * bar2 - bar3)
    return BarInvariants(
        bar1=bar1, bar2=bar2, bar3=bar3, bar4=bar4,
        entangled=_below(bar1, tol)[0] or _below(bar4, tol)[0],
    )


def collective_criterion(s, T, N: int, tol: float = SIGN_TOL) -> CollectiveCriterion:
    """Pairwise-entanglement witness from collective first/second moments.

    The witness matrix V + S S^T / N = <JJ>_sym - (1 - 1/N) S S^T comes from
    moments_from_pair, which raises TraceViolation unless Tr T = 1.  It equals
    (N/4)(I + (N - 1) C), and N - 1 > 0 keeps the eigenvalue order, so its
    least eigenvalue is (N/4)(1 + (N - 1) korbicz_minimum(s, T)): one solve
    of C serves every N.
    """
    tol = check_tol(tol)
    m = moments_from_pair(s, T, N)
    N = m.N
    witness = m.j_second - (1.0 - 1.0 / N) * np.outer(m.j_mean, m.j_mean)
    min_eig = 0.25 * N * (1.0 + (N - 1) * korbicz_minimum(s, T))
    return CollectiveCriterion(witness_matrix=witness, min_eig=min_eig,
                               entangled=_below(min_eig, tol, N / 4.0)[0])


def korbicz_witness(s, T, k_hat) -> float:
    """k^T (T - s s^T) k along the unit direction k_hat.

    A negative value certifies the generalized spin-squeezing inequality
    4 <Delta J_k^2>/N < 1 - 4 <J_k>^2/N^2; the exact minimum over
    directions is the least eigenvalue of C.
    """
    k = check_finite(k_hat)
    if abs(np.linalg.norm(k) - 1.0) > UNIT_NORM_TOL:
        raise NonUnitVector("k_hat must be a unit vector")
    return float(k @ _c(s, T) @ k)


def korbicz_minimum(s, T) -> float:
    """Exact minimization of korbicz_witness over unit directions: the least
    eigenvalue of C by LAPACK (symmetric_eigenvalues).  It passes
    (C + C^T)/2 to the solver's symmetry gate: C can be an ulp less
    symmetric than T, whose asymmetry the symmetry rule bounds."""
    c = _c(s, T)
    return float(symmetric_eigenvalues((c + c.T) / 2.0)[0])
