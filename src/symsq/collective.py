"""Collective angular-momentum view of symmetric pair states.

For an exchange-symmetric N-qubit state the first and second moments of
the collective spin J determine (and are determined by) the two-qubit
reduced Bloch data:  <J_i> = N s_i / 2 and
<J_i J_j + J_j J_i>/2 = (N/4)(delta_ij + (N-1) t_ij).
On top of the map live the spin-squeezing parameter and the
classification of pairwise entanglement by invariant signs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import InvalidN, TraceViolation, ZeroMeanSpin
from .invariants import SymmetricInvariants, symmetric_six
from .numerics import SIGN_TOL, hermitian_eigenvalues
from .states import SymmetricTwoQubitState

_E3 = np.array([0.0, 0.0, 1.0])

# Gate on Tr T = 1 for pair data entering the moment map.
TRACE_TOL = 1e-9
# A mean spin |s| at or below this counts as zero (no squeezing axis).
ZERO_SPIN_TOL = 1e-12


@dataclass(frozen=True)
class CollectiveMoments:
    N: int
    j_mean: np.ndarray       # <J_i>
    j_second: np.ndarray     # (1/2) <J_i J_j + J_j J_i>


@dataclass(frozen=True)
class SqueezingReport:
    xi_sq: float
    t_perp_minus: float
    t_perp_plus: float
    mean_spin_dir: np.ndarray
    max_variance_ratio: float      # 4 (Delta J_perp)^2_max / N
    degenerate_direction: bool     # t_perp_plus == t_perp_minus (no unique axis)


class Branch(enum.Enum):
    I5_NEGATIVE = "I5_negative"
    I4_NEGATIVE = "I4_negative"
    I4_POS_COMBO_NEGATIVE = "I4_pos_combo_negative"
    I3_ZERO_I1_NEGATIVE = "I3_zero_I1_negative"
    SEPARABLE_SIGNATURE = "separable_signature"


_NOTES = {
    Branch.I5_NEGATIVE: "minimal transverse collective variance below N/4 (spin squeezing)",
    Branch.I4_NEGATIVE: "second moment of J along the mean-spin axis at most N/4",
    Branch.I4_POS_COMBO_NEGATIVE: (
        "second moment of J along the mean-spin axis between N/4 and N/4 + (N-1)|<J>|^2/N"
    ),
    Branch.I3_ZERO_I1_NEGATIVE: "vanishing mean spin with <J_i^2> below N/4 along a principal axis",
    Branch.SEPARABLE_SIGNATURE: "no negative invariant signature at this tolerance",
}


@dataclass(frozen=True)
class PairClassification:
    branch: Branch
    collective_note: str
    margin: float  # distance of the deciding invariant from the tol boundary


def check_n(n) -> int:
    """The number of qubits N as an int; raises InvalidN unless an integer >= 2."""
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidN("N must be an integer >= 2")
    return int(n)


def moments_from_pair(s, T, N: int) -> CollectiveMoments:
    n = check_n(N)
    s = np.asarray(s, dtype=float)
    t = np.asarray(T, dtype=float)
    if abs(np.trace(t) - 1.0) > TRACE_TOL:
        raise TraceViolation("symmetric pair data requires Tr T = 1")
    j_mean = 0.5 * n * s
    j_second = 0.25 * n * (np.eye(3) + (n - 1) * t)
    return CollectiveMoments(N=n, j_mean=j_mean, j_second=j_second)


def pair_from_moments(m: CollectiveMoments):
    n = check_n(m.N)
    s = 2.0 * np.asarray(m.j_mean, dtype=float) / n
    second = np.asarray(m.j_second, dtype=float)
    t = (4.0 * second / n - np.eye(3)) / (n - 1)
    return s, t


def _rotation_to_axis3(direction: np.ndarray) -> np.ndarray:
    """Proper rotation R with R @ direction = e3 (direction a unit vector)."""
    c = float(direction @ _E3)
    if c > 1.0 - 1e-14:
        return np.eye(3)
    if c < -1.0 + 1e-14:
        return np.diag([1.0, -1.0, -1.0])
    v = np.cross(direction, _E3)
    vx = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def squeezing(s, T, N: int) -> SqueezingReport:
    n = check_n(N)
    s = np.asarray(s, dtype=float)
    t = np.asarray(T, dtype=float)
    s0 = float(np.linalg.norm(s))
    if s0 <= ZERO_SPIN_TOL:
        raise ZeroMeanSpin("mean spin vanishes; use the I3 = 0 classification branch")
    n0 = s / s0
    rot = _rotation_to_axis3(n0)
    tp = rot @ t @ rot.T
    a, b, c = tp[0, 0], tp[1, 1], tp[0, 1]
    disc = np.sqrt((a - b) ** 2 + 4 * c * c)
    t_minus = 0.5 * (a + b - disc)
    t_plus = 0.5 * (a + b + disc)
    return SqueezingReport(
        xi_sq=1.0 + (n - 1) * t_minus,
        t_perp_minus=float(t_minus),
        t_perp_plus=float(t_plus),
        mean_spin_dir=n0,
        max_variance_ratio=1.0 + (n - 1) * t_plus,
        degenerate_direction=disc < 1e-12,
    )


def classify_invariants(inv: SymmetricInvariants, tol: float = SIGN_TOL) -> PairClassification:
    combo = inv.combo_I4_minus_I3sq
    if inv.I3 > tol:
        if inv.I5 < -tol:
            branch, margin = Branch.I5_NEGATIVE, -inv.I5 - tol
        elif inv.I4 < -tol:
            branch, margin = Branch.I4_NEGATIVE, -inv.I4 - tol
        elif combo < -tol:
            branch, margin = Branch.I4_POS_COMBO_NEGATIVE, -combo - tol
        else:
            branch = Branch.SEPARABLE_SIGNATURE
            margin = min(inv.I5, inv.I4, combo) + tol
    else:
        if inv.I1 < -tol:
            branch, margin = Branch.I3_ZERO_I1_NEGATIVE, -inv.I1 - tol
        else:
            branch, margin = Branch.SEPARABLE_SIGNATURE, inv.I1 + tol
    return PairClassification(branch=branch, collective_note=_NOTES[branch], margin=float(margin))


def classify(state: SymmetricTwoQubitState, tol: float = SIGN_TOL) -> PairClassification:
    return classify_invariants(symmetric_six(state), tol)


@dataclass(frozen=True)
class CollectiveFormsRecord:
    I4_direct: float
    I4_collective: float
    I5_direct: float
    I5_collective: float
    combo_direct: float
    combo_collective: float
    I1_direct: float
    I1_collective: float
    max_deviation: float


def collective_forms(inv: SymmetricInvariants, s, T, N: int) -> CollectiveFormsRecord:
    """Recompute I4, I5, I4 - I3^2 and I1 from collective moments.

    The two routes (polynomial contraction of pair data vs. moment-level
    expressions) must coincide; the record carries both plus the largest
    deviation.
    """
    n = check_n(N)
    s = np.asarray(s, dtype=float)
    t = np.asarray(T, dtype=float)
    rep = squeezing(s, t, n)  # raises ZeroMeanSpin when the mean spin vanishes
    m = moments_from_pair(s, t, n)
    jsq = float(m.j_mean @ m.j_mean)
    n0 = rep.mean_spin_dir
    j_par_sq = float(n0 @ m.j_second @ n0)  # <(J . n0)^2>

    i4_coll = 4.0 * jsq / (n * n * (n - 1)) * (4.0 * j_par_sq / n - 1.0)
    combo_coll = (16.0 * jsq / (n ** 3 * (n - 1))) * (
        j_par_sq - (n / 4.0 + (n - 1) * jsq / n)
    )
    i5_coll = (8.0 * jsq / (n * (n - 1)) ** 2) * (rep.xi_sq - 1.0) * (
        rep.max_variance_ratio - 1.0
    )
    # Product of principal second moments for det T.
    t_eigs = hermitian_eigenvalues(t)
    ji_sq = 0.25 * n * (1.0 + (n - 1) * t_eigs)
    i1_coll = (4.0 / (n * (n - 1))) ** 3 * float(np.prod(ji_sq - n / 4.0))

    dev = max(
        abs(i4_coll - inv.I4),
        abs(i5_coll - inv.I5),
        abs(combo_coll - inv.combo_I4_minus_I3sq),
        abs(i1_coll - inv.I1),
    )
    return CollectiveFormsRecord(
        I4_direct=inv.I4, I4_collective=i4_coll,
        I5_direct=inv.I5, I5_collective=i5_coll,
        combo_direct=inv.combo_I4_minus_I3sq, combo_collective=combo_coll,
        I1_direct=inv.I1, I1_collective=i1_coll,
        max_deviation=float(dev),
    )
