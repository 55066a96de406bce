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

from .errors import InvalidN, ParityViolation, TraceViolation, ZeroMeanSpin
from .invariants import SymmetricInvariants
from .numerics import (DEFAULT_TOL, SIGN_TOL, _below, _check_int, _scalar, check_finite,
                       check_tol, symmetric_eigenvalues)

# A mean spin |s| at or below this counts as zero (no squeezing axis).
ZERO_SPIN_TOL = 1e-12
# Rounding slack of the integer checks on 2J and 2M.
INTEGER_TOL = 1e-12


@dataclass(frozen=True)
class CollectiveMoments:
    N: int
    j_mean: np.ndarray       # <J_i>
    j_second: np.ndarray     # (1/2) <J_i J_j + J_j J_i>


@dataclass(frozen=True)
class SqueezingReport:
    """Floats for one pair; arrays over the leading axes of stacked input."""

    xi_sq: float
    t_perp_minus: float
    t_perp_plus: float
    mean_spin_dir: np.ndarray
    max_variance_ratio: float      # 4 (Delta J_perp)^2_max / N


class Branch(enum.Enum):
    # minimal transverse collective variance below N/4 (spin squeezing)
    I5_NEGATIVE = "I5_negative"
    # second moment of J along the mean-spin axis at most N/4
    I4_NEGATIVE = "I4_negative"
    # second moment of J along the mean-spin axis between N/4 and
    # N/4 + (N-1)|<J>|^2/N
    I4_POS_COMBO_NEGATIVE = "I4_pos_combo_negative"
    # vanishing mean spin with <J_i^2> below N/4 along a principal axis
    I3_ZERO_I1_NEGATIVE = "I3_zero_I1_negative"
    # no negative invariant signature at this tolerance
    SEPARABLE_SIGNATURE = "separable_signature"


@dataclass(frozen=True)
class PairClassification:
    branch: Branch
    margin: float  # distance of the deciding invariant from the tol boundary


def check_n(n) -> int:
    """The number of qubits N as an int; raises InvalidN unless an integer
    in 2..2^53, the range where every integer is exact as a float, so that
    no closed form overflows or rounds N."""
    return _check_int(n, "N", 2, 2**53, error=InvalidN)


def _check_even_n(n) -> int:
    """check_n(n) for the atomic steady state; raises ParityViolation on an odd N."""
    n = check_n(n)
    if n % 2:
        raise ParityViolation("the steady state requires an even N")
    return n


def _check_m(n: int, M):
    """2M over the shape of M, as integer-valued floats; raises
    ParityViolation unless each M labels a state |J = n/2, M>: 2M an
    integer within INTEGER_TOL, 2M of the parity of the int n and |2M| <= n."""
    m = check_finite(M)[()]  # a 0-d array as a NumPy scalar, whose arithmetic is cheaper
    twom = np.rint(2 * m)
    if ((abs(2 * m - twom) > INTEGER_TOL) | (twom % 2 != n % 2) | (abs(twom) > n)).any():
        raise ParityViolation("M must be a (half-)integer with N + 2M even and |M| <= N/2")
    return twom


def _xi_sq_defined(I3, tol):
    """Where xi^2 is defined, over I3 = |s|^2's shape: a mean spin by
    classify_invariants' rule, I3 > tol, that squeezing takes, |s| > ZERO_SPIN_TOL."""
    return _below(-I3, tol)[0] & (np.sqrt(I3) > ZERO_SPIN_TOL)


def moments_from_pair(s, T, N: int) -> CollectiveMoments:
    n = check_n(N)
    s, t = check_finite(s, T)
    if abs(np.trace(t) - 1.0) > DEFAULT_TOL:  # the symmetric state's rule
        raise TraceViolation("symmetric pair data requires Tr T = 1")
    j_mean = 0.5 * n * s
    j_second = 0.25 * n * (np.eye(3) + (n - 1) * t)
    return CollectiveMoments(N=n, j_mean=j_mean, j_second=j_second)


def pair_from_moments(m: CollectiveMoments):
    n = check_n(m.N)
    j_mean, second = check_finite(m.j_mean, m.j_second)
    s = 2.0 * j_mean / n
    t = (4.0 * second / n - np.eye(3)) / (n - 1)
    return s, t


_EYE3 = np.eye(3)


def squeezing(s, T, N: int) -> SqueezingReport:
    """Squeezing along the transverse plane of the mean spin.

    Works over leading axes: s of shape (..., 3) and T of shape
    (..., 3, 3) give fields of shape (...) (mean_spin_dir (..., 3)), and a
    single (3,), (3, 3) pair gives floats.  Raises ZeroMeanSpin if any
    mean spin vanishes.
    """
    n = check_n(N)
    s, t = check_finite(s, T)
    s0 = np.sqrt(np.einsum("...i,...i->...", s, s))
    if (s0 <= ZERO_SPIN_TOL).any():
        raise ZeroMeanSpin("mean spin vanishes; use the I3 = 0 classification branch")
    n0 = s / s0[..., None]
    # The Householder reflection h = I - 2 v v^T / (v . v) maps n0 to
    # -sign(n0_3) e3 and the transverse plane onto the first two axes.
    # v . v = 2 (1 + |n0_3|) >= 2, so nothing cancels; n0 = +-e3 gives
    # h = diag(1, 1, -1), which reads T's 2x2 block exactly.
    v = n0 + np.copysign(1.0, n0[..., 2:]) * _EYE3[2]
    scaled = v * (2.0 / np.einsum("...i,...i->...", v, v))[..., None]
    h = _EYE3 - np.einsum("...i,...j->...ij", v, scaled)
    tp = h @ t @ h
    a, b, c = tp[..., 0, 0], tp[..., 1, 1], tp[..., 0, 1]
    disc = np.sqrt((a - b) ** 2 + 4 * c * c)
    t_minus = 0.5 * (a + b - disc)
    t_plus = 0.5 * (a + b + disc)
    xi_sq = 1.0 + (n - 1) * t_minus
    max_ratio = 1.0 + (n - 1) * t_plus
    return SqueezingReport(xi_sq=_scalar(xi_sq), t_perp_minus=_scalar(t_minus),
                           t_perp_plus=_scalar(t_plus), mean_spin_dir=n0,
                           max_variance_ratio=_scalar(max_ratio))


# Branch in declaration order, the order of classify_invariants' tests.
_BRANCH_TABLE = np.array(list(Branch), dtype=object)


def classify_invariants(inv: SymmetricInvariants, tol: float = SIGN_TOL) -> PairClassification:
    """The first negative sign test decides the branch: with a mean spin
    (I3 > tol, the rule on -I3) I5, then I4, then I4 - I3^2; without one,
    I1.  The margin is the deciding test's, or for the separable signature
    minus the largest tested margin: the smallest tested value's distance
    above -tol.

    Works over leading axes: invariants whose fields are arrays of shape
    (...) give a branch and margin of that shape (the branch an object
    array of Branch); float fields give one Branch.
    """
    tol = check_tol(tol)
    inv.require_finite()
    spin = _below(-inv.I3, tol)[0]
    # The four tests in Branch order; a test on the other side of
    # I3 = tol reads +inf, so it neither decides nor sets the margin.
    tested = np.where(np.array([spin, spin, spin, np.logical_not(spin)]),
                      np.array([inv.I5, inv.I4, inv.combo_I4_minus_I3sq, inv.I1]), np.inf)
    below, margins = _below(tested, tol)
    # Row j holds where branch _BRANCH_TABLE[j] applies; the last row always does.
    holds = np.concatenate([below, np.ones((1,) + tested.shape[1:], dtype=bool)])
    margins = np.concatenate([margins, -margins.max(axis=0, keepdims=True)])
    k = holds.argmax(axis=0)
    margin = np.take_along_axis(margins, k[None], axis=0)[0]
    return PairClassification(branch=_BRANCH_TABLE[k], margin=_scalar(margin))


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
    inv.require_finite()
    s, t = check_finite(s, T)
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
    t_eigs = symmetric_eigenvalues(t)
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
