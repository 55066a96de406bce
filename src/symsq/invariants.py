"""Local-unitary invariants of two-qubit states.

Covers the full 18-member polynomial invariant set in (s, r, T), its
reduction to six invariants for exchange-symmetric states, the closed
forms for the special four-parameter family, separability sign tests
and a canonical form for deciding local equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SIGN_TOL, _below, _scalar, check_finite, check_tol, svd3
from .states import SpecialClassState, TwoQubitState, _require_symmetric

# Levi-Civita tensor for the explicit epsilon contractions.
EPS = np.zeros((3, 3, 3))
for _i, _j, _k, _sgn in (
    (0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
    (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0),
):
    EPS[_i, _j, _k] = _sgn

# Relative gap below which two eigenvalues of T^T T count as equal.
DEGENERACY_REL_GAP = 1e-8
# Mixed tolerance at which locally_equivalent compares two invariants.
LOCAL_EQUIVALENCE_TOL = 1e-9

MAKHLIN_NAMES = tuple(f"I{k}" for k in range(1, 19))


def _triple(a, b, c):
    """epsilon_ijk a_i b_j c_k (scalar triple product) over leading axes."""
    return np.einsum("ijk,...i,...j,...k->...", EPS, a, b, c)


@dataclass(frozen=True)
class MakhlinInvariants:
    values: tuple  # I1..I18 in order

    def __getattr__(self, name):
        if name in MAKHLIN_NAMES:
            return self.values[MAKHLIN_NAMES.index(name)]
        raise AttributeError(name)

    def as_dict(self):
        return dict(zip(MAKHLIN_NAMES, self.values))


@dataclass(frozen=True)
class SymmetricInvariants:
    """Floats for one pair; arrays over the leading axes of stacked input."""

    I1: float
    I2: float
    I3: float
    I4: float
    I5: float
    I6: float

    @property
    def combo_I4_minus_I3sq(self) -> float:
        return self.I4 - self.I3 * self.I3

    def require_finite(self) -> None:
        """Raises DomainError if any field has a NaN or infinite entry."""
        check_finite(self.I1, self.I2, self.I3, self.I4, self.I5, self.I6)

    def as_dict(self):
        d = {f"I{k}": getattr(self, f"I{k}") for k in range(1, 7)}
        d["I4_minus_I3sq"] = self.combo_I4_minus_I3sq
        return d


def makhlin_from_bloch(s, r, t) -> MakhlinInvariants:
    s, r, t = check_finite(s, r, t)
    tt = t @ t.T          # T T^T
    ttt = t.T @ t         # T^T T
    tts = tt @ s
    tt2s = tt @ tts
    tttr = ttt @ r
    ttt2r = ttt @ tttr
    ts_left = t.T @ s     # T^T s
    tr = t @ r            # T r
    vals = (
        _triple(t[0], t[1], t[2]),               # I1 = det T
        np.trace(ttt),                           # I2
        np.trace(ttt @ ttt),                     # I3
        s @ s,                                   # I4
        s @ tts,                                 # I5
        s @ tt2s,                                # I6
        r @ r,                                   # I7
        r @ tttr,                                # I8
        r @ ttt2r,                               # I9
        _triple(s, tts, tt2s),                   # I10
        _triple(r, tttr, ttt2r),                 # I11
        s @ tr,                                  # I12
        s @ (tt @ tr),                           # I13
        np.einsum("ijk,lmn,i,l,jm,kn->", EPS, EPS, s, r, t, t),  # I14
        _triple(s, tts, tr),                     # I15
        _triple(ts_left, r, tttr),               # I16
        _triple(ts_left, ttt @ ts_left, r),      # I17
        _triple(s, tr, tt @ tr),                 # I18
    )
    return MakhlinInvariants(tuple(map(float, vals)))


def makhlin_all(state: TwoQubitState) -> MakhlinInvariants:
    """The 18 invariants of a state, computed once per state and kept in its memo."""
    memo = state._memo
    if "makhlin" not in memo:
        memo["makhlin"] = makhlin_from_bloch(state.s, state.r, state.T)
    return memo["makhlin"]


def symmetric_six_from_bloch(s, t) -> SymmetricInvariants:
    """The six invariants of symmetric pair data (s, T).

    Works over leading axes: s of shape (..., 3) and t of shape
    (..., 3, 3) give fields of shape (...), and a single (3,), (3, 3)
    pair gives floats.  I1 and I5 are epsilon contractions, so no
    determinant routine sees subnormal entries.
    """
    s, t = check_finite(s, t)
    ts = (t @ s[..., None])[..., 0]
    # I5 = eps_ijk eps_lmn s_i s_l t_jm t_kn, contracted in stages:
    # a_jk = eps_ijk s_i, then sum_jk a_jk (t a t^T)_jk.
    a = np.einsum("ijk,...i->...jk", EPS, s)
    i5 = np.einsum("...jk,...jk->...", a, t @ a @ t.swapaxes(-1, -2))
    vals = (
        _triple(t[..., 0, :], t[..., 1, :], t[..., 2, :]),   # I1 = det T
        np.trace(t @ t, axis1=-2, axis2=-1),               # I2
        np.einsum("...i,...i->...", s, s),                 # I3
        np.einsum("...i,...i->...", s, ts),                # I4
        i5,                                                # I5
        _triple(s, ts, (t @ ts[..., None])[..., 0]),       # I6
    )
    return SymmetricInvariants(*map(_scalar, vals))


def symmetric_six(state: TwoQubitState) -> SymmetricInvariants:
    _require_symmetric(state)
    return symmetric_six_from_bloch(state.s, state.T)


def special_class_six(a, b, c, d) -> SymmetricInvariants:
    """Closed forms in the special-class parameters (a, b, c, d).

    Works elementwise: arrays of one shape (b may be a scalar) give
    fields of that shape, and floats give floats.
    """
    check_finite(a, b, c, d)
    b = abs(b)
    sz2 = (a - d) ** 2
    return SymmetricInvariants(
        I1=(4 * c * c - 4 * b * b) * (1 - 4 * c),
        I2=4 * (c + b) ** 2 + 4 * (c - b) ** 2 + (a + d - 2 * c) ** 2,
        I3=sz2,
        I4=sz2 * (1 - 4 * c),
        I5=8 * sz2 * (c * c - b * b),
        I6=0.0 * sz2,  # zero, in the shape of the other fields
    )


def special_class_invariants(p: SpecialClassState) -> SymmetricInvariants:
    """Closed forms of a special-class state (special_class_six of its parameters)."""
    return special_class_six(p.a, p.b, p.c, p.d)


@dataclass(frozen=True)
class SeparabilityFlags:
    """Bools for one pair; bool arrays over the leading axes of stacked input."""

    I4_negative: bool
    I5_negative: bool
    I4_minus_I3sq_negative: bool
    I1_negative_with_I3_zero: bool


def separability_flags(inv: SymmetricInvariants, tol: float = SIGN_TOL) -> SeparabilityFlags:
    """Strict sign tests; each true flag is sufficient for entanglement."""
    tol = check_tol(tol)
    inv.require_finite()
    spin = _below(-inv.I3, tol)[0]  # I3 > tol
    return SeparabilityFlags(
        I4_negative=_below(inv.I4, tol)[0],
        I5_negative=_below(inv.I5, tol)[0],
        I4_minus_I3sq_negative=_below(inv.combo_I4_minus_I3sq, tol)[0],
        I1_negative_with_I3_zero=_scalar(np.logical_not(spin) & _below(inv.I1, tol)[0]),
    )


# ----------------------------------------------------------------------
# Canonical form / local equivalence.

# Residual proper rotations commuting with a nondegenerate diagonal T:
# the identity and the pi rotations about each axis, which flip the signs
# of the other two components of both s and r simultaneously.
_FLIPS = np.array([
    [1.0, 1.0, 1.0],
    [1.0, -1.0, -1.0],
    [-1.0, 1.0, -1.0],
    [-1.0, -1.0, 1.0],
])


@dataclass(frozen=True)
class CanonicalForm:
    t_diag: np.ndarray
    s_canon: np.ndarray
    r_canon: np.ndarray
    degeneracy: str  # "none", "two_equal", "all_equal"


def _degeneracy_class(d: np.ndarray) -> str:
    """Classify the spectrum of T^T T from the singular values d of T.

    Two neighbouring eigenvalues d_i^2 count as equal when their gap is
    below DEGENERACY_REL_GAP relative to max(1, largest eigenvalue).
    """
    w = d * d  # ascending, since svd3 orders d by |d|
    close = np.diff(w) / max(1.0, float(w[-1])) < DEGENERACY_REL_GAP
    if np.all(close):
        return "all_equal"
    if np.any(close):
        return "two_equal"
    return "none"


def canonical_form(state: TwoQubitState) -> CanonicalForm:
    """Frame data in the T-diagonal frame with deterministic sign fixing.

    For nondegenerate correlation spectra the residual local freedom is
    the four-element flip group above; the representative maximizing the
    concatenated (s, r) tuple lexicographically is returned, making the
    canonical data identical for locally equivalent states.
    """
    o1, d, o2 = svd3(state.T)
    # (flip, s or r, component); ties go to the first flip.
    cand = _FLIPS[:, None, :] * np.stack([o1 @ state.s, o2 @ state.r])
    keys = np.round(cand.reshape(-1, 6), 9).tolist()
    s_c, r_c = cand[keys.index(max(keys))]
    return CanonicalForm(t_diag=d, s_canon=s_c, r_canon=r_c, degeneracy=_degeneracy_class(d))


def locally_equivalent(s1: TwoQubitState, s2: TwoQubitState) -> bool:
    """True when all 18 invariants agree within LOCAL_EQUIVALENCE_TOL
    relative to 1 + the larger magnitude.

    Each invariant is unchanged by local unitaries, so locally equivalent
    states always pass, whatever the degeneracy of T.
    """
    inv1 = makhlin_all(s1).values
    inv2 = makhlin_all(s2).values
    return all(abs(a - b) <= LOCAL_EQUIVALENCE_TOL * (1.0 + max(abs(a), abs(b)))
               for a, b in zip(inv1, inv2))
