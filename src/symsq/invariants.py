"""Local-unitary invariants of two-qubit states.

Covers the full 18-member polynomial invariant set in (s, r, T), its
reduction to six invariants for exchange-symmetric states, the closed
forms for the special four-parameter family, separability sign tests
and a canonical form for deciding local equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricState
from .numerics import SIGN_TOL, svd3
from .states import SpecialClassState, SymmetricTwoQubitState, TwoQubitState

# Levi-Civita tensor for the explicit epsilon contractions.
EPS = np.zeros((3, 3, 3))
for _i, _j, _k, _sgn in (
    (0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0),
    (0, 2, 1, -1.0), (2, 1, 0, -1.0), (1, 0, 2, -1.0),
):
    EPS[_i, _j, _k] = _sgn

DEGENERACY_REL_GAP = 1e-8

MAKHLIN_NAMES = tuple(f"I{k}" for k in range(1, 19))


def _triple(a, b, c) -> float:
    """epsilon_ijk a_i b_j c_k (scalar triple product)."""
    return float(np.einsum("ijk,i,j,k->", EPS, a, b, c))


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
    I1: float
    I2: float
    I3: float
    I4: float
    I5: float
    I6: float

    @property
    def combo_I4_minus_I3sq(self) -> float:
        return self.I4 - self.I3 * self.I3

    def as_dict(self):
        d = {f"I{k}": getattr(self, f"I{k}") for k in range(1, 7)}
        d["I4_minus_I3sq"] = self.combo_I4_minus_I3sq
        return d


def makhlin_from_bloch(s, r, t) -> MakhlinInvariants:
    s = np.asarray(s, dtype=float)
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    tt = t @ t.T          # T T^T
    ttt = t.T @ t         # T^T T
    tts = tt @ s
    tt2s = tt @ tts
    tttr = ttt @ r
    ttt2r = ttt @ tttr
    ts_left = t.T @ s     # T^T s
    tr = t @ r            # T r
    vals = (
        float(np.linalg.det(t)),                 # I1
        float(np.trace(ttt)),                    # I2
        float(np.trace(ttt @ ttt)),              # I3
        float(s @ s),                            # I4
        float(s @ tts),                          # I5
        float(s @ tt2s),                         # I6
        float(r @ r),                            # I7
        float(r @ tttr),                         # I8
        float(r @ ttt2r),                        # I9
        _triple(s, tts, tt2s),                   # I10
        _triple(r, tttr, ttt2r),                 # I11
        float(s @ tr),                           # I12
        float(s @ (tt @ tr)),                    # I13
        float(np.einsum("ijk,lmn,i,l,jm,kn->", EPS, EPS, s, r, t, t)),  # I14
        _triple(s, tts, tr),                     # I15
        _triple(ts_left, r, tttr),               # I16
        _triple(ts_left, ttt @ ts_left, r),      # I17
        _triple(s, tr, tt @ tr),                 # I18
    )
    return MakhlinInvariants(vals)


def makhlin_all(state: TwoQubitState) -> MakhlinInvariants:
    return makhlin_from_bloch(state.s, state.r, state.T)


def symmetric_six_from_bloch(s, t) -> SymmetricInvariants:
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    ts = t @ s
    i5 = float(np.einsum("ijk,lmn,i,l,jm,kn->", EPS, EPS, s, s, t, t))
    i6 = _triple(s, ts, t @ ts)
    return SymmetricInvariants(
        I1=float(np.linalg.det(t)),
        I2=float(np.trace(t @ t)),
        I3=float(s @ s),
        I4=float(s @ ts),
        I5=i5,
        I6=i6,
    )


def symmetric_six(state: SymmetricTwoQubitState) -> SymmetricInvariants:
    if not isinstance(state, SymmetricTwoQubitState):
        raise NotSymmetricState("symmetric_six requires a symmetric state")
    return symmetric_six_from_bloch(state.s, state.T)


def special_class_invariants(p: SpecialClassState) -> SymmetricInvariants:
    """Closed forms in the (a, b, c, d) parameters."""
    a, b, c, d = p.a, abs(p.b), p.c, p.d
    sz2 = (a - d) ** 2
    return SymmetricInvariants(
        I1=(4 * c * c - 4 * b * b) * (1 - 4 * c),
        I2=4 * (c + b) ** 2 + 4 * (c - b) ** 2 + (a + d - 2 * c) ** 2,
        I3=sz2,
        I4=sz2 * (1 - 4 * c),
        I5=8 * sz2 * (c * c - b * b),
        I6=0.0,
    )


@dataclass(frozen=True)
class SeparabilityFlags:
    I4_negative: bool
    I5_negative: bool
    I4_minus_I3sq_negative: bool
    I1_negative_with_I3_zero: bool

    @property
    def any_entangled(self) -> bool:
        return (
            self.I4_negative
            or self.I5_negative
            or self.I4_minus_I3sq_negative
            or self.I1_negative_with_I3_zero
        )


def separability_flags(inv: SymmetricInvariants, tol: float = SIGN_TOL) -> SeparabilityFlags:
    """Strict sign tests; each true flag is sufficient for entanglement."""
    return SeparabilityFlags(
        I4_negative=inv.I4 < -tol,
        I5_negative=inv.I5 < -tol,
        I4_minus_I3sq_negative=inv.combo_I4_minus_I3sq < -tol,
        I1_negative_with_I3_zero=inv.I3 <= tol and inv.I1 < -tol,
    )


# ----------------------------------------------------------------------
# Canonical form / local equivalence.

# Residual proper rotations commuting with a nondegenerate diagonal T:
# the identity and the pi rotations about each axis, which flip the signs
# of the other two components of both s and r simultaneously.
_FLIPS = (
    np.array([1.0, 1.0, 1.0]),
    np.array([1.0, -1.0, -1.0]),
    np.array([-1.0, 1.0, -1.0]),
    np.array([-1.0, -1.0, 1.0]),
)

# Invariant subsets that remain independent when T^T T is degenerate.
_SUBSET_TWO_EQUAL = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9",
                     "I12", "I13", "I14")
_SUBSET_ALL_EQUAL = ("I1", "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9",
                     "I12")


@dataclass(frozen=True)
class CanonicalForm:
    t_diag: np.ndarray
    s_canon: np.ndarray
    r_canon: np.ndarray
    degeneracy: str  # "none", "two_equal", "all_equal"
    residual_invariants: dict


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
    s, r, t = state.s, state.r, state.T
    o1, d, o2 = svd3(t)
    degeneracy = _degeneracy_class(d)
    s_c = o1 @ s
    r_c = o2 @ r
    best = None
    for f in _FLIPS:
        cand_s = f * s_c
        cand_r = f * r_c
        key = tuple(np.round(np.concatenate([cand_s, cand_r]), 9))
        if best is None or key > best[0]:
            best = (key, cand_s, cand_r)
    inv = makhlin_all(state).as_dict()
    if degeneracy == "two_equal":
        residual = {k: inv[k] for k in _SUBSET_TWO_EQUAL}
    elif degeneracy == "all_equal":
        residual = {k: inv[k] for k in _SUBSET_ALL_EQUAL}
    else:
        residual = inv
    return CanonicalForm(
        t_diag=d,
        s_canon=best[1],
        r_canon=best[2],
        degeneracy=degeneracy,
        residual_invariants=residual,
    )


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + max(abs(a), abs(b)))


def locally_equivalent(s1: TwoQubitState, s2: TwoQubitState, tol: float = 1e-9) -> bool:
    """True when all 18 invariants agree within mixed tol.

    Each invariant is unchanged by local unitaries, so locally equivalent
    states always pass, whatever the degeneracy of T.
    """
    inv1 = makhlin_all(s1).values
    inv2 = makhlin_all(s2).values
    return all(_close(a, b, tol) for a, b in zip(inv1, inv2))
