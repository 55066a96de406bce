"""Closed-form pair data for three symmetric multi-qubit families.

Each model maps its parameters to the two-qubit reduced Bloch data
(s, T) of any pair drawn from the N-qubit state, together with the six
local invariants:

* Dicke states |J = N/2, M> (reduced pair in the special four-parameter
  class);
* one-axis-twisted states exp(-i chi_t J1^2)|J, -J>;
* the atomic squeezed steady state with amplitudes proportional to
  d^J_{M0}(pi/2) e^{M theta}, parameterized by x = e^{2 theta} in (0, 1).

For the atomic model the second-moment closed forms carry the factor
e^{-2 xi} with tanh(xi) = x: with that convention the state is
annihilated by the lowering operator
(J_- cosh xi + J_+ sinh xi)/sqrt(2 sinh 2 xi), and the resulting moments
agree with the brute-force simulator.  The correlation-matrix entries are
always produced through the moment map t_ii = (4 <J_i^2>/N - 1)/(N - 1),
which guarantees Tr T = 1 exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List

import numpy as np

from .collective import check_n, classify_invariants, squeezing
from .errors import DomainError, NormalizationFailure, ParityViolation
from .invariants import (
    SymmetricInvariants,
    special_class_invariants,
    symmetric_six_from_bloch,
)
from .numerics import SIGN_TOL
from .states import SpecialClassState


def _log_d_pi2_sq(jp: int, jm: int) -> float:
    """log [d^J_{M0}(pi/2)]^2 for even jp = J + M and jm = J - M."""
    return (
        math.lgamma(jp + 1) + math.lgamma(jm + 1)
        - (jp + jm) * math.log(2.0)
        - 2.0 * (math.lgamma(jp // 2 + 1) + math.lgamma(jm // 2 + 1))
    )


def wigner_d_pi2(J, M) -> float:
    """Rotation coefficient d^J_{M0}(pi/2) = <J M| exp(-i (pi/2) J_2) |J 0>.

    Nonzero only when J + M is even, in which case

        d^J_{M0}(pi/2) = (-1)^((J-M)/2) sqrt((J+M)! (J-M)!)
                         / (2^J ((J+M)/2)! ((J-M)/2)!),

    evaluated with log-factorials so large J stays finite.
    """
    twoj = 2 * J
    if abs(twoj - round(twoj)) > 1e-12 or round(twoj) < 0:
        raise DomainError("J must be a nonnegative half-integer")
    if abs(M - round(M)) > 1e-12 and abs(2 * M - round(2 * M)) > 1e-12:
        raise DomainError("M must be a (half-)integer")
    if abs(M) > J + 1e-12:
        raise DomainError("|M| must not exceed J")
    jm = J - M
    jp = J + M
    if abs(jm - round(jm)) > 1e-12:
        raise DomainError("J - M must be an integer")
    jm = int(round(jm))
    jp = int(round(jp))
    if (jp % 2) != 0 or (jm % 2) != 0:
        # J + M odd, or half-integer J (no M' = 0 level to project onto)
        return 0.0
    return (-1.0) ** (jm // 2) * math.exp(0.5 * _log_d_pi2_sq(jp, jm))


# ----------------------------------------------------------------------
# Dicke states.

def _check_dicke(N: int, M) -> int:
    check_n(N)
    twom = 2 * M
    if abs(twom - round(twom)) > 1e-12:
        raise ParityViolation("2M must be an integer")
    twom = int(round(twom))
    if (N + twom) % 2 != 0:
        raise ParityViolation("N + 2M must be even")
    if abs(twom) > N:
        raise ParityViolation("|M| must not exceed N/2")
    return twom


def dicke_pair(N: int, M):
    """Reduced pair of |J = N/2, M> as a special-class state + invariants."""
    twom = _check_dicke(N, M)
    den = 4.0 * N * (N - 1)
    a = (N + twom) * (N - 2 + twom) / den
    c = (N * N - twom * twom) / den
    d = (N - twom) * (N - 2 - twom) / den
    state = SpecialClassState(a=a, b=0.0, c=c, d=d)
    return state, special_class_invariants(state)


# ----------------------------------------------------------------------
# One-axis twisting.

def ku_pair(N: int, chi_t: float):
    """Pair Bloch data of exp(-i chi_t J1^2)|J, -J> and its invariants."""
    check_n(N)
    if not np.isfinite(chi_t):
        raise DomainError("chi_t must be finite")
    cosx = np.cos(chi_t)
    cos2x = np.cos(2.0 * chi_t)
    s = np.array([0.0, 0.0, -(cosx ** (N - 1))])
    t22 = 0.5 * (1.0 - cos2x ** (N - 2))
    t33 = 0.5 * (1.0 + cos2x ** (N - 2))
    t12 = cosx ** (N - 2) * np.sin(chi_t)
    t = np.array([[0.0, t12, 0.0], [t12, t22, 0.0], [0.0, 0.0, t33]])
    return s, t, symmetric_six_from_bloch(s, t)


# ----------------------------------------------------------------------
# Atomic squeezed steady state.

def _atomic_check(N: int, x: float) -> None:
    check_n(N)
    if N % 2 != 0:
        raise ParityViolation("the steady state requires an even N")
    if not (0.0 < x < 1.0):
        raise DomainError("x must lie strictly between 0 and 1")


def _atomic_j3(N: int, x: float) -> float:
    """<J_3> of the steady state: weighted mean of M over the amplitude
    weights [d^J_{M0}(pi/2)]^2 x^M, computed in log space."""
    log_x = math.log(x)
    log_w = []
    ms = []
    for m in range(-N // 2, N // 2 + 1, 2):  # J + M even <-> M same parity as J
        log_w.append(_log_d_pi2_sq(N // 2 + m, N // 2 - m) + m * log_x)
        ms.append(float(m))
    log_w = np.array(log_w)
    shift = np.max(log_w)
    w = np.exp(log_w - shift)
    total = float(np.sum(w))
    if not np.isfinite(total) or total <= 0.0:
        raise NormalizationFailure("amplitude weights underflowed to zero")
    return float(np.dot(ms, w) / total)


def atomic_pair(N: int, x: float):
    """Pair Bloch data of the atomic squeezed steady state.

    x = e^{2 theta} in (0, 1); the moment closed forms then use
    e^{-2 xi} = (1 - x)/(1 + x), i.e. tanh(xi) = x.
    """
    _atomic_check(N, x)
    j3 = _atomic_j3(N, x)
    J = N / 2.0
    e_m2xi = (1.0 - x) / (1.0 + x)
    e_p2xi = (1.0 + x) / (1.0 - x)
    cosh_2xi = 0.5 * (e_m2xi + e_p2xi)
    j1sq = -0.5 * j3 * e_m2xi
    j2sq = -0.5 * j3 * e_p2xi
    j3sq = J * (J + 1.0) + j3 * cosh_2xi
    s = np.array([0.0, 0.0, 2.0 * j3 / N])
    t_diag = (4.0 * np.array([j1sq, j2sq, j3sq]) / N - 1.0) / (N - 1)
    t = np.diag(t_diag)
    return s, t, symmetric_six_from_bloch(s, t)


# ----------------------------------------------------------------------
# Parameter sweeps.

SWEEP_FIELDS = ("model", "N", "param", "I1", "I2", "I3", "I4", "I5",
                "I4mI3sq", "xi_sq", "branch")

MODEL_NAMES = ("dicke", "ku", "atomic")


@dataclass(frozen=True)
class SweepRow:
    model: str
    N: int
    param: float
    invariants: SymmetricInvariants
    xi_sq: float          # NaN when the mean spin vanishes
    branch: str

    def as_record(self) -> dict:
        inv = self.invariants
        return {
            "model": self.model,
            "N": self.N,
            "param": self.param,
            "I1": inv.I1,
            "I2": inv.I2,
            "I3": inv.I3,
            "I4": inv.I4,
            "I5": inv.I5,
            "I4mI3sq": inv.combo_I4_minus_I3sq,
            "xi_sq": self.xi_sq,
            "branch": self.branch,
        }


def _model_point(model: str, N: int, param: float):
    if model == "dicke":
        state, inv = dicke_pair(N, param)
        s, t = state.bloch()
        return s, t, inv
    if model == "ku":
        return ku_pair(N, param)
    if model == "atomic":
        return atomic_pair(N, param)
    raise DomainError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def sweep(model: str, params: Iterable[float], n_values: Iterable[int],
          tol: float = SIGN_TOL) -> List[SweepRow]:
    rows = []
    for n in n_values:
        for p in params:
            s, t, inv = _model_point(model, n, p)
            if inv.I3 > tol:
                xi_sq = squeezing(s, t, n).xi_sq
            else:
                xi_sq = float("nan")
            branch = classify_invariants(inv, tol).branch.value
            rows.append(SweepRow(model=model, N=int(n), param=float(p),
                                 invariants=inv, xi_sq=xi_sq, branch=branch))
    return rows
