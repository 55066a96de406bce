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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .collective import (_BRANCH_VALUES, INTEGER_TOL, _branch_index, _check_even_n, _check_m,
                         _xi_sq_defined, check_n, squeezing)
from .errors import DomainError, InvalidN, NormalizationFailure
from .invariants import (
    SymmetricInvariants,
    special_class_invariants,
    special_class_six,
    symmetric_six_from_bloch,
)
from .numerics import SIGN_TOL, check_finite, check_tol
from .states import SpecialClassState, special_class_bloch


# Most weights one atomic table holds: N/2 + 1 for each parameter point.
# atomic_pair keeps three float arrays of that shape at once, beside the
# N + 1 log-factorials: at the cap the table peaks at 42 MB traced and takes
# 0.35 s at N = 2^21 - 2 and one point, 25 MB at N = 2046 and 1024 points
# (2-vCPU Xeon).  A cap on N alone would let a long parameter list multiply
# it; the per-point s, T and invariants, as in ku_pair, come on top.
_MAX_ATOMIC_WEIGHTS = 2**20


def _check_atomic_size(n: int, points: int) -> None:
    """Raise InvalidN, before the table is built, when N/2 + 1 weights for
    each of points parameter values exceed _MAX_ATOMIC_WEIGHTS."""
    if points * (n // 2 + 1) > _MAX_ATOMIC_WEIGHTS:
        raise InvalidN(f"the atomic table holds N/2 + 1 weights per point, at most "
                       f"{_MAX_ATOMIC_WEIGHTS} in all: N = {n} at {points} points")


def _log_d_pi2_sq_table(n: int) -> np.ndarray:
    """log [d^J_{M0}(pi/2)]^2 at J = n/2 (n even) for J + M = 0, 2, ..., n.

    Built from log k! = lgamma(k + 1), k = 0..n, in the closed sum's own
    operation order, so each entry is what the scalar formula gives.
    """
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)
    h = n // 2
    # log (J+M)!, log (J-M)!, log ((J+M)/2)!, log ((J-M)/2)! for each M.
    return (log_fact[::2] + log_fact[::-2] - n * math.log(2.0)
            - 2.0 * (log_fact[:h + 1] + log_fact[h::-1]))


def wigner_d_pi2(J, M) -> float:
    """Rotation coefficient d^J_{M0}(pi/2) = <J M| exp(-i (pi/2) J_2) |J 0>.

    Nonzero only when J + M is even, in which case

        d^J_{M0}(pi/2) = (-1)^((J+M)/2) sqrt((J+M)! (J-M)!)
                         / (2^J ((J+M)/2)! ((J-M)/2)!),

    evaluated with log-factorials so large J stays finite: four lgamma
    calls in _log_d_pi2_sq_table's operation order, so it is that table's
    entry bit for bit.  The table's cap bounds J, and with it the
    cancellation in the log-factorial sum.
    """
    twoj = 2 * float(check_finite(J))
    n = round(twoj)
    if abs(twoj - n) > INTEGER_TOL or n < 0:
        raise DomainError("J must be a nonnegative half-integer")
    jp = (n + int(_check_m(n, M))) // 2
    if n % 2 or jp % 2:
        # half-integer J (no M' = 0 level to project onto), or J + M odd
        return 0.0
    _check_atomic_size(n, 1)
    lg = math.lgamma
    log_sq = (lg(jp + 1) + lg(n - jp + 1) - n * math.log(2.0)
              - 2.0 * (lg(jp // 2 + 1) + lg((n - jp) // 2 + 1)))
    return (-1.0) ** (jp // 2) * math.exp(0.5 * log_sq)


# ----------------------------------------------------------------------
# Dicke states.

def _dicke_acd(N: int, M):
    """(a, c, d) of the special-class pair of |J = N/2, M>, over the shape of M."""
    N = check_n(N)
    twom = _check_m(N, M)
    # 2M is integral, so these products are exact in floating point.
    den = 4.0 * N * (N - 1)
    a = (N + twom) * (N - 2 + twom) / den
    c = (N * N - twom * twom) / den
    d = (N - twom) * (N - 2 - twom) / den
    return a, c, d


def dicke_pair(N: int, M):
    """Reduced pair of |J = N/2, M> as a special-class state + invariants."""
    a, c, d = map(float, _dicke_acd(N, M))
    state = SpecialClassState(a=a, b=0.0, c=c, d=d)
    return state, special_class_invariants(state)


# ----------------------------------------------------------------------
# One-axis twisting.

def ku_pair(N: int, chi_t):
    """Pair Bloch data of exp(-i chi_t J1^2)|J, -J> and its invariants.

    chi_t may be an array: s, T and the invariant fields then carry its
    shape as leading axes.
    """
    check_n(N)
    chi = check_finite(chi_t)
    cosx = np.cos(chi)
    cos2x = np.cos(2.0 * chi)
    s = np.zeros(chi.shape + (3,))
    s[..., 2] = -(cosx ** (N - 1))
    t = np.zeros(chi.shape + (3, 3))
    t[..., 0, 1] = t[..., 1, 0] = cosx ** (N - 2) * np.sin(chi)
    t[..., 1, 1] = 0.5 * (1.0 - cos2x ** (N - 2))
    t[..., 2, 2] = 0.5 * (1.0 + cos2x ** (N - 2))
    return s, t, symmetric_six_from_bloch(s, t)


# ----------------------------------------------------------------------
# Atomic squeezed steady state.

def atomic_pair(N: int, x):
    """Pair Bloch data of the atomic squeezed steady state.

    x = e^{2 theta} in (0, 1); the moment closed forms then use
    e^{-2 xi} = (1 - x)/(1 + x), i.e. tanh(xi) = x.  <J_3> is the mean of
    M over the amplitude weights [d^J_{M0}(pi/2)]^2 x^M, computed in log
    space.  x may be an array: s, T and the invariant fields then carry
    its shape as leading axes.
    """
    N = _check_even_n(N)
    x = check_finite(x)
    if not ((x > 0.0) & (x < 1.0)).all():
        raise DomainError("x must lie strictly between 0 and 1")
    _check_atomic_size(N, x.size)
    m = np.arange(-N // 2, N // 2 + 1, 2)  # J + M even <-> M same parity as J
    log_w = _log_d_pi2_sq_table(N) + m * np.log(x)[..., None]
    w = np.exp(log_w - log_w.max(axis=-1, keepdims=True))
    total = w.sum(axis=-1)
    if not (np.isfinite(total) & (total > 0.0)).all():
        raise NormalizationFailure("amplitude weights underflowed to zero")
    j3 = (w @ m.astype(float)) / total
    J = N / 2.0
    e_m2xi = (1.0 - x) / (1.0 + x)
    e_p2xi = (1.0 + x) / (1.0 - x)
    cosh_2xi = 0.5 * (e_m2xi + e_p2xi)
    j1sq = -0.5 * j3 * e_m2xi
    j2sq = -0.5 * j3 * e_p2xi
    j3sq = J * (J + 1.0) + j3 * cosh_2xi
    s = np.zeros(x.shape + (3,))
    s[..., 2] = 2.0 * j3 / N
    t = np.zeros(x.shape + (3, 3))
    for i, jsq in enumerate((j1sq, j2sq, j3sq)):
        t[..., i, i] = (4.0 * jsq / N - 1.0) / (N - 1)
    return s, t, symmetric_six_from_bloch(s, t)


# ----------------------------------------------------------------------
# Parameter sweeps.

SWEEP_FIELDS = ("model", "N", "param", "I1", "I2", "I3", "I4", "I5",
                "I4mI3sq", "xi_sq", "branch")

MODEL_NAMES = ("dicke", "ku", "atomic")

_SIX = ("I1", "I2", "I3", "I4", "I5", "I6")


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


class SweepTable(Sequence):
    """Sweep rows held as columns: ``columns`` maps each SWEEP_FIELDS name,
    and I6, to one list of values.  Indexing builds that row's SweepRow
    view; a slice is a SweepTable over the sliced columns."""

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, list]):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns["model"])

    def __getitem__(self, i):
        c = self.columns
        if isinstance(i, slice):
            return SweepTable({k: col[i] for k, col in c.items()})
        return SweepRow(model=c["model"][i], N=c["N"][i], param=c["param"][i],
                        invariants=SymmetricInvariants(*(c[k][i] for k in _SIX)),
                        xi_sq=c["xi_sq"][i], branch=c["branch"][i])


def _model_stack(model: str, N: int, params: np.ndarray):
    """(s, T, invariants) of one N over a 1-D parameter array."""
    if model == "dicke":
        a, c, d = _dicke_acd(N, params)
        s, t = special_class_bloch(a, 0.0, c, d)
        return s, t, special_class_six(a, 0.0, c, d)
    if model == "ku":
        return ku_pair(N, params)
    if model == "atomic":
        return atomic_pair(N, params)
    raise DomainError(f"unknown model {model!r}; expected one of {MODEL_NAMES}")


def sweep(model: str, params: Iterable[float], n_values: Iterable[int],
          tol: float = SIGN_TOL) -> SweepTable:
    """One row per (N, parameter), each N computed as one stack over all
    parameters and its values appended to the table's columns."""
    tol = check_tol(tol)
    params = check_finite(list(params))
    param_list = params.tolist()
    n_values = list(n_values)
    if model == "atomic":  # every N before the first table
        for n in n_values:
            _check_atomic_size(_check_even_n(n), params.size)
    columns = {k: [] for k in SWEEP_FIELDS + ("I6",)}
    for n in n_values:
        s, t, inv = _model_stack(model, n, params)
        spin = _xi_sq_defined(inv.I3, tol)
        if spin.all():
            xi_sq = squeezing(s, t, n).xi_sq
        else:
            xi_sq = np.full(params.shape, np.nan)
            if spin.any():
                xi_sq[spin] = squeezing(s[spin], t[spin], n).xi_sq
        columns["model"] += [model] * len(param_list)
        columns["N"] += [int(n)] * len(param_list)
        columns["param"] += param_list
        for k in _SIX:
            columns[k] += getattr(inv, k).tolist()
        columns["I4mI3sq"] += inv.combo_I4_minus_I3sq.tolist()
        columns["xi_sq"] += xi_sq.tolist()
        columns["branch"] += _BRANCH_VALUES[_branch_index(inv, tol)[0]].tolist()
    return SweepTable(columns)
