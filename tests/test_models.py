"""Closed-form model generators checked against the simulator."""

import math
from collections.abc import Sequence

import numpy as np
import pytest

from symsq.collective import _check_m, classify_invariants, pair_from_moments, squeezing
from symsq.covariance import bar_invariants
from symsq.errors import DomainError, InvalidN, ParityViolation
from symsq.invariants import makhlin_from_bloch, symmetric_six_from_bloch
from symsq.models import (
    SWEEP_FIELDS,
    SweepTable,
    atomic_pair,
    dicke_pair,
    ku_pair,
    sweep,
    wigner_d_pi2,
)
from symsq.numerics import SIGN_TOL
from symsq.oracle import (
    build_atomic_state,
    build_dicke_state,
    evolve_ku,
    moments_of,
    rotation_pi2_about_2,
)
from symsq.states import from_bloch


# ----------------------------------------------------------------------
# Wigner coefficients

def test_wigner_d_parity_zero():
    assert wigner_d_pi2(1, 0) == 0.0
    assert wigner_d_pi2(2, 1) == 0.0
    assert wigner_d_pi2(2.5, 0.5) == 0.0


def test_wigner_d_small_values():
    assert abs(abs(wigner_d_pi2(1, 1)) - 1 / np.sqrt(2)) < 1e-15
    assert abs(abs(wigner_d_pi2(1, -1)) - 1 / np.sqrt(2)) < 1e-15
    assert abs(wigner_d_pi2(1, 1) + wigner_d_pi2(1, -1)) < 1e-15  # opposite signs
    assert abs(wigner_d_pi2(0, 0) - 1.0) < 1e-15


def test_wigner_d_unitarity():
    for j in range(0, 21):
        total = sum(wigner_d_pi2(j, m - j) ** 2 for m in range(2 * j + 1))
        assert abs(total - 1.0) < 1e-12


def test_wigner_d_matches_rotation_oracle():
    """Spectral exp(-i pi/2 J2) column agrees up to a global sign."""
    for n in (2, 4, 6, 8):
        rot = rotation_pi2_about_2(n)
        col = np.real(rot[:, n // 2])
        closed = np.array([wigner_d_pi2(n / 2, n / 2 - i) for i in range(n + 1)])
        assert min(np.max(np.abs(col - closed)), np.max(np.abs(col + closed))) < 1e-12


def test_wigner_d_domain_errors():
    with pytest.raises(DomainError):
        wigner_d_pi2(1, 2)
    with pytest.raises(DomainError):
        wigner_d_pi2(-1, 0)
    with pytest.raises(DomainError):
        wigner_d_pi2(1.3, 0)


def test_wigner_d_large_j_is_finite():
    val = wigner_d_pi2(100, 0)
    assert np.isfinite(val) and 0 < abs(val) < 1


# ----------------------------------------------------------------------
# Dicke model

def test_dicke_parity_validation():
    """One table of spin labels for the three users of the rule, over
    N = 0..12 and 2M = -N-2..N+2.  A label |J = N/2, M> has N + 2M even and
    |2M| <= N; its M may move by 1e-13 (within INTEGER_TOL) but not by
    1e-11.  dicke_pair and build_dicke_state accept exactly the labels with
    N >= 2, for a Python or a NumPy integer N, and raise ParityViolation on
    any other M (InvalidN below N = 2); wigner_d_pi2(N/2, M) takes the same
    M, and N = 0 and N = 1 as well."""
    for n in range(13):
        for twom in range(-n - 2, n + 3):
            label = (n + twom) % 2 == 0 and abs(twom) <= n
            for shift in (0.0, 1e-13, -1e-13, 1e-11) if label else (0.0,):
                m, ok = twom / 2 + shift, label and shift != 1e-11
                if ok:
                    wigner_d_pi2(n / 2, m)
                else:
                    with pytest.raises(ParityViolation):
                        wigner_d_pi2(n / 2, m)
                for big_n in (n, np.int64(n)):
                    if ok and n >= 2:
                        assert dicke_pair(big_n, m) == dicke_pair(n, twom / 2)
                        assert moments_of(build_dicke_state(big_n, m)).j_mean[2] == twom / 2
                    else:
                        for build in (dicke_pair, build_dicke_state):
                            with pytest.raises(InvalidN if n < 2 else ParityViolation):
                                build(big_n, m)


def test_dicke_extremal_m_is_separable():
    for n in (2, 5, 8):
        _, inv = dicke_pair(n, n / 2)
        assert abs(inv.I2 - 1.0) < 1e-12
        assert abs(inv.I3 - 1.0) < 1e-12
        assert abs(inv.I4 - 1.0) < 1e-12
        assert abs(inv.I1) < 1e-12 and abs(inv.I5) < 1e-12


def test_dicke_balanced_i1():
    """M = 0: I1 = -N^2/(4 (N-1)^3); at N = 4 this is -4/27, and at
    N = 2 the pair is the Bell triplet with I1 = -1."""
    for n in (2, 4, 6, 10):
        _, inv = dicke_pair(n, 0)
        assert abs(inv.I1 + n * n / (4.0 * (n - 1) ** 3)) < 1e-13
        assert abs(inv.I3) < 1e-15
    _, inv = dicke_pair(2, 0)
    assert abs(inv.I1 + 1.0) < 1e-15


def test_dicke_w_like_combo_negative():
    _, inv = dicke_pair(4, 1)
    assert inv.combo_I4_minus_I3sq < -1e-3


def test_dicke_closed_form_invariants():
    """Invariant values in (N, M) agree with direct evaluation."""
    for n in (3, 5, 8):
        for m2 in range(-n, n + 1, 2):
            state, inv = dicke_pair(n, m2 / 2)
            s, t = state.bloch()
            direct = symmetric_six_from_bloch(s, t)
            m = m2 / 2
            i3 = 4 * m * m / (n * n)
            assert abs(inv.I3 - i3) < 1e-13
            assert abs(inv.I4 - i3 * (4 * m * m - n) / (n * (n - 1))) < 1e-13
            assert abs(inv.I5 - 8 * i3 * ((n * n - 4 * m * m)
                                          / (4 * n * (n - 1))) ** 2) < 1e-13
            for k in ("I1", "I2", "I3", "I4", "I5", "I6"):
                assert abs(getattr(inv, k) - getattr(direct, k)) < 1e-12


def test_dicke_matches_oracle():
    for n in range(2, 11):
        for m2 in range(-n, n + 1, 2):
            state, _ = dicke_pair(n, m2 / 2)
            s, t = state.bloch()
            so, to = pair_from_moments(moments_of(build_dicke_state(n, m2 / 2)))
            assert np.max(np.abs(s - so)) < 1e-12
            assert np.max(np.abs(t - to)) < 1e-12


# ----------------------------------------------------------------------
# One-axis twisting

def test_ku_limits():
    s, t, inv = ku_pair(4, 0.0)
    assert np.allclose(s, [0, 0, -1])
    assert np.allclose(t, np.diag([0, 0, 1]))
    assert abs(inv.I5) < 1e-15
    # vanishing mean spin at chi t = pi/2 for even N
    s, _, inv = ku_pair(4, np.pi / 2)
    assert abs(np.linalg.norm(s)) < 1e-15
    assert inv.I3 < 1e-15


def test_ku_closed_form_invariants():
    for n in (4, 6, 8):
        for ct in np.linspace(0.0, np.pi, 200):
            s, t, inv = ku_pair(n, float(ct))
            i3 = np.cos(ct) ** (2 * (n - 1))
            i5 = -2 * i3 * np.cos(ct) ** (2 * (n - 2)) * np.sin(ct) ** 2
            assert abs(inv.I3 - i3) < 1e-11
            assert abs(inv.I5 - i5) < 1e-11
            assert abs(np.trace(t) - 1.0) < 1e-12


def test_ku_matches_oracle():
    for n in range(2, 11):
        for ct in np.linspace(0.0, np.pi, 17):
            s, t, _ = ku_pair(n, float(ct))
            so, to = pair_from_moments(moments_of(evolve_ku(n, float(ct))))
            assert np.max(np.abs(s - so)) < 1e-11
            assert np.max(np.abs(t - to)) < 1e-11


def test_spin_label_parity_is_exact_at_any_n():
    """N + 2M's parity is decided on the int N: at N = 2^53 + 1 the float
    N + 2M rounds to an even number, yet M = 0 labels no state.  Every call
    here costs O(1); building a state at this N would allocate O(N)."""
    n = 2**53 + 1
    with pytest.raises(ParityViolation):
        _check_m(n, 0)
    with pytest.raises(ParityViolation):
        dicke_pair(n, 0)
    dicke_pair(n + 1, 0)


def test_ku_squeezed_at_small_twist():
    _, _, inv = ku_pair(4, 0.2)
    assert inv.I5 < -1e-4


# ----------------------------------------------------------------------
# Atomic squeezed state

def test_atomic_validation():
    with pytest.raises(ParityViolation):
        atomic_pair(3, 0.5)
    with pytest.raises(DomainError):
        atomic_pair(4, 0.0)
    with pytest.raises(DomainError):
        atomic_pair(4, 1.0)


def test_atomic_matches_oracle():
    for n in range(2, 11, 2):
        for x in np.linspace(0.02, 0.98, 13):
            s, t, _ = atomic_pair(n, float(x))
            st = build_atomic_state(n, 0.5 * math.log(x))
            so, to = pair_from_moments(moments_of(st))
            assert np.max(np.abs(s - so)) < 1e-11
            assert np.max(np.abs(t - to)) < 1e-11


def test_atomic_invariant_closed_form():
    """I5 in terms of <J_3>: the product form with e^{+/-2 xi} factors."""
    for n in (4, 6, 8, 20):
        for x in (0.1, 0.4, 0.8):
            s, t, inv = atomic_pair(n, x)
            j3 = s[2] * n / 2
            e = (1 - x) / (1 + x)
            i5_closed = (2 * inv.I3 / (n * n * (n - 1) ** 2)
                         * (2 * j3 * e + n) * (2 * j3 / e + n))
            assert abs(inv.I5 - i5_closed) < 1e-11
            assert inv.I6 == 0.0


def test_atomic_large_n_stable():
    s, t, inv = atomic_pair(200, 0.5)
    assert np.all(np.isfinite(t)) and abs(np.trace(t) - 1.0) < 1e-12
    assert inv.I5 < 0


def test_atomic_diagonal_t():
    _, t, _ = atomic_pair(6, 0.3)
    assert np.max(np.abs(t - np.diag(np.diag(t)))) < 1e-15


# ----------------------------------------------------------------------
# Sweeps

def test_sweep_fields_and_rows():
    rows = sweep("ku", np.linspace(0, np.pi, 5), [4, 6])
    assert len(rows) == 10
    rec = rows[0].as_record()
    assert tuple(rec.keys()) == SWEEP_FIELDS
    assert rows[0].branch == "separable_signature"


def _bits(v):
    return float(v).hex() if isinstance(v, float) else v


@pytest.mark.parametrize("model, grid", [
    ("ku", np.linspace(0.0, 1.0, 4)),      # xi^2 NaN once I3 underflows at N = 1000
    ("dicke", [-1.0, 0.0, 1.0]),          # I4 = -0.0 at M = 0
    ("atomic", [0.1, 0.5, 0.9]),
])
def test_sweep_table_rows_are_views_of_its_columns(model, grid):
    table = sweep(model, grid, [4, 1000])
    assert isinstance(table, Sequence) and not isinstance(table, list)
    assert len(table) == 2 * len(grid) == len(table.columns["I6"])
    rows = list(table)
    assert len(rows) == len(table)
    as_bits = [[_bits(v) for v in row.as_record().values()] for row in rows]
    for i, (row, bits) in enumerate(zip(rows, as_bits)):
        assert bits == [_bits(table.columns[k][i]) for k in SWEEP_FIELDS]
        assert _bits(row.invariants.I6) == _bits(table.columns["I6"][i])
        assert _bits(row.invariants.combo_I4_minus_I3sq) == _bits(table.columns["I4mI3sq"][i])
    n = len(table)
    for i in (0, 1, n - 1, -1, -n):
        assert [_bits(v) for v in table[i].as_record().values()] == as_bits[i]
    for i in (n, -n - 1):
        with pytest.raises(IndexError):
            table[i]
    for part in (slice(1, None, 2), slice(None, None, -1), slice(2, 2)):
        sliced = table[part]
        assert isinstance(sliced, SweepTable)
        assert [[_bits(v) for v in r.as_record().values()] for r in sliced] == as_bits[part]
    (row,) = sweep(model, grid[:1], [4])
    assert [_bits(v) for v in row.as_record().values()] == as_bits[0]


def test_sweep_ku_i5_dips_negative():
    for n in (4, 6, 8):
        rows = sweep("ku", np.linspace(0, np.pi, 60), [n])
        i5 = [r.invariants.I5 for r in rows]
        assert min(i5) < -1e-3
        assert abs(i5[0]) < 1e-12 and abs(i5[-1]) < 1e-12


def test_sweep_atomic_i5_negative_somewhere():
    for n in (4, 6, 8, 20):
        rows = sweep("atomic", np.linspace(0.05, 0.95, 30), [n])
        assert min(r.invariants.I5 for r in rows) < -1e-4


def test_sweep_unknown_model():
    with pytest.raises(DomainError):
        sweep("nope", [0.1], [4])


def test_sweep_nan_xi_for_zero_mean_spin():
    rows = sweep("dicke", [0.0], [4])
    assert math.isnan(rows[0].xi_sq)
    assert rows[0].branch == "I3_zero_I1_negative"


def test_sweep_ku_subnormal_t_warns_nowhere():
    # T[0, 1] is subnormal here; det T must not divide by zero (Tier-1
    # turns every RuntimeWarning into an error).
    ct = 1.0577212562814071
    (row,) = sweep("ku", [ct], [1000])
    s, t, _ = ku_pair(1000, ct)
    assert 0.0 < abs(t[0, 1]) < np.finfo(float).tiny
    assert row.invariants.I1 == makhlin_from_bloch(s, s, t).I1 == 0.0
    assert bar_invariants(from_bloch(s, s, t)).bar1 == 0.0


# Acceptance criterion 10's KU and atomic grids, every Dicke M for N <= 60,
# and the atomic extremes at N = 1000.
_STACK_GRIDS = {
    "ku": [(n, np.linspace(0.0, np.pi, 80)) for n in (4, 6, 8)],
    "atomic": [(n, np.linspace(0.02, 0.98, 40)) for n in (4, 6, 8, 20)]
              + [(1000, [0.01, 0.99])],
    "dicke": [(n, [m2 / 2 for m2 in range(-n, n + 1, 2)]) for n in range(2, 61)],
}


def _point_row(model, n, p):
    """A sweep row's invariants, xi^2 and branch from the unbatched calls."""
    if model == "dicke":
        state, inv = dicke_pair(n, p)
        s, t = state.bloch()
    else:
        s, t, inv = (ku_pair if model == "ku" else atomic_pair)(n, p)
    xi_sq = squeezing(s, t, n).xi_sq if inv.I3 > SIGN_TOL else math.nan
    return inv, xi_sq, classify_invariants(inv).branch.value


@pytest.mark.parametrize("model", sorted(_STACK_GRIDS))
def test_stacked_sweep_matches_unbatched_calls(model):
    for n, grid in _STACK_GRIDS[model]:
        rows = sweep(model, grid, [n])
        assert [r.param for r in rows] == [float(p) for p in grid]
        for row in rows:
            inv, xi_sq, branch = _point_row(model, n, row.param)
            where = f"{model} N={n} param={row.param!r}"
            assert row.branch == branch, where
            got = [*row.invariants.as_dict().values(), row.xi_sq]
            want = [*inv.as_dict().values(), xi_sq]
            for g, w in zip(got, want):
                assert g == w or abs(g - w) <= 1e-14 * max(1.0, abs(w)) \
                    or (math.isnan(g) and math.isnan(w)), where
