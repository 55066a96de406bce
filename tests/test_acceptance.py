"""Acceptance gate: one test (and one printed pass/fail line) per criterion."""

import math
import time

import numpy as np

from symsq.collective import classify_invariants, pair_from_moments, squeezing
from symsq.covariance import bar_invariants, c_matrix, c_negativity_test, \
    collective_criterion
from symsq.invariants import (
    makhlin_all,
    special_class_invariants,
    symmetric_six,
    symmetric_six_from_bloch,
)
from symsq.models import atomic_pair, dicke_pair, ku_pair, sweep
from symsq.oracle import (
    CollectiveState,
    build_atomic_state,
    build_dicke_state,
    evolve_ku,
    full_hilbert_vector,
    moments_of,
    pair_state_of,
    reduced_pair_from_full,
)
from symsq.states import (
    SpecialClassState,
    apply_local_unitaries,
    haar_unitary_2x2,
    partial_transpose,
    random_separable_symmetric,
    random_special_class,
    random_symmetric_state,
    symmetric_from_special,
)

TOL = 1e-9


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


def test_criterion_01_bell_invariants(bell_state):
    t0 = time.perf_counter()
    inv = symmetric_six(bell_state)
    elapsed = time.perf_counter() - t0
    ok = (abs(inv.I1 + 1.0) < 1e-12 and abs(inv.I3) < 1e-12
          and abs(inv.I4) < 1e-12 and abs(inv.I5) < 1e-12
          and elapsed < 1e-3)
    _report(1, "Bell-state invariants I1 = -1, I3 = I4 = I5 = 0 within 1e-12, < 1 ms",
            ok, f"I1 = {inv.I1:.15f}, {elapsed * 1e6:.0f} us")


def _signs_conflict(x: float, y: float, tol: float) -> bool:
    """True when x and y carry decided, opposite signs at tolerance tol.
    Values inside [-tol, tol] are sign-undecided (the invariants carry
    an I3 prefactor, so near I3 = 0 they sit in the band while the
    eigenvalue does not)."""
    return (x < -tol and y > tol) or (x > tol and y < -tol)


def test_criterion_02_special_class_ppt_equivalence():
    rng = np.random.default_rng(2024)
    disagreements = 0
    for _ in range(10_000):
        p = random_special_class(rng)
        inv = special_class_invariants(p)
        lam1 = 0.5 * (p.a + p.d) - 0.5 * math.sqrt((p.a - p.d) ** 2 + 4 * p.c ** 2)
        lam3 = p.c - abs(p.b)
        if inv.I3 > TOL:
            if _signs_conflict(lam1, inv.combo_I4_minus_I3sq, TOL):
                disagreements += 1
            if _signs_conflict(lam3, inv.I5, TOL):
                disagreements += 1
    _report(2, "special-class lambda_1 < 0 <=> I4 - I3^2 < 0 and "
               "lambda_3 < 0 <=> I5 < 0 on 10^4 samples",
            disagreements == 0, f"{disagreements} disagreements")


def test_criterion_03_separability_sign_theorem():
    rng = np.random.default_rng(3024)
    worst = 0.0
    for _ in range(10_000):
        state = random_separable_symmetric(int(rng.integers(1, 6)), rng)
        inv = symmetric_six(state)
        min_eig, _ = c_negativity_test(state)
        worst = min(worst, inv.I1, inv.I4, inv.I5,
                    inv.combo_I4_minus_I3sq, min_eig)
    _report(3, "10^4 separable symmetric mixtures keep I1, I4, I5, I4 - I3^2 "
               "and min eig(C) above -1e-9",
            worst >= -TOL, f"most negative value {worst:.3e}")


def test_criterion_04_full_equivalence_theorem():
    rng = np.random.default_rng(4024)
    disagreements = 0
    korbicz_dev = 0.0
    for _ in range(10_000):
        state = random_symmetric_state(int(rng.integers(1, 4)), rng)
        w = np.linalg.eigvalsh(partial_transpose(state))
        min_eig, c_neg = c_negativity_test(state, TOL)
        if (w[0] < -TOL) != c_neg:
            disagreements += 1
        korbicz_dev = max(korbicz_dev,
                          abs(np.linalg.eigvalsh(c_matrix(state))[0] - min_eig))
    ok = disagreements == 0 and korbicz_dev < 1e-10
    _report(4, "PPT verdict equals C < 0 verdict on 10^4 symmetric states; "
               "direction-minimized witness equals min eig(C) within 1e-10",
            ok, f"{disagreements} disagreements, witness dev {korbicz_dev:.2e}")


def test_criterion_05_xi_iff_i5():
    rng = np.random.default_rng(5024)
    checked = 0
    disagreements = 0
    while checked < 1000:
        state = random_symmetric_state(3, rng)
        inv = symmetric_six(state)
        if math.sqrt(inv.I3) <= 0.1:
            continue
        checked += 1
        if abs(inv.I5) <= TOL:
            continue  # boundary band
        xi_sq = squeezing(state.s, state.T, 2).xi_sq
        if (xi_sq < 1.0) != (inv.I5 < 0.0):
            disagreements += 1
    for n in (4, 6, 8):
        for ct in np.linspace(0.05, 1.5, 40):
            s, t, inv = ku_pair(n, float(ct))
            if abs(inv.I5) <= TOL or inv.I3 < 0.01:
                continue
            xi_sq = squeezing(s, t, n).xi_sq
            if (xi_sq < 1.0) != (inv.I5 < 0.0):
                disagreements += 1
    _report(5, "sign(xi^2 - 1) = sign(I5) on 10^3 random states and KU sweeps",
            disagreements == 0, f"{disagreements} disagreements")


def test_criterion_06_oracle_concordance():
    t0 = time.perf_counter()
    dev_closed = 0.0
    dev_atomic = 0.0
    dev_j3 = 0.0
    for n in range(2, 11):
        for m2 in range(-n, n + 1, 2):
            state, _ = dicke_pair(n, m2 / 2)
            s, t = state.bloch()
            so, to = pair_from_moments(moments_of(build_dicke_state(n, m2 / 2)))
            dev_closed = max(dev_closed, float(np.max(np.abs(s - so))),
                             float(np.max(np.abs(t - to))))
        for ct in np.linspace(0.0, np.pi, 50):
            st = evolve_ku(n, float(ct))
            m = moments_of(st)
            dev_j3 = max(dev_j3, abs(m.j_mean[2] + 0.5 * n * np.cos(ct) ** (n - 1)))
            s, t, _ = ku_pair(n, float(ct))
            so, to = pair_from_moments(m)
            dev_closed = max(dev_closed, float(np.max(np.abs(s - so))),
                             float(np.max(np.abs(t - to))))
        if n % 2 == 0:
            for x in np.linspace(0.02, 0.98, 25):
                s, t, _ = atomic_pair(n, float(x))
                so, to = pair_from_moments(
                    moments_of(build_atomic_state(n, 0.5 * math.log(x))))
                dev_atomic = max(dev_atomic, float(np.max(np.abs(s - so))),
                                 float(np.max(np.abs(t - to))))
    elapsed = time.perf_counter() - t0
    ok = dev_closed < 1e-9 and dev_atomic < 1e-8 and dev_j3 < 1e-10 and elapsed < 30
    _report(6, "closed forms match simulator for N in 2..10 (Dicke/KU 1e-9, "
               "atomic 1e-8); KU <J3> within 1e-10; < 30 s",
            ok, f"dev {dev_closed:.1e}/{dev_atomic:.1e}, <J3> dev {dev_j3:.1e}, "
                f"{elapsed:.1f} s")


def test_criterion_07_dicke_numbers():
    # The balanced Dicke pair: I1 = -N^2/(4 (N-1)^3), which is -4/27 at
    # N = 4.  (The figure -16/27 printed alongside the parametrization is
    # inconsistent with it: the same parametrization at N = 2 gives the
    # Bell pair with I1 = -1, and the simulator confirms -4/27; see the
    # decisions ledger.)
    _, inv0 = dicke_pair(4, 0)
    ok = (abs(inv0.I1 + 4.0 / 27.0) < 1e-14
          and abs(inv0.I3) < 1e-14 and abs(inv0.I4) < 1e-14
          and abs(inv0.I5) < 1e-14)
    for n in (2, 4, 6, 9):
        _, inv = dicke_pair(n, n / 2)
        ok = ok and (abs(inv.I2 - 1) < 1e-14 and abs(inv.I3 - 1) < 1e-14
                     and abs(inv.I4 - 1) < 1e-14 and abs(inv.I1) < 1e-14
                     and abs(inv.I5) < 1e-14)
    _report(7, "Dicke numbers: N = 4, M = 0 balanced pair (I1 = -4/27, "
               "I3 = I4 = I5 = 0); M = +/-N/2 separable pattern",
            ok, f"I1(4,0) = {inv0.I1:.15f}")


def test_criterion_08_invariance_suite():
    rng = np.random.default_rng(8024)
    drift = 0.0
    branch_ok = True
    for _ in range(1000):
        state = random_symmetric_state(3, rng)
        u1, u2 = haar_unitary_2x2(rng), haar_unitary_2x2(rng)
        rotated = apply_local_unitaries(state, u1, u2)
        a, b = makhlin_all(state).values, makhlin_all(rotated).values
        drift = max(drift, max(abs(x - y) for x, y in zip(a, b)))
    for _ in range(200):
        state = random_symmetric_state(3, rng)
        u = haar_unitary_2x2(rng)
        rotated = apply_local_unitaries(state, u, u)
        inv_a = symmetric_six(state)
        inv_b = symmetric_six_from_bloch(rotated.s, rotated.T)
        for k in ("I1", "I2", "I3", "I4", "I5", "I6"):
            drift = max(drift, abs(getattr(inv_a, k) - getattr(inv_b, k)))
        ca = classify_invariants(inv_a)
        cb = classify_invariants(inv_b)
        if ca.branch != cb.branch and ca.margin > 1e-7:
            branch_ok = False
    ok = drift < TOL and branch_ok
    _report(8, "18 invariants drift < 1e-9 over 10^3 local-unitary pairs; "
               "identical-unitary suite preserves I1..I6 and the branch",
            ok, f"max drift {drift:.2e}")


def test_criterion_09_bar_identities_and_witness_identity():
    rng = np.random.default_rng(9024)
    dev = 0.0
    for _ in range(1000):
        state = random_symmetric_state(3, rng)
        inv = symmetric_six(state)
        bars = bar_invariants(state)
        dev = max(dev,
                  abs(bars.bar1 - (inv.I1 - inv.I5 / 2)),
                  abs(bars.bar2 - (1 - inv.I3)),
                  abs(bars.bar3 - (inv.I2 + inv.I3 ** 2 - 2 * inv.I4)))
    state = random_symmetric_state(3, rng)
    c = c_matrix(state)
    dev_w = 0.0
    for n in range(2, 51):
        crit = collective_criterion(state.s, state.T, n)
        target = 0.25 * n * (np.eye(3) + (n - 1) * c)
        dev_w = max(dev_w, float(np.max(np.abs(crit.witness_matrix - target))))
    ok = dev < 1e-10 and dev_w < 1e-12
    _report(9, "bar-invariant identities within 1e-10 on 10^3 states; "
               "collective witness identity within 1e-12 for N in 2..50",
            ok, f"identity dev {dev:.1e}, witness dev {dev_w:.1e}")


def test_criterion_10_figure_analogues():
    ok = True
    for n in (4, 6, 8):
        rows = sweep("ku", np.linspace(0.0, np.pi, 80), [n])
        i5 = [r.invariants.I5 for r in rows]
        ok = ok and min(i5) < -1e-4 and abs(i5[0]) < 1e-12 and abs(i5[-1]) < 1e-12
    for n in (4, 6, 8, 20):
        rows = sweep("atomic", np.linspace(0.02, 0.98, 40), [n])
        ok = ok and min(r.invariants.I5 for r in rows) < -1e-4
    _report(10, "KU sweeps dip I5 < 0 and return to 0 at chi t in {0, pi}; "
                "atomic sweeps reach I5 < 0 for N in {4, 6, 8, 20}", ok)


def test_criterion_11_full_hilbert_cross_check():
    rng = np.random.default_rng(11024)
    dev = 0.0
    for n in range(2, 7):
        states = [evolve_ku(n, 0.4), build_dicke_state(n, (n % 2) / 2)]
        if n % 2 == 0:
            states.append(build_atomic_state(n, -0.35))
        amp = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        states.append(CollectiveState(N=n, amplitudes=amp / np.linalg.norm(amp)))
        for st in states:
            rho = reduced_pair_from_full(full_hilbert_vector(st), n)
            dev = max(dev, float(np.max(np.abs(rho - pair_state_of(st).rho))))
    _report(11, "partial trace of symmetrized 2^N states matches the "
                "moment-inversion pair state within 1e-10 for N <= 6",
            dev < 1e-10, f"max deviation {dev:.2e}")
