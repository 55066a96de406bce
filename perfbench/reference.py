"""Fixed reference loops that measure how fast the machine runs right now.

On a shared host the speed of Python bytecode around small NumPy
operations drifts by up to half between stretches of a minute or two.
Dense LAPACK work drifts too, but less.  The benchmark times the loop
that matches a workload's kind of work about once a second, between
items.  It reports throughput scaled to the speed at which that loop
takes REFERENCE_SECONDS[kind].  The loops are the benchmark's own code
and share nothing with symsq, so a change to symsq does not change them.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Each loop's time on the 2-vCPU host where the benchmark was built, in a
# typical stretch; they only set the scale of the scaled figures.
REFERENCE_SECONDS = {"interpreter": 0.007, "lapack": 0.005}

_rng = np.random.default_rng(20240817)
_MATRICES = [g + g.conj().T for g in
             (_rng.normal(size=(4, 4)) + 1j * _rng.normal(size=(4, 4)) for _ in range(8))]
_DENSE = [g + g.T for g in (_rng.normal(size=(120, 120)) for _ in range(3))]


def _rotations(a):
    """Three cyclic Jacobi sweeps on a 4x4 Hermitian matrix."""
    a = a.copy()
    for _ in range(3):
        for p in range(3):
            for q in range(p + 1, 4):
                apq = a[p, q]
                m = abs(apq)
                if m < 1e-300:
                    continue
                phase = apq / m
                tau = (a[q, q].real - a[p, p].real) / (2.0 * m)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * np.conj(phase) * col_q
                a[:, q] = s * col_p + c * np.conj(phase) * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * phase * row_q
                a[q, :] = s * row_p + c * phase * row_q
    return a


def _small_linalg(a):
    """The small-array NumPy calls that symsq makes on 4x4 and 3x3 data."""
    t = np.real(np.einsum("ij,ji->ij", a, a.conj()))[:3, :3]
    np.linalg.det(t)
    np.linalg.svd(t)
    np.kron(a[:2, :2], a[2:, 2:]) @ a
    return np.trace(a @ a.conj().T).real


def _integers():
    total = 0
    for i in range(50_000):
        total += i * i
    return total


def _interpreter():
    for m in _MATRICES:
        _rotations(m)
        _small_linalg(m)
    _integers()


def _lapack():
    for a in _DENSE:
        w, v = np.linalg.eigh(a)
        (v * w) @ v.T


_LOOPS = {"interpreter": _interpreter, "lapack": _lapack}


def reference_seconds(kind: str) -> float:
    """Best of two timings of the reference loop of this kind."""
    loop = _LOOPS[kind]
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        loop()
        best = min(best, perf_counter() - t0)
    return best
