"""The four benchmark workloads: seeded inputs, one item's calls, checks.

Each workload draws an endless stream of inputs from the seed with NumPy
alone (symsq receives only raw arrays, unitaries and N/parameter grids),
runs one item through the public symsq API, and checks the item's outputs
against a route that shares no code with the call it checks.

Streams go in fixed blocks whose kinds come in the documented shares, and
their draws are continuous or, where the parameter is discrete, taken
without replacement.  So no input repeats within a run, except the few
Dicke grids of ModelSweep's smaller N buckets, and a cache keyed on the
exact input gains nothing that `verify` would not also gain.
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from symsq import cli, models, oracle
from symsq.collective import classify_invariants, pair_from_moments, squeezing
from symsq.covariance import bar_invariants, c_negativity_test, collective_criterion
from symsq.invariants import (
    canonical_form,
    locally_equivalent,
    makhlin_all,
    symmetric_six,
    symmetric_six_from_bloch,
)
from symsq.models import sweep as reference_sweep  # stays unwrapped while cli's is traced
from symsq.numerics import hermitian_eigenvalues
from symsq.states import (
    SymmetricTwoQubitState,
    TwoQubitState,
    apply_local_unitaries,
    concurrence,
    partial_transpose,
)

SIGN_TOL = 1e-9          # the CLI's default sign tolerance
BAND = 10 * SIGN_TOL     # verdicts closer than this to 0 are not compared
COLLECTIVE_N = (2, 10, 100)

# Independent Pauli tables, built here rather than taken from symsq.
_PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULI_PAIRS = np.einsum("iab,jcd->ijacbd", _PAULI, _PAULI).reshape(3, 3, 4, 4)
_SYSY = np.kron(_PAULI[1], _PAULI[1])
_TRIPLET = np.array([[1, 0, 0, 0],
                     [0, 2 ** -0.5, 2 ** -0.5, 0],
                     [0, 0, 0, 1]], dtype=complex)


# ----------------------------------------------------------------------
# Shared generators and independent routes.

def block_order(weights):
    """One block of kind indices, kind k appearing weights[k] times, spread
    evenly (smooth weighted round robin), so every prefix of a block is
    close to the shares."""
    total = sum(weights)
    current = [0] * len(weights)
    order = []
    for _ in range(total):
        current = [c + w for c, w in zip(current, weights)]
        k = max(range(len(weights)), key=current.__getitem__)
        current[k] -= total
        order.append(k)
    return order


def _dirichlet(rng, n):
    e = rng.exponential(size=n)
    return e / e.sum()


def _ket(rng, dim):
    z = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return z / np.linalg.norm(z)


def haar_unitary(rng):
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def lapack_partial_transpose(rho):
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def correlation_matrix(rho):
    """t_ij = Tr(rho sigma_i (x) sigma_j) from the raw matrix."""
    return np.real(np.einsum("ijab,ba->ij", _PAULI_PAIRS, rho))


def lapack_concurrence(rho):
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    m = root @ (_SYSY @ rho.conj() @ _SYSY) @ root
    lam = np.sqrt(np.clip(np.linalg.eigvalsh((m + m.conj().T) / 2), 0.0, None))[::-1]
    return max(0.0, lam[0] - lam[1] - lam[2] - lam[3])


@dataclass
class Outcome:
    """What one item produced: the output to check and how many items it counts as."""

    output: object
    items: int = 1


# ----------------------------------------------------------------------

class Workload:
    """One benchmark workload.

    ``stream(seed)`` yields the inputs without end; ``key(item)`` is a
    hashable form of one, by which a run counts repeated inputs.
    ``run(api, item)`` makes the item's calls through ``api`` (span name
    -> callable, wrapped or not) and returns an Outcome.  ``check(item,
    output)`` returns ``(problems, decided, squeezing_defined)``; the two
    flags are None where the workload has no PPT/C verdict.
    """

    name: str
    sample: str          # what one latency sample is
    functions: dict      # span name -> the public symsq callable the item uses
    patched: dict = {}   # span name -> (module, attribute) wrapped in the traced pass
    reference = "interpreter"  # the reference loop whose speed scales this workload

    def __init__(self, workdir: Path | None = None):
        self.workdir = workdir  # where a workload may write its output files


class PairVerdicts(Workload):
    """Symmetric pair states through the `analyze` pipeline.

    The kinds come in the shares in which acceptance criteria 02-11 and
    `verify --level full` (default seed) build symmetric states: criterion
    04 draws 3264 rank-1, 3370 rank-2 and 3366 rank-3 triplet mixtures,
    criterion 03 10^4 separable mixtures (1 to 5 terms), criteria 05, 08
    and 09 3216 more rank-3 states; verify's three suites draw 24998
    rank-3 states and 5002 special-class states.  Criterion 02 samples
    special-class parameters but builds no state.
    """

    name = "pair_verdicts"
    sample = "state"
    # kind -> states built by the call sites above; BLOCK is the same shares in 32.
    COUNTS = {"rank1": 3264, "rank2": 3370, "rank3": 31580, "separable": 10000,
              "special": 5002}
    BLOCK = {"rank1": 2, "rank2": 2, "rank3": 19, "separable": 6, "special": 3}
    functions = {
        "states.construct": SymmetricTwoQubitState,
        "invariants.makhlin_all": makhlin_all,
        "invariants.symmetric_six": symmetric_six,
        "states.partial_transpose": partial_transpose,
        "numerics.hermitian_eigenvalues": hermitian_eigenvalues,
        "covariance.c_negativity_test": c_negativity_test,
        "covariance.bar_invariants": bar_invariants,
        "collective.classify_invariants": classify_invariants,
        "collective.squeezing": squeezing,
        "covariance.collective_criterion": collective_criterion,
    }

    @staticmethod
    def _triplet(rng, rank):
        rho = np.zeros((4, 4), dtype=complex)
        for p in _dirichlet(rng, rank):
            psi = _ket(rng, 3) @ _TRIPLET
            rho += p * np.outer(psi, psi.conj())
        return rho

    @staticmethod
    def _separable(rng):
        k = int(rng.integers(1, 6))
        rho = np.zeros((4, 4), dtype=complex)
        for p in _dirichlet(rng, k):
            v = _ket(rng, 2)
            one = np.outer(v, v.conj())
            rho += p * np.kron(one, one)
        return rho

    @staticmethod
    def _special(rng):
        a, two_c, d = _dirichlet(rng, 3)
        bmax = math.sqrt(a * d)
        b = rng.uniform(-bmax, bmax)
        c = two_c / 2
        return np.array([[a, 0, 0, b], [0, c, c, 0], [0, c, c, 0], [b, 0, 0, d]], dtype=complex)

    def stream(self, seed):
        rng = np.random.default_rng([seed, 1])
        makers = {"rank1": lambda: self._triplet(rng, 1), "rank2": lambda: self._triplet(rng, 2),
                  "rank3": lambda: self._triplet(rng, 3), "separable": lambda: self._separable(rng),
                  "special": lambda: self._special(rng)}
        kinds = list(self.BLOCK)
        order = [kinds[k] for k in block_order(list(self.BLOCK.values()))]
        while True:
            for kind in order:
                yield makers[kind]()

    @staticmethod
    def key(rho):
        return rho.tobytes()

    def run(self, api, rho):
        st = api["states.construct"](rho)
        api["invariants.makhlin_all"](st)
        inv = api["invariants.symmetric_six"](st)
        ppt_min = float(api["numerics.hermitian_eigenvalues"](
            api["states.partial_transpose"](st))[0])
        c_min, c_neg = api["covariance.c_negativity_test"](st, SIGN_TOL)
        api["covariance.bar_invariants"](st, SIGN_TOL)
        api["collective.classify_invariants"](inv, SIGN_TOL)
        xi_sq = None
        if inv.I3 > SIGN_TOL:
            xi_sq = api["collective.squeezing"](st.s, st.T, 2).xi_sq
        witness = [api["covariance.collective_criterion"](st.s, st.T, n, SIGN_TOL).min_eig
                   for n in COLLECTIVE_N]
        return Outcome((ppt_min, c_min, c_neg, inv.I5, xi_sq, witness))

    @staticmethod
    def check(rho, output):
        ppt_min, c_min, c_neg, i5, xi_sq, witness = output
        problems = []
        lapack_ppt = float(np.linalg.eigvalsh(lapack_partial_transpose(rho))[0])
        if abs(lapack_ppt - ppt_min) > 1e-9:
            problems.append(f"PPT min eigenvalue {ppt_min!r} vs LAPACK {lapack_ppt!r}")
        decided = abs(lapack_ppt) > BAND
        if decided and (lapack_ppt < -SIGN_TOL) != c_neg:
            problems.append(f"PPT verdict (LAPACK {lapack_ppt:.3e}) differs from C < 0 "
                            f"(min eig {c_min:.3e})")
        if xi_sq is not None and abs(i5) > BAND and abs(xi_sq - 1.0) > BAND \
                and (xi_sq < 1.0) != (i5 < 0.0):
            problems.append(f"sign(xi^2 - 1) = sign({xi_sq - 1.0:.3e}) differs from "
                            f"sign(I5) = sign({i5:.3e})")
        # Witness identity: min eig of V + S S^T / N is (N/4)(1 + (N - 1) min eig C).
        t = correlation_matrix(rho)
        s = np.real(np.einsum("iab,ba->i", _PAULI, rho.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)))
        lapack_c_min = float(np.linalg.eigvalsh(t - np.outer(s, s))[0])
        for n, got in zip(COLLECTIVE_N, witness):
            want = 0.25 * n * (1.0 + (n - 1) * lapack_c_min)
            if abs(got - want) > 1e-9 * n * n:
                problems.append(f"collective witness at N={n}: {got!r} vs {want!r}")
        return problems, decided, xi_sq is not None


class LuEquivalence(Workload):
    """Generic (Ginibre) two-qubit states paired with two Haar 2x2 unitaries."""

    name = "lu_equivalence"
    sample = "triple"
    functions = {
        "states.construct": TwoQubitState,
        "states.apply_local_unitaries": apply_local_unitaries,
        "invariants.makhlin_all": makhlin_all,
        "invariants.canonical_form": canonical_form,
        "invariants.locally_equivalent": locally_equivalent,
        "states.concurrence": concurrence,
    }

    def stream(self, seed):
        rng = np.random.default_rng([seed, 2])
        while True:
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            yield rho, haar_unitary(rng), haar_unitary(rng)

    @staticmethod
    def key(triple):
        return b"".join(a.tobytes() for a in triple)

    def run(self, api, triple):
        rho, u1, u2 = triple
        st = api["states.construct"](rho)
        rotated = api["states.apply_local_unitaries"](st, u1, u2)
        before = api["invariants.makhlin_all"](st).values
        after = api["invariants.makhlin_all"](rotated).values
        canon = api["invariants.canonical_form"](rotated)
        same = api["invariants.locally_equivalent"](st, rotated)
        conc = api["states.concurrence"](st)
        return Outcome((before, after, canon.t_diag, same, conc))

    @staticmethod
    def check(triple, output):
        rho = triple[0]
        before, after, t_diag, same, conc = output
        problems = []
        drift = max(abs(a - b) for a, b in zip(before, after))
        if not drift <= 1e-9:
            problems.append(f"invariant drift {drift:.3e} under local unitaries")
        if not same:
            problems.append("locally_equivalent is false for a locally rotated state")
        t = correlation_matrix(rho)
        sv = np.linalg.svd(t, compute_uv=False)[::-1]
        if np.max(np.abs(np.abs(t_diag) - sv)) > 1e-9:
            problems.append(f"canonical T {t_diag!r} vs singular values {sv!r}")
        det = np.linalg.det(t)
        if abs(det) > 1e-12 and np.any(np.sign(t_diag) != np.sign(det)):
            problems.append(f"canonical T signs {t_diag!r} disagree with det T = {det:.3e}")
        want = lapack_concurrence(rho)
        if abs(conc - want) > 1e-8:
            problems.append(f"concurrence {conc!r} vs LAPACK {want!r}")
        return problems, None, None


class ModelSweep(Workload):
    """`symsq sweep` calls over the three models, CSV and JSON alternating.

    Strata: model x N bucket (2-30, 30-200, 200-1000) x output format,
    BLOCK_PER_STRATUM calls of each in every block.  Besides the round trip,
    one seeded row of each call with N <= ORACLE_MAX_N is recomputed from
    the dense simulator, a route that does not use `models.sweep`.
    """

    name = "model_sweep"
    sample = "cli.main call"
    BLOCK_PER_STRATUM = 5
    ORACLE_MAX_N = 200
    functions = {"cli.main": cli.main}
    # cli.main reaches models.sweep through the module attribute.
    patched = {"models.sweep": (models, "sweep")}
    buckets = ((2, 30), (30, 200), (200, 1000))

    @staticmethod
    def _spread_draws(rng, count):
        """One uniform draw in each of ``count`` equal slices of [0, 1), shuffled,
        so every seed gets the same spread of N and step counts."""
        return rng.permutation((np.arange(count) + rng.uniform(size=count)) / count)

    @staticmethod
    def _shuffled_cycle(rng, values):
        while True:  # a second pass repeats grids; run.py counts repeats
            yield from rng.permutation(values).tolist()

    def _stratum(self, rng, dicke_ns, model, bucket, fmt, count):
        lo_n, hi_n = bucket
        calls = []
        for u_n, u_steps in zip(self._spread_draws(rng, count), self._spread_draws(rng, count)):
            n = int(round(lo_n * (hi_n / lo_n) ** u_n))
            if model == "atomic":
                n += n % 2
            elif model == "dicke":
                n = next(dicke_ns[bucket])
            argv = ["sweep", "--model", model, "--N", str(n), "--format", fmt]
            if model == "dicke":
                params = [m / 2.0 for m in range(-n, n + 1, 2)]
            else:
                if model == "ku":
                    lo, hi = rng.uniform(0.0, 0.5), rng.uniform(2.5, math.pi)
                else:
                    lo, hi = rng.uniform(0.01, 0.2), rng.uniform(0.8, 0.99)
                steps = 20 + int(61 * u_steps)
                argv += ["--param-range", f"{lo!r}:{hi!r}:{steps}"]
                params = [float(p) for p in np.linspace(lo, hi, steps)]
            check_at = int(rng.integers(len(params))) if n <= self.ORACLE_MAX_N else None
            calls.append((model, n, fmt, argv, params, check_at))
        return calls

    def stream(self, seed):
        rng = np.random.default_rng([seed, 3])
        strata = [(m, b, f) for m in models.MODEL_NAMES for b in self.buckets
                  for f in ("csv", "json")]
        # A Dicke call's grid is every M of its N, so N alone sets the input:
        # draw each bucket's N without replacement.
        dicke_ns = {(lo, hi): self._shuffled_cycle(rng, np.arange(lo, hi + 1))
                    for lo, hi in self.buckets}
        while True:
            block = [self._stratum(rng, dicke_ns, *s, self.BLOCK_PER_STRATUM) for s in strata]
            for group in zip(*block):
                yield from group

    @staticmethod
    def key(call):
        model, n, _, argv, _, _ = call
        # CSV and JSON of one grid compute the same rows.
        return (model, n) if model == "dicke" else tuple(a for a in argv if a not in ("csv", "json"))

    def run(self, api, call):
        model, n, fmt, argv, params, _ = call
        path = self.workdir / f"sweep.{fmt}"
        code = api["cli.main"](argv + ["--out", str(path)])
        return Outcome((code, path), items=len(params))

    @staticmethod
    def parse(path, fmt):
        """Records from a sweep file, with NaN for an undefined xi^2."""
        text = Path(path).read_text(encoding="utf-8")
        if fmt == "json":
            recs = json.loads(text)
        else:
            rows = list(csv.reader(text.splitlines()))
            if tuple(rows[0]) != models.SWEEP_FIELDS:
                raise ValueError(f"CSV header {rows[0]!r}")
            recs = [dict(zip(rows[0], row)) for row in rows[1:]]
        for rec in recs:
            for k in models.SWEEP_FIELDS:
                if k == "N":
                    rec[k] = int(rec[k])
                elif k not in ("model", "branch"):
                    rec[k] = float("nan") if rec[k] is None else float(rec[k])
        return recs

    @staticmethod
    def same(a, b) -> bool:
        return a == b or (a != a and b != b)  # an undefined xi^2 is NaN on both sides

    @staticmethod
    def oracle_row(model, n, p) -> dict:
        """A sweep row's values from simulator moments, not the closed forms."""
        if model == "ku":
            state = oracle.evolve_ku(n, p)
        elif model == "atomic":
            state = oracle.build_atomic_state(n, 0.5 * math.log(p))
        else:
            state = oracle.build_dicke_state(n, p)
        s, t = pair_from_moments(oracle.moments_of(state))
        # The sweep itself never reaches the simulator; drop its operator
        # cache so the check leaves no memory behind in peak_rss_mb.
        oracle.build_j_operators.cache_clear()
        inv = symmetric_six_from_bloch(s, t)
        return {"I1": inv.I1, "I2": inv.I2, "I3": inv.I3, "I4": inv.I4, "I5": inv.I5,
                "I4mI3sq": inv.combo_I4_minus_I3sq,
                "xi_sq": squeezing(s, t, max(n, 2)).xi_sq if inv.I3 > 1e-6 else None,
                "classified": classify_invariants(inv, SIGN_TOL)}

    def check_against_oracle(self, model, n, p, row) -> list:
        want = self.oracle_row(model, n, p)
        where = f"{model} N={n} param={p!r}"
        bad = [k for k in ("I1", "I2", "I3", "I4", "I5", "I4mI3sq")
               if not abs(row[k] - want[k]) <= 1e-9]
        if bad:
            return [f"{where}: {bad} differ from the simulator's"]
        if want["xi_sq"] is not None and not abs(row["xi_sq"] - want["xi_sq"]) <= \
                1e-8 * abs(want["xi_sq"]):
            return [f"{where}: xi^2 {row['xi_sq']!r} vs simulator {want['xi_sq']!r}"]
        cls = want["classified"]
        if abs(cls.margin) > 1e-7 and row["branch"] != cls.branch.value:
            return [f"{where}: branch {row['branch']} vs simulator {cls.branch.value}"]
        return []

    def check(self, call, output):
        model, n, fmt, _, params, check_at = call
        code, path = output
        if code != 0:
            return [f"sweep exited {code}"], None, None
        try:
            got = self.parse(path, fmt)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"cannot parse {fmt} output: {exc}"], None, None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = [r.as_record() for r in reference_sweep(model, params, [n], SIGN_TOL)]
        if len(got) != len(want):
            return [f"{len(got)} rows written, {len(want)} expected"], None, None
        problems = []
        for i, (g, w) in enumerate(zip(got, want)):
            bad = [k for k in models.SWEEP_FIELDS if not self.same(g[k], w[k])]
            if bad:
                problems.append(f"row {i} of {model} N={n} ({fmt}) differs in {bad}")
                break
        if check_at is not None:
            problems += self.check_against_oracle(model, n, params[check_at], got[check_at])
        return problems, None, None


class OracleConcordance(Workload):
    """Closed forms against the dense simulator, N up to 150.

    The models come in the shares of the call sites that compare them with
    the simulator, `verify --level full` and acceptance criterion 06: 549
    KU, 140 atomic and 126 Dicke points, so 4 : 1 : 1.  KU and atomic
    points cycle through four N values, because the simulator's cost grows
    as N^3, and the seed draws their parameter; they never repeat.  Dicke
    points have a discrete parameter, so they are drawn without
    replacement from all (N, M) with 2 <= N <= DICKE_MAX_N.
    """

    name = "oracle_concordance"
    sample = "point"
    BLOCK = {"ku": 4, "atomic": 1, "dicke": 1}
    DICKE_MAX_N = 150
    functions = {
        "models.ku_pair": models.ku_pair,
        "models.atomic_pair": models.atomic_pair,
        "models.dicke_pair": models.dicke_pair,
        "oracle.evolve_ku": oracle.evolve_ku,
        "oracle.build_atomic_state": oracle.build_atomic_state,
        "oracle.build_dicke_state": oracle.build_dicke_state,
        "oracle.moments_of": oracle.moments_of,
        "collective.pair_from_moments": pair_from_moments,
    }
    n_values = (10, 40, 90, 150)  # even, as the atomic model requires
    reference = "lapack"  # most of the time is dense eigh in the simulator
    limits = {"ku": 1e-9, "dicke": 1e-9, "atomic": 1e-8}

    def _dicke_points(self, rng):
        every = [(n, m2 / 2.0) for n in range(2, self.DICKE_MAX_N + 1)
                 for m2 in range(-n, n + 1, 2)]
        while True:  # a second pass repeats points; run.py counts repeats
            for i in rng.permutation(len(every)):
                yield every[i]

    def stream(self, seed):
        rng = np.random.default_rng([seed, 4])
        dicke = self._dicke_points(np.random.default_rng([seed, 5]))
        models_ = list(self.BLOCK)
        order = [models_[k] for k in block_order(list(self.BLOCK.values()))]
        turn = {"ku": 0, "atomic": 0}
        while True:
            for model in order:
                if model == "dicke":
                    n, m = next(dicke)
                    yield "dicke", n, m
                    continue
                n = self.n_values[turn[model] % len(self.n_values)]
                turn[model] += 1
                if model == "ku":
                    yield "ku", n, float(rng.uniform(0.0, math.pi))
                else:
                    yield "atomic", n, float(rng.uniform(0.02, 0.98))

    @staticmethod
    def key(point):
        return point

    def run(self, api, point):
        model, n, p = point
        if model == "ku":
            s, t, _ = api["models.ku_pair"](n, p)
            state = api["oracle.evolve_ku"](n, p)
        elif model == "atomic":
            s, t, _ = api["models.atomic_pair"](n, p)
            state = api["oracle.build_atomic_state"](n, 0.5 * math.log(p))
        else:
            special, _ = api["models.dicke_pair"](n, p)
            s, t = special.bloch()
            state = api["oracle.build_dicke_state"](n, p)
        so, to = api["collective.pair_from_moments"](api["oracle.moments_of"](state))
        return Outcome(max(float(np.max(np.abs(s - so))), float(np.max(np.abs(t - to)))))

    def check(self, point, dev):
        model, n, p = point
        if not dev <= self.limits[model]:
            return [f"{model} N={n} param={p!r}: closed form deviates {dev:.3e}"], None, None
        return [], None, None


WORKLOADS = {w.name: w for w in (PairVerdicts, LuEquivalence, ModelSweep, OracleConcordance)}


def make(name: str, workdir: Path | None = None) -> Workload:
    return WORKLOADS[name](workdir)


def j_ops_hit_ratio() -> float:
    info = oracle.build_j_operators.cache_info()
    calls = info.hits + info.misses
    return info.hits / calls if calls else 0.0
