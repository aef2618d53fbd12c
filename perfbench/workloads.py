"""The four workloads: inputs made from the seed, rounds of operations, checks.

A round runs every input of the workload once, in process, one call at a time
(a closed loop with one client), cut into windows that timing.Clock times
and scales by the machine's speed; the workload's CLI calls follow one after
the other.
Every round repeats the same operations, so the share of failed operations
is the same in every run.  Rounds after the first compare their outputs
with the first round's as they go and keep none, so memory does not grow
with the number of rounds.  See README.md for why each workload exists and
which metrics it should move.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gent import bures, cm_core, relent, standard_forms

import checks
from timing import Clock

CLI_TIMEOUT_S = 150

# Margins kept from the physicality edge kappa_- = 1/2 and from the
# separability edge kt = 1/2 (see README.md, "Margins").
KT_MARGIN = 1e-3
KM_MARGIN = 1e-6
KM_MARGIN_MATRIX = 1e-3
KT_MIN = 1e-2  # kt^2 > 1e-4 as in the acceptance criteria: away from the EPR limit


@dataclass
class Round:
    """One pass over the in-process inputs."""

    windows: list = field(default_factory=list)  # timing.Window
    factor: float = 1.0  # speed factor of the round (timing.Clock.factor)
    ops: int = 0  # operations counted in ops_per_s
    failed: int = 0
    mismatches: int = 0  # outputs that differ from the first round's
    outputs: list | None = None  # the first round's outputs, for the checks
    keep: dict = field(default_factory=dict)  # other first-round data the checks need

    @property
    def seconds(self) -> float:
        return sum(w.seconds for w in self.windows)

    def record(self, i: int, out, reference) -> None:
        if reference is None:
            self.outputs.append(out)
        elif out != reference[i]:
            self.mismatches += 1


@dataclass
class CliRound:
    times: list = field(default_factory=list)  # wall seconds per call
    failed: int = 0
    records: list = field(default_factory=list)  # (label, exit code, stdout, stderr)

    def call(self, label, args, want_code) -> None:
        """Run one CLI call; a timeout or an unexpected exit code fails it."""
        code, out, err, dt = run_cli(args)
        if code != want_code:
            self.failed += 1
            print(f"gent {args[0]} exited {code}, expected {want_code}: {err.strip()}",
                  file=sys.stderr)
            return
        self.times.append(dt)
        self.records.append((label, code, out, err))

    def add(self, other: "CliRound") -> None:
        self.times += other.times
        self.failed += other.failed
        self.records += other.records


def run_cli(args) -> tuple[int | None, str, str, float]:
    """One `gent` CLI call in a fresh interpreter; code None on timeout."""
    t0 = perf_counter()
    try:
        p = subprocess.run(
            [sys.executable, "-m", "gent.cli", *args],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", "timeout", perf_counter() - t0
    return p.returncode, p.stdout, p.stderr, perf_counter() - t0


def _write_cm(path: Path, v) -> None:
    with open(path, "w") as fh:
        json.dump({"v": np.asarray(v, dtype=float).tolist()}, fh)


def _standard_cm(b, c, d) -> np.ndarray:
    """CM of the symmetric standard form (b, c, -|d|)."""
    return np.array([[b, 0, c, 0], [0, b, 0, -d], [c, 0, b, 0], [0, -d, 0, b]], dtype=float)


def _sample_symmetric(rng, n, b_lo, b_hi, entangled, km_margin):
    """n symmetric (b, c, |d|) with kt on one side of 1/2, by vectorized rejection."""
    out = np.empty((0, 3))
    while len(out) < n:
        b = rng.uniform(b_lo, b_hi, 4 * n + 64)
        c = rng.uniform(0.0, b)
        d = rng.uniform(0.0, c)
        km = np.sqrt((b + d) * (b - c))
        kt = np.sqrt((b - d) * (b - c))
        ok = (km >= 0.5 + km_margin) & (c < b)
        if entangled:
            ok &= (kt <= 0.5 - KT_MARGIN) & (kt >= KT_MIN)
        else:
            ok &= kt >= 0.5 + KT_MARGIN
        out = np.vstack([out, np.column_stack([b, c, d])[ok]])
    return out[:n]


def _failed(exc: Exception) -> None:
    print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)


def run_ops(rnd: Round, clock: Clock, items, fn, batch: int, tracer, reference, first: int = 0,
            timed: bool = True) -> None:
    """fn(item) for each item, ``batch`` per window; output i goes to rnd.record(first + i)."""
    in_window = 0
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.op = first + k
        t0 = perf_counter()
        try:
            out = fn(item)
        except Exception as exc:  # the benchmark's boundary: count, report, go on
            _failed(exc)
            rnd.failed += 1
            out = None
        else:
            if timed:
                clock.op(perf_counter() - t0)
        rnd.record(first + k, out, reference)
        rnd.ops += 1
        in_window += 1
        if in_window == batch:
            clock.close()
            in_window = 0
    if in_window:
        clock.close()


def new_round(reference) -> Round:
    return Round(outputs=[] if reference is None else None)


class Workload:
    name = ""
    setup_import = "import gent"

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def generate(self, seed: int) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_round(self, clock: Clock, tracer=None, reference=None) -> Round:
        """One pass over the inputs; with ``reference``, outputs are compared, not kept."""
        raise NotImplementedError

    def run_cli(self) -> CliRound:
        raise NotImplementedError

    def check(self, first: Round, cli: CliRound) -> tuple[list[str], dict]:
        """(problems, measured figures) for the first round's outputs."""
        raise NotImplementedError


# sweep ------------------------------------------------------------------------

FAMILY_NBAR = (0.0, 0.1, 0.5, 1.0, 2.0)
FAMILY_POINTS = 1000
# pure states above r ~ 2.28 can be reported unphysical by roundoff (CHANGES.md)
PURE_R_MAX = 2.0
MIXED_R_MAX = 2.5
RANDOM_STATES = 15_000
RANDOM_ENTANGLED_SHARE = 0.7
RANDOM_B_MAX = 5.0
ES_REFERENCE_STATES = 600
SWEEP_BATCH = 1000
CLI_SWEEP_STEPS = 10_000
CLI_SWEEP_NBAR = 1.0
CLI_SWEEP_STOP = 2.5


def _build_state(kind, p1, p2, p3):
    """A sweep state from its parameters: ("family", nbar, r, 0) or ("random", b, c, |d|)."""
    if kind == "family":
        return standard_forms.symmetric_sts(p2, p1)
    return standard_forms.SymmetricState(p1, p2, p3)


class Sweep(Workload):
    name = "sweep"

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        states = []  # parameters for _build_state
        for nbar in FAMILY_NBAR:
            r_max = PURE_R_MAX if nbar == 0.0 else MIXED_R_MAX
            rs = np.empty(0)
            while len(rs) < FAMILY_POINTS:
                r = rng.uniform(0.0, r_max, FAMILY_POINTS)
                kt = (nbar + 0.5) * np.exp(-2 * r)
                rs = np.concatenate([rs, r[np.abs(kt - 0.5) >= KT_MARGIN]])
            states += [("family", nbar, r, 0.0) for r in np.sort(rs[:FAMILY_POINTS]).tolist()]
        n_ent = round(RANDOM_ENTANGLED_SHARE * RANDOM_STATES)
        for entangled, n in ((True, n_ent), (False, RANDOM_STATES - n_ent)):
            rows = _sample_symmetric(rng, n, 0.5, RANDOM_B_MAX, entangled, KM_MARGIN)
            states += [("random", *row) for row in rows.tolist()]
        self.states = [states[i] for i in rng.permutation(len(states))]
        self.reference_idx = rng.choice(len(self.states), ES_REFERENCE_STATES, replace=False)
        self.cli_start = float(rng.uniform(0.0, 0.05))
        self.csv_path = self.workdir / "sweep.csv"

    @staticmethod
    def _measure(s):
        rb, rs = bures.bures_entanglement(s), relent.rel_ent_entanglement(s)
        return s.b, s.c, s.d_abs, rb.e_b, rs.e_s

    def warmup(self):
        for st in self.states[:200]:
            self._measure(_build_state(*st))

    def run_round(self, clock, tracer=None, reference=None):
        build = _build_state if tracer is None else tracer.wrap(
            "standard_forms.state_build", _build_state)
        rnd = new_round(reference)
        clock.begin()
        run_ops(rnd, clock, self.states, lambda st: self._measure(build(*st)), SWEEP_BATCH,
                tracer, reference)
        rnd.windows, rnd.factor = clock.windows, clock.factor()
        return rnd

    def _cli_args(self):
        return ["sweep", "--measure", "both", "--parameter", "r", "--start", repr(self.cli_start),
                "--stop", repr(CLI_SWEEP_STOP), "--steps", str(CLI_SWEEP_STEPS),
                "--nbar", repr(CLI_SWEEP_NBAR), "--output", str(self.csv_path)]

    def run_cli(self):
        cli = CliRound()
        self.csv_path.unlink(missing_ok=True)
        cli.call("sweep", self._cli_args(), 0)
        if cli.records:  # the CSV stands in for the (empty) standard output
            cli.records[0] = ("sweep", 0, self.csv_path.read_text(), "")
        return cli

    def _expected_csv(self):
        rows = []
        for val in np.linspace(self.cli_start, CLI_SWEEP_STOP, CLI_SWEEP_STEPS):
            s = standard_forms.symmetric_sts(float(val), CLI_SWEEP_NBAR)
            rs = relent.rel_ent_entanglement(s)
            row = [float(val), s.b, s.c, -s.d_abs, s.kappa_plus, s.kappa_minus,
                   s.kappa_tilde_minus, bures.bures_entanglement(s).e_b, rs.e_s, rs.x1_star,
                   rs.x2_star]
            rows.append([f"{x:.12g}" for x in row])
        return rows

    def check(self, first, cli):
        problems = []
        worst_es_gap = 0.0
        family = {nbar: ([], [], []) for nbar in FAMILY_NBAR}
        for st, out in zip(self.states, first.outputs):
            if out is None:
                continue
            b, c, d, e_b, e_s = out
            problems.append(checks.check_e_b(b, c, d, e_b))
            problems.append(checks.check_zero_iff_separable(b, c, d, e_b, e_s))
            if st[0] == "family":
                rs, ebs, ess = family[st[1]]
                rs.append(st[2]), ebs.append(e_b), ess.append(e_s)
                if st[1] == 0.0:
                    problems.append(checks.check_pure_bound(st[2], e_s))
        for i in self.reference_idx.tolist():
            if first.outputs[i] is not None:
                b, c, d, _, e_s = first.outputs[i]
                problem, gap = checks.check_e_s(b, c, d, e_s)
                problems.append(problem)
                worst_es_gap = max(worst_es_gap, gap)
        for nbar, (rs, ebs, ess) in family.items():
            problems.append(checks.check_monotone(f"E_B (nbar = {nbar})", rs, ebs))
            problems.append(checks.check_monotone(f"E_S (nbar = {nbar})", rs, ess))
        texts = [text for _, _, text, _ in cli.records]
        if texts:
            problems.append(checks.check_csv(texts[0], self._expected_csv()))
            if any(t != texts[0] for t in texts[1:]):
                problems.append("gent sweep CSV differs between rounds")
        return problems, {"worst_e_s_rel_gap": worst_es_gap}


# verify -----------------------------------------------------------------------

VERIFY_STATES = 24
VERIFY_SET_SEED = 101  # acceptance criterion 1 draws its states with this seed
VERIFY_CLI_CALLS = 6
VERIFY_CLI_STATE = (1.0, 0.8, 0.6)


class Verify(Workload):
    name = "verify"

    def generate(self, seed):
        # The set is fixed, as in criterion 1 (b in [0.5, 3], c in [0, b),
        # |d| in [0, c), 1e-4 < kt^2 < 0.2499): run time per state spreads
        # 5x across states, so a seeded set would move the median.  The
        # seed sets the order.
        rng = np.random.default_rng(VERIFY_SET_SEED)
        states = []
        while len(states) < VERIFY_STATES:
            b = rng.uniform(0.5, 3.0)
            c = rng.uniform(0.0, b)
            d = rng.uniform(0.0, c)
            if (b + d) * (b - c) < 0.25:
                continue
            if not 1e-4 < (b - d) * (b - c) < 0.2499:
                continue
            states.append((b, c, d))
        order = np.random.default_rng(seed).permutation(VERIFY_STATES)
        self.states = [states[i] for i in order]

    def warmup(self):
        bures.bures_entanglement(standard_forms.SymmetricState(*VERIFY_CLI_STATE))

    @staticmethod
    def _op(bcd):
        f_star, arg, u = bures.numeric_max_fidelity(standard_forms.SymmetricState(*bcd))
        return f_star, arg.b, arg.c, arg.d_abs, u

    def run_round(self, clock, tracer=None, reference=None):
        rnd = new_round(reference)
        clock.begin()
        run_ops(rnd, clock, self.states, self._op, 1, tracer, reference)
        rnd.windows, rnd.factor = clock.windows, clock.factor()
        return rnd

    def run_cli(self):
        cli = CliRound()
        b, c, d = VERIFY_CLI_STATE
        for _ in range(VERIFY_CLI_CALLS):
            cli.call("bures-verify",
                     ["bures", "--b", repr(b), "--c", repr(c), "--d", repr(-d), "--verify"], 0)
        return cli

    def check(self, first, cli):
        problems = []
        for (b, c, d), out in zip(self.states, first.outputs):
            if out is not None:
                problems.append(checks.check_verify(b, c, d, *out[:4]))
        lib_e_b = bures.bures_entanglement(standard_forms.SymmetricState(*VERIFY_CLI_STATE)).e_b
        for _, _, out, _ in cli.records:
            problems.append(checks.check_cli_verify(json.loads(out), lib_e_b))
        return problems, {}


# oracle -----------------------------------------------------------------------

ORACLE_RHOS = 3
ORACLE_PROBES_PER_RHO = 6
ORACLE_N = 20
ORACLE_PAIRS = 400
ORACLE_PAIR_N = 60
ORACLE_PAIR_BATCH = 50
ORACLE_CLI_CALLS = 2


def _sample_separable_scaled(rng):
    """A separable scaled standard-form CM drawn as in criterion 2, with kt margins."""
    while True:
        b1, b2 = rng.uniform(0.55, 1.5, 2)
        c, d = rng.uniform(-0.6, 0.6, 2)
        u1, u2 = rng.uniform(0.7, 1.4, 2)
        # the invariants are those of the unscaled form
        det_v = (b1 * b2 - c * c) * (b1 * b2 - d * d)
        delta, delta_t = b1 * b1 + b2 * b2 + 2 * c * d, b1 * b1 + b2 * b2 - 2 * c * d
        disc, disc_t = delta * delta - 4 * det_v, delta_t * delta_t - 4 * det_v
        if det_v <= 0 or min(disc, disc_t) < 0 or b1 * b2 <= max(c * c, d * d):
            continue
        km = math.sqrt(max((delta - math.sqrt(disc)) / 2, 0.0))
        kt = math.sqrt(max((delta_t - math.sqrt(disc_t)) / 2, 0.0))
        if km < 0.5 + KM_MARGIN_MATRIX or kt < 0.5 + KT_MARGIN:
            continue
        su = math.sqrt(u1 * u2)
        return np.array([
            [b1 * u1, 0.0, c * su, 0.0],
            [0.0, b1 / u1, 0.0, d / su],
            [c * su, 0.0, b2 * u2, 0.0],
            [0.0, d / su, 0.0, b2 / u2],
        ])


class Oracle(Workload):
    name = "oracle"
    setup_import = "import gent, gent.fock"

    def generate(self, seed):
        from gent.cm_core import OneModeCM

        rng = np.random.default_rng(seed)
        rows = _sample_symmetric(rng, ORACLE_RHOS, 0.55, 1.2, True, KM_MARGIN_MATRIX)
        self.rhos = [(tuple(row), _standard_cm(*row)) for row in rows.tolist()]
        self.probes = [[_sample_separable_scaled(rng) for _ in range(ORACLE_PROBES_PER_RHO)]
                       for _ in range(ORACLE_RHOS)]
        self.pairs = []
        for _ in range(ORACLE_PAIRS):  # drawn as in criterion 3
            nu, nup = rng.uniform(0.5, 1.1), rng.uniform(0.56, 1.1)
            z, zp = rng.uniform(-0.35, 0.35), rng.uniform(-0.35, 0.35)
            self.pairs.append((OneModeCM(nu * math.exp(2 * z), nu * math.exp(-2 * z)),
                               OneModeCM(nup * math.exp(2 * zp), nup * math.exp(-2 * zp))))
        self.cli_files = (self.workdir / "rho.json", self.workdir / "sigma.json")
        _write_cm(self.cli_files[0], self.rhos[0][1])
        _write_cm(self.cli_files[1], self.probes[0][0])

    def warmup(self):
        from gent import fock

        v, vp = self.pairs[0]
        fock.rel_entropy_fock(fock.gaussian_state_from_cm(vp, ORACLE_PAIR_N),
                              fock.gaussian_state_from_cm(v, ORACLE_PAIR_N))
        rho = fock.gaussian_state_from_cm(self.rhos[0][1], ORACLE_N)
        fock.fidelity_fock(rho, rho)

    def run_round(self, clock, tracer=None, reference=None):
        from gent import fock

        rnd = new_round(reference)
        clock.begin()
        for k, ((_, rho_cm), probes) in enumerate(zip(self.rhos, self.probes)):
            first = k * ORACLE_PROBES_PER_RHO
            if tracer is not None:
                tracer.op = first
            try:
                rho = fock.gaussian_state_from_cm(rho_cm, ORACLE_N)
            except Exception as exc:  # its probes cannot run: each one fails
                _failed(exc)
                rho = None
            if reference is None:
                rnd.keep.setdefault("rhos", []).append(rho)

            def probe(sigma_cm, rho=rho):
                if rho is None:
                    raise RuntimeError("rho could not be built")
                sigma = fock.gaussian_state_from_cm(sigma_cm, ORACLE_N)
                return fock.fidelity_fock(rho, sigma), sigma.trace_deficit

            run_ops(rnd, clock, probes, probe, 1, tracer, reference, first)

        def pair(v_vp):
            v, vp = v_vp
            return fock.rel_entropy_fock(fock.gaussian_state_from_cm(vp, ORACLE_PAIR_N),
                                         fock.gaussian_state_from_cm(v, ORACLE_PAIR_N))

        run_ops(rnd, clock, self.pairs, pair, ORACLE_PAIR_BATCH, tracer, reference,
                ORACLE_RHOS * ORACLE_PROBES_PER_RHO, timed=False)
        rnd.windows, rnd.factor = clock.windows, clock.factor()
        return rnd

    def run_cli(self):
        cli = CliRound()
        rho_file, sigma_file = self.cli_files
        for _ in range(ORACLE_CLI_CALLS):
            cli.call("oracle-fidelity", ["oracle", "fidelity", "--cm1", str(rho_file), "--cm2",
                                         str(sigma_file), "--dim", str(ORACLE_N)], 0)
        return cli

    def check(self, first, cli):
        from gent import fock, relent as rel_mod

        problems = []
        worst_pair_gap = 0.0
        k = 0
        for (bcd, rho_cm), probes, rho in zip(self.rhos, self.probes, first.keep["rhos"]):
            kt = float(checks.kappas_mp(*bcd)[3])
            if rho is not None:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # the deficit is checked below
                    moments = fock.moments_from_fock(rho)
                upper = checks.upper_population(np.real(np.diag(rho.matrix)), ORACLE_N, 2)
                problems.append(checks.check_moments(moments, rho_cm, ORACLE_N, upper))
                problems.append(checks.check_deficit(rho.trace_deficit))
            for _ in probes:
                out = first.outputs[k]
                k += 1
                if out is None:
                    continue
                problems.append(checks.check_probe(out[0], checks.f_max_closed(kt)))
                problems.append(checks.check_deficit(out[1]))
        for (v, vp), value in zip(self.pairs, first.outputs[k:]):
            if value is None:
                continue
            closed = rel_mod.rel_entropy_one_mode(vp, v)
            truncation = 0.0
            if abs(value - closed) > checks.PAIR_TOL:  # rare: rebuild to size the truncation
                rho_p = fock.gaussian_state_from_cm(vp, ORACLE_PAIR_N)
                rho = fock.gaussian_state_from_cm(v, ORACLE_PAIR_N)
                truncation = checks.pair_truncation(np.real(np.diag(rho.matrix)),
                                                    np.real(np.diag(rho_p.log_matrix)),
                                                    ORACLE_PAIR_N)
            problems.append(checks.check_pair(value, closed, truncation))
            worst_pair_gap = max(worst_pair_gap, abs(value - closed))
        if first.outputs[0] is not None:  # the CLI runs probe 0 of rho 0
            for _, _, out, _ in cli.records:
                problems.append(checks.check_cli_value(
                    json.loads(out), "oracle fidelity", "value", first.outputs[0][0],
                    checks.CLI_ORACLE_REL_TOL))
        return problems, {"worst_pair_gap": worst_pair_gap}


# ingest -----------------------------------------------------------------------

INGEST_CMS = 3000
INGEST_ENTANGLED_SHARE = 0.5
INGEST_B_MAX = 3.0
INGEST_BATCH = 300
LOCAL_SQUEEZE_MAX = 0.8


def _rotation(a: float) -> np.ndarray:
    return np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])


def _local_symplectic(rng) -> np.ndarray:
    """S1 (+) S2, each a rotation, a squeeze up to e^0.8 and a rotation."""
    out = np.zeros((4, 4))
    for k in (0, 2):
        phi, psi = rng.uniform(-math.pi, math.pi, 2)
        r = rng.uniform(-LOCAL_SQUEEZE_MAX, LOCAL_SQUEEZE_MAX)
        squeeze = np.diag([math.exp(r), math.exp(-r)])
        out[k:k + 2, k:k + 2] = _rotation(phi) @ squeeze @ _rotation(psi)
    return out


class Ingest(Workload):
    name = "ingest"

    def generate(self, seed):
        rng = np.random.default_rng(seed)
        n_ent = round(INGEST_ENTANGLED_SHARE * INGEST_CMS)
        rows = np.vstack([
            _sample_symmetric(rng, n_ent, 0.5, INGEST_B_MAX, True, KM_MARGIN_MATRIX),
            _sample_symmetric(rng, INGEST_CMS - n_ent, 0.5, INGEST_B_MAX, False,
                              KM_MARGIN_MATRIX),
        ])
        rows = rows[rng.permutation(len(rows))]
        self.params = [tuple(row) for row in rows.tolist()]
        self.cms = []
        for row in self.params:
            s = _local_symplectic(rng)
            v = s @ _standard_cm(*row) @ s.T
            self.cms.append(0.5 * (v + v.T))
        entangled = [(b - d) * (b - c) < 0.25 for b, c, d in self.params]
        self.cli_cases = {"ent": entangled.index(True), "sep": entangled.index(False)}
        self.cli_files = {}
        for label, i in self.cli_cases.items():
            path = self.workdir / f"cm_{label}.json"
            _write_cm(path, self.cms[i])
            self.cli_files[label] = path

    @staticmethod
    def _op(v):
        phys, sep = cm_core.is_physical(v), cm_core.is_separable(v)
        spec, form = cm_core.symplectic_spectrum(v), standard_forms.to_standard_form_I(v)
        return (phys.ok, sep.ok,
                (spec.kappa_plus, spec.kappa_minus, spec.kappa_tilde_plus, spec.kappa_tilde_minus),
                (form.b1, form.b2, form.c, form.d))

    def warmup(self):
        for v in self.cms[:50]:
            self._op(v)

    def run_round(self, clock, tracer=None, reference=None):
        rnd = new_round(reference)
        clock.begin()
        run_ops(rnd, clock, self.cms, self._op, INGEST_BATCH, tracer, reference)
        rnd.windows, rnd.factor = clock.windows, clock.factor()
        return rnd

    # (label, subcommand, file, expected exit code); relent only on the
    # entangled CM, where the CLI's separable branch is not involved
    CLI_CALLS = (
        ("check-sep", "check", "sep", 0),
        ("check-ent", "check", "ent", 3),
        ("bures-ent", "bures", "ent", 0),
        ("relent-ent", "relent", "ent", 0),
    )

    def run_cli(self):
        cli = CliRound()
        for label, sub, which, want in self.CLI_CALLS:
            cli.call(label, [sub, "--cm", str(self.cli_files[which])], want)
        return cli

    def check(self, first, cli):
        problems = []
        for (b, c, d), out in zip(self.params, first.outputs):
            if out is None:
                continue
            phys, sep, spec, form = out
            problems.append(checks.check_verdicts(phys, sep, b, c, d))
            problems.append(checks.check_spectrum(spec, b, c, d))
            problems.append(checks.check_form(form, b, c, d))
        ent_state = standard_forms.SymmetricState(*self.params[self.cli_cases["ent"]])
        lib = {"bures-ent": ("bures", "e_b", bures.bures_entanglement(ent_state).e_b),
               "relent-ent": ("relent", "e_s", relent.rel_ent_entanglement(ent_state).e_s)}
        for label, code, out, _ in cli.records:
            if label.startswith("check"):
                problems.append(checks.check_cli_check(code, out, label == "check-ent"))
            else:
                problems.append(checks.check_cli_value(json.loads(out), *lib[label]))
        return problems, {}


WORKLOADS = {w.name: w for w in (Sweep, Verify, Oracle, Ingest)}
