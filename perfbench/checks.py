"""Correctness checks of gent's outputs, made apart from the program.

Each check takes the program's output for one input and returns ``None`` when
the output is right, or a one-line description of what is wrong.  References
come from mpmath, from scipy.optimize, from closed forms written out here
from the paper, or from a property the method must have; none of them calls
gent and none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.optimize import brentq

mpmath.mp.dps = 40

# E_B from the float closed form against mpmath.  kt has a relative rounding
# error of a few ulp; E_B amplifies it by at most 1/(1 - sqrt(2 kt)) <= 1e3
# inside the kt margin the workloads keep, so 1e-12 relative is ample.
EB_REL_TOL = 1e-12
# E_S against the scipy reference, relative to the magnitudes of the terms
# E_S is assembled from (see e_s_reference): their cancellation, not E_S
# itself, sets the rounding floor.
ES_TERM_TOL = 1e-13
# numeric_max_fidelity: the acceptance tolerance of criterion 1
VERIFY_F_TOL = 1e-6
# the argmax is built on the threshold (b'-|d'|)(b'-c') = 1/4 by algebra
ARGMAX_KT_TOL = 1e-9
# Fock probes: the criterion-2 allowance for truncation at N = 20
PROBE_F_SLACK = 1e-3
# One-mode relative entropy at N = 60: the criterion-3 tolerance, plus the
# truncation allowance of pair_truncation()
PAIR_TOL = 1e-6
# Truncation distorts the upper half of the number levels, where q^2 and
# p^2 weigh a level n by about 2n + 1 <= 2N: the second moments may be off by
# 2N times the population of levels n >= N/2 of either mode.  Measured over
# 150 states drawn like the workload's: at most 5.6 times that population.
MOMENT_FLOOR = 1e-9
MOMENT_FACTOR = 2.0  # times N
# Thermal-core trace deficit: a mode of symplectic eigenvalue nu loses
# ((nu - 1/2)/(nu + 1/2))^N.  Every probe has nu <= b_max + max|c| = 2.1 and
# every rho nu <= 1.7, so two modes at N = 20 lose at most 2 (1.6/2.6)^20.
DEFICIT_MAX = 2 * (1.6 / 2.6) ** 20
# matrix path (eigenvalues of Omega V under local squeezing up to e^0.8):
# measured at most 1e-13 over 15000 CMs
SPECTRUM_REL_TOL = 1e-10
# to_standard_form_I solves for c^2 and d^2 by a square root of a
# discriminant that vanishes when c = |d|, so (c, |d|) keep only about half
# the digits there
FORM_TOL = 1e-6
# CLI values go through the matrix path and standard-form recovery: measured
# at most 3e-10 relative over 7500 entangled CMs
CLI_REL_TOL = 1e-6
# a CLI run of the same Fock computation as the library, on the same inputs
CLI_ORACLE_REL_TOL = 1e-10


def _rel_gap(value, ref) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


# closed forms -----------------------------------------------------------------


def kappas_mp(b, c, d):
    """(k+, k-, kt+, kt-) of the symmetric standard form (b, c, -|d|), in mpmath."""
    b, c, d = mpmath.mpf(b), mpmath.mpf(c), mpmath.mpf(d)
    return (
        mpmath.sqrt((b - d) * (b + c)),
        mpmath.sqrt((b + d) * (b - c)),
        mpmath.sqrt((b + d) * (b + c)),
        mpmath.sqrt((b - d) * (b - c)),
    )


def e_b_closed(kt):
    """The paper's E_B = (sqrt(2 kt) - 1)^2 / (2 kt + 1) below kt = 1/2, else 0."""
    if kt >= mpmath.mpf(1) / 2:
        return mpmath.mpf(0)
    return (mpmath.sqrt(2 * kt) - 1) ** 2 / (2 * kt + 1)


def f_max_closed(kt: float) -> float:
    return 2 * kt / (kt + 0.5) ** 2


def _entropy(nu: float) -> tuple[float, float]:
    """(S, rounding scale) of a one-mode state of symplectic eigenvalue nu, in nats."""
    x = nu - 0.5
    a, b = (nu + 0.5) * math.log(nu + 0.5), (x * math.log(x) if x > 0 else 0.0)
    return a - b, abs(a) + abs(b)


def _mode_minimum(kappa_sq: float, kt: float) -> tuple[float, float]:
    """(minimum, rounding scale) over x > 1/2 of the per-mode relative-entropy brace.

    The brace is f(x) = ln(x+1/2)(1+q)/2 + ln(x-1/2)(1-q)/2 with
    q = kappa^2/(2 kt x) + 2 kt x.  scipy.optimize.brentq finds the zero of
    f' to full precision in x, so f(x*) is exact to rounding.  The scale is
    what that rounding is proportional to: 1 - q cancels when q is near 1
    (near-pure modes), so it is (1+q)(|ln(x+1/2)| + |ln(x-1/2)|)/2.
    """

    def slope(x):
        q = kappa_sq / (2 * kt * x) + 2 * kt * x
        dq = -kappa_sq / (2 * kt * x * x) + 2 * kt
        return 0.5 * ((1 + q) / (x + 0.5) + (1 - q) / (x - 0.5)
                      + (math.log(x + 0.5) - math.log(x - 0.5)) * dq)

    lo, hi = 0.5 * (1 + 4 * np.finfo(float).eps), 10.0 + 2.0 * kappa_sq / (kt * kt)
    while slope(hi) <= 0:
        hi *= 2
    x = brentq(slope, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)
    q = kappa_sq / (2 * kt * x) + 2 * kt * x
    lp, lm = math.log(x + 0.5), math.log(x - 0.5)
    return 0.5 * lp * (1 + q) + 0.5 * lm * (1 - q), 0.5 * (1 + q) * (abs(lp) + abs(lm))


def e_s_reference(b: float, c: float, d: float) -> tuple[float, float]:
    """(E_S, rounding scale) from the two per-mode minima and the mode entropies."""
    kp2, km2, kt = (b - d) * (b + c), (b + d) * (b - c), math.sqrt((b - d) * (b - c))
    if kt >= 0.5:
        return 0.0, 0.0
    (m1, t1), (m2, t2) = _mode_minimum(kp2, kt), _mode_minimum(km2, kt)
    (s1, u1), (s2, u2) = _entropy(math.sqrt(kp2)), _entropy(math.sqrt(km2))
    return m1 + m2 - s1 - s2, t1 + t2 + u1 + u2


def squeezed_vacuum_entropy(r: float) -> float:
    """Entanglement entropy of the two-mode squeezed vacuum, in nats."""
    ch2, sh2 = math.cosh(r) ** 2, math.sinh(r) ** 2
    return ch2 * math.log(ch2) - (sh2 * math.log(sh2) if sh2 > 0 else 0.0)


# sweep ------------------------------------------------------------------------


def check_e_b(b, c, d, e_b) -> str | None:
    ref = e_b_closed(kappas_mp(b, c, d)[3])
    if ref == 0:
        return None if e_b == 0.0 else f"E_B = {e_b!r} for a separable state ({b}, {c}, {d})"
    if _rel_gap(e_b, float(ref)) > EB_REL_TOL:
        return f"E_B = {e_b!r}, closed form {float(ref)!r} at ({b}, {c}, {d})"
    return None


def check_e_s(b, c, d, e_s) -> tuple[str | None, float]:
    """(problem, relative gap to the reference)."""
    ref, scale = e_s_reference(b, c, d)
    if scale == 0.0:
        return (None if e_s == 0.0 else f"E_S = {e_s!r} for a separable state ({b}, {c}, {d})"), 0.0
    gap = abs(e_s - ref)
    if gap > ES_TERM_TOL * scale:
        return f"E_S = {e_s!r}, reference {ref!r} at ({b}, {c}, {d})", gap / ref
    return None, gap / ref


def check_zero_iff_separable(b, c, d, e_b, e_s) -> str | None:
    separable = kappas_mp(b, c, d)[3] >= mpmath.mpf(1) / 2
    if separable and (e_b != 0.0 or e_s != 0.0):
        return f"separable ({b}, {c}, {d}) has E_B = {e_b!r}, E_S = {e_s!r}"
    if not separable and not (e_b > 0.0 and e_s > 0.0):
        return f"entangled ({b}, {c}, {d}) has E_B = {e_b!r}, E_S = {e_s!r}"
    return None


def check_monotone(label, rs, values) -> str | None:
    order = np.argsort(rs)
    steps = np.diff(np.asarray(values, dtype=float)[order])
    if np.any(steps < 0):
        i = int(np.argmin(steps))
        return f"{label} decreases between r = {rs[order[i]]!r} and r = {rs[order[i + 1]]!r}"
    return None


def check_pure_bound(r, e_s) -> str | None:
    """E_S minimizes over Gaussian states only, so it bounds the entropy from above."""
    s_ent = squeezed_vacuum_entropy(r)
    return None if e_s >= s_ent else f"pure state r = {r!r}: E_S = {e_s!r} < entropy {s_ent!r}"


def check_csv(text: str, expected: list[list[str]]) -> str | None:
    lines = text.splitlines()
    if len(lines) != len(expected) + 1:
        return f"sweep CSV has {len(lines) - 1} rows, expected {len(expected)}"
    for k, (line, want) in enumerate(zip(lines[1:], expected)):
        got = line.split(",")
        if got != want:
            return f"sweep CSV row {k}: {line!r}, library gives {','.join(want)!r}"
    return None


# verify -----------------------------------------------------------------------


def check_verify(b, c, d, f_star, arg_b, arg_c, arg_d) -> str | None:
    kt = float(kappas_mp(b, c, d)[3])
    if abs(f_star - f_max_closed(kt)) > VERIFY_F_TOL:
        return f"F* = {f_star!r}, closed form {f_max_closed(kt)!r} at ({b}, {c}, {d})"
    kt_arg = math.sqrt((arg_b - arg_d) * (arg_b - arg_c))
    if abs(kt_arg - 0.5) > ARGMAX_KT_TOL:
        return f"argmax ({arg_b}, {arg_c}, {arg_d}) has kt = {kt_arg!r}, not 1/2"
    return None


# oracle -----------------------------------------------------------------------


def check_probe(f, f_max) -> str | None:
    if not 0.0 <= f <= f_max + PROBE_F_SLACK:
        return f"probe fidelity {f!r} outside [0, F_max + {PROBE_F_SLACK}] with F_max = {f_max!r}"
    return None


def upper_population(diag: np.ndarray, n: int, n_modes: int) -> float:
    """Population of the number levels n >= N/2 of either mode."""
    p = np.asarray(diag, dtype=float).reshape((n,) * n_modes)
    if n_modes == 1:
        return float(p[n // 2:].sum())
    return float(p[n // 2:, :].sum() + p[:, n // 2:].sum())


def check_moments(moments, cm, n, upper_pop) -> str | None:
    err = float(np.max(np.abs(np.asarray(moments) - np.asarray(cm))))
    tol = MOMENT_FLOOR + MOMENT_FACTOR * n * upper_pop
    return None if err <= tol else f"second moments off by {err:.3e} > {tol:.3e}"


def check_deficit(deficit) -> str | None:
    return None if deficit <= DEFICIT_MAX else f"trace deficit {deficit:.3e} > {DEFICIT_MAX}"


def pair_truncation(rho_diag, log_rho_p_diag, n) -> float:
    """Truncation allowance of S(rho'||rho) = Tr rho ln rho - Tr rho ln rho'.

    The cross term weighs the population of rho in the upper half of the
    levels, which truncation distorts, by ln rho' there.  Oppositely
    squeezed pairs at N = 60 miss the closed form by up to 1.7e-6 (the gap
    falls to 1e-8 at N = 80); over 3200 pairs the gap stayed below 0.17
    times this allowance.
    """
    upper = float(np.sum(np.asarray(rho_diag, dtype=float)[n // 2:]))
    return upper * float(np.max(np.abs(np.asarray(log_rho_p_diag, dtype=float))))


def check_pair(fock_value, closed, truncation=0.0) -> str | None:
    if fock_value < 0.0:
        return f"one-mode Fock relative entropy {fock_value!r} < 0"
    if abs(fock_value - closed) > PAIR_TOL + truncation:
        return (f"one-mode Fock relative entropy {fock_value!r}, closed form {closed!r}, "
                f"truncation allowance {truncation:.2e}")
    return None


# ingest -----------------------------------------------------------------------


def check_spectrum(spectrum, b, c, d) -> str | None:
    """spectrum: (k+, k-, kt+, kt-) from the matrix path."""
    for name, got, want in zip(("k+", "k-", "kt+", "kt-"), spectrum, kappas_mp(b, c, d)):
        if _rel_gap(got, float(want)) > SPECTRUM_REL_TOL:
            return f"{name} = {got!r}, closed form {float(want)!r} at ({b}, {c}, {d})"
    return None


def check_verdicts(physical, separable, b, c, d) -> str | None:
    want = kappas_mp(b, c, d)[3] >= mpmath.mpf(1) / 2
    if not physical:
        return f"physical state ({b}, {c}, {d}) reported unphysical"
    if bool(separable) != bool(want):
        return f"separable = {bool(separable)} for ({b}, {c}, {d}), kt says {bool(want)}"
    return None


def check_form(form, b, c, d) -> str | None:
    """form: (b1, b2, c, d) from to_standard_form_I; d is signed, -|d| here."""
    want = (b, b, c, -d)
    if max(abs(g - w) for g, w in zip(form, want)) > FORM_TOL:
        return f"standard form {tuple(form)} recovered, generated {want}"
    return None


# CLI --------------------------------------------------------------------------


def check_cli_check(code, stdout, entangled) -> str | None:
    want_code = 3 if entangled else 0
    want_line = f"separable:          {not entangled}"
    if code != want_code or want_line not in stdout:
        return f"gent check exit {code} (want {want_code}), output lacks {want_line!r}"
    return None


def check_cli_value(payload, command, field, lib_value, rel_tol=CLI_REL_TOL) -> str | None:
    if payload.get("command") != command:
        return f"CLI JSON command {payload.get('command')!r}, want {command!r}"
    got = payload.get(field)
    if not isinstance(got, float) or abs(got - lib_value) > rel_tol * max(abs(lib_value), 1e-12):
        return f"CLI {command} {field} = {got!r}, library {lib_value!r}"
    return None


def check_cli_verify(payload, lib_e_b) -> str | None:
    problem = check_cli_value(payload, "bures", "e_b", lib_e_b)
    if problem:
        return problem
    ver = payload.get("verify") or {}
    f_star, f_max = ver.get("f_star"), payload.get("f_max")
    if f_star is None or abs(f_star - f_max) > VERIFY_F_TOL:
        return f"CLI verify f_star = {f_star!r}, f_max = {f_max!r}"
    arg = ver.get("argmax", {})
    kt_arg = math.sqrt((arg["b"] + arg["d"]) * (arg["b"] - arg["c"]))
    if abs(kt_arg - 0.5) > ARGMAX_KT_TOL:
        return f"CLI verify argmax has kt = {kt_arg!r}, not 1/2"
    return None
