"""Command-line front end.

Exit codes: 0 separable/success, 1 parse failure or a covariance matrix
too ill-conditioned to decide kappa >= 1/2, 2 unphysical state (also a
matrix that is not positive definite),
3 entangled, 4 input with no symmetric standard form (b1 != b2, or
det C > 0, which is separable by PPT but not d = -|d|, beyond rounding)
where one is required, 5 support violation in the oracle.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import re
import sys

import numpy as np

from . import __version__, bures, cm_core, relent, standard_forms
from .errors import DomainError, GentError, NonPositiveDefinite, NumericalDegeneracy
from .errors import SupportViolation, UnphysicalState

EXIT_SEPARABLE = 0
EXIT_PARSE = 1
EXIT_UNPHYSICAL = 2
EXIT_ENTANGLED = 3
EXIT_NOT_SYMMETRIC = 4
EXIT_SUPPORT = 5

log = logging.getLogger("gent")


def _configure_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("GENT_LOG", "error").lower(), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


# argparse's own pattern misses the exponent form, and "--d -1e-5" would read as an option
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse that reads any negative number as a value and exits EXIT_PARSE on misuse."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _add_state_inputs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cm", help="JSON file with a 4x4 covariance matrix")
    p.add_argument("--b", type=float, help="standard-form b (symmetric states)")
    p.add_argument("--c", type=float, help="standard-form c")
    p.add_argument("--d", type=float, help="standard-form d (signed)")
    p.add_argument("--r", type=float, help="two-mode squeeze parameter")
    p.add_argument("--nbar", type=float, default=0.0, help="thermal mean photon number")


def _load_cm(path: str, flag: str) -> np.ndarray:
    """The CM in a JSON file; exits EXIT_PARSE if it cannot be read."""
    try:
        return cm_core.load_cm_json(path)
    except (OSError, ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
        _fail(EXIT_PARSE, f"{flag}: {exc}")


def _resolve_cm(args) -> np.ndarray:
    """Build the 4x4 CM from whichever input form was given."""
    if args.cm is not None:
        return _load_cm(args.cm, "--cm")
    if args.b is not None:
        if args.c is None or args.d is None:
            _fail(EXIT_PARSE, "--b requires --c and --d")
        return standard_forms.StandardFormI(args.b, args.b, args.c, args.d).to_cm()
    return _resolve_sts(args).to_cm()


def _resolve_sts(args) -> standard_forms.SymmetricState:
    if args.r is None:
        _fail(EXIT_PARSE, "no state given: use --cm, or --b/--c/--d, or --r [--nbar]")
    if args.r < 0:
        _fail(EXIT_PARSE, "--r: must be nonnegative")
    if args.nbar < 0:
        _fail(EXIT_PARSE, "--nbar: must be nonnegative")
    return standard_forms.symmetric_sts(args.r, args.nbar)


def _resolve_state(args) -> standard_forms.SymmetricState:
    """The symmetric state the input flags name; exits 4 if it has none, 2 if unphysical."""
    if args.cm is None and args.b is None:
        return _resolve_sts(args)
    v = _resolve_cm(args)
    try:
        form = standard_forms.to_standard_form_I(v)
        tol = cm_core.rounding_tol(cm_core.entry_scale(v))
        if abs(form.b1 - form.b2) > tol:
            _fail(EXIT_NOT_SYMMETRIC, f"state is not symmetric (b1 = {form.b1:.9g}, b2 = {form.b2:.9g})")
        if form.d > tol:
            _fail(
                EXIT_NOT_SYMMETRIC,
                f"det C > 0 (d = {form.d:.9g}): separable by PPT, but symmetric states "
                "are held in the form d = -|d|",
            )
        # a vacuum-local block comes back up to a rounding below b = 1/2
        b = 0.5 if 0.5 - tol <= form.b1 < 0.5 else form.b1
        return standard_forms.SymmetricState(b, form.c, abs(form.d))
    except DomainError as exc:
        _fail(EXIT_UNPHYSICAL, f"unphysical state: {exc}")


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


# subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    v = _resolve_cm(args)
    try:
        spec = cm_core.symplectic_spectrum(v)
        sep = cm_core.is_separable(v)
    except UnphysicalState:
        sep = None
    except NonPositiveDefinite:
        raise  # main reports it as unphysical
    except GentError as exc:
        _fail(EXIT_PARSE, f"covariance matrix: {exc}")
    print(f"physical:           {sep is not None}  (kappa_minus = {spec.kappa_minus:.9g})")
    print(f"uncertainty det:    {cm_core.sp2_value(v):.9g}")
    if sep is None:
        print("separable:          n/a (unphysical)")
        return EXIT_UNPHYSICAL
    print(f"separable:          {bool(sep)}  (kappa_tilde_minus = {sep.kappa:.9g})")
    print(
        f"kappas:             k+ = {spec.kappa_plus:.9g}  k- = {spec.kappa_minus:.9g}  "
        f"kt+ = {spec.kappa_tilde_plus:.9g}  kt- = {spec.kappa_tilde_minus:.9g}"
    )
    inv = cm_core.invariants(v)
    print(
        f"invariants:         det V1 = {inv.det_v1:.9g}  det V2 = {inv.det_v2:.9g}  "
        f"det C = {inv.det_c:.9g}  det V = {inv.det_v:.9g}"
    )
    form = standard_forms.to_standard_form_I(v)
    print(
        f"standard form I:    b1 = {form.b1:.9g}  b2 = {form.b2:.9g}  "
        f"c = {form.c:.9g}  d = {form.d:.9g}"
    )
    return EXIT_SEPARABLE if sep else EXIT_ENTANGLED


def cmd_bures(args) -> int:
    state = _resolve_state(args)
    result = bures.bures_entanglement(state)
    payload = {
        "version": __version__,
        "command": "bures",
        "input": {"b": state.b, "c": state.c, "d": -state.d_abs},
        "e_b": result.e_b,
        "f_max": result.f_max,
        "d_bures": result.d_bures,
        "kappa_tilde_minus": result.kappa_tilde_minus,
    }
    if args.verify and not state.is_separable():
        f_star, argmax, u_star = bures.numeric_max_fidelity(state)
        payload["verify"] = {
            "f_star": f_star,
            "discrepancy": abs(f_star - result.f_max),
            "argmax": {"b": argmax.b, "c": argmax.c, "d": -argmax.d_abs, "u": u_star},
        }
    print(json.dumps(payload, indent=1))
    return EXIT_SEPARABLE


def cmd_relent(args) -> int:
    state = _resolve_state(args)
    result = relent.rel_ent_entanglement(state)
    payload = {
        "version": __version__,
        "command": "relent",
        "input": {"b": state.b, "c": state.c, "d": -state.d_abs},
        "e_s": result.e_s,
        "x1_star": result.x1_star,
        "x2_star": result.x2_star,
        "q_s1": result.q_s1,
        "q_s2": result.q_s2,
        "s_n1": result.s_n1,
        "s_n2": result.s_n2,
        "kappa_tilde_minus": state.kappa_tilde_minus,
    }
    if args.verify and not state.is_separable():
        e_s_grid = relent.grid_rel_ent(state)
        payload["verify"] = {"e_s_grid": e_s_grid, "discrepancy": abs(e_s_grid - result.e_s)}
    print(json.dumps(payload, indent=1))
    return EXIT_SEPARABLE


SWEEP_COLUMNS = [
    "param",
    "b",
    "c",
    "d",
    "kappa_plus",
    "kappa_minus",
    "kappa_tilde_minus",
    "e_b",
    "e_s",
    "x1_star",
    "x2_star",
]


def cmd_sweep(args) -> int:
    if args.start >= args.stop:
        _fail(EXIT_PARSE, "--start must be below --stop")
    if args.steps < 2:
        _fail(EXIT_PARSE, "--steps must be at least 2")
    if args.parameter == "kappa_tilde" and (args.start <= 0 or args.stop > 0.5):
        _fail(EXIT_PARSE, "--parameter kappa_tilde needs a range within (0, 1/2]")
    rows = []
    for val in np.linspace(args.start, args.stop, args.steps):
        if args.parameter == "r":
            state = standard_forms.symmetric_sts(float(val), args.nbar)
        else:  # pure two-mode squeezed vacuum with kappa_tilde_minus = val
            state = standard_forms.symmetric_sts(-0.5 * math.log(2 * float(val)), 0.0)
        row = {
            "param": float(val),
            "b": state.b,
            "c": state.c,
            "d": -state.d_abs,
            "kappa_plus": state.kappa_plus,
            "kappa_minus": state.kappa_minus,
            "kappa_tilde_minus": state.kappa_tilde_minus,
            "e_b": None,
            "e_s": None,
            "x1_star": None,
            "x2_star": None,
        }
        if args.measure in ("bures", "both"):
            row["e_b"] = bures.bures_entanglement(state).e_b
        if args.measure in ("relent", "both"):
            res = relent.rel_ent_entanglement(state)
            row["e_s"], row["x1_star"], row["x2_star"] = res.e_s, res.x1_star, res.x2_star
        rows.append(row)
    try:
        _write_sweep(rows, args.output, args.format)
    except OSError as exc:
        _fail(EXIT_PARSE, f"cannot write output: {exc}")
    return EXIT_SEPARABLE


def _write_sweep(rows, path, fmt) -> None:
    if fmt == "json":
        with open(path, "w") as fh:
            json.dump({"version": __version__, "rows": rows}, fh, indent=1)
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow(
                ["" if row[k] is None else f"{row[k]:.12g}" for k in SWEEP_COLUMNS]
            )


def _parse_one_mode(text: str, flag: str) -> cm_core.OneModeCM:
    try:
        sqq, spp = (float(t) for t in text.split(","))
    except ValueError:
        _fail(EXIT_PARSE, f"{flag}: expected 'sigma_qq,sigma_pp', got {text!r}")
    if sqq <= 0 or spp <= 0:
        _fail(EXIT_PARSE, f"{flag}: variances must be positive")
    return cm_core.OneModeCM(sqq, spp)


def _oracle_inputs(args):
    """Collect (cm, Fock levels per mode) pairs from --state*/--cm* flags."""
    if args.dim is not None and args.dim < 2:
        _fail(EXIT_PARSE, f"--dim: need at least 2 Fock levels per mode, got {args.dim}")
    out = []
    for k, state_flag, cm_flag in ((1, args.state1, args.cm1), (2, args.state2, args.cm2)):
        if state_flag is not None:
            out.append((_parse_one_mode(state_flag, f"--state{k}"), args.dim or 60))
        elif cm_flag is not None:
            out.append((_load_cm(cm_flag, f"--cm{k}"), args.dim or 20))
    return out


def cmd_oracle(args) -> int:
    from . import fock  # only the oracle needs it; the other commands start without it

    inputs = _oracle_inputs(args)
    need = 1 if args.functional == "entropy" else 2
    if len(inputs) != need:
        _fail(EXIT_PARSE, f"oracle {args.functional} needs exactly {need} state(s)")
    states = [(fock.gaussian_state_from_cm(cm, n), cm) for cm, n in inputs]
    payload = {"version": __version__, "command": f"oracle {args.functional}"}
    try:
        if args.functional == "fidelity":
            (rho, cm_a), (rho_p, cm_b) = states
            payload["value"] = fock.fidelity_fock(rho, rho_p)
            if isinstance(cm_a, cm_core.OneModeCM) and isinstance(cm_b, cm_core.OneModeCM):
                payload["closed_form"] = bures.one_mode_fidelity(cm_a, cm_b)
        elif args.functional == "relent":
            (rho, cm_a), (rho_p, cm_b) = states
            payload["value"] = fock.rel_entropy_fock(rho_p, rho)
            if isinstance(cm_a, cm_core.OneModeCM) and isinstance(cm_b, cm_core.OneModeCM):
                payload["closed_form"] = relent.rel_entropy_one_mode(cm_b, cm_a)
        else:
            rho, cm_a = states[0]
            payload["value"] = fock.entropy_fock(rho)
            if isinstance(cm_a, cm_core.OneModeCM):
                payload["closed_form"] = relent.von_neumann_entropy(cm_a)
            else:
                spec = cm_core.symplectic_spectrum(cm_a)
                payload["closed_form"] = relent._entropy_nu(spec.kappa_plus) + relent._entropy_nu(
                    spec.kappa_minus
                )
    except SupportViolation as exc:
        print(f"error: support violation: {exc}", file=sys.stderr)
        return EXIT_SUPPORT
    if "closed_form" in payload:
        payload["discrepancy"] = abs(payload["value"] - payload["closed_form"])
    payload["dim_per_mode"] = states[0][0].dim_per_mode
    payload["trace_deficit"] = [s.trace_deficit for s, _ in states]
    print(json.dumps(payload, indent=1))
    return EXIT_SEPARABLE


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gent",
        description=(
            "Gaussian entanglement measures for symmetric two-mode Gaussian states. "
            "Convention: hbar = 1, vacuum CM = I/2, ordering (q1, p1, q2, p2)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="physicality/separability report")
    _add_state_inputs(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bures = sub.add_parser("bures", help="Bures-metric entanglement")
    _add_state_inputs(p_bures)
    p_bures.add_argument("--verify", action="store_true", help="run the numeric maximizer")
    p_bures.set_defaults(func=cmd_bures)

    p_rel = sub.add_parser("relent", help="relative entropy of entanglement")
    _add_state_inputs(p_rel)
    p_rel.add_argument("--verify", action="store_true", help="run the grid oracle")
    p_rel.set_defaults(func=cmd_relent)

    p_sweep = sub.add_parser("sweep", help="parameter sweep to CSV/JSON")
    p_sweep.add_argument("--measure", choices=["bures", "relent", "both"], required=True)
    p_sweep.add_argument("--parameter", choices=["kappa_tilde", "r"], required=True)
    p_sweep.add_argument("--start", type=float, required=True)
    p_sweep.add_argument("--stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--nbar", type=float, default=0.0)
    p_sweep.add_argument("--output", required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="truncated-Fock brute-force cross-checks")
    p_oracle.add_argument("functional", choices=["fidelity", "relent", "entropy"])
    p_oracle.add_argument("--state1", help="one-mode diagonal CM 'sigma_qq,sigma_pp'")
    p_oracle.add_argument("--state2", help="one-mode diagonal CM 'sigma_qq,sigma_pp'")
    p_oracle.add_argument("--cm1", help="two-mode CM JSON file")
    p_oracle.add_argument("--cm2", help="two-mode CM JSON file")
    p_oracle.add_argument("--dim", type=int, help="Fock levels per mode")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (UnphysicalState, NonPositiveDefinite) as exc:
        print(f"error: unphysical state: {exc}", file=sys.stderr)
        code = EXIT_UNPHYSICAL
    except NumericalDegeneracy as exc:
        _fail(EXIT_PARSE, f"covariance matrix: {exc}")
    raise SystemExit(code)


if __name__ == "__main__":
    main()
