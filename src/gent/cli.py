"""Command-line front end.

Exit codes: 0 separable/success, 1 parse failure or a state too
ill-conditioned to decide kappa >= 1/2, 2 unphysical state (also a
matrix that is not positive definite),
3 entangled, 4 physical input with no symmetric standard form (b1 != b2 or
b1 <= c, or det C > 0, which is separable by PPT but not d = -|d|, beyond
rounding) where one is required, 5 support violation in the oracle.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import re
import sys

# the matrix layers (cm_core, standard_forms, fock) load numpy: the commands
# that need them import them where they run, so the others start without it
from . import __version__, bures, relent
from .errors import NonPositiveDefinite, NumericalDegeneracy
from .errors import SupportViolation, UnphysicalState
from .scalar import OneModeCM, StandardFormI, SymmetricState, above_vacuum, physical_kappa, rounding_tol
from .scalar import VACUUM, form_I_spectrum, symmetric_sts

EXIT_SEPARABLE = 0
EXIT_PARSE = 1
EXIT_UNPHYSICAL = 2
EXIT_ENTANGLED = 3
EXIT_NOT_SYMMETRIC = 4
EXIT_SUPPORT = 5

# argparse's own pattern misses the exponent form, and "--d -1e-5" would read as an option;
# so would a --stateK pair "-1,0.5", which its reader then refuses as not positive definite
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?(,.*)?$")


class _Parser(argparse.ArgumentParser):
    """argparse that reads any negative number as a value and exits EXIT_PARSE on misuse."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type of every float flag: NaN and infinities exit EXIT_PARSE."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_state_inputs(p: argparse.ArgumentParser) -> None:
    form = p.add_mutually_exclusive_group(required=True)
    form.add_argument("--cm", help="JSON file with a 4x4 covariance matrix")
    form.add_argument("--b", type=_finite_float, help="standard-form b (symmetric states)")
    form.add_argument("--r", type=_finite_float, help="two-mode squeeze parameter")
    p.add_argument("--c", type=_finite_float, help="standard-form c, with --b")
    p.add_argument("--d", type=_finite_float, help="standard-form d (signed), with --b")
    p.add_argument("--nbar", type=_finite_float, help="thermal mean photon number, with --r (default 0)")


def _check_companions(args) -> None:
    """Exits EXIT_PARSE on a flag of a state form other than the one given."""
    if args.b is None and (args.c is not None or args.d is not None):
        _fail(EXIT_PARSE, "--c and --d go with --b")
    if args.r is None and args.nbar is not None:
        _fail(EXIT_PARSE, "--nbar goes with --r")


def _load_cm(path: str, flag: str):
    """The CM array in a JSON file; exits EXIT_PARSE if it cannot be read."""
    from . import cm_core

    try:
        return cm_core.load_cm_json(path)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        _fail(EXIT_PARSE, f"{flag}: {exc}")


def _read_form(args):
    """(form, scale, spec): standard form I of the input flags, the scale of its ``rounding_tol``
    (the largest entry of the CM) and its symplectic spectrum, in closed form from standard
    form I (``form_I_spectrum``) for every input form.

    A --cm file's form, scale and spectrum are the record of its one reduction that
    ``cm_core.symplectic_spectrum`` reads (``standard_forms.form_I_record``), with its refusals and
    messages.  Parameters go through the scalar core, b as given but raised to exactly 1/2 from
    below within the rule, so that check decides on the floats of the measures (``_symmetric_state``).
    """
    _check_companions(args)
    spec = None
    if args.cm is not None:
        from . import standard_forms

        form, spec, scale, _ = standard_forms.form_I_record(_load_cm(args.cm, "--cm"))
    elif args.r is not None:
        nbar = 0.0 if args.nbar is None else args.nbar
        if args.r < 0:
            _fail(EXIT_PARSE, "--r: must be nonnegative")
        if nbar < 0:
            _fail(EXIT_PARSE, "--nbar: must be nonnegative")
        state = symmetric_sts(args.r, nbar)
        form, scale = state.to_form_I(), state.b
    else:
        b, c, d = args.b, args.c, args.d
        if c is None or d is None:
            _fail(EXIT_PARSE, "--b requires --c and --d")
        # local rotations and mirrors take diag(c, d) to diag(c', d'), c' >= |d'|, sign(d') = sign(c d),
        # read from the signs of c and d: c d can underflow to -0.0; 0.0 - 0.0 is 0.0, not -0.0
        c_abs, d_abs = max(abs(c), abs(d)), min(abs(c), abs(d))
        b = max(b, VACUUM) if above_vacuum(b, b) else b
        form, scale = StandardFormI(b, b, c_abs, 0.0 - d_abs if (c < 0) != (d < 0) else d_abs), max(b, c_abs)
    # raises NonPositiveDefinite unless b > c, as symplectic_spectrum refuses V
    return form, scale, spec or form_I_spectrum(form)


def _symmetric_state(args) -> SymmetricState:
    """SymmetricState(b1, c, |d|) of the form ``_read_form`` reads, so symmetric_sts(r, nbar)
    itself for --r, b1 raised to exactly 1/2 only from below.  Exits 2 if the state is
    unphysical, as check does, and only then 4 unless b1 = b2 and d <= 0 up to
    ``rounding_tol``, and b1 > c."""
    form, scale, spec = _read_form(args)
    physical_kappa(spec.kappa_minus, scale, "kappa_-")  # raises UnphysicalState
    tol = rounding_tol(scale)
    if abs(form.b1 - form.b2) > tol or not form.b1 > form.c:
        _fail(EXIT_NOT_SYMMETRIC, f"state is not symmetric (b1 = {form.b1:.9g}, b2 = {form.b2:.9g})")
    if form.d > tol:
        _fail(EXIT_NOT_SYMMETRIC, f"det C > 0 (d = {form.d:.9g}): separable by PPT, but symmetric states "
                                  "are held in the form d = -|d|")
    return SymmetricState(max(form.b1, VACUUM), form.c, abs(form.d))


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(code)


# subcommands ----------------------------------------------------------------


def cmd_check(args) -> int:
    form, scale, spec = _read_form(args)
    # one spectrum and one threshold rule decide both tests before anything
    # prints; every number below comes from it and from standard form I
    physical = above_vacuum(spec.kappa_minus, scale)
    separable = physical and above_vacuum(spec.kappa_tilde_minus, scale)
    # det(V + i Omega / 2) = (k+^2 - 1/4)(k-^2 - 1/4); a physical kappa the rule reads as 1/2 is 1/2
    kp, km = (physical_kappa(k, scale) if physical else k for k in (spec.kappa_plus, spec.kappa_minus))
    print(f"physical:           {physical}  (kappa_minus = {spec.kappa_minus:.9g})")
    print(f"uncertainty det:    {(kp - 0.5) * (kp + 0.5) * (km - 0.5) * (km + 0.5):.9g}")
    if not physical:
        print("separable:          n/a (unphysical)")
        return EXIT_UNPHYSICAL
    print(f"separable:          {separable}  (kappa_tilde_minus = {spec.kappa_tilde_minus:.9g})")
    print(
        f"kappas:             k+ = {spec.kappa_plus:.9g}  k- = {spec.kappa_minus:.9g}  "
        f"kt+ = {spec.kappa_tilde_plus:.9g}  kt- = {spec.kappa_tilde_minus:.9g}"
    )
    # local symplectics keep det V1 = b1^2, det V2 = b2^2 and det C = c d (0.0 + c d: one that
    # underflows prints 0, not -0)
    print(
        f"invariants:         det V1 = {form.b1**2:.9g}  det V2 = {form.b2**2:.9g}  "
        f"det C = {0.0 + form.c * form.d:.9g}  det V = {(kp * km) ** 2:.9g}"
    )
    print(
        f"standard form I:    b1 = {form.b1:.9g}  b2 = {form.b2:.9g}  "
        f"c = {form.c:.9g}  d = {form.d:.9g}"
    )
    return EXIT_SEPARABLE if separable else EXIT_ENTANGLED


def _print_measure(command: str, state: SymmetricState, fields: dict) -> int:
    """Print the JSON of gent bures or gent relent: the input state, then the measure's ``fields``.

    d = -|d| is written 0.0 - |d|, here and in the sweep rows, so that d = 0 prints 0.0, not -0.0.
    """
    payload = {"version": __version__, "command": command,
               "input": {"b": state.b, "c": state.c, "d": 0.0 - state.d_abs}, **fields}
    print(json.dumps(payload, indent=1))
    return EXIT_SEPARABLE


def cmd_bures(args) -> int:
    state = _symmetric_state(args)
    result = bures.bures_entanglement(state)
    fields = {"e_b": result.e_b, "f_max": result.f_max, "d_bures": result.d_bures,
              "kappa_tilde_minus": result.kappa_tilde_minus}
    if args.verify and not state.is_separable():
        f_star, argmax, u_star = bures.numeric_max_fidelity(state)
        fields["verify"] = {"f_star": f_star, "discrepancy": abs(f_star - result.f_max),
                            "argmax": {"b": argmax.b, "c": argmax.c, "d": 0.0 - argmax.d_abs, "u": u_star}}
    return _print_measure("bures", state, fields)


def cmd_relent(args) -> int:
    state = _symmetric_state(args)
    result = relent.rel_ent_entanglement(state)
    fields = {**dataclasses.asdict(result), "kappa_tilde_minus": state.kappa_tilde_minus}
    if args.verify and not state.is_separable():
        e_s_grid = relent.grid_rel_ent(state)
        fields["verify"] = {"e_s_grid": e_s_grid, "discrepancy": abs(e_s_grid - result.e_s)}
    return _print_measure("relent", state, fields)


SWEEP_COLUMNS = ["param", "b", "c", "d", "kappa_plus", "kappa_minus", "kappa_tilde_minus",
                 "e_b", "e_s", "x1_star", "x2_star"]


def cmd_sweep(args) -> int:
    if args.start >= args.stop:
        _fail(EXIT_PARSE, "--start must be below --stop")
    if args.steps < 2:
        _fail(EXIT_PARSE, "--steps must be at least 2")
    if args.parameter == "kappa_tilde" and (args.start <= 0 or args.stop > 0.5):
        _fail(EXIT_PARSE, "--parameter kappa_tilde needs a range within (0, 1/2]")
    if args.parameter == "kappa_tilde" and args.nbar is not None:
        _fail(EXIT_PARSE, "--nbar goes with --parameter r")
    if args.parameter == "r" and args.start < 0:
        _fail(EXIT_PARSE, "--parameter r needs a nonnegative range")
    if args.nbar is not None and args.nbar < 0:
        _fail(EXIT_PARSE, "--nbar: must be nonnegative")
    import numpy as np  # np.linspace fixes the sweep's parameter values to the last bit

    rows = []
    for val in np.linspace(args.start, args.stop, args.steps):
        if args.parameter == "r":
            state = symmetric_sts(float(val), args.nbar or 0.0)
        else:  # pure two-mode squeezed vacuum with kappa_tilde_minus = val
            state = symmetric_sts(-0.5 * math.log(2 * float(val)), 0.0)
        e_b = e_s = x1 = x2 = None
        if args.measure in ("bures", "both"):
            e_b = bures.bures_entanglement(state).e_b
        if args.measure in ("relent", "both"):
            res = relent.rel_ent_entanglement(state)
            e_s, x1, x2 = res.e_s, res.x1_star, res.x2_star
        values = (float(val), state.b, state.c, 0.0 - state.d_abs, state.kappa_plus, state.kappa_minus,
                  state.kappa_tilde_minus, e_b, e_s, x1, x2)
        rows.append(dict(zip(SWEEP_COLUMNS, values, strict=True)))
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


def _parse_one_mode(text: str, flag: str) -> OneModeCM:
    """Two finite numbers, as every float flag takes; ``OneModeCM.physical_nu`` refuses the rest."""
    try:
        sqq, spp = (float(t) for t in text.split(","))
    except ValueError:
        _fail(EXIT_PARSE, f"{flag}: expected 'sigma_qq,sigma_pp', got {text!r}")
    if not (math.isfinite(sqq) and math.isfinite(spp)):
        _fail(EXIT_PARSE, f"{flag}: expected a finite number for each variance, got {text!r}")
    return OneModeCM(sqq, spp)


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
    from . import fock, standard_forms  # only the oracle needs fock; the other commands start without it

    inputs = _oracle_inputs(args)
    need = 1 if args.functional == "entropy" else 2
    if len(inputs) != need:
        _fail(EXIT_PARSE, f"oracle {args.functional} needs exactly {need} state(s)")
    if len({isinstance(cm, OneModeCM) for cm, _ in inputs}) > 1:
        _fail(EXIT_PARSE, f"oracle {args.functional}: one state has one mode and the other two; "
                          "give --state1/--state2 or --cm1/--cm2")
    states = [(fock.gaussian_state_from_cm(cm, n), cm) for cm, n in inputs]
    payload = {"version": __version__, "command": f"oracle {args.functional}"}
    if args.functional == "fidelity":
        (rho, cm_a), (rho_p, cm_b) = states
        payload["value"] = fock.fidelity_fock(rho, rho_p)
        if isinstance(cm_a, OneModeCM) and isinstance(cm_b, OneModeCM):
            payload["closed_form"] = bures.one_mode_fidelity(cm_a, cm_b)
    elif args.functional == "relent":
        (rho, cm_a), (rho_p, cm_b) = states
        payload["value"] = fock.rel_entropy_fock(rho_p, rho)
        if isinstance(cm_a, OneModeCM) and isinstance(cm_b, OneModeCM):
            payload["closed_form"] = relent.rel_entropy_one_mode(cm_b, cm_a)
    else:
        rho, cm_a = states[0]
        payload["value"] = fock.entropy_fock(rho)
        if isinstance(cm_a, OneModeCM):
            payload["closed_form"] = relent.von_neumann_entropy(cm_a)
        else:  # the entropy sum over the spectrum of the record the Fock build read, each kappa read as it reads it
            _, spec, scale, _ = standard_forms.form_I_record(cm_a)
            kappas = (spec.kappa_plus, spec.kappa_minus)
            payload["closed_form"] = sum(relent._entropy_excess(physical_kappa(k, scale) - 0.5) for k in kappas)
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
    p_sweep.add_argument("--start", type=_finite_float, required=True)
    p_sweep.add_argument("--stop", type=_finite_float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--nbar", type=_finite_float, help="thermal photon number, with --parameter r")
    p_sweep.add_argument("--output", required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_oracle = sub.add_parser("oracle", help="truncated-Fock brute-force cross-checks")
    p_oracle.add_argument("functional", choices=["fidelity", "relent", "entropy"])
    for k in (1, 2):  # state k is one of the two, never both
        pair = p_oracle.add_mutually_exclusive_group()
        pair.add_argument(f"--state{k}", help="one-mode diagonal CM 'sigma_qq,sigma_pp'")
        pair.add_argument(f"--cm{k}", help="two-mode CM JSON file")
    p_oracle.add_argument("--dim", type=int, help="Fock levels per mode")
    p_oracle.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except (UnphysicalState, NonPositiveDefinite) as exc:
        _fail(EXIT_UNPHYSICAL, f"unphysical state: {exc}")
    except NumericalDegeneracy as exc:  # the message names the state's parameters or entries
        _fail(EXIT_PARSE, str(exc))
    except SupportViolation as exc:
        _fail(EXIT_SUPPORT, f"support violation: {exc}")
    raise SystemExit(code)


if __name__ == "__main__":
    main()
