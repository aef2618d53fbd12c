#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each accepts today's output and rejects a planted error.

Run from the repository root (about 5 s):

    python3 perfbench/selftest.py

Exit code 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["PYTHONPATH"] = str(ROOT / "src")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from gent import bures, cm_core, fock, relent, standard_forms  # noqa: E402
from gent.cm_core import OneModeCM  # noqa: E402
from workloads import _local_symplectic, _standard_cm  # noqa: E402


def cases():
    """(name, problem for today's output, problem for the planted error)."""
    s = standard_forms.SymmetricState(1.0, 0.8, 0.6)
    e_b = bures.bures_entanglement(s).e_b
    e_s = relent.rel_ent_entanglement(s).e_s
    yield "E_B vs mpmath closed form", checks.check_e_b(1.0, 0.8, 0.6, e_b), \
        checks.check_e_b(1.0, 0.8, 0.6, e_b * (1 + 1e-9))
    near_pure = (0.5002011896227206, 0.01418555955839967, 0.01418555955839967)
    for b, c, d in ((1.0, 0.8, 0.6), near_pure, (3.0, 2.9, 2.5)):
        e_s = relent.rel_ent_entanglement(standard_forms.SymmetricState(b, c, d)).e_s
        yield f"E_S vs scipy reference at ({b}, {c}, {d}), E_S off by 1e-6", \
            checks.check_e_s(b, c, d, e_s)[0], checks.check_e_s(b, c, d, e_s + 1e-6)[0]
    yield "E = 0 exactly when separable", \
        checks.check_zero_iff_separable(1.0, 0.3, 0.2, 0.0, 0.0), \
        checks.check_zero_iff_separable(1.0, 0.3, 0.2, 0.0, 1e-300)
    r = 0.5
    e_s = relent.rel_ent_entanglement(standard_forms.symmetric_sts(r)).e_s
    yield "pure-state entropy bound", checks.check_pure_bound(r, e_s), \
        checks.check_pure_bound(r, checks.squeezed_vacuum_entropy(r) * (1 - 1e-12))

    f_star, arg, _ = bures.numeric_max_fidelity(s)
    yield "numeric_max_fidelity vs closed form", \
        checks.check_verify(1.0, 0.8, 0.6, f_star, arg.b, arg.c, arg.d_abs), \
        checks.check_verify(1.0, 0.8, 0.6, f_star - 2e-6, arg.b, arg.c, arg.d_abs)

    n = 20
    rho_cm = _standard_cm(1.0, 0.8, 0.6)
    rho = fock.gaussian_state_from_cm(rho_cm, n)
    sigma = fock.gaussian_state_from_cm(_standard_cm(1.0, 0.2, 0.1), n)
    f_max = checks.f_max_closed(s.kappa_tilde_minus)
    f = fock.fidelity_fock(rho, sigma)
    yield "Fock probe fidelity, planted above F_max", checks.check_probe(f, f_max), \
        checks.check_probe(f_max + 2 * checks.PROBE_F_SLACK, f_max)
    moments = fock.moments_from_fock(rho)
    upper = checks.upper_population(np.real(np.diag(rho.matrix)), n, 2)
    yield "Fock second moments", checks.check_moments(moments, rho_cm, n, upper), \
        checks.check_moments(moments, _standard_cm(1.0, 0.8, 0.59), n, upper)
    v, vp = OneModeCM(0.9, 0.6), OneModeCM(1.1, 0.7)
    value = fock.rel_entropy_fock(fock.gaussian_state_from_cm(vp, 60),
                                  fock.gaussian_state_from_cm(v, 60))
    closed = relent.rel_entropy_one_mode(vp, v)
    yield "one-mode Fock relative entropy", checks.check_pair(value, closed), \
        checks.check_pair(value + 2e-6, closed)

    b, c, d = 1.2, 0.9, 0.5
    t = _local_symplectic(np.random.default_rng(7))
    cm = t @ _standard_cm(b, c, d) @ t.T
    sep = cm_core.is_separable(cm)
    spec = cm_core.symplectic_spectrum(cm)
    kappas = (spec.kappa_plus, spec.kappa_minus, spec.kappa_tilde_plus, spec.kappa_tilde_minus)
    yield "separability verdict, planted flipped", checks.check_verdicts(True, sep.ok, b, c, d), \
        checks.check_verdicts(True, not sep.ok, b, c, d)
    yield "symplectic spectrum", checks.check_spectrum(kappas, b, c, d), \
        checks.check_spectrum((kappas[0], kappas[1] * (1 + 1e-7), *kappas[2:]), b, c, d)
    form = standard_forms.to_standard_form_I(cm)
    got = (form.b1, form.b2, form.c, form.d)
    yield "standard form recovery", checks.check_form(got, b, c, d), \
        checks.check_form((*got[:3], -got[3]), b, c, d)

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cm.json"
        path.write_text(json.dumps({"v": cm.tolist()}))
        out = subprocess.run([sys.executable, "-m", "gent.cli", "bures", "--cm", str(path)],
                             capture_output=True, text=True, timeout=120, check=True).stdout
    payload = json.loads(out)
    lib = bures.bures_entanglement(standard_forms.SymmetricState(b, c, d)).e_b
    changed = dict(payload, e_b=payload["e_b"] * (1 + 1e-4))
    yield "CLI JSON e_b, planted field change", \
        checks.check_cli_value(payload, "bures", "e_b", lib), \
        checks.check_cli_value(changed, "bures", "e_b", lib)


def main() -> int:
    bad = 0
    for name, today, planted in cases():
        ok = today is None and planted is not None
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        if today is not None:
            print(f"     rejected today's output: {today}")
        if planted is None:
            print("     accepted the planted error")
    print(f"{'all checks behave' if not bad else f'{bad} checks misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
