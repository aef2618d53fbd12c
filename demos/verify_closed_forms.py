"""Replay the closed-form vs oracle cross-checks on one state, end to end.

Takes the standard reference state (b, c, |d|) = (1, 0.8, 0.6) and verifies:
  1. the Bures closed form against direct fidelity maximization,
  2. the relative-entropy assembly against an independent grid scan,
  3. the one-mode building blocks against truncated-Fock-basis ground truth.
"""

from gent import (
    SymmetricState,
    bures_entanglement,
    grid_rel_ent,
    numeric_max_fidelity,
    rel_ent_entanglement,
    rel_entropy_one_mode,
)
from gent.cm_core import OneModeCM
from gent import fock

s = SymmetricState(b=1.0, c=0.8, d_abs=0.6)
kt = s.kappa_tilde_minus
print(f"state: b={s.b}, c={s.c}, |d|={s.d_abs}   kt = {kt:.6f} (< 1/2: entangled)")

# 1. Bures: closed form vs brute-force maximization over separable candidates
res = bures_entanglement(s)
f_star, argmax, u_star = numeric_max_fidelity(s)
print(f"\nF_max closed form     = {res.f_max:.12f}")
print(f"F_max numeric search  = {f_star:.12f}   (gap {abs(f_star - res.f_max):.2e})")
print(f"closest separable     : b'={argmax.b:.6f} c'={argmax.c:.6f} |d'|={argmax.d_abs:.6f}")
print(f"its kt (on threshold) = {argmax.kappa_tilde_minus:.9f}")
print(f"E_B = {res.e_b:.9f} = 1 - sqrt(F_max)")

# 2. Relative entropy: Newton-solved mode minima vs a staged grid scan
rel = rel_ent_entanglement(s)
e_s_grid = grid_rel_ent(s)
print(f"\nE_S assembled         = {rel.e_s:.12f}   (x1* = {rel.x1_star:.6f}, x2* = {rel.x2_star:.6f})")
print(f"E_S grid oracle       = {e_s_grid:.12f}   (gap {abs(e_s_grid - rel.e_s):.2e})")

# 3. One-mode pieces against the Fock oracle at N = 60
v = OneModeCM(0.5, 0.5)  # vacuum
vp = OneModeCM(1.0, 1.0)  # thermal, nbar = 0.5
closed = rel_entropy_one_mode(vp, v)
oracle = fock.rel_entropy_fock(
    fock.gaussian_state_from_cm(vp, 60), fock.gaussian_state_from_cm(v, 60)
)
print(f"\nS(thermal/vacuum) closed = {closed:.10f}, Fock oracle = {oracle:.10f}")
print(f"gap = {abs(closed - oracle):.2e}")
