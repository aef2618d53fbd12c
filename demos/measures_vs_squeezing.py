"""Sweep the entanglement measures along squeezed thermal families.

For pure two-mode squeezed vacuum every amount of squeezing entangles the
modes; with thermal noise (nbar > 0) nothing happens until the squeezing
crosses a threshold r_th = ln(2*nbar + 1) / 2.  Run it and watch the
measures switch on together: the source paper's Bures measure e_b and
relative-entropy measure e_s, next to the exact entanglement of formation
e_f.  Last, on pure states, e_b and e_s next to the unrestricted values.
"""

import math

import numpy as np

from gent import (
    SymmetricState,
    bures_entanglement,
    entanglement_of_formation,
    rel_ent_entanglement,
    symmetric_sts,
)

for nbar in (0.0, 0.25, 0.5):
    r_th = 0.5 * math.log(2 * nbar + 1)
    print(f"\nnbar = {nbar}   (threshold r = {r_th:.4f})")
    print(f"{'r':>6} {'kt':>8} {'e_f':>10} {'e_b':>10} {'e_s':>10}")
    for r in np.linspace(0.05, 1.0, 12):
        s = symmetric_sts(float(r), nbar)
        ef = entanglement_of_formation(s)
        eb = bures_entanglement(s).e_b
        es = rel_ent_entanglement(s).e_s
        print(f"{r:6.3f} {s.kappa_tilde_minus:8.4f} {ef:10.6f} {eb:10.6f} {es:10.6f}")

# All three vanish continuously at the separability boundary and grow with
# squeezing past it.  e_f and e_b are both functions of kt alone, falling
# with it, so they order any two states alike.  e_s is not: the pair below
# has e_f and e_b rising from the first state to the second while e_s falls.
print("\nstate (b, c, |d|)      e_f        e_b        e_s")
for s in (SymmetricState(1.0, 0.8, 0.6), SymmetricState(1.2, 1.0, 0.81)):
    ef = entanglement_of_formation(s)
    eb = bures_entanglement(s).e_b
    es = rel_ent_entanglement(s).e_s
    print(f"({s.b}, {s.c}, {s.d_abs}) {ef:10.6f} {eb:10.6f} {es:10.6f}")

# How often does e_s reverse the order e_f gives?  Count over pairs of a
# seeded sample of entangled states.
rng = np.random.default_rng(7)
states = []
while len(states) < 300:
    b = rng.uniform(0.5, 3.0)
    c = rng.uniform(0.0, b)
    d = rng.uniform(0.0, c)
    if (b + d) * (b - c) >= 0.25 and (b - d) * (b - c) < 0.25:
        states.append(SymmetricState(b, c, d))
e_f = np.array([entanglement_of_formation(s) for s in states])
e_s = np.array([rel_ent_entanglement(s).e_s for s in states])
i, j = np.triu_indices(len(states), 1)
reversed_pairs = np.sign(e_f[i] - e_f[j]) != np.sign(e_s[i] - e_s[j])
print(f"\ne_s reverses the e_f order on {reversed_pairs.sum()} of {len(i)} pairs "
      f"({100 * reversed_pairs.mean():.1f}%) of {len(states)} seeded entangled states")

# On pure states the unrestricted measures are known: the Bures measure is
# 1 - sqrt(lambda_0) with lambda_0 = sech^2 r the largest Schmidt coefficient,
# and the relative entropy of entanglement is the entropy of one mode, S_E,
# which is e_f.  The Gaussian restriction leaves e_b exact; e_s stays above S_E.
print(f"\npure states\n{'r':>6} {'e_b':>10} {'1 - sech r':>10} {'e_s':>10} {'S_E':>10} {'e_s - S_E':>10}")
for r in (0.1, 0.3, 0.6, 1.0, 1.5):
    s = symmetric_sts(r)
    eb = bures_entanglement(s).e_b
    es = rel_ent_entanglement(s).e_s
    s_e = entanglement_of_formation(s)
    print(f"{r:6.3f} {eb:10.6f} {1 - 1 / math.cosh(r):10.6f} {es:10.6f} {s_e:10.6f} {es - s_e:10.4f}")
