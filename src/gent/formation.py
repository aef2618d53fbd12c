"""Entanglement of formation of symmetric two-mode Gaussian states.

Giedke, Wolf, Krueger, Werner and Cirac, PRL 91, 107901 (2003) give, for a
symmetric state, E_F = c+ ln c+ - c- ln c- with c+- = (D^(-1/2) +- D^(1/2))^2/4
and D = 2 kt (their vacuum variance is 1, ours 1/2).  Since c+ - c- = 1, E_F
is the entropy of one mode with symplectic eigenvalue
nu_F = (c+ + c-)/2 = (1 + 4 kt^2)/(8 kt).  Like E_B it is a function of kt
alone, falling strictly with it; E_S is not (see EQUAL_KT_PAIR in the tests).
"""

from __future__ import annotations

from .relent import _entropy_excess
from .scalar import SymmetricState


def entanglement_of_formation(s: SymmetricState) -> float:
    """E_F in nats: 0 for a separable state, else the entropy at nu_F.

    nu_F - 1/2 = c- = (1 - 2 kt)^2 / (8 kt) is formed as a square, so that
    nothing cancels near kt = 1/2.
    """
    if s.is_separable():  # raises UnphysicalState
        return 0.0
    kt = s.kappa_tilde_minus
    return _entropy_excess((1 - 2 * kt) ** 2 / (8 * kt))
