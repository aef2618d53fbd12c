"""Shared fixtures: seeded RNG, random-state factories and a CM file writer."""

import json
import os

# Before numpy loads OpenBLAS: the Fock oracle's matrices (up to 400 x 400) run
# slower on two threads than on one on a 2-core machine.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from gent.standard_forms import SymmetricState, symmetric_sts  # noqa: E402

# Two symmetric states with identical kappa_tilde_minus = sqrt(0.08) but
# different relative-entropy entanglement (acceptance fixture).
EQUAL_KT_PAIR = (
    SymmetricState(b=1.0, c=0.8, d_abs=0.6),
    SymmetricState(b=1.2, c=1.0, d_abs=0.8),
)

# Two entangled symmetric states that E_F and E_B order one way and E_S the
# other: E_F 0.2939 -> 0.3037, E_B 0.03924 -> 0.04095, E_S 0.1990 -> 0.1854.
E_S_REVERSAL_PAIR = (
    SymmetricState(b=1.0, c=0.8, d_abs=0.6),
    SymmetricState(b=1.2, c=1.0, d_abs=0.81),
)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_entangled_symmetric(rng, n, b_lo=0.5, b_hi=3.0, kt_sq_cap=0.2499):
    """Rejection-sample physical entangled SymmetricState instances.

    kt_sq_cap keeps kappa_tilde_minus away from 1/2; the lower cut keeps the
    states away from the (unnormalizable) EPR limit.
    """
    out = []
    while len(out) < n:
        b = rng.uniform(b_lo, b_hi)
        c = rng.uniform(0.0, b)
        d = rng.uniform(0.0, c)
        if (b + d) * (b - c) < 0.25:  # unphysical
            continue
        kt_sq = (b - d) * (b - c)
        if not 1e-4 < kt_sq < kt_sq_cap:
            continue
        out.append(SymmetricState(b, c, d))
    return out


def random_local_symplectic(rng, r_max=0.8):
    """Random block-diagonal S1 (+) S2 with each 2x2 block of determinant 1,
    a rotation, a squeeze by up to e^r_max and a rotation."""
    out = np.zeros((4, 4))
    for k in (0, 2):
        phi, r, psi = rng.uniform(-np.pi, np.pi), rng.uniform(-r_max, r_max), rng.uniform(-np.pi, np.pi)
        rot = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        out[k : k + 2, k : k + 2] = rot(phi) @ np.diag([np.exp(r), np.exp(-r)]) @ rot(psi)
    return out


def squeezed_pure_cms(rng, n, r_lo, r_hi):
    """n pairs (symmetric_sts(r), its CM under a random local symplectic), r uniform."""
    for _ in range(n):
        state, t = symmetric_sts(rng.uniform(r_lo, r_hi)), random_local_symplectic(rng)
        yield state, t @ state.to_cm() @ t.T


def random_physical_cm(rng, nu_floor=0.55):
    """Random physical 4x4 CM, bounded away from the physicality boundary."""
    s = random_local_symplectic(rng) @ _random_bs(rng)
    d = np.repeat(rng.uniform(nu_floor, 1.5, size=2), 2)
    return s @ np.diag(d) @ s.T


def _random_bs(rng):
    from gent.optics import BeamSplitterParams, bs_symplectic

    return bs_symplectic(
        BeamSplitterParams(theta=rng.uniform(0, np.pi), phi=rng.uniform(-np.pi, np.pi))
    )


def dump_cm_json(v, path) -> None:
    """Write a CM as the JSON file {"v": [[...], ...]} that ``cm_core.load_cm_json`` reads."""
    with open(path, "w") as fh:
        json.dump({"v": np.asarray(v, dtype=float).tolist()}, fh, indent=1)
