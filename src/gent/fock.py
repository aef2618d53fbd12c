"""Brute-force ground truth in a truncated number basis.

A one-mode state is its thermal core under one squeezer and one phase.  A
two-mode state is its core, a CM without q-p correlation, under a rotation, a
pair of squeezes and a rotation, and for a CM with q-p correlation under the
local symplectic that reduces it to standard form I, a phase, a squeeze and a
phase per mode.  Every factor is closed-form 2x2 algebra: no np.linalg routine
reads the CM.  A two-mode CM is refused, and its thermal cores are filled, on
the spectrum and rule of ``cm_core.is_physical``; a one-mode CM as
``_one_mode_state`` reads it.
A state is kept factored, rho = U diag(w) U^dag, with w the thermal-core
weights and their exact logarithm; every functional reads these factors,
and dense matrices are derived only on demand.  Every gate commutes with the
total photon parity (-1)^(n1 + n2) (squeezers move one mode by two photons,
passive gates conserve n1 + n2), so U is exactly block-diagonal in the two
parity classes and is stored as its two class blocks, half the size of U
each.  A class lists its levels by mode parity, (even, even) then (odd, odd)
for the even class and (even, odd) then (odd, even) for the odd one, so the
squeezers act on each run as a kron of half-size one-mode blocks; each
total-photon sector lies in one class, where the passive gates act sector by
sector.  The fidelity and the relative entropy read the class blocks; the
entropy is -sum w ln w, since U is unitary.  Truncated states are never
renormalized; the trace deficit is carried so tests can reject inadmissible
truncations.

A two-mode CM whose q-p block is exactly zero is its own core and takes no
phase; that predicate is the only choice of route.  ``williamson`` and
``euler_decompose`` serve tests only, as an independent reference.

Every two-mode passive gate is phases, diagonal in the number basis, and real
rotations that act sector by sector from cached eigenpairs: ``apply_gate``
takes the beam splitter's mode unitary diag(1, e^{-i phi}) R(theta/2)
diag(1, e^{i phi}) from its own angles.  No gate runs an eigensolve, and U
and rho are real float64 arrays unless a nonzero phase acts.  On the
complete sectors n1 + n2 < N the product is the Fock unitary of the mode
unitary; on the truncated ones each factor is the exponential of its
truncated generator.  A gate that is exactly the identity is not applied.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce

import numpy as np

from .cm_core import VACUUM, OneModeCM, _spectrum_and_scale, entry_scale, omega, physical_kappa
from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    NonPositiveDefinite,
    SupportViolation,
    TruncationWarning,
)
from .optics import BeamSplitterParams as BeamSplitter
from .standard_forms import form_I_reduction, svd_2x2, unit_root

TRACE_DEFICIT_TOL = 1e-8
WILLIAMSON_TOL = 1e-9  # reconstruction error of V, relative to its largest entry


@dataclass
class FockOperator:
    """Density operator U diag(weights) U^dag in a truncated number basis.

    U is a product of truncated gate unitaries, unitary to rounding, and is
    stored as ``blocks``: U_0 and U_1, its blocks on the even and on the odd
    parity class, each on the levels ``_parity_classes`` lists for that class
    and in that order.  Gates act on the blocks alone.
    ``weights`` are the thermal-core populations in the number basis.
    ``parity_blocks`` and the dense views ``matrix`` and ``log_matrix`` are
    derived on first use and cached; no functional reads a dense view.

    ``log_weights`` carries ln(weights) exactly: the thermal-core logarithm is
    analytic, so the entropies keep the deep tail that an eigensolver would
    drown in rounding.  It and ``log_matrix`` are None for a pure core.
    """

    blocks: tuple[np.ndarray, np.ndarray]
    weights: np.ndarray
    dim_per_mode: int
    n_modes: int = 1
    trace_deficit: float = 0.0
    log_weights: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.dim_per_mode**self.n_modes

    @property
    def _classes(self) -> tuple[np.ndarray, np.ndarray]:
        return _parity_classes(self.dim_per_mode, self.n_modes)

    @cached_property
    def parity_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """U_p diag(sqrt(w_p)) for the even and odd parity class p.

        w_p are the weights of class p in its level order, so each block of
        ``matrix`` is A_p A_p^dag.
        """
        return tuple(u * np.sqrt(self.weights[idx]) for u, idx in zip(self.blocks, self._classes))

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._spectral(self.weights)

    @cached_property
    def log_matrix(self) -> np.ndarray | None:
        """ln rho as a dense matrix; the oracle benchmark (perfbench) reads it."""
        return None if self.log_weights is None else self._spectral(self.log_weights)

    def _spectral(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U^dag, dense."""
        return self._dense(
            [(u * values[idx]) @ u.conj().T for u, idx in zip(self.blocks, self._classes)]
        )

    def _dense(self, blocks) -> np.ndarray:
        """The matrix with these class blocks and zeros between the classes."""
        out = np.zeros((self.dim, self.dim), dtype=np.result_type(*blocks))
        for idx, block in zip(self._classes, blocks):
            out[np.ix_(idx, idx)] = block
        return out


def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def quadratures(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = destroy(n)
    q = (a + a.T) / math.sqrt(2)
    p = (a - a.T) / (math.sqrt(2) * 1j)
    return q, p


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Freeze arrays that a cache hands to every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@cache
def _parity_classes(n: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels of even and of odd total photon number, as indices in class order; read-only, shared.

    One mode lists its even and its odd levels in ascending order.  A further
    mode lists class p as two runs, (the earlier modes' class q) x (its own
    class p ^ q) for q = 0 then 1, each row-major.  For two modes the even
    class is (even, even) then (odd, odd) and the odd class (even, odd) then
    (odd, even), so a product of one-mode operators acts on each run as the
    kron of their class blocks.
    """
    one = (np.arange(0, n, 2), np.arange(1, n, 2))
    if n_modes == 1:
        return _read_only(*one)
    rest = _parity_classes(n, n_modes - 1)
    return _read_only(
        *(
            np.concatenate([np.add.outer(rest[q] * n, one[p ^ q]).ravel() for q in (0, 1)])
            for p in (0, 1)
        )
    )


def thermal_state(nu: float, n: int) -> FockOperator:
    """Thermal state of symplectic eigenvalue nu, read by ``physical_kappa`` at the one-mode scale 1/2."""
    nbar = physical_kappa(nu, VACUUM) - VACUUM
    if n < 2:
        raise ValueError("need at least two Fock levels")
    if nbar == 0:
        w = np.zeros(n)
        w[0] = 1.0
        log_w = None  # rank deficient
    else:
        ratio = nbar / (nbar + 1.0)
        w = ratio ** np.arange(n) / (nbar + 1.0)
        log_w = np.arange(n) * math.log(ratio) - math.log(nbar + 1.0)
    return FockOperator(
        blocks=(np.eye((n + 1) // 2), np.eye(n // 2)),
        weights=w,
        dim_per_mode=n,
        n_modes=1,
        trace_deficit=float(1.0 - w.sum()),
        log_weights=log_w,
    )


def tensor(a: FockOperator, b: FockOperator) -> FockOperator:
    """a (x) b for a one-mode b: class p of the product is kron(A_q, B_{p^q}), q = 0, 1."""
    if a.dim_per_mode != b.dim_per_mode:
        raise DimensionMismatch("per-mode dimensions differ")
    if b.n_modes != 1:
        raise DimensionMismatch("tensor appends one mode at a time")
    return _product(a, b, _kron_blocks(a.blocks, b.blocks))


def _kron_blocks(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Class blocks of A (x) B from the class blocks of A and of a one-mode B."""
    blocks = []
    for p in (0, 1):
        first, second = (np.kron(a[q], b[p ^ q]) for q in (0, 1))
        k = len(first)
        block = np.zeros((k + len(second),) * 2, dtype=np.result_type(first, second))
        block[:k, :k], block[k:, k:] = first, second
        blocks.append(block)
    return tuple(blocks)


def _product(a: FockOperator, b: FockOperator, blocks) -> FockOperator:
    """The weights of a (x) b, with ``blocks`` as its factor."""
    tr_a = 1.0 - a.trace_deficit
    tr_b = 1.0 - b.trace_deficit
    log_ab = None
    if a.log_weights is not None and b.log_weights is not None:
        # ln(A (x) B) = ln A (x) 1 + 1 (x) ln B
        log_ab = np.add.outer(a.log_weights, b.log_weights).ravel()
    return FockOperator(
        blocks=blocks,
        weights=np.kron(a.weights, b.weights),
        dim_per_mode=a.dim_per_mode,
        n_modes=a.n_modes + b.n_modes,
        trace_deficit=float(1.0 - tr_a * tr_b),
        log_weights=log_ab,
    )


# gate actions ----------------------------------------------------------------
#
# Each gate is applied to the class blocks of the unitary factor through its
# structure: squeezers one mode and one run of ``_parity_classes`` at a time,
# rotations one total-photon sector at a time (each sector lies in one
# class), phases as a diagonal.  A gate u maps rho = U diag(w) U^dag to
# (u U) diag(w) (u U)^dag, so the weights, their logarithm and the trace
# deficit carry over unchanged.  Only phases make a real factor complex.
# Blocks given as None stand for the identity: the gate's own class blocks
# are returned, or None again for a gate of angle 0.


@cache
def _hop_signs(m: int) -> np.ndarray:
    """(-1)^floor((j - k)/2) for j, k < m; read-only, shared."""
    k = np.arange(m)
    return _read_only(1.0 - 2.0 * (np.subtract.outer(k, k) // 2 % 2))[0]


def _exp_hopping(lam: np.ndarray, vecs: np.ndarray, t: float) -> np.ndarray:
    """exp(t A) for real antisymmetric tridiagonal A, real, from B = vecs diag(lam) vecs^T.

    B is symmetric with a zero diagonal and the lower diagonal of A.  With
    D = diag(i^k), A = -i D B D^{-1}, so exp(t A) = D (cos tB - i sin tB) D^{-1}.
    B only hops between neighbours, so cos tB couples levels j - k even and
    sin tB levels j - k odd, where the phases i^{j-k} and -i^{j-k+1} are both
    the sign (-1)^floor((j-k)/2).  Works on stacks of B.
    """
    f = np.cos(t * lam) + np.sin(t * lam)
    return _hop_signs(lam.shape[-1]) * ((vecs * f[..., None, :]) @ np.swapaxes(vecs, -1, -2))


@cache
def _squeeze_generator(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs of (adag^2 + a^2)/2 on the even and on the odd levels.

    (adag^2 - a^2)/2 moves the photon number by two, so it splits into the two
    parity classes, where it is the antisymmetric tridiagonal A of
    ``_exp_hopping`` and this is its B.  Read-only, shared.
    """
    a = destroy(n)
    gen = 0.5 * (a.T @ a.T + a @ a)
    return tuple(_read_only(*np.linalg.eigh(gen[p::2, p::2])) for p in (0, 1))


def _squeeze_blocks(r: float, n: int) -> tuple[np.ndarray, ...]:
    """Class blocks of exp((r/2)(adag^2 - a^2)), real; it maps q -> e^r q in the Heisenberg picture."""
    return tuple(_exp_hopping(lam, vec, r) for lam, vec in _squeeze_generator(n))


def _squeeze_action(squeezes, n: int, blocks) -> tuple[np.ndarray, ...]:
    """The squeezers S1 (x) S2 of (r_1, r_2) on two modes, applied to the rows of class blocks.

    S1 (x) S2 acts on run q of class p, the levels (class q) x (class p ^ q),
    as the kron of S1's block q and S2's block p ^ q.
    """
    if not any(squeezes):
        return blocks
    ops = [_squeeze_blocks(r, n) for r in squeezes]
    if blocks is None:
        return _kron_blocks(*ops)
    out = []
    for p, x in enumerate(blocks):
        y, start = np.empty_like(x), 0
        for q in (0, 1):
            s1, s2 = ops[0][q], ops[1][p ^ q]
            run = slice(start, start + len(s1) * len(s2))
            half = (s1 @ x[run].reshape(len(s1), -1)).reshape(len(s1), len(s2), -1)
            np.matmul(s2, half, out=y[run].reshape(half.shape))
            start = run.stop
        out.append(y)
    return tuple(out)


@cache
def _photon_sectors(n: int) -> tuple[np.ndarray, np.ndarray, tuple[tuple[np.ndarray, ...], ...]]:
    """Two-mode levels grouped by total photon number t = n1 + n2; read-only, shared.

    Sector t lists its levels by rising n1, padded at its end to n entries.
    (``lam``, ``vecs``) are the eigenpairs of the stacked symmetric
    tridiagonal sector matrices with entry (k + 1, k) = <n1+1, n2-1| a1dag a2
    |n1, n2> for the n1, n2 of entry k; padding stays uncoupled.  Entry p of
    ``classes`` holds, for parity class p and its sectors t = p + 2i:
    ``order``, the positions in the class's level order of its levels sector
    by sector, sector i at order[bounds[i]:bounds[i + 1]]; ``pair``, the mask
    of the real entries of its padded sector blocks, and ``flat``, the flat
    positions in the class block that these entries land on.
    """
    total = np.arange(2 * n - 1)[:, None]
    n1 = np.maximum(0, total - n + 1) + np.arange(n)
    n2 = total - n1
    valid = (n1 < n) & (n2 >= 0)
    hop = np.zeros((2 * n - 1, n, n))
    k = np.arange(n - 1)
    hop[:, k + 1, k] = hop[:, k, k + 1] = np.where(
        valid[:, 1:], np.sqrt((n1[:, :-1] + 1) * np.maximum(n2[:, :-1], 0)), 0.0
    )
    classes = []
    for p, idx in enumerate(_parity_classes(n, 2)):
        position = np.zeros(n * n, dtype=np.intp)
        position[idx] = np.arange(len(idx))
        mask = valid[p::2]
        rows = position[np.where(mask, n1[p::2] * n + n2[p::2], 0)]
        bounds = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
        pair = mask[:, :, None] & mask[:, None, :]
        flat = (rows[:, :, None] * len(idx) + rows[:, None, :])[pair]
        classes.append(_read_only(rows[mask], bounds, pair, flat))
    return (*_read_only(*np.linalg.eigh(hop)), tuple(classes))


def _phase_action(angles: tuple[float, ...], n: int, blocks) -> tuple[np.ndarray, ...]:
    """diag(e^{i sum_k angles_k n_k}), the Fock unitary of diag(e^{i angles}), on the rows of class blocks."""
    if not any(angles):
        return blocks
    turns = reduce(np.add.outer, [a * np.arange(n) for a in angles]).ravel()  # e^{+-i pi n} = (-1)^n is real
    levels = np.cos(turns).round() if all(abs(a) in (0.0, math.pi) for a in angles) else np.exp(1j * turns)
    phases = [levels[idx] for idx in _parity_classes(n, len(angles))]
    if blocks is None:
        return tuple(np.diag(ph) for ph in phases)
    return tuple(ph[:, None] * x for ph, x in zip(phases, blocks))


def _rotation_action(theta: float, n: int, blocks) -> tuple[np.ndarray, ...]:
    """Fock unitary of the two-mode rotation R(theta), on the rows of class blocks.

    On each sector it is exp(theta (a2dag a1 - a1dag a2)), real, from the
    cached eigenpairs; it acts on the rows of each class gathered sector by
    sector, or is written into the class blocks.
    """
    if theta == 0:
        return blocks
    lam, vecs, classes = _photon_sectors(n)
    sectors = _exp_hopping(lam, vecs, -theta)
    out = []
    for p, (order, bounds, pair, flat) in enumerate(classes):
        if blocks is None:
            out.append(np.zeros((len(order), len(order))))
            np.put(out[-1], flat, sectors[p::2][pair])
            continue
        rows = blocks[p][order]
        for sector, start, stop in zip(sectors[p::2], bounds[:-1], bounds[1:]):
            rows[start:stop] = sector[: stop - start, : stop - start] @ rows[start:stop]
        y = np.empty_like(rows)
        y[order] = rows
        out.append(y)
    return tuple(out)


def apply_gate(state: FockOperator, gate: BeamSplitter) -> FockOperator:
    """The beam splitter's Fock unitary on a two-mode state, factor by factor, right to left.

    Its mode unitary (a_j -> sum u_jk a_k, read from ``optics.bs_symplectic``) is
    u = diag(1, e^{-i phi}) R(theta/2) diag(1, e^{i phi}); at theta = 0 it is the
    identity and takes no phase, and phi = 0 or pi keeps a real state real.
    """
    if state.n_modes != 2:
        raise DimensionMismatch("beam splitter needs a two-mode state")
    n, phi = state.dim_per_mode, gate.phi if gate.theta else 0.0
    blocks = _phase_action((0.0, phi), n, state.blocks)
    blocks = _rotation_action(gate.theta / 2, n, blocks)
    return replace(state, blocks=_phase_action((0.0, -phi), n, blocks))


# decompositions -------------------------------------------------------------


def williamson(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic S and spectrum kappa_1 >= ... >= kappa_n with V = S D S^T, D = diag(kappa_i, kappa_i).

    The eigenvectors x + iy of the -kappa of i R Omega R, R = V^{1/2}, give the column
    pairs sqrt(2) (x, y) of an orthogonal O with O^T R Omega R O = kappa J, and
    S = R O D^{-1/2}.  Tests take it and ``euler_decompose`` as an independent reference.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    lam, q = np.linalg.eigh(v)
    if lam[0] <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    root = (q * np.sqrt(lam)) @ q.T
    om = omega(n)
    ev, z = np.linalg.eigh(1j * (root @ om @ root))
    kappas = -ev[:n]
    o = math.sqrt(2.0) * np.stack([z[:, :n].real, z[:, :n].imag], axis=2).reshape(2 * n, 2 * n)
    d = np.repeat(kappas, 2)
    s = root @ o / np.sqrt(d)
    symplectic_err = np.max(np.abs(s.T @ om @ s - om))
    reconstruction_err = np.max(np.abs((s * d) @ s.T - v)) / max(1.0, np.max(np.abs(v)))
    if symplectic_err > 1e-7 or reconstruction_err > WILLIAMSON_TOL:
        raise DecompositionFailure("Williamson factors fail the symplectic/reconstruction check")
    return s, kappas


def euler_decompose(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a symplectic S = K1 Z K2 with K passive and Z diagonal squeezes.

    One SVD S = W diag(z) V^T gives the polar factors O = W V^T and P = (S^T S)^{1/2}.  A
    passive K diagonalizes P: its primary columns are P's eigenvectors in order of falling z,
    each projected against the pairs already chosen and passed over below norm 1/2 (so a
    degenerate eigenspace, as of a passive S, still yields symplectic pairs), and its partner
    columns are -Omega times the primaries (P v = z v gives P (-Omega v) = (-Omega v) / z).
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0] // 2
    om = omega(n)
    left, wz, vzt = np.linalg.svd(s)
    o = left @ vzt
    k = np.zeros_like(s)
    zs = []
    chosen = []  # primary columns and their -Omega partners
    for i in np.argsort(-wz):
        if len(zs) == n:
            break
        vec_i = vzt[i].copy()  # column i of V
        for prev in chosen:
            vec_i -= (prev @ vec_i) * prev
        norm = np.linalg.norm(vec_i)
        if norm < 0.5:
            continue
        vec_i /= norm
        partner = -om @ vec_i
        k[:, 2 * len(zs)] = vec_i
        k[:, 2 * len(zs) + 1] = partner
        chosen.extend([vec_i, partner])
        zs.append(wz[i])
    if len(zs) < n:
        raise DecompositionFailure("degenerate squeeze subspace defeated pairing")
    z = np.diag([f for zi in zs for f in (zi, 1.0 / zi)])
    k1 = o @ k
    k2 = k.T
    if np.max(np.abs(k1 @ z @ k2 - s)) > 1e-7:
        raise DecompositionFailure("Euler factors do not reproduce S")
    return k1, z, k2


# the rounding of v_qq v_pp - v_qp^2 per unit of v_qq v_pp + v_qp^2: measured up to 1.5 eps
# on pure rotated CMs, r = 5 to 15 (numpy rng 5)
_DET_ROUNDING = 8 * np.finfo(float).eps


def _principal_axis(x: float, y: float, z: float) -> tuple[float, float, float]:
    """(phi, r, nu) with [[x, y], [y, z]] = nu R(phi) diag(e^{2r}, e^{-2r}) R(phi)^T, nu = sqrt(det V).

    phi turns q onto the nearest principal axis (|phi| <= pi/4, tan 2 phi = 2y / (x - z)), and
    e^{2r} = (x + y tan phi) / nu, or nu / (z - y tan phi) where x + y tan phi < x cancels.  The entries
    are first scaled by a power of two, exactly, so that det V neither overflows nor underflows.
    Raises NonPositiveDefinite unless x > 0 and det V > -8 eps (x z + y^2), its rounding; a det V
    within that rounding of 0 gives nu = r = 0.
    """
    e = (math.frexp(x)[1] + math.frexp(z)[1]) // 2
    x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
    det = x * z - y * y
    if not (x > 0 and det > -_DET_ROUNDING * (x * z + y * y)):  # also a NaN
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    phi = 0.5 * (math.atan2(2 * y, x - z) if x >= z else math.atan2(-2 * y, z - x))
    if det <= 0:
        return phi, 0.0, 0.0
    root, t = math.sqrt(det), y * math.tan(phi)  # t >= 0 for x >= z, else t <= 0
    r = 0.5 * math.log((x + t) / root) if t >= 0 else -0.5 * math.log((z - t) / root)
    return phi, r, math.ldexp(root, e)


def _one_mode_state(v, n: int) -> FockOperator:
    """The thermal core of nu under the squeezer of r and the phase e^{i phi n} (``_principal_axis``).

    A OneModeCM, a diagonal V and a rotated V whose v_qq v_pp overflows are read, and refused,
    by ``OneModeCM.physical_nu`` of the diagonal.  Any other rotated V's det V cancels as a
    two-mode kappa does, so its nu is ``physical_kappa(sqrt(det V))`` at its entry scale, where a
    det V within its rounding of 0 (a pure V with entries above about 1e8 rounds there on about
    half the angles) is refused as ill-conditioned, or below the vacuum at entries of order 1.
    """
    diagonal = v if isinstance(v, OneModeCM) else None
    (x, y), (_, z) = ((v.sigma_qq, 0.0), (0.0, v.sigma_pp)) if diagonal else np.asarray(v, dtype=float).tolist()
    phi, r, root = _principal_axis(x, y, z)
    nu = physical_kappa(root, entry_scale(v)) if y and x * z < math.inf else (diagonal or OneModeCM(x, z)).physical_nu()
    core = thermal_state(nu, n)
    return replace(core, blocks=_phase_action((phi,), n, _squeeze_blocks(r, n) if r else core.blocks))


def _quarter_turns(t: float) -> int:
    """The k that leaves t - k pi/2 in (-pi/4 + 1e-9, pi/4 + 1e-9]: rounding leaves the 50:50 beam
    splitter of a core with b1 = b2 about 1e-15 from pi/4 or -pi/4, and every one turns by +pi/4."""
    return math.ceil((t - math.pi / 4 - 1e-9) / (math.pi / 2))


def _core_factors(vq, vp, kappas) -> tuple[tuple[float, float], float, tuple[float, float], float]:
    """(kappas of modes 1 and 2, t2, (r1, r2), t1) of a two-mode V without q-p correlation.

    V = V_q (+) V_p in the ordering (q1, q2, p1, p2), each given as (x00, x01, x11), is
    S (kappa (+) kappa) S^T with S = M (+) M^{-T}, M = R(t1) diag(e^r1, e^r2) R(t2)^T, and
    ``kappas`` = (kappa_+, kappa_-) read from the spectrum.  Uncorrelated modes take no rotation,
    and equal diagonals (b1 = b2) the paper's 50:50 beam splitter R(pi/4): mode i then has
    variances (q_i, p_i), r_i = ln(q_i / p_i) / 4 and the kappa of rank q_i p_i.  Otherwise
    M = V_q^{1/2} R(o) kappa^{-1/2}, R(o) the left rotation of V_q^{1/2} V_p^{1/2}, whose singular
    values are the kappas.  A quarter turn of t1 swaps the squeezes and one of t2 the kappas, so
    both lie in [-pi/4, pi/4]; equal kappas commute with R(t2), which is then left out.
    """
    (q0, q1, q2), (p0, p1, p2) = vq, vp
    if not (q1 or p1) or (q0 == q2 and p0 == p2):  # uncorrelated modes, or the 50:50 beam splitter
        t1, modes = (math.pi / 4, ((q0 + q1, p0 + p1), (q0 - q1, p0 - p1))) if q1 or p1 else (0.0, ((q0, p0), (q2, p2)))
        k = kappas if modes[0][0] * modes[0][1] >= modes[1][0] * modes[1][1] else kappas[::-1]
        return k, 0.0, tuple(0.25 * math.log(q / p) for q, p in modes), t1
    bq, (a0, a1, _, a2) = unit_root(q0, q1, q1, q2)
    _, (c0, c1, _, c2) = unit_root(p0, p1, p1, p2)
    o = svd_2x2(a0 * c0 + a1 * c1, a0 * c1 + a1 * c2, a1 * c0 + a2 * c1, a1 * c1 + a2 * c2)[0]
    cos, sin, f0, f1 = math.cos(o), math.sin(o), math.sqrt(bq / kappas[0]), math.sqrt(bq / kappas[1])
    m = (a0 * cos + a1 * sin) * f0, (a1 * cos - a0 * sin) * f1, (a1 * cos + a2 * sin) * f0, (a2 * cos - a1 * sin) * f1
    t1, e1, e2, t2 = svd_2x2(*m)  # of M = sqrt(bq) A R(o) kappa^{-1/2}
    turns = _quarter_turns(t1)
    t1, t2 = t1 - turns * (math.pi / 2), t2 - turns * (math.pi / 2)
    squeezes = (math.log(e2), math.log(e1)) if turns % 2 else (math.log(e1), math.log(e2))
    if kappas[0] == kappas[1]:
        return kappas, 0.0, squeezes, t1
    turns = _quarter_turns(t2)
    return (kappas[::-1] if turns % 2 else kappas), t2 - turns * (math.pi / 2), squeezes, t1


def _two_mode_factors(v: np.ndarray, kappas: tuple[float, float]):
    """(kappas of modes 1 and 2, gates): the gates (action, angles or squeezes) that take the thermal cores to V.

    A V without q-p correlation is its own core: R(t2)^T, the squeezes and R(t1), all real.  Any
    other V is L V_I L^T with its standard form I V_I the core and L = M1 (+) M2, M_i = N_i^{-1} R(a_i)
    (``form_I_reduction``), N_i^{-1} = (V_i / b_i)^{1/2} = R(phi_i) diag(e^s_i, e^-s_i) R(phi_i)^T
    (``_principal_axis``): M_i is the phase a_i - phi_i, the squeeze s_i and the phase phi_i.
    """
    (v00, v01, v02, v03), (_, v11, v12, v13), (_, _, v22, v23), (_, _, _, v33) = v.tolist()
    vq, vp, local = (v00, v02, v22), (v11, v13, v33), []
    if v01 or v03 or v12 or v23:
        form, (a1, a2) = form_I_reduction(v)
        vq, vp = (form.b1, form.c, form.b2), (form.b1, form.d, form.b2)
        (phi1, s1, _), (phi2, s2, _) = _principal_axis(v00, v01, v11), _principal_axis(v22, v23, v33)
        local = [(_phase_action, (a1 - phi1, a2 - phi2)), (_squeeze_action, (s1, s2)), (_phase_action, (phi1, phi2))]
    kappas, t2, squeezes, t1 = _core_factors(vq, vp, kappas)
    return kappas, [(_rotation_action, -t2), (_squeeze_action, squeezes), (_rotation_action, t1), *local]


def gaussian_state_from_cm(v, n: int) -> FockOperator:
    """Build the undisplaced Gaussian state of covariance matrix v: a OneModeCM, a 2x2 or a 4x4 array.

    One mode is ``_one_mode_state``.  A 4x4 V is first decided as ``cm_core.is_physical`` decides
    it, on the spectrum and entry scale of its one reduction (``standard_forms.form_I_record``):
    NonPositiveDefinite, UnphysicalState (``kappa_-``) or NumericalDegeneracy.  Its thermal cores
    take ``physical_kappa(kappa_+-, scale)``, exactly 1/2 within the band, and its gates
    (``_two_mode_factors``) act on their class blocks in turn.  No np.linalg routine reads V.
    """
    if isinstance(v, OneModeCM) or np.shape(v) == (2, 2):
        return _one_mode_state(v, n)
    v = np.asarray(v, dtype=float)
    if v.shape != (4, 4):
        raise DimensionMismatch(f"a CM of one or two modes is 2x2 or 4x4, got shape {v.shape}")
    spec, scale = _spectrum_and_scale(v)  # cm_core.is_physical's spectrum and rule, before any factor
    minus = physical_kappa(spec.kappa_minus, scale, "kappa_-")
    kappas, gates = _two_mode_factors(v, (physical_kappa(spec.kappa_plus, scale), minus))
    blocks = reduce(lambda blocks, gate: gate[0](gate[1], n, blocks), gates, None)  # None: the identity
    cores = [thermal_state(kappa, n) for kappa in kappas]
    return tensor(*cores) if blocks is None else _product(*cores, blocks)


def moments_from_fock(state: FockOperator) -> np.ndarray:
    """Symmetrized second moments of the quadratures, ordered (q1, p1, q2, p2).

    With rho = A A^dag and Hermitian quadratures, Tr(rho O_i O_j) =
    <O_i A, O_j A> (Frobenius), and its real part is the symmetrized moment.
    A is the square-root factor ``parity_blocks`` written out densely, and
    each O_i acts on its mode's axis of the rows of A: one small matmul per
    quadrature, and no operator-operator product.
    """
    if state.trace_deficit > TRACE_DEFICIT_TOL:
        warnings.warn(
            f"trace deficit {state.trace_deficit:.3e} exceeds {TRACE_DEFICIT_TOL}",
            TruncationWarning,
        )
    n = state.dim_per_mode
    a = state._dense(state.parity_blocks)
    x = np.stack(
        [(op @ a.reshape(n**mode, n, -1)).ravel() for mode in range(state.n_modes) for op in quadratures(n)]
    )
    gram = (x.conj() @ x.T).real
    return 0.5 * (gram + gram.T)


# scalar functionals ----------------------------------------------------------


def _check_same_dims(a: FockOperator, b: FockOperator) -> None:
    if a.dim_per_mode != b.dim_per_mode or a.n_modes != b.n_modes:
        raise DimensionMismatch("operators live in different truncated spaces")


def fidelity_fock(rho: FockOperator, rho_p: FockOperator) -> float:
    """Uhlmann fidelity (Tr[(sqrt(rho) rho' sqrt(rho))^{1/2}])^2.

    With square-root factors A of rho and B of rho' (rho = A A^dag),
    G = A^dag B has G G^dag = diag(sqrt(w)) U^dag rho' U diag(sqrt(w)), unitarily
    similar to sqrt(rho) rho' sqrt(rho), so the root fidelity is the sum of
    the singular values of G.  Both states are block-diagonal in photon
    parity, so G is too: the sum runs over the SVDs of the two class blocks
    G_p = A_p^dag U'_p diag(sqrt(w'_p)), read from the stored blocks.  No
    eigendecomposition of rho, no dense matrix and no clipping; A_p is cached
    on rho for repeated probes, and rho' is read as it is.
    """
    _check_same_dims(rho, rho_p)
    root = 0.0
    for a, u_p, idx in zip(rho.parity_blocks, rho_p.blocks, rho_p._classes):
        g = a.conj().T @ u_p
        g *= np.sqrt(rho_p.weights[idx])
        root += np.linalg.svd(g, compute_uv=False).sum()
    return float(root**2)


def _ln_weights(rho: FockOperator) -> np.ndarray:
    """ln of the core weights; -inf on the empty levels of a pure core."""
    if rho.log_weights is not None:
        return rho.log_weights
    with np.errstate(divide="ignore"):
        return np.log(rho.weights)


def entropy_fock(rho: FockOperator) -> float:
    """von Neumann entropy -sum w ln w of the core weights, in nats (U is unitary)."""
    full = rho.weights > 0
    return float(-rho.weights[full] @ _ln_weights(rho)[full])


def rel_entropy_fock(rho_p: FockOperator, rho: FockOperator) -> float:
    """Tr[rho (ln rho - ln rho')] in nats; raises when the support leaks.

    rho puts the population pops_j = sum_i w_i |(U^dag U')_ij|^2 on level j of
    rho' = U' diag(w') U'^dag, so Tr[rho ln rho'] = pops . ln w'.  U^dag U' is
    block-diagonal in photon parity and is formed one class block at a time.
    An empty level of a pure core (ln w' = -inf) that holds population is a
    support violation.
    """
    _check_same_dims(rho_p, rho)
    ln_wp = _ln_weights(rho_p)
    cross = 0.0
    for idx, u, u_p in zip(rho._classes, rho.blocks, rho_p.blocks):
        overlap = u.conj().T @ u_p
        pops = rho.weights[idx] @ (overlap.real**2 + overlap.imag**2)
        ln_w = ln_wp[idx]
        full = np.isfinite(ln_w)
        if np.any(pops[~full] > 1e-8):
            raise SupportViolation("rho has weight outside the support of rho'")
        cross += pops[full] @ ln_w[full]
    return float(-entropy_fock(rho) - cross)
