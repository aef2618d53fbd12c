"""Brute-force ground truth in a truncated number basis.

A one-mode state, diagonal or rotated, is its thermal core under one
squeezer along its principal axis and one phase, in closed form.  A two-mode
state is realized by a Williamson decomposition of the covariance matrix
followed by an Euler (passive - squeeze - passive) factorization of the
symplectic, applied as unitary gates to a product of thermal states.  A
two-mode CM is refused, and its thermal cores are filled, on the closed-form
spectrum and the threshold rule of ``cm_core.is_physical``, so the
factorizations only build gates; a OneModeCM and a diagonal one-mode CM on
``OneModeCM.physical_nu``, as every one-mode function reads it, and a
rotated one on its sqrt(det V) at its entry scale.
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

A two-mode covariance matrix whose q-p block is exactly zero (V = T V T with
T = diag(1, -1, 1, -1)) is factored in mode space, from its q and p blocks,
into rotations and squeezes.  Any other two-mode matrix takes ``williamson``
and ``euler_decompose``.  That predicate is the only choice of route; the
factorizations, ``_passive_mode_unitary`` and the passive and squeeze
actions serve two modes only.

Every two-mode passive gate, of either route and of ``apply_gate``, is its mode
unitary u = diag(e^{i alpha}) R(theta) diag(e^{i beta}): phases, diagonal
in the number basis, around one real rotation that acts sector by sector
from cached eigenpairs.  No gate runs an eigensolve, and U and rho are real
float64 arrays (half the memory, a fraction of the arithmetic) unless a
nonzero phase acts, as it never does on the real route.  On the complete
sectors n1 + n2 < N the product is the Fock unitary of u; on the truncated
ones each factor is the exponential of its truncated generator.  A gate
that is exactly the identity is not applied.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property, reduce

import numpy as np

from .cm_core import VACUUM, OneModeCM, _spectrum_and_scale, entry_scale, omega, physical_kappa, sqrt_cm
from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    NonPositiveDefinite,
    SupportViolation,
    TruncationWarning,
)
from .optics import BeamSplitterParams as BeamSplitter
from .optics import bs_symplectic

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


def _mode_angles(u: np.ndarray) -> tuple[tuple[float, ...], float, tuple[float, ...]]:
    """(alpha, theta, beta) with u = diag(e^{i alpha}) R(theta) diag(e^{i beta}), R(theta) = [[c, -s], [s, c]].

    A rotation (no imaginary part, det u = +1) takes theta = atan2(u10, u00)
    and no phases.  Any other two-mode u is e^{ig} D(x) R(theta) D(y) with
    D(x) = diag(e^{ix}, e^{-ix}) and g = arg(det u)/2 (Reck et al., PRL 73,
    58 (1994)): the first column of e^{-ig} u, an SU(2) matrix, is
    (e^{i(x+y)} cos theta, e^{i(y-x)} sin theta) and fixes the second.
    """
    r = u.real
    if not u.imag.any() and r[0, 0] * r[1, 1] > r[0, 1] * r[1, 0]:
        return (0.0, 0.0), math.atan2(r[1, 0], r[0, 0]), (0.0, 0.0)
    g = cmath.phase(u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]) / 2
    xy, yx = (cmath.phase(cmath.exp(-1j * g) * w) for w in u[:, 0])  # x + y and y - x
    x, y = (xy - yx) / 2, (xy + yx) / 2
    return (g + x, g - x), math.atan2(abs(u[1, 0]), abs(u[0, 0])), (y, -y)


def _phase_action(angles: tuple[float, ...], n: int, blocks) -> tuple[np.ndarray, ...]:
    """diag(e^{i sum_k angles_k n_k}), the Fock unitary of diag(e^{i angles}), on the rows of class blocks."""
    if not any(angles):
        return blocks
    levels = np.exp(1j * reduce(np.add.outer, [a * np.arange(n) for a in angles]).ravel())
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


def _passive_action(u: np.ndarray, n: int, blocks) -> tuple[np.ndarray, ...]:
    """Fock-space unitary of a mode-space unitary u (a_j -> sum u_jk a_k), on the rows of class blocks.

    u = diag(e^{i alpha}) R(theta) diag(e^{i beta}) (``_mode_angles``) acts
    factor by factor, right to left.
    """
    alpha, theta, beta = _mode_angles(u)
    blocks = _phase_action(beta, n, blocks)
    blocks = _rotation_action(theta, n, blocks)
    return _phase_action(alpha, n, blocks)


def apply_gate(state: FockOperator, gate: BeamSplitter) -> FockOperator:
    if state.n_modes != 2:
        raise DimensionMismatch("beam splitter needs a two-mode state")
    u = _passive_mode_unitary(bs_symplectic(gate))
    return replace(state, blocks=_passive_action(u, state.dim_per_mode, state.blocks))


# decompositions -------------------------------------------------------------


def williamson(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic S and spectrum kappa_1 >= ... >= kappa_n with V = S D S^T.

    D = diag(kappa_1, kappa_1, ..., kappa_n, kappa_n).  R = V^{1/2} comes from
    ``cm_core.sqrt_cm``, and the Hermitian i R Omega R, i times a real antisymmetric
    matrix, has eigenvalues -+kappa.  The eigenvectors x + iy of the
    -kappa give orthonormal column pairs sqrt(2) (x, y) of an orthogonal O
    with O^T R Omega R O = kappa J on each pair (also where kappas repeat:
    eigh returns an orthonormal basis of each eigenspace), and
    S = R O D^{-1/2} is symplectic.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    root = sqrt_cm(v)
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

    Uses the polar decomposition S = O P.  One SVD S = W diag(z) V^T gives the
    eigenpairs (z, V) of P = (S^T S)^{1/2} and O = W V^T, with an error of order
    eps cond(S); an eigh of S^T S would square the condition number.
    The positive symplectic P is diagonalized by a passive K built from its
    eigenvectors, whose partner columns are -Omega times the primaries (P v =
    z v gives P (-Omega v) = (-Omega v) / z).  Primaries are taken in order of
    falling z, each projected against the pairs already chosen.  Within a
    degenerate eigenspace (all of it for a passive S, where P = I) the raw
    eigenvectors need not come in symplectic pairs, and one that the chosen
    pairs already span, or nearly, is passed over for the next.  Until half of
    an eigenspace of dimension 2m is chosen, one of its eigenvectors not yet
    passed over keeps a residual of norm at least 1/sqrt(m), so the cut-off
    1/2 always finds the primaries for up to four modes.
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


def _passive_mode_unitary(k: np.ndarray) -> np.ndarray:
    """Complex mode-space unitary of a passive (orthogonal symplectic) K."""
    n = k.shape[0] // 2
    blk = k.reshape(n, 2, n, 2)  # blk[j, :, m, :] is the 2x2 block of modes j and m
    a, b, c, d = blk[:, 0, :, 0], blk[:, 0, :, 1], blk[:, 1, :, 0], blk[:, 1, :, 1]
    if np.max(np.abs(a - d)) > 1e-8 or np.max(np.abs(b + c)) > 1e-8:
        raise DecompositionFailure("K is not passive (blocks do not commute with J)")
    return a + 1j * c


def _nearest_rotation(r: np.ndarray) -> tuple[list[int], np.ndarray]:
    """Column order and signs that turn the 2x2 orthogonal r into the rotation nearest I.

    The columns swap when the off-diagonal outweighs the diagonal (ties
    stay), then signs make det +1 and the trace positive, so the angle lies
    in [-pi/4, pi/4]: a truncated rotation is exact only on the complete
    sectors, and no factor should turn by 90 or 180 degrees needlessly.
    """
    order = [1, 0] if abs(r[0, 1]) + abs(r[1, 0]) > abs(r[0, 0]) + abs(r[1, 1]) else [0, 1]
    q = r[:, order]
    det_sign = np.sign(q[0, 0] * q[1, 1] - q[0, 1] * q[1, 0])
    return order, np.sign(q[0, 0] + det_sign * q[1, 1]) * np.array([1.0, det_sign])


def _qp_free_factors(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Williamson and Euler factors, all real, of a two-mode V with no q-p correlation.

    In the ordering (q1, q2, p1, p2) such a V is V_q (+) V_p, and the
    symplectic S = M (+) M^{-T} with M = V_q^{1/2} O kappa^{-1/2} gives
    V = S (kappa (+) kappa) S^T, where V_q^{1/2} V_p V_q^{1/2} = O kappa^2 O^T.
    The SVD M = R1 e^r R2^T is S = K1 Z K2 with K1 = R1 (+) R1,
    K2 = R2^T (+) R2^T and the squeezes Z = e^r (+) e^{-r}, its columns
    reordered and signed so that R1, then R2^T, is the rotation nearest I
    (``_nearest_rotation``; a column of R2^T takes its kappa along).
    Returns (kappas, R2^T, r, R1): the mode-space unitaries of K2 and K1 are
    the rotations themselves.
    """
    vq, vp = v[::2, ::2], v[1::2, 1::2]
    root = sqrt_cm(vq)
    kappa_sq, o = np.linalg.eigh(root @ vp @ root)
    kappas = np.sqrt(kappa_sq)
    r1, e, r2t = np.linalg.svd(root @ o / np.sqrt(kappas))
    order, signs = _nearest_rotation(r1)  # M = R1 e R2^T for any common order and signs
    r1, e, r2t = r1[:, order] * signs, e[order], r2t[order] * signs[:, None]
    order, signs = _nearest_rotation(r2t)  # M P D factors V as well, with the kappas reordered by P
    r2t, kappas = r2t[:, order] * signs, kappas[order]
    mq, mp = (r1 * e) @ r2t, (r1 / e) @ r2t  # the q and p blocks of S
    symplectic_err = np.max(np.abs(mq @ mp.T - np.eye(len(e))))
    reconstruction_err = max(
        np.max(np.abs((mq * kappas) @ mq.T - vq)), np.max(np.abs((mp * kappas) @ mp.T - vp))
    ) / max(1.0, np.max(np.abs(v)))
    if symplectic_err > 1e-7 or reconstruction_err > WILLIAMSON_TOL:
        raise DecompositionFailure("mode-space factors fail the symplectic/reconstruction check")
    return kappas, r2t, np.log(e), r1


# the rounding of v_qq v_pp - v_qp^2 per unit of v_qq v_pp + v_qp^2: measured up to 1.5 eps
# on pure rotated CMs, r = 5 to 15 (numpy rng 5)
_DET_ROUNDING = 8 * np.finfo(float).eps


def _one_mode_state(v, n: int) -> FockOperator:
    """The one-mode state of V = R(phi) diag(nu e^{2r}, nu e^{-2r}) R(phi)^T, in closed form.

    It is the thermal core of nu, the squeezer of r and the phase e^{i phi n},
    the Fock unitary of R(phi).  phi turns q onto the principal axis nearest
    it, |phi| <= pi/4 from tan 2 phi = 2 v_qp / (v_qq - v_pp), so a diagonal V
    takes phi = 0 and no phase; e^{2r} = (v_qq + v_qp tan phi) / sqrt(det V)
    is V's variance along that axis over nu.  A OneModeCM or a diagonal V is
    read, and refused, by ``OneModeCM.physical_nu``.  A rotated V that is not
    positive definite raises NonPositiveDefinite with ``sqrt_cm``'s message;
    its det V cancels as a two-mode kappa does, so its nu is
    ``physical_kappa(sqrt(det V))`` at its entry scale.  A det V at or below 0 but
    within its rounding, 8 eps (v_qq v_pp + v_qp^2), is read as nu = 0 (a pure V
    with entries above about 1e8 rounds there on about half the angles), which
    ``physical_kappa`` refuses as ill-conditioned at that scale, and as below the
    vacuum at entries of order 1.  No np.linalg routine reads V.
    """
    one = isinstance(v, OneModeCM)
    (x, y), (_, z) = ((v.sigma_qq, 0.0), (0.0, v.sigma_pp)) if one else np.asarray(v, dtype=float).tolist()
    det = x * z - y * y
    if y and not (x > 0 and det > -_DET_ROUNDING * (x * z + y * y)):  # also a NaN
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    nu = physical_kappa(math.sqrt(max(det, 0.0)), entry_scale(v)) if y else (v if one else OneModeCM(x, z)).physical_nu()
    phi = 0.5 * (math.atan2(2 * y, x - z) if x >= z else math.atan2(-2 * y, z - x))
    r = 0.5 * math.log((x + y * math.tan(phi)) / math.sqrt(det))
    core = thermal_state(nu, n)
    return replace(core, blocks=_phase_action((phi,), n, _squeeze_blocks(r, n) if r else core.blocks))


def gaussian_state_from_cm(v, n: int) -> FockOperator:
    """Build the undisplaced Gaussian state of covariance matrix v.

    Accepts a OneModeCM, a 2x2 or a 4x4 array.  One mode, diagonal or rotated,
    is a thermal core under one squeezer and one phase (``_one_mode_state``).
    A 4x4 V = S D S^T with S = K1 Z K2 is realized as the thermal cores of D
    under the passive unitary of K2, written directly into the class blocks
    and without its right phases (diagonal, as the cores are, they leave rho
    as it is), then the squeezers of Z and the passive unitary of K1, acting on
    those blocks.  A gate that is exactly the identity is skipped: until one
    acts, the cores' identity blocks stand.  A 4x4 V with no q-p correlation
    (V = T V T, T = diag(1, -1, 1, -1)) takes ``_qp_free_factors``, any other
    V ``williamson`` and ``euler_decompose``.

    A 4x4 V is first decided on the spectrum and entry scale that ``cm_core`` keeps for
    the last matrix, as ``cm_core.is_physical`` decides it and before any eigensolve:
    NonPositiveDefinite, UnphysicalState below the vacuum (named ``kappa_-``) or
    NumericalDegeneracy where the rule cannot decide.  Its cores take
    ``physical_kappa(kappa_+-, scale)`` of that spectrum, matched to the factors' modes by
    rank.  Within its band of 1/2 a kappa is exactly 1/2 and its core pure.
    """
    if isinstance(v, OneModeCM) or np.shape(v) == (2, 2):
        return _one_mode_state(v, n)
    v = np.asarray(v, dtype=float)
    if v.shape != (4, 4):
        raise DimensionMismatch(f"a CM of one or two modes is 2x2 or 4x4, got shape {v.shape}")
    spec, scale = _spectrum_and_scale(v)  # cm_core.is_physical's spectrum and rule, before any eigensolve
    exact = [physical_kappa(spec.kappa_minus, scale, "kappa_-"), physical_kappa(spec.kappa_plus, scale)]
    if v[::2, 1::2].any():
        s, kappas = williamson(v)
        k1, z, k2 = euler_decompose(s)
        first, last = _passive_mode_unitary(k2), _passive_mode_unitary(k1)
        squeezes = np.log(np.diag(z)[::2])
    else:
        kappas, first, squeezes, last = _qp_free_factors(v)
    # matched to the factors' modes by rank
    cores = [thermal_state(kappa, n) for kappa in (exact if kappas[0] <= kappas[-1] else exact[::-1])]
    alpha, theta, _ = _mode_angles(first)
    blocks = _phase_action(alpha, n, _rotation_action(theta, n, None))  # None: the identity
    if any(squeezes):
        blocks = _squeeze_action(squeezes, n, blocks)
    blocks = _passive_action(last, n, blocks)
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
