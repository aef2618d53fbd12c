"""Brute-force ground truth in a truncated number basis.

Gaussian states are realized by Williamson decomposition of the covariance
matrix followed by an Euler (passive - squeeze - passive) factorization of
the symplectic, applied as unitary gates to a product of thermal states.
A state is kept factored, rho = U diag(w) U^dag, with w the thermal-core
weights and their exact logarithm; every functional reads these factors,
and dense matrices are derived only on demand.  Every gate commutes with the
total photon parity (-1)^(n1 + n2) (squeezers move one mode by two photons,
passive gates conserve n1 + n2), and the truncated gates are built one parity
class at a time, so U and rho are exactly block-diagonal in the two classes.
The fidelity and the relative entropy work one parity block at a time; the
entropy is -sum w ln w, since U is unitary.  Truncated states are never
renormalized; the trace deficit is carried so tests can reject inadmissible
truncations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .cm_core import OneModeCM, omega
from .errors import (
    DecompositionFailure,
    DimensionMismatch,
    NonPositiveDefinite,
    SupportViolation,
    TruncationWarning,
    UnphysicalState,
)

TRACE_DEFICIT_TOL = 1e-8
WILLIAMSON_TOL = 1e-9  # reconstruction error of V, relative to its largest entry


@dataclass
class FockOperator:
    """Density operator U diag(weights) U^dag in a truncated number basis.

    ``unitary`` is a product of truncated gate unitaries, unitary to rounding,
    and ``weights`` are the thermal-core populations.  Gates act on
    ``unitary`` alone; its entries between levels of opposite photon parity
    are exact zeros.  ``matrix``, ``log_matrix`` and ``parity_blocks`` are
    derived on first use and cached.

    ``log_weights`` carries ln(weights) exactly: the thermal-core logarithm is
    analytic, so the entropies keep the deep tail that an eigensolver would
    drown in rounding.  It and ``log_matrix`` are None for a pure core.
    """

    unitary: np.ndarray
    weights: np.ndarray
    dim_per_mode: int
    n_modes: int = 1
    trace_deficit: float = 0.0
    log_weights: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.dim_per_mode**self.n_modes

    @cached_property
    def parity_blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """U_p diag(sqrt(w_p)) for the even and odd parity class p.

        U_p is the block of ``unitary`` on the levels ``_parity_classes``
        lists for class p, so each block of ``matrix`` is A_p A_p^dag.
        """
        root = np.sqrt(self.weights)
        return tuple(
            self.unitary[np.ix_(idx, idx)] * root[idx]
            for idx in _parity_classes(self.dim_per_mode, self.n_modes)
        )

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._spectral(self.weights)

    @cached_property
    def log_matrix(self) -> np.ndarray | None:
        """ln rho as a dense matrix; the oracle benchmark (perfbench) reads it."""
        return None if self.log_weights is None else self._spectral(self.log_weights)

    def _spectral(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U^dag."""
        return (self.unitary * values) @ self.unitary.conj().T


@dataclass(frozen=True)
class BeamSplitter:
    theta: float
    phi: float = 0.0


def destroy(n: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, n)), 1)


def quadratures(n: int) -> tuple[np.ndarray, np.ndarray]:
    a = destroy(n)
    q = (a + a.T) / math.sqrt(2)
    p = (a - a.T) / (math.sqrt(2) * 1j)
    return q, p


def thermal_state(nu: float, n: int) -> FockOperator:
    """Thermal state of symplectic eigenvalue nu (mean photons nu - 1/2)."""
    if nu < 0.5 - 1e-9:
        raise UnphysicalState(f"nu = {nu} < 1/2")
    if n < 2:
        raise ValueError("need at least two Fock levels")
    nbar = max(nu - 0.5, 0.0)  # absorb roundoff from upstream decompositions
    if nbar < 1e-12:
        w = np.zeros(n)
        w[0] = 1.0
        log_w = None  # rank deficient
    else:
        ratio = nbar / (nbar + 1.0)
        w = ratio ** np.arange(n) / (nbar + 1.0)
        log_w = np.arange(n) * math.log(ratio) - math.log(nbar + 1.0)
    return FockOperator(
        unitary=np.eye(n, dtype=complex),
        weights=w,
        dim_per_mode=n,
        n_modes=1,
        trace_deficit=float(1.0 - w.sum()),
        log_weights=log_w,
    )


def tensor(a: FockOperator, b: FockOperator) -> FockOperator:
    if a.dim_per_mode != b.dim_per_mode:
        raise DimensionMismatch("per-mode dimensions differ")
    tr_a = 1.0 - a.trace_deficit
    tr_b = 1.0 - b.trace_deficit
    log_ab = None
    if a.log_weights is not None and b.log_weights is not None:
        # ln(A (x) B) = ln A (x) 1 + 1 (x) ln B
        log_ab = np.add.outer(a.log_weights, b.log_weights).ravel()
    return FockOperator(
        unitary=np.kron(a.unitary, b.unitary),
        weights=np.kron(a.weights, b.weights),
        dim_per_mode=a.dim_per_mode,
        n_modes=a.n_modes + b.n_modes,
        trace_deficit=float(1.0 - tr_a * tr_b),
        log_weights=log_ab,
    )


# gate actions ----------------------------------------------------------------
#
# Each gate is applied to the unitary factor through its structure: squeezers
# one mode at a time, passive unitaries one total-photon sector at a time.
# A gate u maps rho = U diag(w) U^dag to (u U) diag(w) (u U)^dag, so the
# weights, their logarithm and the trace deficit carry over unchanged.


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """Freeze arrays that a cache hands to every caller."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


@cache
def _squeeze_generator(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigenpairs of the Hermitian (i/2)(adag^2 - a^2) on the even and on the odd levels.

    The generator moves the photon number by two, so it splits into the two
    parity classes; each is diagonalized alone.  Read-only, shared.
    """
    a = destroy(n)
    gen = 0.5j * (a.T @ a.T - a @ a)
    return tuple(_read_only(*np.linalg.eigh(gen[p::2, p::2])) for p in (0, 1))


def _squeeze_unitary(r: float, n: int) -> np.ndarray:
    """exp((r/2)(adag^2 - a^2)); maps q -> e^r q in the Heisenberg picture.

    Entries between levels of opposite parity are exact zeros.
    """
    u = np.zeros((n, n), dtype=complex)
    for p, (lam, vec) in enumerate(_squeeze_generator(n)):
        u[p::2, p::2] = (vec * np.exp(-1j * r * lam)) @ vec.conj().T
    return u


def _local_action(ops: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """(ops[0] (x) ops[1] ...) @ x for one n x n operator per mode (one or two modes)."""
    if len(ops) == 1:
        return ops[0] @ x
    n, m = ops[0].shape[0], x.shape[1]
    y = (ops[0] @ x.reshape(n, n * m)).reshape(n, n, m)
    return (ops[1] @ y).reshape(n * n, m)


@cache
def _photon_sectors(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-mode levels grouped by total photon number; read-only, shared.

    Row t of the (2n - 1, n) arrays ``n1`` and ``n2`` lists the levels with
    n1 + n2 = t, padded at its end; ``valid`` marks the real ones.
    """
    total = np.arange(2 * n - 1)[:, None]
    n1 = np.maximum(0, total - n + 1) + np.arange(n)
    n2 = total - n1
    return _read_only(n1, n2, (n1 < n) & (n2 >= 0))


@cache
def _parity_classes(n: int, n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """Levels of even and of odd total photon number, as indices; read-only, shared."""
    parity = np.indices((n,) * n_modes).sum(axis=0).ravel() % 2
    return _read_only(np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))


def _passive_action(u: np.ndarray, n: int, x: np.ndarray) -> np.ndarray:
    """Fock-space unitary of a mode-space unitary u (a_j -> sum u_jk a_k), times x.

    Photon number is conserved: one mode picks up a phase per level, and two
    modes mix within each total-photon sector, where the generator is a small
    tridiagonal Hermitian matrix.  The phases e^{i k arg h_01} make every
    sector's generator real; the sectors are diagonalized as one stack,
    padded with zero rows and columns that stay uncoupled.
    """
    if u.shape == (1, 1):
        return np.exp(1j * np.angle(u[0, 0]) * np.arange(n))[:, None] * x
    h = 1j * _logm_unitary(u)  # u = exp(-i h), h Hermitian
    n1, n2, valid = _photon_sectors(n)
    k = np.arange(n)
    gen = np.zeros((2 * n - 1, n, n))
    gen[:, k, k] = np.where(valid, h[0, 0].real * n1 + h[1, 1].real * n2, 0.0)
    # <n1+1, n2-1| a1dag a2 |n1, n2> couples entry k to k + 1 of a sector
    amp = np.where(valid[:, 1:], np.sqrt((n1[:, :-1] + 1) * np.maximum(n2[:, :-1], 0)), 0.0)
    gen[:, k[1:], k[:-1]] = gen[:, k[:-1], k[1:]] = abs(h[0, 1]) * amp
    w, vecs = np.linalg.eigh(gen)
    phase = np.exp(1j * np.angle(h[0, 1]) * k)
    blocks = phase[:, None] * ((vecs * np.exp(-1j * w)[:, None, :]) @ vecs.transpose(0, 2, 1))
    blocks *= phase.conj()
    levels = (n1 * n + n2)[valid]  # row indices of x, sector by sector
    rows = x[levels]
    start = 0
    for block, size in zip(blocks, valid.sum(axis=1)):
        rows[start : start + size] = block[:size, :size] @ rows[start : start + size]
        start += size
    out = np.empty(x.shape, dtype=complex)
    out[levels] = rows
    return out


def _logm_unitary(u: np.ndarray) -> np.ndarray:
    """Principal logarithm of a 2x2 unitary matrix.

    u is normal, so it shares its eigenvectors with the Hermitian
    e^{-i phi} u + e^{i phi} u^dag, whose eigenvalues 2 cos(theta_k - phi) are
    +-2 sin((theta_1 - theta_2)/2) at phi = arg(det u)/2 + pi/2: distinct
    whenever those of u are.
    """
    rotated = np.exp(-1j * (np.angle(np.linalg.det(u)) / 2 + np.pi / 2)) * u
    _, vec = np.linalg.eigh(rotated + rotated.conj().T)
    theta = np.angle(np.diag(vec.conj().T @ u @ vec))
    return (vec * (1j * theta)) @ vec.conj().T


def apply_gate(state: FockOperator, gate: BeamSplitter) -> FockOperator:
    if state.n_modes != 2:
        raise DimensionMismatch("beam splitter needs a two-mode state")
    # wave mixing exp[-(theta/2)(e^{i phi} a1dag a2 - h.c.)]
    c, s = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
    mode_u = np.array([[c, -np.exp(1j * gate.phi) * s], [np.exp(-1j * gate.phi) * s, c]])
    return replace(state, unitary=_passive_action(mode_u, state.dim_per_mode, state.unitary))


# decompositions -------------------------------------------------------------


def williamson(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic S and spectrum kappa_1 >= ... >= kappa_n with V = S D S^T.

    D = diag(kappa_1, kappa_1, ..., kappa_n, kappa_n).  With R = V^{1/2}, the
    Hermitian i R Omega R has eigenvalues -+kappa.  The eigenvectors x + iy of
    the -kappa give orthonormal column pairs sqrt(2) (x, y) of an orthogonal O
    with O^T R Omega R O = kappa J on each pair (also where kappas repeat:
    eigh returns an orthonormal basis of each eigenspace), and
    S = R O D^{-1/2} is symplectic.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    lam, q = np.linalg.eigh(v)
    if lam[0] <= 0:
        raise NonPositiveDefinite("covariance matrix is not positive definite")
    root = (q * np.sqrt(lam)) @ q.T
    om = omega(n)
    ev, z = np.linalg.eigh(1j * root @ om @ root)
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

    Uses the polar decomposition S = O P; the positive symplectic P is
    diagonalized by a passive K built from its eigenvectors, whose partner
    columns are -Omega times the primaries.
    """
    s = np.asarray(s, dtype=float)
    n = s.shape[0] // 2
    om = omega(n)
    w, vec = np.linalg.eigh(s.T @ s)
    p = (vec * np.sqrt(w)) @ vec.T  # (S^T S)^{1/2}
    o = s @ np.linalg.inv(p)
    wz, vz = np.linalg.eigh(p)
    order = np.argsort(-wz)[:n]
    k = np.zeros_like(p)
    zs = []
    chosen = []  # primary columns and their -Omega partners
    for j, i in enumerate(order):
        vec_i = vz[:, i].copy()
        # within degenerate groups (z ~ 1 in particular) the raw eigenvectors
        # need not come in symplectic pairs; project against what is chosen
        for prev in chosen:
            vec_i -= (prev @ vec_i) * prev
        norm = np.linalg.norm(vec_i)
        if norm < 1e-8:
            raise DecompositionFailure("degenerate squeeze subspace defeated pairing")
        vec_i /= norm
        partner = -om @ vec_i
        k[:, 2 * j] = vec_i
        k[:, 2 * j + 1] = partner
        chosen.extend([vec_i, partner])
        zs.append(wz[i])
    z = np.diag([f for zi in zs for f in (zi, 1.0 / zi)])
    k1 = o @ k
    k2 = k.T
    if np.max(np.abs(k1 @ z @ k2 - s)) > 1e-7:
        raise DecompositionFailure("Euler factors do not reproduce S")
    return k1, z, k2


def _passive_mode_unitary(k: np.ndarray) -> np.ndarray:
    """Complex mode-space unitary of a passive (orthogonal symplectic) K."""
    n = k.shape[0] // 2
    u = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for m in range(n):
            blk = k[2 * j : 2 * j + 2, 2 * m : 2 * m + 2]
            if abs(blk[0, 0] - blk[1, 1]) > 1e-8 or abs(blk[0, 1] + blk[1, 0]) > 1e-8:
                raise DecompositionFailure("K is not passive (blocks do not commute with J)")
            u[j, m] = blk[0, 0] + 1j * blk[1, 0]
    return u


def _apply_symplectic(state: FockOperator, s: np.ndarray) -> FockOperator:
    """Unitary action realizing the covariance-matrix congruence W -> S W S^T."""
    n = state.dim_per_mode
    k1, z, k2 = euler_decompose(s)
    squeezes = [_squeeze_unitary(math.log(z[2 * j, 2 * j]), n) for j in range(state.n_modes)]
    u = _passive_action(_passive_mode_unitary(k2), n, state.unitary)
    u = _passive_action(_passive_mode_unitary(k1), n, _local_action(squeezes, u))
    return replace(state, unitary=u)


def gaussian_state_from_cm(v, n: int) -> FockOperator:
    """Build the undisplaced Gaussian state of covariance matrix v.

    Accepts a OneModeCM, a 2x2 or a 4x4 array.
    """
    if isinstance(v, OneModeCM):
        v = v.matrix()
    v = np.asarray(v, dtype=float)
    s, kappas = williamson(v)
    state = thermal_state(float(kappas[0]), n)
    for kappa in kappas[1:]:
        state = tensor(state, thermal_state(float(kappa), n))
    return _apply_symplectic(state, s)


def moments_from_fock(state: FockOperator) -> np.ndarray:
    """Symmetrized second moments of the quadratures."""
    if state.trace_deficit > TRACE_DEFICIT_TOL:
        warnings.warn(
            f"trace deficit {state.trace_deficit:.3e} exceeds {TRACE_DEFICIT_TOL}",
            TruncationWarning,
        )
    n = state.dim_per_mode
    q, p = quadratures(n)
    if state.n_modes == 1:
        ops = [q, p]
    else:
        eye = np.eye(n)
        ops = [np.kron(q, eye), np.kron(p, eye), np.kron(eye, q), np.kron(eye, p)]
    m = len(ops)
    out = np.zeros((m, m))
    rho = state.matrix
    for i in range(m):
        for j in range(i, m):
            sym = 0.5 * (ops[i] @ ops[j] + ops[j] @ ops[i])
            out[i, j] = out[j, i] = float(np.real(np.trace(rho @ sym)))
    return out


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
    parity, so G is too: the sum runs over the SVDs of the two half-size
    blocks A_p^dag B_p.  No eigendecomposition of rho, no dense matrix and no
    clipping; the factors are cached on rho for repeated probes.
    """
    _check_same_dims(rho, rho_p)
    root = sum(
        np.linalg.svd(a.conj().T @ b, compute_uv=False).sum()
        for a, b in zip(rho.parity_blocks, rho_p.parity_blocks)
    )
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
    block-diagonal in photon parity and is formed one block at a time.  An
    empty level of a pure core (ln w' = -inf) that holds population is a
    support violation.
    """
    _check_same_dims(rho_p, rho)
    pops = np.empty(rho.dim)
    for idx in _parity_classes(rho.dim_per_mode, rho.n_modes):
        block = np.ix_(idx, idx)
        overlap = rho.unitary[block].conj().T @ rho_p.unitary[block]
        pops[idx] = rho.weights[idx] @ (overlap.real**2 + overlap.imag**2)
    ln_wp = _ln_weights(rho_p)
    full = np.isfinite(ln_wp)
    if np.any(pops[~full] > 1e-8):
        raise SupportViolation("rho has weight outside the support of rho'")
    return float(-entropy_fock(rho) - pops[full] @ ln_wp[full])
