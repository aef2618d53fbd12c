"""Brute-force ground truth in a truncated number basis.

Gaussian states are realized by Williamson decomposition of the covariance
matrix followed by an Euler (passive - squeeze - passive) factorization of
the symplectic, applied as unitary gates to a product of thermal states.
A state is kept factored, rho = U diag(w) U^dag, with w the thermal-core
weights; dense matrices are derived on demand.  Truncated states are never
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
    SupportViolation,
    TruncationWarning,
    UnphysicalState,
)

TRACE_DEFICIT_TOL = 1e-8


@dataclass
class FockOperator:
    """Density operator U diag(weights) U^dag in a truncated number basis.

    ``unitary`` is a product of truncated gate unitaries, unitary to rounding,
    and ``weights`` are the thermal-core populations.  Gates act on
    ``unitary`` alone.  ``matrix``, ``log_matrix`` and ``sqrt_factor`` are
    derived on first use and cached.

    ``log_weights`` carries ln(weights) exactly: the thermal-core logarithm is
    analytic, while eigh-based logs lose the deep tail (eigenvalues below
    machine noise), which matters for relative entropies.  It and
    ``log_matrix`` are None for a pure core.
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
    def sqrt_factor(self) -> np.ndarray:
        """U diag(sqrt(w)), so that matrix = sqrt_factor sqrt_factor^dag."""
        return self.unitary * np.sqrt(self.weights)

    @cached_property
    def matrix(self) -> np.ndarray:
        return self._spectral(self.weights)

    @cached_property
    def log_matrix(self) -> np.ndarray | None:
        return None if self.log_weights is None else self._spectral(self.log_weights)

    def _spectral(self, values: np.ndarray) -> np.ndarray:
        """U diag(values) U^dag."""
        return (self.unitary * values) @ self.unitary.conj().T


@dataclass(frozen=True)
class WilliamsonFactors:
    """V = S D S^T with S symplectic and D the doubled symplectic spectrum."""

    s: np.ndarray
    d: np.ndarray


# gate descriptors ----------------------------------------------------------


@dataclass(frozen=True)
class Squeeze:
    z: float  # q -> e^z q, p -> e^-z p
    mode: int = 0


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
def _squeeze_generator(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Hermitian (i/2)(adag^2 - a^2); read-only, shared."""
    a = destroy(n)
    return _read_only(*np.linalg.eigh(0.5j * (a.T @ a.T - a @ a)))


def _squeeze_unitary(r: float, n: int) -> np.ndarray:
    """exp((r/2)(adag^2 - a^2)); maps q -> e^r q in the Heisenberg picture."""
    lam, vec = _squeeze_generator(n)
    return (vec * np.exp(-1j * r * lam)) @ vec.conj().T


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
    """Principal logarithm of a small unitary matrix via eigendecomposition."""
    w, v = np.linalg.eig(u)
    return v @ np.diag(np.log(w)) @ np.linalg.inv(v)


def apply_gate(state: FockOperator, gate) -> FockOperator:
    n = state.dim_per_mode
    if isinstance(gate, Squeeze):
        if gate.mode >= state.n_modes:
            raise DimensionMismatch(f"mode {gate.mode} out of range for {state.n_modes} modes")
        ops = [np.eye(n)] * state.n_modes
        ops[gate.mode] = _squeeze_unitary(gate.z, n)
        u = _local_action(ops, state.unitary)
    elif isinstance(gate, BeamSplitter):
        if state.n_modes != 2:
            raise DimensionMismatch("beam splitter needs a two-mode state")
        # wave mixing exp[-(theta/2)(e^{i phi} a1dag a2 - h.c.)]
        c, s = math.cos(gate.theta / 2), math.sin(gate.theta / 2)
        mode_u = np.array([[c, -np.exp(1j * gate.phi) * s], [np.exp(-1j * gate.phi) * s, c]])
        u = _passive_action(mode_u, n, state.unitary)
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return replace(state, unitary=u)


# decompositions -------------------------------------------------------------


def williamson(v: np.ndarray, tol: float = 1e-9) -> WilliamsonFactors:
    """Decompose V = S D S^T from the eigenstructure of Omega V.

    Eigenvectors for the +i*kappa eigenvalues are scaled and orientation-fixed
    so that the assembled matrix is real symplectic.
    """
    v = np.asarray(v, dtype=float)
    n = v.shape[0] // 2
    om = omega(n)
    ev, vec = np.linalg.eig(om @ v)
    order = sorted((i for i in range(2 * n) if ev[i].imag > 0), key=lambda i: -ev[i].imag)
    s_invt = np.zeros((2 * n, 2 * n))
    kappas = []
    chosen = []  # symplectically normalized complex eigenvectors
    for j, i in enumerate(order):
        u = vec[:, i].astype(complex)
        # degenerate kappas leave the eigenvectors unpaired under the
        # symplectic form g(a, b) = -i a^dag Omega b; Gram-Schmidt fixes that
        # (distinct kappas are g-orthogonal already)
        for prev in chosen:
            u = u - (-1j * (prev.conj() @ om @ u)) * prev
        gval = float((-1j * (u.conj() @ om @ u)).real)
        if abs(gval) < 1e-12:
            raise DecompositionFailure("degenerate symplectic subspace defeated pairing")
        chosen.append(u / math.sqrt(abs(gval)))
        x = u.real.copy()
        y = u.imag.copy()
        sym = 2.0 * (x @ om @ y)
        if sym < 0:
            y, sym = -y, -sym
        scale = math.sqrt(2.0 / sym)
        s_invt[:, 2 * j] = scale * x
        s_invt[:, 2 * j + 1] = scale * y
        kappas.append(ev[i].imag)
    s = np.linalg.inv(s_invt).T
    d = np.diag(np.repeat(kappas, 2))
    if np.max(np.abs(s.T @ om @ s - om)) > 1e-7 or np.max(np.abs(s @ d @ s.T - v)) > tol * max(
        1.0, np.max(np.abs(v))
    ):
        raise DecompositionFailure("Williamson factors fail the symplectic/reconstruction check")
    return WilliamsonFactors(s=s, d=d)


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
    fac = williamson(v)
    kappas = np.diag(fac.d)[::2]
    state = thermal_state(float(kappas[0]), n)
    for kappa in kappas[1:]:
        state = tensor(state, thermal_state(float(kappa), n))
    return _apply_symplectic(state, fac.s)


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

    With the square-root factors A of rho and B of rho' (rho = A A^dag),
    G = A^dag B has G G^dag = diag(sqrt(w)) U^dag rho' U diag(sqrt(w)), unitarily
    similar to sqrt(rho) rho' sqrt(rho): no eigendecomposition of rho, and
    neither dense matrix is formed.  A is cached on rho for repeated probes.
    """
    _check_same_dims(rho, rho_p)
    g = rho.sqrt_factor.conj().T @ rho_p.sqrt_factor
    lam = np.linalg.eigvalsh(g @ g.conj().T)
    # sqrt amplifies eigenvalue-level roundoff; drop pure-noise eigenvalues
    lam[lam < 1e-15 * max(lam.max(), 1e-300)] = 0.0
    return float(np.sum(np.sqrt(lam)) ** 2)


def entropy_fock(rho: FockOperator) -> float:
    """von Neumann entropy -sum lambda ln lambda, in nats."""
    lam = np.linalg.eigvalsh(rho.matrix).real
    lam = lam[lam > 1e-15]
    return float(-np.sum(lam * np.log(lam)))


def rel_entropy_fock(rho_p: FockOperator, rho: FockOperator) -> float:
    """Tr[rho (ln rho - ln rho')] in nats; raises when the support leaks."""
    _check_same_dims(rho_p, rho)
    if rho_p.log_matrix is not None:
        cross = float(np.real(np.trace(rho.matrix @ rho_p.log_matrix)))
    else:
        wp, vp = np.linalg.eigh(rho_p.matrix)
        wp = wp.real
        # population of rho in each eigenvector of rho'
        pops = np.real(np.einsum("ij,ji->i", vp.conj().T @ rho.matrix, vp))
        bad = (pops > 1e-8) & (wp <= 1e-15)
        if np.any(bad):
            raise SupportViolation("rho has weight outside the numerical support of rho'")
        keep = wp > 1e-15
        cross = float(np.sum(pops[keep] * np.log(wp[keep])))
    lam = np.linalg.eigvalsh(rho.matrix).real
    lam = lam[lam > 1e-15]
    return float(np.sum(lam * np.log(lam)) - cross)
