"""Independent variational solver on a truncated strip [0, T_max] x torus.

Conforming Q1 (bilinear / trilinear) elements on a tensor mesh: arbitrary
strictly increasing t-nodes crossed with the uniform periodic x grid.
Integrals are exact in t (coefficients are t-independent) and use Gauss
quadrature in x with the coefficients evaluated at quadrature points
through their trigonometric interpolant, so band-limited structure in the
coefficients is integrated to high accuracy.  The top boundary carries a
homogeneous Dirichlet condition; its effect decays like exp(-T_max) for
mean-zero data.

The coefficients are t-independent and the mesh is a tensor product, so the
form couples only neighbouring t-levels: ordered level by level it is block
tridiagonal with N^n x N^n blocks.  Every solve is one block elimination
over the free levels (`_level_sweep`): Schur complements are formed from the
top level down, S_i = D_i - U_i S_{i+1}^-1 L_i, and the solution is
substituted back up from the lowest free level.  The complement S_0 left on
the boundary level is the discrete Dirichlet-to-Neumann (Steklov-Poincare)
map of the strip, so the Neumann-to-Dirichlet map is S_0^-1 on the weak
boundary vectors and needs no interior values.

This module never touches the spectral operator calculus: it is the
independent cross-check for the semigroup solvers and boundary maps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import zgetrf, zgetrs

from .coeffs import CoefficientField
from .errors import NumericalError
from .grid import (
    GridSpec,
    coeffs_to_scalar,
    fftn,
    ifftn,
    scalar_to_coeffs,
    sobolev_norm,
)
from .solvers import _full_gradient, _gradient_fields

__all__ = [
    "SingularFormError",
    "StripMesh",
    "OracleSolution",
    "energy_solve_neumann",
    "energy_solve_regularity",
    "extract_conormal",
    "gamma_nd_variational",
    "gamma_nd_comparison",
    "uniqueness_probe",
    "coercivity_check",
    "strip_gradient",
    "semigroup_strip_gradient",
    "strip_gradient_error",
]

# normwise backward error accepted from a level sweep
_BACKWARD_TOL = 1e-12


class SingularFormError(NumericalError):
    """The discrete form is numerically singular on the free t-levels."""


def _grading_ratio(d0: float, M: int, T: float) -> float:
    """Growth ratio r in (1, 2] with d0 (r^M - 1)/(r - 1) = T, for M d0 < T.

    Bisection down to adjacent floats: the sum of the steps increases with
    r, and r -> 1 gives M d0 < T, so the root is bracketed by (1, 2].
    """
    if d0 * (2.0**M - 1.0) < T:
        raise ValueError("graded mesh needs a growth ratio above 2: raise M or dt0")
    lo, hi = 1.0, 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if d0 * (mid**M - 1.0) / (mid - 1.0) < T:
            lo = mid
        else:
            hi = mid


@dataclass(frozen=True)
class StripMesh:
    """Tensor mesh: t-nodes (0 = t_0 < ... < t_M = T_max) x the x grid."""

    grid: GridSpec
    t_nodes: np.ndarray

    def __post_init__(self):
        ts = np.ascontiguousarray(self.t_nodes, dtype=float)
        if ts.ndim != 1 or len(ts) < 3:
            raise ValueError("need at least 3 t-nodes")
        if ts[0] != 0.0 or np.any(np.diff(ts) <= 0):
            raise ValueError("t-nodes must start at 0 and be strictly increasing")
        object.__setattr__(self, "t_nodes", ts)
        ts.setflags(write=False)

    @property
    def M(self) -> int:
        return len(self.t_nodes) - 1

    @property
    def T_max(self) -> float:
        return float(self.t_nodes[-1])

    @property
    def n_tlevels(self) -> int:
        return len(self.t_nodes)

    @property
    def n_nodes(self) -> int:
        return self.n_tlevels * self.grid.npoints

    @classmethod
    def uniform(cls, grid: GridSpec, M: int, T_max: float | None = None) -> "StripMesh":
        T = 8.0 * grid.L if T_max is None else float(T_max)
        return cls(grid, np.linspace(0.0, T, M + 1))

    @classmethod
    def graded(
        cls,
        grid: GridSpec,
        M: int,
        T_max: float | None = None,
        dt0: float | None = None,
    ) -> "StripMesh":
        """Geometric grading: first cell ~ h/4, sizes grow by a fixed ratio.

        Resolves the boundary layers of the high Fourier modes near t = 0
        while still reaching T_max with M cells.
        """
        T = 8.0 * grid.L if T_max is None else float(T_max)
        d0 = grid.h / 4.0 if dt0 is None else float(dt0)
        if M * d0 >= T:
            return cls.uniform(grid, M, T)
        steps = d0 * _grading_ratio(d0, M, T) ** np.arange(M)
        ts = np.concatenate([[0.0], np.cumsum(steps)])
        ts[-1] = T
        return cls(grid, ts)


@dataclass(frozen=True)
class OracleSolution:
    """Discrete solution values u at mesh nodes, with the assembled form."""

    mesh: StripMesh
    values: np.ndarray  # (n_tlevels,) + grid.shape
    kind: str  # neumann | regularity
    form: sp.csr_matrix = field(repr=False, default=None)
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        expected = (self.mesh.n_tlevels,) + self.mesh.grid.shape
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != expected:
            raise ValueError(f"solution values shape {v.shape} != {expected}")
        if not np.all(np.isfinite(v)):
            raise ValueError("non-finite oracle solution")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    def boundary_trace(self) -> np.ndarray:
        return self.values[0].copy()

    def energy(self) -> float:
        """Discrete Dirichlet energy Re a(u, u) (with the actual A)."""
        u = self.values.ravel()
        return float(np.real(np.vdot(u, self.form @ u)))


def _gauss01(ngauss: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(ngauss)
    return 0.5 * (x + 1.0), 0.5 * w


def _shift_samples(grid: GridSpec, samples: np.ndarray, delta) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid samples at x + delta.

    samples: grid.shape + trailing dims; delta: per-axis offsets.
    """
    trail = samples.ndim - grid.n
    moved = np.moveaxis(samples, tuple(range(grid.n)), tuple(range(-grid.n, 0)))
    fh = np.fft.fftn(moved, axes=tuple(range(-grid.n, 0)))
    xi = grid.frequencies()
    phase = np.zeros(grid.shape, dtype=complex)
    for ax in range(grid.n):
        phase = phase + xi[ax] * delta[ax]
    fh = fh * np.exp(1j * phase)
    out = np.fft.ifftn(fh, axes=tuple(range(-grid.n, 0)))
    return np.moveaxis(out, tuple(range(-grid.n, 0)), tuple(range(grid.n)))


# P1 shape values on the unit interval: PH[a, g] = value of node-a shape at
# gauss point g, and the (constant) derivatives are (-1, +1)/h.

def _shape_tables(sg: np.ndarray):
    PH = np.stack([1.0 - sg, sg])
    DH = np.stack([-np.ones_like(sg), np.ones_like(sg)])
    return PH, DH


def _t_factors(dts: np.ndarray):
    """Per-cell 2x2 t-integral factors, exact.

    Ktt = int s'_a s'_b, Mtt = int s_a s_b, Qd[a,b] = int s_b s'_a.
    """
    M = len(dts)
    Ktt = np.empty((M, 2, 2))
    Mtt = np.empty((M, 2, 2))
    base_k = np.array([[1.0, -1.0], [-1.0, 1.0]])
    base_m = np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]])
    Qd = np.array([[-0.5, -0.5], [0.5, 0.5]])
    for i, dt in enumerate(dts):
        Ktt[i] = base_k / dt
        Mtt[i] = base_m * dt
    Qdt = np.broadcast_to(Qd, (M, 2, 2))
    return Ktt, Mtt, Qdt


def _element_matrices(samples: np.ndarray, grid: GridSpec, t_nodes: np.ndarray, ngauss: int):
    """Per-cell element matrices of the form and the x-node numbering.

    Returns (K, xnode).  K[i, j, at, a, bt, b] = int_cell A grad phi_b . grad
    phi_a over t-cell i (levels i, i+1) crossed with x-cell j, where at, bt in
    {0, 1} pick the lower or upper t-vertex and a, b the 2^n x-vertices of the
    row and column shape functions; xnode[j, a] is the grid index of x-vertex
    a of x-cell j.
    """
    n = grid.n
    N = grid.N
    h = grid.h
    Ktt, Mtt, Qdt = _t_factors(np.diff(t_nodes))
    sg, wg = _gauss01(ngauss)
    PH, DH = _shape_tables(sg)
    U = [PH, DH / h]  # index by whether the direction is this x axis

    # X[p, q][j, a, b] = int_xcell A_pq * (shape or dshape) products, with
    # the coefficient values at the gauss offsets: one shifted copy per offset
    if n == 1:
        A_g = np.stack([_shift_samples(grid, samples, (s * h,)) for s in sg])
        X = np.empty((2, 2, N, 2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                X[p, q] = np.einsum(
                    "g,gj,ag,bg->jab", h * wg, A_g[:, :, p, q], U[int(p == 1)], U[int(q == 1)]
                )
    else:  # trilinear elements
        offsets = [(s1 * h, s2 * h) for s1 in sg for s2 in sg]
        A_g = np.stack([_shift_samples(grid, samples, d) for d in offsets])
        A_g = A_g.reshape((ngauss, ngauss, N, N, 3, 3))
        X = np.empty((3, 3, N, N, 2, 2, 2, 2), dtype=complex)  # [p,q,j1,j2,a1,a2,b1,b2]
        for p in range(3):
            for q in range(3):
                X[p, q] = np.einsum(
                    "g,f,gfjk,ag,cf,bg,df->jkacbd",
                    h * wg,
                    h * wg,
                    A_g[:, :, :, :, p, q],
                    U[int(p == 1)],
                    U[int(p == 2)],
                    U[int(q == 1)],
                    U[int(q == 2)],
                    optimize=True,
                )
        X = X.reshape((3, 3, N * N, 4, 4))

    nv = 2**n
    K = np.zeros((len(Ktt), grid.npoints, 2, nv, 2, nv), dtype=complex)
    for p in range(1 + n):
        for q in range(1 + n):
            if p == 0 and q == 0:
                Tfac = Ktt
            elif p == 0:
                Tfac = Qdt  # test t-deriv, trial x-deriv
            elif q == 0:
                Tfac = np.swapaxes(Qdt, 1, 2)
            else:
                Tfac = Mtt
            K += np.einsum("iab,jcd->ijacbd", Tfac, X[p, q])

    shifted = (np.arange(N)[:, None] + np.arange(2)) % N  # [j, a] per axis
    if n == 1:
        xnode = shifted
    else:
        xnode = (shifted[:, None, :, None] * N + shifted[None, :, None, :]).reshape(N * N, 4)
    return K, xnode


def _form_csr(K: np.ndarray, xnode: np.ndarray) -> sp.csr_matrix:
    """Scatter the element matrices into the global form over all levels."""
    M, npts, _, nv, _, _ = K.shape
    i = np.arange(M).reshape(-1, 1, 1, 1, 1, 1)
    t = np.arange(2)
    rows = (i + t.reshape(1, 1, 2, 1, 1, 1)) * npts + xnode.reshape(1, npts, 1, nv, 1, 1)
    cols = (i + t.reshape(1, 1, 1, 1, 2, 1)) * npts + xnode.reshape(1, npts, 1, 1, 1, nv)
    size = (M + 1) * npts
    return sp.coo_matrix(
        (K.ravel(), (np.broadcast_to(rows, K.shape).ravel(), np.broadcast_to(cols, K.shape).ravel())),
        shape=(size, size),
    ).tocsr()


def assemble_form(
    samples: np.ndarray,
    grid: GridSpec,
    t_nodes: np.ndarray,
    ngauss: int = 2,
) -> sp.csr_matrix:
    """Global sesquilinear-form matrix a(u, phi) = sum A grad u . grad phi
    over the strip, for pointwise coefficient samples of shape
    grid.shape + (1+n, 1+n).  No boundary conditions are applied."""
    return _form_csr(*_element_matrices(samples, grid, t_nodes, ngauss))


def _cell_blocks(K_i: np.ndarray, xnode: np.ndarray) -> np.ndarray:
    """The level blocks B[at, bt] (each N^n x N^n) that t-cell i adds to the
    form: B[0, 0] to level i, B[1, 1] to level i+1, B[0, 1] and B[1, 0] to
    their couplings."""
    npts, nv = xnode.shape
    B = np.zeros((2, 2, npts, npts), dtype=complex)
    for a in range(nv):
        for b in range(nv):
            # j -> xnode[j, a] is one-to-one, so no entry repeats in one update
            B[:, :, xnode[:, a], xnode[:, b]] += np.moveaxis(K_i[:, :, a, :, b], 0, -1)
    return B


def _factor(S: np.ndarray, level: int):
    lu, piv, info = zgetrf(S, overwrite_a=True)
    if info > 0:
        raise SingularFormError(f"singular pivot in the Schur complement of t-level {level}")
    return lu, piv


def _solve(factors, rhs: np.ndarray) -> np.ndarray:
    return zgetrs(*factors, rhs)[0]


def _level_sweep(
    K: np.ndarray,
    xnode: np.ndarray,
    first: int,
    rhs: np.ndarray,
    boundary_only: bool = False,
) -> np.ndarray:
    """Solve the form on the free t-levels first..M-1, the top level M held
    at zero, by block elimination over the levels.

    rhs has shape (M - first, N^n), one weak vector per free level, and the
    result the same shape.  With boundary_only the data sit on level first
    alone: rhs is (N^n, k), one column per datum, and the result is the
    solution on level first, S_first^-1 rhs; no interior level is kept.
    The free form has a positive-definite Hermitian part for accretive A and
    its Schur complements inherit it, so each level is factored with partial
    pivoting inside the level and no pivoting across levels.
    """
    M = K.shape[0]
    coupling, partial = {}, {}  # S_{i+1}^-1 L_i and S_i^-1 g_i per level
    cell = _cell_blocks(K[M - 1], xnode)
    for i in range(M - 1, first - 1, -1):
        below = _cell_blocks(K[i - 1], xnode) if i > 0 else None
        S = cell[0, 0] if below is None else cell[0, 0] + below[1, 1]
        if i < M - 1:
            W = _solve(factors, cell[1, 0])
            S = S - cell[0, 1] @ W
        factors = _factor(S, i)
        if not boundary_only:
            g = rhs[i - first]
            if i < M - 1:
                coupling[i] = W
                g = g - cell[0, 1] @ partial[i + 1]
            partial[i] = _solve(factors, g)
        cell = below
    if boundary_only:
        return _solve(factors, rhs)
    u = np.empty_like(rhs)
    u[0] = partial[first]
    for i in range(first, M - 1):
        u[i + 1 - first] = partial[i + 1] - coupling[i] @ u[i - first]
    return u


def _check_backward_error(G: sp.csr_matrix, u: np.ndarray, residual: np.ndarray, rhs: np.ndarray):
    """Refuse a free-level solution whose normwise backward error, in
    1-norms, exceeds _BACKWARD_TOL: |residual| <= tol (|G| |u| + |rhs|)."""
    scale = abs(G).sum(axis=0).max() * np.linalg.norm(u, 1) + np.linalg.norm(rhs, 1)
    err = np.linalg.norm(residual, 1)
    if not err <= _BACKWARD_TOL * scale:
        raise SingularFormError(
            f"level sweep backward error {err / max(scale, 1e-300):.1e} > {_BACKWARD_TOL:.0e}"
        )


def _boundary_symbol(grid: GridSpec, ngauss: int) -> np.ndarray:
    """Per-mode symbol of the weak boundary pairing: the weak vector of the
    exponential mode m is sigma(m) * exp(i m x_a)."""
    sg, wg = _gauss01(ngauss)
    h = grid.h
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N) * (2.0 * np.pi / grid.L)
    sig1 = np.zeros(grid.N, dtype=complex)
    for s, w in zip(sg, wg):
        sig1 += h * w * (np.exp(1j * k * s * h) * (1 - s) + np.exp(1j * k * (s - 1) * h) * s)
    if grid.n == 1:
        return sig1
    return np.multiply.outer(sig1, sig1)


def _boundary_weak(grid: GridSpec, ell: np.ndarray, ngauss: int) -> np.ndarray:
    """Weak vector b_a = int ell(x) phi_a(x) dx over boundary nodes,
    computed exactly on the trigonometric interpolant of ell."""
    sig = _boundary_symbol(grid, ngauss)
    return ifftn(grid, fftn(grid, np.asarray(ell, dtype=complex)) * sig)


def _weak_to_field(grid: GridSpec, weak: np.ndarray, ngauss: int) -> np.ndarray:
    """Invert the weak boundary pairing back to nodal samples."""
    sig = _boundary_symbol(grid, ngauss)
    return ifftn(grid, fftn(grid, weak) / sig)


def energy_solve_neumann(
    A: CoefficientField,
    ell: np.ndarray,
    mesh: StripMesh,
    ngauss: int = 2,
) -> OracleSolution:
    """Variational Neumann solve: a(u, phi) = <ell, phi(0,.)> for all phi
    vanishing at t = T_max.  The conormal derivative satisfies
    d_nu u(0) = -ell (inward normal convention)."""
    grid = A.grid
    ell = np.ascontiguousarray(ell, dtype=complex)
    if ell.shape != grid.shape:
        raise ValueError("Neumann datum must be a scalar grid field")
    mean = np.abs(np.mean(ell))
    if mean > 1e-10 * max(1.0, float(np.max(np.abs(ell)))):
        raise ValueError("Neumann datum must be mean-zero")

    K, xnode = _element_matrices(A.samples, grid, mesh.t_nodes, ngauss)
    G = _form_csr(K, xnode)
    npts = grid.npoints
    nfree = mesh.M * npts  # all t-levels except the top
    rhs = np.zeros((mesh.M, npts), dtype=complex)
    rhs[0] = _boundary_weak(grid, ell, ngauss).ravel()
    u = np.zeros(mesh.n_nodes, dtype=complex)
    u[:nfree] = _level_sweep(K, xnode, 0, rhs).ravel()
    Gu = G @ u
    _check_backward_error(G, u, Gu[:nfree] - rhs.ravel(), rhs)

    energy = float(np.real(np.vdot(u, Gu)))
    lnorm = sobolev_norm(grid, ell, -0.5)
    info = {
        "energy": energy,
        "datum_sobolev_minus_half": lnorm,
        "energy_ratio": energy / max(lnorm**2, 1e-300),
        "ngauss": ngauss,
    }
    return OracleSolution(mesh, u.reshape((mesh.n_tlevels,) + grid.shape), "neumann", G, info)


def energy_solve_regularity(
    A: CoefficientField,
    f: np.ndarray,
    mesh: StripMesh,
    ngauss: int = 2,
    lifting: np.ndarray | None = None,
) -> OracleSolution:
    """Variational solve with essential data v(0,.) = f, v(T_max,.) = 0.

    Implemented by lifting: v = u + w with w any discrete extension of f
    and u in the discrete H^1_0 of the strip; the result is independent of
    the lifting choice.
    """
    grid = A.grid
    f = np.ascontiguousarray(f, dtype=complex)
    if f.shape != grid.shape:
        raise ValueError("regularity datum must be a scalar grid field")
    K, xnode = _element_matrices(A.samples, grid, mesh.t_nodes, ngauss)
    G = _form_csr(K, xnode)
    npts = grid.npoints
    ntot = mesh.n_nodes
    if lifting is None:
        w = np.zeros(ntot, dtype=complex)
        w[:npts] = f.ravel()
    else:
        w = np.ascontiguousarray(lifting, dtype=complex).ravel()
        if w.shape != (ntot,):
            raise ValueError("lifting must cover all mesh nodes")
        if not np.allclose(w[:npts], f.ravel(), atol=1e-12 * max(1.0, float(np.max(np.abs(f))))):
            raise ValueError("lifting does not match the boundary datum")
        if np.any(w[-npts:] != 0):
            raise ValueError("lifting must vanish at the top boundary")
    interior = slice(npts, mesh.M * npts)
    rhs = -(G @ w)[interior]
    u_int = _level_sweep(K, xnode, 1, rhs.reshape(mesh.M - 1, npts)).ravel()
    v = w.copy()
    v[interior] += u_int
    Gv = G @ v
    # (G v) on the interior is G_II u_int - rhs, the residual of the sweep
    _check_backward_error(G, u_int, Gv[interior], rhs)
    info = {"ngauss": ngauss, "energy": float(np.real(np.vdot(v, Gv)))}
    return OracleSolution(mesh, v.reshape((mesh.n_tlevels,) + grid.shape), "regularity", G, info)


def extract_conormal(sol: OracleSolution, ngauss: int | None = None) -> np.ndarray:
    """Recover the boundary functional ell with d_nu u(0) = -ell from the
    discrete bilinear identity <ell, phi> = a(u, phi) over the boundary
    basis functions; returns nodal samples of ell."""
    grid = sol.mesh.grid
    npts = grid.npoints
    ng = ngauss if ngauss is not None else sol.info.get("ngauss", 2)
    weak = (sol.form @ sol.values.ravel())[:npts].reshape(grid.shape)
    return _weak_to_field(grid, weak, ng)


def gamma_nd_variational(
    A: CoefficientField,
    mesh: StripMesh,
    ngauss: int = 2,
) -> np.ndarray:
    """Neumann-to-Dirichlet matrix in V-coordinates from the boundary Schur
    complement of the discrete form.

    Column k: Neumann datum f = unit mode k of the conormal derivative
    (so the variational functional is ell = -f), tangential-gradient trace
    read spectrally from the nodal boundary values.  Output column is the
    parallel-slot coefficient vector p2 with grad_x u = -R p2, i.e.
    p2 = -|xi| u_hat per mode.  The data sit on the boundary level alone, so
    the boundary values are S_0^-1 applied to the weak vectors of all K unit
    modes at once, and no interior level is solved for.
    """
    grid = A.grid
    nmodes = grid.nmodes
    K, xnode = _element_matrices(A.samples, grid, mesh.t_nodes, ngauss)
    units = coeffs_to_scalar(grid, np.eye(nmodes))  # (nmodes,) + grid.shape
    weak = _boundary_weak(grid, units, ngauss).reshape(nmodes, grid.npoints)
    u0 = _level_sweep(K, xnode, 0, -weak.T, boundary_only=True)
    return -grid.mode_magnitudes()[:, None] * scalar_to_coeffs(
        grid, u0.T.reshape((nmodes,) + grid.shape)
    )


def gamma_nd_comparison(
    A: CoefficientField,
    mesh: StripMesh,
    gamma_spectral: np.ndarray,
    s: float = -0.5,
    ngauss: int = 2,
    band: float | None = None,
) -> dict:
    """Weighted relative errors between the variational and spectral
    Neumann-to-Dirichlet matrices; optionally restricted to modes with
    |xi| <= band (the band shared across a refinement study)."""
    from .operators import weighted

    grid = A.grid
    Gv = gamma_nd_variational(A, mesh, ngauss)
    D = weighted(grid, Gv - gamma_spectral, s)
    R = weighted(grid, gamma_spectral, s)
    out = {
        "rel_fro": float(np.linalg.norm(D) / np.linalg.norm(R)),
        "rel_op": float(np.linalg.norm(D, 2) / np.linalg.norm(R, 2)),
    }
    if band is not None:
        sel = grid.mode_magnitudes() <= band
        out["rel_fro_band"] = float(
            np.linalg.norm(D[np.ix_(sel, sel)]) / np.linalg.norm(R[np.ix_(sel, sel)])
        )
    return out


def uniqueness_probe(
    A_or_samples,
    grid: GridSpec | None = None,
    M: int = 16,
    T_max: float | None = None,
    ngauss: int = 2,
) -> dict:
    """Kernel dimension of the discrete form on a doubled strip
    [-T_max, T_max] x torus with natural boundary conditions everywhere.

    Accretive coefficients give kernel = constants (dimension 1); an
    indefinite Hermitian part is reported as a failed probe.
    """
    if isinstance(A_or_samples, CoefficientField):
        samples = A_or_samples.samples
        grid = A_or_samples.grid
    else:
        samples = np.ascontiguousarray(A_or_samples, dtype=complex)
        if grid is None:
            raise ValueError("grid required with raw samples")
    T = 2.0 * grid.L if T_max is None else float(T_max)
    half = np.linspace(0.0, T, M + 1)
    doubled = np.concatenate([-half[::-1][:-1], half]) + T  # shift to start at 0
    G = assemble_form(samples, grid, doubled, ngauss).toarray()
    sv = np.linalg.svd(G, compute_uv=False)
    scale = sv[0]
    kernel_dim = int(np.sum(sv <= 1e-8 * scale))
    herm = 0.5 * (G + G.conj().T)
    herm_min = float(np.min(np.linalg.eigvalsh(herm)))
    ok = kernel_dim == 1 and herm_min >= -1e-8 * scale
    return {
        "kernel_dim": kernel_dim,
        "smallest_svs": sv[-3:][::-1].tolist(),
        "herm_min": herm_min,
        "accretive_ok": bool(herm_min >= -1e-8 * scale),
        "ok": bool(ok),
    }


def coercivity_check(A: CoefficientField, mesh: StripMesh, ngauss: int = 2) -> dict:
    """Smallest generalized eigenvalue of Re a(u,u) against the A = I
    energy, on the space vanishing at the top boundary (dense; use small
    meshes)."""
    import scipy.linalg

    grid = A.grid
    eye = np.broadcast_to(
        np.eye(1 + grid.n), grid.shape + (1 + grid.n, 1 + grid.n)
    ).copy()
    nfree = mesh.M * grid.npoints
    G = assemble_form(A.samples, grid, mesh.t_nodes, ngauss).toarray()[:nfree, :nfree]
    E = assemble_form(eye, grid, mesh.t_nodes, ngauss).toarray()[:nfree, :nfree]
    GH = 0.5 * (G + G.conj().T)
    EH = 0.5 * (E + E.conj().T)
    vals = scipy.linalg.eigh(GH, EH, eigvals_only=True)
    return {"lambda_discrete": float(vals[0]), "lambda_pointwise": A.lamb}


def strip_gradient(sol: OracleSolution) -> np.ndarray:
    """Cell-centered gradient (d_t u, grad_x u) of the Q1 solution,
    shape (M,) + grid.shape + (1+n,)."""
    mesh = sol.mesh
    grid = mesh.grid
    u = sol.values
    dts = np.diff(mesh.t_nodes)
    n = grid.n
    out = np.empty((mesh.M,) + grid.shape + (1 + n,), dtype=complex)
    lo, hi = u[:-1], u[1:]
    # average over the cell's x-nodes of the t-difference
    dt_part = (hi - lo) / dts.reshape((-1,) + (1,) * n)
    if n == 1:
        out[..., 0] = 0.5 * (dt_part + np.roll(dt_part, -1, axis=1))
        mid = 0.5 * (lo + hi)
        out[..., 1] = (np.roll(mid, -1, axis=1) - mid) / grid.h
    else:
        out[..., 0] = 0.25 * (
            dt_part
            + np.roll(dt_part, -1, axis=1)
            + np.roll(dt_part, -1, axis=2)
            + np.roll(np.roll(dt_part, -1, axis=1), -1, axis=2)
        )
        mid = 0.5 * (lo + hi)
        d1 = (np.roll(mid, -1, axis=1) - mid) / grid.h
        out[..., 1] = 0.5 * (d1 + np.roll(d1, -1, axis=2))
        d2 = (np.roll(mid, -1, axis=2) - mid) / grid.h
        out[..., 2] = 0.5 * (d2 + np.roll(d2, -1, axis=1))
    return out


def semigroup_strip_gradient(handle, mesh: StripMesh) -> np.ndarray:
    """Full gradient (d_t u, grad_x u) of a semigroup solution at the
    oracle's cell centers (t midpoints, x midpoints), via grad_{t,x} u =
    [(B F)_perp; F_par] and spectral evaluation at shifted points."""
    grid = handle.grid
    t_mids = 0.5 * (mesh.t_nodes[:-1] + mesh.t_nodes[1:])
    g = _full_gradient(handle.core.B, _gradient_fields(handle, t_mids))
    shift = tuple(grid.h / 2.0 for _ in range(grid.n))
    # every level shifted in one FFT: (nt, 1+n) + shape -> shape + (nt, 1+n)
    shifted = _shift_samples(grid, np.moveaxis(g, (0, 1), (-2, -1)), shift)
    return np.moveaxis(shifted, -2, 0)  # (nt,) + shape + (1+n,)


def strip_gradient_error(handle, sol: OracleSolution, t_cut: float | None = None) -> float:
    """Relative strip L2 error between the semigroup and oracle gradients
    over cells with midpoint below t_cut (default: the full strip)."""
    mesh = sol.mesh
    g_o = strip_gradient(sol)
    g_s = semigroup_strip_gradient(handle, mesh)
    t_mids = 0.5 * (mesh.t_nodes[:-1] + mesh.t_nodes[1:])
    wts = np.diff(mesh.t_nodes)
    if t_cut is not None:
        sel = t_mids <= t_cut
        g_o, g_s, wts = g_o[sel], g_s[sel], wts[sel]
    w = wts.reshape((-1,) + (1,) * (g_o.ndim - 1))
    num = np.sqrt(np.sum(w * np.abs(g_s - g_o) ** 2))
    den = np.sqrt(np.sum(w * np.abs(g_o) ** 2))
    return float(num / max(den, 1e-300))
