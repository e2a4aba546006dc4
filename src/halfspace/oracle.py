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
form is a sum of four Kronecker products, G = sum_k T_k (x) X_k, of
tridiagonal t-matrices with fixed N^n x N^n x-matrices (`_form_factors`).
It couples only neighbouring t-levels: ordered level by level it is block
tridiagonal, and each block is sum_k T_k[i, j] X_k, read from four
coefficients and the x-matrices; no per-cell element matrix is kept.  Every
solve is one block elimination over the free levels (`_level_sweep`): Schur
complements are formed from the top level down,
S_i = D_i - U_i S_{i+1}^-1 L_i, and the solution is
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


def _x_cells(samples: np.ndarray, grid: GridSpec, ngauss: int):
    """Per-x-cell integrals of the coefficients and the x-node numbering.

    Returns (X, xnode).  X[p, q][j, a, b] = int over x-cell j of A_pq times
    the row shape of x-vertex a (its x_p-derivative for p >= 1) times the
    column shape of x-vertex b (its x_q-derivative for q >= 1); direction 0
    is t, so there the shape value itself stands.  xnode[j, a] is the grid
    index of x-vertex a of x-cell j.
    """
    n = grid.n
    N = grid.N
    h = grid.h
    sg, wg = _gauss01(ngauss)
    PH, DH = _shape_tables(sg)
    U = [PH, DH / h]  # index by whether the direction is this x axis

    # one shifted copy of the coefficient samples per gauss offset
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

    shifted = (np.arange(N)[:, None] + np.arange(2)) % N  # [j, a] per axis
    if n == 1:
        xnode = shifted
    else:
        xnode = (shifted[:, None, :, None] * N + shifted[None, :, None, :]).reshape(N * N, 4)
    return X, xnode


# Exact integrals over one t-cell of the products of the lower/upper vertex
# shapes s_a (row) and s_b (column) that pair with Kx, C1, C2 and Mx:
# int s'_a s'_b (times 1/dt), int s'_a s_b, int s_a s'_b, int s_a s_b (times dt).
_T_CELL = np.array(
    [
        [[1.0, -1.0], [-1.0, 1.0]],
        [[-0.5, -0.5], [0.5, 0.5]],
        [[-0.5, 0.5], [-0.5, 0.5]],
        [[1 / 3, 1 / 6], [1 / 6, 1 / 3]],
    ]
)


def _form_factors(samples: np.ndarray, grid: GridSpec, t_nodes: np.ndarray, ngauss: int):
    """The form as four Kronecker products, G = sum_k T_k (x) X_k.

    The coefficients are t-independent, so each term of A grad u . grad phi
    splits into a t-integral and an x-integral.  Returns (T, X): T is the
    diagonal, upper and lower diagonal of the four tridiagonal t-matrices,
    shapes (4, M+1), (4, M), (4, M); X is the four N^n x N^n x-matrices
    Kx = X_00, C1 = sum_q X_0q, C2 = sum_p X_p0 and Mx = sum_pq X_pq
    (p, q >= 1) as CSR.  Ordered level by level, block (i, j) of G is
    sum_k T_k[i, j] X_k.
    """
    dts = np.diff(t_nodes)
    scale = np.stack([1.0 / dts, np.ones_like(dts), np.ones_like(dts), dts])
    cells = scale[:, :, None, None] * _T_CELL[:, None]  # (4, M, 2, 2)
    diag = np.zeros((4, len(t_nodes)))
    diag[:, :-1] += cells[:, :, 0, 0]
    diag[:, 1:] += cells[:, :, 1, 1]

    Xc, xnode = _x_cells(samples, grid, ngauss)
    npts, nv = xnode.shape
    rows = np.broadcast_to(xnode[:, :, None], (npts, nv, nv)).ravel()
    cols = np.broadcast_to(xnode[:, None, :], (npts, nv, nv)).ravel()
    groups = (Xc[0, 0], Xc[0, 1:].sum(axis=0), Xc[1:, 0].sum(axis=0), Xc[1:, 1:].sum(axis=(0, 1)))
    X = [sp.csr_matrix((x.ravel(), (rows, cols)), shape=(npts, npts)) for x in groups]
    return (diag, cells[:, :, 0, 1], cells[:, :, 1, 0]), X


def _kron_csr(T, X) -> sp.csr_matrix:
    """sum_k T_k (x) X_k as CSR, from the factors of _form_factors."""
    diag, upper, lower = T
    return sum(
        sp.kron(sp.diags((lower[k], diag[k], upper[k]), (-1, 0, 1)), X[k], format="csr")
        for k in range(4)
    )


def assemble_form(
    samples: np.ndarray,
    grid: GridSpec,
    t_nodes: np.ndarray,
    ngauss: int = 2,
) -> sp.csr_matrix:
    """Global sesquilinear-form matrix a(u, phi) = sum A grad u . grad phi
    over the strip, for pointwise coefficient samples of shape
    grid.shape + (1+n, 1+n).  No boundary conditions are applied."""
    return _kron_csr(*_form_factors(samples, grid, t_nodes, ngauss))


def _factor(S: np.ndarray, level: int):
    lu, piv, info = zgetrf(S, overwrite_a=True)
    if info > 0:
        raise SingularFormError(f"singular pivot in the Schur complement of t-level {level}")
    return lu, piv


def _solve(factors, rhs: np.ndarray) -> np.ndarray:
    return zgetrs(*factors, rhs)[0]


def _level_sweep(
    T,
    X,
    first: int,
    rhs: np.ndarray,
    boundary_only: bool = False,
) -> np.ndarray:
    """Solve the form (T, X) of _form_factors on the free t-levels
    first..M-1, the top level M held at zero, by block elimination over the
    levels.

    rhs has shape (M - first, N^n), one weak vector per free level, and the
    result the same shape.  With boundary_only the data sit on level first
    alone: rhs is (N^n, k), one column per datum, and the result is the
    solution on level first, S_first^-1 rhs; no interior level is kept.
    The free form has a positive-definite Hermitian part for accretive A and
    its Schur complements inherit it, so each level is factored with partial
    pivoting inside the level and no pivoting across levels.
    """
    diag, upper, lower = T
    M = upper.shape[1]
    p = X[0].shape[0]
    stack = np.stack([x.toarray().ravel() for x in X])  # (4, p^2)

    def block(coef):  # sum_k coef[k] X_k
        return (coef @ stack).reshape(p, p)

    coupling, partial = {}, {}  # coupling[i] = S_{i+1}^-1 L_i, partial[i] = S_i^-1 g_i
    S = block(diag[:, M - 1])
    g = [] if boundary_only else [rhs[-1]]  # the carried right-hand side g_i, if any
    for i in range(M - 1, first, -1):
        factors = _factor(S, i)
        # S_i^-1 L_{i-1} and S_i^-1 g_i in one solve, L_{i-1} = G[i, i-1]
        W = _solve(factors, np.column_stack([block(lower[:, i - 1])] + g))
        UW = block(upper[:, i - 1]) @ W  # U_{i-1} = G[i-1, i]
        S = block(diag[:, i - 1]) - UW[:, :p]
        if not boundary_only:
            coupling[i - 1], partial[i] = W[:, :p], W[:, p]
            g = [rhs[i - 1 - first] - UW[:, p]]
    factors = _factor(S, first)
    if boundary_only:
        return _solve(factors, rhs)
    u = np.empty_like(rhs)
    u[0] = _solve(factors, g[0])
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

    T, X = _form_factors(A.samples, grid, mesh.t_nodes, ngauss)
    G = _kron_csr(T, X)
    npts = grid.npoints
    nfree = mesh.M * npts  # all t-levels except the top
    rhs = np.zeros((mesh.M, npts), dtype=complex)
    rhs[0] = _boundary_weak(grid, ell, ngauss).ravel()
    u = np.zeros(mesh.n_nodes, dtype=complex)
    u[:nfree] = _level_sweep(T, X, 0, rhs).ravel()
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
    T, X = _form_factors(A.samples, grid, mesh.t_nodes, ngauss)
    G = _kron_csr(T, X)
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
    u_int = _level_sweep(T, X, 1, rhs.reshape(mesh.M - 1, npts)).ravel()
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
    T, X = _form_factors(A.samples, grid, mesh.t_nodes, ngauss)
    units = coeffs_to_scalar(grid, np.eye(nmodes))  # (nmodes,) + grid.shape
    weak = _boundary_weak(grid, units, ngauss).reshape(nmodes, grid.npoints)
    u0 = _level_sweep(T, X, 0, -weak.T, boundary_only=True)
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
