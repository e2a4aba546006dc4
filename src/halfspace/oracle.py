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
These factors are the only representation of the form; no global matrix is
assembled.  It couples only neighbouring t-levels: ordered level by level it
is block tridiagonal, and each block is sum_k T_k[i, j] X_k, read from four
coefficients and the x-matrices.  G u is sum_k tridiag(T_k) U X_k^T on the
array U of level values (`_apply_form`), and ||G||_1 is summed level by
level from the three block diagonals (`_form_norm1`).  Every solve is one
block elimination over the free levels (`_level_sweep`): Schur
complements are formed from the top level down,
S_i = D_i - U_i S_{i+1}^-1 L_i, and the solution is
substituted back up from the lowest free level.  The Neumann and regularity
solves share that path and its backward-error refusal (`_solve_free`).  The
complement S_0 left on the boundary level is the discrete
Dirichlet-to-Neumann (Steklov-Poincare) map of the strip, so the
Neumann-to-Dirichlet map is S_0^-1 on the weak boundary vectors and needs no
interior values.  Only the small dense probes form G whole, as
sum_k kron(T_k, X_k).

This module never touches the spectral operator calculus: it is the
independent cross-check for the semigroup solvers and boundary maps.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np
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
    """Discrete solution values u at mesh nodes, with the boundary row of
    the form: boundary_form[a] = a(u, phi_a) over the boundary basis."""

    mesh: StripMesh
    values: np.ndarray  # (n_tlevels,) + grid.shape
    kind: str  # neumann | regularity
    boundary_form: np.ndarray = field(repr=False)  # (N^n,)
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

    def energy(self) -> float:
        """Discrete Dirichlet energy Re a(u, u) (with the actual A)."""
        return self.info["energy"]


def _gauss01(ngauss: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(ngauss)
    return 0.5 * (x + 1.0), 0.5 * w


def _shift_samples(grid: GridSpec, samples: np.ndarray, delta) -> np.ndarray:
    """Evaluate the trigonometric interpolant of grid samples at x + delta.

    samples: grid.shape + trailing dims; delta: per-axis offsets.
    """
    axes = tuple(range(grid.n))
    phase = sum(xi * d for xi, d in zip(grid.frequencies(), delta))
    phase = np.exp(1j * phase).reshape(grid.shape + (1,) * (samples.ndim - grid.n))
    return np.fft.ifftn(np.fft.fftn(samples, axes=axes) * phase, axes=axes)


def _x_cells(samples: np.ndarray, grid: GridSpec, ngauss: int):
    """Per-x-cell integrals of the coefficients and the x-node numbering.

    Returns (X, xnode).  X[p, q][j, a, b] = int over x-cell j of A_pq times
    the row shape of x-vertex a (its x_p-derivative for p >= 1) times the
    column shape of x-vertex b (its x_q-derivative for q >= 1); direction 0
    is t, so there the shape value itself stands.  xnode[j, a] is the grid
    index of x-vertex a of x-cell j.  Vertices and Gauss points are
    numbered axis by axis, the last axis fastest.
    """
    n, N, h = grid.n, grid.N, grid.h
    sg, wg = _gauss01(ngauss)
    PH = np.stack([1.0 - sg, sg])  # PH[a, g]: P1 shape of node a at gauss point g
    U = [PH, np.stack([-np.ones_like(sg), np.ones_like(sg)]) / h]  # value, derivative
    # shape[d, a, g]: the tensor-product shape of x-vertex a at gauss point g,
    # differentiated along direction d (d = 0 is t: no x-derivative)
    shape = np.ones((1 + n, 1, 1))
    weight = np.ones(1)
    shifted = (np.arange(N)[:, None] + np.arange(2)) % N  # [j, a] per axis
    xnode = np.zeros((1, 1), dtype=int)
    for ax in range(n):
        shape = np.stack([np.kron(shape[d], U[int(d == ax + 1)]) for d in range(1 + n)])
        weight = np.kron(weight, h * wg)
        xnode = (xnode[:, None, :, None] * N + shifted[None, :, None, :]).reshape(N ** (ax + 1), -1)
    # one shifted copy of the coefficient samples per gauss point
    A_g = np.stack(
        [_shift_samples(grid, samples, np.multiply(s, h)) for s in itertools.product(sg, repeat=n)]
    )
    A_g = A_g.reshape((len(weight), grid.npoints) + A_g.shape[-2:])
    X = np.einsum("g,gjpq,pag,qbg->pqjab", weight, A_g, shape, shape, optimize=True)
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
    (p, q >= 1), dense, shape (4, N^n, N^n).  Ordered level by level, block
    (i, j) of G is sum_k T_k[i, j] X_k.  No boundary conditions are applied.
    """
    dts = np.diff(t_nodes)
    scale = np.stack([1.0 / dts, np.ones_like(dts), np.ones_like(dts), dts])
    cells = scale[:, :, None, None] * _T_CELL[:, None]  # (4, M, 2, 2)
    diag = np.zeros((4, len(t_nodes)))
    diag[:, :-1] += cells[:, :, 0, 0]
    diag[:, 1:] += cells[:, :, 1, 1]

    Xc, xnode = _x_cells(samples, grid, ngauss)
    npts, nv = xnode.shape
    groups = np.stack(
        [Xc[0, 0], Xc[0, 1:].sum(axis=0), Xc[1:, 0].sum(axis=0), Xc[1:, 1:].sum(axis=(0, 1))]
    )
    # scatter the cell integrals once: entry (row, col) of X_k sits at k p^2 + row p + col
    index = (xnode[:, :, None] * npts + xnode[:, None, :]).ravel()
    index = (np.arange(4)[:, None] * npts**2 + index).ravel()
    size = 4 * npts**2
    X = np.bincount(index, weights=groups.real.ravel(), minlength=size)
    X = X + 1j * np.bincount(index, weights=groups.imag.ravel(), minlength=size)
    return (diag, cells[:, :, 0, 1], cells[:, :, 1, 0]), X.reshape(4, npts, npts)


def _apply_form(T, X, U: np.ndarray) -> np.ndarray:
    """G u for the form (T, X) of _form_factors, with U the (M+1, N^n)
    array of level values: sum_k tridiag(T_k) U X_k^T."""
    diag, upper, lower = T
    V = U @ X.transpose(0, 2, 1)  # V[k] = U X_k^T
    out = np.einsum("ki,kip->ip", diag, V)
    out[:-1] += np.einsum("ki,kip->ip", upper, V[:, 1:])
    out[1:] += np.einsum("ki,kip->ip", lower, V[:, :-1])
    return out


def _form_norm1(T, X) -> float:
    """||G||_1, the largest column sum of |G|, exactly: per t-level the
    column sums of its three blocks, over the union sparsity pattern of the
    X_k."""
    diag, upper, lower = T
    p = X.shape[1]
    rows, cols = np.nonzero(np.any(X != 0, axis=0))
    entries = X[:, rows, cols]  # (4, nnz)

    def column_sums(coef):  # per level i, the column sums of |sum_k coef[k, i] X_k|
        blocks = np.abs(coef.T @ entries)
        index = np.arange(len(blocks))[:, None] * p + cols
        size = len(blocks) * p
        return np.bincount(index.ravel(), weights=blocks.ravel(), minlength=size).reshape(-1, p)

    sums = column_sums(diag)
    sums[1:] += column_sums(upper)  # U_{j-1} = G[j-1, j] sits in the columns of level j
    sums[:-1] += column_sums(lower)  # L_j = G[j+1, j]
    return float(sums.max())


def _dense_form(samples: np.ndarray, grid: GridSpec, t_nodes: np.ndarray, ngauss: int):
    """The form as one dense matrix, sum_k T_k (x) X_k (for small probes)."""
    (diag, upper, lower), X = _form_factors(samples, grid, t_nodes, ngauss)
    return sum(
        np.kron(np.diag(diag[k]) + np.diag(upper[k], 1) + np.diag(lower[k], -1), X[k])
        for k in range(4)
    )


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
    p = X.shape[1]
    stack = X.reshape(4, -1)

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


def _boundary_symbol(grid: GridSpec, ngauss: int) -> np.ndarray:
    """Per-mode symbol of the weak boundary pairing: the weak vector of the
    exponential mode m is sigma(m) * exp(i m x_a)."""
    sg, wg = _gauss01(ngauss)
    h = grid.h
    k = np.fft.fftfreq(grid.N, d=1.0 / grid.N) * (2.0 * np.pi / grid.L)
    sig1 = np.zeros(grid.N, dtype=complex)
    for s, w in zip(sg, wg):
        sig1 += h * w * (np.exp(1j * k * s * h) * (1 - s) + np.exp(1j * k * (s - 1) * h) * s)
    return functools.reduce(np.multiply.outer, [sig1] * grid.n)


def _boundary_weak(grid: GridSpec, ell: np.ndarray, ngauss: int) -> np.ndarray:
    """Weak vector b_a = int ell(x) phi_a(x) dx over boundary nodes,
    computed exactly on the trigonometric interpolant of ell."""
    sig = _boundary_symbol(grid, ngauss)
    return ifftn(grid, fftn(grid, np.asarray(ell, dtype=complex)) * sig)


def _weak_to_field(grid: GridSpec, weak: np.ndarray, ngauss: int) -> np.ndarray:
    """Invert the weak boundary pairing back to nodal samples."""
    sig = _boundary_symbol(grid, ngauss)
    return ifftn(grid, fftn(grid, weak) / sig)


def _solve_free(T, X, w: np.ndarray, first: int, load: np.ndarray):
    """Solve G_II u = load - (G w)_I on the free levels I = first..M-1.

    w holds values on every level; the result is v = w + u and G v, both
    (M+1, N^n).  A solution whose normwise backward error, in 1-norms,
    exceeds _BACKWARD_TOL is refused: |residual| <= tol (|G| |u| + |rhs|).
    """
    M = len(w) - 1
    rhs = load - _apply_form(T, X, w)[first:M]
    u = _level_sweep(T, X, first, rhs)
    v = w.copy()
    v[first:M] += u
    Gv = _apply_form(T, X, v)
    # (G v) on the free levels minus the load is G_II u - rhs, the residual
    err = np.abs(Gv[first:M] - load).sum()
    scale = _form_norm1(T, X) * np.abs(u).sum() + np.abs(rhs).sum()
    if not err <= _BACKWARD_TOL * scale:
        raise SingularFormError(
            f"level sweep backward error {err / max(scale, 1e-300):.1e} > {_BACKWARD_TOL:.0e}"
        )
    return v, Gv


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
    load = np.zeros((mesh.M, grid.npoints), dtype=complex)
    load[0] = _boundary_weak(grid, ell, ngauss).ravel()
    u, Gu = _solve_free(T, X, np.zeros((mesh.n_tlevels, grid.npoints), dtype=complex), 0, load)
    energy = float(np.real(np.vdot(u, Gu)))
    lnorm = sobolev_norm(grid, ell, -0.5)
    info = {
        "energy": energy,
        "datum_sobolev_minus_half": lnorm,
        "energy_ratio": energy / max(lnorm**2, 1e-300),
        "ngauss": ngauss,
    }
    return OracleSolution(mesh, u.reshape((mesh.n_tlevels,) + grid.shape), "neumann", Gu[0], info)


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
    if lifting is None:
        lifting = np.zeros((mesh.n_tlevels,) + grid.shape, dtype=complex)
        lifting[0] = f
    w = np.ascontiguousarray(lifting, dtype=complex).ravel()
    if w.shape != (mesh.n_nodes,):
        raise ValueError("lifting must cover all mesh nodes")
    w = w.reshape(mesh.n_tlevels, grid.npoints)
    if not np.allclose(w[0], f.ravel(), atol=1e-12 * max(1.0, float(np.max(np.abs(f))))):
        raise ValueError("lifting does not match the boundary datum")
    if np.any(w[-1] != 0):
        raise ValueError("lifting must vanish at the top boundary")
    load = np.zeros((mesh.M - 1, grid.npoints), dtype=complex)
    v, Gv = _solve_free(T, X, w, 1, load)
    info = {"ngauss": ngauss, "energy": float(np.real(np.vdot(v, Gv)))}
    return OracleSolution(mesh, v.reshape((mesh.n_tlevels,) + grid.shape), "regularity", Gv[0], info)


def extract_conormal(sol: OracleSolution, ngauss: int | None = None) -> np.ndarray:
    """Recover the boundary functional ell with d_nu u(0) = -ell from the
    discrete bilinear identity <ell, phi> = a(u, phi) over the boundary
    basis functions; returns nodal samples of ell."""
    grid = sol.mesh.grid
    ng = ngauss if ngauss is not None else sol.info.get("ngauss", 2)
    return _weak_to_field(grid, sol.boundary_form.reshape(grid.shape), ng)


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
    G = _dense_form(samples, grid, doubled, ngauss)
    sv = np.linalg.svd(G, compute_uv=False)
    scale = sv[0]
    kernel_dim = int(np.sum(sv <= 1e-8 * scale))
    herm_min = float(np.min(np.linalg.eigvalsh(0.5 * (G + G.conj().T))))
    accretive = bool(herm_min >= -1e-8 * scale)
    return {
        "kernel_dim": kernel_dim,
        "smallest_svs": sv[-3:][::-1].tolist(),
        "herm_min": herm_min,
        "accretive_ok": accretive,
        "ok": kernel_dim == 1 and accretive,
    }


def coercivity_check(A: CoefficientField, mesh: StripMesh, ngauss: int = 2) -> dict:
    """Smallest generalized eigenvalue of Re a(u,u) against the A = I
    energy, on the space vanishing at the top boundary (dense; use small
    meshes)."""
    import scipy.linalg

    grid = A.grid
    eye = np.broadcast_to(np.eye(1 + grid.n), A.samples.shape)
    nfree = mesh.M * grid.npoints
    G = _dense_form(A.samples, grid, mesh.t_nodes, ngauss)[:nfree, :nfree]
    E = _dense_form(eye, grid, mesh.t_nodes, ngauss)[:nfree, :nfree]
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
    xaxes = range(1, n + 1)
    # d_t u: the t-difference averaged over the cell's x-nodes
    out[..., 0] = _cell_average((hi - lo) / dts.reshape((-1,) + (1,) * n), xaxes)
    mid = 0.5 * (lo + hi)
    for ax in xaxes:  # d_x u: the x-difference averaged over the other x axes
        d = (np.roll(mid, -1, axis=ax) - mid) / grid.h
        out[..., ax] = _cell_average(d, [a for a in xaxes if a != ax])
    return out


def _cell_average(f: np.ndarray, axes) -> np.ndarray:
    """Average of nodal values over the two nodes of each cell along axes."""
    for ax in axes:
        f = 0.5 * (f + np.roll(f, -1, axis=ax))
    return f


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
