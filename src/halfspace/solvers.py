"""Semigroup solvers for the upper-half-space boundary value problems.

Each solver produces an immutable handle holding a graph vector in the +
spectral subspace; evaluation on the strip is pure semigroup application.
In V-coordinates the conormal gradient satisfies the first-order ODE
d/dt p + uT p = 0, so p(t) = exp(-t uT) p(0), and the Dirichlet potential
is recovered from u = -(exp(-t T) H0~)_perp + c.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .boundary import SgnBlocks, SpectralCore, build_core, gamma_dn, gamma_nd
from .coeffs import CoefficientField, hat_transform
from .errors import NumericalError
from .grid import (
    BoundaryField,
    GridSpec,
    coeffs_to_scalar,
    fftn,
    ifftn,
    l2_norm,
    riesz_adjoint,
    scalar_to_coeffs,
    vcoords_to_fields,
)
from .operators import (
    OperatorMatrix,
    assemble_operators,
    decompose_T_from_uT,
    log_t_levels,
    mode_weights,
    plus_coefficients,
    semigroup_apply,
    spectral_columns,
    weight_vector,
)

__all__ = [
    "SolutionHandle",
    "StripField",
    "IllPosedError",
    "solve_neumann_l2",
    "solve_regularity_l2",
    "solve_dirichlet_l2",
    "solve_energy",
    "evaluate",
    "residual_check",
    "gradient_vcoords",
]

_MEAN_TOL = 1e-10
_TRACE_TOL = 1e-8

_LOWER = ("lower_triangular", "block_diagonal")
_UPPER = ("upper_triangular", "block_diagonal")


class IllPosedError(NumericalError):
    """The restricted linear system for the boundary trace is singular."""


@dataclass(frozen=True)
class SolutionHandle:
    """Immutable solver output: a graph vector plus its evolution operator.

    trace is the V-coordinate vector H0 (or H0~ for the Dirichlet solve),
    uT drives the conormal gradient, T the Dirichlet potential; gauge_c is
    the additive constant of the potential.
    """

    representation: str  # l2_neumann | l2_regularity | l2_dirichlet | energy
    A: CoefficientField
    trace: np.ndarray
    uT: OperatorMatrix
    T: OperatorMatrix
    calB: OperatorMatrix
    gauge_c: complex = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        known = ("l2_neumann", "l2_regularity", "l2_dirichlet", "energy")
        if self.representation not in known:
            raise ValueError(f"unknown representation {self.representation!r}")
        tr = np.ascontiguousarray(self.trace, dtype=complex)
        if tr.shape != (self.uT.dim,):
            raise ValueError("trace vector has the wrong dimension")
        if not np.all(np.isfinite(tr)):
            raise ValueError("non-finite trace vector")
        object.__setattr__(self, "trace", tr)
        tr.setflags(write=False)
        op = self.T if self.representation == "l2_dirichlet" else self.uT
        plus_coefficients(op, tr)

    @property
    def grid(self) -> GridSpec:
        return self.A.grid


@dataclass(frozen=True)
class StripField:
    """Solution samples on a strip: t levels crossed with the x grid.

    grad holds the conormal gradient (1+n components) when present, u the
    potential; kind records which of the two is populated.
    """

    grid: GridSpec
    t_grid: np.ndarray
    kind: str  # grad | u | both
    grad: np.ndarray | None = None  # (nt, 1+n) + grid.shape
    u: np.ndarray | None = None  # (nt,) + grid.shape
    content: str = "grad_A"  # what grad holds: grad_A | grad_txu

    def __post_init__(self):
        ts = np.ascontiguousarray(self.t_grid, dtype=float)
        if ts.ndim != 1 or len(ts) == 0:
            raise ValueError("t_grid must be a nonempty 1-d array")
        if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
            raise ValueError("t_grid must be nonnegative and strictly increasing")
        object.__setattr__(self, "t_grid", ts)
        if self.kind not in ("grad", "u", "both"):
            raise ValueError(f"unknown strip-field kind {self.kind!r}")
        nt = len(ts)
        if self.kind in ("grad", "both"):
            expected = (nt, 1 + self.grid.n) + self.grid.shape
            if self.grad is None or self.grad.shape != expected:
                raise ValueError("gradient values missing or mis-shaped")
            if not np.all(np.isfinite(self.grad)):
                raise ValueError("non-finite gradient values")
        if self.kind in ("u", "both"):
            expected = (nt,) + self.grid.shape
            if self.u is None or self.u.shape != expected:
                raise ValueError("potential values missing or mis-shaped")
            if not np.all(np.isfinite(self.u)):
                raise ValueError("non-finite potential values")


def _require_mean_zero(grid: GridSpec, f: np.ndarray, what: str):
    scale = float(np.max(np.abs(f))) if f.size else 0.0
    if scale == 0.0:
        return
    mean = np.abs(np.mean(f))
    if mean > _MEAN_TOL * max(scale, 1.0):
        raise ValueError(f"{what} must be mean-zero (mean magnitude {mean:.3e})")


def _tangential_to_slot(grid: GridSpec, g: np.ndarray) -> np.ndarray:
    """Coefficients of the scalar p2 with g = -R p2 (curl-free g)."""
    return scalar_to_coeffs(grid, -riesz_adjoint(grid, g))


def _check_curl_free(grid: GridSpec, g: np.ndarray, tol: float = 1e-8):
    if grid.n == 1:
        return
    gh = fftn(grid, g)
    xi = grid.frequencies()
    curl = xi[0] * gh[1] - xi[1] * gh[0]
    scale = np.sqrt(np.sum(np.abs(gh) ** 2))
    if scale > 0 and np.max(np.abs(curl)) > tol * scale * max(
        1.0, float(np.max(grid.freq_magnitude()))
    ):
        raise ValueError("tangential datum is not curl-free")


def _s12_conditioning(blocks: SgnBlocks, s: float = 0.0) -> dict:
    w = mode_weights(blocks.grid, s)
    m = (w[:, None] * blocks.s12) / w[None, :]
    sv = np.linalg.svd(m, compute_uv=False)
    return {"s12_min_sv": float(sv[-1]), "s12_cond": float(sv[0] / sv[-1])}


def _triangularity_gate(A: CoefficientField, allowed, force: bool, problem: str):
    if A.block_class in allowed:
        return False
    if not force:
        raise ValueError(
            f"the {problem} solve at s = 0 requires block class in {allowed}; "
            f"got {A.block_class!r} (pass force=True for an exploratory run)"
        )
    return True


def solve_neumann_l2(
    A: CoefficientField,
    f: np.ndarray,
    force: bool = False,
    core: SpectralCore | None = None,
) -> SolutionHandle:
    """Neumann problem with L2 datum f = conormal derivative at t = 0.

    H0 = [f; Gamma_ND f] in V-coordinates; the gradient on the strip is
    exp(-t uT) H0.  core, when given, must be build_core(A); solves of one
    field then share its factorization.
    """
    grid = A.grid
    f = np.ascontiguousarray(f, dtype=complex)
    if f.shape != grid.shape:
        raise ValueError("Neumann datum must be a scalar grid field")
    _require_mean_zero(grid, f, "Neumann datum")
    exploratory = _triangularity_gate(A, _LOWER, force, "Neumann")

    core = core or build_core(A)
    G = gamma_nd(core.blocks, s=0.0)
    fc = scalar_to_coeffs(grid, f)
    H0 = np.concatenate([fc, G @ fc])

    diag = {
        "datum_norm": l2_norm(grid, f),
        "trace_norm": float(np.linalg.norm(H0)),
    }
    diag["norm_ratio"] = diag["trace_norm"] / max(diag["datum_norm"], 1e-300)
    if exploratory:
        diag["exploratory"] = True
        diag.update(_s12_conditioning(core.blocks))
    return SolutionHandle("l2_neumann", A, H0, core.uT, core.T, core.calB, 0.0, diag)


def solve_regularity_l2(
    A: CoefficientField, g: np.ndarray, force: bool = False
) -> SolutionHandle:
    """Regularity problem with tangential-gradient datum g = grad_x u at 0.

    H0 = [Gamma_DN g; g]; g must be curl-free (a gradient).
    """
    grid = A.grid
    g = np.ascontiguousarray(g, dtype=complex)
    if g.shape != (grid.n,) + grid.shape:
        raise ValueError("regularity datum must be a tangential (n-component) field")
    for j in range(grid.n):
        _require_mean_zero(grid, g[j], "regularity datum component")
    _check_curl_free(grid, g)
    exploratory = _triangularity_gate(A, _UPPER, force, "regularity")

    core = build_core(A)
    Gdn = gamma_dn(core.blocks, s=0.0)
    gc = _tangential_to_slot(grid, g)
    H0 = np.concatenate([Gdn @ gc, gc])

    diag = {
        "datum_norm": l2_norm(grid, g),
        "trace_norm": float(np.linalg.norm(H0)),
    }
    diag["norm_ratio"] = diag["trace_norm"] / max(diag["datum_norm"], 1e-300)
    if exploratory:
        diag["exploratory"] = True
        diag.update(_s12_conditioning(core.blocks))
    return SolutionHandle("l2_regularity", A, H0, core.uT, core.T, core.calB, 0.0, diag)


def solve_dirichlet_l2(
    A: CoefficientField, u0: np.ndarray, core: SpectralCore | None = None
) -> SolutionHandle:
    """Dirichlet problem with L2 datum u0 at t = 0.

    Finds H0~ in the + spectral subspace of T whose perpendicular part is
    -(u0 - mean) by least squares over a basis of that subspace; the
    potential is u = -(exp(-t T) H0~)_perp + mean(u0).  T's eigenbasis is
    taken from uT's; core, when given, must be build_core(A).
    """
    grid = A.grid
    u0 = np.ascontiguousarray(u0, dtype=complex)
    if u0.shape != grid.shape:
        raise ValueError("Dirichlet datum must be a scalar grid field")
    _triangularity_gate(A, _LOWER, force=False, problem="Dirichlet")

    core = core or build_core(A)
    c = complex(np.mean(u0))
    target = -scalar_to_coeffs(grid, u0 - c)

    K = grid.nmodes
    dec = decompose_T_from_uT(core.T, core.uT)
    pos = dec.eigenvalues.real > 0
    Z = dec.vectors[:, pos]  # basis of the + subspace of T
    Ztop = Z[:K]
    sv = np.linalg.svd(Ztop, compute_uv=False)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else np.inf
    if cond > 1e8:
        raise IllPosedError(
            f"restricted trace system is numerically singular "
            f"(condition number {cond:.3e}, rank deficiency likely)"
        )
    y, *_ = np.linalg.lstsq(Ztop, target, rcond=None)
    H0t = Z @ y
    trace_err = np.linalg.norm(Ztop @ y - target) / max(np.linalg.norm(target), 1e-300)
    if trace_err > _TRACE_TOL:
        warnings.warn(
            f"Dirichlet boundary trace residual {trace_err:.3e} exceeds "
            f"{_TRACE_TOL:.1e}"
        )

    diag = {
        "restricted_cond": cond,
        "trace_error": float(trace_err),
        "datum_norm": l2_norm(grid, u0),
        "trace_norm": float(np.linalg.norm(H0t)),
    }
    diag["square_function"] = _square_function(core.uT, core.S.matrix @ H0t, core.calB)
    return SolutionHandle("l2_dirichlet", A, H0t, core.uT, core.T, core.calB, c, diag)


def _square_function(
    uT: OperatorMatrix, p0: np.ndarray, calB: OperatorMatrix, npoints: int = 200
) -> float:
    """(Integral of t ||grad_{t,x} u(t)||^2 dt)^(1/2) by log-t quadrature.

    p0 is the V-coordinate conormal gradient at t = 0; the full gradient is
    [(calB p)_perp; p_par] per level.
    """
    if not np.any(p0):
        return 0.0
    ts = log_t_levels(uT, npoints)
    K = uT.grid.nmodes
    P = spectral_columns(uT, ts, p0)
    vals = np.sum(np.abs(calB.matrix[:K] @ P) ** 2 + np.abs(P[K:]) ** 2, axis=0)
    return float(np.sqrt(np.trapezoid(ts**2 * vals, np.log(ts))))


def solve_energy(
    A: CoefficientField, datum: np.ndarray, problem: str = "neumann"
) -> SolutionHandle:
    """Energy solution with the boundary maps taken at the s = -1/2 topology.

    problem = "neumann": datum is the conormal derivative (scalar, the
    natural topology is order -1/2).  problem = "dirichlet": datum is the
    boundary potential (scalar, order +1/2); its tangential gradient feeds
    the regularity-type construction.  Works for every accretive A.
    """
    grid = A.grid
    datum = np.ascontiguousarray(datum, dtype=complex)
    if datum.shape != grid.shape:
        raise ValueError("energy datum must be a scalar grid field")
    _require_mean_zero(grid, datum, "energy datum")

    core = build_core(A)
    if problem == "neumann":
        fc = scalar_to_coeffs(grid, datum)
        G = gamma_nd(core.blocks, s=-0.5)
        H0 = np.concatenate([fc, G @ fc])
    elif problem == "dirichlet":
        # tangential gradient of the datum, spectrally
        dh = fftn(grid, datum)
        xi = grid.frequencies()
        g = ifftn(grid, 1j * xi * dh)
        gc = _tangential_to_slot(grid, g)
        Gdn = gamma_dn(core.blocks, s=-0.5)
        H0 = np.concatenate([Gdn @ gc, gc])
    else:
        raise ValueError(f"unknown energy problem {problem!r}")

    w = weight_vector(grid, -0.5)
    trace_nrm = float(np.linalg.norm(w * H0))
    energy = _strip_energy(core.uT, H0)
    diag = {
        "trace_norm_half": trace_nrm,
        "energy_norm": energy,
        "energy_ratio": energy / max(trace_nrm, 1e-300),
    }
    return SolutionHandle("energy", A, H0, core.uT, core.T, core.calB, 0.0, diag)


def _strip_energy(uT: OperatorMatrix, H0: np.ndarray, npoints: int = 400) -> float:
    """(Integral of ||exp(-t uT) H0||^2 dt)^(1/2) by log-t quadrature."""
    if not np.any(H0):
        return 0.0
    ts = log_t_levels(uT, npoints, lo=1e-5)
    vals = np.sum(np.abs(spectral_columns(uT, ts, H0)) ** 2, axis=0)
    return float(np.sqrt(np.trapezoid(ts * vals, np.log(ts))))


def gradient_vcoords(handle: SolutionHandle, t: float) -> np.ndarray:
    """V-coordinates of the conormal gradient at height t."""
    return semigroup_apply(handle.uT, t, _gradient_trace(handle))


def _gradient_trace(handle: SolutionHandle) -> np.ndarray:
    """V-coordinates of the conormal gradient at t = 0."""
    if handle.representation != "l2_dirichlet":
        return handle.trace
    # grad_A u = exp(-t uT) S H0~ when u = -(exp(-t T) H0~)_perp + c
    grid = handle.grid
    w = grid.mode_magnitudes()
    K = grid.nmodes
    p = np.empty_like(handle.trace)
    p[:K] = w * handle.trace[K:]
    p[K:] = w * handle.trace[:K]
    return p


def _strip_levels(t_grid) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(ts < 0) or np.any(np.diff(ts) <= 0):
        raise ValueError("t_grid must be nonnegative, sorted, distinct")
    return ts


def _gradient_fields(handle: SolutionHandle, ts: np.ndarray) -> np.ndarray:
    """Conormal gradient fields at the heights ts, (nt, 1+n) + grid.shape."""
    P = spectral_columns(handle.uT, ts, _gradient_trace(handle))
    return vcoords_to_fields(handle.grid, P)


def _full_gradient(B: CoefficientField, F: np.ndarray) -> np.ndarray:
    """grad_{t,x} u = [(B F)_perp; F_par] for conormal gradient fields F of
    shape (nt, 1+n) + grid.shape, with B = hat(A)."""
    out = F.copy()
    out[:, 0] = np.einsum("...q,tq...->t...", B.samples[..., 0, :], F)
    return out


def evaluate(handle: SolutionHandle, t_grid) -> StripField:
    """Sample the solution on the given heights (pure, deterministic)."""
    grid = handle.grid
    ts = _strip_levels(t_grid)
    grad = _gradient_fields(handle, ts)
    if handle.representation != "l2_dirichlet":
        return StripField(grid, ts, "grad", grad=grad)
    Q = spectral_columns(handle.T, ts, handle.trace)
    u = -coeffs_to_scalar(grid, Q[: grid.nmodes]) + handle.gauge_c
    return StripField(grid, ts, "both", grad=grad, u=u)


def evaluate_full_gradient(handle: SolutionHandle, t_grid) -> StripField:
    """Sample the full gradient grad_{t,x} u = [(B F)_perp; F_par] on the
    given heights, where F is the conormal gradient and B = hat(A)."""
    ts = _strip_levels(t_grid)
    F = _gradient_fields(handle, ts)
    out = _full_gradient(hat_transform(handle.A), F)
    return StripField(handle.grid, ts, "grad", grad=out, content="grad_txu")


def residual_check(field: StripField, A: CoefficientField) -> dict:
    """First-order system residual d/dt p + uT p on interior t levels.

    Uses centered differences in t and exact Fourier multipliers in x; also
    reports the curl defect of the tangential part.  Residuals are relative
    to the gradient norm at each level.
    """
    if field.kind not in ("grad", "both"):
        raise ValueError("residual check needs conormal-gradient values")
    ts = field.t_grid
    if len(ts) < 3:
        raise ValueError("need at least 3 t-levels for centered differences")
    grid = field.grid
    B = hat_transform(A)
    _, _, _, uT = assemble_operators(B)

    from .grid import field_to_vcoords

    P = np.stack(
        [
            field_to_vcoords(BoundaryField(grid, field.grad[i]))
            for i in range(len(ts))
        ]
    )
    res = []
    for i in range(1, len(ts) - 1):
        dp = (P[i + 1] - P[i - 1]) / (ts[i + 1] - ts[i - 1])
        r = dp + uT.matrix @ P[i]
        res.append(np.linalg.norm(r) / max(np.linalg.norm(P[i]), 1e-300))
    curl = 0.0
    if grid.n == 2:
        gh = fftn(grid, field.grad[:, 1:])
        xi = grid.frequencies()
        cdef = xi[0] * gh[:, 1] - xi[1] * gh[:, 0]
        scale = np.sqrt(np.sum(np.abs(gh) ** 2))
        if scale > 0:
            curl = float(np.max(np.abs(cdef)) / (scale * max(1.0, float(np.max(grid.freq_magnitude())))))
    return {
        "residual_max": float(np.max(res)),
        "residual_mean": float(np.mean(res)),
        "curl_defect": curl,
        "dt_max": float(np.max(np.diff(ts))),
    }
