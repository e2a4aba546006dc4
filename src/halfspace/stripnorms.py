"""Solution-class norms on strip fields.

The modified nontangential maximal function takes local L2 averages over
Whitney regions W(t, x) = (t/c0, c0 t) x B(x; c1 t); the square function
and energy norms are t-quadratures of slice L2 norms.  All are evaluated
on sampled strip fields (log-spaced t levels).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, l2_norm
from .operators import log_t_quadrature
from .solvers import StripField

__all__ = [
    "WhitneyParams",
    "nontangential_norm",
    "square_function_norm",
    "energy_norm",
    "default_t_grid",
]


@dataclass(frozen=True)
class WhitneyParams:
    c0: float = 2.0
    c1: float = 1.0

    def __post_init__(self):
        if not self.c0 > 1.0:
            raise ValueError("Whitney aspect constant c0 must exceed 1")
        if not self.c1 > 0.0:
            raise ValueError("Whitney radius constant c1 must be positive")


def default_t_grid(grid: GridSpec, npoints: int = 200) -> np.ndarray:
    """Log-spaced strip coverage, wide enough that single-mode exponential
    profiles are quadratured to ~1e-6 and at least 4 dyadic decades are
    available for Whitney averaging."""
    lo = min(grid.h / 4.0, 1e-7)
    hi = max(16.0 * grid.L, 1e3)
    return np.geomspace(lo, hi, npoints)


def _field_magnitude_sq(field: StripField) -> np.ndarray:
    """Pointwise squared modulus, (nt,) + grid.shape, of whichever values
    the field carries (gradient preferred)."""
    if field.kind in ("grad", "both"):
        return np.sum(np.abs(field.grad) ** 2, axis=1)
    return np.abs(field.u) ** 2


def _window_sum(P: np.ndarray, grid: GridSpec, radius_cells: int) -> np.ndarray:
    """Circular sliding-window sum over x-balls of the given cell radius
    R < N/2: per axis, differences of one prefix sum over the field padded
    circularly by R + 1 cells before and R after."""
    R, N = radius_cells, grid.N
    out = P
    for ax in range(1, 1 + grid.n):
        x = np.moveaxis(out, ax, -1)
        csum = np.cumsum(np.concatenate([x[..., N - R - 1:], x, x[..., :R]], axis=-1), axis=-1)
        out = np.moveaxis(csum[..., 2 * R + 1:] - csum[..., :N], -1, ax)
    return out


def nontangential_norm(
    field: StripField, params: WhitneyParams | None = None
) -> float:
    """Boundary L2 norm of the Whitney-averaged maximal function.

    N~(x) = sup over dyadic t of t^{-(1+n)/2} ||g||_{L2(W(t,x))}, with the
    supremum over dyadic levels covered by the field's t range.
    """
    params = params or WhitneyParams()
    grid = field.grid
    ts = field.t_grid
    # Whitney boxes snap to grid cells, so levels below a quarter cell are
    # meaningless (the discrete box cannot shrink with t)
    tmin = max(ts[ts > 0][0] if np.any(ts > 0) else grid.h / 4.0, grid.h / 4.0)
    ts = ts[ts > 0]
    if len(ts) < 2:
        raise ValueError("strip coverage too thin for Whitney averages")
    n_dyadic = int(np.floor(np.log2(ts[-1] / tmin)))
    if n_dyadic < 4:
        raise ValueError(
            f"need at least 4 dyadic t-levels, field covers {n_dyadic}"
        )
    levels = tmin * 2.0 ** np.arange(1, n_dyadic)  # keep shells inside range
    P = _field_magnitude_sq(field)
    # per-level t-weights (trapezoid spacing on the sample grid)
    tfull = field.t_grid
    wts = np.gradient(tfull)
    sup_sq = np.zeros(grid.shape)
    for t in levels:
        sel = (tfull > t / params.c0) & (tfull < params.c0 * t)
        if not np.any(sel):
            continue
        slab = np.tensordot(wts[sel], P[sel], axes=(0, 0))  # grid.shape
        radius_cells = max(int(np.floor(params.c1 * t / grid.h)), 0)
        radius_cells = min(radius_cells, grid.N // 2 - 1)
        local = _window_sum(slab[None], grid, radius_cells)[0] * grid.cell_volume
        sup_sq = np.maximum(sup_sq, local / t ** (1 + grid.n))
    return l2_norm(grid, np.sqrt(sup_sq))


def _check_span(field: StripField, decades: float = 4.0):
    ts = field.t_grid
    ts = ts[ts > 0]
    if len(ts) < 8:
        raise ValueError("too few positive t-levels for quadrature")
    if ts[-1] / ts[0] < 10.0**decades:
        P = _field_magnitude_sq(field)
        raise ValueError(
            f"t range spans only {np.log10(ts[-1] / ts[0]):.1f} decades "
            f"(need {decades}); endpoint slice energies "
            f"{float(np.sum(P[0])):.3e} / {float(np.sum(P[-1])):.3e}"
        )
    return ts


def _slice_norms_sq(field: StripField) -> np.ndarray:
    grid = field.grid
    P = _field_magnitude_sq(field)
    axes = tuple(range(1, 1 + grid.n))
    return np.sum(P, axis=axes) * grid.cell_volume


def square_function_norm(field: StripField) -> float:
    """(Integral of t ||grad u(t)||^2 dt)^(1/2), trapezoid in log t."""
    ts = _check_span(field)
    return log_t_quadrature(ts, 2, _slice_norms_sq(field)[field.t_grid > 0])


def energy_norm(field: StripField) -> float:
    """(Integral of ||grad u(t)||^2 dt)^(1/2), trapezoid in log t."""
    ts = _check_span(field)
    return log_t_quadrature(ts, 1, _slice_norms_sq(field)[field.t_grid > 0])
