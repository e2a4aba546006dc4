"""Quadratic-estimate norms adapted to S, T and the reversed product.

The norm ||F||_{S,s} = (int_0^inf t^(-2s) ||psi_t(S) F||^2 dt/t)^(1/2) with
psi(z) = z^k exp(-z sgn z) has the closed form c_{psi,s} |||S|^s F||, with
c_{psi,s} = sqrt(Gamma(2k - 2s) / 2^(2k - 2s)).  Operator-adapted variants
are evaluated by log-spaced quadrature through the eigendecomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as gamma_fn

from .grid import GridSpec
from .operators import (
    OperatorMatrix,
    UnreliableDecompositionError,
    decompose,
    log_t_levels,
    spectral_columns,
    weight_vector,
)

__all__ = [
    "PsiSpec",
    "c_psi",
    "quad_norm_S",
    "quad_norm_adapted",
    "semigroup_norm",
    "default_psi",
]


@dataclass(frozen=True)
class PsiSpec:
    """psi(z) = z^k exp(-z sgn z) on the bisector, k a positive integer."""

    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("psi order must be a positive integer")

    def check_exponent(self, s: float):
        if self.k <= max(s, 0.0):
            raise ValueError(f"psi order k={self.k} requires k > max(s, 0), got s={s}")

    def eigenvalue_function(self, t):
        """lam -> psi(t lam); t may be an array broadcast against lam."""
        def f(lam: np.ndarray) -> np.ndarray:
            sgn = np.sign(lam.real)
            z = t * lam
            return z**self.k * np.exp(-z * sgn)

        return f


def default_psi(s: float) -> PsiSpec:
    """k = 1 except at the s = 1 endpoint where k > s forces k = 2."""
    return PsiSpec(k=2 if s >= 1.0 else 1)


def c_psi(psi: PsiSpec, s: float) -> float:
    """Closed form sqrt(Gamma(2k-2s)/2^(2k-2s)) of the quadratic constant."""
    psi.check_exponent(s)
    a = 2 * psi.k - 2 * s
    return float(np.sqrt(gamma_fn(a) / 2.0**a))


def _check_s(s: float):
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"exponent {s} outside the supported range [-1, 1]")


def quad_norm_S(
    grid: GridSpec, p: np.ndarray, s: float, psi: PsiSpec | None = None
) -> float:
    """||F||_{S,s} for a V-coordinate vector, evaluated per mode in closed
    form (S is a multiplier in V-coordinates)."""
    _check_s(s)
    psi = psi or default_psi(s)
    psi.check_exponent(s)
    w = weight_vector(grid, s)
    return c_psi(psi, s) * float(np.linalg.norm(w * p))


def quad_norm_adapted(
    op: OperatorMatrix,
    p: np.ndarray,
    s: float,
    psi: PsiSpec | None = None,
    npoints: int = 200,
) -> float:
    """Adapted quadratic norm by trapezoid quadrature in log t."""
    _check_s(s)
    psi = psi or default_psi(s)
    psi.check_exponent(s)
    if not np.any(p):
        return 0.0
    ts = log_t_levels(op, npoints)
    cols = spectral_columns(
        op, ts, p, lambda t, lam: psi.eigenvalue_function(t)(lam), plus_subspace=False
    )
    return _log_t_quadrature(ts, s, cols)


def semigroup_norm(
    uT: OperatorMatrix, p: np.ndarray, s: float, npoints: int = 200
) -> float:
    """(int_0^inf t^(-2s) ||exp(-t |uT|) F||^2 dt/t)^(1/2) for -1 <= s < 0."""
    if not -1.0 <= s < 0.0:
        raise ValueError("semigroup norm requires -1 <= s < 0")
    if not np.any(p):
        return 0.0
    # exp(-t |uT|) through uT's own eigenbasis: |uT| shares it, with
    # eigenvalues |lambda|
    if not decompose(uT).reliable:
        raise UnreliableDecompositionError(
            "unreliable eigendecomposition; refusing the semigroup norm"
        )
    ts = log_t_levels(uT, npoints)
    cols = spectral_columns(
        uT, ts, p, lambda t, lam: np.exp(-t * np.abs(lam)), plus_subspace=False
    )
    return _log_t_quadrature(ts, s, cols)


def _log_t_quadrature(ts: np.ndarray, s: float, cols: np.ndarray) -> float:
    """(int t^(-2s) ||col(t)||^2 dt/t)^(1/2), trapezoid in log t."""
    vals = np.sum(np.abs(cols) ** 2, axis=0)
    return float(np.sqrt(np.trapezoid(ts ** (-2 * s) * vals, np.log(ts))))
