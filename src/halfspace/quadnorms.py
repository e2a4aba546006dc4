"""Quadratic-estimate norms adapted to S, T and the reversed product.

The norm ||F||_{S,s} = (int_0^inf t^(-2s) ||psi_t(S) F||^2 dt/t)^(1/2) with
psi(z) = z^k exp(-z sgn z) has the closed form c_{psi,s} |||S|^s F||, with
c_{psi,s} = sqrt(Gamma(2k - 2s) / 2^(2k - 2s)).  Operator-adapted variants
are evaluated by log-spaced quadrature through the eigendecomposition, which
the operator keeps (operators.decompose).  The table F[i, j] = f(t_j,
lambda_i) of each psi, or of the semigroup, and its levels t_j are built once
per (function, npoints) and kept with the decomposition, freed with the
operator.  Each norm is then one W^-1 p, one product and the trapezoid
(operators._table_columns).  T = S^-1 uT S is not factored: its columns are
S^-1 times uT's columns of S p, on uT's tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec
from .operators import (
    OperatorMatrix,
    _table_columns,
    log_t_quadrature,
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
    return float(np.sqrt(math.gamma(a) / 2.0**a))


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


def _table_norm(op: OperatorMatrix, p: np.ndarray, s: float, key, f, npoints: int) -> float:
    ts, cols = _table_columns(op, p, key, f, npoints)
    return log_t_quadrature(ts, -2 * s, np.sum(np.abs(cols) ** 2, axis=0))


def quad_norm_adapted(
    op: OperatorMatrix,
    p: np.ndarray,
    s: float,
    psi: PsiSpec | None = None,
    npoints: int = 200,
) -> float:
    """Adapted quadratic norm by trapezoid quadrature in log t.  Raises
    UnreliableDecompositionError when op's eigenbasis (for T, uT's) is
    unreliable."""
    _check_s(s)
    psi = psi or default_psi(s)
    psi.check_exponent(s)
    if not np.any(p):
        return 0.0
    return _table_norm(
        op, p, s, psi, lambda t, lam: psi.eigenvalue_function(t)(lam), npoints
    )


def semigroup_norm(
    uT: OperatorMatrix, p: np.ndarray, s: float, npoints: int = 200
) -> float:
    """(int_0^inf t^(-2s) ||exp(-t |uT|) F||^2 dt/t)^(1/2) for -1 <= s < 0.
    Raises UnreliableDecompositionError when uT's eigenbasis is unreliable."""
    if not -1.0 <= s < 0.0:
        raise ValueError("semigroup norm requires -1 <= s < 0")
    if not np.any(p):
        return 0.0
    # exp(-t |uT|) through uT's own eigenbasis: |uT| shares it, with
    # eigenvalues |lambda|
    return _table_norm(
        uT, p, s, "semigroup", lambda t, lam: np.exp(-t * np.abs(lam)), npoints
    )
