"""Boundary maps from the block decomposition of the operator sign.

Writing sgn of the reversed product in perpendicular/parallel blocks
[[s11, s12], [s21, s22]], the Neumann-to-Dirichlet map factorizes as
s12^-1 (I - s11) = (I - s22)^-1 s21, its inverse (Dirichlet-to-Neumann)
as s21^-1 (I - s22), and the lower-half-space map as -s12^-1 (I + s11).
Sobolev topologies of order s are realized by conjugating blocks with the
diagonal weight |xi|^s, so operator norms and singular-value floors are
ordinary spectral quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, hat_transform
from .errors import NumericalError
from .grid import GridSpec
from .operators import (
    OperatorMatrix,
    assemble_operators,
    matrix_sign,
    mode_weights,
    spectral_projectors,
    weighted_norm,
)

__all__ = [
    "SgnBlocks",
    "SpectralCore",
    "sgn_blocks",
    "build_core",
    "gamma_nd",
    "gamma_dn",
    "gamma_minus",
    "key_lemma_check",
    "rellich_constant",
    "rellich_from_blocks",
    "SingularBlockError",
]

DEFAULT_SV_FLOOR = 1e-8


class SingularBlockError(NumericalError):
    """A sign block is numerically singular in the requested topology."""


@dataclass(frozen=True)
class SgnBlocks:
    grid: GridSpec
    s11: np.ndarray
    s12: np.ndarray
    s21: np.ndarray
    s22: np.ndarray

    def reassemble(self) -> np.ndarray:
        return np.block([[self.s11, self.s12], [self.s21, self.s22]])

    def involution_defect(self) -> float:
        m = self.reassemble()
        return float(np.linalg.norm(m @ m - np.eye(m.shape[0]), ord=2))


def sgn_blocks(uT: OperatorMatrix, method: str = "eigen") -> SgnBlocks:
    """Extract the perpendicular/parallel blocks of sgn(uT)."""
    sg = matrix_sign(uT, method=method)
    s11, s12, s21, s22 = sg.blocks()
    return SgnBlocks(uT.grid, s11.copy(), s12.copy(), s21.copy(), s22.copy())


@dataclass(frozen=True)
class SpectralCore:
    """Everything built from one coefficient field A: B = hat(A), S, calB,
    T = calB S, uT = S calB and the blocks of sgn(uT).  On the eigen route
    the factorization behind the blocks stays on uT, so later spectral maps
    of uT reuse it; calB.margin_bound is the accretivity of calB and
    uT.margin_bound the certified spectral margin of uT."""

    B: CoefficientField
    S: OperatorMatrix
    calB: OperatorMatrix
    T: OperatorMatrix
    uT: OperatorMatrix
    blocks: SgnBlocks


def build_core(A: CoefficientField, method: str = "eigen") -> SpectralCore:
    """Assemble the first-order operators for A and the blocks of sgn(uT).

    method="newton" suits callers that need only the sign blocks: it makes
    no eigendecomposition.  Callers that go on to semigroups, fractional
    powers or quadratic norms of uT keep the default, whose eigendecomposition
    those maps reuse.
    """
    B = hat_transform(A)
    S, calB, T, uT = assemble_operators(B)
    return SpectralCore(B, S, calB, T, uT, sgn_blocks(uT, method=method))


def _weighted(grid: GridSpec, M: np.ndarray, s: float) -> np.ndarray:
    w = mode_weights(grid, s)
    return (w[:, None] * M) / w[None, :]


def _min_sv(grid: GridSpec, M: np.ndarray, s: float) -> float:
    return float(np.linalg.svd(_weighted(grid, M, s), compute_uv=False)[-1])


def _solve_block(
    grid: GridSpec,
    lhs: np.ndarray,
    rhs: np.ndarray,
    s: float,
    floor: float,
    what: str,
) -> np.ndarray:
    sv = _min_sv(grid, lhs, s)
    if sv <= floor:
        raise SingularBlockError(
            f"{what} has weighted min singular value {sv:.3e} <= {floor:.1e} "
            f"at topology s={s}"
        )
    return np.linalg.solve(lhs, rhs)


def gamma_nd(
    blocks: SgnBlocks,
    s: float = -0.5,
    floor: float = DEFAULT_SV_FLOOR,
    check_agreement: bool = True,
) -> np.ndarray:
    """Neumann-to-Dirichlet map s12^-1 (I - s11) in V-coordinates.

    Maps the perpendicular slot to the parallel slot; the tangential field
    it encodes is recovered by applying -R to the output coefficients.
    """
    grid = blocks.grid
    K = grid.nmodes
    eye = np.eye(K)
    G = _solve_block(grid, blocks.s12, eye - blocks.s11, s, floor, "s12")
    if check_agreement:
        G2 = _solve_block(grid, eye - blocks.s22, blocks.s21, s, floor, "I - s22")
        mismatch = weighted_norm(grid, G - G2, s) / max(weighted_norm(grid, G, s), 1e-300)
        if mismatch > 1e-6:
            raise SingularBlockError(
                f"the two Neumann-to-Dirichlet factorizations disagree "
                f"({mismatch:.3e} relative)"
            )
    return G


def gamma_dn(
    blocks: SgnBlocks,
    s: float = -0.5,
    floor: float = DEFAULT_SV_FLOOR,
    check_agreement: bool = True,
) -> np.ndarray:
    """Dirichlet-to-Neumann map s21^-1 (I - s22), parallel to perpendicular."""
    grid = blocks.grid
    K = grid.nmodes
    eye = np.eye(K)
    G = _solve_block(grid, blocks.s21, eye - blocks.s22, s, floor, "s21")
    if check_agreement:
        G2 = _solve_block(grid, eye - blocks.s11, blocks.s12, s, floor, "I - s11")
        mismatch = weighted_norm(grid, G - G2, s) / max(weighted_norm(grid, G, s), 1e-300)
        if mismatch > 1e-6:
            raise SingularBlockError(
                f"the two Dirichlet-to-Neumann factorizations disagree "
                f"({mismatch:.3e} relative)"
            )
    return G


def gamma_minus(
    blocks: SgnBlocks, s: float = -0.5, floor: float = DEFAULT_SV_FLOOR
) -> np.ndarray:
    """Lower-half-space Neumann-to-Dirichlet map -s12^-1 (I + s11)."""
    grid = blocks.grid
    K = grid.nmodes
    eye = np.eye(K)
    G = _solve_block(grid, blocks.s12, eye + blocks.s11, s, floor, "s12")
    return -G


def key_lemma_check(
    blocks: SgnBlocks,
    s: float = -0.5,
    floor: float = 1e-6,
    n_vectors: int = 50,
    seed: int = 0,
) -> dict:
    """Invertibility floors for the six block operators, plus the projector
    norm comparisons used alongside them.

    Returns minimum weighted singular values of s12, s21, s11 +- I,
    s22 +- I and the min/max ratios ||Q+ P_pm u|| / ||P_pm u|| over random
    vectors (Q+ the projection on the perpendicular slot).
    """
    grid = blocks.grid
    K = grid.nmodes
    eye = np.eye(K)
    svs = {
        "s12": _min_sv(grid, blocks.s12, s),
        "s21": _min_sv(grid, blocks.s21, s),
        "s11_plus_I": _min_sv(grid, blocks.s11 + eye, s),
        "s11_minus_I": _min_sv(grid, blocks.s11 - eye, s),
        "s22_plus_I": _min_sv(grid, blocks.s22 + eye, s),
        "s22_minus_I": _min_sv(grid, blocks.s22 - eye, s),
    }
    sgn = OperatorMatrix(grid, blocks.reassemble())
    P_plus, P_minus = spectral_projectors(sgn)
    w = np.concatenate([mode_weights(grid, s)] * 2)
    rng = np.random.default_rng(seed)
    ratios = {"plus": [], "minus": []}
    for _ in range(n_vectors):
        u = rng.standard_normal(2 * K) + 1j * rng.standard_normal(2 * K)
        for name, P in (("plus", P_plus), ("minus", P_minus)):
            v = P.matrix @ u
            denom = np.linalg.norm(w * v)
            if denom < 1e-12:
                continue
            top = np.array(v)
            top[K:] = 0.0
            ratios[name].append(np.linalg.norm(w * top) / denom)
    report = {
        "min_singular_values": svs,
        "floor": floor,
        "all_above_floor": all(v > floor for v in svs.values()),
        "perp_ratio_plus": (min(ratios["plus"]), max(ratios["plus"])),
        "perp_ratio_minus": (min(ratios["minus"]), max(ratios["minus"])),
        "involution_defect": blocks.involution_defect(),
    }
    return report


def rellich_from_blocks(blocks: SgnBlocks, floor: float = DEFAULT_SV_FLOOR):
    """Forward/inverse boundary Rellich constants in the L2 topology.

    forward = operator norm of the Neumann-to-Dirichlet map, inverse =
    norm of the Dirichlet-to-Neumann map; a constant is inf when its block
    is singular at this resolution.  Returns (forward, inverse, Gamma_ND),
    Gamma_ND at s = 0 or None when s12 is singular.
    """
    grid = blocks.grid
    try:
        G = gamma_nd(blocks, s=0.0, floor=floor, check_agreement=False)
        forward = weighted_norm(grid, G, 0.0)
    except SingularBlockError:
        G, forward = None, float("inf")
    try:
        Gdn = gamma_dn(blocks, s=0.0, floor=floor, check_agreement=False)
        inverse = weighted_norm(grid, Gdn, 0.0)
    except SingularBlockError:
        inverse = float("inf")
    return forward, inverse, G


def rellich_constant(A: CoefficientField, floor: float = DEFAULT_SV_FLOOR) -> dict:
    """Rellich constants of A (see rellich_from_blocks) with its block class
    and grid size."""
    forward, inverse, _ = rellich_from_blocks(build_core(A, method="newton").blocks, floor)
    return {"block_class": A.block_class, "N": A.grid.N,
            "forward": forward, "inverse": inverse}
