"""Boundary maps from the block decomposition of the operator sign.

Writing sgn of the reversed product in perpendicular/parallel blocks
[[s11, s12], [s21, s22]], the Neumann-to-Dirichlet map factorizes as
s12^-1 (I - s11) = (I - s22)^-1 s21, its inverse (Dirichlet-to-Neumann)
as s21^-1 (I - s22), and the lower-half-space map as -s12^-1 (I + s11).
So the Rellich constants are the ends of one singular spectrum: forward =
sigma_max(Gamma_ND), inverse = ||Gamma_DN|| = 1/sigma_min(Gamma_ND).  Sobolev
topologies of order s conjugate blocks with the diagonal weight |xi|^s, so
operator norms and singular-value floors are ordinary spectral quantities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientField, hat_transform
from .errors import NumericalError
from .grid import GridSpec
from .operators import (
    OperatorMatrix,
    _assemble_uT,
    assemble_calB,
    matrix_sign,
    weighted,
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
    "block_floors",
    "floors_above",
    "rellich_constant",
    "rellich_from_blocks",
    "SingularBlockError",
]

DEFAULT_SV_FLOOR = 1e-8
# the key lemma's blocks count as invertible above this weighted floor
KEY_LEMMA_FLOOR = 1e-6


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
    """The perpendicular/parallel blocks of sgn(uT): read-only views of
    one sign matrix."""
    return SgnBlocks(uT.grid, *matrix_sign(uT, method=method).blocks())


@dataclass(frozen=True)
class SpectralCore:
    """Everything built from one coefficient field A: B = hat(A), calB,
    uT = S calB and the blocks of sgn(uT).  S is the exact map
    operators._apply_S and is never formed densely; nor is T = calB S,
    which shares uT's calculus (T = S^-1 uT S) and which
    operators.assemble_operators forms for the callers that need it.  On
    the eigen route the factorization behind the blocks stays on uT, so
    later spectral maps of uT, and of T through uT, reuse it, and the core
    itself stays on A (see build_core); calB.margin_bound is the pointwise
    accretivity of B, a lower bound on that of calB, and uT.margin_bound
    the certified spectral margin of uT."""

    B: CoefficientField
    calB: OperatorMatrix
    uT: OperatorMatrix
    blocks: SgnBlocks


def build_core(A: CoefficientField, method: str = "eigen") -> SpectralCore:
    """Assemble hat(A), calB and uT for A, and the blocks of sgn(uT); no
    dense S and no T.

    The default eigen route builds its core on first use and keeps it on A,
    as decompose keeps its result on the operator: every solve and map of
    A then shares one eigendecomposition, the core is freed with A, and an
    equal twin of A is built afresh.  method="newton" suits callers that
    need only the sign blocks: it makes no eigendecomposition, the Newton
    iteration is its only O(dim^3) work, and its core is not kept, because
    each serves one Gamma computation and keeping it would hold its
    operators as long as A.
    """
    if method == "eigen":
        core = A.__dict__.get("_core")
        if core is not None:
            return core
    B = hat_transform(A)
    calB = assemble_calB(B)
    uT = _assemble_uT(calB)
    core = SpectralCore(B, calB, uT, sgn_blocks(uT, method=method))
    if method == "eigen":
        # the dataclass is frozen; its __setattr__ guards the fields, not __dict__
        A.__dict__["_core"] = core
    return core


def _min_sv(grid: GridSpec, M: np.ndarray, s: float) -> float:
    return float(np.linalg.svd(weighted(grid, M, s), compute_uv=False)[-1])


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


def _gamma(
    blocks: SgnBlocks, slots: str, what: str, s: float, floor: float,
    check_agreement: bool,
) -> np.ndarray:
    """The boundary map spq^-1 (I - spp) from slot p to slot q, for blocks
    ordered with slot p first (s11 holds spp, s12 holds spq), optionally
    checked against its second factorization (I - sqq)^-1 sqp.  slots = "pq"
    names the blocks in the error messages."""
    p, q = slots
    grid = blocks.grid
    eye = np.eye(grid.nmodes)
    G = _solve_block(grid, blocks.s12, eye - blocks.s11, s, floor, f"s{p}{q}")
    if check_agreement:
        G2 = _solve_block(grid, eye - blocks.s22, blocks.s21, s, floor, f"I - s{q}{q}")
        mismatch = weighted_norm(grid, G - G2, s) / max(weighted_norm(grid, G, s), 1e-300)
        if mismatch > 1e-6:
            raise SingularBlockError(
                f"the two {what} factorizations disagree ({mismatch:.3e} relative)"
            )
    return G


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
    return _gamma(blocks, "12", "Neumann-to-Dirichlet", s, floor, check_agreement)


def gamma_dn(
    blocks: SgnBlocks,
    s: float = -0.5,
    floor: float = DEFAULT_SV_FLOOR,
    check_agreement: bool = True,
) -> np.ndarray:
    """Dirichlet-to-Neumann map s21^-1 (I - s22), parallel to perpendicular."""
    b = blocks
    swapped = SgnBlocks(b.grid, b.s22, b.s21, b.s12, b.s11)
    return _gamma(swapped, "21", "Dirichlet-to-Neumann", s, floor, check_agreement)


def gamma_minus(
    blocks: SgnBlocks, s: float = -0.5, floor: float = DEFAULT_SV_FLOOR
) -> np.ndarray:
    """Lower-half-space Neumann-to-Dirichlet map -s12^-1 (I + s11)."""
    grid = blocks.grid
    K = grid.nmodes
    eye = np.eye(K)
    G = _solve_block(grid, blocks.s12, eye + blocks.s11, s, floor, "s12")
    return -G


def block_floors(blocks: SgnBlocks, s: float = -0.5) -> dict:
    """Minimum weighted singular values of the six block operators s12, s21,
    s11 +- I and s22 +- I at topology s: the invertibility floors of the key
    lemma."""
    grid = blocks.grid
    eye = np.eye(grid.nmodes)
    return {
        "s12": _min_sv(grid, blocks.s12, s),
        "s21": _min_sv(grid, blocks.s21, s),
        "s11_plus_I": _min_sv(grid, blocks.s11 + eye, s),
        "s11_minus_I": _min_sv(grid, blocks.s11 - eye, s),
        "s22_plus_I": _min_sv(grid, blocks.s22 + eye, s),
        "s22_minus_I": _min_sv(grid, blocks.s22 - eye, s),
    }


def floors_above(floors: dict, floor: float = KEY_LEMMA_FLOOR) -> bool:
    """Whether every block floor exceeds the key lemma's invertibility floor."""
    return all(v > floor for v in floors.values())


def rellich_from_blocks(blocks: SgnBlocks, floor: float = DEFAULT_SV_FLOOR):
    """Forward/inverse boundary Rellich constants in the L2 topology, from one
    SVD: forward = sigma_max(Gamma_ND) and inverse = 1/sigma_min(Gamma_ND) =
    ||Gamma_DN||, as Gamma_DN Gamma_ND = I when sgn^2 = I.  A constant is inf
    when its map is singular (inverse: sigma_min(Gamma_ND) <= floor).  Returns
    (forward, inverse, Gamma_ND at s = 0); when s12 is singular that is
    (inf, ||Gamma_DN|| or inf when s21 is singular too, None)."""
    try:
        G = gamma_nd(blocks, s=0.0, floor=floor, check_agreement=False)
    except SingularBlockError:
        try:
            Gdn = gamma_dn(blocks, s=0.0, floor=floor, check_agreement=False)
            return float("inf"), weighted_norm(blocks.grid, Gdn, 0.0), None
        except SingularBlockError:
            return float("inf"), float("inf"), None
    sv = np.linalg.svd(G, compute_uv=False)
    return float(sv[0]), (float(1.0 / sv[-1]) if sv[-1] > floor else float("inf")), G


def rellich_constant(A: CoefficientField, floor: float = DEFAULT_SV_FLOOR) -> dict:
    """Rellich constants of A, forward = sigma_max(Gamma_ND) and inverse =
    1/sigma_min(Gamma_ND) (see rellich_from_blocks), with block class and N."""
    forward, inverse, _ = rellich_from_blocks(build_core(A, method="newton").blocks, floor)
    return {"block_class": A.block_class, "N": A.grid.N,
            "forward": forward, "inverse": inverse}
