"""Coefficient matrices A(x): families, accretivity, block structure.

A coefficient field holds grid samples of the (1+n) x (1+n) complex
matrix A(x) in the block form [[a, b], [c, d]] with a scalar, b row /
c column vectors, d an n x n matrix.  The self-inverse transform
A -> [[a^-1, -a^-1 b], [c a^-1, d - c a^-1 b]] converts the second-order
equation into the first-order system and preserves triangular structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .grid import GridSpec, fftn

__all__ = [
    "CoefficientField",
    "NonAccretiveError",
    "accretivity_bound",
    "hat_transform",
    "make_family",
    "mgamma_perturb",
    "FAMILY_KINDS",
]

_SINGULAR_FLOOR = 1e-10

FAMILY_KINDS = (
    "constant",
    "smooth_trig",
    "piecewise_random",
    "lower_triangular_random",
    "upper_triangular_random",
    "block_diagonal_random",
)


class NonAccretiveError(NumericalError):
    """The coefficients (or their compression to H0) are not accretive."""


def _classify(samples: np.ndarray) -> str:
    b = samples[..., 0, 1:]
    c = samples[..., 1:, 0]
    b0 = not np.any(b)
    c0 = not np.any(c)
    if b0 and c0:
        return "block_diagonal"
    if b0:
        return "lower_triangular"
    if c0:
        return "upper_triangular"
    return "general"


def _hermitian_min_eig(samples: np.ndarray) -> float:
    herm = 0.5 * (samples + np.conj(np.swapaxes(samples, -1, -2)))
    return float(np.min(np.linalg.eigvalsh(herm)))


@dataclass(frozen=True)
class CoefficientField:
    """Grid samples of A(x) with accretivity metadata.

    samples has shape grid.shape + (1+n, 1+n).
    """

    grid: GridSpec
    samples: np.ndarray
    lamb: float = 0.0
    Lamb: float = 0.0
    block_class: str = "general"

    def __post_init__(self):
        d = 1 + self.grid.n
        expected = self.grid.shape + (d, d)
        samples = np.ascontiguousarray(self.samples, dtype=complex)
        if samples.shape != expected:
            raise ValueError(f"samples shape {samples.shape} != {expected}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("non-finite coefficient samples")
        object.__setattr__(self, "samples", samples)
        lamb = _hermitian_min_eig(samples)
        if lamb <= 0:
            raise NonAccretiveError(
                f"coefficient field is not strictly accretive (min eig {lamb:.3e})"
            )
        Lamb = float(np.max(np.linalg.norm(samples, ord=2, axis=(-2, -1))))
        object.__setattr__(self, "lamb", lamb)
        object.__setattr__(self, "Lamb", Lamb)
        object.__setattr__(self, "block_class", _classify(samples))
        samples.setflags(write=False)

    @property
    def a(self) -> np.ndarray:
        return self.samples[..., 0, 0]

    @property
    def b(self) -> np.ndarray:
        return self.samples[..., 0, 1:]

    @property
    def c(self) -> np.ndarray:
        return self.samples[..., 1:, 0]

    @property
    def d(self) -> np.ndarray:
        return self.samples[..., 1:, 1:]


def accretivity_bound(A: CoefficientField) -> float:
    """Largest lambda with Re(A(x) z . z) >= lambda |z|^2 at every point."""
    return A.lamb


def hat_transform(A: CoefficientField) -> CoefficientField:
    """Self-inverse block transform [[a^-1, -a^-1 b], [c a^-1, d - c a^-1 b]]."""
    a = A.a
    if np.min(np.abs(a)) < _SINGULAR_FLOOR:
        raise ValueError("scalar block a(x) is numerically singular")
    n = A.grid.n
    ainv = 1.0 / a
    out = np.empty_like(A.samples)
    out[..., 0, 0] = ainv
    out[..., 0, 1:] = -ainv[..., None] * A.b
    out[..., 1:, 0] = A.c * ainv[..., None]
    out[..., 1:, 1:] = A.d - A.c[..., :, None] * ainv[..., None, None] * A.b[..., None, :]
    return CoefficientField(A.grid, out)


def _rng_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def _smooth_trig_pert(
    grid: GridSpec, rng: np.random.Generator, d: int, imag_scale: float
) -> np.ndarray:
    """Band-limited trigonometric perturbation, normalized to sup norm 1."""
    pts = grid.points()
    pert = np.zeros(grid.shape + (d, d), dtype=complex)
    for p in range(d):
        for q in range(d):
            wave = np.zeros(grid.shape)
            for axis in range(grid.n):
                for freq in (1, 2):
                    arg = freq * 2 * np.pi * pts[axis] / grid.L
                    wave = wave + rng.uniform(-1, 1) * np.cos(arg)
                    wave = wave + rng.uniform(-1, 1) * np.sin(arg)
            pert[..., p, q] = wave * (1.0 + 1j * rng.uniform(-1, 1) * imag_scale)
    mx = np.max(np.abs(pert))
    if mx > 0:
        pert /= mx
    return pert


def make_family(
    grid: GridSpec,
    kind: str,
    seed: int = 0,
    lamb_floor: float = 0.5,
    Lamb_cap: float = 2.0,
    amplitude: float = 0.3,
    base: np.ndarray | None = None,
    blocks: int = 4,
    imag_scale: float = 0.3,
) -> CoefficientField:
    """Deterministic coefficient families with a guaranteed accretivity floor.

    Random kinds draw a perturbation P, rescale it so the floor and cap are
    met constructively, and zero the required blocks exactly.
    """
    if kind not in FAMILY_KINDS:
        raise ValueError(f"unknown family kind {kind!r}")
    if not 0 < lamb_floor < Lamb_cap:
        raise ValueError("need 0 < lambda floor < Lambda cap")
    d = 1 + grid.n
    rng = np.random.default_rng(seed)
    eye = np.broadcast_to(np.eye(d), grid.shape + (d, d)).copy()

    if kind == "constant":
        A0 = np.eye(d) if base is None else np.asarray(base, dtype=complex)
        samples = np.broadcast_to(A0, grid.shape + (d, d)).copy()
        out = CoefficientField(grid, samples)
        if out.lamb < lamb_floor - 1e-12:
            raise ValueError("constant matrix violates the requested accretivity floor")
        return out

    if kind == "smooth_trig":
        A0 = np.eye(d) if base is None else np.asarray(base, dtype=complex)
        pert = _smooth_trig_pert(grid, rng, d, imag_scale)
        samples = A0 + amplitude * pert
        out = CoefficientField(grid, samples)
        if out.lamb < lamb_floor:
            raise ValueError(
                f"smooth_trig family missed the accretivity floor "
                f"({out.lamb:.3f} < {lamb_floor}); lower the amplitude"
            )
        return out

    # random block families: A = shift*I + P with P rescaled into the
    # headroom between floor and cap
    if kind == "piecewise_random":
        cells = np.array_split(np.arange(grid.N), blocks)
        P = np.zeros(grid.shape + (d, d), dtype=complex)
        if grid.n == 1:
            for cell in cells:
                P[cell[0] : cell[-1] + 1] = _rng_complex(rng, (d, d))
        else:
            for ci in cells:
                for cj in cells:
                    P[ci[0] : ci[-1] + 1, cj[0] : cj[-1] + 1] = _rng_complex(
                        rng, (d, d)
                    )
    else:
        P = _rng_complex(rng, grid.shape + (d, d))
        P = 0.5 * (P + _smooth_trig_pert(grid, rng, d, imag_scale))

    if kind in ("lower_triangular_random", "block_diagonal_random"):
        P[..., 0, 1:] = 0.0
    if kind in ("upper_triangular_random", "block_diagonal_random"):
        P[..., 1:, 0] = 0.0

    # rescale P so that shift + min Herm eig(P) == floor and sup norm <= cap
    headroom = 0.45 * (Lamb_cap - lamb_floor)
    mx = np.max(np.linalg.norm(P, ord=2, axis=(-2, -1)))
    if mx > 0:
        P *= headroom / mx
    m = _hermitian_min_eig(P)
    shift = lamb_floor - m
    samples = shift * eye + P
    out = CoefficientField(grid, samples)
    if out.Lamb > Lamb_cap + 1e-9 or out.lamb < lamb_floor - 1e-9:
        raise ValueError("could not reach the requested (lambda, Lambda) window")
    return out


def mgamma_perturb(
    A: CoefficientField, gamma: np.ndarray, tol: float = 1e-10
) -> CoefficientField:
    """Add the antisymmetric matrix [[0, gamma^T], [-gamma, 0]] to A.

    gamma must be discretely divergence-free; for real gamma the
    accretivity bound is unchanged since the perturbation has zero
    Hermitian part.
    """
    grid = A.grid
    gamma = np.asarray(gamma, dtype=complex)
    if gamma.shape != (grid.n,) + grid.shape:
        raise ValueError("gamma must be a tangential (n-component) field")
    gh = fftn(grid, gamma)
    xi = grid.frequencies()
    div = np.sum(xi * gh, axis=0)
    scale = np.sqrt(np.sum(np.abs(gh) ** 2)) / grid.npoints
    if scale > 0 and np.max(np.abs(div)) > tol * scale * grid.npoints * max(
        1.0, np.max(grid.freq_magnitude())
    ):
        raise ValueError("gamma is not discretely divergence-free")
    samples = A.samples.copy()
    if grid.n == 1:
        g = gamma[0]
        samples[..., 0, 1] += g
        samples[..., 1, 0] -= g
    else:
        g = np.moveaxis(gamma, 0, -1)  # shape + (n,)
        samples[..., 0, 1:] += g
        samples[..., 1:, 0] -= g
    return CoefficientField(grid, samples)


def stream_gamma(grid: GridSpec, psi: np.ndarray) -> np.ndarray:
    """Divergence-free tangential field (d2 psi, -d1 psi) from a stream
    function, computed spectrally (n = 2 only)."""
    if grid.n != 2:
        raise ValueError("stream functions require n = 2")
    ph = fftn(grid, psi)
    xi = grid.frequencies()
    from .grid import ifftn

    g1 = ifftn(grid, 1j * xi[1] * ph)
    g2 = ifftn(grid, -1j * xi[0] * ph)
    return np.stack([g1, g2])
