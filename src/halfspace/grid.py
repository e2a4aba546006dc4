"""Discrete periodic grids and FFT multiplier operators.

The half-space boundary R^n (n = 1 or 2) is approximated by a torus of
period L with the zero Fourier mode removed, so "modulo constants"
becomes "mean zero" and |xi|^s is invertible on everything we keep.

Fields with curl-free tangential part live on the subspace H0.  Internally
H0 is coordinatized by a pair of mean-zero scalar fields through the
isometry V = [[I, 0], [0, -R]], where R is the array of Riesz transforms
with symbol i*xi_j/|xi|.  In V-coordinates every operator on H0 is a plain
dense matrix of dimension 2*(N^n - 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "GridSpec",
    "BoundaryField",
    "riesz_apply",
    "riesz_adjoint",
    "pi_project",
    "v_apply",
    "v_adjoint",
    "sobolev_norm",
    "scalar_to_coeffs",
    "coeffs_to_scalar",
    "field_to_vcoords",
    "vcoords_to_field",
    "vcoords_to_fields",
    "l2_norm",
    "l2_inner",
]

TWO_PI = 2.0 * np.pi


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [0, L)^n with n in {1, 2}."""

    n: int
    N: int
    L: float = TWO_PI

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError(f"spatial dimension must be 1 or 2, got {self.n}")
        if not _is_power_of_two(self.N) or self.N < 8:
            raise ValueError(f"N must be a power of two >= 8, got {self.N}")
        if not self.L > 0:
            raise ValueError(f"period length must be positive, got {self.L}")

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.n

    @property
    def npoints(self) -> int:
        return self.N**self.n

    @property
    def nmodes(self) -> int:
        """Number of nonzero Fourier modes (dimension of mean-zero scalars)."""
        return self.N**self.n - 1

    @property
    def h(self) -> float:
        return self.L / self.N

    @property
    def cell_volume(self) -> float:
        return (self.L / self.N) ** self.n

    def points(self) -> np.ndarray:
        """Physical coordinates, shape (n,) + shape."""
        x = np.arange(self.N) * self.h
        if self.n == 1:
            return x[None, :]
        X1, X2 = np.meshgrid(x, x, indexing="ij")
        return np.stack([X1, X2])

    def frequencies(self) -> np.ndarray:
        """Angular frequencies per axis, shape (n,) + shape."""
        k = np.fft.fftfreq(self.N, d=1.0 / self.N) * (TWO_PI / self.L)
        if self.n == 1:
            return k[None, :]
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        return np.stack([K1, K2])

    def freq_magnitude(self) -> np.ndarray:
        xi = self.frequencies()
        return np.sqrt(np.sum(xi**2, axis=0))

    def nonzero_mask(self) -> np.ndarray:
        return self.freq_magnitude() > 0

    def mode_magnitudes(self) -> np.ndarray:
        m = self.freq_magnitude().ravel()
        return m[m > 0]


# FFT conventions: coefficients are scaled so that the Euclidean norm of the
# coefficient vector equals the L2(torus) norm of the field.

def _coeff_scale(grid: GridSpec) -> float:
    return np.sqrt(grid.L**grid.n) / grid.npoints


def fftn(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    return np.fft.fftn(f, axes=tuple(range(-grid.n, 0)))


def ifftn(grid: GridSpec, fh: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(fh, axes=tuple(range(-grid.n, 0)))


def l2_norm(grid: GridSpec, f: np.ndarray) -> float:
    """L2 norm on the torus (trapezoid rule, exact for grid functions)."""
    return float(np.sqrt(np.sum(np.abs(f) ** 2) * grid.cell_volume))


def l2_inner(grid: GridSpec, f: np.ndarray, g: np.ndarray) -> complex:
    return complex(np.sum(f * np.conj(g)) * grid.cell_volume)


def _check_finite(f: np.ndarray, what: str = "field"):
    if not np.all(np.isfinite(f)):
        raise ValueError(f"non-finite values in {what}")


@dataclass(frozen=True)
class BoundaryField:
    """C^(1+n)-valued function on the torus.

    values has shape (1+n,) + grid.shape; component 0 is the scalar
    (perpendicular) part, components 1..n the tangential part.
    """

    grid: GridSpec
    values: np.ndarray
    representation: str = "physical"
    h0_flag: bool = False

    def __post_init__(self):
        if self.representation not in ("physical", "frequency"):
            raise ValueError(f"unknown representation {self.representation!r}")
        expected = (1 + self.grid.n,) + self.grid.shape
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} != expected {expected}"
            )
        _check_finite(self.values)
        object.__setattr__(
            self, "values", np.ascontiguousarray(self.values, dtype=complex)
        )
        self.values.setflags(write=False)
        if self.h0_flag:
            fh = self.values
            if self.representation == "physical":
                fh = fftn(self.grid, fh)
            _validate_h0(self.grid, fh[None])

    def to_physical(self) -> "BoundaryField":
        if self.representation == "physical":
            return self
        vals = ifftn(self.grid, self.values)
        return replace(self, values=vals, representation="physical")

    def to_frequency(self) -> "BoundaryField":
        if self.representation == "frequency":
            return self
        vals = fftn(self.grid, self.values)
        return replace(self, values=vals, representation="frequency")

    def norm(self) -> float:
        f = self.to_physical()
        return l2_norm(self.grid, f.values)

    @property
    def perp(self) -> np.ndarray:
        return self.values[0]

    @property
    def par(self) -> np.ndarray:
        return self.values[1:]


def _validate_h0(g: GridSpec, fh: np.ndarray, tol: float = 1e-10):
    """H0 membership (zero means, curl-free tangential part) of a batch of
    fields in frequency representation, shape (batch, 1+n) + shape; an
    all-zero field passes."""
    batch = fh.shape[0]
    nrm = np.sqrt(np.sum(np.abs(fh.reshape(batch, -1)) ** 2, axis=1)) / g.npoints
    bound = tol * nrm * g.npoints  # (batch,)
    zero = (slice(None), slice(None)) + (0,) * g.n
    if np.any((np.abs(fh[zero]) > bound[:, None]) & (nrm[:, None] > 0)):
        raise ValueError("H0 field has nonzero mean component")
    if g.n == 2:
        xi = g.frequencies()
        curl = xi[0] * fh[:, 2] - xi[1] * fh[:, 1]
        peak = np.max(np.abs(curl).reshape(batch, -1), axis=1)
        if np.any((peak > bound * max(1.0, np.max(g.freq_magnitude()))) & (nrm > 0)):
            raise ValueError("tangential part is not curl-free")


def remove_mean(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Remove the zero mode of a physical scalar field (last n axes)."""
    axes = tuple(range(-grid.n, 0))
    return f - np.mean(f, axis=axes, keepdims=True)


def riesz_apply(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    """Riesz transforms of a mean-zero scalar field, symbol i*xi_j/|xi|.

    Returns an array of shape (n,) + grid.shape.  The zero mode is dropped.
    """
    _check_finite(f, "riesz input")
    fh = fftn(grid, f)
    m = grid.freq_magnitude()
    xi = grid.frequencies()
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = np.where(m > 0, 1.0 / m, 0.0)
    out = ifftn(grid, 1j * xi * sym * fh)
    return out


def riesz_adjoint(grid: GridSpec, g: np.ndarray) -> np.ndarray:
    """Adjoint Riesz transform, symbol -i*xi_j/|xi|, contracted over j."""
    _check_finite(g, "riesz adjoint input")
    if g.shape != (grid.n,) + grid.shape:
        raise ValueError("expected a tangential (n-component) field")
    gh = fftn(grid, g)
    m = grid.freq_magnitude()
    xi = grid.frequencies()
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = np.where(m > 0, 1.0 / m, 0.0)
    contracted = np.sum(-1j * xi * sym * gh, axis=0)
    return ifftn(grid, contracted)


def pi_project(field: BoundaryField) -> BoundaryField:
    """Orthogonal projection of H onto the curl-free subspace H0.

    Removes means on every component; for n >= 2 projects the tangential
    part onto gradients per mode via xi xi^T / |xi|^2.
    """
    g = field.grid
    fh = field.to_frequency().values.copy()
    zero = (0,) * g.n
    for c in range(1 + g.n):
        fh[c][zero] = 0.0
    if g.n == 2:
        xi = g.frequencies()
        m2 = np.sum(xi**2, axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = np.where(m2 > 0, 1.0 / m2, 0.0)
        dot = xi[0] * fh[1] + xi[1] * fh[2]
        fh[1] = xi[0] * dot * inv
        fh[2] = xi[1] * dot * inv
    out = BoundaryField(g, fh, representation="frequency", h0_flag=True)
    if field.representation == "physical":
        out = out.to_physical()
        out = replace(out, h0_flag=True)
    return out


def v_apply(grid: GridSpec, pair: np.ndarray) -> BoundaryField:
    """Isometry V from a pair of mean-zero scalars into H0.

    V = [[I, 0], [0, -R]]: the scalar slot is fixed, the second scalar is
    mapped to the curl-free tangential field -R p2.
    """
    pair = np.asarray(pair, dtype=complex)
    if pair.shape != (2,) + grid.shape:
        raise ValueError("expected a pair of scalar grid fields")
    _check_finite(pair, "V input")
    p = np.stack([remove_mean(grid, pair[0]), remove_mean(grid, pair[1])])
    if not np.allclose(p, pair, atol=1e-13 * max(1.0, np.max(np.abs(pair)))):
        import warnings

        warnings.warn("zero-mode content stripped from V input")
    vals = np.empty((1 + grid.n,) + grid.shape, dtype=complex)
    vals[0] = p[0]
    vals[1:] = -riesz_apply(grid, p[1])
    return BoundaryField(grid, vals, representation="physical", h0_flag=True)


def v_adjoint(field: BoundaryField) -> np.ndarray:
    """Inverse of V on H0: returns the pair (F_perp, -R* F_par)."""
    g = field.grid
    f = field.to_physical().values
    p1 = remove_mean(g, f[0])
    p2 = -riesz_adjoint(g, np.ascontiguousarray(f[1:]))
    return np.stack([p1, p2])


def sobolev_norm(grid: GridSpec, f: np.ndarray, s: float) -> float:
    """Homogeneous Sobolev semi-norm (sum over nonzero modes of
    |xi|^(2s) |f_hat|^2)^(1/2); s = 0 is the L2 norm."""
    if not -1.0 <= s <= 1.0:
        raise ValueError(f"Sobolev exponent {s} outside the supported range [-1, 1]")
    _check_finite(f, "sobolev input")
    fh = fftn(grid, f) * _coeff_scale(grid)
    m = grid.freq_magnitude()
    mask = m > 0
    return float(np.sqrt(np.sum(m[mask] ** (2 * s) * np.abs(fh[mask]) ** 2)))


# V-coordinate plumbing.  A vector p of length 2K (K = nmodes) holds the
# scaled Fourier coefficients of the two scalar slots over the nonzero
# modes, perpendicular slot first.  The Euclidean norm of p equals the H0
# norm of the field it represents.

def scalar_to_coeffs(grid: GridSpec, f: np.ndarray) -> np.ndarray:
    fh = fftn(grid, f).ravel() * _coeff_scale(grid)
    return fh[grid.nonzero_mask().ravel()]


def coeffs_to_scalar(grid: GridSpec, c: np.ndarray) -> np.ndarray:
    """Scalar field of nonzero-mode coefficients c, shape (K,); a batch
    (K, batch) gives fields of shape (batch,) + grid.shape."""
    c = np.asarray(c)
    fh = np.zeros(c.shape[1:] + (grid.npoints,), dtype=complex)
    fh[..., grid.nonzero_mask().ravel()] = c.T
    fh = fh.reshape(c.shape[1:] + grid.shape) / _coeff_scale(grid)
    return ifftn(grid, fh)


def field_to_vcoords(field: BoundaryField) -> np.ndarray:
    pair = v_adjoint(field)
    return np.concatenate(
        [scalar_to_coeffs(field.grid, pair[0]), scalar_to_coeffs(field.grid, pair[1])]
    )


def _v_symbols(grid: GridSpec) -> np.ndarray:
    """Per-mode unit symbols i*xi_j/|xi| over the full frequency grid."""
    xi = grid.frequencies()
    m = grid.freq_magnitude()
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(m > 0, 1.0 / m, 0.0)
    return 1j * xi * inv


def _vcoords_batch_to_fields(grid: GridSpec, P: np.ndarray) -> np.ndarray:
    """Map a batch of V-coordinate vectors (dim, batch) to physical
    (1+n)-component fields, shape (batch, 1+n) + grid.shape."""
    K = grid.nmodes
    batch = P.shape[1]
    mask = grid.nonzero_mask().ravel()
    scale = _coeff_scale(grid)
    p1 = np.zeros((batch, grid.npoints), dtype=complex)
    p2 = np.zeros((batch, grid.npoints), dtype=complex)
    p1[:, mask] = P[:K].T
    p2[:, mask] = P[K:].T
    p1 = p1.reshape((batch,) + grid.shape) / scale
    p2 = p2.reshape((batch,) + grid.shape) / scale
    sym = _v_symbols(grid)  # (n,) + shape
    fields_hat = np.empty((batch, 1 + grid.n) + grid.shape, dtype=complex)
    fields_hat[:, 0] = p1
    for j in range(grid.n):
        fields_hat[:, 1 + j] = -sym[j] * p2
    return ifftn(grid, fields_hat)


def vcoords_to_fields(grid: GridSpec, P: np.ndarray) -> np.ndarray:
    """Physical H0 fields of a batch of V-coordinate vectors, P of shape
    (2K, batch) -> values of shape (batch, 1+n) + grid.shape.

    The batched form of V: means are removed as v_apply removes them and
    every field is checked to lie in H0 (zero means, curl-free).
    """
    K = grid.nmodes
    if P.ndim != 2 or P.shape[0] != 2 * K:
        raise ValueError(f"expected V-coordinate vectors of length {2 * K} as columns")
    _check_finite(P, "V input")
    F = _vcoords_batch_to_fields(grid, P)
    F -= np.mean(F, axis=tuple(range(-grid.n, 0)), keepdims=True)
    _validate_h0(grid, fftn(grid, F))
    return F


def vcoords_to_field(grid: GridSpec, p: np.ndarray) -> BoundaryField:
    """One-column case of vcoords_to_fields, as a BoundaryField."""
    K = grid.nmodes
    if p.shape != (2 * K,):
        raise ValueError(f"expected V-coordinate vector of length {2 * K}")
    values = vcoords_to_fields(grid, p[:, None])[0]
    return BoundaryField(grid, values, representation="physical", h0_flag=True)
