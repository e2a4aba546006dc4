"""Dense operator calculus on the curl-free subspace in V-coordinates.

All operators on H0 are represented as dense complex matrices of dimension
2K, K = N^n - 1, acting on stacked coefficient vectors (perpendicular slot
first).  The functional calculus (sign, semigroups, fractional powers) is
eigendecomposition-based, with a Newton iteration kept as an independent
route for the sign function and a Schur fallback for ill-conditioned
eigenbases.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .coeffs import CoefficientField, NonAccretiveError
from .errors import NumericalError
from .grid import GridSpec, _coeff_scale, _v_symbols, _vcoords_batch_to_fields, fftn, ifftn

__all__ = [
    "OperatorMatrix",
    "SpectralDecomposition",
    "BisectorialityError",
    "SubspaceError",
    "UnreliableDecompositionError",
    "decompose",
    "decompose_T_from_uT",
    "assemble_S",
    "assemble_calB",
    "assemble_operators",
    "matrix_sign",
    "spectral_projectors",
    "log_t_levels",
    "plus_coefficients",
    "semigroup_apply",
    "spectral_columns",
    "fractional_power",
    "kato_check",
    "weight_vector",
    "weighted_norm",
]

MARGIN_FLOOR = 1e-8
COND_LIMIT = 1e8


class BisectorialityError(NumericalError):
    """Spectrum too close to the imaginary axis for the sign calculus."""


class SubspaceError(NumericalError):
    """A vector that must lie in the + spectral subspace has a significant
    component outside it."""


class UnreliableDecompositionError(NumericalError):
    """The eigendecomposition does not reconstruct its operator."""


@dataclass(frozen=True)
class OperatorMatrix:
    grid: GridSpec
    matrix: np.ndarray

    def __post_init__(self):
        dim = 2 * self.grid.nmodes
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        if m.shape != (dim, dim):
            raise ValueError(f"operator matrix must be {dim}x{dim}, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("non-finite operator entries")
        object.__setattr__(self, "matrix", m)
        m.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def blocks(self):
        K = self.grid.nmodes
        m = self.matrix
        return m[:K, :K], m[:K, K:], m[K:, :K], m[K:, K:]


@dataclass(frozen=True)
class SpectralDecomposition:
    eigenvalues: np.ndarray
    vectors: np.ndarray
    vectors_inv: np.ndarray
    cond: float
    margin: float
    reliable: bool

    def apply_function(self, f, x: np.ndarray) -> np.ndarray:
        """Evaluate f(op) @ x through the eigenbasis."""
        return self.vectors @ (f(self.eigenvalues) * (self.vectors_inv @ x))

    def function_matrix(self, f) -> np.ndarray:
        return (self.vectors * f(self.eigenvalues)) @ self.vectors_inv


def decompose(op: OperatorMatrix) -> SpectralDecomposition:
    """Eigendecomposition of op, computed on first use and kept on the
    instance: it is freed with the operator, and another operator is
    factored afresh even when its entries are equal."""
    dec = op.__dict__.get("_decomposition")
    if dec is not None:
        return dec
    lam, W = np.linalg.eig(op.matrix)
    return _keep_decomposition(op, lam, W, np.linalg.inv(W))


def decompose_T_from_uT(T: OperatorMatrix, uT: OperatorMatrix) -> SpectralDecomposition:
    """Eigendecomposition of T = calB S taken from that of uT = S calB.

    T = S^-1 uT S, so T's eigenvectors are S^-1 W, scaled to unit columns
    as eig returns them, and their inverse is W^-1 S with the rows scaled
    back; S = assemble_S(grid) is anti-diagonal, so both cost O(dim^2).
    The result is checked and kept on T exactly as decompose's own.
    """
    dec = T.__dict__.get("_decomposition")
    if dec is not None:
        return dec
    base = decompose(uT)
    K = T.grid.nmodes
    w = T.grid.mode_magnitudes()
    W, Winv = base.vectors, base.vectors_inv
    Z = np.concatenate([W[K:] / w[:, None], W[:K] / w[:, None]])  # S^-1 W
    scale = np.linalg.norm(Z, axis=0)
    Z /= scale
    Zinv = np.concatenate([Winv[:, K:] * w, Winv[:, :K] * w], axis=1)  # W^-1 S
    Zinv *= scale[:, None]
    return _keep_decomposition(T, base.eigenvalues, Z, Zinv)


def _keep_decomposition(op, lam, W, Winv) -> SpectralDecomposition:
    cond = float(np.linalg.cond(W))
    margin = float(np.min(np.abs(lam.real)))
    recon = (W * lam) @ Winv
    scale = np.linalg.norm(op.matrix)
    err = np.linalg.norm(recon - op.matrix)
    reliable = bool(err <= 1e-8 * max(scale, 1e-300) and np.isfinite(cond))
    dec = SpectralDecomposition(lam, W, Winv, cond, margin, reliable)
    # the dataclass is frozen; its __setattr__ guards the fields, not __dict__
    op.__dict__["_decomposition"] = dec
    return dec


def mode_weights(grid: GridSpec, s: float) -> np.ndarray:
    """|xi|^s per nonzero mode (one slot)."""
    return grid.mode_magnitudes() ** s


def weight_vector(grid: GridSpec, s: float) -> np.ndarray:
    """Diagonal Sobolev weight |xi|^s for both V-coordinate slots."""
    w = mode_weights(grid, s)
    return np.concatenate([w, w])


def weighted_norm(grid: GridSpec, M: np.ndarray, s: float, kind: str = "op") -> float:
    """Operator norm of M between |xi|^s-weighted spaces.

    M may be a full 2K x 2K matrix or any square block on a single slot.
    """
    K = grid.nmodes
    if M.shape[0] == 2 * K:
        w = weight_vector(grid, s)
    elif M.shape[0] == K:
        w = mode_weights(grid, s)
    else:
        raise ValueError("unexpected matrix dimension")
    Mw = (w[:, None] * M) / w[None, :]
    if kind == "op":
        return float(np.linalg.norm(Mw, ord=2))
    if kind == "fro":
        return float(np.linalg.norm(Mw))
    raise ValueError(f"unknown norm kind {kind!r}")


def assemble_S(grid: GridSpec) -> OperatorMatrix:
    """The tangential Dirac-type operator in V-coordinates: per-mode block
    [[0, |xi|], [|xi|, 0]]."""
    K = grid.nmodes
    w = grid.mode_magnitudes()
    m = np.zeros((2 * K, 2 * K), dtype=complex)
    m[:K, K:] = np.diag(w)
    m[K:, :K] = np.diag(w)
    return OperatorMatrix(grid, m)


def _fields_batch_to_vcoords(grid: GridSpec, F: np.ndarray) -> np.ndarray:
    """Adjoint of grid._vcoords_batch_to_fields (project onto H0 and return
    V-coordinates)."""
    batch = F.shape[0]
    K = grid.nmodes
    mask = grid.nonzero_mask().ravel()
    scale = _coeff_scale(grid)
    Fh = fftn(grid, F)
    sym = _v_symbols(grid)
    p1 = Fh[:, 0]
    p2 = np.zeros_like(p1)
    for j in range(grid.n):
        p2 = p2 + np.conj(sym[j]) * (-1.0) * Fh[:, 1 + j]
    out = np.empty((2 * K, batch), dtype=complex)
    out[:K] = (p1.reshape(batch, -1)[:, mask] * scale).T
    out[K:] = (p2.reshape(batch, -1)[:, mask] * scale).T
    return out


def multiplication_operator(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """Dense V-coordinate matrix of Pi (multiply by M(x)) Pi for pointwise
    matrix samples of shape grid.shape + (1+n, 1+n)."""
    dim = 2 * grid.nmodes
    out = np.empty((dim, dim), dtype=complex)
    chunk = 256
    for start in range(0, dim, chunk):
        stop = min(start + chunk, dim)
        E = np.zeros((dim, stop - start), dtype=complex)
        E[np.arange(start, stop), np.arange(stop - start)] = 1.0
        fields = _vcoords_batch_to_fields(grid, E)  # (batch, 1+n)+shape
        mult = np.einsum("...pq,b q...->b p...", samples, fields)
        out[:, start:stop] = _fields_batch_to_vcoords(grid, mult)
    return out


def assemble_calB(B: CoefficientField, accretivity_floor: float = 1e-10):
    """Compressed multiplication operator Pi B Pi in V-coordinates.

    Returns (calB, blocks) where blocks is (alpha, gamma, delta) for block
    lower-triangular B (None otherwise): alpha = a', gamma = R R* c',
    delta = R R* d' R R* as V-coordinate blocks.
    """
    grid = B.grid
    m = multiplication_operator(grid, B.samples)
    herm = 0.5 * (m + m.conj().T)
    lam_min = float(np.min(np.linalg.eigvalsh(herm)))
    if lam_min < accretivity_floor:
        raise NonAccretiveError(
            f"compressed coefficient operator is not accretive on H0 "
            f"(min Hermitian eigenvalue {lam_min:.3e})"
        )
    op = OperatorMatrix(grid, m)
    blocks = None
    if B.block_class in ("lower_triangular", "block_diagonal"):
        a11, a12, a21, a22 = op.blocks()
        blocks = (a11, a21, a22)
    return op, blocks


def assemble_operators(B: CoefficientField):
    """Convenience: (S, calB, T, uT) for a first-order coefficient field B."""
    grid = B.grid
    calB, _ = assemble_calB(B)
    S = assemble_S(grid)
    T = OperatorMatrix(grid, calB.matrix @ S.matrix)
    uT = OperatorMatrix(grid, S.matrix @ calB.matrix)
    return S, calB, T, uT


def check_bisectorial(op: OperatorMatrix, floor: float = MARGIN_FLOOR) -> SpectralDecomposition:
    dec = decompose(op)
    if dec.margin <= floor:
        raise BisectorialityError(
            f"eigenvalue within {floor:.1e} of the imaginary axis "
            f"(margin {dec.margin:.3e})"
        )
    return dec


def _sign_eigen(op: OperatorMatrix) -> np.ndarray:
    dec = decompose(op)
    if dec.margin <= MARGIN_FLOOR:
        raise BisectorialityError(
            f"sign function undefined: spectral margin {dec.margin:.3e}"
        )
    if not dec.reliable or dec.cond > COND_LIMIT:
        return _sign_schur(op.matrix)
    return dec.function_matrix(lambda lam: np.sign(lam.real).astype(complex))


def _sign_schur(m: np.ndarray) -> np.ndarray:
    # Schur-form fallback: Newton on the triangular factor is stable and
    # avoids a possibly defective eigenbasis.
    T, Z = scipy.linalg.schur(m.astype(complex), output="complex")
    if np.min(np.abs(np.diag(T).real)) <= MARGIN_FLOOR:
        raise BisectorialityError("Schur fallback: eigenvalue on the imaginary axis")
    X = T.copy()
    for _ in range(100):
        Xn = 0.5 * (X + np.linalg.inv(X))
        if np.linalg.norm(Xn - X) <= 1e-13 * np.linalg.norm(Xn):
            X = Xn
            break
        X = Xn
    return Z @ X @ Z.conj().T


def _sign_newton(
    op: OperatorMatrix, tol: float = 1e-12, maxiter: int = 100
) -> np.ndarray:
    """Scaled Newton iteration X <- (mu X + (mu X)^-1)/2 with determinant
    scaling; falls back to the eigendecomposition route on stagnation."""
    X = op.matrix.astype(complex)
    dim = X.shape[0]
    lam = np.linalg.eigvals(X)
    if np.min(np.abs(lam.real)) <= 0:
        raise BisectorialityError("Newton sign iteration needs no purely imaginary eigenvalues")
    for _ in range(maxiter):
        sign, logdet = np.linalg.slogdet(X)
        mu = np.exp(-logdet / dim)
        Xs = mu * X
        Xn = 0.5 * (Xs + np.linalg.inv(Xs))
        delta = np.linalg.norm(Xn - X) / max(np.linalg.norm(Xn), 1e-300)
        X = Xn
        if delta <= tol:
            return X
    warnings.warn("Newton sign iteration did not converge; using eigen route")
    return _sign_eigen(op)


def matrix_sign(op: OperatorMatrix, method: str = "eigen") -> OperatorMatrix:
    if method == "eigen":
        m = _sign_eigen(op)
    elif method == "newton":
        m = _sign_newton(op)
    else:
        raise ValueError(f"unknown sign method {method!r}")
    return OperatorMatrix(op.grid, m)


def spectral_projectors(sgn_op: OperatorMatrix, tol: float = 1e-6):
    """P+- = (I +- sgn)/2; requires sgn^2 = I within tolerance."""
    m = sgn_op.matrix
    eye = np.eye(m.shape[0])
    if np.linalg.norm(m @ m - eye) > max(tol, 1e-6) * m.shape[0]:
        raise ValueError("input is not an involution within tolerance")
    P_plus = 0.5 * (eye + m)
    P_minus = eye - P_plus
    return (
        OperatorMatrix(sgn_op.grid, P_plus),
        OperatorMatrix(sgn_op.grid, P_minus),
    )


def _decay(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return np.exp(-t * lam)


def spectral_columns(
    op: OperatorMatrix,
    ts,
    x: np.ndarray,
    f=_decay,
    plus_subspace: bool = True,
    reject_tol: float = 1e-6,
) -> np.ndarray:
    """Columns f(t_j, op) x for every height t_j in ts, shape (dim, len(ts)).

    W^-1 x is formed once and the whole table F[i, j] = f(t_j, lambda_i)
    is applied in one product V (F * W^-1 x).  With plus_subspace (the
    semigroup case) the spectrum must pass the bisectoriality gate, x must
    lie in the + spectral subspace (SubspaceError otherwise), the table is
    evaluated on eigenvalues with positive real part only and a t = 0
    column is an exact copy of x.  Without it, f acts on the whole
    spectrum (quadratic norms) and x is unrestricted.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(ts < 0):
        raise ValueError("semigroup time must be nonnegative")
    if not plus_subspace:
        dec = decompose(op)
        F = f(ts[None, :], dec.eigenvalues[:, None])
        return dec.vectors @ (F * (dec.vectors_inv @ x)[:, None])
    dec, pos, coeff = plus_coefficients(op, x, reject_tol)
    F = f(ts[None, :], dec.eigenvalues[pos, None])
    out = dec.vectors[:, pos] @ (F * coeff[pos, None])
    out[:, ts == 0] = x[:, None]
    return out


def plus_coefficients(op: OperatorMatrix, x: np.ndarray, reject_tol: float = 1e-6):
    """Eigen-coordinates W^-1 x of a vector in the + spectral subspace.

    Applies the bisectoriality gate and raises SubspaceError when the part
    of x on eigenvalues with negative real part exceeds reject_tol ||x||.
    Returns (decomposition, mask of the + eigenvalues, W^-1 x).
    """
    dec = check_bisectorial(op)
    coeff = dec.vectors_inv @ x
    pos = dec.eigenvalues.real >= 0
    nrm = np.linalg.norm(x)
    if nrm > 0:
        defect = np.linalg.norm(dec.vectors[:, ~pos] @ coeff[~pos]) / nrm
        if defect > reject_tol:
            raise SubspaceError(
                f"input has a component outside the + spectral subspace "
                f"(relative defect {defect:.3e}); the semigroup solution would grow"
            )
    return dec, pos, coeff


def semigroup_apply(
    op: OperatorMatrix, t: float, x: np.ndarray, reject_tol: float = 1e-6
) -> np.ndarray:
    """e^{-t op} applied to a vector in the + spectral subspace (the
    one-column case of spectral_columns; t = 0 returns a copy of x)."""
    return spectral_columns(op, [t], x, reject_tol=reject_tol)[:, 0]


def log_t_levels(op: OperatorMatrix, npoints: int, lo: float = 1e-4) -> np.ndarray:
    """Log-spaced heights from lo / max|lambda| to 1e4 / min|lambda|, which
    cover the decay of every eigenmode of op."""
    mags = np.abs(decompose(op).eigenvalues)
    return np.geomspace(lo / float(np.max(mags)), 1e4 / float(np.min(mags)), npoints)


def fractional_power(op: OperatorMatrix, s: float) -> OperatorMatrix:
    """|op|^s via eigenvalue magnitudes; |op|^1 = sgn(op) op."""
    if not -1.0 <= s <= 1.0:
        raise ValueError("fractional power exponent outside [-1, 1]")
    dec = decompose(op)
    if not dec.reliable:
        raise UnreliableDecompositionError(
            "unreliable eigendecomposition; refusing fractional power"
        )
    m = dec.function_matrix(lambda lam: np.abs(lam) ** s + 0j)
    return OperatorMatrix(op.grid, m)


def riesz_compress_matrix(grid: GridSpec, d_samples: np.ndarray) -> np.ndarray:
    """K x K matrix of R* d(x) R on mean-zero scalars (d: n x n samples)."""
    K = grid.nmodes
    mask = grid.nonzero_mask().ravel()
    scale = _coeff_scale(grid)
    sym = _v_symbols(grid)
    E = np.zeros((K, grid.npoints), dtype=complex)
    E[np.arange(K), np.where(mask)[0]] = 1.0
    Ehat = E.reshape((K,) + grid.shape) / scale
    vec_hat = np.stack([sym[j] * Ehat for j in range(grid.n)], axis=1)
    vec = ifftn(grid, vec_hat)  # (K, n) + shape
    if grid.n == 1:
        dmat = d_samples.reshape(grid.shape + (1, 1))
    else:
        dmat = d_samples
    mult = np.einsum("...pq,b q...->b p...", dmat, vec)
    mh = fftn(grid, mult)
    contracted = np.zeros((K,) + grid.shape, dtype=complex)
    for j in range(grid.n):
        contracted += np.conj(sym[j]) * mh[:, j]
    return (contracted.reshape(K, -1)[:, mask] * scale).T


def kato_check(
    grid: GridSpec,
    d_samples: np.ndarray,
    n_samples: int = 20,
    seed: int = 0,
) -> dict:
    """Square-root comparison for the tangential divergence-form operator.

    Assembles L_par = (-Delta)^(1/2) (R* d' R) (-Delta)^(1/2) on mean-zero
    scalars, takes its principal square root through the eigendecomposition,
    and returns min/max of ||L^(1/2) f|| / ||(-Delta)^(1/2) f|| over a
    random corpus.
    """
    K = grid.nmodes
    M = riesz_compress_matrix(grid, d_samples)
    herm = 0.5 * (M + M.conj().T)
    lam_min = float(np.min(np.linalg.eigvalsh(herm)))
    if lam_min <= 0:
        raise ValueError("tangential block is not accretive after compression")
    w = grid.mode_magnitudes()
    L = (w[:, None] * M) * w[None, :]
    lam, W = np.linalg.eig(L)
    if np.min(lam.real) <= 0:
        raise ValueError("compressed operator is not sectorial")
    Winv = np.linalg.inv(W)
    sqrtL = (W * np.sqrt(lam)) @ Winv
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(n_samples):
        f = rng.standard_normal(K) + 1j * rng.standard_normal(K)
        num = np.linalg.norm(sqrtL @ f)
        den = np.linalg.norm(w * f)
        ratios.append(num / den)
    ratios = np.array(ratios)
    return {
        "min_ratio": float(ratios.min()),
        "max_ratio": float(ratios.max()),
        "median_ratio": float(np.median(ratios)),
        "accretivity": lam_min,
    }
