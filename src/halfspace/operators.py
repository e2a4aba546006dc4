"""Dense operator calculus on the curl-free subspace in V-coordinates.

All operators on H0 are represented as dense complex matrices of dimension
2K, K = N^n - 1, acting on stacked coefficient vectors (perpendicular slot
first).  The functional calculus (sign, semigroups, fractional powers) is
eigendecomposition-based.  The sign function has a second route, the
determinant-scaled Newton iteration, which needs no eigenbasis: it serves
the callers that need only sgn, checks the eigen route, and replaces it
when an eigenbasis is ill-conditioned.
"""

from __future__ import annotations

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
    "NewtonConvergenceError",
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
# A certified margin (OperatorMatrix.margin_bound) above this multiple of
# MARGIN_FLOOR passes the bisectoriality gate without an eigvals call.  The
# bound is exact for the computed matrices, but its kappa comes from
# eigvalsh, whose absolute error is about eps ||calB||; the factor 100 keeps
# the decision far from that rounding.
CERTIFICATE_SAFETY = 100.0


class BisectorialityError(NumericalError):
    """Spectrum too close to the imaginary axis for the sign calculus."""


class NewtonConvergenceError(NumericalError):
    """The Newton sign iteration did not converge within its step budget."""


class SubspaceError(NumericalError):
    """A vector that must lie in the + spectral subspace has a significant
    component outside it."""


class UnreliableDecompositionError(NumericalError):
    """The eigendecomposition does not reconstruct its operator."""


@dataclass(frozen=True)
class OperatorMatrix:
    """A dense operator on H0.  margin_bound is a certified lower bound on
    min |Re lambda| over its spectrum (0 when none is known); assemble_calB
    and assemble_operators set it from the accretivity of calB."""

    grid: GridSpec
    matrix: np.ndarray
    margin_bound: float = 0.0

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


def assemble_calB(B: CoefficientField, accretivity_floor: float = 1e-10) -> OperatorMatrix:
    """Compressed multiplication operator Pi B Pi in V-coordinates.

    Its margin_bound is the accretivity kappa, the least eigenvalue of its
    Hermitian part: every eigenvalue has Re lambda >= kappa.
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
    return OperatorMatrix(grid, m, lam_min)


def assemble_operators(B: CoefficientField):
    """(S, calB, T, uT) for a first-order coefficient field B.

    T and uT carry the certified margin kappa min|xi|: from uT v = lambda v,
    v* calB v = lambda v* S^-1 v with v* S^-1 v real and at most
    |v|^2 / min|xi| in size, so |Re lambda| >= kappa min|xi|; T = S^-1 uT S
    has the same spectrum.
    """
    grid = B.grid
    calB = assemble_calB(B)
    S = assemble_S(grid)
    bound = calB.margin_bound * float(np.min(grid.mode_magnitudes()))
    T = OperatorMatrix(grid, calB.matrix @ S.matrix, bound)
    uT = OperatorMatrix(grid, S.matrix @ calB.matrix, bound)
    return S, calB, T, uT


def _require_margin(margin: float, floor: float = MARGIN_FLOOR) -> None:
    if margin <= floor:
        raise BisectorialityError(
            f"eigenvalue within {floor:.1e} of the imaginary axis "
            f"(margin {margin:.3e})"
        )


def check_bisectorial(op: OperatorMatrix, floor: float = MARGIN_FLOOR) -> SpectralDecomposition:
    dec = decompose(op)
    _require_margin(dec.margin, floor)
    return dec


def _sign_eigen(op: OperatorMatrix) -> np.ndarray:
    dec = check_bisectorial(op)
    if not dec.reliable or dec.cond > COND_LIMIT:
        return _sign_fallback(op.matrix)
    return dec.function_matrix(lambda lam: np.sign(lam.real).astype(complex))


def _sign_fallback(m: np.ndarray) -> np.ndarray:
    """The eigen route's sign when its eigenbasis is unreliable or
    ill-conditioned: the Newton iteration, which uses no eigenbasis (the
    caller has applied the gate)."""
    return _newton_iteration(m)


# bench/tracer.py wraps the fallback, and counts its calls, by this name
_sign_schur = _sign_fallback


def _sign_newton(
    op: OperatorMatrix, tol: float = 1e-12, maxiter: int = 100
) -> np.ndarray:
    """Newton route: the gate of the eigen route, from op's certified margin
    when that clears it by CERTIFICATE_SAFETY and from eigvals otherwise,
    then the iteration."""
    if op.margin_bound <= CERTIFICATE_SAFETY * MARGIN_FLOOR:
        _require_margin(float(np.min(np.abs(np.linalg.eigvals(op.matrix).real))))
    return _newton_iteration(op.matrix, tol, maxiter)


def _newton_iteration(
    m: np.ndarray, tol: float = 1e-12, maxiter: int = 100
) -> np.ndarray:
    """Determinant-scaled Newton iteration X <- (mu X + (mu X)^-1)/2,
    mu = |det X|^(-1/dim), for a matrix with no eigenvalue on the imaginary
    axis (Higham, Functions of Matrices, SIAM 2008, ch. 5).

    Each step factors X once: mu comes from the diagonal of the LU factors
    and X^-1 from the same factors.  With Y = mu X the next iterate obeys
    X_next - sgn = Y^-1 (Y - sgn)^2 / 2, and ||Y - sgn|| is about
    ||X_next - Y|| near convergence, so the iteration stops once
    ||Y^-1|| ||X_next - Y||^2 / 2 <= tol ||X_next||, which saves the last
    step a test on ||X_next - X|| alone would take.  Raises
    NewtonConvergenceError when that has not happened after maxiter steps,
    or when an iterate is singular.
    """
    getrf, getri, getri_lwork = scipy.linalg.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (m,)
    )
    X = np.array(m, dtype=complex)
    # besides X a step uses one array, in place: it holds the LU factors of
    # X^T (a Fortran-order copy of C-order X needs no transpose), then
    # (mu X)^-1, then the update X_next - mu X
    work = np.empty(X.shape, dtype=complex, order="F")
    lwork = int(getri_lwork(X.shape[0])[0].real)
    for step in range(1, maxiter + 1):
        work[...] = X.T
        lu, piv, info = getrf(work, overwrite_a=True)
        if info > 0:
            raise NewtonConvergenceError(f"Newton sign iterate {step} is singular")
        mu = np.exp(-np.mean(np.log(np.abs(np.diag(lu)))))
        inv = getri(lu, piv, lwork=lwork, overwrite_lu=True)[0].T
        inv /= mu
        X *= mu
        inv_norm = np.linalg.norm(inv)
        inv -= X
        inv *= 0.5
        X += inv
        err = 0.5 * inv_norm * np.linalg.norm(inv) ** 2 / max(np.linalg.norm(X), 1e-300)
        if err <= tol:
            return X
    raise NewtonConvergenceError(
        f"Newton sign iteration did not converge in {maxiter} steps "
        f"(estimated relative error {err:.3e} > {tol:.1e})"
    )


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
