"""Dense operator calculus on the curl-free subspace in V-coordinates.

All operators on H0 are represented as dense complex matrices of dimension
2K, K = N^n - 1, acting on stacked coefficient vectors (perpendicular slot
first).  The functional calculus (sign, semigroups, quadratic-norm
functions) is eigendecomposition-based.  Of the two first-order operators
only uT = S calB is factored: T = calB S = S^-1 uT S shares its calculus
through S, so f(T) = S^-1 f(uT) S, and S and S^-1 are exact maps
(_apply_S, _apply_S_inv) around uT's one decomposition; T carries none of
its own.  The sign function has a
second route, the scaled Newton iteration, which needs no eigenbasis: it
serves the callers that need only sgn, checks the eigen route, and
replaces it when an eigenbasis is ill-conditioned.  Its scaling starts
from the spectral box [margin, hi] that the bisectoriality gate's margin
and a matrix norm bound, then hands over to determinant scaling (see
_newton_iteration); on the coefficient families it takes 6-7 steps at
N = 128 where determinant scaling alone takes 8-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .coeffs import CoefficientField, NonAccretiveError
from .errors import NumericalError
from .grid import GridSpec, _v_symbols, fftn

__all__ = [
    "OperatorMatrix",
    "SpectralDecomposition",
    "BisectorialityError",
    "NewtonConvergenceError",
    "SubspaceError",
    "UnreliableDecompositionError",
    "InvolutionError",
    "decompose",
    "assemble_S",
    "assemble_calB",
    "assemble_operators",
    "matrix_sign",
    "spectral_projectors",
    "log_t_levels",
    "log_t_quadrature",
    "plus_coefficients",
    "semigroup_apply",
    "spectral_columns",
    "kato_check",
    "weight_vector",
    "weighted",
    "weighted_norm",
]

MARGIN_FLOOR = 1e-8
COND_LIMIT = 1e8
# A certified margin (OperatorMatrix.margin_bound) above this multiple of
# MARGIN_FLOOR passes the bisectoriality gate without an eigvals call.  The
# bound holds in exact arithmetic, but its accretivity comes from pointwise
# eigvalsh calls and the computed calB is a rounded compression, each off by
# about eps ||B||; the factor 100 keeps the decision far from that rounding.
CERTIFICATE_SAFETY = 100.0
# The box phase of the Newton sign iteration ends once its box [1, c] has
# c <= BOX_TAIL: what is left is rounding and the part of a complex
# spectrum a real box does not see, and determinant scaling takes that over.
BOX_TAIL = 1.01


class BisectorialityError(NumericalError):
    """Spectrum too close to the imaginary axis for the sign calculus."""


class NewtonConvergenceError(NumericalError):
    """The Newton sign iteration did not converge within its step budget."""


class SubspaceError(NumericalError):
    """A vector that must lie in the + spectral subspace has a significant
    component outside it."""


class UnreliableDecompositionError(NumericalError):
    """The eigendecomposition does not reconstruct its operator."""


class InvolutionError(NumericalError):
    """A sign matrix does not square to the identity within tolerance."""


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
    """op = vectors diag(eigenvalues) vectors_inv, with the conditioning of
    the basis and a reconstruction check (reliable).  tables holds arrays
    derived from the spectrum alone and built once per decomposition: the
    f(t_j, lambda_i) tables of _table_columns, which serve T's quadratic
    norms as well as uT's."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    vectors_inv: np.ndarray
    cond: float
    margin: float
    reliable: bool
    tables: dict = field(default_factory=dict, repr=False, compare=False)

    def function_matrix(self, f) -> np.ndarray:
        return (self.vectors * f(self.eigenvalues)) @ self.vectors_inv


def decompose(op: OperatorMatrix) -> SpectralDecomposition:
    """Eigendecomposition of op, computed on first use and kept on the
    instance: it is freed with the operator, and another operator is
    factored afresh even when its entries are equal.

    reliable needs a finite cond(W) and a reconstruction within 1e-8 of op;
    an exactly singular W has no inverse and counts as cond = inf.  The T of
    assemble_operators needs no decomposition of its own: its maps go
    through uT's and S (_table_columns, the solvers).
    """
    dec = op.__dict__.get("_decomposition")
    if dec is not None:
        return dec
    lam, W = np.linalg.eig(op.matrix)
    try:
        Winv = np.linalg.inv(W)
    except np.linalg.LinAlgError:  # an exactly singular eigenvector matrix
        Winv, cond = np.full_like(W, np.nan), np.inf
    else:
        cond = float(np.linalg.cond(W))
    err = np.linalg.norm((W * lam) @ Winv - op.matrix)
    reliable = bool(err <= 1e-8 * max(np.linalg.norm(op.matrix), 1e-300) and np.isfinite(cond))
    dec = SpectralDecomposition(lam, W, Winv, cond, float(np.min(np.abs(lam.real))), reliable)
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


def weighted(grid: GridSpec, M: np.ndarray, s: float) -> np.ndarray:
    """|xi|^s M |xi|^-s: M as a map between |xi|^s-weighted spaces, so its
    norms and singular values are those of that topology.

    M may be a full 2K x 2K matrix or any square block on a single slot.
    """
    K = grid.nmodes
    if M.shape[0] == 2 * K:
        w = weight_vector(grid, s)
    elif M.shape[0] == K:
        w = mode_weights(grid, s)
    else:
        raise ValueError("unexpected matrix dimension")
    return (w[:, None] * M) / w[None, :]


def weighted_norm(grid: GridSpec, M: np.ndarray, s: float) -> float:
    """Operator norm of M between |xi|^s-weighted spaces (see weighted)."""
    return float(np.linalg.norm(weighted(grid, M, s), ord=2))


def assemble_S(grid: GridSpec) -> OperatorMatrix:
    """The tangential Dirac-type operator in V-coordinates: per-mode block
    [[0, |xi|], [|xi|, 0]]."""
    K = grid.nmodes
    w = grid.mode_magnitudes()
    m = np.zeros((2 * K, 2 * K), dtype=complex)
    m[:K, K:] = np.diag(w)
    m[K:, :K] = np.diag(w)
    return OperatorMatrix(grid, m)


def _apply_S(grid: GridSpec, X: np.ndarray) -> np.ndarray:
    """S @ X for S = assemble_S(grid), X of 2K rows: the two halves of the
    rows swapped and each row scaled by |xi|, written into one new array.
    Each entry of the product has one nonzero term, so this equals the
    dense product exactly."""
    K = grid.nmodes
    w = grid.mode_magnitudes().reshape((K,) + (1,) * (X.ndim - 1))
    out = np.empty_like(X, dtype=np.result_type(w, X))
    np.multiply(w, X[K:], out=out[:K])
    np.multiply(w, X[:K], out=out[K:])
    return out


def _apply_S_inv(grid: GridSpec, X: np.ndarray) -> np.ndarray:
    """S^-1 @ X for S = assemble_S(grid), X of 2K rows: the two halves of
    the rows swapped and each row divided by |xi|."""
    K = grid.nmodes
    w = grid.mode_magnitudes().reshape((K,) + (1,) * (X.ndim - 1))
    return np.concatenate([X[K:] / w, X[:K] / w])


def _convolution_table(grid: GridSpec):
    """(idx, flat): the per-axis indices of the K nonzero modes, and the
    K x K table of the flat grid index of k - l (mod N) for modes k, l."""
    idx = np.nonzero(grid.nonzero_mask())
    flat = np.zeros((grid.nmodes, grid.nmodes), dtype=np.intp)
    for i in idx:
        flat = flat * grid.N + (i[:, None] - i[None, :]) % grid.N
    return idx, flat


def _fourier_tables(grid: GridSpec, samples: np.ndarray) -> np.ndarray:
    """M_pq = fftn(samples[..., p, q]) / npoints, shape (P, Q) + grid.shape."""
    return fftn(grid, np.moveaxis(samples, (-2, -1), (0, 1))) / grid.npoints


def _gather(grid: GridSpec, samples: np.ndarray, left, right) -> np.ndarray:
    """K x K matrix sum_pq conj(left_p[k]) M_pq[k - l] right_q[l] over the
    nonzero modes k, l, where M_pq = fftn(samples[..., p, q]) / npoints.

    This is the compression of pointwise multiplication by the matrix
    samples (shape grid.shape + (P, Q)) between the per-mode symbols left
    (P entries) and right (Q entries), each of grid.shape or None for a
    zero symbol: multiplication is convolution of the Fourier coefficients.
    """
    idx, flat = _convolution_table(grid)
    Mh = _fourier_tables(grid, samples)
    out = np.zeros(flat.shape, dtype=complex)
    for p, lp in enumerate(left):
        for q, rq in enumerate(right):
            if lp is not None and rq is not None:
                out += np.conj(lp[idx])[:, None] * Mh[p, q].ravel()[flat] * rq[idx]
    return out


def assemble_calB(B: CoefficientField, accretivity_floor: float = 1e-10) -> OperatorMatrix:
    """Compressed multiplication operator Pi B Pi in V-coordinates.

    Its margin_bound is B.lamb, the pointwise accretivity of B.  V is an
    isometry onto H0 and the gather is the exact discrete compression, so
    v* calB v = <B Vv, Vv> >= B.lamb |v|^2: the accretivity kappa of calB,
    the least eigenvalue of its Hermitian part, is at least B.lamb, and
    every eigenvalue has Re lambda >= B.lamb.  Only when B.lamb is below
    accretivity_floor is kappa computed, densely; calB is refused when it
    is below the floor too, and is otherwise its margin_bound.

    The four slot blocks are _gather's compressions, made from one FFT and
    one gather of all (1+n)^2 coefficient tables and summed, term by term
    in _gather's order, straight into the 2K x 2K matrix.
    """
    grid = B.grid
    K, P = grid.nmodes, 1 + grid.n
    idx, flat = _convolution_table(grid)
    tables = _fourier_tables(grid, B.samples).reshape(P, P, -1)[:, :, flat]
    # V = [[I, 0], [0, -R]]: the perpendicular slot is component 0 with
    # symbol 1, the tangential slot components 1..n with -i xi_j / |xi|
    sym = [np.ones(K)] + [-sj[idx] for sj in _v_symbols(grid)]
    slots = ((slice(0, K), range(1)), (slice(K, 2 * K), range(1, P)))
    m = np.zeros((2 * K, 2 * K), dtype=complex)
    for rows, ps in slots:
        for cols, qs in slots:
            block = m[rows, cols]
            for p in ps:
                for q in qs:
                    block += np.conj(sym[p])[:, None] * tables[p, q] * sym[q]
    lamb = B.lamb
    if lamb < accretivity_floor:
        lamb = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
        if lamb < accretivity_floor:
            raise NonAccretiveError(
                f"compressed coefficient operator is not accretive on H0 "
                f"(min Hermitian eigenvalue {lamb:.3e})"
            )
    return OperatorMatrix(grid, m, lamb)


def _assemble_uT(calB: OperatorMatrix) -> OperatorMatrix:
    """uT = S calB with its certified margin (see assemble_operators)."""
    grid = calB.grid
    bound = calB.margin_bound * float(np.min(grid.mode_magnitudes()))
    return OperatorMatrix(grid, _apply_S(grid, calB.matrix), bound)


def _assemble_T(calB: OperatorMatrix, uT: OperatorMatrix) -> OperatorMatrix:
    """T = calB S, the transpose of S calB^T, with uT's margin.  T = S^-1 uT S:
    _table_columns maps T's norms through uT's decomposition, so T keeps uT
    (the dataclass is frozen; its __setattr__ guards the fields, not __dict__)."""
    T = OperatorMatrix(calB.grid, _apply_S(calB.grid, calB.matrix.T).T, uT.margin_bound)
    T.__dict__["_uT"] = uT
    return T


def assemble_operators(B: CoefficientField):
    """(S, calB, T, uT) for a first-order coefficient field B, S dense.

    T and uT carry the certified margin kappa min|xi|, kappa =
    calB.margin_bound: from uT v = lambda v, v* calB v = lambda v* S^-1 v
    with v* S^-1 v real and at most |v|^2 / min|xi| in size, so
    |Re lambda| >= kappa min|xi|; T = S^-1 uT S has the same spectrum.
    """
    calB = assemble_calB(B)
    uT = _assemble_uT(calB)
    return assemble_S(B.grid), calB, _assemble_T(calB, uT), uT


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
        return _sign_fallback(op.matrix, dec.margin)
    return dec.function_matrix(lambda lam: np.sign(lam.real).astype(complex))


def _sign_fallback(m: np.ndarray, margin: float) -> np.ndarray:
    """The eigen route's sign when its eigenbasis is unreliable or
    ill-conditioned: the Newton iteration, which uses no eigenbasis (the
    caller has applied the gate, whose margin starts the scaling)."""
    return _newton_iteration(m, margin)


# bench/tracer.py wraps the fallback, and counts its calls, by this name
_sign_schur = _sign_fallback


def _sign_newton(
    op: OperatorMatrix, tol: float = 1e-12, maxiter: int = 100
) -> np.ndarray:
    """Newton route: the gate of the eigen route, from op's certified margin
    when that clears it by CERTIFICATE_SAFETY and from eigvals otherwise,
    then the iteration, scaled from whichever margin passed the gate."""
    margin = op.margin_bound
    if margin <= CERTIFICATE_SAFETY * MARGIN_FLOOR:
        margin = float(np.min(np.abs(np.linalg.eigvals(op.matrix).real)))
        _require_margin(margin)
    return _newton_iteration(op.matrix, margin, tol, maxiter)


def _newton_iteration(
    m: np.ndarray, margin: float, tol: float = 1e-12, maxiter: int = 100
) -> np.ndarray:
    """Scaled Newton iteration X <- (mu X + (mu X)^-1)/2 for a matrix with
    no eigenvalue on the imaginary axis (Higham, Functions of Matrices,
    SIAM 2008, ch. 5); margin is a lower bound on min |Re lambda| > 0.

    The scaling runs in two phases.  Box phase: every eigenvalue has
    margin <= |Re lambda| and |lambda| <= hi = min(||m||_1, ||m||_inf), and
    for a real spectrum in +-[margin, hi] the optimal scalings are known in
    advance (Kenney & Laub, SIAM J. Matrix Anal. Appl. 13, 1992; Byers &
    Xu, SIAM J. Matrix Anal. Appl. 30, 2008): the first step takes
    mu = (margin hi)^(-1/2), which leaves |lambda| in [1, c] with
    c = (r + 1/r)/2, r = (hi/margin)^(1/2); each later step takes
    mu = c^(-1/2) and maps the box to [1, (c^(1/2) + c^(-1/2))/2].  Tail:
    once c <= BOX_TAIL the determinant scaling mu = |det X|^(-1/dim) takes
    over, which costs nothing extra and also suits a complex spectrum.  Any
    mu > 0 keeps each eigenvalue in its half-plane, so the box only sets
    the pace.  The six coefficient families at n = 1, N = 128 take 6-7
    steps, against 8-9 under determinant scaling from the start.

    Each step factors X once: the determinant comes from the diagonal of
    the LU factors and X^-1 from the same factors.  With Y = mu X the next
    iterate obeys X_next - sgn = Y^-1 (Y - sgn)^2 / 2, and ||Y - sgn|| is
    about ||X_next - Y|| near convergence, so the iteration stops once
    ||Y^-1|| ||X_next - Y||^2 / 2 <= tol ||X_next||, which saves the last
    step a test on ||X_next - X|| alone would take.  Raises
    NewtonConvergenceError when that has not happened after maxiter steps,
    or when an iterate is singular.
    """
    getrf, getri, getri_lwork = scipy.linalg.get_lapack_funcs(
        ("getrf", "getri", "getri_lwork"), (m,)
    )
    X = np.array(m, dtype=complex)
    hi = min(np.linalg.norm(X, 1), np.linalg.norm(X, np.inf))
    box = 1.0 / np.sqrt(margin * hi)  # mu of the first step; 0 in the tail
    r = np.sqrt(max(hi / margin, 1.0))
    c = 0.5 * (r + 1.0 / r)  # the box [1, c] after the first step
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
        mu = box or np.exp(-np.mean(np.log(np.abs(np.diag(lu)))))
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
        box = c**-0.5 if c > BOX_TAIL else 0.0
        c = 0.5 * (c**0.5 + c**-0.5)
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
    """P+- = (I +- sgn)/2; requires ||sgn^2 - I||_F <= tol dim."""
    m = sgn_op.matrix
    eye = np.eye(m.shape[0])
    if np.linalg.norm(m @ m - eye) > tol * m.shape[0]:
        raise InvolutionError("input is not an involution within tolerance")
    P_plus = 0.5 * (eye + m)
    P_minus = eye - P_plus
    return (
        OperatorMatrix(sgn_op.grid, P_plus),
        OperatorMatrix(sgn_op.grid, P_minus),
    )


def _decay(t: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return np.exp(-t * lam)


def spectral_columns(
    op: OperatorMatrix, ts, x: np.ndarray, f=_decay, reject_tol: float = 1e-6
) -> np.ndarray:
    """Columns f(t_j, op) x for every height t_j in ts, shape (dim, len(ts)),
    for x in the + spectral subspace of op (by default the semigroup
    exp(-t_j op) x).

    The spectrum must pass the bisectoriality gate and x must lie in the +
    spectral subspace (SubspaceError otherwise).  W^-1 x is formed once and
    the table F[i, j] = f(t_j, lambda_i), on the eigenvalues with positive
    real part only, is applied in one product W+ (F * (W^-1 x)+).  For the
    default f a t = 0 column is an exact copy of x.  The quadratic norms,
    whose functions act on the whole spectrum, use _table_columns.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    if np.any(ts < 0):
        raise ValueError("semigroup time must be nonnegative")
    dec, pos, coeff = plus_coefficients(op, x, reject_tol)
    F = f(ts[None, :], dec.eigenvalues[pos, None])
    out = dec.vectors[:, pos] @ (F * coeff[pos, None])
    if f is _decay:
        out[:, ts == 0] = x[:, None]
    return out


def _table_columns(op: OperatorMatrix, p: np.ndarray, key, f, npoints: int):
    """(ts, columns f(t_j, op) p) over the log-t levels ts of op, with f
    applied to the whole spectrum (the quadratic norms' kernel).

    Refuses an unreliable eigenbasis.  The table F[i, j] = f(t_j, lambda_i)
    and its levels are built on the first call for (key, npoints) and kept
    in the decomposition's tables.  The T of assemble_operators is not
    factored: T = S^-1 uT S, so its columns are S^-1 times uT's columns of
    S p, and its norms are refused when uT's basis is unreliable.
    """
    uT = op.__dict__.get("_uT")
    if uT is not None:
        ts, cols = _table_columns(uT, _apply_S(op.grid, p), key, f, npoints)
        return ts, _apply_S_inv(op.grid, cols)
    dec = decompose(op)
    _require_reliable(dec)
    table = dec.tables.get((key, npoints))
    if table is None:
        ts = log_t_levels(op, npoints)
        table = dec.tables[key, npoints] = (ts, f(ts[None, :], dec.eigenvalues[:, None]))
    ts, F = table
    return ts, dec.vectors @ (F * (dec.vectors_inv @ p)[:, None])


def _require_reliable(dec: SpectralDecomposition) -> None:
    if not dec.reliable:
        raise UnreliableDecompositionError(f"unreliable eigendecomposition (cond {dec.cond:.3e})")


def plus_coefficients(op: OperatorMatrix, x: np.ndarray, reject_tol: float = 1e-6):
    """Eigen-coordinates W^-1 x of a vector in the + spectral subspace.

    Applies the bisectoriality gate, refuses an unreliable eigenbasis
    (UnreliableDecompositionError) and raises SubspaceError when the part
    of x on eigenvalues with negative real part exceeds reject_tol ||x||.
    Returns (decomposition, mask of the + eigenvalues, W^-1 x).
    """
    dec = check_bisectorial(op)
    _require_reliable(dec)
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


def log_t_quadrature(ts: np.ndarray, power: float, vals: np.ndarray) -> float:
    """(Integral of t^power vals(t) dt/t)^(1/2), trapezoid in log t over the
    heights ts."""
    return float(np.sqrt(np.trapezoid(ts**power * vals, np.log(ts))))


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
    sym = _v_symbols(grid)
    M = _gather(grid, d_samples.reshape(grid.shape + (grid.n, grid.n)), sym, sym)
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
