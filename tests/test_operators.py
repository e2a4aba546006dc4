import gc
import weakref

import numpy as np
import pytest
import scipy.linalg

from halfspace.boundary import build_core
from halfspace import operators
from halfspace.coeffs import FAMILY_KINDS, NonAccretiveError, hat_transform, make_family
from halfspace.errors import NumericalError
from halfspace.grid import (
    BoundaryField,
    GridSpec,
    _v_symbols,
    coeffs_to_scalar,
    field_to_vcoords,
    riesz_adjoint,
    riesz_apply,
    scalar_to_coeffs,
    v_apply,
    vcoords_to_fields,
)
from halfspace.operators import (
    BisectorialityError,
    InvolutionError,
    NewtonConvergenceError,
    OperatorMatrix,
    SubspaceError,
    UnreliableDecompositionError,
    _apply_S,
    _apply_S_inv,
    _table_columns,
    assemble_S,
    assemble_calB,
    assemble_operators,
    decompose,
    kato_check,
    matrix_sign,
    plus_coefficients,
    semigroup_apply,
    spectral_columns,
    spectral_projectors,
    weighted_norm,
)
from halfspace.quadnorms import PsiSpec, quad_norm_adapted
from halfspace.solvers import SolutionHandle, evaluate, solve_dirichlet_l2


@pytest.fixture
def grid():
    return GridSpec(n=1, N=16, L=2 * np.pi)


def ops_for(grid, kind, seed=0, **kw):
    A = make_family(grid, kind, seed=seed, **kw)
    return A, assemble_operators(hat_transform(A))


def test_S_is_selfadjoint_multiplier(grid):
    S = assemble_S(grid)
    assert np.allclose(S.matrix, S.matrix.conj().T)
    K = grid.nmodes
    w = grid.mode_magnitudes()
    assert np.allclose(S.matrix[:K, K:], np.diag(w))


def test_identity_coefficients_give_S(grid):
    _, (S, calB, T, uT) = ops_for(grid, "constant")
    assert np.allclose(calB.matrix, np.eye(2 * grid.nmodes), atol=1e-12)
    assert np.allclose(T.matrix, S.matrix, atol=1e-12)
    assert np.allclose(uT.matrix, S.matrix, atol=1e-12)


def test_intertwining_relations(grid):
    _, (S, calB, T, uT) = ops_for(grid, "smooth_trig", seed=2)
    scale = np.linalg.norm(S.matrix, 2)
    assert np.linalg.norm(uT.matrix @ S.matrix - S.matrix @ T.matrix, 2) < 1e-10 * scale**2
    assert np.linalg.norm(calB.matrix @ uT.matrix - T.matrix @ calB.matrix, 2) < 1e-10 * scale


ASSEMBLY_GRIDS = [GridSpec(n=1, N=16), GridSpec(n=2, N=8)]


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("g", ASSEMBLY_GRIDS, ids=["n1N16", "n2N8"])
def test_gather_matches_per_vector_route(g, kind):
    # column l of Pi B Pi is V* (B . V e_l); column l of R* d R is R* (d . R e_l)
    A = make_family(g, kind, seed=3)
    B = hat_transform(A)
    K = g.nmodes
    calB = np.empty((2 * K, 2 * K), dtype=complex)
    for l, e in enumerate(np.eye(2 * K)):
        Ve = v_apply(g, np.stack([coeffs_to_scalar(g, e[:K]), coeffs_to_scalar(g, e[K:])]))
        BVe = np.einsum("...pq,q...->p...", B.samples, Ve.values)
        calB[:, l] = field_to_vcoords(BoundaryField(g, BVe))
    M = assemble_calB(B).matrix
    assert np.linalg.norm(M - calB) <= 1e-13 * np.linalg.norm(calB)
    RdR = np.empty((K, K), dtype=complex)
    for l, e in enumerate(np.eye(K)):
        dRe = np.einsum("...pq,q...->p...", A.d, riesz_apply(g, coeffs_to_scalar(g, e)))
        RdR[:, l] = scalar_to_coeffs(g, riesz_adjoint(g, dRe))
    sym = _v_symbols(g)
    M = operators._gather(g, A.d, sym, sym)
    assert np.linalg.norm(M - RdR) <= 1e-13 * np.linalg.norm(RdR)


@pytest.mark.parametrize("n, N", [(1, 8), (1, 32), (1, 128), (2, 8), (2, 16)])
def test_one_pass_assembly_equals_per_block_gathers(n, N):
    # the four slot blocks, each from its own FFT and gather, then S calB as
    # two scaled halves: the assembly is the same sum in the same order
    g = GridSpec(n=n, N=N)
    K = g.nmodes
    w = g.mode_magnitudes()[:, None]
    perp = [np.ones(g.shape)] + [None] * n
    par = [None] + [-sj for sj in _v_symbols(g)]
    for kind in FAMILY_KINDS:
        B = hat_transform(make_family(g, kind, seed=5))
        ref = np.block([[operators._gather(g, B.samples, l, r) for r in (perp, par)]
                        for l in (perp, par)])
        _, calB, _, uT = assemble_operators(B)
        assert np.array_equal(calB.matrix, ref), kind
        assert np.array_equal(uT.matrix, np.concatenate([w * ref[K:], w * ref[:K]])), kind


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("g", ASSEMBLY_GRIDS, ids=["n1N16", "n2N8"])
def test_block_swap_equals_dense_S_products(g, kind):
    _, (S, calB, T, uT) = ops_for(g, kind, seed=4)
    assert np.array_equal(T.matrix, calB.matrix @ S.matrix)
    assert np.array_equal(uT.matrix, S.matrix @ calB.matrix)


@pytest.mark.parametrize("g", ASSEMBLY_GRIDS, ids=["n1N16", "n2N8"])
def test_S_inverse_undoes_S(g):
    rng = np.random.default_rng(4)
    X = rng.standard_normal((2 * g.nmodes, 3)) + 1j * rng.standard_normal((2 * g.nmodes, 3))
    S = assemble_S(g).matrix
    assert np.allclose(_apply_S_inv(g, X), np.linalg.solve(S, X), rtol=0, atol=1e-14)
    assert np.allclose(_apply_S_inv(g, _apply_S(g, X)), X, rtol=0, atol=1e-14)
    assert np.array_equal(_apply_S_inv(g, X[:, 0]), _apply_S_inv(g, X)[:, 0])


def test_singular_eigenvector_matrix_is_unreliable():
    # a 30 x 30 Jordan block: eig returns an exactly singular eigenvector
    # matrix, so the basis has no inverse; the eigen sign takes Newton,
    # which returns I, and the eigen-coordinate consumers refuse
    grid = GridSpec(n=1, N=16, L=2 * np.pi)
    m = np.eye(2 * grid.nmodes, dtype=complex)
    m[np.arange(29), np.arange(1, 30)] = 1.0
    op = OperatorMatrix(grid, m)
    dec = decompose(op)
    assert dec.cond == np.inf and not dec.reliable
    assert np.array_equal(matrix_sign(op).matrix, np.eye(op.dim))
    x = np.ones(op.dim)
    with pytest.raises(UnreliableDecompositionError):
        plus_coefficients(op, x)
    with pytest.raises(UnreliableDecompositionError):
        spectral_columns(op, [0.0, 1.0], x)
    with pytest.raises(UnreliableDecompositionError):
        quad_norm_adapted(op, x, 0.0)


def test_sign_is_involution_and_matches_newton(grid):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=3)
    sg_e = matrix_sign(uT, method="eigen")
    sg_n = matrix_sign(uT, method="newton")
    eye = np.eye(uT.dim)
    assert np.linalg.norm(sg_e.matrix @ sg_e.matrix - eye, 2) < 1e-10
    assert np.linalg.norm(sg_e.matrix - sg_n.matrix, 2) < 1e-8


def test_spectral_projectors(grid):
    _, (S, calB, T, uT) = ops_for(grid, "block_diagonal_random", seed=4)
    sg = matrix_sign(uT)
    Pp, Pm = spectral_projectors(sg)
    eye = np.eye(uT.dim)
    assert np.linalg.norm(Pp.matrix + Pm.matrix - eye, 2) < 1e-12
    assert np.linalg.norm(Pp.matrix @ Pp.matrix - Pp.matrix, 2) < 1e-10
    assert np.linalg.norm(Pp.matrix @ Pm.matrix, 2) < 1e-10
    # a non-involution is a numerical failure (CLI exit 3), not a configuration one
    with pytest.raises(InvolutionError) as exc:
        spectral_projectors(OperatorMatrix(grid, 0.5 * sg.matrix))
    assert isinstance(exc.value, NumericalError)


def test_spectral_projectors_honour_a_tighter_tol(grid):
    # sgn^2 - I = delta I with ||delta I||_F = 1e-9 dim
    dim = 2 * grid.nmodes
    delta = 1e-9 * np.sqrt(dim)
    signs = np.where(np.arange(dim) % 2 == 0, 1.0, -1.0)
    sg = OperatorMatrix(grid, np.diag(signs * np.sqrt(1.0 + delta)))
    defect = np.linalg.norm(sg.matrix @ sg.matrix - np.eye(dim))
    assert abs(defect - 1e-9 * dim) <= 1e-3 * 1e-9 * dim
    spectral_projectors(sg)
    with pytest.raises(InvolutionError):
        spectral_projectors(sg, tol=1e-10)


def test_semigroup_property_and_mode_decay(grid):
    _, (S, calB, T, uT) = ops_for(grid, "constant")
    sg = matrix_sign(uT)
    Pp, _ = spectral_projectors(sg)
    rng = np.random.default_rng(5)
    x = Pp.matrix @ (rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim))
    y1 = semigroup_apply(uT, 0.7, semigroup_apply(uT, 0.3, x))
    y2 = semigroup_apply(uT, 1.0, x)
    assert np.linalg.norm(y1 - y2) < 1e-10 * np.linalg.norm(x)
    # for A = I the decay per mode is exp(-t |xi|)
    f = np.exp(1j * 2 * grid.points()[0]) / np.sqrt(grid.L)
    fc = scalar_to_coeffs(grid, f)
    p0 = np.concatenate([fc, fc])  # graph vector of the mode for A = I
    p1 = semigroup_apply(uT, 0.5, p0)
    assert np.allclose(p1, np.exp(-0.5 * 2.0) * p0, atol=1e-10)


def test_semigroup_rejects_wrong_subspace(grid):
    _, (S, calB, T, uT) = ops_for(grid, "constant")
    sg = matrix_sign(uT)
    _, Pm = spectral_projectors(sg)
    rng = np.random.default_rng(6)
    x = Pm.matrix @ (rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim))
    with pytest.raises(SubspaceError):
        semigroup_apply(uT, 1.0, x)


@pytest.mark.parametrize("method", ["eigen", "newton"])
def test_bisectoriality_guard(grid, method):
    m = np.zeros((2 * grid.nmodes, 2 * grid.nmodes), dtype=complex)
    m[0, 0] = 1j  # purely imaginary eigenvalue
    m += 1e-12 * np.eye(2 * grid.nmodes)
    op = OperatorMatrix(grid, m)
    with pytest.raises(BisectorialityError):
        matrix_sign(op, method=method)


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("N", [32, 64])
def test_accretivity_certifies_the_spectral_margin(kind, N):
    # |Re lambda| >= B.lamb min|xi| for every eigenvalue of uT and of T, and
    # the pointwise B.lamb bounds the accretivity kappa of calB from below
    grid = GridSpec(n=1, N=N, L=2 * np.pi)
    for seed in (0, 1, 2):
        B = hat_transform(make_family(grid, kind, seed=seed))
        S, calB, T, uT = assemble_operators(B)
        herm = 0.5 * (calB.matrix + calB.matrix.conj().T)
        kappa = np.min(np.linalg.eigvalsh(herm))
        min_xi = np.min(grid.mode_magnitudes())
        bound = B.lamb * min_xi
        assert calB.margin_bound == B.lamb
        assert uT.margin_bound == T.margin_bound == bound
        assert bound <= kappa * min_xi * (1 + 1e-12)
        for op in (uT, T):
            margin = np.min(np.abs(np.linalg.eigvals(op.matrix).real))
            assert margin >= (1 - 1e-10) * bound, (kind, N, seed)
            if kind == "constant":
                assert abs(margin - bound) <= 1e-12 * bound


def test_calB_refusal_decided_on_dense_accretivity(grid):
    # below the floor B.lamb decides nothing: the dense kappa >= B.lamb does
    B = hat_transform(make_family(grid, "lower_triangular_random", seed=0))
    m = assemble_calB(B).matrix
    kappa = float(np.min(np.linalg.eigvalsh(0.5 * (m + m.conj().T))))
    assert B.lamb < kappa
    assert assemble_calB(B, accretivity_floor=0.5 * (B.lamb + kappa)).margin_bound == kappa
    with pytest.raises(NonAccretiveError):
        assemble_calB(B, accretivity_floor=2 * kappa)


def test_newton_non_convergence_is_typed(grid):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=3)
    with pytest.raises(NewtonConvergenceError, match="did not converge in 2 steps"):
        operators._sign_newton(uT, maxiter=2)
    assert issubclass(NewtonConvergenceError, NumericalError)  # exit code 3


def _determinant_scaled_steps(m, tol=1e-12, maxiter=100):
    """Steps of the iteration the box scaling replaced: mu = |det X|^(-1/dim)
    at every step, under the same stopping rule."""
    X = m.copy()
    for step in range(1, maxiter + 1):
        mu = np.exp(-np.linalg.slogdet(X)[1] / X.shape[0])
        Y = mu * X
        inv = np.linalg.inv(Y)
        X = 0.5 * (Y + inv)
        if 0.5 * np.linalg.norm(inv) * np.linalg.norm(X - Y) ** 2 <= tol * np.linalg.norm(X):
            return step
    raise AssertionError("determinant-scaled reference did not converge")


def _count_newton_steps(monkeypatch):
    """A list that records one entry per Newton step: each step factors its
    iterate with one getrf."""
    steps = []
    get = scipy.linalg.get_lapack_funcs

    def counting(names, arrays=(), *args, **kwargs):
        funcs = get(names, arrays, *args, **kwargs)
        return [(lambda *a, f=f, **k: steps.append(1) or f(*a, **k)) if name == "getrf" else f
                for name, f in zip(names, funcs)]

    monkeypatch.setattr(scipy.linalg, "get_lapack_funcs", counting)
    return steps


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n, N", [(1, 32), (1, 64), (1, 128), (2, 8), (2, 16)])
def test_box_scaled_newton_on_the_families(monkeypatch, kind, n, N):
    # the box [margin_bound, hi] brackets the spectrum; scaled from it the
    # iteration takes no more steps than determinant scaling, and gives the
    # eigen route's sign
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    _, (S, calB, T, uT) = ops_for(grid, kind, seed=5)
    m = uT.matrix
    lam = decompose(uT).eigenvalues
    hi = min(np.linalg.norm(m, 1), np.linalg.norm(m, np.inf))
    assert 0 < uT.margin_bound <= (1 + 1e-10) * np.min(np.abs(lam.real))
    assert hi >= np.max(np.abs(lam))
    steps = _count_newton_steps(monkeypatch)
    sg = matrix_sign(uT, method="newton").matrix
    assert len(steps) <= _determinant_scaled_steps(m)
    if N == 128:
        assert len(steps) <= 7
    sg_e = matrix_sign(uT, method="eigen").matrix
    assert np.linalg.norm(sg - sg_e) <= 1e-10 * np.linalg.norm(sg_e)
    assert np.linalg.norm(sg @ sg - np.eye(uT.dim)) <= 1e-10 * np.linalg.norm(sg)


def test_newton_converges_near_the_imaginary_axis(grid):
    # eigenvalues within 0.03 rad of the imaginary axis, in both half-planes,
    # behind a non-normal similarity: the box is wide and only the tail's
    # determinant scaling sees the complex spectrum
    rng = np.random.default_rng(11)
    dim = 2 * grid.nmodes
    angle = np.pi / 2 - rng.uniform(0.005, 0.03, dim)
    lam = np.geomspace(1.0, 50.0, dim) * np.exp(1j * angle) * rng.choice([-1, 1], dim)
    W = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    op = OperatorMatrix(grid, W @ np.diag(lam) @ np.linalg.inv(W))
    sg = matrix_sign(op, method="newton").matrix
    assert np.linalg.norm(sg @ sg - np.eye(dim)) <= 1e-8
    assert abs(np.trace(sg) - (np.sum(lam.real > 0) - np.sum(lam.real < 0))) <= 1e-8


def test_ill_conditioned_eigenbasis_falls_back_to_newton(grid, monkeypatch):
    _, (S, calB, T, uT) = ops_for(grid, "smooth_trig", seed=2)
    dec = decompose(uT)
    fallbacks = []
    fallback = operators._sign_fallback
    monkeypatch.setattr(operators, "_sign_fallback",
                        lambda m, margin: fallbacks.append(m.shape) or fallback(m, margin))
    monkeypatch.setattr(operators, "COND_LIMIT", 0.5 * dec.cond)
    sg = matrix_sign(uT).matrix
    assert fallbacks == [uT.matrix.shape]
    assert np.linalg.norm(sg @ sg - np.eye(uT.dim)) <= 1e-10
    comm = sg @ uT.matrix - uT.matrix @ sg
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(uT.matrix)
    re = dec.eigenvalues.real
    assert abs(np.trace(sg) - (np.sum(re > 0) - np.sum(re < 0))) <= 1e-10


def test_weighted_norm_identity(grid):
    K = grid.nmodes
    M = np.eye(K)
    for s in (-0.5, 0.0, 0.5):
        assert np.isclose(weighted_norm(grid, M, s), 1.0)


def test_kato_identity_coefficients(grid):
    eye = np.ones(grid.shape)
    rep = kato_check(grid, eye.reshape(grid.shape + (1,) * 0), n_samples=5)
    assert np.isclose(rep["min_ratio"], 1.0, atol=1e-10)
    assert np.isclose(rep["max_ratio"], 1.0, atol=1e-10)


def test_kato_perturbed_coefficients_bounded(grid):
    A = make_family(grid, "block_diagonal_random", seed=8)
    rep = kato_check(grid, A.d, n_samples=10, seed=8)
    assert 0.1 < rep["min_ratio"] <= rep["max_ratio"] < 10.0


def test_decomposition_kept_on_the_operator(grid, monkeypatch):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=9)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    first = decompose(uT)
    assert decompose(uT) is first
    assert len(calls) == 1
    # equal entries, new instance: factored afresh
    twin = OperatorMatrix(grid, uT.matrix.copy())
    assert decompose(twin) is not first
    assert len(calls) == 2


def test_dropped_operator_is_collected(grid):
    _, (S, calB, T, uT) = ops_for(grid, "smooth_trig", seed=10)
    op = OperatorMatrix(grid, uT.matrix.copy())
    matrix_sign(op)
    refs = [weakref.ref(op), weakref.ref(op.matrix), weakref.ref(decompose(op))]
    del op
    gc.collect()
    assert all(r() is None for r in refs)


def test_spectral_columns_match_per_t_semigroup_and_psi(grid):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=11)
    Pp, _ = spectral_projectors(matrix_sign(uT))
    rng = np.random.default_rng(11)
    x = Pp.matrix @ (rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim))
    ts = np.concatenate([[0.0], np.geomspace(1e-3, 1e2, 40)])
    cols = spectral_columns(uT, ts, x)
    assert np.array_equal(cols[:, 0], x)  # t = 0 is an exact copy
    dec = decompose(uT)
    pos = dec.eigenvalues.real > 0
    for j, t in enumerate(ts):
        ref = semigroup_apply(uT, t, x)
        assert np.linalg.norm(cols[:, j] - ref) <= 1e-12 * np.linalg.norm(ref), t
        # the per-t product through the full eigenbasis
        fac = np.where(pos, np.exp(-t * np.where(pos, dec.eigenvalues, 0)), 0)
        ref = dec.vectors @ (fac * (dec.vectors_inv @ x))
        assert np.linalg.norm(cols[:, j] - ref) <= 1e-12 * np.linalg.norm(ref), t
    # whole-spectrum functions, through the quadratic norms' kernel: psi(t uT) p
    # column by column
    p = rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim)
    psi = PsiSpec(k=2)
    levels, cols = _table_columns(
        uT, p, psi, lambda t, lam: psi.eigenvalue_function(t)(lam), 200
    )
    for j, t in enumerate(levels):
        ref = dec.vectors @ (psi.eigenvalue_function(t)(dec.eigenvalues) * (dec.vectors_inv @ p))
        assert np.linalg.norm(cols[:, j] - ref) <= 1e-12 * np.linalg.norm(ref), t


def test_spectral_columns_apply_f_at_t0_unless_the_semigroup(grid):
    # only the default semigroup copies x at t = 0; f = exp(-t lam) / lam
    # gives uT^-1 x there, which the + subspace keeps
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=11)
    Pp, _ = spectral_projectors(matrix_sign(uT))
    rng = np.random.default_rng(11)
    x = Pp.matrix @ (rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim))
    cols = spectral_columns(uT, [0.0, 1.0], x, lambda t, lam: np.exp(-t * lam) / lam)
    ref = np.linalg.solve(uT.matrix, x)
    assert np.linalg.norm(cols[:, 0] - ref) <= 1e-10 * np.linalg.norm(ref)
    ref = np.linalg.solve(uT.matrix, semigroup_apply(uT, 1.0, x))
    assert np.linalg.norm(cols[:, 1] - ref) <= 1e-10 * np.linalg.norm(ref)


def test_spectral_columns_reject_minus_component(grid):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=12)
    Pp, Pm = spectral_projectors(matrix_sign(uT))
    rng = np.random.default_rng(12)
    u = rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim)
    x = Pp.matrix @ u + 1e-3 * (Pm.matrix @ u)
    with pytest.raises(SubspaceError):
        spectral_columns(uT, [0.5, 1.0], x)
    with pytest.raises(NumericalError):  # the CLI maps this base to exit 3
        spectral_columns(uT, [0.0], x)


def _dirichlet_reference(T, B, target, c, ts):
    # the restricted trace solve, and u and grad on the strip, through eig(T)
    K = T.grid.nmodes
    S = assemble_S(T.grid).matrix
    lam, W = np.linalg.eig(T.matrix)
    pos = lam.real > 0
    Z = W[:, pos]
    sv = np.linalg.svd(Z[:K], compute_uv=False)
    y, *_ = np.linalg.lstsq(Z[:K], target, rcond=None)
    Q = Z @ (np.exp(-np.outer(lam[pos], ts)) * y[:, None])  # exp(-t T) H0~
    # the mean of u from d/dt u = (B grad_A u)_perp, with the integral of
    # grad_A u from t to infinity S T^-1 exp(-t T) H0~, at t = 0 and at ts
    ts0 = np.concatenate([[0.0], ts])
    G = S @ (Z @ (np.exp(-np.outer(lam[pos], ts0)) / lam[pos, None] * y[:, None]))
    BG = np.einsum("xq,tqx->tx", B.samples[:, 0, :], vcoords_to_fields(T.grid, G))
    mean = np.mean(BG, axis=1)
    u = -coeffs_to_scalar(T.grid, Q[:K]) + (c + mean[0] - mean[1:])[:, None]
    # grad_A u = S exp(-t T) H0~
    grad = vcoords_to_fields(T.grid, S @ Q)
    return Z @ y, float(sv[0] / sv[-1]), u, grad


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("N", [32, 64])
def test_T_decomposition_from_uT_matches_eig(N):
    # the Dirichlet solve and evaluate take T = S^-1 uT S through uT's
    # eigenbasis: T itself is never factored, and nothing is kept on it
    grid = GridSpec(n=1, N=N, L=2 * np.pi)
    A = make_family(grid, "lower_triangular_random", seed=13)
    u0 = np.cos(grid.points()[0]) + 0.3 * np.sin(3 * grid.points()[0]) + 0.5
    hd = solve_dirichlet_l2(A, u0)
    ts = np.concatenate([[0.0], np.geomspace(1e-2, 10.0, 12)])
    sf = evaluate(hd, ts)
    core = build_core(A)
    assert not hasattr(core, "T")
    T = assemble_operators(core.B)[2]
    H0t, cond, u, grad = _dirichlet_reference(
        T, core.B, -scalar_to_coeffs(grid, u0 - np.mean(u0)), np.mean(u0), ts)
    # the handle keeps the conormal trace S H0~
    assert np.linalg.norm(_apply_S_inv(grid, hd.trace) - H0t) <= 1e-10 * np.linalg.norm(H0t)
    assert abs(hd.diagnostics["restricted_cond"] - cond) <= 1e-10 * cond
    assert _rel(sf.u, u) <= 1e-10
    assert _rel(sf.grad, grad) <= 1e-10


def test_dirichlet_handle_refuses_minus_subspace_of_T():
    # a vector x of T's - spectral subspace has S x in uT's, which the
    # handle's gate rejects as a conormal trace
    grid = GridSpec(n=1, N=16, L=2 * np.pi)
    A = make_family(grid, "lower_triangular_random", seed=14)
    hd = solve_dirichlet_l2(A, np.cos(grid.points()[0]))
    lam, W = np.linalg.eig(assemble_operators(hd.core.B)[2].matrix)
    x = W[:, lam.real < 0] @ np.ones(int(np.sum(lam.real < 0)))
    with pytest.raises(SubspaceError):
        SolutionHandle("l2_dirichlet", A, _apply_S(grid, x), hd.core, hd.gauge_c)
    assert not hasattr(hd.core, "T")
