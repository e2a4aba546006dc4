import gc
import weakref

import numpy as np
import pytest

from halfspace.boundary import build_core
from halfspace import operators
from halfspace.coeffs import FAMILY_KINDS, hat_transform, make_family
from halfspace.errors import NumericalError
from halfspace.grid import GridSpec, scalar_to_coeffs
from halfspace.operators import (
    BisectorialityError,
    NewtonConvergenceError,
    OperatorMatrix,
    SubspaceError,
    assemble_S,
    assemble_operators,
    decompose,
    decompose_T_from_uT,
    fractional_power,
    kato_check,
    matrix_sign,
    semigroup_apply,
    spectral_columns,
    spectral_projectors,
    weighted_norm,
)
from halfspace.quadnorms import PsiSpec
from halfspace.solvers import solve_dirichlet_l2


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
    # |Re lambda| >= kappa min|xi| for every eigenvalue of uT and of T
    grid = GridSpec(n=1, N=N, L=2 * np.pi)
    for seed in (0, 1, 2):
        _, (S, calB, T, uT) = ops_for(grid, kind, seed=seed)
        herm = 0.5 * (calB.matrix + calB.matrix.conj().T)
        bound = np.min(np.linalg.eigvalsh(herm)) * np.min(grid.mode_magnitudes())
        assert uT.margin_bound == T.margin_bound
        assert abs(uT.margin_bound - bound) <= 1e-14 * bound
        for op in (uT, T):
            margin = np.min(np.abs(np.linalg.eigvals(op.matrix).real))
            assert margin >= (1 - 1e-10) * bound, (kind, N, seed)
            if kind == "constant":
                assert abs(margin - bound) <= 1e-12 * bound


def test_newton_non_convergence_is_typed(grid):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=3)
    with pytest.raises(NewtonConvergenceError, match="did not converge in 2 steps"):
        operators._sign_newton(uT, maxiter=2)
    assert issubclass(NewtonConvergenceError, NumericalError)  # exit code 3


def test_ill_conditioned_eigenbasis_falls_back_to_newton(grid, monkeypatch):
    _, (S, calB, T, uT) = ops_for(grid, "smooth_trig", seed=2)
    dec = decompose(uT)
    fallbacks = []
    fallback = operators._sign_fallback
    monkeypatch.setattr(operators, "_sign_fallback",
                        lambda m: fallbacks.append(m.shape) or fallback(m))
    monkeypatch.setattr(operators, "COND_LIMIT", 0.5 * dec.cond)
    sg = matrix_sign(uT).matrix
    assert fallbacks == [uT.matrix.shape]
    assert np.linalg.norm(sg @ sg - np.eye(uT.dim)) <= 1e-10
    comm = sg @ uT.matrix - uT.matrix @ sg
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(uT.matrix)
    re = dec.eigenvalues.real
    assert abs(np.trace(sg) - (np.sum(re > 0) - np.sum(re < 0))) <= 1e-10


def test_fractional_power_endpoints(grid):
    _, (S, calB, T, uT) = ops_for(grid, "lower_triangular_random", seed=7)
    absv = fractional_power(uT, 1.0)
    half = fractional_power(uT, 0.5)
    assert np.linalg.norm(half.matrix @ half.matrix - absv.matrix, 2) < 1e-6
    # self-adjoint case (A = I): |S| = sgn(S) S holds exactly
    _, (S, _, _, uTI) = ops_for(grid, "constant")
    sg = matrix_sign(uTI)
    assert np.linalg.norm(
        fractional_power(uTI, 1.0).matrix - sg.matrix @ uTI.matrix, 2
    ) < 1e-10


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
    # whole-spectrum functions: psi(t uT) p column by column
    p = rng.standard_normal(uT.dim) + 1j * rng.standard_normal(uT.dim)
    psi = PsiSpec(k=2)
    cols = spectral_columns(
        uT, ts[1:], p, lambda t, lam: psi.eigenvalue_function(t)(lam), plus_subspace=False
    )
    for j, t in enumerate(ts[1:]):
        ref = dec.vectors @ (psi.eigenvalue_function(t)(dec.eigenvalues) * (dec.vectors_inv @ p))
        assert np.linalg.norm(cols[:, j] - ref) <= 1e-12 * np.linalg.norm(ref), t


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


def _dirichlet_reference(T, target):
    # the restricted trace solve through eig(T) itself
    K = T.grid.nmodes
    lam, W = np.linalg.eig(T.matrix)
    Z = W[:, lam.real > 0]
    sv = np.linalg.svd(Z[:K], compute_uv=False)
    y, *_ = np.linalg.lstsq(Z[:K], target, rcond=None)
    return Z @ y, float(sv[0] / sv[-1])


@pytest.mark.parametrize("N", [32, 64])
def test_T_decomposition_from_uT_matches_eig(N):
    grid = GridSpec(n=1, N=N, L=2 * np.pi)
    A = make_family(grid, "lower_triangular_random", seed=13)
    core = build_core(A)
    dec = decompose_T_from_uT(core.T, core.uT)
    assert decompose(core.T) is dec  # kept on T: no eig of T afterwards
    ref = decompose(OperatorMatrix(grid, core.T.matrix.copy()))
    assert dec.reliable == ref.reliable
    assert np.allclose(np.linalg.norm(dec.vectors, axis=0), 1.0, atol=1e-14)
    u0 = np.cos(grid.points()[0]) + 0.3 * np.sin(3 * grid.points()[0])
    hd = solve_dirichlet_l2(A, u0, core=core)
    H0t, cond = _dirichlet_reference(core.T, -scalar_to_coeffs(grid, u0 - np.mean(u0)))
    assert np.linalg.norm(hd.trace - H0t) <= 1e-10 * np.linalg.norm(H0t)
    assert abs(hd.diagnostics["restricted_cond"] - cond) <= 1e-10 * cond
