import gc
import weakref

import numpy as np
import pytest

from halfspace.coeffs import hat_transform, make_family
from halfspace.grid import GridSpec, scalar_to_coeffs
from halfspace.operators import (
    BisectorialityError,
    OperatorMatrix,
    assemble_S,
    assemble_operators,
    decompose,
    fractional_power,
    kato_check,
    matrix_sign,
    semigroup_apply,
    spectral_projectors,
    weighted_norm,
)


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
    with pytest.raises(ValueError):
        semigroup_apply(uT, 1.0, x)


def test_bisectoriality_guard(grid):
    m = np.zeros((2 * grid.nmodes, 2 * grid.nmodes), dtype=complex)
    m[0, 0] = 1j  # purely imaginary eigenvalue
    m += 1e-12 * np.eye(2 * grid.nmodes)
    op = OperatorMatrix(grid, m)
    with pytest.raises(BisectorialityError):
        matrix_sign(op)


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
