import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

import halfspace
from halfspace.boundary import build_core, gamma_nd
from halfspace.coeffs import FAMILY_KINDS, make_family, mgamma_perturb, stream_gamma
from halfspace.errors import NumericalError
from halfspace.grid import GridSpec, coeffs_to_scalar, l2_norm, scalar_to_coeffs
from halfspace.oracle import (
    OracleSolution,
    SingularFormError,
    StripMesh,
    _boundary_weak,
    _grading_ratio,
    _apply_form,
    _form_factors,
    _form_norm1,
    _gauss01,
    _shift_samples,
    _x_cells,
    coercivity_check,
    energy_solve_neumann,
    energy_solve_regularity,
    extract_conormal,
    gamma_nd_comparison,
    gamma_nd_variational,
    strip_gradient_error,
    uniqueness_probe,
)
from halfspace.solvers import solve_energy, solve_neumann_l2


@pytest.fixture
def grid():
    return GridSpec(n=1, N=32, L=2 * np.pi)


def test_mesh_construction(grid):
    mesh = StripMesh.graded(grid, 64)
    assert mesh.M == 64
    assert mesh.t_nodes[0] == 0.0
    assert np.isclose(mesh.T_max, 8 * grid.L)
    assert mesh.t_nodes[1] <= grid.h / 2  # graded: fine first cell
    with pytest.raises(ValueError):
        StripMesh(grid, np.array([0.1, 0.2, 0.3]))  # must start at 0


@pytest.mark.parametrize("N,M", [(8, 12), (32, 64), (64, 256)])
def test_graded_mesh_ratio_solves_the_length_equation(N, M):
    grid = GridSpec(n=1, N=N, L=2 * np.pi)
    T, d0 = 8 * grid.L, grid.h / 4
    r = _grading_ratio(d0, M, T)
    assert abs(d0 * (r**M - 1) / (r - 1) - T) <= 1e-12 * T
    mesh = StripMesh.graded(grid, M)
    assert mesh.t_nodes[-1] == T
    assert np.isclose(mesh.t_nodes[1], d0, rtol=1e-15)


def test_neumann_solve_imports_no_sparse_matrices():
    src = str(Path(halfspace.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np, halfspace\n"
        "from halfspace.coeffs import make_family\n"
        "from halfspace.oracle import StripMesh, energy_solve_neumann\n"
        "grid = halfspace.GridSpec(n=1, N=16, L=2 * np.pi)\n"
        "ell = np.cos(grid.points()[0]).astype(complex)\n"
        "energy_solve_neumann(make_family(grid, 'smooth_trig'), ell, StripMesh.graded(grid, 16))\n"
        "assert 'scipy.sparse' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_graded_mesh_imports_no_root_finder():
    src = str(Path(halfspace.__file__).resolve().parents[1])
    code = (
        "import sys, numpy as np, halfspace\n"
        "from halfspace.oracle import StripMesh\n"
        "StripMesh.graded(halfspace.GridSpec(n=1, N=32, L=2 * np.pi), 64)\n"
        "assert 'scipy.optimize' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


# The per-dimension x-cell integrals that the tensor-product shape tables
# replaced: one einsum per coefficient entry, written out for n = 1 and n = 2.
def _x_cells_per_dimension(samples, grid, ngauss):
    N, h = grid.N, grid.h
    sg, wg = _gauss01(ngauss)
    U = [np.stack([1.0 - sg, sg]), np.stack([-np.ones_like(sg), np.ones_like(sg)]) / h]
    if grid.n == 1:
        A_g = np.stack([_shift_samples(grid, samples, (s * h,)) for s in sg])
        X = np.empty((2, 2, N, 2, 2), dtype=complex)
        for p in range(2):
            for q in range(2):
                X[p, q] = np.einsum(
                    "g,gj,ag,bg->jab", h * wg, A_g[:, :, p, q], U[int(p == 1)], U[int(q == 1)]
                )
        return X
    A_g = np.stack([_shift_samples(grid, samples, (s1 * h, s2 * h)) for s1 in sg for s2 in sg])
    A_g = A_g.reshape((ngauss, ngauss, N, N, 3, 3))
    X = np.empty((3, 3, N, N, 2, 2, 2, 2), dtype=complex)  # [p,q,j1,j2,a1,a2,b1,b2]
    for p in range(3):
        for q in range(3):
            X[p, q] = np.einsum(
                "g,f,gfjk,ag,cf,bg,df->jkacbd", h * wg, h * wg, A_g[:, :, :, :, p, q],
                U[int(p == 1)], U[int(p == 2)], U[int(q == 1)], U[int(q == 2)],
            )
    return X.reshape((3, 3, N * N, 4, 4))


@pytest.mark.parametrize("ngauss", [2, 4])
@pytest.mark.parametrize("n,N", [(1, 64), (2, 8), (2, 16)])
def test_x_cells_match_per_dimension_einsums(n, N, ngauss):
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    A = make_family(grid, "piecewise_random", seed=5)
    X, xnode = _x_cells(A.samples, grid, ngauss)
    ref = _x_cells_per_dimension(A.samples, grid, ngauss)
    assert np.max(np.abs(X - ref)) <= 1e-14 * np.max(np.abs(ref))
    shifted = (np.arange(N)[:, None] + np.arange(2)) % N  # x-vertex a of cell j, per axis
    if n == 2:
        shifted = (shifted[:, None, :, None] * N + shifted[None, :, None, :]).reshape(N * N, 4)
    assert np.array_equal(xnode, shifted)


# The per-cell route that the Kronecker assembly replaced: a 6-D element
# tensor K[i, j, at, a, bt, b] over t-cell i and x-cell j (at, bt the lower or
# upper t-vertex, a, b the x-vertices of the row and column shapes), built by
# one einsum per coefficient entry and scattered entry by entry.
def _element_scatter_form(samples, grid, t_nodes, ngauss):
    X, xnode = _x_cells(samples, grid, ngauss)
    dts = np.diff(t_nodes)
    M, (npts, nv) = len(dts), xnode.shape
    Ktt = np.array([np.array([[1.0, -1.0], [-1.0, 1.0]]) / dt for dt in dts])
    Mtt = np.array([np.array([[1 / 3, 1 / 6], [1 / 6, 1 / 3]]) * dt for dt in dts])
    Qdt = np.broadcast_to(np.array([[-0.5, -0.5], [0.5, 0.5]]), (M, 2, 2))  # int s_b s'_a
    K = np.zeros((M, npts, 2, nv, 2, nv), dtype=complex)
    for p in range(1 + grid.n):
        for q in range(1 + grid.n):
            if p == 0 and q == 0:
                Tfac = Ktt
            elif p == 0:
                Tfac = Qdt  # test t-derivative, trial x-derivative
            elif q == 0:
                Tfac = np.swapaxes(Qdt, 1, 2)
            else:
                Tfac = Mtt
            K += np.einsum("iab,jcd->ijacbd", Tfac, X[p, q])
    i = np.arange(M).reshape(-1, 1, 1, 1, 1, 1)
    t = np.arange(2)
    rows = (i + t.reshape(1, 1, 2, 1, 1, 1)) * npts + xnode.reshape(1, npts, 1, nv, 1, 1)
    cols = (i + t.reshape(1, 1, 1, 1, 2, 1)) * npts + xnode.reshape(1, npts, 1, 1, 1, nv)
    size = (M + 1) * npts
    return sp.coo_matrix(
        (K.ravel(), (np.broadcast_to(rows, K.shape).ravel(), np.broadcast_to(cols, K.shape).ravel())),
        shape=(size, size),
    ).tocsr()


# The global form as CSR, sum_k sp.kron(T_k, X_k) from the factors the
# oracle works with; the referee for its factored G u and ||G||_1.
def _kron_csr(samples, grid, t_nodes, ngauss=2):
    (diag, upper, lower), X = _form_factors(samples, grid, t_nodes, ngauss)
    return sum(
        sp.kron(sp.diags((lower[k], diag[k], upper[k]), (-1, 0, 1)), sp.csr_matrix(X[k]), format="csr")
        for k in range(4)
    )


# The level sweep against a general sparse LU of the same free form.
REFEREE_MESHES = [(1, 32, 96), (2, 8, 16)]


@pytest.mark.parametrize("ngauss", [2, 4])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n,N,M", REFEREE_MESHES)
def test_kronecker_form_matches_element_scatter(n, N, M, kind, ngauss):
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    A = make_family(grid, kind, seed=3)
    mesh = StripMesh.graded(grid, M)
    ref = _element_scatter_form(A.samples, grid, mesh.t_nodes, ngauss)
    got = _kron_csr(A.samples, grid, mesh.t_nodes, ngauss)
    assert got.nnz == ref.nnz
    assert abs(got - ref).max() <= 1e-14 * abs(ref).max()


@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n,N,M", REFEREE_MESHES)
def test_factored_product_and_norm_match_csr(n, N, M, kind):
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    A = make_family(grid, kind, seed=3)
    mesh = StripMesh.graded(grid, M)
    T, X = _form_factors(A.samples, grid, mesh.t_nodes, 2)
    G = _kron_csr(A.samples, grid, mesh.t_nodes)
    rng = np.random.default_rng(N)
    U = rng.standard_normal((mesh.n_tlevels, grid.npoints)) + 1j * rng.standard_normal(
        (mesh.n_tlevels, grid.npoints)
    )
    ref = G @ U.ravel()
    assert _rel(_apply_form(T, X, U).ravel(), ref) <= 1e-14
    norm1 = abs(G).sum(axis=0).max()
    assert abs(_form_norm1(T, X) - norm1) <= 1e-14 * norm1


def _referee_case(n, N, M, kind, seed):
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    A = make_family(grid, kind, seed=seed)
    mesh = StripMesh.graded(grid, M)
    G = _kron_csr(A.samples, grid, mesh.t_nodes)
    return grid, A, mesh, G, np.random.default_rng(100 * seed + N)


def _rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _assert_sweep_matches_sparse_lu(grid, A, mesh, G, rng):
    npts = grid.npoints
    nfree = mesh.M * npts

    # Neumann: data on the boundary level, all levels but the top free
    ell = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    ell -= ell.mean()
    rhs = np.zeros(nfree, dtype=complex)
    rhs[:npts] = _boundary_weak(grid, ell, 2).ravel()
    ref = splu(G[:nfree, :nfree].tocsc()).solve(rhs)
    got = energy_solve_neumann(A, ell, mesh).values.ravel()
    assert _rel(got[:nfree], ref) <= 1e-11
    assert np.all(got[nfree:] == 0)

    # regularity: a random lifting puts data on every interior level
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    lift = np.zeros((mesh.n_tlevels,) + grid.shape, dtype=complex)
    lift[0] = f
    lift[1:-1] = rng.standard_normal((mesh.M - 1,) + grid.shape)
    w = lift.ravel()
    interior = slice(npts, nfree)
    ref = w.copy()
    ref[interior] += splu(G[interior, interior].tocsc()).solve(-(G @ w)[interior])
    got = energy_solve_regularity(A, f, mesh, lifting=lift).values.ravel()
    assert _rel(got, ref) <= 1e-11

    # Neumann-to-Dirichlet map, one sparse solve per unit mode
    lu = splu(G[:nfree, :nfree].tocsc())
    K = grid.nmodes
    ref = np.empty((K, K), dtype=complex)
    for k in range(K):
        datum = coeffs_to_scalar(grid, np.eye(K)[:, k])
        rhs[:npts] = -_boundary_weak(grid, datum, 2).ravel()
        u0 = lu.solve(rhs)[:npts].reshape(grid.shape)
        ref[:, k] = -grid.mode_magnitudes() * scalar_to_coeffs(grid, u0)
    assert _rel(gamma_nd_variational(A, mesh), ref) <= 1e-11


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", FAMILY_KINDS)
@pytest.mark.parametrize("n,N,M", REFEREE_MESHES)
def test_level_sweep_matches_sparse_lu(n, N, M, kind, seed):
    _assert_sweep_matches_sparse_lu(*_referee_case(n, N, M, kind, seed))


# M = 2: the regularity solve has one free level (no elimination step) and
# the Neumann solve and the Neumann-to-Dirichlet map two
@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_level_sweep_on_two_cells(n, N):
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    A = make_family(grid, "lower_triangular_random", seed=2)
    mesh = StripMesh.uniform(grid, 2, T_max=2.0)
    G = _kron_csr(A.samples, grid, mesh.t_nodes)
    _assert_sweep_matches_sparse_lu(grid, A, mesh, G, np.random.default_rng(N))

    zero = SimpleNamespace(grid=grid, samples=np.zeros(grid.shape + (1 + n, 1 + n), dtype=complex))
    ell = np.cos(grid.points()[0]).astype(complex)
    for solve in (
        lambda: energy_solve_neumann(zero, ell, mesh),
        lambda: energy_solve_regularity(zero, ell, mesh),
        lambda: gamma_nd_variational(zero, mesh),
    ):
        with pytest.raises(SingularFormError):
            solve()


def test_singular_form_is_a_numerical_error(grid):
    # a zero form has a zero pivot on the top free level
    mesh = StripMesh.graded(grid, 16)
    zero = SimpleNamespace(grid=grid, samples=np.zeros(grid.shape + (2, 2), dtype=complex))
    ell = np.cos(grid.points()[0]).astype(complex)
    for solve in (
        lambda: energy_solve_neumann(zero, ell, mesh),
        lambda: energy_solve_regularity(zero, ell, mesh),
        lambda: gamma_nd_variational(zero, mesh),
    ):
        with pytest.raises(SingularFormError) as exc:
            solve()
        assert isinstance(exc.value, NumericalError)
    # a solution that fails the backward error check is refused the same way
    bad = SimpleNamespace(grid=grid, samples=make_family(grid, "constant").samples.copy())
    bad.samples[0, 0, 0] = np.nan
    with pytest.raises(SingularFormError):
        energy_solve_neumann(bad, ell, mesh)


def test_neumann_poisson_discretization_error(grid):
    # A = I, conormal datum cos(x): u(t,x) = -e^{-t} cos(x) + const has
    # variational datum ell = -f for the conormal f.
    A = make_family(grid, "constant")
    x = grid.points()[0]
    f = np.cos(x).astype(complex)
    mesh = StripMesh.graded(grid, 96)
    sol = energy_solve_neumann(A, -f, mesh)
    u = sol.values - np.mean(sol.values[0])
    exact0 = -np.cos(x)
    err = l2_norm(grid, u[0] - exact0) / l2_norm(grid, exact0)
    assert err < 5e-3


def test_conormal_round_trip(grid):
    A = make_family(grid, "lower_triangular_random", seed=1)
    x = grid.points()[0]
    ell = (np.cos(x) + 0.3 * np.sin(2 * x)).astype(complex)
    mesh = StripMesh.graded(grid, 64)
    sol = energy_solve_neumann(A, ell, mesh)
    back = extract_conormal(sol)
    assert np.max(np.abs(back - ell)) < 1e-10


def test_regularity_solve_lifting_independence(grid):
    A = make_family(grid, "upper_triangular_random", seed=2)
    x = grid.points()[0]
    f = np.cos(x).astype(complex)
    mesh = StripMesh.graded(grid, 48)
    s1 = energy_solve_regularity(A, f, mesh)
    rng = np.random.default_rng(3)
    lift = np.zeros((mesh.n_tlevels,) + grid.shape, dtype=complex)
    lift[0] = f
    lift[1 : mesh.M // 2] = 0.1 * rng.standard_normal((mesh.M // 2 - 1,) + grid.shape)
    s2 = energy_solve_regularity(A, f, mesh, lifting=lift)
    assert np.max(np.abs(s1.values - s2.values)) < 1e-9


def test_uniqueness_probe_kernel_and_negative_control(grid):
    A = make_family(grid, "smooth_trig", seed=4)
    rep = uniqueness_probe(A, M=10)
    assert rep["kernel_dim"] == 1  # constants only
    assert rep["accretive_ok"]
    assert rep["ok"]
    # negative control: an indefinite matrix must be flagged
    d = 1 + grid.n
    bad = np.broadcast_to(np.diag([1.0, -1.0]), grid.shape + (d, d)).copy()
    rep_bad = uniqueness_probe(bad, grid=grid, M=10)
    assert rep_bad["herm_min"] < 0


def test_coercivity_within_continuity_bounds(grid):
    A = make_family(grid, "lower_triangular_random", seed=5)
    mesh = StripMesh.graded(grid, 12)
    rep = coercivity_check(A, mesh)
    assert A.lamb * 0.5 <= rep["lambda_discrete"] <= A.Lamb * 1.5


def test_gamma_nd_comparison_converges(grid):
    A = make_family(grid, "smooth_trig", seed=0, amplitude=0.3)
    blocks = build_core(A).blocks
    Gs = gamma_nd(blocks, s=-0.5)
    errs = []
    for N, M in ((16, 48), (32, 96)):
        g = GridSpec(n=1, N=N, L=grid.L)
        Ag = make_family(g, "smooth_trig", seed=0, amplitude=0.3)
        bg = build_core(Ag).blocks
        Gg = gamma_nd(bg, s=-0.5)
        mesh = StripMesh.graded(g, M)
        rep = gamma_nd_comparison(Ag, mesh, Gg, band=6.0)
        errs.append(rep["rel_fro_band"])
    assert errs[1] < 0.7 * errs[0]
    assert errs[1] < 5e-2


def test_strip_gradient_error_small_for_energy_solutions(grid):
    A = make_family(grid, "smooth_trig", seed=6, amplitude=0.2)
    x = grid.points()[0]
    f = np.cos(x).astype(complex)
    handle = solve_energy(A, f, problem="neumann")
    mesh = StripMesh.graded(grid, 96)
    sol = energy_solve_neumann(A, -f, mesh)
    err = strip_gradient_error(handle, sol)
    assert err < 0.1


def test_mgamma_invariance_n2():
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    A = make_family(grid, "upper_triangular_random", seed=7)
    x = grid.points()
    psi = np.sin(x[0]) * np.cos(x[1])
    Ap = mgamma_perturb(A, stream_gamma(grid, psi))
    f = np.cos(x[0]).astype(complex)
    mesh = StripMesh.graded(grid, 12)
    s1 = energy_solve_regularity(A, f, mesh, ngauss=4)
    s2 = energy_solve_regularity(Ap, f, mesh, ngauss=4)
    assert np.max(np.abs(s1.values - s2.values)) < 1e-8
    assert abs(A.lamb - Ap.lamb) < 1e-10


def test_oracle_solution_energy_positive(grid):
    A = make_family(grid, "constant")
    x = grid.points()[0]
    mesh = StripMesh.graded(grid, 32)
    sol = energy_solve_neumann(A, -np.cos(x).astype(complex), mesh)
    assert sol.energy() > 0
    assert "energy_ratio" in sol.info
