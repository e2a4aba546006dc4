import numpy as np
import pytest

from halfspace.boundary import build_core, gamma_nd
from halfspace.coeffs import make_family, mgamma_perturb, stream_gamma
from halfspace.grid import GridSpec, l2_norm
from halfspace.oracle import (
    OracleSolution,
    StripMesh,
    coercivity_check,
    energy_solve_neumann,
    energy_solve_regularity,
    extract_conormal,
    gamma_nd_comparison,
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
