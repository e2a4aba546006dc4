import numpy as np
import pytest

from halfspace.boundary import build_core
from halfspace.coeffs import make_family
from halfspace.grid import GridSpec, l2_norm, riesz_apply
from halfspace.solvers import (
    evaluate,
    evaluate_full_gradient,
    gradient_vcoords,
    residual_check,
    solve_dirichlet_l2,
    solve_energy,
    solve_neumann_l2,
    solve_regularity_l2,
)


@pytest.fixture
def grid():
    return GridSpec(n=1, N=32, L=2 * np.pi)


def cos_datum(grid, m=1):
    return np.cos(m * 2 * np.pi * grid.points()[0] / grid.L).astype(complex)


def test_neumann_poisson_closed_form(grid):
    # A = I, f = cos(x): u(t, x) = -e^{-t} cos(x), conormal gradient
    # (d_t u, d_x u) = (e^{-t} cos x, e^{-t} sin x)... sign convention:
    # the datum is the inward conormal derivative at t = 0.
    A = make_family(grid, "constant")
    f = cos_datum(grid)
    handle = solve_neumann_l2(A, f)
    x = grid.points()[0]
    for t in (0.0, 0.5, 2.0):
        sf = evaluate(handle, [t] if t == 0.0 else [0.0, t])
        g = sf.grad[-1]
        assert np.allclose(g[0], np.exp(-t) * np.cos(x), atol=1e-10)
        assert np.allclose(g[1], np.exp(-t) * np.sin(x), atol=1e-10)


def test_regularity_conormal_sign_convention(grid):
    # A = I maps the boundary potential u0 to the conormal -|xi| u0-hat per
    # mode: the tangential datum sin(x) = d_x(-cos x) pairs with conormal
    # -|1| * (-cos x) = +cos x.
    A = make_family(grid, "constant")
    g = np.sin(grid.points()[0]).astype(complex)[None]
    handle = solve_regularity_l2(A, g)
    sf = evaluate(handle, [0.0, 0.1])
    # boundary tangential gradient reproduces the datum
    assert np.allclose(sf.grad[0, 1], g[0], atol=1e-10)
    assert np.allclose(sf.grad[0, 0], np.cos(grid.points()[0]), atol=1e-10)


def test_dirichlet_trace_and_potential(grid):
    A = make_family(grid, "constant")
    u0 = 2.0 + cos_datum(grid)
    handle = solve_dirichlet_l2(A, u0)
    assert handle.diagnostics["trace_error"] < 1e-10
    sf = evaluate(handle, [0.0, 1.0])
    assert np.allclose(sf.u[0], u0, atol=1e-8)
    x = grid.points()[0]
    assert np.allclose(sf.u[1], 2.0 + np.exp(-1.0) * np.cos(x), atol=1e-8)


def test_dirichlet_square_function_closed_form(grid):
    # u = e^{-t} cos x on the 2 pi torus: int t ||grad u||^2 dt = pi / 2
    A = make_family(grid, "constant")
    handle = solve_dirichlet_l2(A, cos_datum(grid))
    assert np.isclose(handle.diagnostics["square_function"], np.sqrt(np.pi / 2), rtol=1e-6)


def test_triangularity_gate(grid):
    A = make_family(grid, "upper_triangular_random", seed=1)
    f = cos_datum(grid)
    with pytest.raises(ValueError):
        solve_neumann_l2(A, f)
    handle = solve_neumann_l2(A, f, force=True)
    assert handle.diagnostics.get("exploratory") is True
    assert "s12_min_sv" in handle.diagnostics


def test_neumann_requires_mean_zero(grid):
    A = make_family(grid, "constant")
    with pytest.raises(ValueError):
        solve_neumann_l2(A, np.ones(grid.shape, dtype=complex))


def test_regularity_requires_curl_free():
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    A = make_family(grid, "constant")
    x = grid.points()
    g = np.stack([np.sin(x[1]), np.zeros(grid.shape)]).astype(complex)  # curl != 0
    with pytest.raises(ValueError):
        solve_regularity_l2(A, g)


def test_energy_solver_any_accretive(grid):
    A = make_family(grid, "smooth_trig", seed=2)  # general block class
    f = cos_datum(grid) + 0.5 * np.sin(2 * grid.points()[0])
    handle = solve_energy(A, f, problem="neumann")
    d = handle.diagnostics
    assert d["energy_norm"] > 0
    assert 0.1 < d["energy_ratio"] < 10.0
    hd = solve_energy(A, f, problem="dirichlet")
    assert hd.diagnostics["energy_norm"] > 0


def test_residual_decays_second_order(grid):
    A = make_family(grid, "lower_triangular_random", seed=3)
    handle = solve_neumann_l2(A, cos_datum(grid))
    r = []
    for nt in (20, 80):
        ts = np.linspace(0.2, 1.0, nt)
        sf = evaluate(handle, ts)
        r.append(residual_check(sf, A)["residual_max"])
    assert r[1] < r[0] / 8  # centered differences: order 2 => factor 16


def test_full_gradient_matches_conormal_for_identity(grid):
    # for A = I, B = I so grad_{t,x} u == conormal gradient
    A = make_family(grid, "constant")
    handle = solve_neumann_l2(A, cos_datum(grid))
    ts = np.array([0.3, 0.6])
    a = evaluate(handle, ts).grad
    b = evaluate_full_gradient(handle, ts)
    assert b.content == "grad_txu"
    assert np.allclose(a, b.grad, atol=1e-12)


def test_gradient_vcoords_matches_evaluate(grid):
    A = make_family(grid, "block_diagonal_random", seed=4)
    handle = solve_neumann_l2(A, cos_datum(grid))
    from halfspace.grid import vcoords_to_field

    p = gradient_vcoords(handle, 0.4)
    sf = evaluate(handle, [0.4])
    assert np.allclose(vcoords_to_field(grid, p).values, sf.grad[0], atol=1e-12)


def test_handle_is_immutable(grid):
    A = make_family(grid, "constant")
    handle = solve_neumann_l2(A, cos_datum(grid))
    with pytest.raises(Exception):
        handle.trace[0] = 0.0


def test_solves_of_one_field_share_its_core(grid, monkeypatch):
    A = make_family(grid, "block_diagonal_random", seed=5)
    f = cos_datum(grid)
    g = np.sin(grid.points()[0]).astype(complex)[None]
    calls, conds = [], []
    eig, cond = np.linalg.eig, np.linalg.cond
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    monkeypatch.setattr(np.linalg, "cond", lambda a, *p: conds.append(a.shape) or cond(a, *p))
    handles = [solve_neumann_l2(A, f), solve_regularity_l2(A, g),
               solve_energy(A, f), solve_dirichlet_l2(A, f)]
    assert len(calls) == 1
    # the Dirichlet solve borrows uT's eigenbasis for T: one conditioning check
    dim = 2 * grid.nmodes
    assert conds.count((dim, dim)) == 1
    core = build_core(A)
    assert all(h.core is core for h in handles)
    residual_check(evaluate(handles[0], [0.2, 0.3, 0.4]), A)
    evaluate(handles[3], [0.0, 0.2, 0.3])
    assert len(calls) == 1
    assert not hasattr(core, "T")
