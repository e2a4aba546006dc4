import numpy as np
import pytest

from halfspace.coeffs import make_family
from halfspace.grid import GridSpec
from halfspace.solvers import StripField, evaluate, solve_dirichlet_l2, solve_neumann_l2, evaluate_full_gradient
from halfspace.stripnorms import (
    WhitneyParams,
    _window_sum,
    default_t_grid,
    energy_norm,
    nontangential_norm,
    square_function_norm,
)


@pytest.fixture
def grid():
    return GridSpec(n=1, N=32, L=2 * np.pi)


def neumann_strip(grid, m=1):
    A = make_family(grid, "constant")
    f = np.cos(m * grid.points()[0]).astype(complex)
    handle = solve_neumann_l2(A, f)
    return handle, evaluate(handle, default_t_grid(grid))


def _rolled_window_sum(P, grid, radius_cells):
    out = P
    for ax in range(1, 1 + grid.n):
        acc = out.copy()
        for shift in range(1, radius_cells + 1):
            acc = acc + np.roll(out, shift, axis=ax) + np.roll(out, -shift, axis=ax)
        out = acc
    return out


@pytest.mark.parametrize("n, N", [(1, 32), (2, 16)])
def test_window_sum_matches_rolled_sum(n, N):
    # the prefix-sum differences against the sum of 2R + 1 rolled copies
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    P = np.random.default_rng(n).random((3,) + grid.shape)
    for radius in range(N // 2):
        ref = _rolled_window_sum(P, grid, radius)
        got = _window_sum(P, grid, radius)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), radius


def test_whitney_params_validation():
    with pytest.raises(ValueError):
        WhitneyParams(c0=1.0)
    with pytest.raises(ValueError):
        WhitneyParams(c1=0.0)


def test_default_t_grid_span(grid):
    ts = default_t_grid(grid)
    assert ts[-1] / ts[0] >= 1e4
    assert np.all(np.diff(ts) > 0)


def test_square_function_closed_form(grid):
    # gradient of u = e^{-t} cos(x) on the 2 pi torus: int t ||grad||^2 = pi/2
    A = make_family(grid, "constant")
    handle = solve_dirichlet_l2(A, np.cos(grid.points()[0]).astype(complex))
    sf = evaluate_full_gradient(handle, default_t_grid(grid))
    assert np.isclose(square_function_norm(sf), np.sqrt(np.pi / 2), rtol=1e-5)


def test_energy_norm_closed_form(grid):
    # ||e^{-t uT} H0||^2 = e^{-2t} ||H0||^2 for a single mode at |xi| = 1
    handle, sf = neumann_strip(grid, m=1)
    expected = np.linalg.norm(handle.trace) / np.sqrt(2.0)
    assert np.isclose(energy_norm(sf), expected, rtol=1e-5)


def test_nontangential_norm_comparable_to_trace(grid):
    handle, sf = neumann_strip(grid)
    nt = nontangential_norm(sf)
    ratio = np.linalg.norm(handle.trace) / nt
    assert 0.2 < ratio < 2.0


def test_nontangential_homogeneity(grid):
    # doubling the field doubles the norm exactly
    handle, sf = neumann_strip(grid)
    doubled = StripField(grid, sf.t_grid, "grad", grad=2.0 * sf.grad)
    assert np.isclose(nontangential_norm(doubled), 2 * nontangential_norm(sf), rtol=1e-12)


def test_nontangential_aperture_monotone(grid):
    # widening the Whitney regions cannot decrease the maximal function
    _, sf = neumann_strip(grid)
    narrow = nontangential_norm(sf, WhitneyParams(c0=2.0, c1=0.5))
    wide = nontangential_norm(sf, WhitneyParams(c0=4.0, c1=2.0))
    assert wide >= narrow * 0.99


def test_thin_coverage_rejected(grid):
    A = make_family(grid, "constant")
    handle = solve_neumann_l2(A, np.cos(grid.points()[0]).astype(complex))
    thin = evaluate(handle, np.geomspace(0.1, 1.0, 10))
    with pytest.raises(ValueError):
        square_function_norm(thin)
    with pytest.raises(ValueError):
        nontangential_norm(thin)


def test_norms_stable_under_grid_doubling():
    vals = {}
    for N in (32, 64):
        g = GridSpec(n=1, N=N, L=2 * np.pi)
        A = make_family(g, "constant")
        f = np.cos(g.points()[0]).astype(complex)
        handle = solve_neumann_l2(A, f)
        sf = evaluate(handle, default_t_grid(g))
        vals[N] = np.linalg.norm(handle.trace) / nontangential_norm(sf)
    assert abs(vals[64] - vals[32]) / vals[32] < 0.2
