import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import halfspace
from halfspace.coeffs import hat_transform, make_family
from halfspace.grid import GridSpec, scalar_to_coeffs
from halfspace.operators import OperatorMatrix, assemble_operators, decompose, weight_vector
from halfspace.quadnorms import (
    PsiSpec,
    c_psi,
    default_psi,
    quad_norm_S,
    quad_norm_adapted,
    semigroup_norm,
)


@pytest.fixture
def grid():
    return GridSpec(n=1, N=16, L=2 * np.pi)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5])
def test_c_psi_matches_numerical_integral(k, s):
    # c^2 = int_0^inf t^(-2s) |psi(t)|^2 dt/t for psi(z) = z^k e^{-z}
    val, _ = quad(lambda t: t ** (-2 * s) * (t**k * np.exp(-t)) ** 2 / t, 0, np.inf)
    assert np.isclose(c_psi(PsiSpec(k), s), np.sqrt(val), rtol=1e-10)


def test_import_loads_no_scipy_special():
    # c_psi takes Gamma from the standard library
    src = str(Path(halfspace.__file__).resolve().parents[1])
    code = (
        "import sys, halfspace\n"
        "from halfspace import cli\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_default_psi_order():
    assert default_psi(0.5).k == 1
    assert default_psi(1.0).k == 2


def test_psi_order_constraint():
    with pytest.raises(ValueError):
        c_psi(PsiSpec(1), 1.0)  # needs k > s
    with pytest.raises(ValueError):
        PsiSpec(0)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5])
def test_quad_norm_S_closed_form(grid, s):
    rng = np.random.default_rng(0)
    p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
    w = weight_vector(grid, s)
    expected = c_psi(default_psi(s), s) * np.linalg.norm(w * p)
    assert np.isclose(quad_norm_S(grid, p, s), expected, rtol=1e-12)


@pytest.mark.parametrize("s", [-0.5, 0.0, 0.5])
def test_adapted_norm_matches_closed_form_for_S(grid, s):
    # with op = S the quadrature must reproduce the closed form
    A = make_family(grid, "constant")
    S, _, _, _ = assemble_operators(hat_transform(A))
    rng = np.random.default_rng(1)
    p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
    got = quad_norm_adapted(S, p, s, npoints=1200)
    assert np.isclose(got, quad_norm_S(grid, p, s), rtol=1e-4)


def test_adapted_norm_comparable_for_perturbed_operator(grid):
    A = make_family(grid, "lower_triangular_random", seed=2)
    S, calB, T, uT = assemble_operators(hat_transform(A))
    rng = np.random.default_rng(2)
    p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
    for s in (-0.5, 0.0):
        ratio = quad_norm_adapted(uT, p, s) / quad_norm_S(grid, p, s)
        assert 0.05 < ratio < 20.0


def test_semigroup_norm_single_mode(grid):
    # For A = I and a unit mode at frequency m, exp(-t|S|) acts as e^{-t m},
    # so at s = -1/2 the integral is ||F||^2 int_0^inf e^{-2tm} dt =
    # ||F||^2 / (2m) -- i.e. 1/sqrt(2) times the |xi|^{-1/2}-weighted norm.
    A = make_family(grid, "constant")
    _, _, _, uT = assemble_operators(hat_transform(A))
    m = 3
    f = np.exp(1j * m * grid.points()[0]) / np.sqrt(grid.L)
    fc = scalar_to_coeffs(grid, f)
    p = np.concatenate([fc, fc])
    got = semigroup_norm(uT, p, -0.5, npoints=600)
    assert np.isclose(got, np.linalg.norm(p) / np.sqrt(2.0 * m), rtol=1e-4)
    w = weight_vector(grid, -0.5)
    assert np.isclose(got, np.linalg.norm(w * p) / np.sqrt(2.0), rtol=1e-4)


def test_semigroup_norm_range_check(grid):
    A = make_family(grid, "constant")
    _, _, _, uT = assemble_operators(hat_transform(A))
    with pytest.raises(ValueError):
        semigroup_norm(uT, np.ones(2 * grid.nmodes), 0.0)


def test_zero_vector_norms(grid):
    A = make_family(grid, "constant")
    S, _, _, uT = assemble_operators(hat_transform(A))
    z = np.zeros(2 * grid.nmodes)
    assert quad_norm_S(grid, z, 0.0) == 0.0
    assert quad_norm_adapted(S, z, 0.0) == 0.0
    assert semigroup_norm(uT, z, -0.5) == 0.0


def _semigroup_norm_via_abs(uT, p, s, npoints=200):
    # reference: assemble |uT|, with eigenvalues |lambda| (not sgn(uT) uT,
    # whose eigenvalues are sgn(Re lambda) lambda), factor it itself and
    # apply exp(-t lambda)
    lam, W = np.linalg.eig(uT.matrix)
    dec = decompose(OperatorMatrix(uT.grid, (W * np.abs(lam)) @ np.linalg.inv(W)))
    mags = np.abs(decompose(uT).eigenvalues)
    ts = np.geomspace(1e-4 / mags.max(), 1e4 / mags.min(), npoints)
    coeff = dec.vectors_inv @ p
    vals = [np.linalg.norm(dec.vectors @ (np.exp(-t * dec.eigenvalues) * coeff)) ** 2 for t in ts]
    return float(np.sqrt(np.trapezoid(ts ** (-2 * s) * np.array(vals), np.log(ts))))


def test_semigroup_norm_matches_abs_route():
    grid = GridSpec(n=1, N=32, L=2 * np.pi)
    A = make_family(grid, "lower_triangular_random", seed=3)
    _, _, _, uT = assemble_operators(hat_transform(A))
    rng = np.random.default_rng(3)
    p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
    for s in (-1.0, -0.5, -0.25):
        ref = _semigroup_norm_via_abs(uT, p, s)
        assert abs(semigroup_norm(uT, p, s) - ref) <= 1e-10 * ref, s
