import gc
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import halfspace
from halfspace.coeffs import FAMILY_KINDS, hat_transform, make_family
from halfspace.grid import GridSpec, scalar_to_coeffs
from halfspace.operators import (
    OperatorMatrix,
    UnreliableDecompositionError,
    assemble_operators,
    decompose,
    weight_vector,
)
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


def _criterion_9_loop(grid, T, uT, seed):
    # the norms criterion 9 takes of one field: T and uT adapted norms and
    # the semigroup norm, three vectors, every s
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(3):
        p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
        out += [quad_norm_adapted(T, p, s) for s in (0.0, 0.5, 1.0)]
        out += [quad_norm_adapted(uT, p, s) for s in (-1.0, -0.5, 0.0)]
        out += [semigroup_norm(uT, p, s) for s in (-1.0, -0.5)]
    return out


def test_one_field_is_factored_once(monkeypatch):
    # T = S^-1 uT S takes its eigenpairs from uT's: one eig for the field
    grid = GridSpec(n=1, N=16, L=2 * np.pi)
    _, _, T, uT = assemble_operators(hat_transform(make_family(grid, "smooth_trig", seed=4)))
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    _criterion_9_loop(grid, T, uT, 4)
    assert calls == [uT.matrix.shape]


def test_each_table_is_built_once(monkeypatch):
    grid = GridSpec(n=1, N=16, L=2 * np.pi)
    _, _, T, uT = assemble_operators(hat_transform(make_family(grid, "smooth_trig", seed=5)))
    calls = []
    build = PsiSpec.eigenvalue_function
    monkeypatch.setattr(
        PsiSpec, "eigenvalue_function", lambda self, t: calls.append((self.k, t.shape)) or build(self, t)
    )
    _criterion_9_loop(grid, T, uT, 5)
    _criterion_9_loop(grid, T, uT, 6)
    # k = 1 (T at s = 0, 1/2 and uT at every s) and k = 2 (T at s = 1), each
    # on the whole table; T shares uT's
    assert calls == [(1, (1, 200)), (2, (1, 200))]
    p = np.ones(2 * grid.nmodes)
    quad_norm_adapted(uT, p, 0.0, npoints=100)
    quad_norm_adapted(T, p, 0.5, npoints=100)
    assert calls[2:] == [(1, (1, 100))]


@pytest.mark.parametrize("family", FAMILY_KINDS)
def test_T_norms_match_a_fresh_factorization(family):
    # T's norms through uT's decomposition and S against T factored by its
    # own eig
    grid = GridSpec(n=1, N=32, L=2 * np.pi)
    _, _, T, _ = assemble_operators(hat_transform(make_family(grid, family, seed=6)))
    fresh = OperatorMatrix(grid, T.matrix)
    rng = np.random.default_rng(6)
    for _ in range(2):
        p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
        for s in (-1.0, -0.5, 0.0, 0.5, 1.0):
            ref = quad_norm_adapted(fresh, p, s)
            assert abs(quad_norm_adapted(T, p, s) - ref) <= 1e-12 * ref, s
    assert "_decomposition" not in T.__dict__ and "_decomposition" in fresh.__dict__


def test_tables_are_freed_with_the_operators():
    grid = GridSpec(n=1, N=16, L=2 * np.pi)
    _, _, T, uT = assemble_operators(hat_transform(make_family(grid, "smooth_trig", seed=7)))
    _criterion_9_loop(grid, T, uT, 7)
    # the tables live only on uT's decomposition
    tables = decompose(uT).tables
    assert len(tables) == 3 and "_decomposition" not in T.__dict__
    refs = [weakref.ref(T), weakref.ref(uT), weakref.ref(decompose(uT))]
    refs += [weakref.ref(a) for table in tables.values() for a in table]
    del T, uT, tables
    gc.collect()
    assert all(r() is None for r in refs)


@pytest.mark.parametrize("norm", ["adapted", "semigroup"])
def test_norms_refuse_an_unreliable_eigenbasis(grid, norm):
    # a 2 x 2 Jordan block: eig returns two parallel eigenvectors
    m = np.diag(np.arange(1.0, 2 * grid.nmodes + 1))
    m[1, 1], m[0, 1] = 1.0, 1.0
    op = OperatorMatrix(grid, m)
    assert not decompose(op).reliable
    p = np.ones(2 * grid.nmodes)
    with pytest.raises(UnreliableDecompositionError):
        if norm == "adapted":
            quad_norm_adapted(op, p, 0.0)
        else:
            semigroup_norm(op, p, -0.5)
