import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.grid import (
    BoundaryField,
    GridSpec,
    coeffs_to_scalar,
    field_to_vcoords,
    fftn,
    l2_inner,
    l2_norm,
    pi_project,
    remove_mean,
    riesz_adjoint,
    riesz_apply,
    scalar_to_coeffs,
    sobolev_norm,
    v_adjoint,
    v_apply,
    vcoords_to_field,
    vcoords_to_fields,
)


def random_scalar(grid, seed):
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return remove_mean(grid, f)


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_grid_validation(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    assert g.nmodes == N**n - 1
    with pytest.raises(ValueError):
        GridSpec(n=n, N=12, L=2 * np.pi)  # not a power of two
    with pytest.raises(ValueError):
        GridSpec(n=n, N=4, L=2 * np.pi)  # below the minimum
    with pytest.raises(ValueError):
        GridSpec(n=3, N=N, L=2 * np.pi)


def test_l2_norm_matches_parseval():
    g = GridSpec(n=1, N=32, L=2 * np.pi)
    f = random_scalar(g, 0)
    fh = fftn(g, f)
    spectral = np.sqrt(np.sum(np.abs(fh) ** 2) * g.L**g.n) / g.N**g.n
    assert np.isclose(l2_norm(g, f), spectral, rtol=1e-12)


def test_unit_mode_has_unit_l2_norm():
    g = GridSpec(n=1, N=32, L=2 * np.pi)
    x = g.points()[0]
    f = np.exp(1j * 3 * x) / np.sqrt(g.L)
    assert np.isclose(l2_norm(g, f), 1.0, rtol=1e-12)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_scalar_coeffs_round_trip_is_isometric(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    f = random_scalar(g, 1)
    c = scalar_to_coeffs(g, f)
    assert np.isclose(np.linalg.norm(c), l2_norm(g, f), rtol=1e-12)
    back = coeffs_to_scalar(g, c)
    assert np.allclose(back, f, atol=1e-12)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_riesz_adjointness(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    f = random_scalar(g, 2)
    h = np.stack([random_scalar(g, 3 + j) for j in range(n)])
    lhs = sum(l2_inner(g, riesz_apply(g, f)[j], h[j]) for j in range(n))
    rhs = l2_inner(g, f, riesz_adjoint(g, h))
    assert np.isclose(lhs, rhs, rtol=1e-10)


def test_riesz_is_isometric_on_mean_zero():
    g = GridSpec(n=2, N=8, L=2 * np.pi)
    f = random_scalar(g, 4)
    Rf = riesz_apply(g, f)
    assert np.isclose(l2_norm(g, Rf), l2_norm(g, f), rtol=1e-12)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_projection_is_idempotent_and_orthogonal(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((1 + n,) + g.shape) + 1j * rng.standard_normal(
        (1 + n,) + g.shape
    )
    F = BoundaryField(g, vals)
    P = pi_project(F)
    P2 = pi_project(P)
    assert np.allclose(P.values, P2.values, atol=1e-12)
    resid = F.values - P.values
    ip = sum(l2_inner(g, P.values[j], resid[j]) for j in range(1 + n))
    assert abs(ip) < 1e-10


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_v_isometry_and_inverse(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    pair = np.stack([random_scalar(g, 6), random_scalar(g, 7)])
    F = v_apply(g, pair)
    nrm2 = sum(l2_norm(g, F.values[j]) ** 2 for j in range(1 + n))
    assert np.isclose(np.sqrt(nrm2), np.sqrt(sum(l2_norm(g, p) ** 2 for p in pair)))
    back = v_adjoint(F)
    assert np.allclose(back, pair, atol=1e-10)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_vcoords_round_trip(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    rng = np.random.default_rng(8)
    p = rng.standard_normal(2 * g.nmodes) + 1j * rng.standard_normal(2 * g.nmodes)
    F = vcoords_to_field(g, p)
    assert np.allclose(field_to_vcoords(F), p, atol=1e-10)
    # Euclidean V-coordinates == L2 norm of the field
    nrm2 = sum(l2_norm(g, F.values[j]) ** 2 for j in range(1 + n))
    assert np.isclose(np.linalg.norm(p), np.sqrt(nrm2), rtol=1e-12)


@pytest.mark.parametrize("n,N", [(1, 32), (2, 8)])
def test_batched_vcoords_match_single_columns(n, N):
    g = GridSpec(n=n, N=N, L=2 * np.pi)
    K = g.nmodes
    rng = np.random.default_rng(9)
    P = rng.standard_normal((2 * K, 5)) + 1j * rng.standard_normal((2 * K, 5))
    P[:, 3] *= 1e-170  # squares underflow: still a valid (tiny) H0 field
    P[:, 4] = 0.0
    F = vcoords_to_fields(g, P)
    assert F.shape == (5, 1 + n) + g.shape
    for j in range(5):
        one = vcoords_to_field(g, P[:, j]).values
        # the unbatched route: two scalar fields through V
        pair = np.stack([coeffs_to_scalar(g, P[:K, j]), coeffs_to_scalar(g, P[K:, j])])
        via_v = v_apply(g, pair).values
        scale = max(np.max(np.abs(via_v)), 1e-300)
        assert np.max(np.abs(F[j] - one)) <= 1e-13 * scale
        assert np.max(np.abs(F[j] - via_v)) <= 1e-13 * scale
    assert not np.any(F[4])


def test_sobolev_norm_single_mode():
    g = GridSpec(n=1, N=32, L=2 * np.pi)
    x = g.points()[0]
    f = np.exp(1j * 4 * x) / np.sqrt(g.L)
    for s in (-0.5, 0.0, 0.5, 1.0):
        assert np.isclose(sobolev_norm(g, f, s), 4.0**s, rtol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    mode=st.integers(min_value=-15, max_value=15).filter(lambda m: m != 0),
)
def test_round_trip_property(seed, mode):
    g = GridSpec(n=1, N=32, L=2 * np.pi)
    rng = np.random.default_rng(seed)
    amp = complex(rng.standard_normal(), rng.standard_normal())
    f = amp * np.exp(1j * mode * g.points()[0])
    back = coeffs_to_scalar(g, scalar_to_coeffs(g, f))
    assert np.allclose(back, f, atol=1e-10 * max(abs(amp), 1.0))
