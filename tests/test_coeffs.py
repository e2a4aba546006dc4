import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfspace.coeffs import (
    CoefficientField,
    FAMILY_KINDS,
    NonAccretiveError,
    accretivity_bound,
    hat_transform,
    make_family,
    mgamma_perturb,
    stream_gamma,
)
from halfspace.grid import GridSpec


@pytest.fixture
def grid():
    return GridSpec(n=1, N=16, L=2 * np.pi)


def test_non_accretive_rejected(grid):
    d = 1 + grid.n
    samples = np.broadcast_to(-np.eye(d), grid.shape + (d, d)).copy()
    with pytest.raises(NonAccretiveError):
        CoefficientField(grid, samples)


def test_accretivity_bound_constant(grid):
    A = make_family(grid, "constant")
    assert np.isclose(accretivity_bound(A), 1.0)
    assert A.block_class == "block_diagonal"


@pytest.mark.parametrize("kind", FAMILY_KINDS)
def test_families_meet_their_window(grid, kind):
    A = make_family(grid, kind, seed=11)
    assert A.lamb >= 0.5 - 1e-9 or kind in ("constant", "smooth_trig")
    assert A.lamb > 0
    assert np.all(np.isfinite(A.samples))


def test_family_block_classes(grid):
    assert make_family(grid, "lower_triangular_random", seed=1).block_class == "lower_triangular"
    assert make_family(grid, "upper_triangular_random", seed=1).block_class == "upper_triangular"
    assert make_family(grid, "block_diagonal_random", seed=1).block_class == "block_diagonal"


def test_families_are_deterministic(grid):
    A1 = make_family(grid, "piecewise_random", seed=9)
    A2 = make_family(grid, "piecewise_random", seed=9)
    assert np.array_equal(A1.samples, A2.samples)
    A3 = make_family(grid, "piecewise_random", seed=10)
    assert not np.array_equal(A1.samples, A3.samples)


@pytest.mark.parametrize("blocks", [0, 17, 2.0, True])
def test_piecewise_blocks_from_one_to_N(grid, blocks):
    with pytest.raises(ValueError, match="'blocks'"):
        make_family(grid, "piecewise_random", seed=9, blocks=blocks)
    A = make_family(grid, "piecewise_random", seed=9, blocks=grid.N)
    assert len(np.unique(A.samples[:, 0, 0])) == grid.N


def test_hat_involution_smooth(grid):
    A = make_family(grid, "smooth_trig", seed=3)
    B = hat_transform(A)
    back = hat_transform(B)
    assert np.max(np.abs(back.samples - A.samples)) < 1e-12


def test_hat_preserves_block_class(grid):
    for kind in ("lower_triangular_random", "upper_triangular_random", "block_diagonal_random"):
        A = make_family(grid, kind, seed=4)
        assert hat_transform(A).block_class == A.block_class


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_hat_involution_property(seed):
    grid = GridSpec(n=1, N=8, L=2 * np.pi)
    rng = np.random.default_rng(seed)
    d = 1 + grid.n
    P = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    herm = 0.5 * (P + P.conj().T)
    shift = 0.4 - min(float(np.min(np.linalg.eigvalsh(herm))), 0.0)
    A = make_family(grid, "constant", base=shift * np.eye(d) + P, lamb_floor=0.3)
    back = hat_transform(hat_transform(A))
    assert np.max(np.abs(back.samples - A.samples)) < 1e-12


def test_mgamma_requires_divergence_free():
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    A = make_family(grid, "constant")
    x = grid.points()
    bad = np.stack([np.cos(x[0]), np.zeros(grid.shape)])  # div != 0
    with pytest.raises(ValueError):
        mgamma_perturb(A, bad)


def test_mgamma_stream_function_preserves_accretivity():
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    A = make_family(grid, "constant")
    x = grid.points()
    psi = np.sin(x[0]) * np.cos(x[1])
    gamma = stream_gamma(grid, psi)
    Ap = mgamma_perturb(A, gamma)
    # real antisymmetric perturbation: zero Hermitian part
    assert abs(Ap.lamb - A.lamb) < 1e-10
    assert Ap.block_class == "general"


def test_stream_gamma_is_divergence_free():
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    x = grid.points()
    psi = np.cos(2 * x[0]) * np.sin(x[1])
    gamma = stream_gamma(grid, psi)
    from halfspace.grid import fftn

    gh = fftn(grid, gamma)
    div = np.sum(grid.frequencies() * gh, axis=0)
    assert np.max(np.abs(div)) < 1e-10 * np.max(np.abs(gh))
