import dataclasses
import gc
import weakref

import numpy as np
import pytest

from halfspace.boundary import (
    SingularBlockError,
    block_floors,
    build_core,
    floors_above,
    gamma_dn,
    gamma_minus,
    gamma_nd,
    rellich_constant,
    rellich_from_blocks,
    sgn_blocks,
)
from halfspace.coeffs import FAMILY_KINDS, make_family
from halfspace.grid import GridSpec
from halfspace.operators import weighted_norm


@pytest.fixture
def grid():
    return GridSpec(n=1, N=16, L=2 * np.pi)


def blocks_for(grid, kind, seed=0, **kw):
    A = make_family(grid, kind, seed=seed, **kw)
    blocks = build_core(A).blocks
    return A, blocks


def test_identity_closed_form(grid):
    _, blocks = blocks_for(grid, "constant")
    K = grid.nmodes
    eye = np.eye(K)
    # sgn(S) has blocks [[0, I], [I, 0]] per mode, so the maps are identities
    assert np.linalg.norm(blocks.s11, 2) < 1e-12
    assert np.linalg.norm(blocks.s12 - eye, 2) < 1e-12
    assert np.linalg.norm(gamma_nd(blocks) - eye, 2) < 1e-10
    assert np.linalg.norm(gamma_dn(blocks) - eye, 2) < 1e-10
    assert np.linalg.norm(gamma_minus(blocks) + eye, 2) < 1e-10


def test_involution_defect_small(grid):
    _, blocks = blocks_for(grid, "smooth_trig", seed=1)
    assert blocks.involution_defect() < 1e-10


def test_factorization_routes_agree(grid):
    _, blocks = blocks_for(grid, "lower_triangular_random", seed=2)
    K = grid.nmodes
    eye = np.eye(K)
    G1 = np.linalg.solve(blocks.s12, eye - blocks.s11)
    G2 = np.linalg.solve(eye - blocks.s22, blocks.s21)
    assert weighted_norm(grid, G1 - G2, -0.5) < 1e-10 * weighted_norm(grid, G1, -0.5)
    # the library route runs the agreement check internally
    gamma_nd(blocks, s=-0.5, check_agreement=True)


def test_inverse_relation_weighted(grid):
    for kind in ("smooth_trig", "lower_triangular_random", "block_diagonal_random"):
        _, blocks = blocks_for(grid, kind, seed=3)
        G = gamma_nd(blocks, s=-0.5)
        Gi = gamma_dn(blocks, s=-0.5)
        defect = weighted_norm(grid, Gi @ G - np.eye(grid.nmodes), -0.5)
        assert defect < 1e-8, kind


def test_key_lemma_floors(grid):
    _, blocks = blocks_for(grid, "piecewise_random", seed=4)
    assert floors_above(block_floors(blocks))
    assert blocks.involution_defect() < 1e-8


@pytest.mark.parametrize("s", [-0.5, 0.0])
def test_key_lemma_floors_are_block_floors(s):
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    _, blocks = blocks_for(grid, "lower_triangular_random", seed=1)
    floors = block_floors(blocks, s)
    assert all(v > 0 for v in floors.values())


def test_eigen_core_is_kept_on_its_field(grid, monkeypatch):
    A = make_family(grid, "lower_triangular_random", seed=6)
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    core = build_core(A)
    assert build_core(A) is core
    assert len(calls) == 1
    # equal samples, new field: built afresh
    twin = make_family(grid, "lower_triangular_random", seed=6)
    assert np.array_equal(twin.samples, A.samples)
    assert build_core(twin) is not core
    assert len(calls) == 2


def test_newton_core_is_not_kept(grid):
    A = make_family(grid, "lower_triangular_random", seed=6)
    ref = weakref.ref(build_core(A, method="newton"))
    gc.collect()
    assert ref() is None  # freed while A lives


def test_dropped_field_frees_its_core(grid):
    A = make_family(grid, "smooth_trig", seed=10)
    core = build_core(A)
    refs = [weakref.ref(A), weakref.ref(core), weakref.ref(core.uT)]
    del A, core
    gc.collect()
    assert all(r() is None for r in refs)


def test_rellich_identity_coefficients(grid):
    A = make_family(grid, "constant")
    rc = rellich_constant(A)
    assert np.isclose(rc["forward"], 1.0, atol=1e-10)
    assert np.isclose(rc["inverse"], 1.0, atol=1e-10)
    assert rc["block_class"] == "block_diagonal"
    assert rc["N"] == grid.N


def test_rellich_finite_for_triangular(grid):
    for kind in ("lower_triangular_random", "upper_triangular_random"):
        A = make_family(grid, kind, seed=5)
        rc = rellich_constant(A)
        assert np.isfinite(rc["forward"])
        assert np.isfinite(rc["inverse"])


@pytest.mark.parametrize("n, N", [(1, 32), (1, 64), (2, 8)])
def test_rellich_constants_from_one_svd_of_gamma_nd(n, N):
    # sgn^2 = I makes Gamma_DN Gamma_ND = I, so inverse = ||Gamma_DN|| is
    # 1/sigma_min(Gamma_ND) and forward stays ||Gamma_ND||
    grid = GridSpec(n=n, N=N, L=2 * np.pi)
    inf = float("inf")
    for seed, kind in enumerate(FAMILY_KINDS):
        blocks = build_core(make_family(grid, kind, seed=seed), method="newton").blocks
        forward, inverse, G = rellich_from_blocks(blocks)
        assert forward == weighted_norm(grid, gamma_nd(blocks, s=0.0, check_agreement=False), 0.0)
        Gdn = gamma_dn(blocks, s=0.0, check_agreement=False)
        dn = np.linalg.norm(Gdn, 2)
        assert abs(inverse - dn) <= 1e-12 * dn, kind
        # s12 singular: no Gamma_ND, and inverse falls back to ||Gamma_DN||
        no_s12 = dataclasses.replace(blocks, s12=np.zeros_like(blocks.s12))
        assert rellich_from_blocks(no_s12) == (inf, weighted_norm(grid, Gdn, 0.0), None), kind
        # s11 = I makes Gamma_ND = 0, whose inverse is unbounded
        eye = np.eye(grid.nmodes)
        forward, inverse, G = rellich_from_blocks(dataclasses.replace(blocks, s11=eye))
        assert not np.any(G) and forward == 0.0 and inverse == inf, kind


def test_singular_block_error_message(grid):
    _, blocks = blocks_for(grid, "constant")
    # force a singular lhs by zeroing s21
    bad = dataclasses.replace(blocks, s21=np.zeros_like(blocks.s21))
    with pytest.raises(SingularBlockError):
        gamma_dn(bad, check_agreement=False)


def test_sgn_blocks_newton_route(grid):
    A = make_family(grid, "smooth_trig", seed=6)
    from halfspace.coeffs import hat_transform
    from halfspace.operators import assemble_operators

    _, _, _, uT = assemble_operators(hat_transform(A))
    b1 = sgn_blocks(uT, method="eigen")
    b2 = sgn_blocks(uT, method="newton")
    assert np.linalg.norm(b1.reassemble() - b2.reassemble(), 2) < 1e-8
