"""Known answers: a coefficient field pulled back from the Laplacian.

With phi(x) = x + sin(x) / 2, which satisfies phi(x + 2 pi) = phi(x) + 2 pi,
the change of variables (t, x) -> (t, phi(x)) pulls the Laplacian back to
div A grad with the t-independent, block-diagonal A = diag(phi', 1 / phi'),
and the harmonic function exp(-t) exp(i y) back to the exact solution
u = exp(-t) exp(i phi(x)).  Its conormal gradient is
[phi' d_t u; d_x u] = [-phi' u; i phi' u] and its full gradient
[d_t u; d_x u] = [-u; i phi' u].  Every function involved is entire in x,
so the grid values are exact to rounding and every solve must reproduce u.
"""

import numpy as np
import pytest

from halfspace.coeffs import CoefficientField
from halfspace.grid import GridSpec
from halfspace.solvers import (
    evaluate,
    evaluate_full_gradient,
    solve_dirichlet_l2,
    solve_energy,
    solve_neumann_l2,
    solve_regularity_l2,
)

TS = np.array([0.0, 0.1, 0.5, 1.0, 2.0])
TOL = 1e-12


class Pullback:
    def __init__(self, N):
        self.grid = GridSpec(n=1, N=N, L=2 * np.pi)
        x = self.grid.points()[0]
        self.phi = x + 0.5 * np.sin(x)
        self.dphi = 1.0 + 0.5 * np.cos(x)
        samples = np.zeros(self.grid.shape + (2, 2), dtype=complex)
        samples[..., 0, 0] = self.dphi
        samples[..., 1, 1] = 1.0 / self.dphi
        self.A = CoefficientField(self.grid, samples)

    def u(self, ts=TS):
        return np.exp(-np.asarray(ts))[:, None] * np.exp(1j * self.phi)[None]

    def conormal(self, ts=TS):
        u = self.u(ts)
        return np.stack([-self.dphi * u, 1j * self.dphi * u], axis=1)

    def full_gradient(self, ts=TS):
        u = self.u(ts)
        return np.stack([-u, 1j * self.dphi * u], axis=1)


@pytest.fixture(params=[32, 64], ids=["N32", "N64"])
def pb(request):
    return Pullback(request.param)


def _err(a, b):
    return float(np.max(np.abs(a - b)))


def test_field_is_block_diagonal(pb):
    assert pb.A.block_class == "block_diagonal"


def test_neumann(pb):
    h = solve_neumann_l2(pb.A, pb.conormal([0.0])[0, 0])
    assert _err(evaluate(h, TS).grad, pb.conormal()) <= TOL


def test_regularity(pb):
    h = solve_regularity_l2(pb.A, pb.conormal([0.0])[0, 1:])
    assert _err(evaluate(h, TS).grad, pb.conormal()) <= TOL


def test_dirichlet_gradient_and_potential(pb):
    # the x-mean of u moves with t: -0.2423 e^-t, J_-1(1/2) e^-t
    h = solve_dirichlet_l2(pb.A, pb.u([0.0])[0])
    sf = evaluate(h, TS)
    assert _err(sf.grad, pb.conormal()) <= TOL
    assert _err(sf.u, pb.u()) <= TOL


@pytest.mark.parametrize("problem", ["neumann", "dirichlet"])
def test_energy(pb, problem):
    if problem == "neumann":
        datum = pb.conormal([0.0])[0, 0]
    else:
        u0 = pb.u([0.0])[0]
        datum = u0 - np.mean(u0)  # the energy datum is mean-zero
    h = solve_energy(pb.A, datum, problem)
    assert _err(evaluate(h, TS).grad, pb.conormal()) <= TOL


@pytest.mark.parametrize("solve", ["neumann", "dirichlet"])
def test_full_gradient(pb, solve):
    if solve == "neumann":
        h = solve_neumann_l2(pb.A, pb.conormal([0.0])[0, 0])
    else:
        h = solve_dirichlet_l2(pb.A, pb.u([0.0])[0])
    sf = evaluate_full_gradient(h, TS)
    assert sf.content == "grad_txu"
    assert _err(sf.grad, pb.full_gradient()) <= TOL
