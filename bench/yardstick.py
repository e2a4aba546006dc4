"""A fixed reference computation that gauges the host's current speed.

The benchmark runs on a few cores of a shared host whose speed drifts by a
quarter and more over minutes; the drift reaches CPU time as well as wall
time.  Timing this computation between repetitions and dividing gives a
repetition's time in units of the host's speed at that time.  The
computation mixes the kinds of work the workloads do: a dense complex
eigendecomposition, a sparse LU factorization with triangular solves, FFTs
and an interpreted Python loop.  It uses none of halfspace, so no change to
the program moves it.

The kernels are bound at import, before a traced repetition wraps numpy and
scipy, so the gauge never appears in a trace.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
from numpy.fft import fft2, ifft2
from numpy.linalg import eig
from scipy.sparse.linalg import splu

ROUNDS = 10


def _inputs():
    rng = np.random.default_rng(20121213)
    dense = rng.standard_normal((80, 80)) + 1j * rng.standard_normal((80, 80))
    n = 48
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    laplacian = (sp.kron(sp.identity(n), line) + sp.kron(line, sp.identity(n))).tocsc()
    rhs = rng.standard_normal(n * n)
    field = rng.standard_normal((128, 128)) + 0j
    return dense, laplacian, rhs, field


def _once(dense, laplacian, rhs, field) -> float:
    t0 = time.perf_counter()
    eig(dense)
    lu = splu(laplacian)
    for _ in range(8):
        lu.solve(rhs)
    for _ in range(8):
        ifft2(fft2(field) * 0.5)
    acc = 0
    for i in range(30000):
        acc += i * i % 7
    return time.perf_counter() - t0


def gauge() -> float:
    """Mean seconds of one round of the reference computation, now.

    The mean, not the median: a repetition's time includes the host's
    stalls, so the gauge must include them in the same proportion."""
    inputs = _inputs()
    _once(*inputs)
    return statistics.mean(_once(*inputs) for _ in range(ROUNDS))
