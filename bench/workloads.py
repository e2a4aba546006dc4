"""Workload definitions: the inputs each benchmark run feeds the program.

Pure Python (no numpy), so the parent process that schedules runs stays
light.  A workload is a list of parts; a part is either one invocation of
the public CLI entry ``halfspace.cli.main`` or one library-level routine run
by ``child.py``.  Every input is derived from the input seed, which is the
benchmark seed reduced modulo ``SEED_POOL`` so that a committed reference
output exists for every seed the benchmark can be given.
"""

from __future__ import annotations

import random

SEED_POOL = 16

# Families whose fields the strip-norms quadratic-norm part evaluates: the
# ones ``halfspace norms`` draws from, two members each, as in criterion 9.
QUAD_FAMILIES = ("constant", "lower_triangular_random",
                 "block_diagonal_random", "smooth_trig")
QUAD_N = 32
QUAD_VECTORS = 3

# workload name -> why it is in the benchmark
WORKLOADS = {
    "gamma-corpus": "rellich over six families x N in {32,64,128}: dense sign calculus and Gamma maps only",
    "strip-norms": "norms, three solves and quadratic norms: eigenvector applies in per-t loops, not the sign matrix",
    "oracle-ladder": "convergence ladder: sparse LU and solves of the variational oracle, bypassing the dense calculus",
    "verify-2d": "verify at n=2: 2-D assembly, Newton sign route, key-lemma floors, Kato check and 2-norm SVDs",
}


def input_seed(seed: int) -> int:
    return seed % SEED_POOL


def _datum(rng: random.Random) -> str:
    """A mean-zero trigonometric datum in the CLI expression language."""
    a, b, c = (rng.uniform(0.2, 1.0) for _ in range(3))
    return f"{a:.6f}*cos(x1)+{b:.6f}*sin(2*x1)-{c:.6f}*cos(3*x1)"


def _cli(name: str, kind: str, config: dict, flags: list[str]) -> dict:
    """A CLI part; kind is the subcommand."""
    return {"name": name, "kind": kind, "config": config, "flags": flags}


def plan(workload: str, seed: int) -> list[dict]:
    """Parts of one workload run for the given benchmark seed."""
    s = input_seed(seed)
    common = ["--seed", str(s), "--workers", "1", "--format", "json"]
    if workload == "gamma-corpus":
        return [_cli("rellich", "rellich",
                     {"options": {"per_family": 1, "N_list": [32, 64, 128]}}, common)]
    if workload == "strip-norms":
        rng = random.Random(1000 + s)
        lower = {"kind": "family", "family": "lower_triangular_random", "seed": 100 + s}
        # the energy solve repeats criterion 11's oracle cross-check family
        smooth = {"kind": "family", "family": "smooth_trig", "seed": 200 + s, "amplitude": 0.3}
        solves = [
            ("neumann", lower, {"compare_oracle": True}),
            ("dirichlet", lower, {}),
            ("energy", smooth, {"compare_oracle": True, "oracle_M": 256}),
        ]
        parts = [_cli("norms", "norms", {"options": {"per_family": 1}},
                      common + ["--grid", "32"])]
        for problem, coeffs, extra in solves:
            opts = {"problem": problem, "datum": _datum(rng), "coefficients": coeffs, **extra}
            parts.append(_cli(f"solve-{problem}", "solve",
                              {"options": opts}, common + ["--grid", "64"]))
        parts.append({"name": "quadnorms", "kind": "quadnorms", "seed": s})
        return parts
    if workload == "oracle-ladder":
        return [_cli("convergence", "convergence",
                     {"options": {"ladder": [[16, 64], [32, 128], [64, 256]]}}, common)]
    if workload == "verify-2d":
        return [_cli("verify", "verify",
                     {"n": 2, "options": {"per_family": 2}}, common + ["--grid", "8"])]
    raise ValueError(f"unknown workload {workload!r}")
