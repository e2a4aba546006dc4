"""Acceptance criteria, one test per criterion.

Each test prints a single `CRITERION k: PASS ...` line with the measured
numbers; the pytest verbose line is the authoritative pass/fail record.
Shared corpora are cached at module scope so the whole file stays well
under the five-minute budget.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from halfspace.boundary import (
    gamma_dn,
    gamma_nd,
    rellich_constant,
    sgn_blocks,
)
from halfspace.coeffs import (
    hat_transform,
    make_family,
    mgamma_perturb,
    stream_gamma,
)
from halfspace.grid import (
    GridSpec,
    l2_norm,
    scalar_to_coeffs,
)
from halfspace.operators import (
    assemble_operators,
    matrix_sign,
    semigroup_apply,
    spectral_projectors,
    weight_vector,
    weighted_norm,
)
from halfspace.oracle import (
    StripMesh,
    energy_solve_neumann,
    energy_solve_regularity,
    gamma_nd_comparison,
    strip_gradient_error,
)
from halfspace.quadnorms import (
    PsiSpec,
    c_psi,
    quad_norm_S,
    quad_norm_adapted,
    semigroup_norm,
)
from halfspace.solvers import (
    evaluate,
    evaluate_full_gradient,
    solve_dirichlet_l2,
    solve_energy,
    solve_neumann_l2,
)
from halfspace.stripnorms import default_t_grid, nontangential_norm, square_function_norm

FAMILIES = (
    "constant",
    "smooth_trig",
    "lower_triangular_random",
    "upper_triangular_random",
    "block_diagonal_random",
    "piecewise_random",
)


def _corpus_members(count):
    """Deterministic (family, seed) schedule cycling through all families."""
    out = []
    for i in range(count):
        out.append((FAMILIES[i % len(FAMILIES)], 1000 + i))
    return out


@pytest.fixture(scope="module")
def corpus64():
    """50-member corpus at N = 64 with assembled operators and sign blocks."""
    grid = GridSpec(n=1, N=64, L=2 * np.pi)
    members = []
    for fam, seed in _corpus_members(50):
        A = make_family(grid, fam, seed=seed)
        S, calB, T, uT = assemble_operators(hat_transform(A))
        sg = matrix_sign(uT)
        members.append(
            {"A": A, "S": S, "calB": calB, "T": T, "uT": uT, "sgn": sg,
             "blocks": sgn_blocks(uT)}
        )
    return grid, members


def test_criterion_01_hat_involution():
    # 1000 seeded random accretive constant-in-x matrices with
    # lambda >= 0.3, Lambda <= 3; involution to 1e-12, block class preserved.
    grid = GridSpec(n=1, N=8, L=2 * np.pi)
    d = 1 + grid.n
    worst = 0.0
    classes_checked = set()
    rng_master = np.random.SeedSequence(20260823)
    for i, child in enumerate(rng_master.spawn(1000)):
        rng = np.random.default_rng(child)
        P = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        P *= rng.uniform(0.3, 1.0) / max(np.linalg.norm(P, 2), 1e-300)
        pattern = i % 4  # general / lower / upper / block-diagonal
        if pattern in (1, 3):
            P[0, 1:] = 0.0
        if pattern in (2, 3):
            P[1:, 0] = 0.0
        herm_min = float(np.min(np.linalg.eigvalsh(0.5 * (P + P.conj().T))))
        shift = 0.3 + rng.uniform(0.05, 0.5) - min(herm_min, 0.0)  # < 1.8
        A = make_family(grid, "constant", base=shift * np.eye(d) + P, lamb_floor=0.3)
        assert A.lamb >= 0.3 - 1e-9 and A.Lamb <= 3.0
        hat_A = hat_transform(A)
        back = hat_transform(hat_A)
        worst = max(worst, float(np.max(np.abs(back.samples - A.samples))))
        assert hat_A.block_class == A.block_class
        assert back.block_class == A.block_class
        classes_checked.add(A.block_class)
    assert worst <= 1e-12
    assert classes_checked == {"general", "lower_triangular", "upper_triangular", "block_diagonal"}
    print(f"CRITERION 1: PASS (1000 matrices, max involution error {worst:.2e}, all four block classes preserved)")


def test_criterion_02_functional_calculus_identities(corpus64):
    grid, members = corpus64
    eye = np.eye(2 * grid.nmodes)
    worst = {"sgn2": 0.0, "psum": 0.0, "pidem": 0.0, "int1": 0.0, "int2": 0.0, "newton": 0.0}
    for m in members:
        S, calB, T, uT, sg = m["S"], m["calB"], m["T"], m["uT"], m["sgn"]
        worst["sgn2"] = max(worst["sgn2"], np.linalg.norm(sg.matrix @ sg.matrix - eye, 2))
        Pp, Pm = spectral_projectors(sg)
        worst["psum"] = max(worst["psum"], np.linalg.norm(Pp.matrix + Pm.matrix - eye, 2))
        worst["pidem"] = max(
            worst["pidem"],
            np.linalg.norm(Pp.matrix @ Pp.matrix - Pp.matrix, 2),
            np.linalg.norm(Pm.matrix @ Pm.matrix - Pm.matrix, 2),
        )
        scale = max(np.linalg.norm(S.matrix, 2) * np.linalg.norm(calB.matrix, 2), 1.0)
        worst["int1"] = max(
            worst["int1"], np.linalg.norm(uT.matrix @ S.matrix - S.matrix @ T.matrix, 2) / scale
        )
        worst["int2"] = max(
            worst["int2"], np.linalg.norm(calB.matrix @ uT.matrix - T.matrix @ calB.matrix, 2) / scale
        )
        sg_n = matrix_sign(uT, method="newton")
        worst["newton"] = max(worst["newton"], np.linalg.norm(sg.matrix - sg_n.matrix, 2))
    for key in ("sgn2", "psum", "pidem", "int1", "int2"):
        assert worst[key] <= 1e-8, (key, worst[key])
    assert worst["newton"] <= 1e-6
    print(
        "CRITERION 2: PASS (50 members at N=64; "
        f"sgn^2 {worst['sgn2']:.1e}, P-sum {worst['psum']:.1e}, P-idem {worst['pidem']:.1e}, "
        f"intertwine {max(worst['int1'], worst['int2']):.1e}, newton-vs-eigen {worst['newton']:.1e})"
    )


def test_criterion_03_closed_form_laplacian():
    grid = GridSpec(n=1, N=64, L=2 * np.pi)
    A = make_family(grid, "constant")
    S, calB, T, uT = assemble_operators(hat_transform(A))
    blocks = sgn_blocks(uT)
    K = grid.nmodes
    eye = np.eye(K)
    # Gamma_ND equals the Riesz-multiplier map: identity in V-coordinates
    e1 = np.linalg.norm(gamma_nd(blocks) - eye, 2)
    assert e1 <= 1e-10
    # both factorizations agree to 1e-10
    G1 = np.linalg.solve(blocks.s12, eye - blocks.s11)
    G2 = np.linalg.solve(eye - blocks.s22, blocks.s21)
    e2 = np.linalg.norm(G1 - G2, 2)
    assert e2 <= 1e-10
    # the physical boundary map sends the conormal mode e^{imx} to the
    # tangential gradient -i sgn(m) e^{imx} (Hilbert-transform multiplier)
    x = grid.points()[0]
    e4 = 0.0
    for m in (1, -3, 7):
        f = np.exp(1j * m * x) / np.sqrt(grid.L)
        handle = solve_neumann_l2(A, f)
        sf = evaluate(handle, [0.0])
        expected = -1j * np.sign(m) * f
        e4 = max(e4, float(np.max(np.abs(sf.grad[0, 1] - expected))))
    assert e4 <= 1e-10
    # semigroup decay e^{-t|m|} per mode to 1e-8
    e3 = 0.0
    # V-coordinate graph vector of the mode: [fc; fc] since Gamma_ND is the
    # identity in V-coordinates for A = I
    for m in (1, 4, -9):
        f = np.exp(1j * m * x) / np.sqrt(grid.L)
        fc = scalar_to_coeffs(grid, f)
        p0 = np.concatenate([fc, fc])
        for t in (0.1, 1.0, 3.0):
            p = semigroup_apply(uT, t, p0)
            e3 = max(e3, float(np.max(np.abs(p - np.exp(-t * abs(m)) * p0))))
    assert e3 <= 1e-8
    print(
        f"CRITERION 3: PASS (Gamma_ND vs multiplier {e1:.1e}, factorizations {e2:.1e}, "
        f"mode decay {e3:.1e}, Hilbert multiplier {e4:.1e})"
    )


def test_criterion_04_inverse_relation(corpus64):
    grid, members = corpus64
    K = grid.nmodes
    eye = np.eye(K)
    worst = 0.0
    for m in members:
        G = gamma_nd(m["blocks"], s=-0.5)
        Gi = gamma_dn(m["blocks"], s=-0.5)
        worst = max(worst, weighted_norm(grid, Gi @ G - eye, -0.5))
    assert worst <= 1e-6
    print(f"CRITERION 4: PASS (50 members, max |Gamma_DN Gamma_ND - I|_(-1/2) = {worst:.1e})")


def test_criterion_05_spectral_oracle_cross_validation():
    # Simultaneous refinement ladder; the convergent metric is the error on
    # the fixed shared mode band |xi| <= 8 (full-matrix errors stagnate at
    # the Nyquist scale for any locally supported element; both are printed).
    ladder = [(16, 64), (32, 128), (64, 256)]
    band = 8.0
    rows = []
    for N, M in ladder:
        grid = GridSpec(n=1, N=N, L=2 * np.pi)
        A = make_family(grid, "smooth_trig", seed=0, amplitude=0.3)
        from halfspace.boundary import build_core

        blocks = build_core(A).blocks
        Gs = gamma_nd(blocks, s=-0.5)
        mesh = StripMesh.graded(grid, M, T_max=8 * grid.L)
        rep = gamma_nd_comparison(A, mesh, Gs, s=-0.5, band=band)
        rows.append(rep)
    errs = [r["rel_fro_band"] for r in rows]
    orders = [np.log2(errs[i - 1] / errs[i]) for i in (1, 2)]
    assert errs[-1] <= 5e-2
    assert min(orders) >= 1.0
    full = ", ".join(f"{r['rel_fro']:.3f}" for r in rows)
    print(
        "CRITERION 5: PASS (band |xi|<=8 errors "
        + " -> ".join(f"{e:.4f}" for e in errs)
        + f", orders {orders[0]:.2f}/{orders[1]:.2f} >= 1; full-matrix errors {full} stagnate at the Nyquist scale)"
    )


def _refined_member(kind, seed, N, base_N=32):
    """One fixed coefficient function across the whole refinement ladder:
    sampled once at base_N and refined by piecewise-constant upsampling, so
    every finer grid resolves the same L-infinity function exactly."""
    from halfspace.coeffs import CoefficientField

    base = make_family(GridSpec(n=1, N=base_N, L=2 * np.pi), kind, seed=seed)
    if N == base_N:
        return base
    rep = np.repeat(base.samples, N // base_N, axis=0)
    return CoefficientField(GridSpec(n=1, N=N, L=2 * np.pi), rep)


def _rellich_drift(kind, count, key_list):
    Ns = (64, 128, 256)
    values = {key: [] for key in key_list}
    max_drift = {key: 0.0 for key in key_list}
    for seed in range(2000, 2000 + count):
        per_N = {key: [] for key in key_list}
        for N in Ns:
            rc = rellich_constant(_refined_member(kind, seed, N))
            for key in key_list:
                per_N[key].append(rc[key])
        for key in key_list:
            vals = per_N[key]
            assert all(np.isfinite(v) for v in vals), (kind, seed, key, vals)
            drift = (max(vals) - min(vals)) / min(vals)
            max_drift[key] = max(max_drift[key], drift)
            values[key].append(vals[-1])
    return values, max_drift


def test_criterion_06_half_rellich():
    # forward bound stable on the lower-triangular corpus, inverse bound on
    # the upper-triangular corpus, both on the block-diagonal (Kato) corpus;
    # the unproved halves are only reported.
    _, drift_lo = _rellich_drift("lower_triangular_random", 30, ["forward", "inverse"])
    _, drift_up = _rellich_drift("upper_triangular_random", 15, ["forward", "inverse"])
    _, drift_bd = _rellich_drift("block_diagonal_random", 15, ["forward", "inverse"])
    assert drift_lo["forward"] <= 0.20
    assert drift_up["inverse"] <= 0.20
    assert drift_bd["forward"] <= 0.20 and drift_bd["inverse"] <= 0.20
    print(
        "CRITERION 6: PASS (30 members x N in {64,128,256}; proven-half drifts: "
        f"lower/forward {drift_lo['forward']:.3f}, upper/inverse {drift_up['inverse']:.3f}, "
        f"block-diagonal both {max(drift_bd['forward'], drift_bd['inverse']):.3f}; "
        f"reported unproved halves: lower/inverse {drift_lo['inverse']:.3f}, "
        f"upper/forward {drift_up['forward']:.3f})"
    )


def test_criterion_07_l2_dirichlet():
    trace_worst = 0.0
    drift_worst = 0.0
    for seed in range(3000, 3010):
        ratios = []
        for N in (32, 64):
            grid = GridSpec(n=1, N=N, L=2 * np.pi)
            A = make_family(grid, "lower_triangular_random", seed=seed)
            rng = np.random.default_rng(seed)
            x = grid.points()[0]
            u0 = sum(
                rng.standard_normal() * np.cos(m * x) + rng.standard_normal() * np.sin(m * x)
                for m in (1, 2, 3)
            ).astype(complex)
            handle = solve_dirichlet_l2(A, u0)
            trace_worst = max(trace_worst, handle.diagnostics["trace_error"])
            sq = handle.diagnostics["square_function"]
            assert np.isfinite(sq) and sq > 0
            ratios.append(sq / l2_norm(grid, u0))
        drift_worst = max(drift_worst, abs(ratios[1] - ratios[0]) / ratios[0])
    assert trace_worst <= 1e-8
    assert drift_worst <= 0.20
    print(
        f"CRITERION 7: PASS (10 members; max trace error {trace_worst:.1e}, "
        f"max square-function ratio drift {drift_worst:.3f})"
    )


def test_criterion_08_quadratic_norm_identity():
    grid = GridSpec(n=1, N=32, L=2 * np.pi)
    rng = np.random.default_rng(8)
    p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
    worst_c = 0.0
    worst_norm = 0.0
    for s in (-0.5, 0.0, 0.5):
        for k in (1, 2):
            psi = PsiSpec(k)
            c = c_psi(psi, s)
            # independent check of the Gamma-function closed form
            val, _ = quad(lambda t: t ** (-2 * s - 1) * (t**k * np.exp(-t)) ** 2, 0, np.inf)
            worst_c = max(worst_c, abs(c - np.sqrt(val)))
            # per-mode norm identity: scale-invariant, so checking the
            # multiplier case verifies ||F||_{S,s} = c ||(|S|^s) F||
            w = weight_vector(grid, s)
            got = quad_norm_S(grid, p, s, psi)
            worst_norm = max(worst_norm, abs(got - c * np.linalg.norm(w * p)) / (c * np.linalg.norm(w * p)))
    assert worst_c <= 1e-8
    assert worst_norm <= 1e-8
    print(
        f"CRITERION 8: PASS (s in {{-1/2,0,1/2}}, k in {{1,2}}; c_psi error {worst_c:.1e}, "
        f"norm identity relative error {worst_norm:.1e})"
    )


def test_criterion_09_adapted_space_equivalences():
    cases = {
        "T_vs_S": {"sets": (0.0, 0.5, 1.0)},
        "uT_vs_S": {"sets": (-1.0, -0.5, 0.0)},
        "semigroup_vs_S": {"sets": (-1.0, -0.5)},
    }
    medians = {key: {} for key in cases}
    bounds = {key: [np.inf, 0.0] for key in cases}
    for N in (16, 32):
        grid = GridSpec(n=1, N=N, L=2 * np.pi)
        samples = {key: [] for key in cases}
        for fam, seed in _corpus_members(6):
            A = make_family(grid, fam, seed=seed)
            S, calB, T, uT = assemble_operators(hat_transform(A))
            rng = np.random.default_rng(seed)
            for _ in range(4):
                p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
                for s in cases["T_vs_S"]["sets"]:
                    samples["T_vs_S"].append(quad_norm_adapted(T, p, s) / quad_norm_S(grid, p, s))
                for s in cases["uT_vs_S"]["sets"]:
                    samples["uT_vs_S"].append(quad_norm_adapted(uT, p, s) / quad_norm_S(grid, p, s))
                for s in cases["semigroup_vs_S"]["sets"]:
                    samples["semigroup_vs_S"].append(semigroup_norm(uT, p, s) / quad_norm_S(grid, p, s))
        for key, vals in samples.items():
            vals = np.array(vals)
            assert np.all(np.isfinite(vals)) and np.all(vals > 0)
            bounds[key][0] = min(bounds[key][0], vals.min())
            bounds[key][1] = max(bounds[key][1], vals.max())
            medians[key][N] = float(np.median(vals))
    msgs = []
    for key in cases:
        lo, hi = bounds[key]
        assert 1e-3 < lo <= hi < 1e3, (key, lo, hi)
        drift = abs(medians[key][32] - medians[key][16]) / medians[key][16]
        assert drift <= 0.20, (key, drift)
        msgs.append(f"{key} in [{lo:.2f}, {hi:.2f}] drift {drift:.3f}")
    print("CRITERION 9: PASS (" + "; ".join(msgs) + ")")


def test_criterion_10_graph_property(corpus64):
    grid, members = corpus64
    K = grid.nmodes
    worst = 0.0
    for idx, m in enumerate(members):
        _, Pm = spectral_projectors(m["sgn"])
        G = gamma_nd(m["blocks"], s=0.0, check_agreement=False)
        rng = np.random.default_rng(5000 + idx)
        F = rng.standard_normal((K, 100)) + 1j * rng.standard_normal((K, 100))
        vecs = np.vstack([F, G @ F])
        defects = np.linalg.norm(Pm.matrix @ vecs, axis=0) / np.linalg.norm(F, axis=0)
        worst = max(worst, float(defects.max()))
    assert worst <= 1e-6
    print(f"CRITERION 10: PASS (50 members x 100 vectors, max graph defect {worst:.1e})")


def test_criterion_11_energy_representation():
    grid = GridSpec(n=1, N=128, L=2 * np.pi)
    A = make_family(grid, "smooth_trig", seed=11, amplitude=0.3)  # general class
    assert A.block_class == "general"
    x = grid.points()[0]
    f = (np.cos(x) + 0.4 * np.sin(2 * x)).astype(complex)
    handle = solve_energy(A, f, problem="neumann")
    mesh = StripMesh.graded(grid, 256, T_max=8 * grid.L)
    sol = energy_solve_neumann(A, -f, mesh)
    err = strip_gradient_error(handle, sol)
    assert err <= 5e-2
    print(f"CRITERION 11: PASS (N=128 general smooth A, strip relative L2 error {err:.2e})")


def test_criterion_12_mgamma_invariance():
    grid = GridSpec(n=2, N=8, L=2 * np.pi)
    A = make_family(grid, "upper_triangular_random", seed=12)
    x = grid.points()
    psi = 0.5 * np.sin(x[0]) * np.cos(x[1]) + 0.2 * np.cos(2 * x[1])
    Ap = mgamma_perturb(A, stream_gamma(grid, psi))
    f = (np.cos(x[0]) + 0.3 * np.sin(x[1])).astype(complex)
    mesh = StripMesh.graded(grid, 12)
    s1 = energy_solve_regularity(A, f, mesh, ngauss=4)
    s2 = energy_solve_regularity(Ap, f, mesh, ngauss=4)
    sol_diff = float(np.max(np.abs(s1.values - s2.values)))
    acc_diff = abs(A.lamb - Ap.lamb)
    assert sol_diff <= 1e-8
    assert acc_diff <= 1e-10
    print(
        f"CRITERION 12: PASS (n=2 oracle solutions differ {sol_diff:.1e}, "
        f"accretivity bounds differ {acc_diff:.1e})"
    )


def test_criterion_13_norm_equivalence_ratios():
    nt_med = {}
    sq_med = {}
    nt_iv = [np.inf, 0.0]
    sq_iv = [np.inf, 0.0]
    for N in (32, 64):
        grid = GridSpec(n=1, N=N, L=2 * np.pi)
        ts = default_t_grid(grid)
        nts, sqs = [], []
        for fam, seed in (("lower_triangular_random", 100), ("block_diagonal_random", 101),
                          ("constant", 102), ("lower_triangular_random", 103)):
            A = make_family(grid, fam, seed=seed)
            rng = np.random.default_rng(seed)
            x = grid.points()[0]
            f = sum(
                rng.standard_normal() * np.cos(m * x) + rng.standard_normal() * np.sin(m * x)
                for m in (1, 2, 3)
            ).astype(complex)
            hn = solve_neumann_l2(A, f)
            nts.append(np.linalg.norm(hn.trace) / nontangential_norm(evaluate(hn, ts)))
            hd = solve_dirichlet_l2(A, f)
            sq = square_function_norm(evaluate_full_gradient(hd, ts))
            sqs.append(hd.diagnostics["trace_norm"] / sq)
        nt_iv = [min(nt_iv[0], min(nts)), max(nt_iv[1], max(nts))]
        sq_iv = [min(sq_iv[0], min(sqs)), max(sq_iv[1], max(sqs))]
        nt_med[N] = float(np.median(nts))
        sq_med[N] = float(np.median(sqs))
    nt_drift = abs(nt_med[64] - nt_med[32]) / nt_med[32]
    sq_drift = abs(sq_med[64] - sq_med[32]) / sq_med[32]
    assert 1e-2 < nt_iv[0] <= nt_iv[1] < 1e2
    assert 1e-2 < sq_iv[0] <= sq_iv[1] < 1e2
    assert nt_drift <= 0.20 and sq_drift <= 0.20
    print(
        f"CRITERION 13: PASS (|H0|/NT in [{nt_iv[0]:.2f}, {nt_iv[1]:.2f}] drift {nt_drift:.3f}; "
        f"|H0~|/sqfn in [{sq_iv[0]:.2f}, {sq_iv[1]:.2f}] drift {sq_drift:.3f})"
    )


def test_criterion_14_determinism_and_runtime(tmp_path):
    from halfspace.cli import main

    t0 = time.monotonic()
    bodies = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / tag
        code = main(["verify", "--format", "json", "--workers", workers, "--out", str(out)])
        assert code == 0
        bodies.append((out / "verify_report.json").read_text().split("\n", 1)[1])
    elapsed = time.monotonic() - t0
    assert bodies[0] == bodies[1] == bodies[2]
    assert elapsed < 300.0
    print(
        f"CRITERION 14: PASS (default verify byte-stable across runs and worker counts, "
        f"3 runs in {elapsed:.1f}s < 300s)"
    )
