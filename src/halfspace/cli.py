"""Command-line entry point: verify / solve / rellich / convergence / norms.

Configuration is a JSON document merged with command-line overrides; all
randomness is derived from (master seed, item index), so reports are
byte-stable across runs and worker counts (modulo the timestamp header
line each report starts with).

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure (any NumericalError: bisectoriality, conditioning,
Newton non-convergence, subspace, singular blocks, accretivity; an
accretivity rejection under verify is a verification failure).
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .boundary import (
    SingularBlockError,
    build_core,
    gamma_dn,
    gamma_nd,
    key_lemma_check,
    rellich_from_blocks,
)
from .coeffs import FAMILY_KINDS, NonAccretiveError, hat_transform, make_family
from .dump import load_coefficient_spec, write_report, write_strip_field
from .errors import NumericalError
from .expr import ExprError, evaluate_expr
from .grid import GridSpec, remove_mean
from .operators import (
    OperatorMatrix,
    kato_check,
    matrix_sign,
    spectral_projectors,
)
from .solvers import (
    evaluate,
    evaluate_full_gradient,
    solve_dirichlet_l2,
    solve_energy,
    solve_neumann_l2,
    solve_regularity_l2,
)
from .stripnorms import default_t_grid, nontangential_norm, square_function_norm

__all__ = ["main", "ExperimentConfig", "run_verify", "run_solve", "run_rellich"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class ExperimentConfig:
    subcommand: str
    n: int = 1
    N: int = 32
    L: float = 2.0 * np.pi
    seed: int = 0
    out: str = "."
    format: str = "csv"
    workers: int = 1
    force: bool = False
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown report format {self.format!r}")
        if self.workers < 1:
            raise ValueError("worker count must be positive")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(n=self.n, N=self.N, L=self.L)

    def to_json(self) -> dict:
        return {
            "subcommand": self.subcommand,
            "n": self.n,
            "N": self.N,
            "L": self.L,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
            "workers": self.workers,
            "force": self.force,
            "options": self.options,
        }

    def report_echo(self) -> dict:
        """Config echo embedded in reports: drops fields that do not affect
        the computed numbers (output path, worker count) so report bodies
        are byte-stable across runs, directories and parallelism."""
        doc = self.to_json()
        del doc["out"], doc["workers"]
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ExperimentConfig":
        known = {k: doc[k] for k in
                 ("subcommand", "n", "N", "L", "seed", "out", "format",
                  "workers", "force", "options") if k in doc}
        return cls(**known)


def item_seed(master: int, index: int) -> int:
    """Deterministic per-item seed independent of scheduling."""
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _default_corpus(config: ExperimentConfig) -> list[dict]:
    families = config.options.get(
        "families",
        ["constant", "smooth_trig", "lower_triangular_random",
         "upper_triangular_random", "block_diagonal_random", "piecewise_random"],
    )
    per = int(config.options.get("per_family", 2))
    items = []
    for fam in families:
        if fam not in FAMILY_KINDS:
            raise ValueError(f"unknown coefficient family {fam!r}")
        for j in range(per):
            items.append({"family": fam, "index": len(items), "rep": j})
    return items


# ---------------------------------------------------------------- verify

def _verify_item(args: tuple) -> dict:
    """One corpus member's identity suite; top-level for process pools."""
    n, N, L, master, item = args
    grid = GridSpec(n=n, N=N, L=L)
    seed = item_seed(master, item["index"])
    A = make_family(grid, item["family"], seed=seed)
    core = build_core(A)
    S, calB, T, uT = core.S, core.calB, core.T, core.uT
    out = {
        "id": f"{item['family']}-{item['rep']}",
        "block_class": A.block_class,
    }
    # hat involution on this member
    out["hat_involution"] = float(
        np.max(np.abs(hat_transform(core.B).samples - A.samples))
    )
    # sgn(uT) from the core's blocks, which copy it; Newton is the independent check
    sg = OperatorMatrix(grid, core.blocks.reassemble())
    dim = sg.dim
    eye = np.eye(dim)
    out["sgn_involution"] = float(np.linalg.norm(sg.matrix @ sg.matrix - eye, 2))
    sg_newton = matrix_sign(uT, method="newton")
    out["newton_vs_eigen"] = float(np.linalg.norm(sg.matrix - sg_newton.matrix, 2))
    Pp, Pm = spectral_projectors(sg)
    out["projector_sum"] = float(np.linalg.norm(Pp.matrix + Pm.matrix - eye, 2))
    out["projector_idem"] = float(
        max(
            np.linalg.norm(Pp.matrix @ Pp.matrix - Pp.matrix, 2),
            np.linalg.norm(Pm.matrix @ Pm.matrix - Pm.matrix, 2),
        )
    )
    out["intertwine_uTS_ST"] = float(
        np.linalg.norm(uT.matrix @ S.matrix - S.matrix @ T.matrix, 2)
    )
    out["intertwine_BuT_TB"] = float(
        np.linalg.norm(calB.matrix @ uT.matrix - T.matrix @ calB.matrix, 2)
    )
    blocks = core.blocks
    try:
        K = grid.nmodes
        g1 = gamma_nd(blocks, s=-0.5, check_agreement=True)
        g2 = gamma_dn(blocks, s=-0.5, check_agreement=True)
        out["inverse_relation"] = float(np.linalg.norm(g2 @ g1 - np.eye(K), 2))
    except SingularBlockError as exc:
        out["factorization_error"] = str(exc)
        out["inverse_relation"] = float("inf")
    lemma = key_lemma_check(blocks)
    out["key_lemma_min_sv"] = float(min(lemma["min_singular_values"].values()))
    out["key_lemma_ok"] = bool(lemma["all_above_floor"])
    if A.block_class == "block_diagonal":
        kato = kato_check(grid, A.d, n_samples=10, seed=seed)
        out["kato_min_ratio"] = kato["min_ratio"]
        out["kato_max_ratio"] = kato["max_ratio"]
    return out


def _verify_tolerances(N: int) -> dict:
    # looser documented tolerances at the minimal grid
    loose = 10.0 if N <= 8 else 1.0
    return {
        "hat_involution": 1e-12 * loose,
        "sgn_involution": 1e-8 * loose,
        "newton_vs_eigen": 1e-6 * loose,
        "projector_sum": 1e-10 * loose,
        "projector_idem": 1e-8 * loose,
        "intertwine_uTS_ST": 1e-8 * loose * N,
        "intertwine_BuT_TB": 1e-8 * loose * N,
        "inverse_relation": 1e-6 * loose,
    }


def run_verify(config: ExperimentConfig) -> int:
    items = _default_corpus(config)
    # hat-involution sweep over extra random coefficient matrices
    grid = config.grid
    nhat = int(config.options.get("hat_samples", 200))
    hat_max = 0.0
    for i in range(nhat):
        rng = np.random.default_rng(item_seed(config.seed, 10_000 + i))
        d = 1 + grid.n
        P = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        P *= 0.45 * 2.7 / max(np.linalg.norm(P, 2), 1e-300)
        herm_min = float(np.min(np.linalg.eigvalsh(0.5 * (P + P.conj().T))))
        A = make_family(grid, "constant", base=np.eye(d) * (0.6 - min(herm_min, 0)) + P)
        B = hat_transform(A)
        hat_max = max(hat_max, float(np.max(np.abs(hat_transform(B).samples - A.samples))))

    args = [(config.n, config.N, config.L, config.seed, item) for item in items]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_verify_item, args))
    else:
        rows = [_verify_item(a) for a in args]
    rows.sort(key=lambda r: r["id"])

    tols = _verify_tolerances(config.N)
    failures = []
    if hat_max > tols["hat_involution"]:
        failures.append(f"hat involution sweep: {hat_max:.3e}")
    for row in rows:
        for key, tol in tols.items():
            if key in row and not row[key] <= tol:
                failures.append(f"{row['id']}: {key} = {row[key]:.3e} > {tol:.1e}")
        if not row.get("key_lemma_ok", True):
            failures.append(f"{row['id']}: key lemma floor violated")

    report = {
        "config": config.report_echo(),
        "hat_involution_sweep": {"samples": nhat, "max_error": hat_max},
        "corpus": rows,
        "tolerances": tols,
        "failures": failures,
        "passed": not failures,
    }
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _emit(config, outdir / "verify_report", report, rows)
    for line in failures:
        print(f"FAIL {line}")
    print(f"verify: {'PASS' if not failures else 'FAIL'} "
          f"({len(rows)} corpus members, hat sweep {nhat})")
    return EXIT_OK if not failures else EXIT_VERIFY


def _emit(config: ExperimentConfig, base: Path, report: dict, rows: list):
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if config.format == "json":
        write_report(base.with_suffix(".json"), "json", report, timestamp=stamp)
    else:
        fieldnames = sorted({k for r in rows for k in r})
        csv_rows = [{k: r.get(k, "") for k in fieldnames} for r in rows]
        write_report(base.with_suffix(".csv"), "csv", (fieldnames, csv_rows),
                     timestamp=stamp)


# ----------------------------------------------------------------- solve

def _resolve_datum(config: ExperimentConfig, grid: GridSpec, key: str) -> np.ndarray:
    src = config.options.get(key)
    if src is None:
        raise ValueError(f"missing {key!r} in configuration")
    if isinstance(src, str):
        return remove_mean(grid, evaluate_expr(src, grid))
    raise ValueError(f"{key!r} must be a mini-language expression string")


def run_solve(config: ExperimentConfig) -> int:
    grid = config.grid
    problem = config.options.get("problem", "neumann")
    cspec = config.options.get("coefficients", {"kind": "family", "family": "constant"})
    A = load_coefficient_spec(cspec, grid)
    if problem == "neumann":
        f = _resolve_datum(config, grid, "datum")
        handle = solve_neumann_l2(A, f, force=config.force)
    elif problem == "regularity":
        f = _resolve_datum(config, grid, "datum")
        from .grid import fftn, ifftn

        g = ifftn(grid, 1j * grid.frequencies() * fftn(grid, f))
        handle = solve_regularity_l2(A, g, force=config.force)
    elif problem == "dirichlet":
        u0 = np.asarray(evaluate_expr(config.options["datum"], grid))
        handle = solve_dirichlet_l2(A, u0)
    elif problem == "energy":
        f = _resolve_datum(config, grid, "datum")
        handle = solve_energy(A, f, config.options.get("energy_problem", "neumann"))
    else:
        raise ValueError(f"unknown problem {problem!r}")

    ts = np.asarray(config.options.get("t_grid", default_t_grid(grid, 60)[:40]))
    strip = evaluate(handle, ts)
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_strip_field(outdir / f"solve_{problem}", strip)

    summary = {
        "config": config.report_echo(),
        "problem": problem,
        "block_class": A.block_class,
        "diagnostics": _jsonable(handle.diagnostics),
    }
    if config.options.get("compare_oracle") and problem in ("neumann", "energy"):
        from .oracle import StripMesh, energy_solve_neumann, strip_gradient_error

        mesh = StripMesh.graded(grid, int(config.options.get("oracle_M", 4 * grid.N)))
        sol = energy_solve_neumann(A, -f, mesh)
        summary["oracle_delta"] = strip_gradient_error(handle, sol)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_report(outdir / "solve_summary.json", "json", summary, timestamp=stamp)
    print(f"solve[{problem}]: done; trace norm "
          f"{float(np.linalg.norm(handle.trace)):.6g}"
          + (f"; oracle delta {summary['oracle_delta']:.3e}"
             if "oracle_delta" in summary else ""))
    return EXIT_OK


def _jsonable(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, complex):
            out[k] = [v.real, v.imag]
        elif isinstance(v, (np.floating, np.integer)):
            out[k] = float(v)
        else:
            out[k] = v
    return out


# --------------------------------------------------------------- rellich

def _rellich_item(args: tuple) -> dict:
    n, L, master, item, N = args
    grid = GridSpec(n=n, N=N, L=L)
    seed = item_seed(master, item["index"])
    A = make_family(grid, item["family"], seed=seed)
    row = {"id": f"{item['family']}-{item['rep']}", "block_class": A.block_class, "N": N}
    blocks = build_core(A, method="newton").blocks
    row["forward"], row["inverse"], G = rellich_from_blocks(blocks)
    _, Pm = spectral_projectors(OperatorMatrix(grid, blocks.reassemble()))
    K = grid.nmodes
    rng = np.random.default_rng(seed + 1)
    f = rng.standard_normal(K) + 1j * rng.standard_normal(K)
    # both entries are inf when s12 or I - s22 is singular
    row["graph_residual"] = row["factorization_mismatch"] = float("inf")
    if G is not None:
        try:
            G2 = np.linalg.solve(np.eye(K) - blocks.s22, blocks.s21)
        except np.linalg.LinAlgError:
            return row
        vec = np.concatenate([f, G @ f])
        row["graph_residual"] = float(np.linalg.norm(Pm.matrix @ vec) / np.linalg.norm(f))
        row["factorization_mismatch"] = float(np.linalg.norm(G - G2, 2))
    return row


def run_rellich(config: ExperimentConfig) -> int:
    items = _default_corpus(config)
    N_list = config.options.get("N_list", [config.N, 2 * config.N])
    args = [(config.n, config.L, config.seed, item, int(N))
            for item in items for N in N_list]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_rellich_item, args))
    else:
        rows = [_rellich_item(a) for a in args]
    rows.sort(key=lambda r: (r["id"], r["N"]))
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {"config": config.report_echo(), "rows": rows}
    _emit(config, outdir / "rellich_report", report, rows)
    print(f"rellich: {len(rows)} rows written to {outdir}")
    return EXIT_OK


# ----------------------------------------------------------- convergence

def run_convergence(config: ExperimentConfig) -> int:
    from .oracle import StripMesh, gamma_nd_comparison

    ladder = config.options.get("ladder", [[16, 64], [32, 128], [64, 256]])
    band = float(config.options.get("band", 8.0))
    amplitude = float(config.options.get("amplitude", 0.3))
    rows = []
    for N, M in ladder:
        grid = GridSpec(n=config.n, N=int(N), L=config.L)
        A = make_family(grid, "smooth_trig", seed=item_seed(config.seed, 0),
                        amplitude=amplitude)
        Gs = gamma_nd(build_core(A, method="newton").blocks, s=-0.5)
        mesh = StripMesh.graded(grid, int(M), T_max=8 * grid.L)
        rep = gamma_nd_comparison(A, mesh, Gs, band=band)
        rows.append({"N": int(N), "M": int(M), **{k: rep[k] for k in sorted(rep)}})
    for i in range(1, len(rows)):
        rows[i]["order_band"] = float(
            np.log2(rows[i - 1]["rel_fro_band"] / rows[i]["rel_fro_band"])
        )
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {"config": config.report_echo(), "rows": rows}
    _emit(config, outdir / "convergence_report", report, rows)
    for r in rows:
        print(f"N={r['N']} M={r['M']}: band error {r['rel_fro_band']:.4f}"
              + (f" order {r['order_band']:.2f}" if "order_band" in r else ""))
    return EXIT_OK


# ----------------------------------------------------------------- norms

def run_norms(config: ExperimentConfig) -> int:
    items = [it for it in _default_corpus(config)
             if it["family"] in ("constant", "lower_triangular_random",
                                 "block_diagonal_random", "smooth_trig")]
    rows = []
    for item in items:
        for N in config.options.get("N_list", [config.N, 2 * config.N]):
            grid = GridSpec(n=config.n, N=int(N), L=config.L)
            seed = item_seed(config.seed, item["index"])
            A = make_family(grid, item["family"], seed=seed)
            if A.block_class not in ("lower_triangular", "block_diagonal"):
                continue
            rng = np.random.default_rng(seed + 7)
            x = grid.points()
            f = np.zeros(grid.shape, dtype=complex)
            for m in (1, 2, 3):
                f += rng.standard_normal() * np.cos(m * 2 * np.pi * x[0] / grid.L)
                f += rng.standard_normal() * np.sin(m * 2 * np.pi * x[0] / grid.L)
            # one factorization per row, shared by both solves
            core = build_core(A)
            handle = solve_neumann_l2(A, f, core=core)
            ts = default_t_grid(grid, 120)
            strip = evaluate(handle, ts[ts < 64 * grid.L])
            nt = nontangential_norm(strip)
            hd = solve_dirichlet_l2(A, f, core=core)
            sq = square_function_norm(evaluate_full_gradient(hd, ts))
            rows.append({
                "id": f"{item['family']}-{item['rep']}",
                "N": int(N),
                "ratio_H0_over_NT": float(np.linalg.norm(handle.trace) / nt),
                "ratio_H0t_over_sqfn": float(np.linalg.norm(hd.trace) / max(sq, 1e-300)),
            })
    rows.sort(key=lambda r: (r["id"], r["N"]))
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    report = {"config": config.report_echo(), "rows": rows}
    _emit(config, outdir / "norms_report", report, rows)
    print(f"norms: {len(rows)} rows written to {outdir}")
    return EXIT_OK


# ------------------------------------------------------------------ main

def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="halfspace",
        description="Numerical laboratory for half-space boundary value "
                    "problems in the first-order framework",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name in ("verify", "solve", "rellich", "convergence", "norms"):
        s = sub.add_parser(name)
        s.add_argument("--config", type=str, default=None)
        s.add_argument("--grid", type=int, default=None, metavar="N")
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--out", type=str, default=None)
        s.add_argument("--format", type=str, choices=("csv", "json"), default=None)
        s.add_argument("--workers", type=int, default=None)
        s.add_argument("--force", action="store_true")
    return p


def build_config(argv: list[str]) -> ExperimentConfig:
    ns = _build_parser().parse_args(argv)
    doc = {}
    if ns.config:
        doc = json.loads(Path(ns.config).read_text())
    doc["subcommand"] = ns.subcommand
    if ns.grid is not None:
        doc["N"] = ns.grid
    if ns.seed is not None:
        doc["seed"] = ns.seed
    if ns.out is not None:
        doc["out"] = ns.out
    if ns.format is not None:
        doc["format"] = ns.format
    if ns.workers is not None:
        doc["workers"] = ns.workers
    if ns.force:
        doc["force"] = True
    return ExperimentConfig.from_json(doc)


_RUNNERS = {
    "verify": run_verify,
    "solve": run_solve,
    "rellich": run_rellich,
    "convergence": run_convergence,
    "norms": run_norms,
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = build_config(argv)
    except (ValueError, KeyError, json.JSONDecodeError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # argparse
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _RUNNERS[config.subcommand](config)
    except NonAccretiveError as exc:
        print(f"accretivity rejection: {exc}", file=sys.stderr)
        return EXIT_VERIFY if config.subcommand == "verify" else EXIT_NUMERICAL
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, ExprError, KeyError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
