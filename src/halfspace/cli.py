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
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .boundary import (
    SingularBlockError,
    block_floors,
    build_core,
    floors_above,
    gamma_dn,
    gamma_nd,
    rellich_from_blocks,
)
from .coeffs import (
    FAMILY_KINDS,
    NonAccretiveError,
    hat_involution_error,
    hat_transform,
    make_family,
)
from .dump import load_coefficient_spec, write_report, write_strip_field
from .errors import NumericalError
from .expr import ExprError, evaluate_expr
from .grid import GridSpec, fftn, ifftn, remove_mean
from .operators import (
    OperatorMatrix,
    _apply_S,
    _assemble_T,
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


# accepted JSON type of each config field, by its annotation
_FIELD_TYPES = {"str": (str, "a string"), "int": (int, "an integer"),
                "float": ((int, float), "a number"), "bool": (bool, "true or false"),
                "dict": (dict, "a JSON object")}


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
        for f in fields(self):
            value = getattr(self, f.name)
            kind, what = _FIELD_TYPES[f.type]
            # bool is an int subclass, but true is not a grid size
            if not isinstance(value, kind) or (isinstance(value, bool) and f.type != "bool"):
                raise ValueError(f"config field {f.name!r} must be {what}, got {value!r}")
        if not 0 < self.L < math.inf:  # NaN fails too
            raise ValueError(f"config field 'L' must be finite and positive, got {self.L!r}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"config field 'format' must be 'csv' or 'json', got {self.format!r}")
        if self.workers < 1:
            raise ValueError(f"config field 'workers' must be positive, got {self.workers}")

    @property
    def grid(self) -> GridSpec:
        return GridSpec(n=self.n, N=self.N, L=self.L)

    def to_json(self) -> dict:
        return asdict(self)

    def report_echo(self) -> dict:
        """Config echo embedded in reports: drops fields that do not affect
        the computed numbers (output path, worker count) so report bodies
        are byte-stable across runs, directories and parallelism."""
        return {k: v for k, v in self.to_json().items() if k not in ("out", "workers")}

    @classmethod
    def from_json(cls, doc, **overrides) -> "ExperimentConfig":
        """The config a JSON object describes, `overrides` taking precedence;
        any other document, or a key that names no field, is a ValueError."""
        if not isinstance(doc, dict):
            raise ValueError(f"configuration must be a JSON object, got {type(doc).__name__}")
        names = [f.name for f in fields(cls)]
        unknown = sorted(set(doc) - set(names))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}; the fields are {names}")
        return cls(**{**doc, **overrides})


def item_seed(master: int, index: int) -> int:
    """Deterministic per-item seed independent of scheduling."""
    return int(np.random.SeedSequence([master, index]).generate_state(1)[0])


def _option(config: ExperimentConfig, name: str, convert, default):
    """Option `name` (or `default`) through `convert`; a value of the wrong
    type or form is a configuration error that names the option."""
    value = config.options.get(name, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"option {name!r}: cannot read {value!r} ({exc})") from None


def _int(value) -> int:
    """A JSON integer as it is: 16.7 is not read as 16, nor true as 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{value!r} is not an integer")
    return value


def _float(value) -> float:
    """A finite JSON number: neither true, nor "8", nor 1e400 (read as inf)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    value = float(value)  # an integer beyond the float range raises OverflowError
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not finite")
    return value


def _ints(values) -> list[int]:
    return [_int(v) for v in values]


def _ladder(values) -> list[tuple[int, int]]:
    return [(N, M) for N, M in map(_ints, values)]


def _levels(values) -> np.ndarray:
    ts = np.atleast_1d(np.asarray(values, dtype=float))
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
        raise ValueError("expected a nonempty list of finite heights")
    return ts


def _default_corpus(config: ExperimentConfig) -> list[dict]:
    families = _option(
        config, "families", list,
        ["constant", "smooth_trig", "lower_triangular_random",
         "upper_triangular_random", "block_diagonal_random", "piecewise_random"],
    )
    per = _option(config, "per_family", _int, 2)
    if per < 1:
        raise ValueError(f"option 'per_family' must be at least 1, got {per}")
    items = []
    for fam in families:
        if fam not in FAMILY_KINDS:
            raise ValueError(f"unknown coefficient family {fam!r}")
        for j in range(per):
            items.append({"family": fam, "index": len(items), "rep": j})
    return items


def _map(config: ExperimentConfig, fn, args: list) -> list:
    """[fn(a) for a in args], over a pool of config.workers processes when
    there is more than one; fn must be a top-level function.  Workers are
    spawned: forking a process that runs threads, such as BLAS's, can
    deadlock the child."""
    if config.workers == 1:
        return [fn(a) for a in args]
    with ProcessPoolExecutor(config.workers, multiprocessing.get_context("spawn")) as pool:
        return list(pool.map(fn, args))


def _emit(config: ExperimentConfig, name: str, report: dict, rows: list | None = None):
    """Write report `name` into config.out, which is created if missing: in
    the configured format, or as JSON when it has no rows for a CSV table."""
    outdir = Path(config.out)
    outdir.mkdir(parents=True, exist_ok=True)
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    if config.format == "json" or rows is None:
        write_report(outdir / f"{name}.json", "json", report, timestamp=stamp)
    else:
        fieldnames = sorted({k for r in rows for k in r})
        csv_rows = [{k: r.get(k, "") for k in fieldnames} for r in rows]
        write_report(outdir / f"{name}.csv", "csv", (fieldnames, csv_rows), timestamp=stamp)


# ---------------------------------------------------------------- verify

def _verify_item(args: tuple) -> dict:
    """One corpus member's identity suite; top-level for process pools."""
    n, N, L, master, item = args
    grid = GridSpec(n=n, N=N, L=L)
    seed = item_seed(master, item["index"])
    A = make_family(grid, item["family"], seed=seed)
    core = build_core(A)
    calB, uT = core.calB, core.uT
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
    # uT S = (S uT^T)^T: both products are exact block swaps
    T = _assemble_T(calB, uT)
    out["intertwine_uTS_ST"] = float(
        np.linalg.norm(_apply_S(grid, uT.matrix.T).T - _apply_S(grid, T.matrix), 2)
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
    floors = block_floors(blocks)
    out["key_lemma_min_sv"] = float(min(floors.values()))
    out["key_lemma_ok"] = floors_above(floors)
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


def _hat_sweep_bases(n: int, master: int, count: int) -> np.ndarray:
    """The hat sweep's random strictly accretive (1+n) x (1+n) matrices,
    shape (count, 1+n, 1+n); matrix i is drawn from item seed 10000 + i."""
    d = 1 + n
    P = np.empty((count, d, d), dtype=complex)
    for i in range(count):
        rng = np.random.default_rng(item_seed(master, 10_000 + i))
        P[i] = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
    # the norms and Hermitian spectra of the whole stack, one call each
    P *= (0.45 * 2.7 / np.maximum(np.linalg.norm(P, 2, axis=(1, 2)), 1e-300))[:, None, None]
    herm_min = np.linalg.eigvalsh(0.5 * (P + P.conj().transpose(0, 2, 1)))[:, 0]
    return np.eye(d) * (0.6 - np.minimum(herm_min, 0))[:, None, None] + P


def run_verify(config: ExperimentConfig) -> int:
    items = _default_corpus(config)
    # hat-involution sweep over extra random coefficient matrices
    grid = config.grid
    nhat = _option(config, "hat_samples", _int, 200)
    if nhat < 0:
        raise ValueError(f"option 'hat_samples' must be nonnegative, got {nhat}")
    hat_max = 0.0
    if nhat > 0:
        hat_max = hat_involution_error(_hat_sweep_bases(grid.n, config.seed, nhat))

    args = [(config.n, config.N, config.L, config.seed, item) for item in items]
    rows = _map(config, _verify_item, args)
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
    _emit(config, "verify_report", report, rows)
    for line in failures:
        print(f"FAIL {line}")
    print(f"verify: {'PASS' if not failures else 'FAIL'} "
          f"({len(rows)} corpus members, hat sweep {nhat})")
    return EXIT_OK if not failures else EXIT_VERIFY


# ----------------------------------------------------------------- solve

def _datum(config: ExperimentConfig, grid: GridSpec) -> np.ndarray:
    """The 'datum' option evaluated on the grid, mean kept."""
    src = config.options.get("datum")
    if not isinstance(src, str):
        raise ValueError(f"option 'datum' must be a mini-language expression string, got {src!r}")
    return np.asarray(evaluate_expr(src, grid))


def run_solve(config: ExperimentConfig) -> int:
    grid = config.grid
    problem = config.options.get("problem", "neumann")
    cspec = config.options.get("coefficients", {"kind": "family", "family": "constant"})
    A = load_coefficient_spec(cspec, grid)
    datum = _datum(config, grid)
    f = remove_mean(grid, datum)
    if problem == "neumann":
        handle = solve_neumann_l2(A, f, force=config.force)
    elif problem == "regularity":
        g = ifftn(grid, 1j * grid.frequencies() * fftn(grid, f))
        handle = solve_regularity_l2(A, g, force=config.force)
    elif problem == "dirichlet":
        handle = solve_dirichlet_l2(A, datum)  # the mean is the Dirichlet gauge
    elif problem == "energy":
        handle = solve_energy(A, f, config.options.get("energy_problem", "neumann"))
    else:
        raise ValueError(f"unknown problem {problem!r}")

    ts = _option(config, "t_grid", _levels, default_t_grid(grid, 60)[:40])
    strip = evaluate(handle, ts)
    summary = {
        "config": config.report_echo(),
        "problem": problem,
        "block_class": A.block_class,
        "diagnostics": handle.diagnostics,
    }
    if config.options.get("compare_oracle") and problem in ("neumann", "energy"):
        from .oracle import StripMesh, energy_solve_neumann, strip_gradient_error

        mesh = StripMesh.graded(grid, _option(config, "oracle_M", _int, 4 * grid.N))
        sol = energy_solve_neumann(A, -f, mesh)
        summary["oracle_delta"] = strip_gradient_error(handle, sol)
    _emit(config, "solve_summary", summary)
    write_strip_field(Path(config.out) / f"solve_{problem}", strip)
    print(f"solve[{problem}]: done; trace norm "
          f"{float(np.linalg.norm(handle.trace)):.6g}"
          + (f"; oracle delta {summary['oracle_delta']:.3e}"
             if "oracle_delta" in summary else ""))
    return EXIT_OK


# --------------------------------------------------------------- rellich

def _rellich_item(args: tuple) -> dict:
    n, L, master, item, N = args
    grid = GridSpec(n=n, N=N, L=L)
    seed = item_seed(master, item["index"])
    A = make_family(grid, item["family"], seed=seed)
    row = {"id": f"{item['family']}-{item['rep']}", "block_class": A.block_class, "N": N}
    blocks = build_core(A, method="newton").blocks
    row["forward"], row["inverse"], G = rellich_from_blocks(blocks)
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
        # P- = (I - sgn)/2 applied blockwise to the graph vector (f, G f)
        Gf = G @ f
        residual = np.concatenate([f - blocks.s11 @ f - blocks.s12 @ Gf,
                                   Gf - blocks.s21 @ f - blocks.s22 @ Gf])
        row["graph_residual"] = float(0.5 * np.linalg.norm(residual) / np.linalg.norm(f))
        row["factorization_mismatch"] = float(np.linalg.norm(G - G2, 2))
    return row


def run_rellich(config: ExperimentConfig) -> int:
    items = _default_corpus(config)
    N_list = _option(config, "N_list", _ints, [config.N, 2 * config.N])
    args = [(config.n, config.L, config.seed, item, N)
            for item in items for N in N_list]
    rows = sorted(_map(config, _rellich_item, args), key=lambda r: (r["id"], r["N"]))
    _emit(config, "rellich_report", {"config": config.report_echo(), "rows": rows}, rows)
    print(f"rellich: {len(rows)} rows written to {Path(config.out)}")
    return EXIT_OK


# ----------------------------------------------------------- convergence

def run_convergence(config: ExperimentConfig) -> int:
    from .oracle import StripMesh, gamma_nd_comparison

    ladder = _option(config, "ladder", _ladder, [[16, 64], [32, 128], [64, 256]])
    band = _option(config, "band", _float, 8.0)
    # below the least |xi| = 2 pi / L a band holds no mode on any rung
    if band < 2 * np.pi / config.L:
        raise ValueError(f"option 'band' must be at least 2 pi / L = "
                         f"{2 * np.pi / config.L:.6g}, got {band}")
    amplitude = _option(config, "amplitude", _float, 0.3)
    rows = []
    for N, M in ladder:
        grid = GridSpec(n=config.n, N=N, L=config.L)
        A = make_family(grid, "smooth_trig", seed=item_seed(config.seed, 0),
                        amplitude=amplitude)
        Gs = gamma_nd(build_core(A, method="newton").blocks, s=-0.5)
        mesh = StripMesh.graded(grid, M, T_max=8 * grid.L)
        rep = gamma_nd_comparison(A, mesh, Gs, band=band)
        rows.append({"N": N, "M": M, **{k: rep[k] for k in sorted(rep)}})
    for i in range(1, len(rows)):
        rows[i]["order_band"] = float(
            np.log2(rows[i - 1]["rel_fro_band"] / rows[i]["rel_fro_band"])
        )
    _emit(config, "convergence_report", {"config": config.report_echo(), "rows": rows}, rows)
    for r in rows:
        print(f"N={r['N']} M={r['M']}: band error {r['rel_fro_band']:.4f}"
              + (f" order {r['order_band']:.2f}" if "order_band" in r else ""))
    return EXIT_OK


# ----------------------------------------------------------------- norms

def _norms_item(args: tuple) -> dict | None:
    """One corpus member's norm ratios at one N, or None for a block class
    outside the theory; top-level for process pools."""
    n, L, master, item, N = args
    grid = GridSpec(n=n, N=N, L=L)
    seed = item_seed(master, item["index"])
    A = make_family(grid, item["family"], seed=seed)
    if A.block_class not in ("lower_triangular", "block_diagonal"):
        return None
    rng = np.random.default_rng(seed + 7)
    x = grid.points()
    f = np.zeros(grid.shape, dtype=complex)
    for m in (1, 2, 3):
        f += rng.standard_normal() * np.cos(m * 2 * np.pi * x[0] / grid.L)
        f += rng.standard_normal() * np.sin(m * 2 * np.pi * x[0] / grid.L)
    # both solves share the core kept on A: one factorization per row
    handle = solve_neumann_l2(A, f)
    ts = default_t_grid(grid, 120)
    strip = evaluate(handle, ts[ts < 64 * grid.L])
    nt = nontangential_norm(strip)
    hd = solve_dirichlet_l2(A, f)
    sq = square_function_norm(evaluate_full_gradient(hd, ts))
    return {
        "id": f"{item['family']}-{item['rep']}",
        "N": N,
        "ratio_H0_over_NT": float(np.linalg.norm(handle.trace) / nt),
        "ratio_H0t_over_sqfn": float(hd.diagnostics["trace_norm"] / max(sq, 1e-300)),
    }


def run_norms(config: ExperimentConfig) -> int:
    items = [it for it in _default_corpus(config)
             if it["family"] in ("constant", "lower_triangular_random",
                                 "block_diagonal_random", "smooth_trig")]
    N_list = _option(config, "N_list", _ints, [config.N, 2 * config.N])
    args = [(config.n, config.L, config.seed, item, N) for item in items for N in N_list]
    rows = sorted((r for r in _map(config, _norms_item, args) if r is not None),
                  key=lambda r: (r["id"], r["N"]))
    _emit(config, "norms_report", {"config": config.report_echo(), "rows": rows}, rows)
    print(f"norms: {len(rows)} rows written to {Path(config.out)}")
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
        # every other flag's dest is the config field it overrides
        s.add_argument("--grid", type=int, default=None, metavar="N", dest="N")
        s.add_argument("--seed", type=int, default=None)
        s.add_argument("--out", type=str, default=None)
        s.add_argument("--format", type=str, choices=("csv", "json"), default=None)
        s.add_argument("--workers", type=int, default=None)
        s.add_argument("--force", action="store_true", default=None)
    return p


def build_config(argv: list[str]) -> ExperimentConfig:
    flags = vars(_build_parser().parse_args(argv))
    path = flags.pop("config")
    doc = json.loads(Path(path).read_text()) if path else {}
    return ExperimentConfig.from_json(
        doc, **{name: value for name, value in flags.items() if value is not None})


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
    except (ValueError, OSError) as exc:  # a JSON syntax error is a ValueError
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
