"""Repetitions of a workload from one freshly started process.

Usage: python3 bench/child.py WORKLOAD SEED OUTDIR MODES DEADLINE

Imports halfspace and parses the CLI configurations (set-up), writes
``OUTDIR/setup.json`` with the monotonic time at which set-up ended, then
runs one repetition of the workload's parts per character of MODES ("0"
untraced, "1" traced) and writes ``OUTDIR/rep<i>/result.json`` for each: the
timed run, the report rows the parts produced and (traced) the per-layer
metrics.

Every repetition starts from the state set-up left, so no cache or memory
carries over between repetitions: all but the last run in a process forked
after set-up, the last runs in this process itself, and its result holds the
peak resident memory of a whole CLI process.  Before each repetition a
forked process times the reference computation of ``yardstick.py`` and
writes ``OUTDIR/gauge<i>.json``, a gauge of the host's speed.  Repetitions stop early once
another one would end past DEADLINE (a ``time.monotonic`` value); at least
one runs.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import halfspace  # noqa: E402
from halfspace import cli  # noqa: E402
from halfspace.dump import read_field  # noqa: E402

import workloads  # noqa: E402
import yardstick  # noqa: E402

# span whose outermost calls start a report row, per part kind
ROW_MARKERS = {"rellich": "cli.rellich_item", "verify": "cli.verify_item",
               "norms": "coeffs.make_family", "convergence": "coeffs.make_family",
               "solve": None}


def _read_report(path: Path):
    # the first line is a timestamp comment; the body is JSON
    return json.loads(path.read_text().split("\n", 1)[1])


def quadnorm_rows(seed: int, tracer=None) -> list[dict]:
    """Criterion-9-style adapted/semigroup quadratic-norm ratios against the
    closed-form S norm, one row per coefficient field."""
    from halfspace import (GridSpec, assemble_operators, hat_transform, make_family,
                           quad_norm_S, quad_norm_adapted, semigroup_norm)

    grid = GridSpec(n=1, N=workloads.QUAD_N, L=2 * np.pi)
    rows = []
    for fam in workloads.QUAD_FAMILIES:
        for rep in range(2):
            if tracer:
                tracer.begin_part(None)
            fseed = int(np.random.SeedSequence([seed, len(rows)]).generate_state(1)[0])
            A = make_family(grid, fam, seed=fseed)
            S, calB, T, uT = assemble_operators(hat_transform(A))
            rng = np.random.default_rng(fseed)
            ratios = []
            for _ in range(workloads.QUAD_VECTORS):
                p = rng.standard_normal(2 * grid.nmodes) + 1j * rng.standard_normal(2 * grid.nmodes)
                ratios += [quad_norm_adapted(T, p, s) / quad_norm_S(grid, p, s) for s in (0.0, 0.5, 1.0)]
                ratios += [quad_norm_adapted(uT, p, s) / quad_norm_S(grid, p, s) for s in (-1.0, -0.5, 0.0)]
                ratios += [semigroup_norm(uT, p, s) / quad_norm_S(grid, p, s) for s in (-1.0, -0.5)]
            rows.append({"id": f"{fam}-{rep}", "ratios": [float(r) for r in ratios]})
    return rows


def collect(part: dict, out: Path) -> list[dict]:
    """Report rows a CLI part wrote, read after the timed run."""
    kind = part["kind"]
    if kind == "verify":
        rep = _read_report(out / "verify_report.json")
        failures = rep["failures"]
        rows = rep["corpus"]
        for row in rows:
            row["failures"] = [f for f in failures if f.startswith(row["id"] + ":")]
        rows.append({"id": "hat-sweep", **rep["hat_involution_sweep"],
                     "failures": [f for f in failures if f.startswith("hat involution")]})
        return rows
    if kind == "solve":
        problem = part["config"]["options"]["problem"]
        summary = _read_report(out / "solve_summary.json")
        _, _, values = read_field(out / f"solve_{problem}_grad")
        summary["strip_grad_norm"] = float(np.linalg.norm(values))
        del summary["config"]
        return [summary]
    return _read_report(out / f"{kind}_report.json")["rows"]


def run_rep(parts: list[dict], argvs: dict, outdir: Path, trace: bool) -> dict:
    """One repetition of the parts; returns its result (without memory)."""
    for name in argvs:
        (outdir / name).mkdir(parents=True, exist_ok=True)
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install(halfspace)

    results = {}
    sink = io.StringIO()
    t0 = time.perf_counter()
    for part in parts:
        if part["kind"] == "quadnorms":
            results[part["name"]] = {"rc": 0, "rows": quadnorm_rows(part["seed"], tracer)}
            continue
        if tracer:
            tracer.begin_part(ROW_MARKERS[part["kind"]])
        argv = argvs[part["name"]] + ["--out", str(outdir / part["name"])]
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        results[part["name"]] = {"rc": rc}
    run_s = time.perf_counter() - t0

    for part in parts:
        res = results[part["name"]]
        if "rows" not in res and res["rc"] == 0:
            res["rows"] = collect(part, outdir / part["name"])
    rows = sum(len(r.get("rows", [])) for r in results.values())
    result = {"run_s": run_s, "parts": results}
    if tracer:
        written = sum(f.stat().st_size for part in argvs for f in (outdir / part).iterdir())
        result["layers"] = tracer.metrics(max(rows, 1), written)
        (outdir / "trace.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "row"],
             "spans": tracer.dump()}))
    return result


def main():
    workload, seed, outdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    modes, deadline = sys.argv[4], float(sys.argv[5])
    parts = workloads.plan(workload, seed)
    argvs = {}
    for part in parts:
        if part["kind"] == "quadnorms":
            continue
        cfg = outdir / f"{part['name']}.config.json"
        cfg.write_text(json.dumps(part["config"]))
        argv = [part["kind"], "--config", str(cfg)] + part["flags"]
        cli.build_config(argv + ["--out", str(outdir)])
        argvs[part["name"]] = argv
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    meta = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
    (outdir / "setup.json").write_text(json.dumps({"ready": time.monotonic(), "meta": meta}))
    sys.stdout.flush()

    period = 0.0
    for i, mode in enumerate(modes):
        repdir = outdir / f"rep{i}"
        started = time.monotonic()
        _forked(lambda: _write(outdir / f"gauge{i}.json", yardstick.gauge()))
        repdir.mkdir()
        # the last repetition runs here; so does the one after which
        # another would not end before the deadline
        if i == len(modes) - 1 or started + 2 * period > deadline:
            result = run_rep(parts, argvs, repdir, mode == "1")
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            _write(repdir / "result.json", result)
            return
        _forked(lambda: _write(repdir / "result.json", run_rep(parts, argvs, repdir, mode == "1")))
        period = time.monotonic() - started


def _write(path: Path, value) -> None:
    path.write_text(json.dumps(value))


def _forked(task) -> None:
    """Run ``task`` in a process forked from this one and wait for it.

    Forking is safe here: with BLAS pinned to one thread, set-up starts no
    thread."""
    pid = os.fork()
    if pid == 0:
        code = 0
        # the forked process must never return into this one's loop
        try:
            task()
        except BaseException:
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)
    os.waitpid(pid, 0)


if __name__ == "__main__":
    main()
