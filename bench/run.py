"""halfspace benchmark: one workload, repeated in fresh processes.

Usage (from the repository root):

    python3 bench/run.py --workload gamma-corpus --seed 1 --seconds 30 --trace 0

A run starts ``bench/child.py`` in a new interpreter at least SETUPS times,
one after another, with BLAS pinned to one thread and the CLI's
``--workers 1``.  Each such process sets up once and runs repetitions, each
from the state set-up left, so neither caches nor memory carry over between
repetitions.  Repetitions continue until ``--seconds`` have passed (at least
three).  With ``--trace 0`` the end-to-end metrics are medians: run time and
rows per unit time over repetitions, set-up time and peak memory over the
fresh processes.  Run time is counted in gauges: a repetition's wall time
divided by the time of a fixed reference computation (``yardstick.py``),
averaged over the gauges taken between the repetitions of its process,
because the shared host's speed drifts by a quarter and more over minutes.  With ``--trace 1`` repetitions alternate
untraced and traced, and the per-layer metrics are medians over the traced
ones.

Every output row is checked against the committed reference for the input
seed and against the repository's own criteria (``check.py``).  The last
line of standard output is one JSON object: correct, attempted, failed and
metrics.  The lines before it give every metric with its unit, the fail
ratio, the environment and net source lines per module.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import tracer
import workloads

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
MIN_REPS = 3
# fresh processes per run, at least; each sets up once
SETUPS = 4
MAX_REPS = 1000
# a process still running this long after its deadline is killed
REP_TIMEOUT_S = 60
# stop starting repetitions once another one could overrun this
WALL_LIMIT_S = 150
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (("run_gauges", "gauge"), ("rows_per_gauge", "1/gauge"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


def _stop_group(proc: subprocess.Popen) -> None:
    """Kill a set-up process with the repetitions it forked, and wait for
    all of them to end."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_setup(workload: str, seed: int, sdir: Path, modes: str,
              deadline: float) -> tuple[float | None, dict, list[dict | None]]:
    """Start one fresh process that sets up once and runs repetitions, one
    per character of ``modes`` (traced when "1"), until ``deadline``.

    Returns its set-up time (None when set-up or the first gauge failed),
    the environment it recorded, and the result of every repetition it
    started (None for one that failed)."""
    shutil.rmtree(sdir, ignore_errors=True)
    sdir.mkdir(parents=True)
    env = {**os.environ, **THREADS}
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(sdir),
           modes, repr(deadline)]
    with open(sdir / "child.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            proc.wait(timeout=max(deadline - spawned, 0) + REP_TIMEOUT_S)
        finally:
            _stop_group(proc)
    if not (sdir / "setup.json").is_file():
        return None, {}, [None]
    setup = json.loads((sdir / "setup.json").read_text())
    gauges = []
    while (sdir / f"gauge{len(gauges)}.json").is_file():
        gauges.append(json.loads((sdir / f"gauge{len(gauges)}.json").read_text()))
    if not gauges:
        return None, {}, [None]
    # one gauge per process: single gauges are too short to be precise, and
    # the host's drift is slow beside a process's few seconds
    gauge_s = statistics.mean(gauges)
    results = []
    while (sdir / f"rep{len(results)}").is_dir():
        i = len(results)
        result = None
        if (sdir / f"rep{i}" / "result.json").is_file():
            result = json.loads((sdir / f"rep{i}" / "result.json").read_text())
            result["gauge_s"] = gauge_s
        results.append(result)
    return setup["ready"] - spawned, setup["meta"], results or [None]


def run_child(workload: str, seed: int, rdir: Path, traced: bool) -> dict | None:
    """One repetition in a fresh process; returns its result with setup_s
    added, or None when it failed."""
    setup_s, meta, (result,) = run_setup(workload, seed, rdir, "1" if traced else "0", 0.0)
    if result is not None:
        result.update(setup_s=setup_s, meta=meta)
    return result


def load_reference(workload: str) -> dict:
    return json.loads((BENCH / "reference" / f"{workload}.json").read_text())


def source_lines() -> dict:
    """Net source lines per module: neither blank nor comment-only."""
    out = {}
    for path in sorted((ROOT / "src" / "halfspace").glob("*.py")):
        lines = path.read_text().splitlines()
        out[path.stem] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return out


def _summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.6g} min {min(values):.6g} "
            f"max {max(values):.6g} n={len(values)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still stops the processes it started (see run_setup)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "halfspace" / "cli.py").is_file():
        print(f"halfspace sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    seed = workloads.input_seed(args.seed)
    ref = load_reference(args.workload)["seeds"][str(seed)]
    plan = workloads.plan(args.workload, args.seed)
    base = OUT / args.workload / f"seed{args.seed}"
    start = time.monotonic()
    end = start + args.seconds
    reps, setups, rss, env = [], [], [], {}
    attempted, failed, notes = 0, 0, []
    while True:
        t0 = time.monotonic()
        # each fresh process gets an equal share of the run, so that a run
        # sets up at least SETUPS times
        deadline = min(end, t0 + args.seconds / SETUPS)
        modes = (("01" if args.trace else "00") * MAX_REPS)[len(reps) % 2:][:MAX_REPS]
        setup_s, got_env, results = run_setup(args.workload, args.seed,
                                               base / f"setup{len(setups)}", modes, deadline)
        for i, result in enumerate(results):
            a, f, n = check.check_rep(plan, result, ref["parts"])
            attempted, failed = attempted + a, failed + f
            notes += n
            reps.append((modes[i] == "1", result))
        if setup_s is None:
            break
        setups.append(setup_s)
        env = env or got_env
        if results[-1] is not None and "peak_rss_mb" in results[-1]:
            rss.append(results[-1]["peak_rss_mb"])
        now = time.monotonic()
        # a fresh process that cannot finish one repetition before the end
        # is not started
        took = (now - t0) / len(results)
        if len(reps) >= MIN_REPS and now + took > end:
            break
        if now - start + 2 * (now - t0) > WALL_LIMIT_S:
            break

    done = [(tr, r) for tr, r in reps if r is not None]
    plain = [r for tr, r in done if not tr]
    metrics = {}
    lines = []
    if args.trace == 0:
        rows = [sum(len(p.get("rows", [])) for p in r["parts"].values()) for r in plain]
        run_g = [r["run_s"] / r["gauge_s"] for r in plain]
        series = {
            "run_gauges": run_g,
            "rows_per_gauge": [n / g for n, g in zip(rows, run_g)],
            "setup_s": setups,
            "peak_rss_mb": rss,
        }
        for name, unit in END_TO_END:
            if series[name]:
                metrics[name] = {"value": statistics.median(series[name]), "unit": unit}
                lines.append(f"{name} [{unit}]: {_summary(series[name])}")
        # wall-clock figures, which drift with the shared host's speed
        raw = {"run_s": [r["run_s"] for r in plain],
               "rows_per_s": [n / r["run_s"] for n, r in zip(rows, plain)],
               "gauge_s": [r["gauge_s"] for r in plain]}
        for (name, values), unit in zip(raw.items(), ("s", "1/s", "s")):
            if values:
                lines.append(f"{name} [{unit}]: {_summary(values)}")
    else:
        traced = [r for tr, r in done if tr]
        if traced and plain:
            layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
            layers["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced)
                                          - statistics.median(r["run_s"] for r in plain))
            for name, unit in tracer.METRICS:
                metrics[name] = {"value": layers[name], "unit": unit}
                lines.append(f"{name} [{unit}]: {layers[name]:.6g}")
            counts = [{k: r["layers"][k] for k in tracer.COUNT_METRICS} for r in traced]
            if any(c != counts[0] for c in counts):
                lines.append("counts differ between traced repetitions")
            diff = {k: (counts[0][k], ref["counts"][k]) for k in tracer.COUNT_METRICS
                    if counts[0][k] != ref["counts"][k]}
            lines.append("counts vs recorded baseline: "
                         + ("identical" if not diff else f"differ (run, baseline) {diff}"))

    meta = {
        "workload": args.workload, "seed": args.seed, "input_seed": seed,
        "repetitions": len(reps), "completed": len(done),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "setups": len(setups),
        **env,
        "source_lines": source_lines(),
    }
    fail_ratio = failed / attempted if attempted else 1.0
    lines.append(f"fail_ratio [1]: {fail_ratio:.6g} ({failed} of {attempted} rows)")
    for line in [f"meta: {json.dumps(meta)}"] + lines + [f"FAIL {n}" for n in notes[:20]]:
        print(line)
    out = {"correct": failed == 0 and bool(done), "attempted": attempted,
           "failed": failed, "metrics": metrics}
    (base / "result.json").write_text(json.dumps({"meta": meta, "fail_ratio": fail_ratio, **out}))
    print(json.dumps(out))
    return 0 if done else 1


if __name__ == "__main__":
    sys.exit(main())
