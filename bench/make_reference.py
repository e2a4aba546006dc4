"""Regenerate the committed reference outputs and baseline counts.

Usage (from the repository root):

    python3 bench/make_reference.py [WORKLOAD ...]

For every workload and every input seed of the pool, runs one traced
repetition and stores its report rows (the reference for the correctness
gate) and its exact per-layer counts (the recorded baseline the traced run
is compared with) in ``bench/reference/<workload>.json``.  Rows violating a
repository criterion are printed; they are stored all the same, because the
reference records what the program computes.
"""

import json
import sys

import check
import tracer
import workloads
from run import BENCH, OUT, run_child


def main(names: list[str]) -> int:
    status = 0
    for workload in names or sorted(workloads.WORKLOADS):
        seeds = {}
        for seed in range(workloads.SEED_POOL):
            result = run_child(workload, seed, OUT / "reference" / workload / f"seed{seed}", True)
            if result is None:
                print(f"{workload} seed {seed}: repetition failed", file=sys.stderr)
                return 1
            parts = {name: part["rows"] for name, part in result["parts"].items()}
            plan = workloads.plan(workload, seed)
            _, failed, notes = check.check_rep(plan, result, parts)
            for note in notes:
                print(f"{workload} seed {seed}: {note}")
            status |= failed > 0
            seeds[str(seed)] = {
                "parts": parts,
                "counts": {k: result["layers"][k] for k in tracer.COUNT_METRICS},
            }
            print(f"{workload} seed {seed}: run_s {result['run_s']:.3f}")
        doc = {"workload": workload, "rtol": check.RTOL, "atol": check.ATOL, "seeds": seeds}
        (BENCH / "reference").mkdir(exist_ok=True)
        (BENCH / "reference" / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
