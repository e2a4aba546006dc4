"""Self-test of the benchmark harness (about a minute).

Usage (from the repository root):

    python3 bench/selftest.py

Checks that
- a perturbed, criterion-violating or missing output is counted as failed;
- BENCHMARK.json names exactly the workloads and metrics the harness emits;
- per workload, two traced repetitions give identical counts, equal to the
  baseline recorded in bench/reference, with no failed row;
- an untraced repetition at a second seed has no failed row either.
"""

import copy
import json
import sys

import check
import tracer
import workloads
from run import END_TO_END, OUT, ROOT, load_reference, run_child


def gate_cases():
    plan = workloads.plan("gamma-corpus", 0)
    ref = load_reference("gamma-corpus")["seeds"]["0"]["parts"]
    ok = {"parts": {"rellich": {"rc": 0, "rows": copy.deepcopy(ref["rellich"])}}}
    assert check.check_rep(plan, ok, ref)[:2] == (18, 0)

    bad = copy.deepcopy(ok)
    bad["parts"]["rellich"]["rows"][3]["forward"] *= 1 + 1e-4
    assert check.check_rep(plan, bad, ref)[:2] == (18, 1), "perturbed value not caught"

    bad = copy.deepcopy(ok)
    bad["parts"]["rellich"]["rows"][5]["graph_residual"] = 1e-3
    assert check.check_rep(plan, bad, ref)[:2] == (18, 1), "criterion violation not caught"

    bad = copy.deepcopy(ok)
    del bad["parts"]["rellich"]["rows"][-1]
    assert check.check_rep(plan, bad, ref)[:2] == (18, 1), "missing row not caught"

    assert check.check_rep(plan, None, ref)[:2] == (18, 18), "crashed run not caught"
    assert check.close(float("inf"), float("inf")) and not check.close(float("inf"), 1e300)
    assert not check.close(float("nan"), float("nan"))
    print("gate: perturbed, violating, missing and crashed outputs are counted as failures")


def benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(tracer.METRICS)
    print("BENCHMARK.json: workloads and metrics match the harness")


def repeat_counts():
    for workload in workloads.WORKLOADS:
        baseline = load_reference(workload)["seeds"]["0"]
        counts = []
        for rep in range(2):
            result = run_child(workload, 0, OUT / "selftest" / workload / f"traced{rep}", True)
            _, failed, notes = check.check_rep(workloads.plan(workload, 0), result, baseline["parts"])
            assert failed == 0, notes
            counts.append({k: result["layers"][k] for k in tracer.COUNT_METRICS})
        assert counts[0] == counts[1], f"{workload}: counts differ between traced runs"
        assert counts[0] == baseline["counts"], f"{workload}: counts differ from the baseline"

        seed = 5
        result = run_child(workload, seed, OUT / "selftest" / workload / "second-seed", False)
        ref = load_reference(workload)["seeds"][str(workloads.input_seed(seed))]["parts"]
        _, failed, notes = check.check_rep(workloads.plan(workload, seed), result, ref)
        assert failed == 0, notes
        print(f"{workload}: traced counts identical and equal to the baseline "
              f"(dense.eig.calls {counts[0]['dense.eig.calls']}); seed {seed} fail ratio 0")


if __name__ == "__main__":
    gate_cases()
    benchmark_json()
    repeat_counts()
    print("selftest: all checks passed")
    sys.exit(0)
