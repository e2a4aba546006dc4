"""The benchmark's tracer binds halfspace names (including private ones)
from outside the package; a rename in src/ must fail here first."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = textwrap.dedent("""
    import json, sys
    sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1] + "/bench"]
    import halfspace
    from halfspace import cli
    import tracer

    t = tracer.Tracer()
    t.install(halfspace)
    out, runs = sys.argv[2], json.loads(sys.argv[3])
    rcs = [cli.main([sub, "--config", cfg, "--grid", "8", "--out", out]) for sub, cfg in runs]
    t.metrics(1, 0)
    print(json.dumps({"rc": rcs, "spans": sorted({s[0] for s in t.spans})}))
""")


def test_tracer_installs_and_records_the_named_spans(tmp_path):
    options = {
        "rellich": {"per_family": 1},
        "verify": {"per_family": 1, "hat_samples": 10},
        "convergence": {"ladder": [[8, 16]]},
        "solve": {"problem": "neumann", "datum": "cos(x1)", "compare_oracle": True},
    }
    runs = []
    for sub, opts in options.items():
        cfg = tmp_path / f"{sub}.json"
        cfg.write_text(json.dumps({"options": opts}))
        runs.append([sub, str(cfg)])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), str(tmp_path), json.dumps(runs)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["rc"] == [0, 0, 0, 0]
    for name in ("cli.rellich_item", "cli.verify_item", "operators.matrix_sign.newton",
                 "oracle.gamma_nd_variational", "oracle.semigroup_strip_gradient"):
        assert name in doc["spans"], name
