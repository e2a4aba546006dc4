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
    out, cfg = sys.argv[2], sys.argv[3]
    rcs = [cli.main([sub, "--config", cfg, "--grid", "8", "--out", out])
           for sub in ("rellich", "verify")]
    t.metrics(1, 0)
    print(json.dumps({"rc": rcs, "spans": sorted({s[0] for s in t.spans})}))
""")


def test_tracer_installs_and_records_the_named_spans(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"per_family": 1, "hat_samples": 10}}))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), str(tmp_path), str(cfg)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["rc"] == [0, 0]
    for name in ("cli.rellich_item", "cli.verify_item", "operators.matrix_sign.newton"):
        assert name in doc["spans"], name
