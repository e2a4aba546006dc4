import json

import numpy as np
import pytest

from halfspace import boundary, cli
from halfspace.cli import ExperimentConfig, build_config, item_seed, main
from halfspace.coeffs import NonAccretiveError
from halfspace.operators import SubspaceError


def run(args):
    return main(args)


def test_config_round_trip():
    cfg = ExperimentConfig(subcommand="verify", N=16, seed=7, options={"per_family": 1})
    doc = cfg.to_json()
    assert ExperimentConfig.from_json(doc) == cfg
    # a second round trip is idempotent
    assert ExperimentConfig.from_json(ExperimentConfig.from_json(doc).to_json()) == cfg


def test_cli_overrides_config_file(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"N": 64, "seed": 1}))
    cfg = build_config(["verify", "--config", str(p), "--grid", "16", "--out", str(tmp_path)])
    assert cfg.N == 16  # command line wins
    assert cfg.seed == 1


def test_item_seed_deterministic():
    assert item_seed(3, 5) == item_seed(3, 5)
    assert item_seed(3, 5) != item_seed(3, 6)
    assert item_seed(3, 5) != item_seed(4, 5)


def test_verify_passes_and_is_byte_stable(tmp_path):
    args = ["verify", "--grid", "16", "--seed", "1", "--format", "json", "--out"]
    assert run(args + [str(tmp_path / "a")]) == 0
    assert run(args + [str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "verify_report.json").read_text().split("\n", 1)[1]
    b = (tmp_path / "b" / "verify_report.json").read_text().split("\n", 1)[1]
    assert a == b


def test_verify_worker_count_does_not_change_report(tmp_path):
    base = ["verify", "--grid", "16", "--seed", "2", "--format", "csv"]
    assert run(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert run(base + ["--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    a = (tmp_path / "w1" / "verify_report.csv").read_text().split("\n", 1)[1]
    b = (tmp_path / "w2" / "verify_report.csv").read_text().split("\n", 1)[1]
    assert a == b


def test_solve_neumann_with_dump(tmp_path):
    cfg = tmp_path / "solve.json"
    cfg.write_text(
        json.dumps(
            {
                "options": {
                    "problem": "neumann",
                    "datum": "cos(x1)",
                    "coefficients": {"kind": "family", "family": "lower_triangular_random", "seed": 3},
                }
            }
        )
    )
    out = tmp_path / "out"
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(out)]) == 0
    assert (out / "solve_neumann_grad.json").exists()
    assert (out / "solve_neumann_grad.bin").exists()
    assert (out / "solve_summary.json").exists()


def test_solve_dirichlet(tmp_path):
    cfg = tmp_path / "solve.json"
    cfg.write_text(json.dumps({"options": {"problem": "dirichlet", "datum": "1+cos(x1)"}}))
    out = tmp_path / "out"
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(out)]) == 0
    assert (out / "solve_dirichlet_u.bin").exists()


def test_rellich_report_sorted(tmp_path):
    out = tmp_path / "r"
    assert run(["rellich", "--grid", "16", "--seed", "0", "--out", str(out)]) == 0
    lines = (out / "rellich_report.csv").read_text().splitlines()
    ids = [tuple(l.split(",")[5:6] + l.split(",")[0:1]) for l in lines[2:]]
    assert ids == sorted(ids)


def test_norms_report(tmp_path):
    out = tmp_path / "n"
    assert run(["norms", "--grid", "16", "--seed", "0", "--out", str(out)]) == 0
    text = (out / "norms_report.csv").read_text()
    assert "ratio_H0_over_NT" in text


def test_convergence_report(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"ladder": [[16, 48], [32, 96]], "band": 6.0}}))
    out = tmp_path / "conv"
    assert run(["convergence", "--config", str(cfg), "--format", "json", "--out", str(out)]) == 0
    doc = json.loads((out / "convergence_report.json").read_text().split("\n", 1)[1])
    rows = doc["rows"]
    assert rows[1]["rel_fro_band"] < rows[0]["rel_fro_band"]
    assert rows[1]["order_band"] > 0.5


def test_bad_config_exit_code(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert run(["solve", "--config", str(p), "--out", str(tmp_path)]) == 2


def test_unknown_problem_exit_code(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"problem": "helmholtz", "datum": "cos(x1)"}}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 2


def test_non_accretive_coefficients_rejected(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        json.dumps(
            {
                "options": {
                    "problem": "neumann",
                    "datum": "cos(x1)",
                    "coefficients": {
                        "kind": "expressions",
                        "entries": [["0-1", "0"], ["0", "1"]],
                    },
                }
            }
        )
    )
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 3


def test_unary_minus_datum(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"problem": "neumann", "datum": "-0.5*cos(x1)"}}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 0


def test_overflowing_datum_reports_position(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"problem": "neumann", "datum": "sin(sin(i*x1^2))"}}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "non-finite" in err and "line 1, column 1" in err


def _rellich_args(N=16):
    item = {"family": "lower_triangular_random", "index": 2, "rep": 0}
    return (1, 2 * np.pi, 0, item, N)


def test_rellich_item_factors_once(monkeypatch):
    # the sign comes from the certified Newton route: no eigendecomposition
    calls = []
    for name in ("eig", "eigvals"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, fn=fn, name=name: calls.append(name) or fn(a))
    row = cli._rellich_item(_rellich_args())
    assert calls == []
    assert np.isfinite(row["forward"]) and np.isfinite(row["inverse"])
    assert row["graph_residual"] <= 1e-6


def test_rellich_item_singular_blocks_report_inf(monkeypatch):
    # every block singular: all four constants are reported as inf
    monkeypatch.setattr(boundary, "_min_sv", lambda grid, M, s: 0.0)
    row = cli._rellich_item(_rellich_args())
    for key in ("forward", "inverse", "graph_residual", "factorization_mismatch"):
        assert row[key] == float("inf"), key


def test_norms_factors_once_per_row(tmp_path, monkeypatch):
    calls = []
    eig = np.linalg.eig
    monkeypatch.setattr(np.linalg, "eig", lambda a: calls.append(a.shape) or eig(a))
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"per_family": 1, "N_list": [16, 32]}}))
    assert run(["norms", "--config", str(cfg), "--format", "json", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "norms_report.json").read_text().split("\n", 1)[1])["rows"]
    assert len(rows) == 6
    assert len(calls) == len(rows)


def test_numerical_error_exit_code(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise SubspaceError("outside the + spectral subspace")

    monkeypatch.setattr(cli, "solve_neumann_l2", refuse)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"problem": "neumann", "datum": "cos(x1)"}}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 3

    # an accretivity rejection is numerical too, but a verification failure under verify
    def non_accretive(*args, **kwargs):
        raise NonAccretiveError("not accretive")

    monkeypatch.setattr(cli, "make_family", non_accretive)
    assert run(["verify", "--grid", "8", "--out", str(tmp_path)]) == 1
    assert run(["norms", "--grid", "8", "--out", str(tmp_path)]) == 3
