import json

import numpy as np
import pytest

from halfspace import boundary, cli, coeffs, operators
from halfspace.cli import ExperimentConfig, build_config, item_seed, main
from halfspace.coeffs import (
    CoefficientField,
    NonAccretiveError,
    hat_involution_error,
    hat_transform,
    make_family,
)
from halfspace.grid import GridSpec
from halfspace.operators import SubspaceError


def run(args):
    return main(args)


def test_config_round_trip():
    cfg = ExperimentConfig(subcommand="verify", N=16, seed=7, options={"per_family": 1})
    doc = cfg.to_json()
    assert ExperimentConfig.from_json(doc) == cfg
    # a second round trip is idempotent
    assert ExperimentConfig.from_json(ExperimentConfig.from_json(doc).to_json()) == cfg


@pytest.mark.parametrize("doc, name", [
    ([1, 2], "JSON object"),
    ({"workers": "2"}, "'workers'"),
    ({"options": 5}, "'options'"),
    ({"L": "x"}, "'L'"),
    ({"L": 0}, "'L'"),
    ({"seed": 1.5}, "'seed'"),
    ({"n": 1.0}, "'n'"),
    ({"force": "no"}, "'force'"),
    ({"N": "x"}, "'N'"),
    ({"N": True}, "'N'"),
    ({"grid": 64}, "'grid'"),
])
def test_malformed_config_document_exit_code(tmp_path, capsys, doc, name):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert run(["rellich", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not list(tmp_path.glob("*_report.*"))


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


def test_norms_worker_count_does_not_change_report(tmp_path):
    base = ["norms", "--grid", "16", "--seed", "3", "--format", "json"]
    assert run(base + ["--out", str(tmp_path / "w1"), "--workers", "1"]) == 0
    assert run(base + ["--out", str(tmp_path / "w2"), "--workers", "2"]) == 0
    a = (tmp_path / "w1" / "norms_report.json").read_text().split("\n", 1)[1]
    b = (tmp_path / "w2" / "norms_report.json").read_text().split("\n", 1)[1]
    assert a == b


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


@pytest.mark.parametrize("sub, options, name", [
    ("verify", {"hat_samples": -5}, "hat_samples"),
    ("verify", {"per_family": 0}, "per_family"),
    ("rellich", {"per_family": -1}, "per_family"),
    ("convergence", {"ladder": [16]}, "ladder"),
    ("convergence", {"band": [1]}, "band"),
    ("rellich", {"per_family": [1]}, "per_family"),
    ("rellich", {"N_list": [[8]]}, "N_list"),
    ("rellich", {"N_list": [16.7]}, "N_list"),
    ("rellich", {"N_list": [True]}, "N_list"),
    ("norms", {"N_list": [8.0]}, "N_list"),
    ("convergence", {"ladder": [[16.7, 64.9]]}, "ladder"),
    ("convergence", {"ladder": [[16, 64, 128]]}, "ladder"),
    ("verify", {"per_family": 1.5}, "per_family"),
    ("verify", {"hat_samples": "10"}, "hat_samples"),
    ("convergence", {"band": True}, "band"),
    ("convergence", {"band": "8"}, "band"),
    ("convergence", {"band": float("inf")}, "band"),
    ("convergence", {"band": 10**400}, "band"),
    ("convergence", {"band": 0}, "band"),
    ("convergence", {"band": 0.5}, "band"),
    ("convergence", {"band": -3}, "band"),
    ("convergence", {"amplitude": "0.3"}, "amplitude"),
    ("convergence", {"amplitude": float("nan")}, "amplitude"),
    ("convergence", {"ladder": [[8, 16]], "amplitude": 1.5}, "amplitude"),
    ("convergence", {"ladder": [[8, 16]], "amplitude": 5}, "amplitude"),
])
def test_bad_counts_exit_code(tmp_path, capsys, sub, options, name):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": options}))
    assert run([sub, "--config", str(cfg), "--grid", "8", "--out", str(tmp_path)]) == 2
    assert name in capsys.readouterr().err
    assert not list(tmp_path.glob("*_report.*"))


def test_zero_hat_samples_skips_the_sweep(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"hat_samples": 0, "per_family": 1,
                                           "families": ["constant"]}}))
    assert run(["verify", "--config", str(cfg), "--grid", "8", "--format", "json",
                "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "verify_report.json").read_text().split("\n", 1)[1])
    assert doc["hat_involution_sweep"] == {"samples": 0, "max_error": 0.0}


@pytest.mark.parametrize("datum", [5, ["cos(x1)"], None, "missing"])
def test_dirichlet_datum_must_be_an_expression(tmp_path, capsys, datum):
    options = {"problem": "dirichlet"}
    if datum != "missing":
        options["datum"] = datum
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": options}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 2
    assert "'datum'" in capsys.readouterr().err
    assert not list(tmp_path.glob("solve_*"))


@pytest.mark.parametrize("coefficients, message", [
    (5, "coefficient spec"),
    ({"kind": "expressions", "entries": 5}, "expression table"),
    ({"kind": "expressions", "entries": [["1", 0], ["0", "1"]]}, "expression table"),
    ({"kind": "family", "family": "piecewise_random", "seed": "x"}, "'seed'"),
    ({"kind": "family", "family": "piecewise_random", "amplitude": "x"}, "'amplitude'"),
    ({"kind": "family", "family": "piecewise_random", "lamb_floor": "x"}, "'lamb_floor'"),
    ({"kind": "family", "family": "piecewise_random", "blocks": "x"}, "'blocks'"),
    ({"kind": "family", "family": "piecewise_random", "blocks": True}, "'blocks'"),
    ({"kind": "family", "family": "piecewise_random", "amplitude": float("nan")}, "'amplitude'"),
    ({"kind": "dump", "path": 5}, "'path'"),
    ({"kind": "dump", "path": "no_such_dump"}, "'path'"),
    ({"kind": "family", "family": "piecewise_random", "blocks": 32}, "'blocks'"),
    ({"kind": "family", "family": "piecewise_random", "blocks": 0}, "'blocks'"),
    ({"kind": "family", "family": "smooth_trig", "amplitude": 5}, "amplitude 5"),
])
def test_malformed_coefficient_spec_exit_code(tmp_path, capsys, coefficients, message):
    options = {"problem": "neumann", "datum": "cos(x1)", "coefficients": coefficients}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": options}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("solve_*"))


@pytest.mark.parametrize("t_grid", [[[1, 2]], [], ["a"], None])
def test_malformed_t_grid_exit_code(tmp_path, capsys, t_grid):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"options": {"problem": "neumann", "datum": "cos(x1)",
                                           "t_grid": t_grid}}))
    assert run(["solve", "--config", str(cfg), "--grid", "16", "--out", str(tmp_path)]) == 2
    assert "'t_grid'" in capsys.readouterr().err
    assert not list(tmp_path.glob("solve_*"))


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


def test_rellich_item_work_count(monkeypatch):
    # one SVD of Gamma_ND gives both constants: the K x K work is the s12
    # floor, that SVD and the mismatch norm, and the Gamma_ND and G2 solves
    K = GridSpec(n=1, N=32, L=2 * np.pi).nmodes
    calls = []

    def counted(name, fn):
        def wrapper(a, *args, **kwargs):
            # a 2-norm of a matrix is its largest singular value
            order = kwargs.get("ord", args[0] if args else None)
            if np.shape(a) == (K, K) and (name != "norm" or order == 2):
                calls.append("solve" if name == "solve" else "svd")
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "solve", "norm"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    row = cli._rellich_item(_rellich_args(N=32))
    assert np.isfinite(row["inverse"]) and row["factorization_mismatch"] < 1e-8
    assert (calls.count("svd"), calls.count("solve")) == (3, 2)


def test_rellich_item_singular_blocks_report_inf(monkeypatch):
    # every block singular: all four constants are reported as inf
    monkeypatch.setattr(boundary, "_min_sv", lambda grid, M, s: 0.0)
    row = cli._rellich_item(_rellich_args())
    for key in ("forward", "inverse", "graph_residual", "factorization_mismatch"):
        assert row[key] == float("inf"), key


@pytest.mark.parametrize("n, N", [(1, 32), (1, 64), (2, 8)])
def test_block_graph_residual_matches_projector_route(n, N):
    # the row applies P- = (I - sgn)/2 block by block; the reference forms
    # P- from the reassembled sign
    for index, family in enumerate(coeffs.FAMILY_KINDS):
        item = {"family": family, "index": index, "rep": 0}
        row = cli._rellich_item((n, 2 * np.pi, 0, item, N))
        grid = GridSpec(n=n, N=N, L=2 * np.pi)
        seed = item_seed(0, index)
        blocks = boundary.build_core(make_family(grid, family, seed=seed), method="newton").blocks
        _, _, G = boundary.rellich_from_blocks(blocks)
        rng = np.random.default_rng(seed + 1)
        f = rng.standard_normal(grid.nmodes) + 1j * rng.standard_normal(grid.nmodes)
        _, Pm = operators.spectral_projectors(
            operators.OperatorMatrix(grid, blocks.reassemble()))
        ref = np.linalg.norm(Pm.matrix @ np.concatenate([f, G @ f])) / np.linalg.norm(f)
        assert abs(row["graph_residual"] - ref) <= 1e-14, family


def test_newton_rows_form_no_dense_S_projectors_or_reassembled_sign(monkeypatch):
    A = make_family(GridSpec(n=1, N=32, L=2 * np.pi), "lower_triangular_random", seed=2)
    ref = boundary.sgn_blocks(operators.assemble_operators(hat_transform(A))[3], "newton")

    def refuse(*args, **kwargs):
        raise AssertionError("a Newton-route row does no 2K x 2K work beyond its sign")

    for module, name in ((operators, "spectral_projectors"), (cli, "spectral_projectors"),
                         (operators, "assemble_S"), (boundary.SgnBlocks, "reassemble")):
        monkeypatch.setattr(module, name, refuse)
    row = cli._rellich_item(_rellich_args())
    assert row["graph_residual"] <= 1e-6
    blocks = boundary.build_core(A, method="newton").blocks
    for name in ("s11", "s12", "s21", "s22"):
        assert getattr(blocks, name).tobytes() == getattr(ref, name).tobytes(), name


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


def _per_field_hat_sweep(grid, bases):
    # the sweep as one constant field per matrix, hat-transformed twice
    worst = 0.0
    for base in bases:
        A = make_family(grid, "constant", base=base)
        worst = max(worst, float(np.max(np.abs(hat_transform(hat_transform(A)).samples
                                               - A.samples))))
    return worst


def _per_matrix_hat_bases(n, master, count):
    # the sweep's matrices drawn, scaled and shifted one at a time
    d = 1 + n
    bases = np.empty((count, d, d), dtype=complex)
    for i in range(count):
        rng = np.random.default_rng(item_seed(master, 10_000 + i))
        P = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        P *= 0.45 * 2.7 / max(np.linalg.norm(P, 2), 1e-300)
        herm_min = float(np.min(np.linalg.eigvalsh(0.5 * (P + P.conj().T))))
        bases[i] = np.eye(d) * (0.6 - min(herm_min, 0)) + P
    return bases


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("seed", [0, 1])
def test_hat_sweep_matches_per_field_route(n, seed):
    bases = cli._hat_sweep_bases(n, seed, 200)
    assert bases.shape == (200, 1 + n, 1 + n)
    # the stacked norms and spectra change no bit of the matrices
    assert np.array_equal(bases, _per_matrix_hat_bases(n, seed, 200))
    reference = _per_field_hat_sweep(GridSpec(n=n, N=8), bases)
    assert hat_involution_error(bases) == reference


@pytest.mark.parametrize("bad, singular_floor, error", [
    (-np.eye(3), None, NonAccretiveError),
    # a = 0 leaves the matrix not strictly accretive, which both routes check first
    (np.diag([0.0, 1.0, 1.0]), None, NonAccretiveError),
    # above the accretivity floor, with a scalar block below a raised
    # singularity floor; every |a| and |1/a| of the other matrices exceeds 0.51
    (np.diag([0.5, 1.0, 1.0]), 0.51, ValueError),
    (np.diag([0.4, 1.0, 1.0]), None, ValueError),  # below the accretivity floor
    (np.full((3, 3), np.nan), None, ValueError),
])
def test_hat_sweep_refuses_as_the_per_field_route(bad, singular_floor, error, monkeypatch):
    if singular_floor is not None:
        monkeypatch.setattr(coeffs, "_SINGULAR_FLOOR", singular_floor)
    bases = cli._hat_sweep_bases(2, 0, 20)
    # the stack passes without the bad matrix
    assert hat_involution_error(bases) == _per_field_hat_sweep(GridSpec(n=2, N=8), bases)
    bases[7] = bad
    with pytest.raises(error):
        hat_involution_error(bases)
    with pytest.raises(error):
        _per_field_hat_sweep(GridSpec(n=2, N=8), bases)


def test_verify_builds_fields_only_for_corpus_items(tmp_path, monkeypatch):
    built, per_item = [], []
    post_init = CoefficientField.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    verify_item = cli._verify_item

    def counting_item(args):
        before = len(built)
        row = verify_item(args)
        per_item.append(len(built) - before)
        return row

    monkeypatch.setattr(CoefficientField, "__post_init__", counting_post_init)
    monkeypatch.setattr(cli, "_verify_item", counting_item)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"n": 2, "options": {"per_family": 1}}))
    assert run(["verify", "--config", str(cfg), "--grid", "8", "--out", str(tmp_path)]) == 0
    # the family, its hat and the hat of that; the hat sweep builds none
    assert len(per_item) == 6 and max(per_item) <= 3
    assert len(built) == sum(per_item)
