import json
import os

import numpy as np
import pytest

from fslab.cli import ESTIMATE_ACCEPTANCE_KINDS, _build_parser, main
from fslab.fslb_io import read_fslb, write_fslb
from fslab.norms import InputFamily

CFG = """
grid: {{n: 2, m: 16, box_length: 6.283185307179586}}
time: {{t_half: 2.0, frames: 32}}
equation: {{s: 0.75}}
picard: {{max_iterations: 15, tolerance: 1.0e-9, quadrature: simpson, epsilon: 0.01}}
initial_data: {{kind: gaussian_spectrum, seed: 3}}
output: {{directory: {out}}}
"""


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_solve_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CFG.format(out=out))
    assert main(["solve", "--config", str(cfg)]) == 0
    assert (out / "solution.fslb").exists()
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is True
    arr = read_fslb(out / "solution.fslb")
    assert arr.shape == (32, 16, 16)


def test_solve_missing_config(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_solve_bad_config(tmp_path):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("grid: {n: 2, m: 12}\n")  # m not a power of two
    assert main(["solve", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("section, body", [
    ("picard", "picard: {tolerence: 1.0e-3}\n"),
    ("grid", "grid: {n: 2, mm: 16}\n"),
    ("top level", "picard: {}\nouptut: {directory: out}\n"),
    ("nonlinearity.terms[]", "nonlinearity: {terms: [{beta: 0.5, coef: 1.0}]}\n"),
])
def test_solve_unknown_config_key(tmp_path, capsys, section, body):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(body)
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"in config section '{section}'" in err
    assert not (tmp_path / "solve_report.json").exists()


def test_solve_malformed_yaml(tmp_path, capsys):
    cfg = tmp_path / "broken.yaml"
    cfg.write_text("grid: {n: 2, m: 16\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not valid YAML" in capsys.readouterr().err


def test_solve_missing_initial_data_file(tmp_path, capsys):
    cfg = tmp_path / "file.yaml"
    cfg.write_text(f"initial_data: {{kind: file, path: {tmp_path / 'ghost.fslb'}}}\n")
    assert main(["solve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "initial data file not found" in capsys.readouterr().err


def test_solve_overflow_exits_1(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "big.yaml"
    cfg.write_text(CFG.format(out=out).replace("epsilon: 0.01", "epsilon: 1000.0"))
    assert main(["solve", "--config", str(cfg)]) == 1
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is False
    # the partial report traces every iteration, the overflowing one last
    trace = report["trace"]
    assert [entry["finite"] for entry in trace] == [True] * (len(trace) - 1) + [False]
    assert trace[-1]["fsigma_s"] is None


def test_solve_report_traces_every_iteration(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(CFG.format(out=out))
    assert main(["solve", "--config", str(cfg)]) == 0
    report = json.loads((out / "solve_report.json").read_text())
    trace = report["trace"]
    assert [entry["iteration"] for entry in trace] == list(range(1, report["iterations"] + 1))
    assert [entry["diff_linf_l2"] for entry in trace] == report["diff_linf_l2"]
    assert [entry["contraction_ratio"] for entry in trace[1:]] == report["contraction_ratios"]
    assert trace[0]["contraction_ratio"] is None
    for entry in trace:
        assert entry["finite"] is True
        assert entry["step_s"] > 0.0 and entry["fsigma_s"] > 0.0


def test_verify_nprops_writes_report(tmp_path):
    out = tmp_path / "reports"
    rc = main(["verify", "nprops", "--s", "0.75", "--k", "6",
               "--samples", "2000", "--out", str(out)])
    assert rc == 0
    doc = json.loads((out / "nprops_report.json").read_text())
    assert doc["check_id"] == "n_properties"
    assert doc["passed"] is True


def test_verify_estimates_runs_the_given_dimension(tmp_path):
    rc = main(["verify", "estimates", "--n", "4", "--draws", "1", "--out", str(tmp_path)])
    assert rc in (0, 1)
    for kind in ESTIMATE_ACCEPTANCE_KINDS:
        family = json.loads((tmp_path / f"estimate_{kind}_report.json").read_text())[
            "params"]["family"]
        assert family["n"] == 4 and family["m"] == 8 and family["shells"] == [1, 2]
        assert family["t_half"] == (2.0 if kind == "inhomogeneous" else 1.0)


def test_parser_is_built_once_and_parses_each_call_afresh(tmp_path, capsys):
    fresh_help = _build_parser.__wrapped__().format_help()
    assert main(["verify", "norms", "--seed", "3", "--out", str(tmp_path / "a")]) == 0
    assert main(["report", "--dir", str(tmp_path / "a"),
                 "--out", str(tmp_path / "summary.json")]) == 0
    assert main(["verify", "norms", "--out", str(tmp_path / "b")]) == 0
    assert _build_parser.cache_info().misses <= 1
    # the second verify ran at the default seed, not at the first call's
    assert json.loads((tmp_path / "a" / "norms_report.json").read_text())["seed"] == 3
    assert json.loads((tmp_path / "b" / "norms_report.json").read_text())["seed"] == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == fresh_help


def test_verify_norms_suite(tmp_path):
    rc = main(["verify", "norms", "--out", str(tmp_path)])
    assert rc == 0


def test_norms_subcommand_pipeline(tmp_path):
    fam = InputFamily(n=2, m=16, num_frames=32, shells=(2,))
    rng = np.random.default_rng(0)
    traj = fam.free(rng, 2, 0.75)
    path = tmp_path / "traj.fslb"
    write_fslb(path, traj.values)
    out = tmp_path / "norm.json"
    rc = main(["norms", "--in", str(path), "--kind", "xk", "--k", "2",
               "--s", "0.75", "--dt", str(fam.dt), "--t0", str(fam.t0),
               "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "xk"
    assert np.isfinite(doc["value"])


@pytest.mark.parametrize("kind", ["yk", "mixed"])
@pytest.mark.parametrize("axis", ["-1", "2"])
def test_norms_axis_out_of_range_exits_2(tmp_path, capsys, kind, axis):
    fam = InputFamily(n=2, m=16, num_frames=32, shells=(2,))
    path = tmp_path / "traj.fslb"
    write_fslb(path, fam.free(np.random.default_rng(0), 2, 0.75, cone_axis=1).values)
    rc = main(["norms", "--in", str(path), "--kind", kind, "--k", "2", "--e-axis", axis])
    assert rc == 2
    assert f"axis index {axis} out of range for n = 2" in capsys.readouterr().err


def test_norms_missing_input(tmp_path):
    assert main(["norms", "--in", str(tmp_path / "ghost.fslb"),
                 "--kind", "xk", "--k", "2"]) == 2


def test_report_aggregation(tmp_path):
    good = {"check_id": "a", "passed": True, "cstar": 1.0}
    bad = {"check_id": "b", "passed": False, "cstar": None}
    (tmp_path / "a.json").write_text(json.dumps(good))
    (tmp_path / "b.json").write_text(json.dumps(bad))
    out = tmp_path / "summary.json"
    rc = main(["report", "--dir", str(tmp_path), "--out", str(out)])
    assert rc == 1  # one failing report
    summary = json.loads(out.read_text())
    assert summary["total"] == 2
    assert summary["failed"] == 1


def test_report_missing_dir(tmp_path):
    assert main(["report", "--dir", str(tmp_path / "none")]) == 2
