"""Command-line interface: artifacts, exit codes, determinism, verification."""
import json

import pytest

from ohslab.cli import main
from ohslab.config import SimConfig
from ohslab.runio import read_manifest, read_moments_csv, write_moments_csv
from ohslab.solver import run

BAGLAND = {
    "kernel": {"kind": "constant", "value": 1.0},
    "grid": {"kind": "uniform", "R": 8.0, "N": 512},
    "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1.0},
    "t_end": 1.0,
    "cfl": 1.0,
    "record_cadence": 0.01,
    "moments": {"orders": [0, 1, 2], "truncation_thresholds": [2.0]},
}

POWERSUM_SWEEP = {
    "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
    "grid": {"kind": "uniform", "R": 2.0, "N": 32},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 1.0,
    "record_cadence": 0.02,
    "epsilon": 0.01,
    "sweep": {"cutoffs": [2.0, 3.0], "resolution": 0.0625},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_simulate_writes_artifacts_and_tracks_oracle(tmp_path):
    cfg = write_config(tmp_path, BAGLAND)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
    data = read_moments_csv(out / "moments.csv")
    assert abs(data["M0"][-1] - 1.0) <= 0.05  # number moment tends to 2/(1+t)
    assert set(data) == {"t", "M0", "M1", "M2", "M1_m2", "gel_mass", "clamped_mass"}
    state = json.loads((out / "final_state.json").read_text())
    assert len(state["xi"]) == 512 and state["t"] == 1.0
    manifest = read_manifest(out / "manifest.json")
    assert manifest["status"] == "ok"
    assert manifest["config"]["record_cadence"] == 0.01  # fully resolved
    assert len(manifest["grid_edges"]) == 513  # explicit edge array


def test_simulate_zero_horizon_single_row(tmp_path):
    payload = dict(BAGLAND, t_end=0.0)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
    data = read_moments_csv(out / "moments.csv")
    assert data["t"].shape == (1,)


def test_simulate_rejects_invalid_config(tmp_path):
    bad = dict(BAGLAND, cfl=1.5)
    cfg = write_config(tmp_path, bad)
    assert main(["--quiet", "simulate", str(cfg)]) == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{ not json")
    assert main(["--quiet", "simulate", str(broken)]) == 2
    assert main(["--quiet", "simulate", str(tmp_path / "missing.json")]) == 2


def test_simulate_numerical_failure_keeps_partial_outputs(tmp_path):
    payload = {
        "kernel": {"kind": "product", "exponent": 200.0},
        "grid": {"kind": "uniform", "R": 1000.0, "N": 8},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 500.0, "mass": 1.0},
        "t_end": 1.0,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 3
    manifest = read_manifest(out / "manifest.json")
    assert manifest["status"] == "failed" and manifest["error"]
    assert read_moments_csv(out / "moments.csv")["t"].shape == (1,)


def test_simulate_deterministic_bytes(tmp_path):
    cfg = write_config(tmp_path, dict(BAGLAND, grid={"kind": "uniform", "R": 8.0, "N": 128}))
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(a)]) == 0
    assert main(["--quiet", "simulate", str(cfg), "--out", str(b)]) == 0
    assert (a / "moments.csv").read_bytes() == (b / "moments.csv").read_bytes()


def test_manifest_round_trip_reproduces_csv(tmp_path):
    cfg = write_config(tmp_path, dict(BAGLAND, grid={"kind": "uniform", "R": 8.0, "N": 128}))
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
    manifest = read_manifest(out / "manifest.json")
    replay = run(SimConfig.from_dict(manifest["config"]))
    write_moments_csv(tmp_path / "replay.csv", replay.series)
    assert (tmp_path / "replay.csv").read_bytes() == (out / "moments.csv").read_bytes()


def test_sweep_writes_table_and_row_directories(tmp_path):
    cfg = write_config(tmp_path, POWERSUM_SWEEP)
    out = tmp_path / "sweep"
    assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", "2"]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "R,N,t_loss,gel_fraction_final"
    assert len(lines) == 3
    t_losses = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(t > 0 for t in t_losses)
    for name in ("R2", "R3"):
        assert (out / name / "moments.csv").exists()
        assert read_manifest(out / name / "manifest.json")["status"] == "ok"
    report = json.loads((out / "sweep.json").read_text())
    assert report["epsilon"] == 0.01
    assert set(report) == {"epsilon", "rows"}
    for row in report["rows"]:
        assert set(row) == {"R", "N", "t_loss", "gel_fraction_final", "failed", "error", "steps"}
        assert row["steps"] > 0


def test_sweep_constant_kernel_leaves_t_loss_empty(tmp_path):
    payload = dict(BAGLAND, grid={"kind": "uniform", "R": 4.0, "N": 64})
    payload["sweep"] = {"cutoffs": [4.0, 8.0]}
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert main(["--quiet", "sweep", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    for line in lines[1:]:
        assert line.split(",")[2] == ""  # not reached


def test_sweep_requires_cutoffs(tmp_path):
    cfg = write_config(tmp_path, BAGLAND)  # no sweep section
    assert main(["--quiet", "sweep", str(cfg)]) == 2
    payload = dict(POWERSUM_SWEEP, sweep={"cutoffs": []})
    cfg = write_config(tmp_path, payload, "empty.json")
    assert main(["--quiet", "sweep", str(cfg)]) == 2


@pytest.fixture(scope="module")
def checked_run_dir(tmp_path_factory):
    """A completed reference run directory for the check command."""
    tmp = tmp_path_factory.mktemp("rundir")
    payload = dict(BAGLAND, grid={"kind": "uniform", "R": 8.0, "N": 1024})
    cfg = write_config(tmp, payload)
    out = tmp / "run"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
    return out


def test_check_passes_on_reference_run_dir(checked_run_dir):
    assert main(["--quiet", "check", str(checked_run_dir)]) == 0
    report = json.loads((checked_run_dir / "check_report.json").read_text())
    assert report["passed"]
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["bookkeeping"] == "pass"
    assert by_name["bookkeeping_stored_csv"] == "pass"
    assert by_name["holder_inequality"] == "pass"
    assert by_name["moment_residual"] == "pass"
    assert by_name["weak_form_residual"] == "pass"
    assert by_name["certification"] == "skip"  # constant kernel, none configured


def test_check_detects_tampered_gel_column(checked_run_dir, tmp_path):
    tampered = tmp_path / "tampered"
    tampered.mkdir()
    for name in ("manifest.json", "final_state.json"):
        (tampered / name).write_bytes((checked_run_dir / name).read_bytes())
    lines = (checked_run_dir / "moments.csv").read_text().splitlines()
    header = lines[0].split(",")
    gel_col = header.index("gel_mass")
    mid = len(lines) // 2
    cells = lines[mid].split(",")
    cells[gel_col] = "-0.5"  # gel mass can never decrease
    lines[mid] = ",".join(cells)
    (tampered / "moments.csv").write_text("\n".join(lines) + "\n")
    assert main(["--quiet", "check", str(tampered)]) == 1
    report = json.loads((tampered / "check_report.json").read_text())
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["bookkeeping_stored_csv"] == "fail"
    assert by_name["bookkeeping"] == "pass"  # the replay itself is sound


def test_check_certification_failure_for_constant_kernel(tmp_path):
    payload = dict(BAGLAND, grid={"kind": "uniform", "R": 4.0, "N": 128})
    payload["check"] = {
        "certification": {"theta1": 1.0, "theta2": 2.0, "beta": 1.5, "gamma": 1.5},
        "moment_residual_tol": 0.2,
        "weak_residual_tol": 0.2,
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--quiet", "check", str(cfg)]) == 1
    report = json.loads((tmp_path / "config" / "check_report.json").read_text())
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["certification"] == "fail"


def test_check_power_sum_config_passes_with_auto_certification(tmp_path):
    # short horizon keeps the gel fraction negligible, so the evolution
    # identities carry no boundary term and the residual gates apply
    payload = {
        "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
        "grid": {"kind": "uniform", "R": 4.0, "N": 256},
        "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
        "t_end": 0.3,
        "record_cadence": 0.01,
        "check": {"moment_residual_tol": 0.2, "weak_residual_tol": 0.2},
    }
    cfg = write_config(tmp_path, payload)
    assert main(["--quiet", "check", str(cfg)]) == 0
    report = json.loads((tmp_path / "config" / "check_report.json").read_text())
    by_name = {c["name"]: c["status"] for c in report["checks"]}
    assert by_name["certification"] == "pass"
    assert by_name["blowup_bounds"] == "pass"


def test_check_rejects_missing_target(tmp_path):
    assert main(["--quiet", "check", str(tmp_path / "nowhere.json")]) == 2


def test_check_failed_run_directory_reports_numerical_failure(tmp_path):
    payload = {
        "kernel": {"kind": "product", "exponent": 200.0},
        "grid": {"kind": "uniform", "R": 1000.0, "N": 8},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 500.0, "mass": 1.0},
        "t_end": 1.0,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 3
    assert main(["--quiet", "check", str(out)]) == 3  # replay fails the same way
    report = json.loads((out / "check_report.json").read_text())
    assert report["replay_failed"] and not report["passed"]


def test_sweep_contains_per_row_failures(tmp_path):
    # the spike cell only exists on the finer grid of the larger cutoff, so
    # the first row fails while the second still lands
    payload = {
        "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
        "grid": {"kind": "uniform", "R": 2.0, "N": 32},
        "initial": {"kind": "cell_spike", "index": 40, "mass": 1.0},
        "t_end": 0.2,
        "record_cadence": 0.05,
        "sweep": {"cutoffs": [2.0, 4.0], "resolution": 0.0625},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in report["rows"]] == [True, False]
    assert report["rows"][0]["error"]
    assert report["rows"][0]["steps"] is None and report["rows"][1]["steps"] > 0
    assert read_manifest(out / "R2" / "manifest.json")["status"] == "failed"
    assert not (out / "R2" / "moments.csv").exists()
    assert (out / "R4" / "moments.csv").exists()

    # when every row fails the sweep itself reports the failure
    payload["initial"]["index"] = 4000
    cfg_bad = write_config(tmp_path, payload, "all_bad.json")
    assert main(["--quiet", "sweep", str(cfg_bad), "--out", str(tmp_path / "s2")]) == 3
