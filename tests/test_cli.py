"""Command-line interface: artifacts, exit codes, determinism, verification."""
import json
import logging
import warnings
from pathlib import Path

import pytest

from ohslab import ConstantKernel, solver
from ohslab import cli
from ohslab.cli import main
from ohslab.config import SimConfig
from ohslab.errors import InvalidInputError
from ohslab.gelation import gelation_time
from ohslab.moments import MomentSeries
from ohslab.runio import read_manifest, read_moments_csv, write_moments_csv
from ohslab.solver import run

ROOT = Path(__file__).resolve().parents[1]

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


def test_the_log_level_follows_each_call_on_one_parser(tmp_path):
    # once the root logger has a handler, basicConfig alone sets no level
    root = logging.getLogger()
    saved = root.level
    cli.build_parser.cache_clear()
    missing = str(tmp_path / "missing.json")
    try:
        for quiet, level in ((True, logging.WARNING), (False, logging.INFO),
                             (True, logging.WARNING)):
            assert main(["--quiet"] * quiet + ["simulate", missing]) == 2
            assert root.level == level
        assert cli.build_parser.cache_info().misses == 1
    finally:
        root.setLevel(saved)


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


def test_the_series_columns_are_the_moments_csv_simulate_writes(tmp_path):
    payload = dict(BAGLAND, grid={"kind": "uniform", "R": 8.0, "N": 64},
                   moments={"orders": [2.5, 0, 3], "truncation_thresholds": [2.0, 0.5]})
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
    columns = run(SimConfig.from_dict(payload)).series.columns()
    stored = read_moments_csv(out / "moments.csv")
    assert list(columns) == list(stored) == [
        "t", "M0", "M1", "M2.5", "M3", "M1_m2", "M1_m0.5", "gel_mass", "clamped_mass",
    ]
    for label, values in columns.items():
        assert values.tobytes() == stored[label].tobytes(), label


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
    assert not (tmp_path / "config").exists()  # the default output directory
    payload = dict(POWERSUM_SWEEP, sweep={"cutoffs": []})
    cfg = write_config(tmp_path, payload, "empty.json")
    assert main(["--quiet", "sweep", str(cfg)]) == 2
    assert not (tmp_path / "empty").exists()


def test_sweep_tree_is_the_same_at_one_and_two_workers(tmp_path):
    cfg = write_config(tmp_path, POWERSUM_SWEEP)
    trees = []
    for workers in ("1", "2"):
        out = tmp_path / ("workers" + workers)
        assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", workers]) == 0
        trees.append({str(p.relative_to(out)): p.read_bytes()
                      for p in sorted(out.rglob("*")) if p.is_file()})
    assert sorted(trees[0]) == [
        "R2/final_state.json", "R2/manifest.json", "R2/moments.csv",
        "R3/final_state.json", "R3/manifest.json", "R3/moments.csv",
        "sweep.csv", "sweep.json",
    ]
    assert trees[0] == trees[1]


def series_from_csv(path):
    """The t, M1 and gel_mass columns of a stored moments.csv as a MomentSeries."""
    data = read_moments_csv(path)
    series = MomentSeries(orders=(1.0,), thresholds=())
    series.rows = [
        [t, m1, gel, 0.0] for t, m1, gel in zip(data["t"], data["M1"], data["gel_mass"])
    ]
    return series


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_rows_are_the_runs_simulate_writes(tmp_path, workers):
    cfg = write_config(tmp_path, dict(POWERSUM_SWEEP, epsilon=0.05))
    out = tmp_path / "sweep"
    assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", workers]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert report["epsilon"] == 0.05
    for name, report_row in zip(("R2", "R3"), report["rows"]):
        row = out / name
        row_config = read_manifest(row / "manifest.json")["config"]
        # one threshold: the row's manifest records the epsilon its t_loss used
        assert row_config["epsilon"] == report["epsilon"]
        stored = series_from_csv(row / "moments.csv")
        assert gelation_time(stored, row_config["epsilon"]) == report_row["t_loss"]
        row_cfg = write_config(tmp_path, row_config, name + ".json")
        sim = tmp_path / ("simulate_" + name)
        assert main(["--quiet", "simulate", str(row_cfg), "--out", str(sim)]) == 0
        for artifact in ("moments.csv", "final_state.json", "manifest.json"):
            assert (sim / artifact).read_bytes() == (row / artifact).read_bytes()


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
    assert by_name["stored_moments_csv"] == "pass"
    assert by_name["holder_inequality"] == "pass"
    assert by_name["moment_residual"] == "pass"
    assert by_name["weak_form_residual"] == "pass"
    assert by_name["certification"] == "skip"  # constant kernel, none configured


def test_check_builds_the_kernel_factors_once(checked_run_dir, tmp_path, monkeypatch):
    calls = []
    separable_terms = ConstantKernel.separable_terms

    def counted(self, mid):
        calls.append(mid.size)
        return separable_terms(self, mid)

    monkeypatch.setattr(ConstantKernel, "separable_terms", counted)
    assert main(["--quiet", "check", str(checked_run_dir), "--out", str(tmp_path)]) == 0
    assert calls == [1024]  # the replay's tables serve every pair sum of the suite


def _copy_run_dir(run_dir, dest, edit_csv):
    """A copy of a run directory whose moments.csv lines pass through edit_csv."""
    dest.mkdir()
    for name in ("manifest.json", "final_state.json"):
        (dest / name).write_bytes((run_dir / name).read_bytes())
    lines = edit_csv((run_dir / "moments.csv").read_text().splitlines())
    (dest / "moments.csv").write_text("\n".join(lines) + "\n")
    return dest


def _edit_middle_row(column, new_value):
    """A moments.csv edit that sets one cell of the middle row."""
    def edit(lines):
        k = lines[0].split(",").index(column)
        mid = len(lines) // 2
        cells = lines[mid].split(",")
        cells[k] = new_value(float(cells[k]))
        lines[mid] = ",".join(cells)
        return lines
    return edit


STORED_COLUMNS = ["t", "M0", "M1", "M2", "M1_m2", "gel_mass", "clamped_mass"]


@pytest.mark.parametrize("column, new_value", [
    *[(column, lambda value: "%.17g" % (value * 1.001 + 1e-6)) for column in STORED_COLUMNS],
    *[(column, lambda value: "nan") for column in STORED_COLUMNS],
    ("gel_mass", lambda value: "-0.5"),  # gel mass can never decrease
], ids=[*STORED_COLUMNS, *["%s-nan" % c for c in STORED_COLUMNS], "gel_mass-negative"])
def test_check_detects_one_tampered_value_in_any_column(
    checked_run_dir, tmp_path, column, new_value
):
    edit = _edit_middle_row(column, new_value)
    tampered = _copy_run_dir(checked_run_dir, tmp_path / "tampered", edit)
    assert main(["--quiet", "check", str(tampered)]) == 1
    report = json.loads((tampered / "check_report.json").read_text())
    failing = [c["name"] for c in report["checks"] if c["status"] == "fail"]
    assert failing == ["stored_moments_csv"]  # the replay itself is sound


@pytest.mark.parametrize("edit, header_matches", [
    (lambda lines: [",".join(line.split(",")[:-1]) for line in lines], False),
    (lambda lines: lines[:-1], True),
], ids=["column_dropped", "row_dropped"])
def test_check_fails_a_stored_csv_that_lacks_a_column_or_row(
    checked_run_dir, tmp_path, edit, header_matches
):
    tampered = _copy_run_dir(checked_run_dir, tmp_path / "tampered", edit)
    assert main(["--quiet", "check", str(tampered)]) == 1
    report = json.loads((tampered / "check_report.json").read_text())
    stored = next(c for c in report["checks"] if c["name"] == "stored_moments_csv")
    assert stored["status"] == "fail"
    assert stored["details"]["header_matches"] is header_matches
    assert stored["details"]["rows_match"] is False


def test_check_rejects_a_stored_csv_row_with_a_missing_cell(checked_run_dir, tmp_path):
    def edit(lines):
        lines[3] = lines[3].rsplit(",", 1)[0]
        return lines

    tampered = _copy_run_dir(checked_run_dir, tmp_path / "tampered", edit)
    with pytest.raises(InvalidInputError, match="line 4 has 6 cells, the header 7"):
        read_moments_csv(tampered / "moments.csv")
    assert main(["--quiet", "check", str(tampered)]) == 2
    assert not (tampered / "check_report.json").exists()


def test_check_passes_on_a_run_whose_domain_empties(tmp_path):
    # the one spike sits in the last cell, so the first step books it all as gel
    payload = {
        "kernel": {"kind": "constant", "value": 1.0},
        "grid": {"kind": "uniform", "R": 2.0, "N": 8},
        "initial": {"kind": "cell_spike", "index": 7, "mass": 1.0},
        "t_end": 1.0,
        "cfl": 1.0,
        "dt_max": 10.0,
        "record_cadence": 0.5,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
    data = read_moments_csv(out / "moments.csv")
    assert list(data["M1"][1:]) == [0.0, 0.0]
    assert main(["--quiet", "check", str(out)]) == 0
    report = json.loads((out / "check_report.json").read_text())
    assert report["passed"]


@pytest.mark.parametrize("command", [
    ["simulate"], ["sweep", "--workers", "1"], ["check"],
], ids=["simulate", "sweep", "check"])
def test_unusable_out_path_is_invalid_input(tmp_path, command, monkeypatch):
    cfg = write_config(tmp_path, POWERSUM_SWEEP)
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    runs = []
    monkeypatch.setattr(solver, "run", lambda *args, **kwargs: runs.append(args))
    for out in (blocker, blocker / "sub"):
        assert main(["--quiet", command[0], str(cfg), "--out", str(out), *command[1:]]) == 2
    assert blocker.read_text() == "not a directory"
    assert runs == []  # the output directory is refused before any run


def test_unmakeable_row_directory_is_invalid_input(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, POWERSUM_SWEEP)
    out = tmp_path / "sweep"
    out.mkdir()
    (out / "R3").write_text("not a directory")
    runs = []
    monkeypatch.setattr(solver, "run", lambda *args, **kwargs: runs.append(args))
    assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", "1"]) == 2
    assert (out / "R3").read_text() == "not a directory"
    assert runs == []  # every row directory is made before any row runs


@pytest.mark.parametrize("command, artifact", [
    (["simulate"], "moments.csv"),
    (["check"], "check_report.json"),
    (["sweep", "--workers", "1"], "sweep.csv"),
], ids=["simulate", "check", "sweep"])
def test_an_unwritable_artifact_is_invalid_input(tmp_path, caplog, command, artifact):
    cfg = write_config(tmp_path, POWERSUM_SWEEP)
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    assert main(["--quiet", command[0], str(cfg), "--out", str(out), *command[1:]]) == 2
    assert str(out / artifact) in caplog.text
    assert not any(record.exc_info for record in caplog.records)


@pytest.mark.parametrize("artifact", ["moments.csv", "manifest.json"])
def test_a_sweep_row_that_cannot_be_written_is_a_failed_row(tmp_path, artifact):
    cfg = write_config(tmp_path, POWERSUM_SWEEP)
    out = tmp_path / "sweep"
    (out / "R2" / artifact).mkdir(parents=True)
    assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", "1"]) == 0
    report = json.loads((out / "sweep.json").read_text())
    assert [row["failed"] for row in report["rows"]] == [True, False]
    assert str(out / "R2" / artifact) in report["rows"][0]["error"]


def test_sweep_row_with_an_invalid_config_is_invalid_input(tmp_path, caplog):
    # the threshold 6 lies inside the base grid [0, 8] but outside row R4's
    payload = dict(BAGLAND, grid={"kind": "uniform", "R": 8.0, "N": 64},
                   moments={"truncation_thresholds": [6.0]}, sweep={"cutoffs": [4.0, 8.0]})
    SimConfig.from_dict(payload)
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "sweep"
    for workers in ("1", "2"):
        caplog.clear()
        assert main(["--quiet", "sweep", str(cfg), "--out", str(out), "--workers", workers]) == 2
        assert "sweep row R4: truncation threshold 6 outside [0, R]" in caplog.text
        assert not out.exists()


@pytest.mark.parametrize("initial", [
    {"kind": "uniform_on", "a": 0.0, "b": 9.0, "mass": 1.0},  # b > R = 8
    {"kind": "cell_spike", "index": 512, "mass": 1.0},  # N = 512 cells
])
def test_initial_data_outside_the_grid_makes_no_directory(tmp_path, initial):
    cfg = write_config(tmp_path, dict(BAGLAND, initial=initial))
    run_dir = tmp_path / "run"
    assert main(["--quiet", "simulate", str(write_config(tmp_path, BAGLAND, "ok.json")),
                 "--out", str(run_dir)]) == 0
    manifest = read_manifest(run_dir / "manifest.json")
    manifest["config"]["initial"] = initial
    (run_dir / "manifest.json").write_text(json.dumps(manifest))
    out = tmp_path / "out"
    for command in (["simulate", str(cfg)], ["check", str(cfg)], ["check", str(run_dir)]):
        assert main(["--quiet", *command, "--out", str(out)]) == 2
        assert not out.exists()
    assert main(["--quiet", "simulate", str(cfg)]) == 2
    assert not (tmp_path / "config").exists()  # the default output directory


def test_moment_order_that_overflows_on_the_grid_is_invalid_input(tmp_path):
    # midpoints**6 overflows on the occupied cells of this grid
    payload = {
        "kernel": {"kind": "constant", "value": 1.0},
        "grid": {"kind": "uniform", "R": 1e55, "N": 64},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 1e55, "mass": 1.0},
        "t_end": 0.1,
        "record_cadence": 0.01,
        "moments": {"orders": [0, 1, 2, 6]},
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="moment order 6 overflows on this grid"):
            SimConfig.from_dict(payload)
        for command in ("simulate", "sweep", "check"):
            assert main(["--quiet", command, str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


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
    # no mass reaches R by t = 0.3, so the boundary terms are 0; the 0.2 gates
    # cover the first-order error at N = 256 (moment 0.068, weak form 0.061)
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


@pytest.mark.parametrize("config", sorted((ROOT / "configs").glob("*.json")),
                         ids=lambda path: path.name)
def test_check_passes_on_every_shipped_config(tmp_path, config):
    # the sweep config's base grid is N = 512: at N = 128 the moment
    # residual's first-order error (0.139) stays above the default 0.05
    assert main(["--quiet", "check", str(config), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "check_report.json").read_text())
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert set(status.values()) <= {"pass", "skip"}
    # only a kernel without growth bounds (bagland's constant) skips, and only these
    assert {name for name, s in status.items() if s == "skip"} <= {
        "certification", "blowup_bounds"
    }


def test_check_rejects_missing_target(tmp_path):
    assert main(["--quiet", "check", str(tmp_path / "nowhere.json")]) == 2


@pytest.mark.parametrize("manifest", ["5", "null", "[1, 2]"])
def test_check_rejects_a_manifest_that_is_not_an_object(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(InvalidInputError, match="is not a JSON object"):
        read_manifest(tmp_path / "manifest.json")
    assert main(["--quiet", "check", str(tmp_path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


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


def test_check_fails_numerically_on_a_pair_sum_that_overflows(tmp_path):
    # the run takes no step, but the check's moment quadratures overflow
    payload = {
        "kernel": {"kind": "constant", "value": 1e300},
        "grid": {"kind": "uniform", "R": 8.0, "N": 64},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1e10},
        "t_end": 0.0,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--quiet", "simulate", str(cfg), "--out", str(out)]) == 0
        # a report left by an earlier check must not outlive the failure
        (out / "check_report.json").write_text(json.dumps({"passed": True}))
        assert main(["--quiet", "check", str(out)]) == 3
    report = json.loads((out / "check_report.json").read_text())
    assert report == {
        "passed": False, "replay_failed": False, "error": "non-finite pair sum",
    }


@pytest.mark.parametrize("R", [1e55, 1e62])
def test_check_fails_numerically_on_a_moment_that_overflows(tmp_path, R):
    # midpoints**6, the Hoelder suite's top order, overflows on either grid:
    # at R = 1e55 on occupied cells, where M^6 would read inf and pass the
    # bound, at R = 1e62 also on empty ones, where it would read NaN
    payload = {
        "kernel": {"kind": "constant", "value": 1.0},
        "grid": {"kind": "uniform", "R": R, "N": 64},
        "initial": {"kind": "uniform_on", "a": 0.0, "b": 1e55, "mass": 1.0},
        "t_end": 0.1,
        "record_cadence": 0.01,
    }
    cfg = write_config(tmp_path, payload)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--quiet", "check", str(cfg), "--out", str(out)]) == 3
    report = json.loads((out / "check_report.json").read_text())
    assert report == {
        "passed": False, "replay_failed": False, "error": "non-finite moment",
    }


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
