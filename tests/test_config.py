"""Config parsing: unknown keys are rejected, per section, with exit code 2."""
import json
import re
from dataclasses import replace
from pathlib import Path

import pytest

from ohslab.cli import main
from ohslab.config import MomentSpec, SimConfig
from ohslab.errors import InvalidInputError
from ohslab.kernels import CertificationParams
from ohslab.runio import read_manifest

ROOT = Path(__file__).resolve().parents[1]

BASE = {
    "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
    "grid": {"kind": "uniform", "R": 2.0, "N": 32},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 0.2,
    "record_cadence": 0.05,
    "moments": {"orders": [0, 1, 2], "truncation_thresholds": [1.0]},
    "sweep": {"cutoffs": [2.0, 3.0], "resolution": 0.0625},
    # N = 32 is coarse: the residual gates are set for this grid
    "check": {
        "certification": {"theta1": 1.0, "beta": 1.5},
        "moment_residual_tol": 0.5,
        "weak_residual_tol": 0.5,
    },
}


def with_typo(section, key):
    """BASE with ``key`` added to the dotted ``section`` (None: the top level)."""
    payload = json.loads(json.dumps(BASE))
    target = payload
    for name in section.split(".") if section else ():
        target = target[name]
    target[key] = 1.0
    return payload


@pytest.mark.parametrize("section, key, where", [
    (None, "record_cadance", "the top level"),
    ("grid", "n", "section 'grid'"),
    ("moments", "order", "section 'moments'"),
    ("sweep", "resolutions", "section 'sweep'"),
    ("initial", "index", "section 'initial'"),
    ("kernel", "theta", "section 'kernel'"),
    ("check", "moment_residual_tolerance", "section 'check'"),
    ("check.certification", "gama", "section 'check.certification'"),
])
def test_unknown_key_is_named_with_its_section(section, key, where):
    with pytest.raises(InvalidInputError) as info:
        SimConfig.from_dict(with_typo(section, key))
    assert repr(key) in str(info.value)
    assert where in str(info.value)


@pytest.mark.parametrize("key, value, where", [
    ("grid", {"kind": "uniform", "R": 2.0, "N": 32.9}, "section 'grid'"),
    ("grid", {"kind": "uniform", "R": 2.0, "N": "32"}, "section 'grid'"),
    ("grid", {"kind": "uniform", "R": 2.0, "N": True}, "section 'grid'"),
    ("grid", {"kind": "uniform", "R": "2.0", "N": 32}, "section 'grid'"),
    ("grid", {"kind": "uniform", "R": 2.0, "N": 10**400}, "section 'grid'"),
    ("initial", {"kind": "cell_spike", "index": 1.7, "mass": 1.0}, "section 'initial'"),
    ("kernel", {"kind": "constant", "value": False}, "section 'kernel'"),
    ("moments", {"orders": "012"}, "section 'moments'"),
    ("moments", {"orders": [0, 1, True]}, "section 'moments'"),
    ("t_end", "1.0", "the top level"),
    ("t_end", True, "the top level"),
])
def test_numbers_are_not_coerced_from_other_types(tmp_path, key, value, where):
    payload = dict(BASE, **{key: value})
    with pytest.raises(InvalidInputError) as info:
        SimConfig.from_dict(payload)
    assert where in str(info.value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["--quiet", "simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep", [
    {"cutoffs": [8.0, 4.0]},
    {"cutoffs": [2.0, 3.0], "resolution": 0},
    {"cutoffs": [2.0, 3.0], "epsilon": 1.5},  # an unknown key: epsilon is top-level only
    {"cutoffs": [4.0, float("inf")]},
    {"cutoffs": [4.0, float("nan")]},
    {"cutoffs": [-1.0, 4.0]},
    {"cutoffs": [0.0, 4.0]},
    {"cutoffs": [2.0, 3.0], "resolution": float("inf")},
    {},
])
def test_bad_sweep_section_exits_with_invalid_input_at_load(tmp_path, sweep):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(BASE, sweep=sweep)))
    for command in (["simulate", str(path)], ["sweep", str(path), "--workers", "1"],
                    ["check", str(path)]):
        assert main(["--quiet", *command, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section, value, message", [
    ("initial", {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 0.0},
     "initial mass must be positive"),
    ("initial", {"kind": "uniform_on", "a": 1.0, "b": 1.0, "mass": 1.0},
     "uniform_on needs 0 <= a < b"),
    ("initial", {"kind": "uniform_on", "a": 1.0, "b": 0.5, "mass": 1.0},
     "uniform_on needs 0 <= a < b"),
    ("initial", {"kind": "table", "edges": [0.5, 1.0, 1.5], "values": [1.0, -0.5]},
     "table values must be finite and nonnegative"),
    ("initial", {"kind": "table", "edges": [0.5, 1.0, 1.0], "values": [1.0, 0.5]},
     "table edges must be strictly increasing"),
    ("initial", {"kind": "table", "edges": [-0.5, 1.0], "values": [1.0]},
     "table edges must be strictly increasing from at least 0"),
    ("initial", {"kind": "cell_spike", "index": -1, "mass": 1.0},
     "cell_spike index -1 out of range"),
    ("grid", {"kind": "uniform", "R": 8.0, "N": 64, "q": 1.01},
     "grid ratio q applies only to a geometric grid"),
    ("moments", {"orders": [0, 1, float("nan")]}, "moment orders must be finite"),
    ("moments", {"orders": [float("inf")]}, "moment orders must be finite"),
    ("moments", {"orders": [2, float("-inf")]}, "moment orders must be finite"),
    ("moments", {"truncation_thresholds": [2.0, 2.0]}, "truncation thresholds must be distinct"),
    ("moments", {"truncation_thresholds": [0.5, 1, 1.0]},
     "truncation thresholds must be distinct"),
    # labels keep six significant digits; 0 and 1 are always recorded
    ("moments", {"orders": [2, 2.0000001]}, "give the column M2 more than once"),
    ("moments", {"orders": [1.0000001]}, "give the column M1 more than once"),
    ("moments", {"truncation_thresholds": [1.0, 1.0000001]},
     "give the column M1_m1 more than once"),
    # both rows would write the directory R4
    ("sweep", {"cutoffs": [4.0, 4.0000001]}, "give the row directory R4 more than once"),
    # numpy refuses 7.11 PiB before it allocates anything
    ("grid", {"kind": "uniform", "R": 2.0, "N": 10**15}, "does not fit in memory"),
    ("grid", {"kind": "geometric", "R": 2.0, "N": 10**15, "q": 1.0 + 1e-15},
     "does not fit in memory"),
    # top-level keys
    ("cfl", 0.0, "cfl must lie in (0, 1]"),
    ("cfl", 1.5, "cfl must lie in (0, 1]"),
    ("scheme", "rk4", "scheme must be one of ('euler', 'heun')"),
    ("t_end", -1.0, "t_end must be finite and >= 0"),
    ("epsilon", 0.0, "gelation threshold epsilon must lie in (0, 1)"),
    ("epsilon", 1.0, "gelation threshold epsilon must lie in (0, 1)"),
    ("dt_max", 0.0, "dt_max must be positive"),
    ("record_cadence", 0.0, "record cadence must be positive"),
])
def test_bad_section_exits_with_invalid_input_at_load(tmp_path, section, value, message):
    payload = dict(BASE, **{section: value})
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        SimConfig.from_dict(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for command in (["simulate", str(path)], ["sweep", str(path), "--workers", "1"],
                    ["check", str(path)]):
        assert main(["--quiet", *command, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("check", [
    {"moment_residual_tol": -1.0},
    {"moment_residual_tol": 0.0},
    {"weak_residual_tol": -0.5},
    {"weak_residual_tol": float("nan")},
    {"moment_residual_tol": float("inf")},
])
def test_bad_check_tolerance_exits_with_invalid_input_before_replay(tmp_path, check):
    payload = dict(BASE, check=check)
    with pytest.raises(InvalidInputError, match="check tolerances must be finite and > 0"):
        SimConfig.from_dict(payload)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    assert main(["--quiet", "check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_sim_config_checks_itself_when_built():
    cfg = SimConfig.from_dict(BASE)
    with pytest.raises(InvalidInputError, match=re.escape("cfl must lie in (0, 1]")):
        SimConfig(kernel=cfg.kernel, grid=cfg.grid, initial=cfg.initial, t_end=1.0, cfl=1.5)
    with pytest.raises(InvalidInputError, match="truncation threshold 3 outside"):
        replace(cfg, grid=replace(cfg.grid, R=2.0), moments=MomentSpec((2.0,), (3.0,)))


def test_sim_config_fills_in_its_defaults_when_built():
    cfg = SimConfig.from_dict(dict(BASE, t_end=2.0, record_cadence=None))
    assert (cfg.record_cadence, cfg.dt_max) == (0.02, 0.02)
    assert cfg.moments == MomentSpec((0.0, 1.0, 2.0), (1.0,))
    zero = SimConfig.from_dict(dict(BASE, t_end=0, record_cadence=None))
    assert (zero.record_cadence, zero.dt_max) == (1.0, 1.0)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    longer = replace(cfg, t_end=4.0, record_cadence=None)
    assert (longer.record_cadence, longer.dt_max) == (0.04, 0.02)  # dt_max is kept


def test_integral_numbers_load_as_int_and_float():
    payload = dict(BASE, grid={"kind": "uniform", "R": 2, "N": 32.0}, t_end=1)
    cfg = SimConfig.from_dict(payload)
    assert (cfg.grid.R, cfg.grid.N, cfg.t_end) == (2.0, 32, 1.0)
    assert type(cfg.grid.N) is int and type(cfg.grid.R) is type(cfg.t_end) is float


def test_section_that_is_not_an_object_is_invalid_input():
    payload = dict(BASE, grid=[2.0, 32])
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict(payload)


def test_check_section_defaults():
    check = SimConfig.from_dict(BASE).check
    assert check.certification == CertificationParams(
        theta1=1.0, theta2=1.0, beta=1.5, gamma=1.5
    )
    default = SimConfig.from_dict(dict(BASE, check={})).check
    assert (default.certification, default.moment_residual_tol) == (None, 0.05)


def test_record_cadence_typo_exits_with_invalid_input(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(with_typo(None, "record_cadance")))
    assert main(["--quiet", "simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_check_section_typo_exits_with_invalid_input_before_replay(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(with_typo("check", "moment_residual_tolerance")))
    assert main(["--quiet", "check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_readme_schema_and_shipped_configs_load():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### Config schema\s+```jsonc\n(.*?)```", readme, re.S).group(1)
    SimConfig.from_dict(json.loads(re.sub(r"//[^\n]*", "", block)))
    paths = sorted((ROOT / "configs").glob("*.json"))
    assert paths
    for path in paths:
        SimConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))


def test_written_manifests_still_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
    assert main(["--quiet", "simulate", str(path), "--out", str(run_dir)]) == 0
    assert main(["--quiet", "sweep", str(path), "--out", str(sweep_dir), "--workers", "1"]) == 0
    for target in (run_dir, sweep_dir / "R2", sweep_dir / "R3"):
        SimConfig.from_dict(read_manifest(target / "manifest.json")["config"])
        assert main(["--quiet", "check", str(target)]) == 0
