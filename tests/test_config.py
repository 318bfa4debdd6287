"""Config parsing: unknown keys are rejected, per section, with exit code 2."""
import json

import pytest

from ohslab.cli import main
from ohslab.config import SimConfig
from ohslab.errors import InvalidInputError
from ohslab.runio import read_manifest

BASE = {
    "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
    "grid": {"kind": "uniform", "R": 2.0, "N": 32},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 0.2,
    "record_cadence": 0.05,
    "moments": {"orders": [0, 1, 2], "truncation_thresholds": [1.0]},
    "sweep": {"cutoffs": [2.0, 3.0], "resolution": 0.0625},
    # N = 32 is coarse: the residual gates are set for this grid
    "check": {"moment_residual_tol": 0.5, "weak_residual_tol": 0.5},
}


def with_typo(section, key):
    payload = json.loads(json.dumps(BASE))
    target = payload if section is None else payload[section]
    target[key] = 1.0
    return payload


@pytest.mark.parametrize("section, key, where", [
    (None, "record_cadance", "the top level"),
    ("grid", "n", "section 'grid'"),
    ("moments", "order", "section 'moments'"),
    ("sweep", "resolutions", "section 'sweep'"),
    ("initial", "index", "section 'initial'"),
])
def test_unknown_key_is_named_with_its_section(section, key, where):
    with pytest.raises(InvalidInputError) as info:
        SimConfig.from_dict(with_typo(section, key))
    assert repr(key) in str(info.value)
    assert where in str(info.value)


def test_section_that_is_not_an_object_is_invalid_input():
    payload = dict(BASE, grid=[2.0, 32])
    with pytest.raises(InvalidInputError):
        SimConfig.from_dict(payload)


def test_record_cadence_typo_exits_with_invalid_input(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(with_typo(None, "record_cadance")))
    assert main(["--quiet", "simulate", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_written_manifests_still_load(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BASE))
    run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
    assert main(["--quiet", "simulate", str(path), "--out", str(run_dir)]) == 0
    assert main(["--quiet", "sweep", str(path), "--out", str(sweep_dir), "--workers", "1"]) == 0
    for target in (run_dir, sweep_dir / "R2", sweep_dir / "R3"):
        SimConfig.from_dict(read_manifest(target / "manifest.json")["config"])
        assert main(["--quiet", "check", str(target)]) == 0
