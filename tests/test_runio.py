"""The JSON writer: every artifact is what ``json.dump(indent=2)`` writes.

``runio`` renders 1-D float arrays with the C encoder and everything else with
the indenting one; the tests hold each artifact to the bytes of
``json.dump(payload, indent=2)`` and a newline, for synthetic payloads and
for every JSON file the commands write.
"""
import json
import math

import numpy as np
import pytest

from ohslab import runio
from ohslab.cli import main

CONFIG = {
    "kernel": {"kind": "power_sum", "theta1": 1.0, "beta": 1.5},
    "grid": {"kind": "uniform", "R": 2.0, "N": 32},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 0.5,
    "record_cadence": 0.05,
    "epsilon": 0.01,
    "sweep": {"cutoffs": [2.0, 3.0], "resolution": 0.0625},
}


def reference(payload):
    """``json.dump(indent=2)`` of the payload with its arrays as lists."""
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in payload.items()}
    return json.dumps(plain, indent=2) + "\n"


@pytest.mark.parametrize("payload", [
    {},
    {"xi": np.array([])},
    {"xi": np.array([0.25])},
    {"xi": np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 1.0 / 3.0])},
    {
        "tool": "ohslab",
        "config": {"kernel": {"kind": "constant", "value": 1.0},
                   "moments": {"orders": [0, 1.5], "truncation_thresholds": []},
                   "check": {}, "sweep": None},
        "edges": np.linspace(0.0, 2.0, 5),
        "flags": [True, False, None],
        "gel_mass": math.nan,
        "note": "multi\nline é",
    },
], ids=["empty", "empty-array", "length-1", "non-finite", "nested"])
def test_writer_is_json_dump_with_indent_2(tmp_path, payload):
    path = tmp_path / "out.json"
    runio.write_json(path, payload)
    assert path.read_bytes() == reference(payload).encode("utf-8")


def test_writer_refuses_what_json_dump_refuses(tmp_path):
    with pytest.raises(TypeError):
        runio.write_json(tmp_path / "out.json", {"counts": np.arange(3)})


def test_every_artifact_is_json_dump_with_indent_2(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    run_dir, sweep_dir = tmp_path / "run", tmp_path / "sweep"
    assert main(["--quiet", "simulate", str(cfg), "--out", str(run_dir)]) == 0
    # at N = 32 the residual checks fail; the report is written all the same
    assert main(["--quiet", "check", str(run_dir)]) == 1
    assert main(["--quiet", "sweep", str(cfg), "--out", str(sweep_dir), "--workers", "1"]) == 0
    written = [
        run_dir / "final_state.json", run_dir / "manifest.json", run_dir / "check_report.json",
        sweep_dir / "sweep.json", sweep_dir / "R3" / "final_state.json",
        sweep_dir / "R3" / "manifest.json",
    ]
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == reference(json.loads(text)), path.name
