"""Every artifact the commands write keeps its bytes.

The test writes the artifacts of eight small commands, one of them a run
that fails, and compares the sha256 of each file with the digest recorded
here.  A change that alters an
artifact on purpose updates its digest below and names the file in
CHANGES.md; any other change must leave every digest as it is.
"""
import hashlib
import json
from pathlib import Path

from ohslab.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: The heun_geometric benchmark workload's config, at N = 128.
HEUN_GEOMETRIC = {
    "kernel": {"kind": "mass_conserving", "theta1": 1.0, "beta": 1.5, "psi": "min", "K": 0.5},
    "grid": {"kind": "geometric", "R": 16.0, "N": 128, "q": 1.003},
    "initial": {"kind": "uniform_on", "a": 0.5, "b": 1.0, "mass": 1.0},
    "t_end": 2.0,
    "cfl": 1.0,
    "record_cadence": 0.01,
    "scheme": "heun",
}

#: The same run recording more orders and tails that start off the summation
#: chain: one inside the initial support, one above it and one at the cutoff.
HEUN_TAILS = dict(HEUN_GEOMETRIC, moments={
    "orders": [0, 1, 2, 2.5, 5], "truncation_thresholds": [0.75, 1.5, 16],
})

#: A run whose t = 0 record overflows: M2 of a mass of 5e307 on [7, 8].  It
#: fails there with "non-finite moment" (exit 3), its one row recorded.
OVERFLOW = {
    "kernel": {"kind": "constant", "value": 0.0},
    "grid": {"kind": "uniform", "R": 8.0, "N": 16},
    "initial": {"kind": "uniform_on", "a": 7.0, "b": 8.0, "mass": 5e307},
    "t_end": 1.0,
}

#: A constant kernel checked against a growth sandwich it breaks at 3086 of
#: the default lattice's 4096 points; the check lists the first 32 (exit 1).
FAILED_CERTIFICATION = {
    "kernel": {"kind": "constant", "value": 1.0},
    "grid": {"kind": "uniform", "R": 4.0, "N": 64},
    "initial": {"kind": "uniform_on", "a": 0.0, "b": 1.0, "mass": 1.0},
    "t_end": 0.1,
    "record_cadence": 0.01,
    "check": {"certification": {"theta1": 1, "theta2": 2, "beta": 1.5}},
}

#: {path under the output root: sha256 of its bytes}
DIGESTS = {
    "bagland/check_report.json":
        "14161bc77d06015eed3e2489cfb74d67ef718a3b7201090dcfa6ac19beb36455",
    "bagland/final_state.json":
        "ba950b16061aa6f329c22eddab1838e9a863ddfc2d63e8efe2426954620c13f3",
    "bagland/manifest.json":
        "05b81ffc71204b449ffbd5be9a01d4167f78b8ff9f3d52b5290a69b4f8c4db8e",
    "bagland/moments.csv":
        "22cc26f52d641fcfc77e15a0c149fc6e1f74e169de11ca45ec813ad120179e47",
    "certification/check_report.json":
        "366a1a6cd3b4bac0df8103796f502318b2e227619e32b295285ed8f156f30f3d",
    "heun/final_state.json":
        "474fb2d7b3df521ff2edb9d87e4b887a145172629c52bccc591f6c5cd7056f25",
    "heun/manifest.json":
        "a1ce86513a50ca60dbe0e490ff4c914b50e9e84dea6b98e36ecc1e9f22fefbce",
    "heun/moments.csv":
        "9c077235568c2e2f501e20baf7ebca51068d95c4d013cd91ba89832c0ad4f335",
    "heun_tails/check_report.json":
        "ddf84853b7e17a2d4bf5beb0710a0f5c2832c93812dc0ee1ec20172c5680e3f2",
    "heun_tails/final_state.json":
        "474fb2d7b3df521ff2edb9d87e4b887a145172629c52bccc591f6c5cd7056f25",
    "heun_tails/manifest.json":
        "6e7f190b3543deade50992197c1454469f247ad8dd60ecc72b04cda9fbc0ba90",
    "heun_tails/moments.csv":
        "ca276a991e12fce002d55c71fb4ca83305293528c4402da71b9914bf40c331d2",
    "overflow/final_state.json":
        "e89dc3dd6e7e9ab5d05c1065d3d7567152acd36a955c59c7a93a417d7f797c61",
    "overflow/manifest.json":
        "00d50c99a14d6ff2ee49ee7aad8a94a8ee69ac93d1891b37d195bb1728dae7ee",
    "overflow/moments.csv":
        "825b8ac62a638ae2dab7db4a3cf6273d43aa6f4a6c0fb6be3a5218bb2b9411a6",
    "sweep/R16/final_state.json":
        "f1f3f0f1848dbc0bcab98d587da92cc8a7476c7b9988db86905d0a1115731b3a",
    "sweep/R16/manifest.json":
        "14325a1f703579a4ec6254fb0ee8fdeae63aaee8e2ba7a367ec64b831def4812",
    "sweep/R16/moments.csv":
        "910933a22c08db30fd6033da97a5a7eca0ee35c3ca9617e44fe1be3cf51521bc",
    "sweep/R32/final_state.json":
        "3f82e511095e8b0054f13cb92cb7de06d479a086b600721f6675e3f28ab9ec08",
    "sweep/R32/manifest.json":
        "7132b6ff888800755c001c5863593f1d880adfb57472eb0f823d1e6770634c7e",
    "sweep/R32/moments.csv":
        "c83e87657e97f32e44c7ec44f1eba7fe8b332ff19491e6e7b869b25f784b788a",
    "sweep/R4/final_state.json":
        "8e39c917774c50e00ba72a3a73af9a83b5b133b9c1f3a68e395d02b2f51a85bc",
    "sweep/R4/manifest.json":
        "5eb137c6b8c8032475b6e3d4870e1e12fad630f8d38fef678869cec9263be7f5",
    "sweep/R4/moments.csv":
        "a27379b6394cb0b2d57be5475a4904d6050cf5e3e02cb59d04968e3fe4bd93fe",
    "sweep/R8/final_state.json":
        "730aae0adca36aa70262d250065cd6d68f0cefa473bb8afb2b1b5615bfa97593",
    "sweep/R8/manifest.json":
        "ec11c5d8bd8c1dd00668e259523c26efe56570f9ecb2d8b5fd0af8e6cb9ac9e6",
    "sweep/R8/moments.csv":
        "8aa941e4c498bcbd27a460ccf36530c966170a5978f4ecbaa4774a933df87880",
    "sweep/sweep.csv":
        "8987ae0d18b1122bd0db3bca3d0444488308ee147d7e8c9f4a895ebf84068a23",
    "sweep/sweep.json":
        "1b6d3887a086f87d8f3b4e3248ee093312f7578de5531fe45f478d781c88c6fd",
}

#: The exit code of each command of ``write_artifacts``, by its name there.
EXIT_CODES = {"bagland": 0, "bagland_check": 1, "sweep": 0, "heun": 0,
              "heun_tails": 0, "heun_tails_check": 1, "overflow": 3, "certification": 1}


def shipped(name, **changes):
    """A shipped config with its top-level sections updated by ``changes``."""
    cfg = json.loads((ROOT / "configs" / name).read_text(encoding="utf-8"))
    for key, value in changes.items():
        cfg[key] = dict(cfg.get(key) or {}, **value)
    return cfg


def write_artifacts(root):
    """Run each command, writing into ``root``; {command name: exit code}."""
    configs = {
        "bagland": shipped("bagland.json", grid={"N": 256}),
        "sweep": shipped("gelation_sweep.json", sweep={"resolution": 0.125}),
        "heun": HEUN_GEOMETRIC,
        "heun_tails": HEUN_TAILS,
        "overflow": OVERFLOW,
        "certification": FAILED_CERTIFICATION,
    }
    for name, cfg in configs.items():
        (root / (name + ".json")).write_text(json.dumps(cfg), encoding="utf-8")
    commands = {
        "bagland": ["simulate", str(root / "bagland.json"), "--out", str(root / "bagland")],
        "bagland_check": ["check", str(root / "bagland")],
        "sweep": ["sweep", str(root / "sweep.json"), "--out", str(root / "sweep"),
                  "--workers", "1"],
        "heun": ["simulate", str(root / "heun.json"), "--out", str(root / "heun")],
        "heun_tails": ["simulate", str(root / "heun_tails.json"),
                       "--out", str(root / "heun_tails")],
        "heun_tails_check": ["check", str(root / "heun_tails")],
        "overflow": ["simulate", str(root / "overflow.json"), "--out", str(root / "overflow")],
        "certification": ["check", str(root / "certification.json"),
                          "--out", str(root / "certification")],
    }
    return {name: main(["--quiet", *argv]) for name, argv in commands.items()}


def digests(root):
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.parent != root
    }


def test_every_artifact_keeps_its_bytes(tmp_path):
    codes = write_artifacts(tmp_path)
    assert codes == EXIT_CODES
    found = digests(tmp_path)
    # every file whose digest differs, is missing or is extra, by name
    moved = sorted(path for path in DIGESTS.keys() | found.keys()
                   if found.get(path) != DIGESTS.get(path))
    assert moved == [], "artifacts whose bytes moved: " + ", ".join(moved)
