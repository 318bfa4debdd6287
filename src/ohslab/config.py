"""Run configuration: construction, validation and JSON (de)serialization.

A run is fully determined by its config; there is no random state anywhere in
the package, so identical configs reproduce identical outputs bit for bit.
The resolved config (all defaults filled in) is what run manifests store.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import grid as grid_mod
from .errors import InvalidInputError
from .kernels import Kernel, kernel_from_config

SCHEMES = ("euler", "heun")

#: Keys a config may carry at the top level; any other key is a typo.
TOP_LEVEL_KEYS = (
    "kernel", "grid", "initial", "t_end", "cfl", "record_cadence", "scheme",
    "moments", "epsilon", "dt_max", "sweep", "check",
)


def _reject_unknown_keys(cfg, allowed, section):
    """Raise InvalidInputError naming any key of ``cfg`` not in ``allowed``."""
    if not isinstance(cfg, dict):
        raise InvalidInputError("%s must be a JSON object" % section)
    unknown = sorted(set(cfg) - set(allowed))
    if unknown:
        raise InvalidInputError(
            "unknown config key %s in %s (allowed: %s)"
            % (", ".join(map(repr, unknown)), section, ", ".join(allowed))
        )


@dataclass(frozen=True)
class GridSpec:
    kind: str = "uniform"
    R: float = 1.0
    N: int = 100
    q: float = None

    def build(self):
        return grid_mod.build(self.kind, self.R, self.N, self.q)

    def to_dict(self):
        out = {"kind": self.kind, "R": self.R, "N": self.N}
        if self.q is not None:
            out["q"] = self.q
        return out

    @classmethod
    def from_dict(cls, cfg):
        _reject_unknown_keys(cfg, ("kind", "R", "N", "q"), "section 'grid'")
        try:
            return cls(
                kind=cfg.get("kind", "uniform"),
                R=float(cfg["R"]),
                N=int(cfg["N"]),
                q=float(cfg["q"]) if "q" in cfg and cfg["q"] is not None else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError("bad grid config %r: %s" % (cfg, exc)) from exc


@dataclass(frozen=True)
class SweepSpec:
    """Cutoff-scaling experiment: rerun at each cutoff R with fixed resolution."""

    cutoffs: tuple
    epsilon: float = None
    resolution: float = None

    def to_dict(self):
        out = {"cutoffs": list(self.cutoffs)}
        if self.epsilon is not None:
            out["epsilon"] = self.epsilon
        if self.resolution is not None:
            out["resolution"] = self.resolution
        return out

    @classmethod
    def from_dict(cls, cfg):
        _reject_unknown_keys(cfg, ("cutoffs", "epsilon", "resolution"), "section 'sweep'")
        try:
            return cls(
                cutoffs=tuple(float(c) for c in cfg.get("cutoffs", ())),
                epsilon=float(cfg["epsilon"]) if "epsilon" in cfg else None,
                resolution=float(cfg["resolution"]) if "resolution" in cfg else None,
            )
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("bad sweep config %r: %s" % (cfg, exc)) from exc


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; seed-free and fully deterministic."""

    kernel: Kernel
    grid: GridSpec
    initial: object
    t_end: float
    cfl: float = 0.5
    record_cadence: float = None
    scheme: str = "euler"
    moment_orders: tuple = (0.0, 1.0, 2.0)
    truncation_thresholds: tuple = ()
    epsilon: float = 0.01
    dt_max: float = None
    sweep: SweepSpec = None
    check: dict = field(default_factory=dict)

    def validate(self):
        if not (np.isfinite(self.t_end) and self.t_end >= 0):
            raise InvalidInputError("t_end must be finite and >= 0")
        if not (0 < self.cfl <= 1):
            raise InvalidInputError("cfl must lie in (0, 1]")
        if self.record_cadence is not None and not self.record_cadence > 0:
            raise InvalidInputError("record cadence must be positive")
        if self.scheme not in SCHEMES:
            raise InvalidInputError("scheme must be one of %s" % (SCHEMES,))
        if not (0 < self.epsilon < 1):
            raise InvalidInputError("gelation threshold epsilon must lie in (0, 1)")
        if self.dt_max is not None and not self.dt_max > 0:
            raise InvalidInputError("dt_max must be positive")
        for m in self.truncation_thresholds:
            if not (0 <= m <= self.grid.R):
                raise InvalidInputError("truncation threshold %g outside [0, R]" % m)
        self.grid.build()  # surfaces grid errors early
        return self

    def resolved(self):
        """Copy with every default made explicit (what manifests record)."""
        self.validate()
        cadence = self.record_cadence
        if cadence is None:
            cadence = self.t_end / 100.0 if self.t_end > 0 else 1.0
        dt_max = self.dt_max
        if dt_max is None:
            dt_max = 1e-2 * self.t_end if self.t_end > 0 else 1.0
        orders = tuple(sorted({0.0, 1.0} | {float(r) for r in self.moment_orders}))
        return replace(
            self,
            record_cadence=cadence,
            dt_max=dt_max,
            moment_orders=orders,
            truncation_thresholds=tuple(float(m) for m in self.truncation_thresholds),
        )

    def to_dict(self):
        out = {
            "kernel": self.kernel.to_config(),
            "grid": self.grid.to_dict(),
            "initial": grid_mod.ic_to_config(self.initial),
            "t_end": self.t_end,
            "cfl": self.cfl,
            "scheme": self.scheme,
            "moments": {
                "orders": list(self.moment_orders),
                "truncation_thresholds": list(self.truncation_thresholds),
            },
            "epsilon": self.epsilon,
        }
        if self.record_cadence is not None:
            out["record_cadence"] = self.record_cadence
        if self.dt_max is not None:
            out["dt_max"] = self.dt_max
        if self.sweep is not None:
            out["sweep"] = self.sweep.to_dict()
        if self.check:
            out["check"] = dict(self.check)
        return out

    @classmethod
    def from_dict(cls, cfg):
        if not isinstance(cfg, dict):
            raise InvalidInputError("config must be a JSON object")
        for key in ("kernel", "grid", "initial", "t_end"):
            if key not in cfg:
                raise InvalidInputError("config is missing required key %r" % key)
        _reject_unknown_keys(cfg, TOP_LEVEL_KEYS, "the top level")
        moments_cfg = cfg.get("moments", {})
        _reject_unknown_keys(
            moments_cfg, ("orders", "truncation_thresholds"), "section 'moments'"
        )
        initial_cfg = cfg["initial"]
        if isinstance(initial_cfg, dict) and initial_cfg.get("kind") in grid_mod.IC_FIELDS:
            allowed = ("kind",) + grid_mod.IC_FIELDS[initial_cfg["kind"]]
            _reject_unknown_keys(initial_cfg, allowed, "section 'initial'")
        try:
            config = cls(
                kernel=kernel_from_config(cfg["kernel"]),
                grid=GridSpec.from_dict(cfg["grid"]),
                initial=grid_mod.ic_from_config(cfg["initial"]),
                t_end=float(cfg["t_end"]),
                cfl=float(cfg.get("cfl", 0.5)),
                record_cadence=(
                    float(cfg["record_cadence"]) if "record_cadence" in cfg else None
                ),
                scheme=cfg.get("scheme", "euler"),
                moment_orders=tuple(
                    float(r) for r in moments_cfg.get("orders", (0, 1, 2))
                ),
                truncation_thresholds=tuple(
                    float(m) for m in moments_cfg.get("truncation_thresholds", ())
                ),
                epsilon=float(cfg.get("epsilon", 0.01)),
                dt_max=float(cfg["dt_max"]) if "dt_max" in cfg else None,
                sweep=SweepSpec.from_dict(cfg["sweep"]) if "sweep" in cfg else None,
                check=dict(cfg.get("check", {})),
            )
        except (TypeError, ValueError) as exc:
            raise InvalidInputError("bad config: %s" % exc) from exc
        return config.validate()


def load_config(path):
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidInputError("cannot read config %s: %s" % (path, exc)) from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError("config %s is not valid JSON: %s" % (path, exc)) from exc
    return SimConfig.from_dict(raw)
