"""Run configuration: construction, validation and JSON (de)serialization.

A run is fully determined by its config; there is no random state anywhere in
the package, so identical configs reproduce identical outputs bit for bit.

Every config section is a frozen dataclass whose fields are the section's
JSON keys, with their defaults.  ``from_section`` reads any of them from a
JSON mapping and ``to_section`` writes it back, so each key is declared once.
Each section checks its values when it is built, and ``SimConfig`` also fills
in the defaults that depend on other keys, so every config object is valid
and resolved: the code that runs it checks nothing again, and run manifests
store it as it is.  Among its checks, ``SimConfig`` rejects moment orders or
thresholds whose moments.csv columns, ``moments.moment_labels``, would share
a label.
"""
from __future__ import annotations

import json
import numbers
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from . import grid as grid_mod
from .errors import InvalidInputError
from .grid import INITIAL_KINDS, InitialCondition
from .kernels import KERNEL_KINDS, CertificationParams, Kernel
from .moments import moment_labels

SCHEMES = ("euler", "heun")


def row_label(R):
    """The directory of the sweep row at cutoff R; ``%g`` keeps six significant
    digits, so ``SweepSpec`` rejects cutoffs that share one."""
    return "R%g" % R


def _require_distinct(labels, what):
    """Raise unless every label occurs once; ``what`` names the label's source and kind."""
    repeated = sorted({label for label in labels if labels.count(label) > 1})
    if repeated:
        raise InvalidInputError("%s %s more than once" % (what, ", ".join(repeated)))


def _recorded_orders(orders):
    """The moment orders a run records: the configured ones, 0 and 1, sorted."""
    return tuple(sorted({0.0, 1.0} | {float(r) for r in orders}))


@dataclass(frozen=True)
class GridSpec:
    """Section "grid"; R and N are required."""

    kind: str = "uniform"
    R: float = None
    N: int = None
    q: float = None

    def __post_init__(self):
        if self.R is None or self.N is None:
            raise InvalidInputError("grid needs both 'R' and 'N'")

    def build(self):
        return grid_mod.build(self.kind, self.R, self.N, self.q)


@dataclass(frozen=True)
class MomentSpec:
    """Section "moments": recorded moment orders and tail thresholds."""

    orders: tuple = (0.0, 1.0, 2.0)
    truncation_thresholds: tuple = ()


@dataclass(frozen=True)
class SweepSpec:
    """Cutoff-scaling experiment: rerun at each cutoff R with fixed resolution."""

    cutoffs: tuple
    resolution: float = None

    def __post_init__(self):
        R = np.asarray(self.cutoffs, dtype=float)
        if not (R.size and np.all(np.isfinite(R) & (R > 0))):
            raise InvalidInputError("sweep cutoffs must be a non-empty list of finite values > 0")
        if np.any(np.diff(R) <= 0):
            raise InvalidInputError("sweep cutoffs must be strictly increasing")
        _require_distinct([row_label(r) for r in R], "sweep cutoffs give the row directory")
        dx = self.resolution
        if dx is not None and not (np.isfinite(dx) and dx > 0):
            raise InvalidInputError("sweep resolution must be finite and > 0")


@dataclass(frozen=True)
class CheckSpec:
    """Section "check": certification constants and residual tolerances.

    Without ``certification``, ``check`` certifies a kernel against its own
    ``growth_bounds()``.  Both tolerances must be finite and > 0.
    """

    certification: CertificationParams = None
    moment_residual_tol: float = 0.05
    weak_residual_tol: float = 0.05

    def __post_init__(self):
        for tol in (self.moment_residual_tol, self.weak_residual_tol):
            if not (np.isfinite(tol) and tol > 0):
                raise InvalidInputError("check tolerances must be finite and > 0")


@dataclass(frozen=True)
class SimConfig:
    """Everything a run needs; seed-free and fully deterministic.

    The fields are the top-level config keys, in the order manifests write
    them.  Building one raises InvalidInputError on a bad value, a moment
    column that repeats a label or a grid that cannot be built, and makes
    every default explicit: ``record_cadence`` and ``dt_max`` from ``t_end``,
    and the recorded moment orders (the configured ones, 0 and 1, sorted).
    ``dataclasses.replace`` keeps them; replace one with None to fill it anew.
    """

    kernel: Kernel
    grid: GridSpec
    initial: InitialCondition
    t_end: float
    cfl: float = 0.5
    scheme: str = "euler"
    moments: MomentSpec = MomentSpec()
    epsilon: float = 0.01
    record_cadence: float = None
    dt_max: float = None
    sweep: SweepSpec = None
    check: CheckSpec = None

    def __post_init__(self):
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
        if not np.all(np.isfinite(self.moments.orders)):
            raise InvalidInputError("moment orders must be finite")
        thresholds = tuple(float(m) for m in self.moments.truncation_thresholds)
        for m in thresholds:
            if not (0 <= m <= self.grid.R):
                raise InvalidInputError("truncation threshold %g outside [0, R]" % m)
        if len(set(thresholds)) < len(thresholds):
            raise InvalidInputError("truncation thresholds must be distinct")
        orders = _recorded_orders(self.moments.orders)
        _require_distinct(
            moment_labels(orders, thresholds),
            "moment orders or truncation thresholds give the column",
        )
        grid = self.grid.build()  # surfaces grid errors early
        with np.errstate(over="ignore"):
            for r in orders:
                if not np.all(np.isfinite(grid.power(r))):
                    raise InvalidInputError("moment order %g overflows on this grid" % r)
        # the defaults, made explicit (what manifests record)
        t_end = self.t_end
        if self.record_cadence is None:
            object.__setattr__(self, "record_cadence", t_end / 100.0 if t_end > 0 else 1.0)
        if self.dt_max is None:
            object.__setattr__(self, "dt_max", 1e-2 * t_end if t_end > 0 else 1.0)
        object.__setattr__(self, "moments", MomentSpec(orders, thresholds))

    def to_dict(self):
        """The config's JSON mapping, as manifests store it."""
        return to_section(self)

    @classmethod
    def from_dict(cls, cfg):
        """Read a config from its JSON mapping."""
        return from_section(cls, cfg, None)


def _number(value):
    """A JSON number as a float; booleans and strings are not numbers."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("expected a number, got %r" % (value,))
    return float(value)


def _integer(value):
    """A JSON number with an integral value (32 or 32.0) as an int."""
    if not _number(value).is_integer():
        raise ValueError("expected an integer, got %r" % (value,))
    return int(value)


#: How a JSON value fills a field, by the field's declared type (a string,
#: since every config module uses postponed annotations): a scalar coercion, a
#: section dataclass, or a registry whose "kind" picks the class.
_READERS = {
    "float": _number,
    "int": _integer,
    "str": str,
    "tuple": lambda value: tuple(_number(v) for v in value),  # every tuple holds floats
    "Kernel": KERNEL_KINDS,
    "InitialCondition": INITIAL_KINDS,
    "GridSpec": GridSpec,
    "MomentSpec": MomentSpec,
    "SweepSpec": SweepSpec,
    "CheckSpec": CheckSpec,
    "CertificationParams": CertificationParams,
}


def _read(f, value, section):
    if value is None and f.default is None:
        return None
    reader = _READERS[f.type]
    if isinstance(reader, dict) or is_dataclass(reader):
        return from_section(reader, value, section)
    return reader(value)


def from_section(cls, cfg, section):
    """Build the dataclass ``cls`` from the JSON mapping of ``section``.

    ``cls`` may also be a registry {kind: dataclass}; the mapping's "kind"
    then picks the class.  ``section`` is the dotted section name, None for
    the top level.  Keys that are not fields, missing required keys and
    values that do not coerce to their field's type raise InvalidInputError
    naming the section; nested sections are read the same way.  Only JSON
    numbers fill numeric fields, and only integral ones fill ``int`` fields.
    """
    where = "section %r" % section if section else "the top level"
    if not isinstance(cfg, dict):
        raise InvalidInputError("%s must be a JSON object" % where)
    allowed = ()
    if isinstance(cls, dict):
        kind = cfg.get("kind")
        if not isinstance(kind, str) or kind not in cls:
            raise InvalidInputError(
                "%s must set 'kind' to one of %s" % (where, sorted(cls))
            )
        cls, cfg, allowed = cls[kind], {k: v for k, v in cfg.items() if k != "kind"}, ("kind",)
    specs = {f.name: f for f in fields(cls)}
    unknown = sorted(set(cfg) - set(specs))
    if unknown:
        raise InvalidInputError(
            "unknown config key %s in %s (allowed: %s)"
            % (", ".join(map(repr, unknown)), where, ", ".join(allowed + tuple(specs)))
        )
    for name, f in specs.items():
        if name not in cfg and f.default is MISSING:
            raise InvalidInputError("%s is missing required key %r" % (where, name))
    try:
        return cls(**{
            name: _read(specs[name], value, name if section is None else section + "." + name)
            for name, value in cfg.items()
        })
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInputError("bad value in %s: %s" % (where, exc)) from exc


def to_section(obj):
    """The JSON mapping of a config dataclass: fields in order, None omitted.

    An object picked from a registry carries its ``kind`` as a class
    attribute, which leads the mapping (GridSpec's ``kind`` field is its
    first field anyway).
    """
    out = {"kind": obj.kind} if hasattr(obj, "kind") else {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is None:
            continue
        if is_dataclass(value):
            value = to_section(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


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
