"""Numerical laboratory for the Oort-Hulst-Safronov coagulation equation.

A mass-accounting finite-volume solver on a truncated size domain plus a
diagnostics suite for moment identities, interpolation inequalities, blow-up
bounds and cutoff-scaling gelation experiments, validated against the
constant-kernel explicit solution.
"""

__version__ = "0.1.0"

from .config import CheckSpec, GridSpec, MomentSpec, SimConfig, SweepSpec, load_config
from .grid import CellSpike, SizeGrid, State, TableDensity, UniformOn, build, project_initial
from .kernels import (
    CertificationParams,
    ConstantKernel,
    MassConservingKernel,
    PowerSumKernel,
    ProductKernel,
    certify_hypothesis_A,
    sample_lattice,
)
from .oracle import BaglandSolution
from .solver import RunResult, run

__all__ = [
    "__version__",
    "BaglandSolution",
    "CellSpike",
    "CertificationParams",
    "CheckSpec",
    "ConstantKernel",
    "GridSpec",
    "MassConservingKernel",
    "MomentSpec",
    "PowerSumKernel",
    "ProductKernel",
    "RunResult",
    "SimConfig",
    "SizeGrid",
    "State",
    "SweepSpec",
    "TableDensity",
    "UniformOn",
    "build",
    "certify_hypothesis_A",
    "load_config",
    "project_initial",
    "run",
    "sample_lattice",
]
