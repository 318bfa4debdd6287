"""Shared reference runs and the acceptance-summary hook."""
import time
from dataclasses import replace

import pytest

from ohslab import (
    ConstantKernel,
    GridSpec,
    MassConservingKernel,
    MomentSpec,
    PowerSumKernel,
    SimConfig,
    SweepSpec,
    UniformOn,
)
from ohslab.gelation import cutoff_sweep
from ohslab.solver import run

ACCEPTANCE_RESULTS = []


def record_criterion(num, name, passed, detail):
    ACCEPTANCE_RESULTS.append((num, name, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        flag = "PASS" if passed else "FAIL"
        terminalreporter.write_line("[%s] %d. %s: %s" % (flag, num, name, detail))


def bagland_config(N, t_end=1.0, cfl=1.0):
    """Constant-kernel block run against the explicit solution.

    cfl = 1.0 keeps the support-edge cell at unit local CFL, which suppresses
    the upwind smearing of the moving edge and exposes the scheme's genuine
    first-order consistency in the convergence study.
    """
    return SimConfig(
        kernel=ConstantKernel(1.0),
        grid=GridSpec("uniform", 8.0, N),
        initial=UniformOn(0.0, 1.0, 1.0),
        t_end=t_end,
        cfl=cfl,
        record_cadence=0.01,
        moments=MomentSpec(truncation_thresholds=(2.0,)),
    )


@pytest.fixture(scope="session")
def bagland_runs():
    """Reference runs at N = 256, 512, 1024 with their wall-clock times."""
    out = {}
    for N in (256, 512, 1024):
        t0 = time.perf_counter()
        result = run(bagland_config(N), capture_states=True)
        elapsed = time.perf_counter() - t0
        assert not result.failed
        out[N] = (result, elapsed)
    return out


@pytest.fixture(scope="session")
def bagland_t2():
    """Constant-kernel run to t = 2 (support grows to [0, 3])."""
    result = run(bagland_config(512, t_end=2.0), capture_states=True)
    assert not result.failed
    return result


@pytest.fixture(scope="session")
def powersum_run():
    """Unbounded power-sum kernel run with active boundary outflow."""
    cfg = SimConfig(
        kernel=PowerSumKernel(1.0, 1.5),
        grid=GridSpec("uniform", 4.0, 256),
        initial=UniformOn(0.5, 1.0, 1.0),
        t_end=1.5,
        record_cadence=0.01,
        moments=MomentSpec(truncation_thresholds=(2.0,)),
    )
    result = run(cfg, capture_states=True)
    assert not result.failed
    return result


@pytest.fixture(scope="session")
def massconserving_run():
    """Mass-conserving-family kernel (beta = 2) run with active outflow."""
    cfg = SimConfig(
        kernel=MassConservingKernel(1.0, 2.0, "half_sum", 1.0),
        grid=GridSpec("uniform", 4.0, 256),
        initial=UniformOn(0.5, 1.0, 1.0),
        t_end=1.0,
        record_cadence=0.01,
        moments=MomentSpec(truncation_thresholds=(2.0,)),
    )
    result = run(cfg, capture_states=True)
    assert not result.failed
    return result


@pytest.fixture(scope="session")
def gelation_sweep():
    """Cutoff-scaling experiment at fixed resolution, four workers."""
    base = SimConfig(
        kernel=PowerSumKernel(1.0, 1.5),
        grid=GridSpec("uniform", 4.0, 128),
        initial=UniformOn(0.5, 1.0, 1.0),
        t_end=2.0,
        record_cadence=0.01,
        epsilon=0.01,
    )
    t0 = time.perf_counter()
    sweep = SweepSpec((4.0, 8.0, 16.0, 32.0), resolution=1.0 / 32.0)
    report, _ = cutoff_sweep(replace(base, sweep=sweep), workers=4)
    return report, time.perf_counter() - t0
