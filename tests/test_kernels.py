"""Kernel formulas, symmetry, and growth-bound certification."""
from dataclasses import astuple

import numpy as np
import pytest

from ohslab.config import from_section, to_section
from ohslab.errors import EvaluationOverflowError, InvalidInputError
from ohslab.kernels import (
    KERNEL_KINDS,
    PSI_BUILTINS,
    CertificationParams,
    ConstantKernel,
    MassConservingKernel,
    PowerSumKernel,
    ProductKernel,
    certify_hypothesis_A,
    sample_lattice,
)

ALL_KERNELS = [
    ConstantKernel(1.0),
    PowerSumKernel(1.0, 1.5),
    MassConservingKernel(1.0, 2.0, "half_sum", 1.0),
    MassConservingKernel(2.0, 1.5, "min", 0.5),
    ProductKernel(0.75),
]


def kernel_id(kernel):
    """A test id that stays the same from run to run: the kind and the fields."""
    return "-".join([kernel.kind, *(str(v) for v in astuple(kernel))])


def test_constant_value():
    assert ConstantKernel(1.0).eval(3.7, 0.2) == 1.0


def test_power_sum_formula():
    assert PowerSumKernel(1.0, 2.0).eval(2.0, 3.0) == 13.0


def test_mass_conserving_zero_psi_matches_power_sum():
    kernel = MassConservingKernel(1.0, 2.0, "zero", 1.0)
    assert kernel.eval(2.0, 3.0) == 13.0
    reference = PowerSumKernel(1.0, 2.0)
    pts = np.geomspace(0.01, 50, 40)
    assert np.array_equal(kernel.eval(pts, pts[::-1]), reference.eval(pts, pts[::-1]))


def test_product_formula():
    assert ProductKernel(1.5).eval(2.0, 3.0) == pytest.approx(6.0**1.5, rel=1e-15)


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=kernel_id)
def test_symmetry_exact(kernel):
    rng = np.random.default_rng(7)
    mu = rng.uniform(1e-3, 1e3, size=1000)
    nu = rng.uniform(1e-3, 1e3, size=1000)
    assert np.array_equal(kernel.eval(mu, nu), kernel.eval(nu, mu))


def test_eval_broadcasts():
    kernel = PowerSumKernel(1.0, 1.5)
    mu = np.array([1.0, 2.0, 3.0])
    out = kernel.eval(mu[:, None], mu[None, :])
    assert out.shape == (3, 3)
    assert out[1, 2] == kernel.eval(2.0, 3.0)


def test_eval_overflow_raises():
    with pytest.raises(EvaluationOverflowError):
        PowerSumKernel(1.0, 300.0).eval(1e3, 1e3)
    with pytest.raises(EvaluationOverflowError):
        ProductKernel(200.0).eval(1e5, 1e5)


@pytest.mark.parametrize("kernel, count", [
    (ConstantKernel(1.0), 1),
    (PowerSumKernel(1.0, 1.5), 2),
    (MassConservingKernel(1.0, 2.0, "zero", 1.0), 2),
    (MassConservingKernel(1.0, 2.0, "half_sum", 1.0), 2),
    (MassConservingKernel(1.0, 2.0, "min", 1.0), 2),
    (ProductKernel(0.75), 1),
], ids=lambda v: getattr(v, "psi", getattr(v, "kind", v)))
def test_separable_term_count(kernel, count):
    # factor values are checked against eval in test_pair_sums
    assert len(kernel.separable_terms(np.array([0.25, 0.75, 1.5]))) == count


@pytest.mark.parametrize("kernel", [
    PowerSumKernel(0.7, 1.5), MassConservingKernel(0.7, 2.5, "zero", 1.3),
], ids=lambda k: k.kind)
def test_psi_free_factors_keep_the_bits_of_the_power_sum(kernel):
    mid = np.geomspace(1e-3, 40.0, 97)
    power = mid**kernel.beta
    expected = [(kernel.theta1 * power, 1.0), (kernel.theta1, power)]
    for (a, b), (a0, b0) in zip(kernel.separable_terms(mid), expected, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(a0).tobytes()
        assert np.asarray(b).tobytes() == np.asarray(b0).tobytes()


def test_psi_builtins_within_bound():
    rng = np.random.default_rng(11)
    mu = rng.uniform(1e-3, 1e2, 500)
    nu = rng.uniform(1e-3, 1e2, 500)
    K = 1.7
    for name, (psi, _) in PSI_BUILTINS.items():
        vals = np.broadcast_to(psi(mu, nu, K), mu.shape)
        assert np.all(vals >= 0), name
        assert np.all(vals <= K * (mu + nu)), name


def test_kernel_validation():
    with pytest.raises(InvalidInputError):
        ConstantKernel(-1.0)
    with pytest.raises(InvalidInputError):
        PowerSumKernel(0.0, 1.5)
    with pytest.raises(InvalidInputError):
        MassConservingKernel(1.0, 1.0, "zero", 1.0)  # beta must exceed 1
    with pytest.raises(InvalidInputError):
        MassConservingKernel(1.0, 2.0, "cubic", 1.0)  # unknown psi
    with pytest.raises(InvalidInputError):
        MassConservingKernel(1.0, 2.0, "zero", 0.0)  # K must be positive


def test_certify_power_sum_passes_with_tight_lower_bound():
    kernel = PowerSumKernel(1.0, 1.5)
    params = CertificationParams(theta1=1.0, theta2=2.0, beta=1.5, gamma=1.5)
    lattice = sample_lattice(0.1, 10.0, 32)
    details = certify_hypothesis_A(kernel, params, lattice)
    assert details["passed"]
    assert details["n_samples"] == 32 * 32
    # the lower bound is met with equality at every sampled point
    mu, nu = lattice[:, 0], lattice[:, 1]
    lower = params.theta1 * (mu**params.beta + nu**params.beta)
    assert np.array_equal(np.asarray(kernel.eval(mu, nu)), lower)


def test_certify_constant_violates_lower_bound():
    params = CertificationParams(theta1=1.0, theta2=2.0, beta=1.5, gamma=1.5)
    lattice = np.array([[0.1, 0.1], [2.0, 2.0]])
    details = certify_hypothesis_A(ConstantKernel(1.0), params, lattice)
    assert not details["passed"]
    hit = [v for v in details["violations"] if v["mu"] == 2.0 and v["nu"] == 2.0]
    assert len(hit) == 1
    assert hit[0]["lower"] == pytest.approx(2.0 * 2.0**1.5, rel=1e-15)  # 5.657 > 1
    assert hit[0]["value"] == 1.0


def test_certify_counts_every_violation_and_lists_the_first_32():
    params = CertificationParams(theta1=1, theta2=2, beta=1.5)
    details = certify_hypothesis_A(ConstantKernel(1.0), params)
    assert details["n_violations"] == 3086
    assert len(details["violations"]) == 32
    # the first 32 violating points of the default lattice, in lattice order
    mu, nu = sample_lattice().T
    lower = mu**1.5 + nu**1.5
    upper = 2 * (1 + mu) ** 1.5 * (1 + nu) ** 1.5
    bad = np.flatnonzero((lower > 1.0) | (1.0 > upper))
    assert bad.size == 3086
    listed = [(v["mu"], v["nu"]) for v in details["violations"]]
    assert listed == [(mu[k], nu[k]) for k in bad[:32]]


def test_certify_single_point_equality_is_not_a_violation():
    details = certify_hypothesis_A(
        PowerSumKernel(1.0, 1.5),
        CertificationParams(theta1=1.0, theta2=2.0, beta=1.5, gamma=1.5),
        np.array([[1.0, 1.0]]),
    )
    assert details["passed"]  # lower bound tight: 2 = 2


def test_certify_monotone_in_constants():
    kernel = PowerSumKernel(1.3, 1.5)
    lattice = sample_lattice(1e-2, 1e2, 16)
    params = CertificationParams(theta1=1.3, theta2=2.6, beta=1.5, gamma=1.5)
    assert certify_hypothesis_A(kernel, params, lattice)["passed"]
    relaxed = CertificationParams(theta1=0.65, theta2=5.2, beta=1.5, gamma=1.5)
    assert certify_hypothesis_A(kernel, relaxed, lattice)["passed"]


def test_certify_default_lattice_covers_configured_box():
    details = certify_hypothesis_A(
        PowerSumKernel(1.0, 1.5),
        CertificationParams(theta1=1.0, theta2=2.0, beta=1.5, gamma=2.0),
    )
    assert details["n_samples"] == 64 * 64
    assert details["passed"]


def test_certify_empty_lattice_raises():
    params = CertificationParams(theta1=1.0, theta2=1.0, beta=1.5, gamma=1.5)
    with pytest.raises(InvalidInputError):
        certify_hypothesis_A(ConstantKernel(1.0), params, np.empty((0, 2)))
    with pytest.raises(InvalidInputError):
        certify_hypothesis_A(ConstantKernel(1.0), params, np.array([[1.0, 0.0]]))


def test_certification_params_validation():
    with pytest.raises(InvalidInputError):
        CertificationParams(theta1=0.0, theta2=1.0, beta=1.5, gamma=1.5)
    with pytest.raises(InvalidInputError):
        CertificationParams(theta1=1.0, theta2=-1.0, beta=1.5, gamma=1.5)
    with pytest.raises(InvalidInputError):
        CertificationParams(theta1=1.0, theta2=1.0, beta=1.0, gamma=1.5)
    with pytest.raises(InvalidInputError):
        CertificationParams(theta1=1.0, theta2=1.0, beta=2.0, gamma=1.5)


def test_growth_bounds_constants():
    assert PowerSumKernel(1.5, 1.2).growth_bounds() == CertificationParams(
        theta1=1.5, theta2=3.0, beta=1.2, gamma=1.2
    )
    assert PowerSumKernel(1.5, 0.8).growth_bounds() is None  # outside beta > 1
    assert MassConservingKernel(2.0, 3.0, "min", 0.5).growth_bounds() == CertificationParams(
        theta1=2.0, theta2=5.0, beta=3.0, gamma=3.0
    )
    assert ConstantKernel(1.0).growth_bounds() is None
    assert ProductKernel(1.0).growth_bounds() is None


def test_growth_bounds_are_certified():
    bounded = [k for k in ALL_KERNELS if k.growth_bounds() is not None]
    assert len(bounded) == 3
    for kernel in bounded:
        details = certify_hypothesis_A(kernel, kernel.growth_bounds())
        assert details["passed"], (kernel, details["violations"][:3])


@pytest.mark.parametrize("kernel", ALL_KERNELS, ids=kernel_id)
def test_config_roundtrip(kernel):
    clone = from_section(KERNEL_KINDS, to_section(kernel), "kernel")
    assert clone == kernel
    pts = np.geomspace(0.1, 10, 17)
    assert np.array_equal(clone.eval(pts, pts[::-1]), kernel.eval(pts, pts[::-1]))


def test_kernel_section_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        from_section(KERNEL_KINDS, {"kind": "gaussian"}, "kernel")
    with pytest.raises(InvalidInputError):
        from_section(KERNEL_KINDS, {"value": 1.0}, "kernel")
    with pytest.raises(InvalidInputError):
        from_section(KERNEL_KINDS, {"kind": "constant", "nope": 3}, "kernel")
