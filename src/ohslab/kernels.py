"""Coagulation rate kernels and their certification against growth bounds.

A kernel Lambda(mu, nu) is the symmetric, nonnegative rate at which particles
of sizes mu and nu merge.  Four families are provided:

``ConstantKernel``
    Lambda = value.  The classical case with a known explicit solution
    (Bagland 2005), used as the accuracy oracle.
``PowerSumKernel``
    Lambda = theta1 * (mu**beta + nu**beta) with beta > 0: the Psi = 0 member
    of the family below.
``MassConservingKernel``
    Lambda = theta1 * (mu**beta + nu**beta) + Psi(mu, nu) with beta > 1 and a
    symmetric perturbation 0 <= Psi <= K * (mu + nu).  Psi is restricted to
    the named built-ins of ``PSI_BUILTINS`` so the bound stays checkable.
``ProductKernel``
    Lambda = (mu * nu)**exponent.  Included for comparison experiments only;
    it lies outside the mass-conserving family above.

``certify_hypothesis_A`` samples the sandwich

    theta1 * (mu**beta + nu**beta) <= Lambda(mu, nu)
                                   <= theta2 * (1 + mu)**gamma * (1 + nu)**gamma

on a lattice of positive size pairs, counts every violation and lists the
first 32.  The bound is a for-all statement; sampling on a configurable
log-spaced lattice is the uniform machinery used here (closed-form
verification would be kernel-specific).  ``Kernel.growth_bounds()`` returns the constants a kernel
satisfies, or None outside the class with beta > 1 (constant, product, and
power_sum with beta <= 1): a power-law kernel's own theta1, gamma = beta and
theta2 = 2 * (theta1 + K), with K = 0 for power_sum.  ``check`` certifies and
bounds blow-up with them.

Every kernel is also a short sum of separable terms on ordered pairs:
``separable_terms(mid)`` returns factors (a_k, b_k) with

    Lambda(mid_i, mid_j) = sum_k a_k[i] * b_k[j]   for j <= i

on increasing sizes ``mid``, so pair sums over a triangle reduce to prefix
sums, all of them in ``solver.KernelTables`` (``moments.pair_sums`` calls
its ``pair_sum``).  Every factor is nonnegative.  A power-law kernel is two
terms whatever its Psi: each built-in Psi splits on ordered pairs nu <= mu
as upper(mu) + lower(nu), which fold into the two power terms,

    Lambda(mu, nu) = (theta1 * mu**beta + upper(mu)) * 1
                   + theta1 * (nu**beta + lower(nu) / theta1).
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EvaluationOverflowError, InvalidInputError

#: Default certification lattice: 64 x 64 log-spaced points per axis.
DEFAULT_LATTICE_BOUNDS = (1e-3, 1e3)
DEFAULT_LATTICE_SIZE = 64

#: Relative tolerance used when comparing sampled bounds (covers roundoff in
#: algebraically equal expressions, e.g. the power-sum lower-bound equality).
CERTIFY_RTOL = 1e-12


def _finalize(mu, nu, raw):
    """Broadcast, check finiteness, and unwrap 0-d results to float."""
    out = np.asarray(raw, dtype=float)
    if not np.all(np.isfinite(out)):
        raise EvaluationOverflowError(
            "kernel evaluation overflowed (max inputs mu=%s nu=%s)"
            % (np.max(mu), np.max(nu))
        )
    if out.ndim == 0:
        return float(out)
    return out


class Kernel:
    """Base class for coagulation rates; subclasses define the formula.

    Instances are immutable after construction and evaluation is pure, so a
    kernel can be shared freely between concurrent workers.
    """

    kind = "abstract"

    def eval(self, mu, nu):
        """Return Lambda(mu, nu); symmetric in its arguments.

        ``mu`` and ``nu`` are positive sizes (scalars or broadcastable
        arrays).  Raises ``EvaluationOverflowError`` on non-finite results.
        """
        raise NotImplementedError

    def separable_terms(self, mid):
        """Factors (a_k, b_k), arrays over ``mid`` or scalars, such that
        Lambda(mid_i, mid_j) = sum_k a_k[i] * b_k[j] whenever mid_j <= mid_i.

        Every built-in kernel gives one or two terms.  ``mid`` must be
        increasing; no finiteness check is made here.
        """
        raise NotImplementedError

    def growth_bounds(self):
        """The sandwich constants this kernel satisfies; None outside beta > 1."""
        return None


@dataclass(frozen=True)
class ConstantKernel(Kernel):
    value: float = 1.0
    kind = "constant"

    def __post_init__(self):
        if not (np.isfinite(self.value) and self.value >= 0):
            raise InvalidInputError("constant kernel value must be finite and >= 0")

    def eval(self, mu, nu):
        raw = np.broadcast_to(
            self.value, np.broadcast_shapes(np.shape(mu), np.shape(nu))
        ).copy()
        return _finalize(mu, nu, raw)

    def separable_terms(self, mid):
        return [(self.value, 1.0)]


def _power_sum(theta1, beta, mu, nu):
    """theta1 * (mu**beta + nu**beta): the power-law kernel and the sandwich's
    lower bound."""
    return theta1 * (mu**beta + nu**beta)


#: Named symmetric perturbations, each satisfying 0 <= Psi <= K*(mu + nu): its
#: value, and its split Psi(mu, nu) = upper(mu) + lower(nu) on ordered pairs
#: nu <= mu (min(mu, nu) = nu) as the pair (upper, lower) over sizes ``mid``.
PSI_BUILTINS = {
    "zero": (lambda mu, nu, K: 0.0, lambda mid, K: (0.0, 0.0)),
    "half_sum": (lambda mu, nu, K: 0.5 * K * (mu + nu),
                 lambda mid, K: (0.5 * K * mid, 0.5 * K * mid)),
    "min": (lambda mu, nu, K: K * np.minimum(mu, nu), lambda mid, K: (0.0, K * mid)),
}


@dataclass(frozen=True)
class PowerSumKernel(Kernel):
    """theta1 * (mu**beta + nu**beta) + Psi(mu, nu): the formula, factors,
    rules and growth sandwich of the whole power-law family, here with Psi = 0."""

    theta1: float = 1.0
    beta: float = 1.5
    kind = "power_sum"
    #: beta must exceed this; Psi and its bound K, fields of MassConservingKernel.
    min_beta = 0
    psi = "zero"
    K = 0.0

    def __post_init__(self):
        noun = self.kind.replace("_", "-")
        if not (np.isfinite(self.theta1) and self.theta1 > 0):
            raise InvalidInputError("%s kernel needs theta1 > 0" % noun)
        if not (np.isfinite(self.beta) and self.beta > self.min_beta):
            raise InvalidInputError("%s kernel needs beta > %d" % (noun, self.min_beta))

    def eval(self, mu, nu):
        mu = np.asarray(mu, dtype=float)
        nu = np.asarray(nu, dtype=float)
        psi, _ = PSI_BUILTINS[self.psi]
        with np.errstate(over="ignore"):
            raw = _power_sum(self.theta1, self.beta, mu, nu) + psi(mu, nu, self.K)
        return _finalize(mu, nu, raw)

    def separable_terms(self, mid):
        # Psi's split folds into the two power terms; with Psi = 0 both adds
        # are + 0.0, so the factors keep the bits of theta1 * (mu**beta + nu**beta).
        mid = np.asarray(mid, dtype=float)
        power = mid**self.beta
        _, psi_split = PSI_BUILTINS[self.psi]
        upper, lower = psi_split(mid, self.K)
        return [(self.theta1 * power + upper, 1.0), (self.theta1, power + lower / self.theta1)]

    def growth_bounds(self):
        if self.beta <= 1:
            return None
        return CertificationParams(theta1=self.theta1, theta2=2.0 * (self.theta1 + self.K),
                                   beta=self.beta, gamma=self.beta)


@dataclass(frozen=True)
class MassConservingKernel(PowerSumKernel):
    """Member of the family phi(mu) + phi(nu) + Psi with phi(mu) = theta1*mu**beta.

    This is the unbounded-kernel class for which the continuous model formally
    conserves mass, making it the natural stress case for the discrete
    bookkeeping identity.
    """

    beta: float = 2.0
    psi: str = "zero"
    K: float = 1.0
    kind = "mass_conserving"
    min_beta = 1

    def __post_init__(self):
        super().__post_init__()
        if self.psi not in PSI_BUILTINS:
            raise InvalidInputError(
                "unknown psi %r (choose from %s)" % (self.psi, sorted(PSI_BUILTINS))
            )
        if not (np.isfinite(self.K) and self.K > 0):
            raise InvalidInputError("mass-conserving kernel needs K > 0")


@dataclass(frozen=True)
class ProductKernel(Kernel):
    exponent: float = 1.0
    kind = "product"

    def __post_init__(self):
        if not np.isfinite(self.exponent):
            raise InvalidInputError("product kernel exponent must be finite")

    def eval(self, mu, nu):
        mu = np.asarray(mu, dtype=float)
        nu = np.asarray(nu, dtype=float)
        with np.errstate(over="ignore"):
            raw = (mu * nu) ** self.exponent
        return _finalize(mu, nu, raw)

    def separable_terms(self, mid):
        power = np.asarray(mid, dtype=float) ** self.exponent
        return [(power, power)]


#: Kernels by their config "kind".
KERNEL_KINDS = {
    k.kind: k for k in (ConstantKernel, PowerSumKernel, MassConservingKernel, ProductKernel)
}


@dataclass(frozen=True, kw_only=True)
class CertificationParams:
    """Constants of the growth sandwich: theta1, theta2 > 0 and 1 < beta <= gamma.

    theta2 defaults to 1.0 and gamma to beta.
    """

    theta1: float
    theta2: float = 1.0
    beta: float
    gamma: float = None

    def __post_init__(self):
        if self.gamma is None:
            object.__setattr__(self, "gamma", self.beta)
        if not (np.isfinite(self.theta1) and self.theta1 > 0):
            raise InvalidInputError("certification needs theta1 > 0")
        if not (np.isfinite(self.theta2) and self.theta2 > 0):
            raise InvalidInputError("certification needs theta2 > 0")
        if not (np.isfinite(self.beta) and self.beta > 1):
            raise InvalidInputError("certification needs beta > 1")
        if not (np.isfinite(self.gamma) and self.gamma >= self.beta):
            raise InvalidInputError("certification needs gamma >= beta")


def sample_lattice(lo=DEFAULT_LATTICE_BOUNDS[0], hi=DEFAULT_LATTICE_BOUNDS[1],
                   n=DEFAULT_LATTICE_SIZE):
    """Log-spaced n x n lattice of (mu, nu) pairs over [lo, hi]^2."""
    if not (0 < lo < hi and n >= 1):
        raise InvalidInputError("lattice needs 0 < lo < hi and n >= 1")
    g = np.geomspace(lo, hi, n)
    mu, nu = np.meshgrid(g, g, indexing="ij")
    return np.column_stack([mu.ravel(), nu.ravel()])


def certify_hypothesis_A(kernel, params, samples=None):
    """Check the growth sandwich on a lattice of positive size pairs.

    Parameters
    ----------
    kernel : Kernel
        Rate to certify.
    params : CertificationParams
        Sandwich constants (theta1, theta2, beta, gamma).
    samples : array_like of shape (m, 2), optional
        Strictly positive (mu, nu) pairs.  Defaults to the 64x64 log-spaced
        lattice over [1e-3, 1e3]^2.

    Returns
    -------
    dict
        The ``certification`` entry's details: ``params``, ``n_samples``,
        ``passed`` (True iff no sampled point violates either bound within
        ``CERTIFY_RTOL`` relative slack), ``n_violations`` (every violating
        sample) and ``violations`` (the first 32 of them in lattice order,
        each with ``mu``, ``nu``, ``value``, ``lower`` and ``upper``; a bound
        past the float range is None).
    """
    if samples is None:
        samples = sample_lattice()
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise InvalidInputError("certification sample lattice is empty")
    samples = samples.reshape(-1, 2)
    if not np.all(samples > 0):
        raise InvalidInputError("certification samples must be strictly positive")
    mu, nu = samples[:, 0], samples[:, 1]
    value = np.asarray(kernel.eval(mu, nu), dtype=float)
    with np.errstate(over="ignore"):  # a bound past the float range is inf
        lower = _power_sum(params.theta1, params.beta, mu, nu)
        upper = params.theta2 * (1.0 + mu) ** params.gamma * (1.0 + nu) ** params.gamma
        bad = np.flatnonzero((lower > value * (1.0 + CERTIFY_RTOL))
                             | (value > upper * (1.0 + CERTIFY_RTOL)))
    return {
        "params": asdict(params),
        "n_samples": len(samples),
        "passed": bad.size == 0,
        "n_violations": bad.size,
        "violations": [
            {"mu": float(mu[k]), "nu": float(nu[k]), "value": float(value[k]),
             "lower": _finite_or_none(lower[k]), "upper": _finite_or_none(upper[k])}
            for k in bad[:32]
        ],
    }


def _finite_or_none(x):
    """x as a float, or None where it is not finite: JSON has no Infinity."""
    return float(x) if np.isfinite(x) else None
