"""Moments of the size distribution and the inequality/identity diagnostics.

The r-th moment of a state is the midpoint quadrature

    M^r = sum_i xbar_i**r * xi_i * dx_i,

and the truncated moment M_m^r restricts the sum to cells with xbar_i >= m,
a suffix of the cells.  Each is one multiply-reduce against the grid's
cached row ``SizeGrid.power(r)``, so a run's records, the replay checks and
the blow-up table raise the midpoints to each order once per grid.

The replay sums, ``stacked_moments`` and ``pair_sums``, take every record at
once, and each call takes every order or test its caller needs: ``check``
makes one moment pass and one pair-sum pass.  They stack the records'
densities in blocks of at most ``BLOCK_BYTES`` and sum each block with one
reduce along its rows, on the shortest prefix of the cells that covers every
occupied cell and lies on numpy's pairwise summation chain (``tree_prefix``):
N cells for a moment, N - 1 pairs for a pair sum, whose kernel factor rows
``KernelTables.pair_sum`` slices to that prefix.  Every cell past such a
prefix is empty, so each record's sum keeps the bits of its whole-grid
``moment`` or ``KernelTables.pair_sum``.  The occupied extent is found once
per call, and the terms of a call's tests that share a v factor share its
prefix sums: the gain terms of every ``Power`` order read the midpoints.
The Hoelder bound of ``holder_check`` is ``holder_sides``, which a caller
holding stacked moments runs on them one record at a time.

On top of these the module checks, against simulated states:

* the Hoelder interpolation bound (M^r)^(sigma+1) * (M^1)^(-sigma) <= M^(r+beta-1)
  with sigma = (beta - 1)/(r - 1), which holds for every nonnegative density;
* the weak-form identity with a test function varpi, whose right side sums
  varpi1(mu, nu) = nu * varpi'(mu) - varpi(nu) against Lambda over ordered
  pairs nu < mu, in O(N) on the run's ``solver.KernelTables`` (``pair_sums``);
* the moment evolution identity, the weak form tested with ``Power(r)`` =
  mu^r, whose pair weight r*nu*mu^(r-1) - nu^r is nonnegative for r >= 2.

Both identities carry the boundary term of the mass that crossed the cutoff,
taken from the bookkept gel mass at the last midpoint xbar_{N-1}.

Relative residuals divide by max(|lhs|, |rhs|) floored at ``EPS_FLOOR``; the
weak-form residual additionally floors the denominator at a small fraction of
the gross quadrature magnitude so that roundoff-level cancellations of
two near-zero sides do not read as order-one residuals.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateStateError,
    InsufficientRecordsError,
    InvalidInputError,
)

#: Absolute floor in relative residuals (avoids 0/0 on empty states).
EPS_FLOOR = 1e-30

#: Fraction of the gross quadrature magnitude used as a roundoff guard in the
#: weak-form residual denominator.
GROSS_GUARD = 1e-6

HOLDER_TOL = 1e-12

#: Largest block of stacked record densities a replay sum holds at once.  A
#: pair sum's temporaries are this times the kernel's term count; measured at
#: N = 1024, a block of 256 KiB or more made them up to twice as slow per
#: record as one of 64 KiB.
BLOCK_BYTES = 64 * 1024


def moment(state, r):
    """r-th moment of the state; at r = 1 the domain mass the solver books."""
    g = state.grid
    return float(np.add.reduce((g.power(r) * state.xi) * g.widths))


def truncated_moment(state, r, m):
    """Moment restricted to cells with midpoint >= m, the suffix from
    k = searchsorted(midpoints, m); 0.0 when no midpoint reaches m."""
    g = state.grid
    k = int(np.searchsorted(g.midpoints, m))
    if k == g.ncells:
        return 0.0
    return float(np.add.reduce((g.power(r)[k:] * state.xi[k:]) * g.widths[k:]))


def tree_prefix(n, m):
    """The shortest prefix of an n-element row, at least m long, that numpy's
    ``add.reduce`` sums to the whole row's bits whenever the rest is zero.

    The reduce is pairwise: a row longer than 128 splits at n // 2, rounded
    down to a multiple of 8, and adds the sums of its two parts, so a length
    on that chain of splits gives the whole row's sum once the part past it
    sums to zero.  A row of at most 128 sums into 8 accumulators, element i
    into accumulator i % 8, so there any multiple of 8 does too; a row under
    8 is summed as it is.  ``tests/test_moments.py`` pins the rule, so a
    numpy that sums otherwise fails there first.
    """
    while n > 128:
        half = n // 2 - n // 2 % 8
        if half < m:
            return n
        n = half
    return n if n < 8 else min(n, max(8, -(-m // 8) * 8))


def _occupied(states, n):
    """Cells up to the last one any state on n cells holds a nonzero (or NaN) in."""
    held = np.zeros(n, dtype=bool)
    for s in states:
        np.logical_or(held, s.xi, out=held)
    return int(np.max(np.flatnonzero(held), initial=-1)) + 1


def _blocks(count, n):
    """Slices of ``count`` records, each block of n-cell rows within BLOCK_BYTES."""
    rows = max(1, BLOCK_BYTES // (8 * n))
    return [slice(start, start + rows) for start in range(0, count, rows)]


def stacked_moments(states, orders):
    """{r: M^r at every state} for each order r, each the bits of ``moment``.

    The states share one grid.  Each block of stacked densities is one
    multiply-reduce per order, on the ``tree_prefix`` of N covering every
    occupied cell; a power row that is not finite keeps the whole grid.
    """
    grid = states[0].grid
    rows = {r: grid.power(r) for r in orders}
    n = grid.ncells
    if all(np.all(np.isfinite(row)) for row in rows.values()):
        n = tree_prefix(n, _occupied(states, n))
    widths = grid.widths[:n]
    sums = {r: np.empty(len(states)) for r in rows}
    for block in _blocks(len(states), n):
        xi = np.array([s.xi[:n] for s in states[block]])
        for r, row in rows.items():
            sums[r][block] = np.add.reduce((row[:n] * xi) * widths, axis=1)
    return sums


@dataclass
class MomentRecord:
    t: float
    moments: dict
    tails: dict
    gel_mass: float
    clamped_mass: float


@dataclass
class MomentSeries:
    """Time-indexed moment records of one run.

    ``tails`` holds the first-moment tail M_m^1 for each configured
    threshold m (the quantity the tail diagnostics consume).
    """

    orders: tuple
    thresholds: tuple
    records: list = field(default_factory=list)

    def append_state(self, state):
        self.records.append(
            MomentRecord(
                t=state.t,
                moments={r: moment(state, r) for r in self.orders},
                tails={m: truncated_moment(state, 1, m) for m in self.thresholds},
                gel_mass=state.gel_mass,
                clamped_mass=state.clamped_mass,
            )
        )

    def times(self):
        return np.array([rec.t for rec in self.records])

    def values(self, r):
        return np.array([rec.moments[r] for rec in self.records])

    def tail(self, m):
        return np.array([rec.tails[m] for rec in self.records])

    def gel(self):
        return np.array([rec.gel_mass for rec in self.records])

    def clamped(self):
        return np.array([rec.clamped_mass for rec in self.records])

    def rho0(self):
        """Initial total mass (domain plus gel at the first record)."""
        first = self.records[0]
        return first.moments[1.0] + first.gel_mass


class HolderResult(NamedTuple):
    lhs: float
    rhs: float
    satisfied: bool


def holder_check(state, r, beta):
    """Evaluate the interpolation inequality between M^1, M^r and M^(r+beta-1).

    With sigma = (beta-1)/(r-1) the bound reads
    (M^r)^(sigma+1) * (M^1)^(-sigma) <= M^(r+beta-1); equality holds exactly
    for a monodisperse (single occupied cell) state.
    """
    if r < 2:
        raise InvalidInputError("holder check needs r >= 2")
    if beta <= 1:
        raise InvalidInputError("holder check needs beta > 1")
    sigma = (beta - 1.0) / (r - 1.0)
    return HolderResult(*holder_sides(
        moment(state, 1), moment(state, r), moment(state, r + beta - 1.0), sigma))


def holder_sides(m1, mr, mq, sigma):
    """(lhs, rhs, satisfied) of the Hoelder bound from M^1, M^r and
    M^q = M^(r+beta-1), with sigma = (beta - 1)/(r - 1).

    The moments are Python floats: numpy's array ``**`` differs from Python's
    in the last bit for some arguments, so a caller holding stacked moments
    passes them here one record at a time, as ``tolist()`` gives them.
    """
    if m1 <= 0:
        raise DegenerateStateError("holder check needs positive mass")
    lhs = mr ** (sigma + 1.0) * m1 ** (-sigma)
    return lhs, mq, lhs <= mq * (1.0 + HOLDER_TOL)


def kernel_matrix(grid, kernel):
    """Kernel values at all midpoint pairs: a dense reference for tests."""
    mid = grid.midpoints
    return np.asarray(kernel.eval(mid[:, None], mid[None, :]), dtype=float)


def pair_sums(states, tables, tests):
    """(value, gross) of each test's pair quadrature at every state: one
    (len(states), 2) array per test, in the order of ``tests``, each row the
    sum of varpi1 * Lambda * xi * xi * dx * dx over pairs nu < mu, O(N) on
    the states' ``solver.KernelTables``.

    With w = xi * dx, the pair weight of xbar_j < xbar_i is the sum of
    sign * u[i] * v[j] over the test's ``pair_terms``, u, v >= 0; value adds
    the terms' pair sums with their signs and gross without.  Each block of
    stacked records is one ``KernelTables.pair_sum`` per distinct v factor
    among all the tests' terms, the u factors that share it stacked, so the
    gain terms of several ``Power`` orders, whose v is the midpoints, share
    one prefix sum.  The sums run on the first n cells, whose n - 1 pairs
    are the ``tree_prefix`` of the N - 1 pairs that covers every occupied
    cell and the first empty one above them: the pair with that empty cell
    reads the whole prefix sum below it, so a non-finite one is not cut off.
    A factor of any test that is not finite keeps the whole grid for every
    test; the kernel's own factors need no such test, since every built-in
    kernel's are finite wherever its diagonal is, which the tables checked
    when built.  Each test's sums keep the bits of its whole-grid sums, and
    a non-finite sum of any test raises ``NumericalFailureError`` and warns
    of nothing.
    """
    grid = tables.grid
    n = grid.ncells
    terms = [test.pair_terms(grid.midpoints) for test in tests]
    if all(np.all(np.isfinite(f)) for each in terms for _, u, v in each for f in (u, v)):
        n = tree_prefix(n - 1, _occupied(states, n)) + 1
    # each distinct v factor, by identity, with the u factors of the terms
    # that read it, stacked in the order the tests' terms come
    shared = {}
    for _, u, v in itertools.chain.from_iterable(terms):
        shared.setdefault(id(v), (v, []))[1].append(np.broadcast_to(u, v.shape))
    shared = {key: (v[:n], np.array(us)[:, None, :n]) for key, (v, us) in shared.items()}
    widths = grid.widths[:n]
    sums = [np.empty((len(states), 2)) for _ in terms]
    for block in _blocks(len(states), n):
        w = np.array([s.xi[:n] for s in states[block]]) * widths
        parts = {}
        for key, (v, us) in shared.items():
            with np.errstate(over="ignore", invalid="ignore"):
                parts[key] = iter(tables.pair_sum(us * w, v * w))
        for out, each in zip(sums, terms):
            value = gross = 0.0
            for sign, _, v in each:
                part = next(parts[id(v)])
                value = value + sign * part
                gross = gross + part
            out[block, 0], out[block, 1] = value, gross
    return sums


class _PairTest:
    """A test function varpi with its pair weight
    varpi1(mu, nu) = nu * varpi'(mu) - varpi(nu)."""

    def varpi1(self, mu, nu):
        return np.asarray(nu, dtype=float) * self.deriv(mu) - self.value(nu)

    def pair_terms(self, mid):
        """varpi1 on pairs nu < mu: the gain nu * varpi'(mu) and the loss varpi(nu)."""
        return ((1.0, self.deriv(mid), mid), (-1.0, 1.0, self.value(mid)))


class Power(_PairTest):
    """The moment test function mu**r, uncapped, r >= 2.

    Its pair weight r*nu*mu^(r-1) - nu^r is nonnegative on pairs nu < mu:
    the loss sum is at most 1/r of the gain sum term by term, far above
    either sum's roundoff, so the quadrature stays nonnegative in floats too.
    """

    def __init__(self, r):
        if r < 2:
            raise InvalidInputError("moment evolution quadrature needs r >= 2")
        self.r = r

    def value(self, mu):
        return np.asarray(mu, dtype=float) ** self.r

    def deriv(self, mu):
        return self.r * np.asarray(mu, dtype=float) ** (self.r - 1.0)


class CappedIdentity(_PairTest):
    """Lipschitz test function min(mu, lam); derivative 1 below the cap."""

    def __init__(self, lam):
        if not (np.isfinite(lam) and lam > 0):
            raise InvalidInputError("cap must be positive")
        self.lam = float(lam)

    def value(self, mu):
        return np.minimum(np.asarray(mu, dtype=float), self.lam)

    def deriv(self, mu):
        return np.where(np.asarray(mu, dtype=float) < self.lam, 1.0, 0.0)

    def pair_terms(self, mid):
        """varpi1 on pairs nu < mu: -[mu >= lam] * min(nu, lam), 0 below the cap."""
        return ((-1.0, 1.0 - self.deriv(mid), self.value(mid)),)


def _require_replay(run):
    """Raise unless the run carries the state snapshots and kernel tables replays sum on."""
    if not run.states or run.tables is None:
        raise InvalidInputError("run was recorded without state snapshots or kernel tables")


def weak_rhs_quadrature(run, test, sums=None):
    """Time-integrated pair quadrature of the weak form over the whole replay.

    The ``pair_sums`` of every record, integrated in time with the trapezoid
    rule over the recorded cadence; 0 on a one-record run.  ``sums``, when
    given, are those pair sums, ``pair_sums(run.states, run.tables,
    [test])[0]``.  Returns (value, gross).
    """
    _require_replay(run)
    if sums is None:
        (sums,) = pair_sums(run.states, run.tables, [test])
    times = run.series.times()
    return float(np.trapezoid(sums[:, 0], times)), float(np.trapezoid(sums[:, 1], times))


class WeakFormResult(NamedTuple):
    residual: float
    quadrature: float
    gross: float


def weak_form_residual(run, test, sums=None):
    """Relative mismatch of the two sides of the weak identity at the last record.

    Left side: integral of varpi against xi(t) - xi(0), plus the boundary
    term varpi(xbar) / xbar * (gel(t) - gel(0)) with xbar = xbar_{N-1}, the
    last midpoint: the solver books the mass leaving through the cutoff as
    gel, and gel mass g leaves as g / xbar particles of size xbar.  Right
    side: the time-integrated pair quadrature.  The denominator is the larger
    side, floored at ``GROSS_GUARD`` times the gross quadrature magnitude and
    at ``EPS_FLOOR`` absolutely.  Returns the residual with the quadrature and
    gross that ``weak_rhs_quadrature`` gave: |quadrature| for
    ``CappedIdentity``, whose one pair term keeps its sign, and gain + loss,
    the roundoff scale of its two pair sums and an upper bound of the
    unsigned sum, for ``Power``.  ``sums``, when given, are the test's pair
    sums at every record, which ``weak_rhs_quadrature`` then integrates.
    """
    rhs, gross_rhs = weak_rhs_quadrature(run, test, sums)
    first, at_t = run.states[0], run.states[-1]
    g = first.grid
    phi = test.value(g.midpoints)
    xbar = g.midpoints[-1]
    boundary = float(phi[-1] / xbar * (at_t.gel_mass - first.gel_mass))
    lhs = float(np.sum(phi * (at_t.xi - first.xi) * g.widths)) + boundary
    gross_lhs = float(
        np.sum(np.abs(phi) * (np.abs(at_t.xi) + np.abs(first.xi)) * g.widths)
    ) + abs(boundary)
    denom = max(abs(lhs), abs(rhs), GROSS_GUARD * max(gross_lhs, gross_rhs), EPS_FLOOR)
    return WeakFormResult(residual=abs(lhs - rhs) / denom, quadrature=rhs, gross=gross_rhs)


def moment_residual(run, r, sums=None, values=None):
    """Max relative defect of the recorded M^r evolution against its quadrature.

    Uses a centered difference over uniformly spaced records and the pair
    quadrature at each interior record; requires at least 3 records.  The
    differenced quantity is M^r + xbar**(r-1) * gel_mass with xbar =
    xbar_{N-1}, the last midpoint: the M^r the boundary flux carries out in
    a step is xbar**(r-1) times that step's gel increment, so the boundary
    term is exact and what remains is the first-order consistency error of
    the quadrature.  ``sums`` and ``values``, when given, are the
    quadratures and the moments at every record, ``pair_sums(run.states,
    run.tables, [Power(r)])[0][:, 0]`` and ``stacked_moments(run.states,
    (r,))[r]``, which a caller that has them need not sum again.
    """
    _require_replay(run)
    times = run.series.times()
    if times.size < 3:
        raise InsufficientRecordsError("moment residual needs at least 3 records")
    steps = np.diff(times)
    if np.max(np.abs(steps - steps.mean())) > 1e-9 * steps.mean():
        raise InvalidInputError("moment residual needs records at uniform cadence")
    xbar = run.states[0].grid.midpoints[-1]
    gel = np.array([s.gel_mass for s in run.states])
    if values is None:
        values = stacked_moments(run.states, (r,))[r]
    mr = values + xbar ** (r - 1.0) * gel
    rate = (mr[2:] - mr[:-2]) / (times[2:] - times[:-2])
    if sums is None:
        rhs = pair_sums(run.states[1:-1], run.tables, [Power(r)])[0][:, 0]
    else:
        rhs = np.asarray(sums)[1:-1]
    return float(np.max(np.abs(rate - rhs) / np.maximum(np.abs(rhs), EPS_FLOOR)))
