"""Moments of the size distribution and the inequality/identity diagnostics.

The r-th moment of a state is the midpoint quadrature

    M^r = sum_i xbar_i**r * xi_i * dx_i,

and the truncated moment M_m^r restricts the sum to cells with xbar_i >= m,
a suffix of the cells.  One row sum, ``_moment_sums``, sums every moment a
run records and ``check`` replays: one multiply-reduce against the grid's
cached row ``SizeGrid.power(r)`` on the ``tree_prefix`` (below) of the cells
that covers every occupied one, the run's active window at a record.

A run's ``MomentSeries`` is its moments table, the one that moments.csv
holds: the ``moment_labels`` between ``t`` and the gel and clamped masses,
and one row of floats per record, which ``columns()`` gives as the
``{label: column}`` that ``runio.read_moments_csv`` reads back.

The replay sums, ``stacked_moments`` and ``pair_sums``, take every record at
once, as a run's ``densities``, one row per record, and each call takes
every order or test its caller needs: ``check`` makes one moment pass and
one pair-sum pass.  They read the rows in blocks of at most ``BLOCK_BYTES``
and sum each block with one reduce along its rows, on the shortest prefix of
the cells that covers every occupied cell and lies on numpy's pairwise
summation chain (``tree_prefix``): N cells for a moment, N - 1 pairs for a
pair sum, whose kernel factor rows ``KernelTables.pair_sum`` slices to that
prefix.  Every cell past such a prefix is empty, so each record's sum keeps
the bits of its sum over the whole grid.  The occupied extent is found once
per call, and the terms of a call's tests that share a v factor share its
prefix sums: the gain terms of every ``Power`` order read the midpoints.

Every replay diagnostic takes those sums as required arguments and sums
nothing itself.  On them the module checks, against simulated states:

* the Hoelder interpolation bound (M^r)^(sigma+1) * (M^1)^(-sigma) <= M^(r+beta-1)
  with sigma = (beta - 1)/(r - 1), which holds for every nonnegative density
  (``holder_check``, on a moment pass);
* the weak-form identity with a test function varpi, whose right side sums
  varpi1(mu, nu) = nu * varpi'(mu) - varpi(nu) against Lambda over ordered
  pairs nu < mu, in O(N) on the run's ``solver.KernelTables`` (``pair_sums``);
* the moment evolution identity, the weak form tested with ``Power(r)`` =
  mu^r, whose pair weight r*nu*mu^(r-1) - nu^r is nonnegative for r >= 2.

Both identities carry the boundary term of the mass that crossed the cutoff,
taken from the bookkept gel mass at the last midpoint xbar_{N-1}.

Relative residuals divide by max(|lhs|, |rhs|) floored at ``EPS_FLOOR``; the
weak-form residual and the oracle agreement (``relative_gap``) additionally
floor the denominator at a small fraction of the gross quadrature magnitude
so that roundoff-level cancellations of two near-zero sides do not read as
order-one residuals.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

#: Absolute floor in relative residuals (avoids 0/0 on empty states).
EPS_FLOOR = 1e-30

#: Fraction of the gross quadrature magnitude used as a roundoff guard in the
#: weak-form residual denominator.
GROSS_GUARD = 1e-6

HOLDER_TOL = 1e-12

#: The smallest normal float: a moment below it has underflowed.
FLOAT_TINY = float(np.finfo(float).tiny)

#: Relative spread of record intervals ``moment_residual`` takes as uniform.
CADENCE_RTOL = 1e-9

#: Largest block of stacked record densities a replay sum holds at once.  A
#: pair sum's temporaries are this times the kernel's term count; measured at
#: N = 1024, a block of 256 KiB or more made them up to twice as slow per
#: record as one of 64 KiB.
BLOCK_BYTES = 64 * 1024


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


def _occupied(densities):
    """Cells up to the last one any record holds a nonzero (or NaN) in."""
    return int(np.max(np.flatnonzero(np.any(densities, axis=0)), initial=-1)) + 1


def _blocks(count, n):
    """Slices of ``count`` records, each block of n-cell rows within BLOCK_BYTES."""
    rows = max(1, BLOCK_BYTES // (8 * n))
    return [slice(start, start + rows) for start in range(0, count, rows)]


def _moment_sums(grid, power, densities, start, extent):
    """sum of power * xi * widths over the cells from ``start`` on, for each
    whole-grid row xi of ``densities``, whose cells from ``extent`` on are
    empty: the cells [start, start + tree_prefix(N - start, extent - start)),
    with the bits of the sum over every cell from ``start``."""
    cells = slice(start, start + tree_prefix(grid.ncells - start, extent - start))
    return np.add.reduce((power[cells] * densities[..., cells]) * grid.widths[cells], axis=-1)


def stacked_moments(grid, densities, orders):
    """{r: M^r at every record} for each order r, each the bits of a whole-grid sum.

    ``densities`` has one row per record on ``grid``.  Each block of rows is
    one multiply-reduce per order, on the ``tree_prefix`` of N covering every
    occupied cell.  A power row that overflows makes every record's moment
    non-finite, whatever its density, so it raises ``NumericalFailureError``
    and warns of nothing.
    """
    with np.errstate(over="ignore"):
        rows = {r: grid.power(r) for r in orders}
    if not all(np.all(np.isfinite(row)) for row in rows.values()):
        raise NumericalFailureError("non-finite moment")
    extent = _occupied(densities)
    sums = {r: np.empty(len(densities)) for r in rows}
    for block in _blocks(len(densities), tree_prefix(grid.ncells, extent)):
        for r, row in rows.items():
            sums[r][block] = _moment_sums(grid, row, densities[block], 0, extent)
    return sums


def moment_labels(orders, thresholds):
    """The moments.csv labels of the moment columns and the tail columns.

    ``%g`` keeps six significant digits, so orders or thresholds that differ
    only beyond them get the same label; ``SimConfig`` rejects those.
    """
    return ["M%g" % r for r in orders] + ["M1_m%g" % m for m in thresholds]


@dataclass
class MomentSeries:
    """The moments table of one run: the rows moments.csv holds.

    ``labels`` are the columns: the time ``t``, M^r for each recorded order,
    the first-moment tail M_m^1 for each threshold m (the mass of the cells
    whose midpoint is at least m), ``gel_mass`` and ``clamped_mass``.
    ``rows`` holds one row of Python floats per record, in that order.
    """

    orders: tuple
    thresholds: tuple
    labels: list = field(init=False)
    rows: list = field(default_factory=list)

    def __post_init__(self):
        self.labels = ["t", *moment_labels(self.orders, self.thresholds),
                       "gel_mass", "clamped_mass"]

    def append_state(self, grid, t, xi, extent, gel_mass, clamped_mass):
        """Append the record at time t of the whole-grid density xi, whose cells
        from ``extent`` on are empty: its moments, tails and masses."""
        tails = np.searchsorted(grid.midpoints, self.thresholds).tolist()
        self.rows.append([
            float(t),
            *(float(_moment_sums(grid, grid.power(r), xi, 0, extent)) for r in self.orders),
            *(float(_moment_sums(grid, grid.midpoints, xi, k, extent)) for k in tails),
            float(gel_mass), float(clamped_mass),
        ])

    def columns(self):
        """{label: column}, as ``runio.read_moments_csv`` reads the written table."""
        data = np.array(self.rows, dtype=float).reshape(len(self.rows), len(self.labels))
        return {label: data[:, k] for k, label in enumerate(self.labels)}

    def _column(self, k):
        return np.array([row[k] for row in self.rows])

    def times(self):
        return self._column(0)

    def values(self, r):
        return self._column(1 + self.orders.index(r))

    def gel(self):
        return self._column(-2)

    def rho0(self):
        """Initial total mass (domain plus gel at the first record)."""
        first = self.rows[0]
        return first[1 + self.orders.index(1.0)] + first[-2]


def holder_check(sums, times, pairs):
    """(ok, worst) of the interpolation inequality between M^1, M^r and
    M^(r+beta-1) for each (r, beta) of ``pairs`` at every record.

    ``sums`` is a moment pass, ``stacked_moments`` of every order the pairs
    read, and ``times`` the records' times.  With sigma = (beta-1)/(r-1) the
    bound reads (M^r)^(sigma+1) * (M^1)^(-sigma) <= M^(r+beta-1) up to
    ``HOLDER_TOL``; equality holds exactly for a monodisperse (single
    occupied cell) state.  A record whose M^1 is 0 is skipped: its domain
    holds no mass and the bound reads 0 <= 0.  So is a pair whose
    M^(r+beta-1) lies below the smallest normal float: that sum has lost its
    digits, and the lhs it bounds is smaller still.  ``worst`` is the
    largest lhs/rhs with its record's time and pair, ``{"ratio": 0.0}`` when
    every record is skipped.  The moments are taken as Python floats, as
    ``moment`` gives them, since numpy's array ``**`` differs from Python's
    in the last bit for some arguments; a power past the float range is
    taken as M^r scaled by M^1 first.
    """
    for r, beta in pairs:
        if r < 2:
            raise InvalidInputError("holder check needs r >= 2")
        if beta <= 1:
            raise InvalidInputError("holder check needs beta > 1")
    m1 = sums[1].tolist()
    sides = [(r, beta, (beta - 1.0) / (r - 1.0), sums[r].tolist(), sums[r + beta - 1.0].tolist())
             for r, beta in pairs]
    worst = {"ratio": 0.0}
    ok = True
    for k, t in enumerate(np.asarray(times, dtype=float).tolist()):
        if m1[k] == 0.0:
            continue
        for r, beta, sigma, mr, mq in sides:
            if mq[k] < FLOAT_TINY:
                continue
            try:
                lhs = mr[k] ** (sigma + 1.0) * m1[k] ** (-sigma)
            except OverflowError:  # a power past the float range
                lhs = mr[k] * (mr[k] / m1[k]) ** sigma
            ok = ok and lhs <= mq[k] * (1.0 + HOLDER_TOL)
            ratio = lhs / mq[k]
            if ratio > worst["ratio"]:
                worst = {"ratio": float(ratio), "t": t, "r": r, "beta": beta}
    return ok, worst


def kernel_matrix(grid, kernel):
    """Kernel values at all midpoint pairs: a dense reference for tests."""
    mid = grid.midpoints
    return np.asarray(kernel.eval(mid[:, None], mid[None, :]), dtype=float)


def pair_sums(densities, tables, tests):
    """(value, gross) of each test's pair quadrature at every record: one
    (len(densities), 2) array per test, in the order of ``tests``, each row
    the sum of varpi1 * Lambda * xi * xi * dx * dx over pairs nu < mu, O(N)
    on the run's ``solver.KernelTables``; ``densities`` has a row per record.

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
    with np.errstate(over="ignore"):
        terms = [test.pair_terms(grid.midpoints) for test in tests]
    if all(np.all(np.isfinite(f)) for each in terms for _, u, v in each for f in (u, v)):
        n = tree_prefix(n - 1, _occupied(densities)) + 1
    # each distinct v factor, by identity, with the u factors of the terms
    # that read it, stacked in the order the tests' terms come
    shared = {}
    for _, u, v in itertools.chain.from_iterable(terms):
        shared.setdefault(id(v), (v, []))[1].append(np.broadcast_to(u, v.shape))
    shared = {key: (v[:n], np.array(us)[:, None, :n]) for key, (v, us) in shared.items()}
    widths = grid.widths[:n]
    sums = [np.empty((len(densities), 2)) for _ in terms]
    for block in _blocks(len(densities), n):
        w = densities[block, :n] * widths
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


def relative_gap(a, b, gross):
    """|a - b| over the larger of |a| and |b|, floored at ``GROSS_GUARD`` times
    ``gross``, the magnitude roundoff in a and b scales with, and at
    ``EPS_FLOOR``."""
    return abs(a - b) / max(abs(a), abs(b), GROSS_GUARD * gross, EPS_FLOOR)


def weak_rhs_quadrature(run, sums):
    """Time-integrated pair quadrature of the weak form over the whole replay.

    ``sums`` are one test's ``pair_sums`` at every record of the run, which
    this integrates in time with the trapezoid rule over the recorded
    cadence; 0 on a one-record run.  Returns (value, gross).
    """
    times = run.series.times()
    return float(np.trapezoid(sums[:, 0], times)), float(np.trapezoid(sums[:, 1], times))


class WeakFormResult(NamedTuple):
    residual: float
    quadrature: float
    gross: float


def weak_form_residual(run, test, sums):
    """Relative mismatch of the two sides of the weak identity at the last record.

    Left side: integral of varpi against xi(t) - xi(0), plus the boundary
    term varpi(xbar) / xbar * (gel(t) - gel(0)) with xbar = xbar_{N-1}, the
    last midpoint: the solver books the mass leaving through the cutoff as
    gel, and gel mass g leaves as g / xbar particles of size xbar.  Right
    side: the time-integrated pair quadrature of ``sums``, the test's
    ``pair_sums`` at every record.  The residual is their ``relative_gap``,
    against the larger gross magnitude of the two sides.  Returns the
    residual with the quadrature and gross that ``weak_rhs_quadrature``
    gave: |quadrature| for ``CappedIdentity``, whose one pair term keeps its
    sign, and gain + loss, the roundoff scale of its two pair sums and an
    upper bound of the unsigned sum, for ``Power``.
    """
    rhs, gross_rhs = weak_rhs_quadrature(run, sums)
    first, at_t = run.densities[0], run.densities[-1]
    gel = run.series.gel()
    g = run.tables.grid
    phi = test.value(g.midpoints)
    xbar = g.midpoints[-1]
    boundary = float(phi[-1] / xbar * (gel[-1] - gel[0]))
    lhs = float(np.sum(phi * (at_t - first) * g.widths)) + boundary
    gross_lhs = float(
        np.sum(np.abs(phi) * (np.abs(at_t) + np.abs(first)) * g.widths)
    ) + abs(boundary)
    return WeakFormResult(residual=relative_gap(lhs, rhs, max(gross_lhs, gross_rhs)),
                          quadrature=rhs, gross=gross_rhs)


def moment_residual(run, r, sums, values):
    """Max relative defect of the recorded M^r evolution against its quadrature.

    ``sums`` and ``values`` are the quadrature and the moment at every
    record: ``pair_sums(run.densities, run.tables, [Power(r)])[0][:, 0]`` and
    ``stacked_moments(run.tables.grid, run.densities, (r,))[r]``.  Uses a
    centered difference over uniformly spaced records and the quadrature at
    each interior record; requires at least 3 records.  A ``t_end`` off the
    record cadence ends the series with a shorter interval, whose last record
    is left out; any other uneven spacing raises InvalidInputError.

    The differenced quantity is
    M^r + xbar**(r-1) * gel_mass with xbar = xbar_{N-1}, the last midpoint:
    the M^r the boundary flux carries out in a step is xbar**(r-1) times
    that step's gel increment, so the boundary term is exact and what
    remains is the first-order consistency error of the quadrature.
    """
    times = run.series.times()
    steps = np.diff(times)
    if steps.size > 1 and steps[-1] < steps[0] * (1.0 - CADENCE_RTOL):
        steps = steps[:-1]
    n = steps.size + 1
    if n < 3:
        raise InvalidInputError("moment residual needs at least 3 records")
    if np.max(np.abs(steps - steps.mean())) > CADENCE_RTOL * steps.mean():
        raise InvalidInputError("moment residual needs records at uniform cadence")
    times, values, sums = times[:n], values[:n], sums[:n]
    xbar = run.tables.grid.midpoints[-1]
    mr = values + xbar ** (r - 1.0) * run.series.gel()[:n]
    rate = (mr[2:] - mr[:-2]) / (times[2:] - times[:-2])
    rhs = sums[1:-1]
    return float(np.max(np.abs(rate - rhs) / np.maximum(np.abs(rhs), EPS_FLOOR)))
