"""Allocation rules: static mixes, glide paths and the target strategies.

All rules decide the equity fraction alpha_t each year; the complement sits
in the inflation-matching portfolio.  The two target strategies compare
wealth against a target funded by compounding contributions at a required
real rate r on top of (realized, then expected) inflation:

    E_t F_tau = prod_{k=tau+1..t} (1 + r + pi_k) * (1 + r + I_t)^(T-t)

The cumulative strategy tracks one aggregate target; the individual
strategy tracks one target per contribution tranche, switching a tranche
into the matching portfolio permanently once its target has been reached.

Wealth grows by one rule, alpha (1 + x) + (1 - alpha) (1 + m) plus the
year's contribution, in one of two shapes.  ``_accumulate`` keeps one pot
per path (static mixes, glide paths, the cumulative rule); ``_run_tranches``
keeps one pot per contribution tranche, each at one of a few allocation
values (the individual rule and the DP combination strategy).  Each runner
only says how alpha is chosen.  Both kernels keep their state year-major,
one contiguous row per year: the wealth and alpha panels, the tranche
wealth laid out (tau, path), and the tranche index record as a
(t, tau, path) triangle.  Callers see (path, year) and (path, tau) arrays
through transposed views.  ``_pairwise_sum`` adds each path's tranches down a
(tau, path) block in numpy's order for a row, pinned by
``test_pairwise_sum_matches_numpy_row_sums``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .engine import SimulationInputs
from .errors import DomainError, ParameterError, ScheduleError
from .market import post_retirement_factor

__all__ = [
    "CumulativeTargetStrategy",
    "GlidePath",
    "IndividualTargetStrategy",
    "StaticMixStrategy",
    "StrategyOutcome",
    "TargetFrame",
    "TargetParams",
    "cumulative_step",
    "optimize_static_mix",
    "static_step",
]


@dataclass(frozen=True)
class TargetParams:
    """Required real return and annuity assumptions behind wealth targets."""

    r: float
    delta: float = 0.025
    N: int = 20
    T: int = 41
    target_rr: float = 0.70

    def __post_init__(self) -> None:
        if not np.isfinite(self.r) or self.r <= -1.0:
            raise ParameterError(f"required return r={self.r} must be finite and > -1")
        if not np.isfinite(self.delta) or self.delta <= -1.0:
            raise ParameterError(f"discount rate delta={self.delta} must exceed -1")
        if self.N < 1 or self.T < 1:
            raise ParameterError(f"N={self.N} and T={self.T} must be >= 1")
        if not 0.0 < self.target_rr < 2.0:
            raise ParameterError(f"target replacement ratio {self.target_rr} not in (0, 2)")

    @property
    def m_tilde(self) -> float:
        """Deterministic post-retirement annuity factor."""
        return post_retirement_factor(self.delta, self.N)


@dataclass(frozen=True)
class GlidePath:
    """Deterministic per-age equity fraction."""

    ages: tuple
    fraction: tuple

    def __post_init__(self) -> None:
        if len(self.ages) != len(self.fraction) or not self.ages:
            raise ScheduleError("glide path needs one fraction per age")
        expected = tuple(range(self.ages[0], self.ages[0] + len(self.ages)))
        if tuple(self.ages) != expected:
            raise ScheduleError("glide path ages must be consecutive integers")
        for f in self.fraction:
            if not np.isfinite(f) or not 0.0 <= f <= 1.0:
                raise ScheduleError(f"glide fraction {f} not in [0, 1]")

    @classmethod
    def bogle(cls, ages=tuple(range(25, 67))) -> "GlidePath":
        """Hold (100 - age)% in equity, clamped to [0, 1]."""
        frac = tuple(min(max((100 - a) / 100.0, 0.0), 1.0) for a in ages)
        return cls(ages=tuple(ages), fraction=frac)

    @classmethod
    def linear_to(cls, end: float, ages=tuple(range(25, 67)), start: float = 1.0) -> "GlidePath":
        """Equity fraction moving linearly from ``start`` to ``end`` over ``ages``."""
        for f in (start, end):
            if not 0.0 <= f <= 1.0:
                raise ParameterError(f"glide path fraction {f} not in [0, 1]")
        frac = np.linspace(start, end, len(ages))
        return cls(ages=tuple(ages), fraction=tuple(float(f) for f in frac))

    def fraction_at(self, age: int) -> float:
        if not self.ages[0] <= age <= self.ages[-1]:
            raise ScheduleError(f"age {age} outside glide path {self.ages[0]}..{self.ages[-1]}")
        return self.fraction[age - self.ages[0]]


def static_step(mix_or_glide, age: int) -> float:
    """Scheduled equity fraction for this age (constant mix or glide path)."""
    if isinstance(mix_or_glide, GlidePath):
        return mix_or_glide.fraction_at(age)
    mix = float(mix_or_glide)
    if not np.isfinite(mix) or not 0.0 <= mix <= 1.0:
        raise ParameterError(f"static mix {mix} not in [0, 1]")
    return mix


@dataclass
class TargetFrame:
    """All target-wealth panels for one scenario set and one ``TargetParams``.

    ``build`` checks that 1 + r + pi and 1 + r + I_t stay positive and
    computes ``growth_exp[:, t]``, the expected factor (1 + r + I_t)^(T-t);
    every other panel is built on first read.  ``cumq[t]`` compounds
    1 + r + pi through year t; it and ``c_by_year``, the contributions, are
    held year-major (T + 1, n_paths), so ``tranche_targets`` reads
    contiguous rows.  ``acc`` accumulates contributions at realized
    1 + r + pi, ``er[:, t]`` is the one-year growth of any tranche target
    excluding the annuity-factor move, and ``target_cum`` is the aggregate
    target.
    """

    params: TargetParams
    m_tilde: float
    M: np.ndarray
    growth_exp: np.ndarray
    pi: np.ndarray = field(repr=False)
    contributions: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, inputs: SimulationInputs, params: TargetParams) -> "TargetFrame":
        if params.T != inputs.T:
            raise ParameterError(
                f"params.T={params.T} does not match prepared horizon {inputs.T}"
            )
        T = params.T
        pi = inputs.scenarios.pi[:, : T + 1]
        if np.any(1.0 + params.r + pi[:, 1:] <= 0.0):
            raise DomainError("1 + r + realized inflation must stay positive")
        base = 1.0 + params.r + inputs.inflation.rates[:, : T + 1]
        if np.any(base <= 0.0):
            raise DomainError("1 + r + expected inflation must stay positive")
        growth_exp = base ** np.arange(T, -1, -1)
        return cls(params, params.m_tilde, inputs.market.M, growth_exp, pi, inputs.contributions)

    @cached_property
    def cumq(self) -> np.ndarray:
        q = 1.0 + self.params.r + self.pi
        cumq = np.ones(q.shape[::-1])
        np.cumprod(q.T[1:], axis=0, out=cumq[1:])
        return cumq

    @cached_property
    def c_by_year(self) -> np.ndarray:
        return self.contributions.T.copy()

    @cached_property
    def er(self) -> np.ndarray:
        q, g = 1.0 + self.params.r + self.pi, self.growth_exp
        er = np.full_like(q, np.nan)
        er[:, 1:] = q[:, 1:] * g[:, 1:] / g[:, :-1]
        return er

    @cached_property
    def acc(self) -> np.ndarray:
        q, c = 1.0 + self.params.r + self.pi, self.contributions
        acc = c.copy()
        for t in range(1, self.params.T + 1):
            acc[:, t] = acc[:, t - 1] * q[:, t] + c[:, t]
        return acc

    @cached_property
    def target_cum(self) -> np.ndarray:
        return self.M * self.acc * self.growth_exp / self.m_tilde

    def tranche_targets(self, t: int) -> np.ndarray:
        """Targets of all tranches born up to t, shape (n_paths, t + 1).

        A transposed view of the year-major (t + 1, n_paths) block.
        """
        scale = self.M[:, t] * self.growth_exp[:, t] / self.m_tilde
        targets = scale * self.c_by_year[: t + 1]
        targets *= self.cumq[t] / self.cumq[: t + 1]
        return targets.T

    def z0(self, tau: int) -> np.ndarray:
        """Initial wealth-to-target ratio of a tranche born at tau (or a slice of years)."""
        return self.m_tilde / (self.M[:, tau] * self.growth_exp[:, tau])


def cumulative_step(wealth, target, alpha_prev, x, m, t: int):
    """Equity fraction of the cumulative strategy at time t.

    Zero once wealth covers the target; otherwise full equity at t = 0 and
    afterwards the buy-and-hold drift of last year's mix.
    """
    wealth = np.asarray(wealth, dtype=float)
    target = np.asarray(target, dtype=float)
    if t == 0:
        return np.where(wealth >= target, 0.0, 1.0)
    alpha_prev = np.asarray(alpha_prev, dtype=float)
    if np.any((alpha_prev < 0.0) | (alpha_prev > 1.0)):
        raise ParameterError("previous allocation must lie in [0, 1]")
    risky = alpha_prev * (1.0 + np.asarray(x, dtype=float))
    total = risky + (1.0 - alpha_prev) * (1.0 + np.asarray(m, dtype=float))
    if np.any(total <= 0.0):
        raise DomainError("portfolio wiped out: drift denominator is not positive")
    return np.where(wealth >= target, 0.0, risky / total)


@dataclass
class StrategyOutcome:
    """Wealth and allocation panels produced by one strategy run.

    ``wealth[:, t]`` includes the year-t contribution (decision-time
    wealth); ``alpha[:, t]`` is the fraction chosen at t for the year
    ahead.  Both are (n_paths, T + 1) views of year-major panels.
    ``tranche_alpha[p, t, tau]`` (when tracked) is the allocation of the
    tranche born at tau, NaN before its birth, built on first read from the
    ``tranches = (values, record)`` of :func:`_run_tranches`.
    """

    label: str
    wealth: np.ndarray
    alpha: np.ndarray
    tranches: tuple | None = field(default=None, repr=False)

    @property
    def terminal_wealth(self) -> np.ndarray:
        return self.wealth[:, -1]

    @cached_property
    def tranche_alpha(self) -> np.ndarray | None:
        if self.tranches is None:
            return None
        values, record = self.tranches
        n, years = self.wealth.shape
        # the record holds the tau <= t cells of a (t, tau, path) panel, in order
        panel = np.full((years, years, n), np.nan)
        panel[np.broadcast_to(np.tri(years, dtype=bool)[:, :, None], panel.shape)] = values[record]
        return panel.transpose(2, 0, 1)


def _grown(wealth, alpha, x_t, m_t):
    return wealth * (alpha * (1.0 + x_t) + (1.0 - alpha) * (1.0 + m_t))


def _accumulate(inputs: SimulationInputs, decide):
    """One pot per path: ``(wealth, alpha)`` panels of shape (n_paths, T + 1).

    The state is year-major: both panels are (n_paths, T + 1) views of
    (T + 1, n_paths) arrays, so each year writes one contiguous row.
    ``decide(t, wealth_t, alpha_prev)`` returns alpha_t from the decision-time
    wealth (``alpha_prev`` is None at t = 0).
    """
    T, n = inputs.T, inputs.n_paths
    x, m, c = inputs.scenarios.x, inputs.market.m, inputs.contributions
    wealth = np.empty((T + 1, n))
    alpha = np.empty((T + 1, n))
    wealth[0] = c[:, 0]
    alpha[0] = decide(0, wealth[0], None)
    for t in range(1, T + 1):
        wealth[t] = _grown(wealth[t - 1], alpha[t - 1], x[:, t], m[:, t]) + c[:, t]
        alpha[t] = decide(t, wealth[t], alpha[t - 1])
    return wealth.T, alpha.T


def _pairwise_sum(rows, acc, out):
    """Sum a (k, n_paths) block over its rows into ``out``, in numpy's order.

    Each path adds as ``np.add.reduce`` adds one contiguous row of k terms:
    from 0.0, in sequence below 8 terms; up to 128 in 8 running sums combined
    pairwise, then the rest; above that, in two parts split at half the
    length rounded down to a multiple of 8.  ``acc`` is (8, n_paths) scratch,
    or ``rows[:8]`` to sum in place.
    """
    k = len(rows)
    if k > 128:
        half = k // 2 - k // 2 % 8
        _pairwise_sum(rows[:half], acc, out)
        return np.add(out, _pairwise_sum(rows[half:], acc, np.empty_like(out)), out=out)
    m = k - k % 8
    if m == 0:
        np.add(rows[0], 0.0, out=out)
        m = 1
    else:
        first = rows
        if m > 8:
            np.add(rows[:8], rows[8:16], out=acc)
            for i in range(16, m, 8):
                acc += rows[i : i + 8]
            first = acc
        np.add(first[0:8:2], first[1:8:2], out=acc[0::2])
        np.add(acc[0::4], acc[2::4], out=acc[0::4])
        np.add(acc[0], acc[4], out=out)
        out += 0.0  # the start from 0.0: an all -0.0 sum is +0.0
    for row in rows[m:]:
        out += row
    return out


def _run_tranches(label: str, inputs: SimulationInputs, values, decide) -> StrategyOutcome:
    """One pot per contribution tranche, each held at one of ``values``.

    ``decide(t, live)`` returns the indices into ``values`` of the tranches
    born up to t, where ``live`` holds their decision-time wealth, both
    (n_paths, t + 1).  The state is year-major, so each year is a few passes
    over contiguous rows: the tranche wealth is laid out (tau, path), and
    ``record`` keeps the indices as a (t, tau, path) triangle, in the
    narrowest unsigned type that holds every index.  One flat index per
    year, value * n_paths + path, gathers the tranches' allocations and next
    year's growth.  Each path's tranches add on the (tau, path) block, no
    copy made, in numpy's order for a row (:func:`_pairwise_sum`, pinned by
    ``test_pairwise_sum_matches_numpy_row_sums``).  The aggregate alpha is
    the wealth-weighted tranche allocation, 0 where the path holds no wealth.
    """
    T, n = inputs.T, inputs.n_paths
    x, m, c = inputs.scenarios.x, inputs.market.m, inputs.contributions
    values = np.asarray(values, dtype=float)
    table = np.repeat(values, n)  # the allocation per (value, path)
    record = np.empty(n * (T + 1) * (T + 2) // 2, dtype=np.min_scalar_type(values.size - 1))
    start = 0
    tranche_wealth = np.zeros((T + 1, n))
    acc, weighted, paths = np.empty((8, n)), np.empty(n), np.arange(n)
    wealth = np.empty((T + 1, n))
    alpha = np.empty((T + 1, n))
    for t in range(T + 1):
        tranche_wealth[t] = c[:, t]
        live = tranche_wealth[: t + 1]
        idx = record[start : start + n * (t + 1)].reshape(t + 1, n)
        idx.T[...] = decide(t, live.T)
        start += idx.size
        flat = np.multiply(idx, n, dtype=np.intp)
        flat += paths
        held = table.take(flat)
        held *= live
        _pairwise_sum(live, acc, wealth[t])
        _pairwise_sum(held, held[:8], weighted)
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha[t] = np.where(wealth[t] > 0, weighted / wealth[t], 0.0)
        if t < T:
            # one unit's growth per (value, path); the take above checked every index
            factor = _grown(1.0, values[:, None], x[:, t + 1], m[:, t + 1])
            live *= np.take(factor, flat, out=held, mode="wrap")
        del flat, held  # next year's decide runs without them
    return StrategyOutcome(label=label, wealth=wealth.T, alpha=alpha.T, tranches=(values, record))


@dataclass(frozen=True)
class StaticMixStrategy:
    """Annual rebalancing to a constant mix or a deterministic glide path."""

    mix: object
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            name = (
                "glide"
                if isinstance(self.mix, GlidePath)
                else f"static_{100.0 * float(self.mix):g}"
            )
            object.__setattr__(self, "label", name)

    def run(self, inputs: SimulationInputs) -> StrategyOutcome:
        ages = inputs.schedule.ages
        wealth, alpha = _accumulate(inputs, lambda t, w, a: static_step(self.mix, ages[t]))
        return StrategyOutcome(label=self.label, wealth=wealth, alpha=alpha)


@dataclass(frozen=True)
class CumulativeTargetStrategy:
    """Full equity until aggregate wealth reaches the aggregate target."""

    params: TargetParams
    label: str = "cumulative"

    def run(self, inputs: SimulationInputs) -> StrategyOutcome:
        target = TargetFrame.build(inputs, self.params).target_cum
        x, m = inputs.scenarios.x, inputs.market.m

        def decide(t, wealth_t, alpha_prev):
            return cumulative_step(wealth_t, target[:, t], alpha_prev, x[:, t], m[:, t], t)

        wealth, alpha = _accumulate(inputs, decide)
        return StrategyOutcome(label=self.label, wealth=wealth, alpha=alpha)


@dataclass(frozen=True)
class IndividualTargetStrategy:
    """Per-tranche targets with an absorbing switch into matching."""

    params: TargetParams
    label: str = "individual"

    def run(self, inputs: SimulationInputs) -> StrategyOutcome:
        frame = TargetFrame.build(inputs, self.params)
        # laid out (tau, path) like the kernel's tranche state
        absorbed = np.zeros((inputs.T + 1, inputs.n_paths), dtype=bool)

        def decide(t, live):
            held = absorbed[: t + 1].T
            held |= live >= frame.tranche_targets(t)
            return ~held

        return _run_tranches(self.label, inputs, (0.0, 1.0), decide)


def optimize_static_mix(inputs: SimulationInputs, grid, target_rr: float = 0.70) -> float:
    """Grid point minimizing mean shortfall; ties go to the smaller mix."""
    from .metrics import _shortage, _terminal_rr

    grid = np.sort(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ParameterError("static mix grid must be non-empty")
    if grid[0] < 0.0 or grid[-1] > 1.0:
        raise ParameterError("static mix grid must lie within [0, 1]")
    # one batched accumulation over all candidate mixes at once
    T = inputs.T
    x, m, c = inputs.scenarios.x, inputs.market.m, inputs.contributions
    mixes = grid[:, None]
    wealth = np.broadcast_to(c[:, 0], (grid.size, inputs.n_paths)).copy()
    for t in range(1, T + 1):
        wealth = _grown(wealth, mixes, x[:, t], m[:, t]) + c[:, t]
    shortage = _shortage(_terminal_rr(inputs, wealth), target_rr)
    return float(grid[int(np.argmin(shortage))])
