"""Allocation rules: static mixes, glide paths and the target strategies.

All rules decide the equity fraction alpha_t each year; the complement sits
in the inflation-matching portfolio.  The two target strategies compare
wealth against a target funded by compounding contributions at a required
real rate r on top of (realized, then expected) inflation:

    E_t F_tau = prod_{k=tau+1..t} (1 + r + pi_k) * (1 + r + I_t)^(T-t)

The cumulative strategy tracks one aggregate target; the individual
strategy tracks one target per contribution tranche, switching a tranche
into the matching portfolio permanently once its target has been reached.

Wealth grows by one rule, ``_unit_growth``: alpha (1 + x) + (1 - alpha)
(1 + m) per unit, which also grows :mod:`pensionsim.dp`'s ratios.  With the
year's contribution added, it has two shapes, and each kernel returns the
``StrategyOutcome``.  ``_accumulate`` keeps one pot per path (static mixes,
glide paths, the cumulative rule); ``_run_tranches`` keeps one pot per
contribution tranche, each at one of a few allocation values (the
individual rule and the DP combination strategy).  Each runner only says
how alpha is chosen.  Both keep their state year-major, one contiguous row
per year: the wealth and alpha panels, the tranche wealth laid out
(tau, path), and the tranche index record as a (t, tau, path) triangle;
callers see (path, year) and (path, tau) arrays through transposed views.
The walk ``_walk_tranches`` yields each year's tranche wealth and index
blocks: a run writes the indices, and the replay that builds its panels on
first read reads them.  Every sum over a path's tranches (its wealth, its
allocation weight) adds the (tau, path) rows from 0.0 in birth order,
tau = 0 first: Python's ``sum``.  Flows compounded at a rate
(``TargetFrame.acc``, the replacement ratio's indexed wage sum) run through
one loop, ``_compounded``.
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
]


@dataclass(frozen=True)
class TargetParams:
    """Required real return and annuity assumptions behind wealth targets; T is
    the prepared inputs' own, and ``N`` must be the N their M_t was priced with."""

    r: float
    delta: float = 0.025
    N: int = 20
    target_rr: float = 0.70

    def __post_init__(self) -> None:
        if not np.isfinite(self.r) or self.r <= -1.0:
            raise ParameterError(f"required return r={self.r} must be finite and > -1")
        if not np.isfinite(self.delta) or self.delta <= -1.0:
            raise ParameterError(f"discount rate delta={self.delta} must exceed -1")
        if self.N < 1:
            raise ParameterError(f"N={self.N} must be >= 1")
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
    def linear_to(cls, end: float, ages=tuple(range(25, 67))) -> "GlidePath":
        """Equity fraction moving linearly from 1.0 to ``end`` over ``ages``."""
        if not 0.0 <= end <= 1.0:
            raise ParameterError(f"glide path fraction {end} not in [0, 1]")
        frac = np.linspace(1.0, end, len(ages))
        return cls(ages=tuple(ages), fraction=tuple(float(f) for f in frac))

    def fraction_at(self, age: int) -> float:
        if not self.ages[0] <= age <= self.ages[-1]:
            raise ScheduleError(f"age {age} outside glide path {self.ages[0]}..{self.ages[-1]}")
        return self.fraction[age - self.ages[0]]


def _target_growth_base(inputs: SimulationInputs, params: TargetParams) -> np.ndarray:
    """1 + r + I_t over the prepared years 0..T, once ``params.N`` is checked
    against the priced annuity's, and 1 + r + pi and 1 + r + I_t to stay positive."""
    if params.N != inputs.annuity.N:
        raise ParameterError(f"params.N={params.N} does not match the annuity N={inputs.annuity.N}")
    if np.any(1.0 + params.r + inputs.scenarios.pi[:, 1 : inputs.T + 1] <= 0.0):
        raise DomainError("1 + r + realized inflation must stay positive")
    base = 1.0 + params.r + inputs.inflation.rates
    if np.any(base <= 0.0):
        raise DomainError("1 + r + expected inflation must stay positive")
    return base


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
    M: np.ndarray
    growth_exp: np.ndarray
    pi: np.ndarray = field(repr=False)
    contributions: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, inputs: SimulationInputs, params: TargetParams) -> "TargetFrame":
        growth_exp = _target_growth_base(inputs, params) ** np.arange(inputs.T, -1, -1)
        pi = inputs.scenarios.pi[:, : inputs.T + 1]
        return cls(params, inputs.market.M, growth_exp, pi, inputs.contributions)

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
        return _compounded(self.contributions, 1.0 + self.params.r, self.pi)

    @cached_property
    def target_cum(self) -> np.ndarray:
        return self.M * self.acc * self.growth_exp / self.params.m_tilde

    def tranche_targets(self, t: int) -> np.ndarray:
        """Targets of all tranches born up to t, shape (n_paths, t + 1).

        A transposed view of the year-major (t + 1, n_paths) block.
        """
        scale = self.M[:, t] * self.growth_exp[:, t] / self.params.m_tilde
        targets = scale * self.c_by_year[: t + 1]
        targets *= self.cumq[t] / self.cumq[: t + 1]
        return targets.T

    def z0(self, tau: int) -> np.ndarray:
        """Initial wealth-to-target ratio of a tranche born at tau (or a slice of years)."""
        return self.params.m_tilde / (self.M[:, tau] * self.growth_exp[:, tau])


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
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    risky, total = _unit_growth(alpha_prev, x, m)
    if np.any(total <= 0.0):
        raise DomainError("portfolio wiped out: drift denominator is not positive")
    return np.where(wealth >= target, 0.0, risky / total)


class StrategyOutcome:
    """Wealth and allocation panels produced by one strategy run.

    ``wealth[:, t]`` includes the year-t contribution (decision-time
    wealth); ``alpha[:, t]`` is the fraction chosen at t for the year
    ahead; both are (n_paths, T + 1) views of year-major panels.  A tranche
    run keeps ``tranches = (inputs, values, record)`` and ``terminal_wealth``
    and builds its panels and ``tranche_alpha[p, t, tau]`` (the allocation
    of the tranche born at tau, NaN before) on first read.
    """

    def __init__(self, label: str, wealth=None, alpha=None, tranches=None, terminal_wealth=None):
        self.label, self.tranches = label, tranches
        if tranches is None:
            self.wealth, self.alpha = wealth, alpha
            terminal_wealth = wealth[:, -1].copy()
        self.terminal_wealth = terminal_wealth

    def __getattr__(self, name: str):
        # reached only while a tranche run's panels are not built
        if name not in ("wealth", "alpha"):
            raise AttributeError(name)
        self.wealth, self.alpha = _tranche_panels(*self.tranches)
        return getattr(self, name)

    @cached_property
    def tranche_alpha(self) -> np.ndarray | None:
        if self.tranches is None:
            return None
        inputs, values, record = self.tranches
        n, years = inputs.n_paths, inputs.T + 1
        # the record holds the tau <= t cells of a (t, tau, path) panel, in order
        panel = np.full((years, years, n), np.nan)
        panel[np.broadcast_to(np.tri(years, dtype=bool)[:, :, None], panel.shape)] = values[record]
        return panel.transpose(2, 0, 1)


def _unit_growth(alpha, x_t, m_t):
    """One unit after a year at equity fraction ``alpha``: (risky part, total)."""
    risky = alpha * (1.0 + x_t)
    return risky, risky + (1.0 - alpha) * (1.0 + m_t)


def _compounded(flows, base, rates) -> np.ndarray:
    """Flows summed forward with a year's growth: ``out[:, 0] = flows[:, 0]``,
    ``out[:, t] = out[:, t-1] * (base + rates[:, t]) + flows[:, t]``.

    ``rates`` broadcasts against ``flows`` (an (n, 1) column holds one flat
    rate per path), and each year's growth is formed as its column is reached.
    """
    out = np.array(flows, dtype=float)
    rates = np.broadcast_to(rates, out.shape)
    for t in range(1, out.shape[1]):
        out[:, t] = out[:, t - 1] * (base + rates[:, t]) + out[:, t]
    return out


def _grown(wealth, alpha, x_t, m_t):
    """``wealth`` after one year at equity fraction ``alpha``."""
    return wealth * _unit_growth(alpha, x_t, m_t)[1]


def _accumulate(label: str, inputs: SimulationInputs, decide) -> StrategyOutcome:
    """One pot per path, its ``wealth`` and ``alpha`` panels (n_paths, T + 1).

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
    return StrategyOutcome(label, wealth=wealth.T, alpha=alpha.T)


def _walk_tranches(inputs: SimulationInputs, values, record):
    """Grow one pot per contribution tranche, each year at one of ``values``.

    Yields ``(t, live, idx)`` for each year 0..T: the decision-time wealth of
    the tranches born up to t and their indices into ``values``, both
    (t + 1, n_paths) blocks of the (tau, path) tranche wealth and of
    ``record``, which holds the indices as a (t, tau, path) triangle.  A
    caller may write ``idx`` before it asks for the next year; the walk then
    grows ``live`` by the one-year factor of each tranche's value.
    """
    T, n = inputs.T, inputs.n_paths
    x, m, c = inputs.scenarios.x, inputs.market.m, inputs.contributions
    tranche_wealth, paths, start = np.zeros((T + 1, n)), np.arange(n), 0
    for t in range(T + 1):
        tranche_wealth[t] = c[:, t]
        live = tranche_wealth[: t + 1]
        idx = record[start : start + live.size].reshape(live.shape)
        start += idx.size
        yield t, live, idx
        if t < T:
            # one unit's growth per (value, path) at value * n + path; the take checks every index
            flat = np.multiply(idx, n, dtype=np.intp)
            flat += paths
            live *= _grown(1.0, values[:, None], x[:, t + 1], m[:, t + 1]).take(flat)
            del flat  # next year's caller runs without it
        elif idx.max() >= values.size:
            raise IndexError(f"allocation index {idx.max()} outside 0..{values.size - 1}")


def _run_tranches(label: str, inputs: SimulationInputs, values, decide) -> StrategyOutcome:
    """One pot per contribution tranche, each held at one of ``values``.

    ``decide(t, live)`` returns the indices into ``values`` of the tranches born up to t
    from their decision-time wealth ``live``, both (n_paths, t + 1).  The outcome keeps
    the indices, in the narrowest unsigned type that holds them, and the terminal wealth.
    """
    T, n = inputs.T, inputs.n_paths
    values = np.asarray(values, dtype=float)
    record = np.empty(n * (T + 1) * (T + 2) // 2, dtype=np.min_scalar_type(values.size - 1))
    for t, live, idx in _walk_tranches(inputs, values, record):
        idx.T[...] = decide(t, live.T)
    terminal = sum(live, np.zeros(n))
    return StrategyOutcome(label, tranches=(inputs, values, record), terminal_wealth=terminal)


def _tranche_panels(inputs: SimulationInputs, values, record):
    """``(wealth, alpha)`` panels of a tranche run, replayed from its record.

    Year T's wealth is the run's ``terminal_wealth`` bit for bit; alpha is the
    wealth-weighted tranche allocation, 0 where the path holds no wealth.
    """
    T, n = inputs.T, inputs.n_paths
    wealth, alpha = np.empty((T + 1, n)), np.empty((T + 1, n))
    for t, live, idx in _walk_tranches(inputs, values, record):
        wealth[t] = sum(live, np.zeros(n))
        weighted = sum(values.take(idx) * live, np.zeros(n))
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha[t] = np.where(wealth[t] > 0, weighted / wealth[t], 0.0)
    return wealth.T, alpha.T


@dataclass(frozen=True)
class StaticMixStrategy:
    """Annual rebalancing to a constant mix in [0, 1] or a deterministic glide path."""

    mix: object
    label: str = ""

    def __post_init__(self) -> None:
        glide = isinstance(self.mix, GlidePath)
        # NaN fails both comparisons
        if not glide and not 0.0 <= float(self.mix) <= 1.0:
            raise ParameterError(f"static mix {self.mix} not in [0, 1]")
        if not self.label:
            name = "glide" if glide else f"static_{100.0 * float(self.mix):g}"
            object.__setattr__(self, "label", name)

    def run(self, inputs: SimulationInputs) -> StrategyOutcome:
        at = self.mix.fraction_at if isinstance(self.mix, GlidePath) else lambda _: float(self.mix)
        fractions = [at(age) for age in inputs.schedule.ages]
        return _accumulate(self.label, inputs, lambda t, w, a: fractions[t])


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

        return _accumulate(self.label, inputs, decide)


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
