"""Replacement-ratio outcomes, tail risk and strategy evaluation reports.

The replacement ratio annuitizes terminal wealth and divides by the
inflation-indexed average career wage:

    RR_T = (W_T / M_T) * (T + 1) / sum_t s_t * prod_{tau>t} (1 + pi_tau)

Shortfall is the part of RR_T below the investor's target (non-positive by
convention; reports quote the positive mean shortage).  VaR/CVaR use the
lowest ceil(alpha * n) order statistics, deterministic under ties.

Mid-career diagnostics are the same ratio on the world seen from year t:
inflation and wage inflation realized through t and flat after it, at the
current expected inflation I_t (wages add the wage spread).  The expected
replacement ratio R_t annuitizes expected terminal wealth at a linear
regression of M_T on M_t; the target replacement ratio R*(t) annuitizes the
wealth target, whose market value factor cancels.  Every future year grows at
the flat rate 1 + r + I_t, the convention of
:class:`~pensionsim.strategies.TargetFrame`'s (1 + r + I_t)^(T-t).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .career import contribution_path, salary_path
from .engine import SimulationInputs, _fan_out
from .errors import DomainError, EstimatorError, ParameterError
from .lsmc import ceil_int, regress_now
from .strategies import (
    CumulativeTargetStrategy,
    IndividualTargetStrategy,
    StaticMixStrategy,
    TargetParams,
    _compounded,
    _target_growth_base,
)

__all__ = [
    "EvaluationReport",
    "FrontierRow",
    "REPORT_COLUMNS",
    "ReplacementEstimators",
    "cvar",
    "evaluate_strategy",
    "frontier",
    "replacement_ratio",
    "shortfall",
    "var",
]


def replacement_ratio(w_T, M_T, salaries, inflations) -> np.ndarray:
    """Pension from annuitized wealth over the indexed average wage."""
    w_T = np.asarray(w_T, dtype=float)
    M_T = np.asarray(M_T, dtype=float)
    salaries = np.atleast_2d(np.asarray(salaries, dtype=float))
    inflations = np.atleast_2d(np.asarray(inflations, dtype=float))
    if salaries.shape != inflations.shape:
        raise ParameterError("salaries and inflations must share one shape per path")
    if np.any(M_T <= 0.0):
        raise DomainError("market value factor at retirement must be positive")
    T = salaries.shape[1] - 1
    denom = _compounded(salaries, 1.0, inflations)[:, -1]
    if np.any(denom <= 0.0):
        raise DomainError("indexed wage sum must be positive")
    out = w_T / M_T * (T + 1) / denom
    return out if out.ndim else float(out)


def _terminal_rr(inputs: SimulationInputs, wealth: np.ndarray) -> np.ndarray:
    """Replacement ratios of terminal wealth on the prepared inputs.

    ``wealth`` holds one value per path, or a block with one row of them per
    strategy; the indexed wage sum is computed once for the whole block.
    """
    T = inputs.T
    return replacement_ratio(
        wealth, inputs.market.M[:, T], inputs.salaries, inputs.scenarios.pi[:, : T + 1]
    )


def shortfall(rr, target: float):
    """Non-positive gap of the replacement ratio below the target."""
    return np.minimum(np.asarray(rr, dtype=float) - target, 0.0)


def _shortage(rr: np.ndarray, target: float):
    """Mean positive gap below the target, over the last axis of ``rr``."""
    return np.mean(np.maximum(target - rr, 0.0), axis=-1)


def _tail_count(samples: np.ndarray, alpha: float) -> int:
    if samples.size == 0:
        raise DomainError("need at least one sample")
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"quantile level {alpha} outside (0, 1)")
    return min(ceil_int(alpha * samples.size), samples.size)


def var(samples, alpha: float) -> float:
    """Empirical lower-tail value at risk: the ceil(alpha*n)-th smallest."""
    s = np.asarray(samples, dtype=float).ravel()
    nc = _tail_count(s, alpha)
    return float(np.partition(s, nc - 1)[nc - 1])


def cvar(samples, alpha: float) -> float:
    """Mean of the ceil(alpha*n) smallest samples."""
    s = np.asarray(samples, dtype=float).ravel()
    nc = _tail_count(s, alpha)
    return float(np.partition(s, nc - 1)[:nc].mean())


class ReplacementEstimators:
    """Mid-career replacement-ratio estimators on one prepared input set.

    R_t and R*(t) are :func:`replacement_ratio` on the world seen from year t:
    inflation and wage inflation realized through t and flat after it, at the
    current expected inflation I_t (plus the wage spread for wages), with the
    career panels laid out along that wage path.  Money grows from t to T at
    1 + r + pi in that world, so each future year grows at the flat 1 + r +
    I_t that :class:`~pensionsim.strategies.TargetFrame` uses for E_t F_tau.
    E[M_T | year t] comes from a global linear regression of M_T on M_t, so
    both ratios are computable at any year from information available then.
    """

    def __init__(self, inputs: SimulationInputs, params: TargetParams):
        _target_growth_base(inputs, params)  # checks N, 1 + r + pi and 1 + r + I_t
        self.inputs = inputs
        self.params = params

    # -- building blocks ---------------------------------------------------

    def expected_market_factor(self, t: int) -> np.ndarray:
        """E[M_T | year t] per path, from the line of M_T on M_t; exact at t = T."""
        T, M = self.inputs.T, self.inputs.market.M
        if not 0 <= t <= T:
            raise ParameterError(f"t={t} outside 0..{T}")
        if t == T:
            return M[:, T]
        intercept, slope = regress_now(M[:, t], M[:, T])
        pred = slope * M[:, t] + intercept
        if np.any(pred <= 0.0):
            raise EstimatorError("regressed terminal annuity factor is not positive")
        return pred

    def _seen_from(self, t: int):
        """(pi, salaries, contributions) panels of the world seen from year t."""
        inputs, T = self.inputs, self.inputs.T
        if not 0 <= t <= T:
            raise ParameterError(f"t={t} outside 0..{T}")
        I_t = inputs.inflation.rates[:, t, None]
        pi = inputs.scenarios.pi[:, : T + 1].copy()
        w = inputs.scenarios.w[:, : T + 1].copy()
        pi[:, t + 1 :] = I_t
        w[:, t + 1 :] = I_t + inputs.scenarios.wage_spread
        if np.any(1.0 + w[:, t + 1 :] <= 0.0):
            raise EstimatorError("expected wage growth must stay positive")
        return pi, salary_path(w, inputs.schedule), contribution_path(w, inputs.schedule)

    # -- headline estimators -----------------------------------------------

    def expected_rr(self, wealth_t, t: int) -> np.ndarray:
        """Expected replacement ratio R_t given wealth at year t: E[W_T | year t]
        grows ``wealth_t`` and the contributions of years t+1..T-1 to T at the
        1 + r + pi seen from t (year T's own is outside the sum by convention)."""
        pi, salaries, contributions = self._seen_from(t)
        flows = contributions[:, t:]
        flows[:, -1] = 0.0
        flows[:, 0] = wealth_t
        w_T = _compounded(flows, 1.0 + self.params.r, pi[:, t:])[:, -1]
        return replacement_ratio(w_T, self.expected_market_factor(t), salaries, pi)

    def target_rr(self, t: int) -> np.ndarray:
        """Target replacement ratio R*(t); the annuity factor cancels.

        The target pension compounds every contribution to T, realized
        through t and projected after it, at 1 + r + pi.
        """
        pi, salaries, contributions = self._seen_from(t)
        pension = _compounded(contributions, 1.0 + self.params.r, pi)[:, -1]
        return replacement_ratio(pension, self.params.m_tilde, salaries, pi)


@dataclass(frozen=True)
class EvaluationReport:
    """One report row: replacement-ratio statistics for one strategy."""

    strategy: str
    mean: float
    median: float
    var5: float
    var10: float
    cvar5: float
    cvar10: float
    shortage: float
    goal_reached: float
    est_err_mean: float
    est_err_std: float

    def csv_row(self) -> str:
        values = [getattr(self, c) for c in REPORT_COLUMNS[1:]]
        return ",".join([self.strategy] + [repr(float(v)) for v in values])


REPORT_COLUMNS = tuple(f.name for f in fields(EvaluationReport))


def evaluate_strategy(
    inputs: SimulationInputs,
    strategy,
    params: TargetParams,
    estimation_lag: int = 5,
) -> EvaluationReport:
    """Run ``strategy`` on every path and summarize its replacement ratios.

    ``params`` supplies the target ratio and the required return used by
    the mid-career estimator; the estimation error compares R_{T-lag}
    against the realized terminal ratio, for a lag in 0..T.
    """
    if not 0 <= estimation_lag <= inputs.T:
        raise ParameterError(f"estimation_lag={estimation_lag} outside 0..{inputs.T}")
    outcome = strategy.run(inputs)
    rr = _terminal_rr(inputs, outcome.terminal_wealth)
    target = params.target_rr
    estimators = ReplacementEstimators(inputs, params)
    t_est = inputs.T - estimation_lag
    expected = estimators.expected_rr(outcome.wealth[:, t_est], t_est)
    diff = expected - rr
    return EvaluationReport(
        strategy=outcome.label,
        mean=float(np.mean(rr)),
        median=float(np.median(rr)),
        var5=var(rr, 0.05),
        var10=var(rr, 0.10),
        cvar5=cvar(rr, 0.05),
        cvar10=cvar(rr, 0.10),
        shortage=float(_shortage(rr, target)),
        goal_reached=float(np.mean(rr >= target)),
        est_err_mean=float(np.mean(np.abs(diff))),
        est_err_std=float(np.std(diff, ddof=1)) if diff.size > 1 else 0.0,
    )


@dataclass(frozen=True)
class FrontierRow:
    family: str
    param: float
    shortfall: float
    cvar10: float

    def csv_row(self) -> str:
        return f"{self.family},{self.param!r},{self.shortfall!r},{self.cvar10!r}"


# frontier family -> its strategy at one grid parameter, given the
# TargetParams maker: a mix for static, a required return for the target rules
_FRONTIER_FAMILIES = {
    "static": lambda param, target: StaticMixStrategy(mix=param),
    "cumulative": lambda param, target: CumulativeTargetStrategy(target(param)),
    "individual": lambda param, target: IndividualTargetStrategy(target(param)),
}


def _row_terminal(inputs: SimulationInputs, strategy) -> np.ndarray:
    """One frontier row's terminal wealth, which keeps no panel alive and builds none."""
    return strategy.run(inputs).terminal_wealth


def frontier(
    inputs: SimulationInputs,
    families: dict,
    target_rr: float = 0.70,
    delta: float = 0.025,
    threads: int = 1,
) -> list:
    """Mean shortage and 10% CVaR per (family, parameter) combination.

    ``families`` maps a family name (``static``, ``cumulative`` or
    ``individual``) to its parameter grid: mixes for static, required
    returns for the target families, paid out over the prepared annuity's N
    years.  Rows come back sorted by family name, then parameter, and run in
    that order on ``threads`` workers of :func:`~pensionsim.engine._fan_out`,
    each row's strategy built here first; the cheap static rows come last.
    """
    if not families:
        raise ParameterError("frontier needs at least one family")
    specs = []
    for family in sorted(families):
        if family not in _FRONTIER_FAMILIES:
            raise ParameterError(f"unknown frontier family {family!r}")
        grid = np.sort(np.asarray(families[family], dtype=float))
        if grid.size == 0:
            raise ParameterError(f"empty parameter grid for family {family!r}")
        specs += [(family, float(param)) for param in grid]
    if threads < 1:
        raise ParameterError(f"threads must be >= 1, got {threads}")

    def target(r: float) -> TargetParams:
        return TargetParams(r=r, delta=delta, N=inputs.annuity.N, target_rr=target_rr)

    jobs = [(_FRONTIER_FAMILIES[family](param, target),) for family, param in specs]
    # one block as the rows come back, so their list dies at once
    wealth = np.array(_fan_out(_row_terminal, inputs, jobs, threads))
    rr = _terminal_rr(inputs, wealth)
    del wealth  # before the shortages and the tails are built
    shortage = _shortage(rr, target_rr)
    return [
        FrontierRow(family=family, param=param, shortfall=float(short), cvar10=cvar(row, 0.10))
        for (family, param), short, row in zip(specs, shortage, rr)
    ]
