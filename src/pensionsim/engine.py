"""Bundle everything a strategy needs into one prepared object.

``SimulationInputs.prepare`` fits the expected-inflation estimator on the
scenario set, prices the annuity factor panel and lays out salaries,
franchises and contributions along every path, so strategy runners and
metrics can share one consistent snapshot.  ``_fan_out``, the package's one
process pool, runs the DP's tranche solves and the frontier's rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .career import (
    CareerSchedule,
    contribution_path,
    default_schedule,
    franchise_path,
    salary_path,
)
from .errors import ParameterError
from .lsmc import InflationEstimator
from .market import AnnuitySpec, MarketValueSeries, market_value_series
from .scenario import ScenarioSet

__all__ = ["SimulationInputs"]


@dataclass
class SimulationInputs:
    """Scenario set plus all derived panels used by strategies and metrics."""

    scenarios: ScenarioSet
    annuity: AnnuitySpec
    schedule: CareerSchedule
    inflation: InflationEstimator
    market: MarketValueSeries
    salaries: np.ndarray
    franchises: np.ndarray
    contributions: np.ndarray

    @property
    def T(self) -> int:
        return self.annuity.T

    @property
    def n_paths(self) -> int:
        return self.scenarios.n_paths

    @classmethod
    def prepare(
        cls,
        scenarios: ScenarioSet,
        annuity: AnnuitySpec | None = None,
        schedule: CareerSchedule | None = None,
        inflation_floor: float = 0.5,
    ) -> "SimulationInputs":
        """Fit estimators and lay out career panels for ``scenarios``.

        The career schedule is truncated to the accumulation horizon, so a
        shorter ``annuity.T`` simply uses the first ``T + 1`` career ages.
        """
        schedule = schedule if schedule is not None else default_schedule()
        if annuity is None:
            annuity = AnnuitySpec(T=schedule.n_years - 1, N=20)
        if annuity.T + 1 > schedule.n_years:
            raise ParameterError(
                f"career schedule covers {schedule.n_years} years but the "
                f"accumulation horizon needs {annuity.T + 1}"
            )
        schedule = schedule.truncated(annuity.T + 1)
        inflation = InflationEstimator.fit(scenarios, annuity.T, floor=inflation_floor)
        market = market_value_series(scenarios, annuity, inflation)
        w = scenarios.w[:, : annuity.T + 1]
        return cls(
            scenarios=scenarios,
            annuity=annuity,
            schedule=schedule,
            inflation=inflation,
            market=market,
            salaries=salary_path(w, schedule),
            franchises=franchise_path(w, schedule),
            contributions=contribution_path(w, schedule),
        )


_shared = None  # a worker's copy of ``_fan_out``'s ``shared``, set as it starts


def _adopt(shared) -> None:
    global _shared
    _shared = shared


def _call_shared(call, *job):
    return call(_shared, *job)


def _fan_out(call, shared, jobs: list, threads: int, here=None) -> list:
    """``[call(shared, *job) for job in jobs]``, on up to ``threads`` workers.

    Above one thread the jobs go to forked workers in list order (a caller
    lists its costliest first), while ``here()``, if given, runs in this
    process and leads the results.  A failed job re-raises here, and every
    worker has exited before this returns.  At one thread all runs here, in order.
    """
    if threads == 1 or not jobs:
        return ([here()] if here else []) + [call(shared, *job) for job in jobs]
    # imported here: the process machinery costs a package import ~11 ms
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    # fork, whatever the platform default: workers inherit numpy, the package
    # and ``shared``, which is never pickled.  The one other thread is the
    # pool OpenBLAS starts with numpy; its pthread_atfork handler shuts it
    # down before each fork, so no BLAS lock is copied mid-hold, and a later
    # BLAS call that wants threads starts a fresh pool
    pool = ProcessPoolExecutor(min(threads, len(jobs)), get_context("fork"), _adopt, (shared,))
    try:
        futures = [pool.submit(_call_shared, call, *job) for job in jobs]
        return ([here()] if here else []) + [future.result() for future in futures]
    finally:
        # on a failure the queued jobs are dropped; either way every worker
        # has exited and been reaped before this returns
        pool.shutdown(wait=True, cancel_futures=True)
