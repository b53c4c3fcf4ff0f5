"""Inflation-indexed annuity pricing.

The market value factor M_t prices one unit of annual pension paid in years
T .. T+N-1, discounted on the current yield curve and indexed with the
current expected-inflation rate:

    M_t = sum_{tau=T..T+N-1} (1 + r_t^{tau-t})^{-(tau-t)} * (1 + I_t)^{tau-t}

The matching portfolio replicates those cash flows; its return is the
relative change m_t = M_t / M_{t-1} - 1.  After retirement the accrued
capital converts into a pension with the deterministic discount factor
M~_T = sum_{j=0..N-1} (1 + delta)^{-j}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "AnnuitySpec",
    "MarketValueSeries",
    "market_value_series",
    "post_retirement_factor",
]


@dataclass(frozen=True)
class AnnuitySpec:
    """Timing of the accumulation horizon and the pension payout window."""

    T: int
    N: int

    def __post_init__(self) -> None:
        if self.T < 1:
            raise ParameterError(f"T must be >= 1, got {self.T}")
        if self.N < 1:
            raise ParameterError(f"N must be >= 1, got {self.N}")


def post_retirement_factor(delta: float, N: int) -> float:
    """Deterministic annuity factor sum_{j=0..N-1} (1+delta)^(-j)."""
    if delta <= -1.0:
        raise DomainError(f"discount rate delta={delta} must exceed -1")
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    return float(np.sum((1.0 + delta) ** -np.arange(N)))


def _factor_at(scenarios, t: int, spec: AnnuitySpec, infl_rate: np.ndarray) -> np.ndarray:
    """M_t for all paths; ``infl_rate`` is the per-path I_t vector."""
    horizons = np.arange(spec.T - t, spec.T + spec.N - t, dtype=float)
    h = horizons[horizons > 0][:, None]
    rates = np.ascontiguousarray(scenarios.rates(t, h[:, 0]).T)
    # (maturity, path) terms, added from 0.0 shortest maturity first whatever
    # the layout of the rates; the tau = t term (horizon 0), an undiscounted
    # unit payment, comes last; an overflow leaves an M the caller rejects
    with np.errstate(over="ignore", invalid="ignore"):
        terms = (1.0 + rates) ** -h * (1.0 + infl_rate) ** h
    return sum(terms, np.zeros(scenarios.n_paths)) + (horizons.size - h.size)


@dataclass
class MarketValueSeries:
    """M_t and m_t per (path, year).

    ``m[:, 0]`` is NaN: the matching return is the year-over-year change of
    the factor and does not exist at t = 0.
    """

    M: np.ndarray
    m: np.ndarray


def market_value_series(scenarios, spec: AnnuitySpec, infl) -> MarketValueSeries:
    """Vectorized M_t / m_t panel over all paths and years 0..T."""
    if spec.T > scenarios.horizon:
        raise ParameterError(
            f"annuity horizon T={spec.T} exceeds scenario horizon {scenarios.horizon}"
        )
    n = scenarios.n_paths
    M = np.empty((n, spec.T + 1))
    for t in range(spec.T + 1):
        M[:, t] = _factor_at(scenarios, t, spec, infl.rates[:, t])
    # a NaN factor fails the comparison too
    if not np.all((M > 0) & (M < np.inf)):
        raise DomainError("market value factor must stay positive and finite")
    m = np.empty_like(M)
    m[:, 0] = np.nan
    m[:, 1:] = M[:, 1:] / M[:, :-1] - 1.0
    return MarketValueSeries(M=M, m=m)
