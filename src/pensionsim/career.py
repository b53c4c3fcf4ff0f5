"""Salary careers and pension contributions.

The default career follows a Dutch-style table: salary grows by an
age-dependent career rate on top of wage inflation, and a contribution
rate (rising with age) is applied to the salary above a franchise.  The
rate listed for an age applies when the member arrives at that age, so
the rate at the entry age is never used.  All paths are laid out at once:
every function takes wage-inflation panels of shape (..., T + 1).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np

from .errors import ParameterError, ScheduleError, SchemaError

__all__ = [
    "CareerSchedule",
    "contribution_path",
    "default_schedule",
    "franchise_path",
    "salary_path",
    "schedule_from_csv",
]

_ENTRY_AGE = 25
_FINAL_AGE = 66
_BASE_SALARY = 29403.0
_FRANCHISE = 13123.0

# (first age of band, career rate on arrival, contribution rate)
_DEFAULT_BANDS = (
    (25, 0.03, 0.078),
    (30, 0.03, 0.090),
    (35, 0.02, 0.105),
    (40, 0.02, 0.122),
    (45, 0.01, 0.142),
    (50, 0.01, 0.165),
    (55, 0.00, 0.194),
    (60, 0.00, 0.230),
    (65, 0.00, 0.260),
)


@dataclass(frozen=True)
class CareerSchedule:
    """Age-indexed career and contribution rates plus monetary anchors.

    ``career_rate[i]`` is the salary increase applied on arriving at
    ``ages[i]``; ``career_rate[0]`` is informational only.  Monetary
    amounts are in year-0 units and are indexed with wage inflation.
    """

    ages: tuple
    career_rate: tuple
    contribution_rate: tuple
    base_salary: float = _BASE_SALARY
    franchise: float = _FRANCHISE

    def __post_init__(self) -> None:
        n = len(self.ages)
        if n < 2:
            raise ScheduleError("schedule needs at least two ages")
        if len(self.career_rate) != n or len(self.contribution_rate) != n:
            raise ScheduleError("career and contribution rates must match the age list")
        expected = tuple(range(self.ages[0], self.ages[0] + n))
        if tuple(self.ages) != expected:
            raise ScheduleError(f"ages must be consecutive integers, got {self.ages}")
        for g in self.career_rate:
            if not np.isfinite(g) or g <= -1.0:
                raise ScheduleError(f"career rate {g} must be finite and > -1")
        for p in self.contribution_rate:
            if not np.isfinite(p) or not 0.0 <= p <= 1.0:
                raise ScheduleError(f"contribution rate {p} must lie in [0, 1]")
        if not np.isfinite(self.base_salary) or self.base_salary <= 0:
            raise ParameterError(f"base salary must be positive, got {self.base_salary}")
        if not np.isfinite(self.franchise) or self.franchise < 0:
            raise ParameterError(f"franchise must be non-negative, got {self.franchise}")

    @property
    def n_years(self) -> int:
        """Number of career years (entries), i.e. T + 1."""
        return len(self.ages)

    def truncated(self, n_years: int) -> "CareerSchedule":
        """Schedule covering only the first ``n_years`` ages."""
        if not 2 <= n_years <= self.n_years:
            raise ScheduleError(
                f"cannot truncate a {self.n_years}-year schedule to {n_years} years"
            )
        return replace(
            self,
            ages=self.ages[:n_years],
            career_rate=self.career_rate[:n_years],
            contribution_rate=self.contribution_rate[:n_years],
        )


def default_schedule(
    base_salary: float = _BASE_SALARY, franchise: float = _FRANCHISE
) -> CareerSchedule:
    """Built-in career from age 25 through 66 (42 contribution years)."""
    ages = tuple(range(_ENTRY_AGE, _FINAL_AGE + 1))
    bands = [max(b for b in _DEFAULT_BANDS if b[0] <= age) for age in ages]
    career, contrib = (tuple(b[i] for b in bands) for i in (1, 2))
    return CareerSchedule(ages, career, contrib, base_salary, franchise)


def schedule_from_csv(
    path,
    base_salary: float = _BASE_SALARY,
    franchise: float = _FRANCHISE,
) -> CareerSchedule:
    """Load a schedule override with columns ``age,career_rate,contribution_rate``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty schedule file") from None
        expected = ["age", "career_rate", "contribution_rate"]
        if [h.strip() for h in header] != expected:
            raise SchemaError(
                f"{path}: header must be {','.join(expected)}, got {','.join(header)}"
            )
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 3:
                raise SchemaError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                rows.append((int(row[0]), float(row[1]), float(row[2])))
            except ValueError as exc:
                raise SchemaError(f"{path}:{lineno}: {exc}") from None
    rows.sort(key=lambda r: r[0])
    return CareerSchedule(
        ages=tuple(r[0] for r in rows),
        career_rate=tuple(r[1] for r in rows),
        contribution_rate=tuple(r[2] for r in rows),
        base_salary=base_salary,
        franchise=franchise,
    )


def _check_wage_shape(w: np.ndarray, schedule: CareerSchedule) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape[-1] < schedule.n_years:
        raise ScheduleError(
            f"wage inflation covers {w.shape[-1]} years, schedule needs {schedule.n_years}"
        )
    return w[..., : schedule.n_years]


def salary_path(w: np.ndarray, schedule: CareerSchedule) -> np.ndarray:
    """Salaries along wage-inflation paths ``w`` of shape (..., T+1).

    ``s_0`` equals the base salary; afterwards
    ``s_t = s_{t-1} * (1 + career_rate_t) * (1 + w_t)``.
    """
    w = _check_wage_shape(w, schedule)
    growth = np.ones_like(w)
    rates = np.asarray(schedule.career_rate)
    growth[..., 1:] = (1.0 + rates[1:]) * (1.0 + w[..., 1:])
    return schedule.base_salary * np.cumprod(growth, axis=-1)


def franchise_path(w: np.ndarray, schedule: CareerSchedule) -> np.ndarray:
    """Franchise along wage-inflation paths; indexed with wage inflation only."""
    w = _check_wage_shape(w, schedule)
    growth = np.ones_like(w)
    growth[..., 1:] = 1.0 + w[..., 1:]
    return schedule.franchise * np.cumprod(growth, axis=-1)


def contribution_path(w: np.ndarray, schedule: CareerSchedule) -> np.ndarray:
    """Contributions ``c_t = p_t * max(s_t - f_t, 0)`` along wage paths."""
    rates = np.asarray(schedule.contribution_rate)
    base = salary_path(w, schedule) - franchise_path(w, schedule)
    return rates * np.maximum(base, 0.0)
