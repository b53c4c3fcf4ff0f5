"""Salary path, franchise, contributions and career schedules."""

import numpy as np
import pytest
from dataclasses import replace

from conftest import REFERENCE_CONTRIBUTION, ZERO_W
from pensionsim import (
    CareerSchedule,
    contribution_path,
    default_schedule,
    franchise_path,
    salary_path,
    schedule_from_csv,
)
from pensionsim.errors import ScheduleError, SchemaError

# Reference career table in year-0 currency (ages 25..66).
REFERENCE_SALARY = np.array([
    29403, 30285, 31193, 32129, 33093, 34086, 35108, 36162, 37247, 38364,
    39131, 39914, 40712, 41526, 42357, 43204, 44068, 44950, 45849, 46765,
    47233, 47705, 48183, 48664, 49151, 49642, 50139, 50640, 51147, 51658,
    51658, 51658, 51658, 51658, 51658, 51658, 51658, 51658, 51658, 51658,
    51658, 51658,
], dtype=float)


def test_reference_salaries_within_one_unit():
    s = salary_path(ZERO_W, default_schedule())
    assert np.abs(s - REFERENCE_SALARY).max() <= 1.0


def test_reference_contributions_within_one_unit():
    c = contribution_path(ZERO_W, default_schedule())
    assert c.shape == (42,)
    assert np.abs(c - REFERENCE_CONTRIBUTION).max() <= 1.0


def test_salary_growth_examples():
    s = salary_path(ZERO_W, default_schedule())
    np.testing.assert_allclose(s[0], 29403.0, rtol=0, atol=0)
    np.testing.assert_allclose(s[1], 29403.0 * 1.03, rtol=1e-14)
    indexed = salary_path(np.full(42, 0.02), default_schedule())
    np.testing.assert_allclose(indexed[1], 29403.0 * 1.03 * 1.02, rtol=1e-14)


def test_career_rate_applies_on_arrival():
    # the rate listed at an age is earned when reaching that age
    s = salary_path(ZERO_W, default_schedule())
    np.testing.assert_allclose(s[10] / s[9], 1.02, rtol=1e-14)   # 34 -> 35
    np.testing.assert_allclose(s[20] / s[19], 1.01, rtol=1e-14)  # 44 -> 45
    np.testing.assert_allclose(s[30] / s[29], 1.00, rtol=1e-14)  # 54 -> 55


def test_constant_salary_with_zero_rates():
    flat = CareerSchedule(
        ages=tuple(range(25, 31)),
        career_rate=(0.0,) * 6,
        contribution_rate=(0.1,) * 6,
    )
    s = salary_path(np.zeros(6), flat)
    np.testing.assert_allclose(s, flat.base_salary, rtol=0, atol=0)


def test_contribution_examples():
    c = contribution_path(ZERO_W, default_schedule())
    np.testing.assert_allclose(c[0], 0.078 * (29403.0 - 13123.0), rtol=1e-14)
    assert abs(c[15] - 3669.88) < 0.5  # age 40


def test_contribution_floors_at_zero():
    sched = replace(default_schedule(), base_salary=13123.0, franchise=13123.0)
    c = contribution_path(ZERO_W, sched)
    assert c[0] == 0.0
    poor = replace(default_schedule(), base_salary=5000.0, franchise=13123.0)
    assert (contribution_path(np.zeros(42), poor) >= 0.0).all()


def test_franchise_indexed_with_wage_inflation():
    rng = np.random.default_rng(3)
    w = rng.normal(0.02, 0.01, size=42)
    f = franchise_path(w, default_schedule())
    oracle = 13123.0 * np.cumprod(np.concatenate([[1.0], 1.0 + w[1:]]))
    np.testing.assert_allclose(f, oracle, rtol=1e-13)


def test_contributions_scale_with_monetary_anchors():
    w = np.full(42, 0.015)
    base = contribution_path(w, default_schedule())
    scaled_sched = replace(
        default_schedule(), base_salary=29403.0 * 10, franchise=13123.0 * 10
    )
    scaled = contribution_path(w, scaled_sched)
    np.testing.assert_allclose(scaled, 10.0 * base, rtol=1e-13)


def test_schedule_truncation():
    short = default_schedule().truncated(13)
    assert short.n_years == 13
    np.testing.assert_allclose(
        contribution_path(np.zeros(13), short),
        contribution_path(ZERO_W, default_schedule())[:13],
        rtol=0, atol=0,
    )
    with pytest.raises(ScheduleError):
        default_schedule().truncated(1)


def test_schedule_from_csv_round_trip(tmp_path):
    path = tmp_path / "sched.csv"
    path.write_text(
        "age,career_rate,contribution_rate\n27,0.02,0.09\n25,0.03,0.08\n26,0.02,0.08\n"
    )
    sched = schedule_from_csv(path, base_salary=20000.0, franchise=9000.0)
    assert sched.ages == (25, 26, 27)  # rows get sorted by age
    assert sched.career_rate == (0.03, 0.02, 0.02)
    assert sched.base_salary == 20000.0


def test_schedule_from_csv_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("age,growth,contribution_rate\n25,0.03,0.08\n")
    with pytest.raises(SchemaError, match="header"):
        schedule_from_csv(bad_header)

    bad_value = tmp_path / "v.csv"
    bad_value.write_text("age,career_rate,contribution_rate\n25,abc,0.08\n26,0.02,0.08\n")
    with pytest.raises(SchemaError, match=r"v\.csv:2"):
        schedule_from_csv(bad_value)

    gap = tmp_path / "g.csv"
    gap.write_text("age,career_rate,contribution_rate\n25,0.03,0.08\n27,0.02,0.08\n")
    with pytest.raises(ScheduleError, match="consecutive"):
        schedule_from_csv(gap)


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        CareerSchedule(ages=(25,), career_rate=(0.0,), contribution_rate=(0.1,))
    with pytest.raises(ScheduleError):
        CareerSchedule(
            ages=(25, 26), career_rate=(0.0, 0.0), contribution_rate=(0.1, 1.5)
        )
