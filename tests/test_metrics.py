"""Replacement ratios, tail risk measures, reports and the frontier sweep."""

import multiprocessing

import numpy as np
import pytest
from dataclasses import replace

from conftest import reference_estimators
from pensionsim import (
    IndividualTargetStrategy,
    ReplacementEstimators,
    SimulationInputs,
    StaticMixStrategy,
    TargetFrame,
    TargetParams,
    cvar,
    evaluate_strategy,
    frontier,
    replacement_ratio,
    shortfall,
    var,
)
from pensionsim import metrics, strategies
from pensionsim.engine import _fan_out
from pensionsim.errors import DomainError, EstimatorError, ParameterError
from pensionsim.metrics import REPORT_COLUMNS


def _params(r=0.025):
    return TargetParams(r=r, delta=0.025, N=20)


# ---------------------------------------------------------------------------
# replacement ratio
# ---------------------------------------------------------------------------

def test_replacement_ratio_hand_example():
    # T = 1: salary 100 then 110, 10% inflation in year 1
    rr = replacement_ratio(
        np.array([2200.0]),
        np.array([10.0]),
        np.array([[100.0, 110.0]]),
        np.array([[0.0, 0.10]]),
    )
    # indexed wage sum: 100 * 1.1 + 110 = 220; pension 220/year; ratio 2.0
    np.testing.assert_allclose(rr, [2.0], rtol=1e-14)


def test_replacement_ratio_zero_wealth_is_zero():
    rr = replacement_ratio(
        np.zeros(2), np.full(2, 15.0),
        np.full((2, 3), 100.0), np.zeros((2, 3)),
    )
    assert np.array_equal(rr, np.zeros(2))


def test_replacement_ratio_homogeneity():
    rng = np.random.default_rng(23)
    w = rng.uniform(1e5, 9e5, 4)
    m = rng.uniform(10, 20, 4)
    s = rng.uniform(2e4, 5e4, (4, 6))
    pi = rng.normal(0.02, 0.01, (4, 6))
    base = replacement_ratio(w, m, s, pi)
    np.testing.assert_allclose(replacement_ratio(3 * w, m, s, pi), 3 * base, rtol=1e-13)
    np.testing.assert_allclose(replacement_ratio(w, m, 3 * s, pi), base / 3, rtol=1e-13)


def test_replacement_ratio_validation():
    with pytest.raises(DomainError):
        replacement_ratio([1.0], [0.0], [[1.0, 1.0]], [[0.0, 0.0]])
    with pytest.raises(ParameterError):
        replacement_ratio([1.0], [10.0], [[1.0, 1.0]], [[0.0]])
    with pytest.raises(DomainError):
        replacement_ratio([1.0], [10.0], [[0.0, 0.0]], [[0.0, 0.0]])


def test_shortfall_values():
    np.testing.assert_allclose(
        shortfall(np.array([0.5, 0.7, 1.3]), 0.7), [-0.2, 0.0, 0.0], atol=1e-15
    )
    assert shortfall(0.8, 0.7) == 0.0


# ---------------------------------------------------------------------------
# tail measures
# ---------------------------------------------------------------------------

def test_var_cvar_small_samples():
    s = np.arange(1.0, 11.0)
    assert var(s, 0.10) == 1.0
    assert cvar(s, 0.10) == 1.0
    assert var(s, 0.50) == 5.0
    assert cvar(s, 0.50) == 3.0  # mean of 1..5
    assert var(s, 0.25) == 3.0   # ceil(2.5) = 3rd smallest
    np.testing.assert_allclose(cvar(s, 0.25), 2.0, rtol=0, atol=0)
    assert var(np.full(7, 4.2), 0.3) == 4.2
    assert cvar(np.full(7, 4.2), 0.3) == 4.2


def test_var_cvar_match_sort_oracle():
    rng = np.random.default_rng(31)
    s = rng.normal(size=200)
    srt = np.sort(s)
    for alpha in (0.05, 0.07, 0.10, 0.5):
        k = int(np.ceil(round(alpha * 200, 9)))
        np.testing.assert_allclose(var(s, alpha), srt[k - 1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(cvar(s, alpha), srt[:k].mean(), rtol=0, atol=1e-12)
        assert cvar(s, alpha) <= var(s, alpha)
        assert cvar(s, alpha) <= s.mean()


def test_var_cvar_validation():
    with pytest.raises(DomainError):
        var(np.array([]), 0.05)
    with pytest.raises(ParameterError):
        var(np.ones(5), 0.0)
    with pytest.raises(ParameterError):
        cvar(np.ones(5), 1.0)


# ---------------------------------------------------------------------------
# mid-career estimators
# ---------------------------------------------------------------------------

def test_estimators_build_no_target_frame(small_inputs, monkeypatch):
    # they share the frame's input checks, not its (n, T + 1) panels
    def build(*args):
        raise AssertionError("TargetFrame.build called")

    monkeypatch.setattr(TargetFrame, "build", build)
    ReplacementEstimators(small_inputs, _params())


def test_expected_rr_exact_at_retirement(small_inputs):
    est = ReplacementEstimators(small_inputs, _params())
    outcome = StaticMixStrategy(mix=0.5).run(small_inputs)
    T = small_inputs.T
    rr = replacement_ratio(
        outcome.terminal_wealth,
        small_inputs.market.M[:, T],
        small_inputs.salaries,
        small_inputs.scenarios.pi[:, : T + 1],
    )
    np.testing.assert_array_equal(est.expected_rr(outcome.wealth[:, T], T), rr)


def test_expected_rr_constant_in_flat_world(flat_inputs):
    # zero rates, zero inflation, zero wage spread and r = 0: projections
    # coincide with the realized path, so the mid-career estimate never moves
    # (the forward contribution sum runs through T-1, so year T itself is
    # exact for realized wealth instead and is checked separately)
    est = ReplacementEstimators(flat_inputs, _params(r=0.0))
    outcome = StaticMixStrategy(mix=0.0).run(flat_inputs)
    T = flat_inputs.T
    first = est.expected_rr(outcome.wealth[:, 0], 0)
    assert (first > 0).all()
    for t in range(1, T):
        np.testing.assert_allclose(
            est.expected_rr(outcome.wealth[:, t], t), first, rtol=1e-9
        )


def test_target_rr_is_scale_invariant(small_inputs):
    sched = small_inputs.schedule
    scaled_inputs = SimulationInputs.prepare(
        small_inputs.scenarios,
        annuity=small_inputs.annuity,
        schedule=replace(sched, base_salary=sched.base_salary * 10,
                         franchise=sched.franchise * 10),
    )
    a = ReplacementEstimators(small_inputs, _params())
    b = ReplacementEstimators(scaled_inputs, _params())
    for t in (0, 4, small_inputs.T):
        np.testing.assert_allclose(b.target_rr(t), a.target_rr(t), rtol=1e-12)


def test_target_rr_matches_funded_target_at_retirement(small_inputs):
    # a portfolio that lands exactly on the aggregate target retires at R*(T)
    params = _params()
    frame = TargetFrame.build(small_inputs, params)
    est = ReplacementEstimators(small_inputs, params)
    T = small_inputs.T
    rr = replacement_ratio(
        frame.target_cum[:, T],
        small_inputs.market.M[:, T],
        small_inputs.salaries,
        small_inputs.scenarios.pi[:, : T + 1],
    )
    np.testing.assert_allclose(rr, est.target_rr(T), rtol=1e-10)
    # R*(T) is the realized ratio of the funded pension, bit for bit
    funded = replacement_ratio(
        frame.acc[:, T], params.m_tilde, small_inputs.salaries,
        small_inputs.scenarios.pi[:, : T + 1],
    )
    np.testing.assert_array_equal(est.target_rr(T), funded)


def test_estimators_match_closed_forms_at_every_year(small_inputs):
    params = _params()
    est = ReplacementEstimators(small_inputs, params)
    wealth = StaticMixStrategy(mix=0.5).run(small_inputs).wealth
    for t in range(small_inputs.T + 1):
        M_hat = est.expected_market_factor(t)
        r_t, r_star = reference_estimators(small_inputs, params, wealth[:, t], t, M_hat)
        np.testing.assert_allclose(est.expected_rr(wealth[:, t], t), r_t, rtol=1e-12,
                                   err_msg=f"t={t}")
        np.testing.assert_allclose(est.target_rr(t), r_star, rtol=1e-12, err_msg=f"t={t}")


def test_estimators_refuse_non_positive_projected_wage_growth(small_inputs):
    # 1 + I_t + spread <= 0 on every projected year; year T projects none
    T = small_inputs.T
    scenarios = replace(small_inputs.scenarios, wage_spread=-2.0)
    est = ReplacementEstimators(replace(small_inputs, scenarios=scenarios), _params())
    wealth = np.ones(small_inputs.n_paths)
    for t in (0, T - 1):
        with pytest.raises(EstimatorError, match="wage growth"):
            est.expected_rr(wealth, t)
        with pytest.raises(EstimatorError, match="wage growth"):
            est.target_rr(t)
    np.testing.assert_array_equal(
        est.target_rr(T), ReplacementEstimators(small_inputs, _params()).target_rr(T)
    )


def test_target_rr_stable_within_paths(small_inputs):
    est = ReplacementEstimators(small_inputs, _params())
    levels = np.stack([est.target_rr(t) for t in range(small_inputs.T + 1)])
    spread = levels.max(axis=0) - levels.min(axis=0)
    assert np.mean(spread <= 0.02) >= 0.95


@pytest.mark.xfail(
    reason="default calibration puts the target ratio well below the paper-style "
    "0.68-0.71 band because salaries in the denominator are wage-indexed",
    strict=True,
)
def test_target_rr_level_band(default_inputs):
    est = ReplacementEstimators(default_inputs, _params())
    assert 0.68 <= float(np.mean(est.target_rr(0))) <= 0.71


def test_estimator_bounds(small_inputs):
    est = ReplacementEstimators(small_inputs, _params())
    with pytest.raises(ParameterError):
        est.expected_rr(np.ones(small_inputs.n_paths), small_inputs.T + 1)
    with pytest.raises(ParameterError):
        est.target_rr(-1)


# ---------------------------------------------------------------------------
# reports and frontier
# ---------------------------------------------------------------------------

def test_report_columns():
    assert REPORT_COLUMNS == (
        "strategy", "mean", "median", "var5", "var10", "cvar5", "cvar10",
        "shortage", "goal_reached", "est_err_mean", "est_err_std",
    )


def test_evaluate_strategy_summarizes_replacement_ratios(small_inputs):
    params = _params()
    rep = evaluate_strategy(small_inputs, StaticMixStrategy(mix=0.3), params)
    outcome = StaticMixStrategy(mix=0.3).run(small_inputs)
    T = small_inputs.T
    rr = replacement_ratio(
        outcome.terminal_wealth,
        small_inputs.market.M[:, T],
        small_inputs.salaries,
        small_inputs.scenarios.pi[:, : T + 1],
    )
    assert rep.strategy == "static_30"
    np.testing.assert_allclose(rep.mean, rr.mean(), rtol=1e-13)
    np.testing.assert_allclose(rep.median, np.median(rr), rtol=1e-13)
    np.testing.assert_allclose(rep.var5, var(rr, 0.05), rtol=1e-13)
    np.testing.assert_allclose(rep.cvar10, cvar(rr, 0.10), rtol=1e-13)
    np.testing.assert_allclose(
        rep.shortage, np.maximum(0.7 - rr, 0.0).mean(), rtol=1e-13
    )
    np.testing.assert_allclose(rep.goal_reached, np.mean(rr >= 0.7), rtol=0, atol=0)

    est = ReplacementEstimators(small_inputs, params)
    t_est = T - 5
    diff = est.expected_rr(outcome.wealth[:, t_est], t_est) - rr
    np.testing.assert_allclose(rep.est_err_mean, np.abs(diff).mean(), rtol=1e-13)
    np.testing.assert_allclose(rep.est_err_std, diff.std(ddof=1), rtol=1e-13)


def test_evaluate_strategy_on_goal_hitting_stub(small_inputs):
    # a strategy whose terminal wealth annuitizes to exactly the 70% goal
    T = small_inputs.T
    pi = small_inputs.scenarios.pi[:, : T + 1]
    index = np.cumprod(1.0 + pi[:, 1:][:, ::-1], axis=1)[:, ::-1]
    den = (small_inputs.salaries * np.hstack([index, np.ones((pi.shape[0], 1))])).sum(axis=1)
    # nudged a hair above the goal so round-off cannot drop any path below it
    w_goal = 0.7 * (1.0 + 1e-9) * small_inputs.market.M[:, T] * den / (T + 1)

    class Stub:
        label = "stub"

        def run(self, inputs):
            from pensionsim import StrategyOutcome

            wealth = np.repeat(w_goal[:, None], T + 1, axis=1)
            return StrategyOutcome(label=self.label, wealth=wealth,
                                   alpha=np.zeros_like(wealth))

    rep = evaluate_strategy(small_inputs, Stub(), _params())
    np.testing.assert_allclose(rep.mean, 0.7, rtol=1e-8)
    np.testing.assert_allclose(rep.cvar5, 0.7, rtol=1e-8)
    np.testing.assert_allclose(rep.shortage, 0.0, atol=1e-12)
    assert rep.goal_reached == 1.0


def test_evaluate_strategy_rejects_a_lag_outside_the_horizon(small_inputs):
    T = small_inputs.T
    for lag in (-1, T + 1, 100):
        with pytest.raises(ParameterError, match="estimation_lag"):
            evaluate_strategy(small_inputs, StaticMixStrategy(mix=0.3), _params(), lag)
    # a lag of T scores the estimator at t = 0
    outcome = StaticMixStrategy(mix=0.3).run(small_inputs)
    rep = evaluate_strategy(small_inputs, StaticMixStrategy(mix=0.3), _params(), T)
    est = ReplacementEstimators(small_inputs, _params())
    rr = replacement_ratio(
        outcome.terminal_wealth,
        small_inputs.market.M[:, T],
        small_inputs.salaries,
        small_inputs.scenarios.pi[:, : T + 1],
    )
    diff = est.expected_rr(outcome.wealth[:, 0], 0) - rr
    np.testing.assert_allclose(rep.est_err_mean, np.abs(diff).mean(), rtol=1e-13)


def test_expected_market_factor_rejects_years_outside_the_horizon(small_inputs):
    est = ReplacementEstimators(small_inputs, _params())
    for t in (-1, small_inputs.T + 1):
        with pytest.raises(ParameterError):
            est.expected_market_factor(t)


def test_evaluate_report_csv_row_parses(small_inputs):
    rep = evaluate_strategy(small_inputs, StaticMixStrategy(mix=0.0), _params())
    fields = rep.csv_row().split(",")
    assert len(fields) == len(REPORT_COLUMNS)
    assert fields[0] == "static_0"
    assert all(np.isfinite(float(v)) for v in fields[1:])


def test_frontier_rows_are_sorted_and_consistent(small_inputs):
    families = {"static": [1.0, 0.0, 0.5], "cumulative": [0.02], "individual": [0.03]}
    rows = frontier(small_inputs, families)
    assert [(r.family, r.param) for r in rows] == [
        ("cumulative", 0.02), ("individual", 0.03),
        ("static", 0.0), ("static", 0.5), ("static", 1.0),
    ]
    outcome = StaticMixStrategy(mix=0.5).run(small_inputs)
    T = small_inputs.T
    rr = replacement_ratio(
        outcome.terminal_wealth,
        small_inputs.market.M[:, T],
        small_inputs.salaries,
        small_inputs.scenarios.pi[:, : T + 1],
    )
    static_row = [r for r in rows if r.family == "static" and r.param == 0.5][0]
    np.testing.assert_allclose(static_row.shortfall, np.maximum(0.7 - rr, 0).mean(), rtol=1e-13)
    np.testing.assert_allclose(static_row.cvar10, cvar(rr, 0.10), rtol=1e-13)


def test_frontier_is_deterministic(small_inputs):
    # more workers than cores, so a lost or misplaced row would show as a
    # mismatch
    families = {"static": [0.0, 1.0], "cumulative": [0.02, 0.0], "individual": [0.03, 0.01]}
    a, b, c = (frontier(small_inputs, families, threads=threads) for threads in (1, 1, 3))
    assert [r.csv_row() for r in a] == [r.csv_row() for r in b]
    assert [r.csv_row() for r in a] == [r.csv_row() for r in c]


def test_frontier_validation(small_inputs):
    with pytest.raises(ParameterError):
        frontier(small_inputs, {})
    with pytest.raises(ParameterError):
        frontier(small_inputs, {"static": []})
    with pytest.raises(ParameterError):
        frontier(small_inputs, {"bogus": [0.5]})
    with pytest.raises(ParameterError):
        frontier(small_inputs, {"static": [0.5]}, threads=0)


def test_frontier_builds_every_row_before_any_fork(small_inputs, monkeypatch):
    monkeypatch.setattr(metrics, "_fan_out", lambda *args, **kwargs: pytest.fail("forked"))
    for families in ({"static": [0.5], "individual": [0.01, -2.0]}, {"static": [1.5]}):
        with pytest.raises(ParameterError):
            frontier(small_inputs, families, threads=3)


def test_frontier_rows_never_build_a_tranche_panel(small_inputs, monkeypatch):
    # a row reads only terminal wealth, so no tranche run replays its record;
    # the rows equal those read off the built panels
    families = {"static": [0.0, 0.5], "cumulative": [0.02], "individual": [0.0, 0.03]}
    with monkeypatch.context() as patch:
        patch.setattr(strategies, "_tranche_panels", lambda *args: pytest.fail("replayed"))
        rows = frontier(small_inputs, families, threads=1)
    monkeypatch.setattr(
        metrics, "_row_terminal", lambda inputs, s: s.run(inputs).wealth[:, -1].copy()
    )
    built = frontier(small_inputs, families, threads=1)
    assert [r.csv_row() for r in rows] == [r.csv_row() for r in built]


def _power(base, exponent):
    return base**exponent


@pytest.mark.parametrize("threads", [1, 3])
def test_fan_out_returns_results_in_job_order(threads):
    # ``here`` leads, then the jobs in list order, whichever worker ran them
    jobs = [(i,) for i in range(9)]
    out = _fan_out(_power, 3, jobs, threads, here=lambda: "here")
    assert out == ["here"] + [3**i for i in range(9)]
    assert _fan_out(_power, 3, jobs, threads) == out[1:]
    assert multiprocessing.active_children() == []


def test_failed_frontier_row_raises_typed_and_leaves_no_worker(small_inputs, monkeypatch):
    # forked workers inherit the patch
    def failing(self, inputs):
        raise DomainError(f"injected failure at r={self.params.r}")

    monkeypatch.setattr(IndividualTargetStrategy, "run", failing)
    families = {"static": [0.5], "cumulative": [0.02], "individual": [0.0, 0.02]}
    for threads in (1, 3):
        with pytest.raises(DomainError, match="injected failure"):
            frontier(small_inputs, families, threads=threads)
        assert multiprocessing.active_children() == []


@pytest.mark.xfail(
    reason="default calibration keeps replacement ratios below the 0.70 goal, "
    "so mean shortage decreases monotonically toward the all-equity corner",
    strict=True,
)
def test_static_frontier_has_interior_minimum(default_inputs):
    rows = frontier(default_inputs, {"static": np.linspace(0.0, 1.0, 11).round(12)})
    shortfalls = [r.shortfall for r in rows]
    best = int(np.argmin(shortfalls))
    assert 0 < best < len(rows) - 1
