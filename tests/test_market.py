"""Annuity factors M_t, the matching return m_t and the retirement factor."""

import numpy as np
import pytest

from conftest import flat_params
from pensionsim import (
    simulate,
    market_value_series,
    post_retirement_factor,
    SimulationInputs,
)
from pensionsim.lsmc import InflationEstimator
from pensionsim.market import AnnuitySpec
from pensionsim.scenario import ScenarioSet
from pensionsim.errors import DomainError, EngineError, ParameterError


def test_post_retirement_factor_values():
    assert post_retirement_factor(0.0, 20) == 20.0
    assert post_retirement_factor(0.37, 1) == 1.0
    oracle = sum((1.025) ** -k for k in range(20))
    np.testing.assert_allclose(post_retirement_factor(0.025, 20), oracle, rtol=1e-13)
    assert abs(post_retirement_factor(0.025, 20) - 15.97889) < 1e-4


def test_post_retirement_factor_monotone_in_delta():
    vals = [post_retirement_factor(d, 20) for d in (0.0, 0.01, 0.025, 0.05)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_post_retirement_factor_domain():
    with pytest.raises(DomainError):
        post_retirement_factor(-1.0, 20)
    with pytest.raises(EngineError):
        post_retirement_factor(0.02, 0)


def test_flat_zero_world_prices_at_par(flat_inputs):
    # zero rates and zero inflation: every payment discounts to exactly 1
    np.testing.assert_allclose(flat_inputs.market.M, 20.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(flat_inputs.market.m[:, 1:], 0.0, rtol=0, atol=1e-12)
    assert np.isnan(flat_inputs.market.m[:, 0]).all()


def test_flat_curve_two_payment_annuity():
    s = simulate(flat_params(mean_level=0.05), 2, 4, seed=1)
    inp = SimulationInputs.prepare(s, annuity=AnnuitySpec(T=4, N=2))
    np.testing.assert_allclose(inp.market.M[:, 4], 1.0 + 1.0 / 1.05, rtol=1e-12)
    inp1 = SimulationInputs.prepare(s, annuity=AnnuitySpec(T=4, N=1))
    np.testing.assert_allclose(inp1.market.M[:, 4], 1.0, rtol=0, atol=0)


def test_nan_market_factor_rejected():
    # NaN expected inflation makes every factor NaN: the positivity check
    # must not pass it
    s = simulate(flat_params(), 3, 4, seed=1)
    est = InflationEstimator.fit(s, 4)
    est.rates[:] = np.nan
    with pytest.raises(DomainError, match="market value factor must stay positive"):
        market_value_series(s, AnnuitySpec(T=4, N=2), est)


def test_infinite_market_factor_rejected():
    # a huge expected inflation overflows the indexed terms to +inf, which
    # passes a positivity check alone; the typed error comes first, with no
    # floating-point warning on the way
    s = simulate(flat_params(), 3, 4, seed=1)
    est = InflationEstimator.fit(s, 4)
    est.rates[:] = 1e200
    with pytest.raises(DomainError, match="positive and finite"):
        market_value_series(s, AnnuitySpec(T=4, N=3), est)


def test_factor_matches_direct_sum(default_inputs):
    # Independent recomputation: each payment j is indexed at the expected
    # inflation rate and discounted at the zero rate for its maturity.
    s = default_inputs.scenarios
    spec = default_inputs.annuity
    infl = default_inputs.inflation
    for path, t in ((0, 0), (3, 17), (11, spec.T)):
        h = spec.T - t
        mats = np.arange(h, h + spec.N, dtype=float)
        rates = s.rates(t, np.maximum(mats, 1.0))[path]
        rates[mats == 0] = 0.0
        i_t = infl.rates[path, t]
        oracle = np.sum((1.0 + i_t) ** mats / (1.0 + rates) ** mats)
        got = default_inputs.market.M[path, t]
        np.testing.assert_allclose(got, oracle, rtol=1e-12)


def test_factor_bits_do_not_follow_the_rates_layout(default_inputs, monkeypatch):
    # the annuity terms add in a stated order, so the memory layout of the
    # spot rates they are built from cannot move a bit of M
    s, spec, infl = default_inputs.scenarios, default_inputs.annuity, default_inputs.inflation
    rates = ScenarioSet.rates
    factors = []
    for layout in (np.ascontiguousarray, np.asfortranarray):
        monkeypatch.setattr(ScenarioSet, "rates", lambda self, *a, f=layout: f(rates(self, *a)))
        factors.append(market_value_series(s, spec, infl).M)
    assert np.array_equal(factors[0].view(np.uint64), factors[1].view(np.uint64))


def test_matching_return_is_factor_growth(default_inputs):
    series = default_inputs.market
    for t in (1, 7, default_inputs.T):
        expected = series.M[:, t] / series.M[:, t - 1] - 1.0
        np.testing.assert_allclose(series.m[:, t], expected, rtol=1e-13)


def test_factor_positive_everywhere(default_inputs):
    assert default_inputs.market.M.min() > 0.0


def test_matching_moments_at_default_calibration(default_inputs):
    # pooled over every path and years 1..T (m is undefined at t = 0)
    m = default_inputs.market.m[:, 1:].ravel()
    assert abs(m.mean() - 0.034) < 0.007
    assert abs(m.std(ddof=1) - 0.185) < 0.015


def test_annuity_spec_validation():
    with pytest.raises(EngineError):
        AnnuitySpec(T=10, N=0)
    with pytest.raises(EngineError):
        AnnuitySpec(T=-1, N=20)


@pytest.mark.parametrize("entry", ["prepare", "market_value_series", "inflation_fit"])
def test_horizon_past_the_scenarios_raises_parameter_error(entry):
    s = simulate(flat_params(), 20, 6, seed=3)
    spec = AnnuitySpec(T=s.horizon + 1, N=20)
    calls = {
        "prepare": lambda: SimulationInputs.prepare(s, annuity=spec),
        "market_value_series": lambda: market_value_series(
            s, spec, InflationEstimator.fit(s, s.horizon)
        ),
        "inflation_fit": lambda: InflationEstimator.fit(s, spec.T),
    }
    with pytest.raises(ParameterError, match="horizon"):
        calls[entry]()
