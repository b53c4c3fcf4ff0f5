"""Scenario simulation, CSV ingestion and pooled moment reports."""

import numpy as np
import pytest

from conftest import flat_params
from pensionsim import ModelParams, export_csv, ingest, simulate, summarize
from pensionsim.errors import EngineError, ParameterError, SchemaError, ShapeError


def test_same_seed_reproduces_identically():
    a = simulate(ModelParams(), 50, 8, seed=11)
    b = simulate(ModelParams(), 50, 8, seed=11)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.pi, b.pi)
    assert np.array_equal(a.w, b.w)
    assert np.array_equal(a.curves, b.curves)


def test_different_seeds_differ():
    a = simulate(ModelParams(), 50, 8, seed=11)
    b = simulate(ModelParams(), 50, 8, seed=12)
    assert not np.array_equal(a.x, b.x)


def test_prefix_paths_are_a_subset():
    # Each path draws from its own substream, so a smaller run is a prefix
    # of a larger one under the same seed.
    big = simulate(ModelParams(), 10, 6, seed=5)
    small = simulate(ModelParams(), 4, 6, seed=5)
    assert np.array_equal(big.x[:4], small.x)
    assert np.array_equal(big.curves[:4], small.curves)


def test_zero_volatility_paths_are_constant():
    s = simulate(flat_params(mean_x=0.04), 3, 6, seed=1)
    np.testing.assert_allclose(s.x, 0.04, rtol=0, atol=1e-15)
    np.testing.assert_allclose(s.pi, 0.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(s.curves, 0.0, rtol=0, atol=1e-15)


def test_wage_growth_is_inflation_plus_spread(default_set):
    assert np.array_equal(default_set.w, default_set.pi + default_set.wage_spread)


def test_growth_floor_under_extreme_volatility():
    p = ModelParams(std_x=2.0, std_pi=0.4)
    s = simulate(p, 200, 10, seed=13)
    assert (1.0 + s.x).min() > 0.0
    assert (1.0 + s.pi).min() > 0.0


def test_simulate_rejects_bad_sizes():
    with pytest.raises(EngineError):
        simulate(ModelParams(), 0, 5, seed=1)
    with pytest.raises(EngineError):
        simulate(ModelParams(), 5, 0, seed=1)


def test_negative_volatility_rejected():
    with pytest.raises(ParameterError):
        simulate(ModelParams(std_x=-0.1), 2, 2, seed=1)


def test_invalid_correlation_matrix_rejected():
    p = ModelParams(corr_x_pi=0.99, corr_x_level=0.99, corr_pi_level=-0.99)
    with pytest.raises(ParameterError):
        simulate(p, 2, 2, seed=1)


def test_moment_report_matches_calibration(default_set):
    rep = summarize(default_set)
    assert abs(rep.mean("x") - 0.061) < 0.005
    assert abs(rep.std("x") - 0.183) < 0.010
    assert abs(rep.mean("pi") - 0.016) < 0.003
    assert rep.corr("pi", "w") == 1.0
    assert rep.std("w") == rep.std("pi")


def test_moment_report_hand_panel(tmp_path):
    # Two paths, two years; pooled statistics recomputed directly.
    rows = [
        (0, 0, 0.10, 0.02),
        (0, 1, -0.05, 0.01),
        (1, 0, 0.03, 0.00),
        (1, 1, 0.07, 0.03),
    ]
    path = tmp_path / "panel.csv"
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    lines = [hdr]
    for p, t, x, pi in rows:
        lines.append(f"{p},{t},{x},{pi}," + ",".join("0.01" for _ in range(30)))
    path.write_text("\n".join(lines) + "\n")

    s = ingest(path, wage_spread=0.005)
    rep = summarize(s)
    xs = np.array([r[2] for r in rows], dtype=float)
    pis = np.array([r[3] for r in rows], dtype=float)
    np.testing.assert_allclose(rep.mean("x"), xs.mean(), rtol=1e-15)
    np.testing.assert_allclose(rep.std("x"), xs.std(ddof=1), rtol=1e-15)
    np.testing.assert_allclose(rep.mean("pi"), pis.mean(), rtol=1e-15)
    np.testing.assert_allclose(
        rep.corr("x", "pi"), np.corrcoef(xs, pis)[0, 1], rtol=1e-12
    )


def test_moment_report_output_round_trip(tmp_path, default_set):
    rep = summarize(default_set)
    out = tmp_path / "moments.csv"
    rep.write_csv(out)
    assert out.read_text().splitlines() == list(rep.csv_lines())


def test_rates_pillars_match_curves(default_set, tmp_path):
    # both forms, and a simulated set whose floor binds: at every year,
    # maturity m reads pillar m up to the last, flat past it, bit for bit
    # the panel ``curves`` builds
    from pensionsim.scenario import _GROWTH_FLOOR

    floored = simulate(ModelParams(std_level=0.6), 200, 12, seed=3)
    assert np.any(floored.curves == _GROWTH_FLOOR)
    export_csv(simulate(ModelParams(), 20, 6, seed=21), tmp_path / "scen.csv")
    ingested = ingest(tmp_path / "scen.csv")
    maturities = np.arange(1, 61)
    for s in (default_set, floored, ingested):
        curves = s.curves
        pillars = np.minimum(maturities, s.n_pillars) - 1
        for year in range(s.horizon + 1):
            assert np.array_equal(s.rates(year, maturities), curves[:, year, pillars])


def test_simulated_set_holds_no_rate_panel():
    # the traced peak of simulate and prepare stays below one
    # (paths, years, pillars) panel, and the set keeps no 3-D array; simulate
    # itself needs less than two (paths, years, 4) state blocks beyond the set
    # it returns, since each year's state is written over its own noise
    import tracemalloc
    from dataclasses import fields

    from pensionsim.engine import SimulationInputs

    n, horizon = 2000, 41
    panel_bytes = n * (horizon + 1) * ModelParams().max_maturity * 8
    state_bytes = n * (horizon + 1) * 4 * 8
    tracemalloc.start()
    try:
        s = simulate(ModelParams(), n, horizon, seed=42)
        held, simulate_peak = tracemalloc.get_traced_memory()
        SimulationInputs.prepare(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < panel_bytes and peak < panel_bytes
    assert simulate_peak - held < 2 * state_bytes
    assert all(np.ndim(getattr(s, f.name)) < 3 for f in fields(s))


@pytest.mark.parametrize(
    "level, slope, bad",
    [(0.0, -1e308, "curves"), (1e308, 1e308, "curves"), (0.0, np.nan, "slope")],
)
def test_overflowing_factor_curve_rejected(level, slope, bad):
    # -1e308 overflows at the first pillar, 1e308 + 1e308 at the last
    from dataclasses import replace

    s = simulate(ModelParams(), 4, 3, seed=1)
    with pytest.raises(ShapeError, match=f"{bad} contains non-finite"):
        replace(s, level=np.full_like(s.level, level), slope=np.full_like(s.slope, slope))


def test_set_holds_one_curve_form():
    from dataclasses import replace

    s = simulate(ModelParams(), 4, 3, seed=1)
    with pytest.raises(ShapeError):
        replace(s, panel=s.curves)
    with pytest.raises(ShapeError):
        replace(s, level=None)
    with pytest.raises(TypeError):
        replace(s, curves=s.curves)


def test_curves_equal_level_plus_slope_times_loadings():
    # the VAR(1) state rebuilt here; the curve a simulated set forms from
    # its factors must equal the two-temporary expression bit for bit
    from pensionsim.scenario import _GROWTH_FLOOR, _psd_factor

    params, n, horizon, seed = ModelParams(), 30, 6, 5
    mu, phi = params.means(), params.ars()
    l_stat = _psd_factor(params.stationary_covariance(), "stationary")
    l_innov = _psd_factor(params.innovation_covariance(), "innovation")
    noise = np.stack(
        [np.random.default_rng([seed, p]).standard_normal((horizon + 1, 4)) for p in range(n)]
    )
    state = np.empty((n, horizon + 1, 4))
    state[:, 0] = mu + noise[:, 0] @ l_stat.T
    for t in range(1, horizon + 1):
        state[:, t] = mu + (state[:, t - 1] - mu) * phi + noise[:, t] @ l_innov.T
    old = state[..., 2, None] + state[..., 3, None] * params.curve_loadings()
    expected = np.maximum(old, _GROWTH_FLOOR)
    assert np.array_equal(simulate(params, n, horizon, seed).curves, expected)


def test_rates_interpolation_and_extrapolation(default_set):
    s = default_set
    # flat beyond the last pillar
    assert np.array_equal(s.rates(2, [60.0]), s.rates(2, [30.0]))
    # only whole-year maturities >= 1 at a year of the panel are served
    bad = ((2, [2.5]), (2, [0.25]), (2, [0.0]), (2, [np.nan]), (-1, [1.0]), (s.horizon + 1, [1.0]))
    for year, maturities in bad:
        with pytest.raises(ParameterError):
            s.rates(year, maturities)


def test_export_ingest_round_trip(tmp_path, default_set):
    from pensionsim.scenario import _EXPORT_BLOCK

    # more paths than one block of rows
    n = _EXPORT_BLOCK + 5
    small = simulate(ModelParams(), n, 6, seed=21)
    path = tmp_path / "scen.csv"
    export_csv(small, path)
    back = ingest(path, wage_spread=small.wage_spread)
    assert back.n_paths == n and back.horizon == 6
    # repr floats: the round trip is bit-exact
    for name in ("x", "pi", "w", "curves"):
        assert np.array_equal(getattr(back, name), getattr(small, name)), name


def test_ingest_hand_written_panel(tmp_path):
    hdr = "path,t,x,pi,w," + ",".join(f"r{k}" for k in range(1, 31))
    r0 = "0,0,0.05,0.02,0.025," + ",".join("0.03" for _ in range(30))
    r1 = "0,1,-0.01,0.015,0.02," + ",".join("0.04" for _ in range(30))
    path = tmp_path / "one.csv"
    path.write_text("\n".join([hdr, r0, r1]) + "\n")
    s = ingest(path)
    assert s.n_paths == 1 and s.horizon == 1
    np.testing.assert_allclose(s.x[0], [0.05, -0.01], rtol=0, atol=0)
    np.testing.assert_allclose(s.w[0], [0.025, 0.02], rtol=0, atol=0)
    np.testing.assert_allclose(s.curves[0, 1], 0.04, rtol=0, atol=0)


def test_ingest_reconstructs_missing_wage_column(tmp_path):
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    tail = "," + ",".join("0.03" for _ in range(30))
    path = tmp_path / "now.csv"
    path.write_text("\n".join([hdr, "0,0,0.05,0.02" + tail, "0,1,0.04,0.01" + tail]) + "\n")
    s = ingest(path, wage_spread=0.01)
    np.testing.assert_allclose(s.w, s.pi + 0.01, rtol=0, atol=0)


def test_ingest_missing_required_column(tmp_path):
    hdr = "path,t,x," + ",".join(f"r{k}" for k in range(1, 31))
    row = "0,0,0.05," + ",".join("0.03" for _ in range(30))
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([hdr, row]) + "\n")
    with pytest.raises(SchemaError, match="pi"):
        ingest(path)


def test_ingest_ragged_paths(tmp_path):
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    tail = "," + ",".join("0.03" for _ in range(30))
    lines = [hdr, "0,0,0.05,0.02" + tail, "0,1,0.05,0.02" + tail, "1,0,0.05,0.02" + tail]
    path = tmp_path / "ragged.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ShapeError, match="path 1"):
        ingest(path)


@pytest.mark.parametrize(
    "keys",
    [
        ("0,0", "0,1", "1.7,0", "1.7,1.9"),
        ("0,0", "0,0.5", "1,0", "1,1"),
    ],
)
def test_ingest_rejects_fractional_path_and_year(tmp_path, keys):
    # truncated to integers, either panel would load as two paths over years 0..1
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    tail = ",0.05,0.02," + ",".join("0.03" for _ in range(30))
    path = tmp_path / "frac.csv"
    path.write_text("\n".join([hdr] + [k + tail for k in keys]) + "\n")
    with pytest.raises(SchemaError, match="whole numbers"):
        ingest(path)


def test_ingest_rejects_nonpositive_growth(tmp_path):
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    tail = "," + ",".join("0.03" for _ in range(30))
    path = tmp_path / "neg.csv"
    path.write_text("\n".join([hdr, "0,0,-1.5,0.02" + tail, "0,1,0.05,0.02" + tail]) + "\n")
    with pytest.raises(ShapeError, match="positive"):
        ingest(path)
