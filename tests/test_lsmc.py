"""Global regression, LOESS local regression and the expected-inflation estimator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import einsum_loess_apply, flat_params
from pensionsim import (
    InflationEstimator,
    LoessModel,
    ingest,
    loess_batch,
    loess_eval,
    regress_now,
    simulate,
    tricube_weight,
)
from pensionsim.errors import DomainError, EngineError, ParameterError
from pensionsim.lsmc import _loess_apply, _loess_geometry


# ---------------------------------------------------------------------------
# regress_now
# ---------------------------------------------------------------------------

def test_regress_now_exact_line():
    x = np.linspace(-2, 3, 17)
    coef = regress_now(x, 3.0 * x + 2.0)
    np.testing.assert_allclose(coef, [2.0, 3.0], rtol=1e-12)


def test_regress_now_constant_response():
    x = np.linspace(0, 1, 9)
    coef = regress_now(x, np.full(9, 5.0))
    np.testing.assert_allclose(coef, [5.0, 0.0], atol=1e-12)


def test_regress_now_matches_normal_equations():
    rng = np.random.default_rng(2)
    x = rng.normal(size=10)
    y = rng.normal(size=10)
    a = np.column_stack([np.ones(10), x])
    oracle = np.linalg.solve(a.T @ a, a.T @ y)
    np.testing.assert_allclose(regress_now(x, y), oracle, rtol=1e-10)


def test_regress_now_permutation_invariant():
    rng = np.random.default_rng(5)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    perm = rng.permutation(40)
    np.testing.assert_allclose(
        regress_now(x, y), regress_now(x[perm], y[perm]), rtol=1e-10, atol=1e-12
    )


def test_regress_now_collinear_design_falls_back():
    # constant regressor duplicates the intercept column; must not raise
    y = np.array([1.0, 2.0, 6.0])
    coef = regress_now(np.full(3, 7.0), y)
    np.testing.assert_allclose(coef, [y.mean(), 0.0], rtol=1e-12)


def test_regress_now_validation():
    with pytest.raises(ParameterError):
        regress_now([1.0, 2.0], [1.0])
    with pytest.raises(ParameterError):
        regress_now([1.0], [1.0])  # a line needs two samples


# ---------------------------------------------------------------------------
# tri-cube weights and LOESS
# ---------------------------------------------------------------------------

def test_tricube_exact_values():
    assert tricube_weight(0.0) == 1.0
    assert tricube_weight(1.0) == 0.0
    assert tricube_weight(0.5) == 0.669921875  # (1 - 0.125)^3 is exact in binary
    assert tricube_weight(2.0) == 0.0


def test_tricube_monotone_and_vectorized():
    u = np.linspace(0.0, 1.0, 101)
    w = tricube_weight(u)
    assert w.shape == u.shape
    assert (np.diff(w) <= 0).all()


def test_tricube_rejects_negative():
    with pytest.raises(DomainError):
        tricube_weight(-0.1)


def test_loess_window_size_is_ceil():
    x = np.linspace(0, 1, 10)
    assert LoessModel(x, x, d=0.25).k == 3
    assert LoessModel(x, x, d=1.0).k == 10
    assert LoessModel(np.linspace(0, 1, 200), np.zeros(200), d=0.2).k == 40


def test_loess_reproduces_affine_data():
    rng = np.random.default_rng(8)
    x = np.sort(rng.uniform(-1, 2, 60))
    y = 2.0 * x - 1.0
    for d in (0.2, 0.5, 1.0):
        model = LoessModel(x, y, d=d, degree=1)
        q = np.array([-0.5, 0.3, 1.7])
        np.testing.assert_allclose(loess_batch(model, q), 2.0 * q - 1.0, atol=1e-11)


def test_loess_degree_two_reproduces_quadratic():
    rng = np.random.default_rng(9)
    x = np.sort(rng.uniform(0, 1, 50))
    y = x**2 - 0.5 * x + 0.25
    model = LoessModel(x, y, d=0.4, degree=2)
    q = np.array([0.1, 0.55, 0.9])
    np.testing.assert_allclose(loess_batch(model, q), q**2 - 0.5 * q + 0.25, atol=1e-10)


def _loess_oracle(x, y, q, d, degree):
    """Per-query weighted polynomial fit from the printed definition."""
    n = len(x)
    k = int(np.ceil(round(d * n, 9)))
    dist = np.abs(x - q)
    scale = np.sort(dist)[k - 1]
    w = np.where(dist < scale, (1.0 - (dist / scale) ** 3) ** 3, 0.0)
    a = np.vander(x - q, degree + 1, increasing=True)  # centred at the query
    aw = a * w[:, None]
    beta = np.linalg.solve(a.T @ aw, aw.T @ y)
    return beta[0]


@pytest.mark.parametrize("d", [0.2, 0.5, 1.0])
@pytest.mark.parametrize("degree", [1, 2])
def test_loess_matches_pointwise_weighted_fit(d, degree):
    rng = np.random.default_rng(17)
    x = rng.normal(size=50)
    y = np.sin(2.0 * x) + 0.1 * rng.normal(size=50)
    model = LoessModel(x, y, d=d, degree=degree)
    for q in (-1.2, -0.1, 0.4, 1.5):
        np.testing.assert_allclose(
            loess_eval(model, q),
            _loess_oracle(x, y, q, d, degree),
            rtol=1e-9,
            atol=1e-12,
        )


@st.composite
def _loess_samples(draw):
    """Distinct abscissae (0.01 apart or more), responses, d, degree and queries."""
    ints = draw(st.lists(st.integers(-500, 500), min_size=6, max_size=80, unique=True))
    x = np.array(ints, dtype=float) / 100.0
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=len(x), max_size=len(x))))
    degree = draw(st.sampled_from([1, 2]))
    # d in (0, 1], drawn above the share that leaves the oracle too few points
    d = draw(st.floats((degree + 4) / len(x), 1.0))
    q = draw(st.lists(st.floats(x.min(), x.max()), min_size=1, max_size=5))
    return x, y, d, degree, np.array(q)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_loess_samples())
def test_loess_matches_oracle_on_drawn_samples(sample):
    x, y, d, degree, q = sample
    # enough support that the oracle's normal equations are non-singular even
    # with one point tied at the cutoff on each side of the query
    assume(int(np.ceil(round(d * len(x), 9))) >= degree + 4)
    model = LoessModel(x, y, d=d, degree=degree)
    want = [_loess_oracle(x, y, v, d, degree) for v in q]
    np.testing.assert_allclose(loess_batch(model, q), want, rtol=1e-9, atol=1e-9)


def test_loess_all_zero_weights_return_nearest_lower_value():
    # k = 2: a query midway between two neighbours puts both at the cutoff
    # distance, so every tri-cube weight is zero; the lower x wins the tie
    x = np.array([2.0, 0.0, 3.0, 1.0])
    y = np.array([30.0, 10.0, 40.0, 20.0])
    model = LoessModel(x, y, d=0.5, degree=1)
    assert model.k == 2
    assert loess_eval(model, 1.5) == 20.0
    assert loess_eval(model, 0.5) == 10.0
    assert loess_eval(model, 2.5) == 30.0


@pytest.mark.parametrize("d", [0.1, 1.0])  # k = 4 < n and k = n
@pytest.mark.parametrize("degree", [1, 2])
def test_loess_apply_rows_match_single_fits(d, degree):
    # tied abscissae a quarter apart; a query midway between two tied values
    # puts all k = 4 neighbours at the cutoff, so its fit is the nearest value
    rng = np.random.default_rng(5)
    x = rng.integers(0, 12, 40) / 4.0
    ys = rng.normal(size=(5, 40))
    q = np.array([-0.3, 0.0, 0.125, 0.4, 1.375, 1.5, 2.9, 3.2])
    design = _loess_geometry(x, q, d, degree)
    assert design.none_mask.any() == (d < 1.0)
    fits = _loess_apply(design, ys)
    for i, y in enumerate(ys):
        # a row's fit does not depend on the rows batched with it
        assert np.array_equal(_loess_apply(design, ys[[i, i]])[0], fits[i])
        # matmul may hand a lone row to another BLAS kernel than a batch,
        # so the single fit agrees to rounding; copied values agree exactly
        single = loess_batch(LoessModel(x, y, d=d, degree=degree), q)
        np.testing.assert_allclose(single, fits[i], rtol=1e-12, atol=1e-12)
        for j in np.flatnonzero(design.none_mask):
            # the value of a point at the nearest x, the lower one on ties
            dist = np.abs(x - q[j])
            nearest = x == x[dist == dist.min()].min()
            assert single[j] == fits[i, j]
            assert fits[i, j] in y[nearest]


_TIED_X = np.random.default_rng(5).integers(0, 12, 40) / 4.0
_TIED_Q = np.array([-0.3, 0.125, 1.375, 3.2])


@pytest.mark.parametrize(
    "x, q, d",
    [
        # tied abscissae, k < n with nearest-value fallbacks and k = n
        (_TIED_X, _TIED_Q, 0.1),
        (_TIED_X, _TIED_Q, 1.0),
        # one distinct abscissa: every fit is the mean
        (np.full(40, 0.7), np.array([0.0, 0.7, 2.0]), 0.2),
        # the solver's shape: 2000 points, a 400-point window, 101 nodes
        (np.random.default_rng(6).lognormal(size=2000), np.linspace(0.2, 6.0, 101), 0.2),
    ],
)
@pytest.mark.parametrize("degree", [1, 2])
def test_loess_apply_matches_einsum_reference(x, q, d, degree):
    ys = np.random.default_rng(8).normal(-5.0, 1.0, size=(6, x.shape[0]))
    design = _loess_geometry(x, q, d, degree)
    got, want = _loess_apply(design, ys), einsum_loess_apply(design, ys)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    if design.mean_only:
        assert np.array_equal(got, want)
    else:
        # copied nearest values agree exactly
        assert np.array_equal(got[:, design.none_mask], want[:, design.none_mask])
        assert design.none_mask.any() == (d < 1.0 and x.shape[0] == 40)


def _duplicated_set():
    """2000 drawn abscissae, 50 of them appearing twice."""
    x = np.random.default_rng(9).lognormal(size=2000)
    x[1950:] = x[:50]
    return x


@pytest.mark.parametrize("x, d", [(_TIED_X, 0.1), (_TIED_X, 1.0), (_duplicated_set(), 0.2)])
def test_loess_design_orders_ties_as_a_stable_sort(x, d):
    # tied abscissae keep their input order: window membership at the edge
    # and the nearest-value fallback read it
    design = _loess_geometry(x, np.linspace(x.min(), x.max(), 11), d, 1)
    assert np.array_equal(design.order, np.argsort(x, kind="stable"))


@pytest.mark.parametrize("degree", [1, 2])
def test_loess_design_holds_no_more_than_its_weight_columns(degree):
    # the design keeps one (query, window, moment) weight tensor; a stacked
    # copy beside separate weight arrays would double what it holds
    n, m = 2000, 101
    x = np.random.default_rng(4).lognormal(size=n)
    q = np.linspace(x.min(), x.max(), m)
    _loess_geometry(x, q, 0.2, degree)  # warm up lazy allocations
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        design = _loess_geometry(x, q, 0.2, degree)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert design.win == 400
    columns = (degree + 1) * m * design.win * 8  # w, wx (and wx2) as float64
    side = 8 * n + 32 * 8 * m  # the sort order and up to 32 per-query vectors
    assert held <= columns + side


def test_loess_duplicate_cluster_falls_back_to_mean():
    x = np.array([1.0, 1.0, 1.0, 1.0])
    y = np.array([2.0, 4.0, 6.0, 8.0])
    model = LoessModel(x, y, d=0.5, degree=1)
    np.testing.assert_allclose(loess_eval(model, 1.0), y.mean(), rtol=1e-14)


def test_loess_batch_matches_scalar_eval():
    rng = np.random.default_rng(21)
    x = rng.normal(size=30)
    y = rng.normal(size=30)
    model = LoessModel(x, y, d=0.5, degree=1)
    q = np.array([-0.7, 0.0, 0.9])
    np.testing.assert_allclose(
        loess_batch(model, q), [loess_eval(model, v) for v in q], rtol=1e-13
    )


def test_loess_validation():
    x = np.linspace(0, 1, 5)
    with pytest.raises(EngineError):
        LoessModel(x, x, d=0.0)
    with pytest.raises(EngineError):
        LoessModel(x, x, d=1.5)
    with pytest.raises(EngineError):
        LoessModel(x, x, degree=3)
    with pytest.raises(EngineError):
        LoessModel(np.array([1.0, 2.0]), np.array([1.0, 2.0]), degree=2)


# ---------------------------------------------------------------------------
# expected inflation
# ---------------------------------------------------------------------------

def _panel_from_inflation(tmp_path, pis):
    """Build a scenario set with prescribed per-path inflation columns."""
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    tail = "," + ",".join("0.02" for _ in range(30))
    lines = [hdr]
    for p, row in enumerate(pis):
        for t, pi in enumerate(row):
            lines.append(f"{p},{t},0.05,{pi}" + tail)
    path = tmp_path / "pi.csv"
    path.write_text("\n".join(lines) + "\n")
    return ingest(path)


def test_expected_inflation_deterministic_two_percent():
    s = simulate(flat_params(mean_pi=0.02), 3, 8, seed=1)
    T = 8
    est = InflationEstimator.fit(s, T)
    np.testing.assert_allclose(est.rates[:, T - 1], 0.02, rtol=1e-12)
    for t in range(T - 1):
        closed = (1.02 ** (T - t)) ** (1.0 / (T - t - 1)) - 1.0
        np.testing.assert_allclose(est.rates[:, t], closed, rtol=1e-12)
    assert np.array_equal(est.rates[:, T], est.rates[:, T - 1])


def test_expected_inflation_zero_world(flat_inputs):
    np.testing.assert_allclose(flat_inputs.inflation.rates, 0.0, rtol=0, atol=1e-14)


def test_expected_inflation_two_path_oracle(tmp_path):
    s = _panel_from_inflation(tmp_path, [(0.0, 0.01, 0.03), (0.0, 0.05, -0.02)])
    est = InflationEstimator.fit(s, 2)
    # two points fit exactly: rate at t=1 is next year's realized inflation
    np.testing.assert_allclose(est.rates[:, 1], [0.03, -0.02], rtol=1e-12)
    slope = np.diff(est.rates[:, 1]) / np.diff(est.cum[:, 1])
    np.testing.assert_allclose(slope, (0.98 - 1.03) / (1.05 - 1.01), rtol=1e-12)

    # a constant regressor at t=0 engages the intercept-only fit
    mean_level = 0.5 * (1.01 * 1.03 + 1.05 * 0.98)
    assert est.rates[0, 0] == est.rates[1, 0]
    np.testing.assert_allclose(est.rates[:, 0], mean_level - 1.0, rtol=1e-12)


def test_expected_inflation_floor():
    s = simulate(flat_params(mean_pi=-0.3), 2, 4, seed=2)
    est = InflationEstimator.fit(s, 4, floor=0.5)
    # deterministic level 0.7^4 < 0.5 engages the floor before the root
    np.testing.assert_allclose(est.rates[:, 0], 0.5 ** (1.0 / 3.0) - 1.0, rtol=1e-12)


def test_estimator_rates_keep_growth_positive(default_inputs):
    assert (1.0 + default_inputs.inflation.rates).min() > 0.0


def test_expected_inflation_domain():
    s = simulate(flat_params(mean_pi=0.02), 2, 4, seed=1)
    with pytest.raises(DomainError):
        InflationEstimator.fit(s, 4).annual_rate(5)
    with pytest.raises(DomainError):
        InflationEstimator.fit(s, 5)
    with pytest.raises(DomainError):
        InflationEstimator.fit(s, 0)
