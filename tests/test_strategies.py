"""Static mixes, glide paths and the two target-based allocation rules."""

import math

import numpy as np
import pytest
from dataclasses import replace

from conftest import (
    assert_same_run,
    cumulative_target,
    dense_accumulate,
    dense_tranche_run,
    flat_params,
    interp_replay,
    reference_tranche_targets,
    target_params,
    target_wealth_factor,
)
from pensionsim import (
    CareerSchedule,
    CombinationStrategy,
    CumulativeTargetStrategy,
    DpConfig,
    GlidePath,
    IndividualTargetStrategy,
    ModelParams,
    ReplacementEstimators,
    SimulationInputs,
    StaticMixStrategy,
    TargetFrame,
    TargetParams,
    cumulative_step,
    default_schedule,
    optimize_static_mix,
    post_retirement_factor,
    simulate,
    solve_policy,
    static_step,
)
from pensionsim import strategies
from pensionsim.errors import DomainError, EngineError, ParameterError, ScheduleError
from pensionsim.market import AnnuitySpec
from pensionsim.strategies import _compounded, _run_tranches


# ---------------------------------------------------------------------------
# parameters and glide paths
# ---------------------------------------------------------------------------

def test_target_params_validation():
    with pytest.raises(ParameterError):
        TargetParams(r=-1.0, delta=0.025, N=20)
    with pytest.raises(ParameterError):
        TargetParams(r=0.02, delta=-1.5, N=20)
    with pytest.raises(ParameterError):
        TargetParams(r=0.02, delta=0.025, N=20, target_rr=2.0)


def test_target_params_annuity_factor():
    p = target_params()
    np.testing.assert_allclose(
        p.m_tilde, post_retirement_factor(0.025, 20), rtol=0, atol=0
    )


def test_bogle_glide_path():
    g = GlidePath.bogle()
    assert g.fraction_at(40) == 0.60
    assert g.fraction_at(25) == 0.75
    assert g.fraction_at(66) == 0.34
    fracs = [g.fraction_at(a) for a in range(25, 67)]
    assert all(0.0 <= f <= 1.0 for f in fracs)
    assert all(b <= a for a, b in zip(fracs, fracs[1:]))


def test_linear_glide_path():
    g = GlidePath.linear_to(0.3)
    assert g.fraction_at(25) == 1.0
    np.testing.assert_allclose(g.fraction_at(66), 0.3, rtol=1e-14)
    mid = g.fraction_at(45)
    np.testing.assert_allclose(mid, 1.0 + 20 * (0.3 - 1.0) / 41, rtol=1e-12)


def test_glide_path_validation():
    with pytest.raises(ScheduleError):
        GlidePath.bogle().fraction_at(24)
    with pytest.raises(ScheduleError):
        GlidePath(ages=(25, 26), fraction=(0.5, 1.2))
    # the linear constructor rejects an end point outside [0, 1], never clamps it
    for end in (1.4, 1.5, -0.1, float("nan")):
        with pytest.raises(ParameterError):
            GlidePath.linear_to(end)


def test_static_step_dispatch():
    assert static_step(0.37, 51) == 0.37
    g = GlidePath.bogle()
    assert static_step(g, 51) == g.fraction_at(51)
    with pytest.raises(EngineError):
        static_step(1.2, 30)


# ---------------------------------------------------------------------------
# target wealth
# ---------------------------------------------------------------------------

def test_target_wealth_factor_examples():
    zero_pi = np.zeros(5)
    p = TargetParams(r=0.0, delta=0.025, N=20)
    assert target_wealth_factor(zero_pi, 1, 3, 4, p, expected_rate=0.0) == 1.0
    assert target_wealth_factor(zero_pi, 4, 4, 4, p, expected_rate=0.0) == 1.0
    p2 = TargetParams(r=0.02, delta=0.025, N=20)
    np.testing.assert_allclose(
        target_wealth_factor(zero_pi, 2, 2, 4, p2, expected_rate=0.0), 1.02**2, rtol=1e-14
    )


def test_target_wealth_factor_domain():
    pi = np.array([0.0, -0.5, 0.0])
    p = TargetParams(r=-0.6, delta=0.025, N=20)
    with pytest.raises(DomainError):
        target_wealth_factor(pi, 0, 2, 2, p, expected_rate=0.0)


def test_cumulative_target_identity_case():
    p = TargetParams(r=0.0, delta=0.025, N=20)
    got = cumulative_target(
        np.zeros(4), [100.0], 0, 3, p, M_t=p.m_tilde, m_tilde=p.m_tilde, expected_rate=0.0
    )
    np.testing.assert_allclose(got, 100.0, rtol=1e-14)


def test_cumulative_target_linearity_and_hand_sum():
    p = TargetParams(r=0.02, delta=0.025, N=20)
    pi = np.array([0.0, 0.01, 0.0, 0.0])
    i_t = 0.015
    f0 = (1.0 + 0.02 + 0.01) * (1.0 + 0.02 + i_t) ** 2
    f1 = (1.0 + 0.02 + i_t) ** 2
    oracle = 2.0 * (100.0 * f0 + 50.0 * f1)
    got = cumulative_target(
        pi, [100.0, 50.0], 1, 3, p,
        M_t=2.0 * p.m_tilde, m_tilde=p.m_tilde, expected_rate=i_t,
    )
    np.testing.assert_allclose(got, oracle, rtol=1e-13)
    doubled = cumulative_target(
        pi, [200.0, 100.0], 1, 3, p,
        M_t=2.0 * p.m_tilde, m_tilde=p.m_tilde, expected_rate=i_t,
    )
    np.testing.assert_allclose(doubled, 2.0 * got, rtol=1e-14)


@pytest.mark.parametrize("years", [1, 9])
@pytest.mark.parametrize("flat", [False, True])
def test_compounded_matches_per_path_sum(years, flat):
    # out[p, t] = sum_u f_u prod_{k=u+1..t} (base + r_k), each path summed exactly
    rng = np.random.default_rng(years + 2 * flat)
    n, base = 6, 1.02
    flows = rng.uniform(0.0, 2.0, (n, years))
    rates = rng.uniform(-0.05, 0.1, (n, 1) if flat else (n, years))
    before = flows.copy()
    out = _compounded(flows, base, rates)
    assert out.shape == (n, years)
    assert np.array_equal(flows, before)
    assert np.array_equal(out[:, 0], flows[:, 0])
    r = np.broadcast_to(rates, flows.shape)
    for p in range(n):
        for t in range(years):
            terms = (
                flows[p, u] * math.prod(base + r[p, k] for k in range(u + 1, t + 1))
                for u in range(t + 1)
            )
            assert out[p, t] == pytest.approx(math.fsum(terms), rel=1e-13, abs=0)


def test_target_frame_decomposes_into_tranches(small_inputs):
    frame = TargetFrame.build(small_inputs, target_params())
    for t in (0, 5, small_inputs.T):
        np.testing.assert_allclose(
            frame.tranche_targets(t).sum(axis=1), frame.target_cum[:, t], rtol=1e-12
        )


def test_target_frame_factor_matches_scalar_function(small_inputs):
    # the kernel reads E_t F_tau through the tranche targets:
    # (M_t / M~) * c_tau * E_t F_tau per path
    p = target_params()
    frame = TargetFrame.build(small_inputs, p)
    pi = small_inputs.scenarios.pi
    rates = small_inputs.inflation.rates
    c = small_inputs.contributions
    for tau, t in ((0, 0), (2, 7), (5, small_inputs.T)):
        vec = frame.tranche_targets(t)[:, tau]
        for path in (0, 17, 201):
            scale = frame.M[path, t] / p.m_tilde
            scalar = target_wealth_factor(
                pi[path], tau, t, small_inputs.T, p, expected_rate=rates[path, t]
            )
            np.testing.assert_allclose(vec[path], scale * c[path, tau] * scalar, rtol=1e-12)


def test_tranche_targets_equal_strided_reference(small_inputs, default_inputs):
    for inputs in (small_inputs, default_inputs):
        frame = TargetFrame.build(inputs, target_params())
        for t in range(inputs.T + 1):
            got = frame.tranche_targets(t)
            assert got.shape == (inputs.n_paths, t + 1)
            assert np.array_equal(got, reference_tranche_targets(frame, t))


def test_target_frame_cumulative_target_matches_scalar_formula(small_inputs):
    p = target_params()
    frame = TargetFrame.build(small_inputs, p)
    pi = small_inputs.scenarios.pi
    c = small_inputs.contributions
    rates = small_inputs.inflation.rates
    T = small_inputs.T
    for path, t in ((0, 0), (17, T // 2), (201, T), (3, T)):
        scalar = cumulative_target(
            pi[path], c[path], t, T, p, frame.M[path, t], p.m_tilde, rates[path, t]
        )
        np.testing.assert_allclose(frame.target_cum[path, t], scalar, rtol=1e-12)


def test_target_frame_z0_identity(small_inputs):
    p = target_params()
    frame = TargetFrame.build(small_inputs, p)
    oracle = p.m_tilde / (frame.M[:, 0] * frame.growth_exp[:, 0])
    np.testing.assert_allclose(frame.z0(0), oracle, rtol=0, atol=0)


def test_target_frame_horizon_mismatch(small_inputs):
    # a target paid out over N = 10 years on M_t priced over N = 20 is refused,
    # and the message names both; the estimators run the frame's input checks
    assert small_inputs.annuity.N == 20
    for build in (TargetFrame.build, ReplacementEstimators):
        with pytest.raises(ParameterError, match=r"params\.N=10 .* annuity N=20"):
            build(small_inputs, TargetParams(r=0.02, N=10))


def test_target_frame_requires_positive_growth(small_inputs):
    with pytest.raises(DomainError):
        TargetFrame.build(small_inputs, target_params(r=-0.99))


def test_target_frame_checks_growth_in_build(small_inputs):
    # each r breaks one check only; build itself raises, though the panels
    # that compound 1 + r + pi are built later, on first read
    T = small_inputs.T
    realized = small_inputs.scenarios.pi[:, 1 : T + 1].min()
    expected = small_inputs.inflation.rates[:, : T + 1].min()
    assert realized < expected
    # lift realized inflation above every expected rate
    lifted = small_inputs.scenarios.pi + (expected - realized + 0.01)
    inputs = replace(small_inputs, scenarios=replace(small_inputs.scenarios, pi=lifted))
    # the estimators run the same checks
    for build in (TargetFrame.build, ReplacementEstimators):
        with pytest.raises(DomainError, match="realized"):
            build(small_inputs, target_params(r=-1.0 - (realized + expected) / 2))
        with pytest.raises(DomainError, match="expected"):
            build(inputs, target_params(r=-1.0 - expected - 0.005))


# ---------------------------------------------------------------------------
# allocation steps
# ---------------------------------------------------------------------------

def test_cumulative_step_initial_decision():
    assert cumulative_step(100.0, 90.0, None, None, None, 0) == 0.0
    assert cumulative_step(80.0, 90.0, None, None, None, 0) == 1.0


def test_cumulative_step_drift():
    got = cumulative_step(80.0, 90.0, 0.5, 0.10, 0.0, 3)
    np.testing.assert_allclose(got, 0.55 / 1.05, rtol=1e-14)


def test_cumulative_step_zero_and_one_are_absorbing():
    assert cumulative_step(10.0, 90.0, 0.0, 0.3, -0.2, 2) == 0.0
    assert cumulative_step(10.0, 90.0, 1.0, 0.3, -0.2, 2) == 1.0


def test_cumulative_step_reaching_target_switches_off():
    got = cumulative_step(
        np.array([100.0, 50.0]), np.array([90.0, 90.0]), np.array([0.5, 0.5]),
        0.0, 0.0, 4,
    )
    np.testing.assert_allclose(got, [0.0, 0.5], rtol=0, atol=0)


def test_cumulative_step_domain_and_validation():
    with pytest.raises(DomainError):
        cumulative_step(10.0, 90.0, 0.5, -1.5, -1.5, 2)
    with pytest.raises(ParameterError):
        cumulative_step(10.0, 90.0, 1.2, 0.1, 0.0, 2)


# ---------------------------------------------------------------------------
# strategy runs
# ---------------------------------------------------------------------------

def test_static_run_matches_hand_recursion(flat_inputs):
    outcome = StaticMixStrategy(mix=0.5).run(flat_inputs)
    c = flat_inputs.contributions
    # deterministic world: x = 4%, matching return = 0, so the blend is 2%
    w = c[:, 0].copy()
    for t in range(1, flat_inputs.T + 1):
        w = w * 1.02 + c[:, t]
        np.testing.assert_allclose(outcome.wealth[:, t], w, rtol=1e-12)
    assert np.all(outcome.alpha == 0.5)


def test_static_labels():
    assert StaticMixStrategy(mix=0.4602).label == "static_46.02"
    assert StaticMixStrategy(mix=0.0).label == "static_0"
    assert StaticMixStrategy(mix=GlidePath.bogle()).label == "glide"


def test_glide_run_uses_age_schedule(small_inputs):
    g = GlidePath.bogle()
    outcome = StaticMixStrategy(mix=g).run(small_inputs)
    ages = small_inputs.schedule.ages
    for t in (0, 4, small_inputs.T):
        assert np.all(outcome.alpha[:, t] == g.fraction_at(ages[t]))


@pytest.mark.parametrize("rule", ["static", "glide", "cumulative"])
def test_one_pot_runs_equal_dense_reference(default_inputs, rule):
    inputs = default_inputs
    x, m, ages = inputs.scenarios.x, inputs.market.m, inputs.schedule.ages
    glide = GlidePath.bogle()
    params = target_params(r=0.03)
    target = TargetFrame.build(inputs, params).target_cum
    strategy, decide = {
        "static": (StaticMixStrategy(mix=0.37), lambda t, w, a: 0.37),
        "glide": (StaticMixStrategy(mix=glide), lambda t, w, a: glide.fraction_at(ages[t])),
        "cumulative": (
            CumulativeTargetStrategy(params),
            lambda t, w, a: cumulative_step(w, target[:, t], a, x[:, t], m[:, t], t),
        ),
    }[rule]
    outcome = strategy.run(inputs)
    wealth, alpha = dense_accumulate(inputs, decide)
    assert np.array_equal(outcome.wealth, wealth)
    assert np.array_equal(outcome.alpha, alpha)
    if rule == "cumulative":
        assert (alpha == 0.0).any() and (alpha == 1.0).any()


def test_cumulative_run_alpha_matches_target_rule(small_inputs):
    params = target_params()
    frame = TargetFrame.build(small_inputs, params)
    outcome = CumulativeTargetStrategy(params).run(small_inputs)
    covered = outcome.wealth >= frame.target_cum
    assert np.all(outcome.alpha[covered] == 0.0)
    # zero is absorbing: after the first zero the path stays at zero
    for p in range(small_inputs.n_paths):
        zeros = np.flatnonzero(outcome.alpha[p] == 0.0)
        if zeros.size:
            assert np.all(outcome.alpha[p, zeros[0]:] == 0.0)


def test_individual_run_tranche_switches_once(small_inputs):
    params = target_params()
    outcome = IndividualTargetStrategy(params).run(small_inputs)
    ta = outcome.tranche_alpha
    assert ta.shape == (small_inputs.n_paths, small_inputs.T + 1, small_inputs.T + 1)
    n, tt, _ = ta.shape
    for tau in range(tt):
        col = ta[:, tau:, tau]  # alive from birth year onward
        assert not np.isnan(col).any()
        assert np.isnan(ta[:, :tau, tau]).all()
        downs = (np.diff(col, axis=1) < 0).sum(axis=1)
        assert downs.max() <= 1
    assert (outcome.alpha >= 0.0).all() and (outcome.alpha <= 1.0).all()


@pytest.mark.parametrize("a", [0.0, 0.37, 1.0])
def test_tranche_kernel_at_one_mix_equals_static_run(small_inputs, a):
    # tranches held at one mix grow like the aggregate pot, and the
    # wealth-weighted aggregate allocation is that mix
    T = small_inputs.T
    outcome = _run_tranches("mix", small_inputs, (a,), lambda t, live: 0)
    static = StaticMixStrategy(mix=a).run(small_inputs)
    np.testing.assert_allclose(outcome.wealth, static.wealth, rtol=1e-12)
    held = outcome.wealth > 0
    assert held.any()
    np.testing.assert_allclose(outcome.alpha[held], a, rtol=1e-12, atol=0)
    # the expanded panel holds the mix from birth on and NaN before
    born = np.tril(np.ones((T + 1, T + 1), dtype=bool))
    assert np.all(outcome.tranche_alpha[:, born] == a)
    assert np.isnan(outcome.tranche_alpha[:, ~born]).all()


@pytest.mark.parametrize("k", [2, 200, 300])
def test_tranche_record_holds_every_value_index(small_inputs, k):
    # the index record must not wrap, whatever the number of values
    n = small_inputs.n_paths
    values = np.linspace(0.0, 1.0, k)

    def index(t, shape):
        return (np.arange(n)[:, None] * 7 + np.arange(shape[1]) * 13 + t) % k

    outcome = _run_tranches("many", small_inputs, values, lambda t, live: index(t, live.shape))
    reference = dense_tranche_run(small_inputs, lambda t, live: values[index(t, live.shape)])
    assert_same_run(outcome, reference)
    assert outcome.tranche_alpha is outcome.tranche_alpha  # built once, then cached


def test_individual_run_equals_dense_reference(small_inputs):
    params = target_params()
    frame = TargetFrame.build(small_inputs, params)
    absorbed = np.zeros((small_inputs.n_paths, small_inputs.T + 1), dtype=bool)

    def decide(t, live):
        absorbed[:, : t + 1] |= live >= frame.tranche_targets(t)
        return np.where(absorbed[:, : t + 1], 0.0, 1.0)

    outcome = IndividualTargetStrategy(params).run(small_inputs)
    assert_same_run(outcome, dense_tranche_run(small_inputs, decide))


@pytest.mark.parametrize("kind", ["individual", "per-contribution", "shared"])
def test_tranche_run_builds_its_panels_on_first_read(small_inputs, monkeypatch, kind):
    # the run keeps decisions and terminal wealth; one replay builds both
    # panels, and its year-T wealth is the run's terminal wealth bit for bit
    replays = []

    def counted(*args):
        replays.append(args)
        return replay(*args)

    replay = strategies._tranche_panels
    monkeypatch.setattr(strategies, "_tranche_panels", counted)
    params = target_params()
    if kind == "individual":
        strategy = IndividualTargetStrategy(params)
    else:
        strategy = CombinationStrategy(params, cfg=DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41),
                                       mode=kind)
    outcome = strategy.run(small_inputs)
    terminal = outcome.terminal_wealth.copy()
    assert outcome.tranche_alpha.shape == (small_inputs.n_paths,) + (small_inputs.T + 1,) * 2
    assert replays == []
    assert np.array_equal(outcome.wealth[:, -1].view(np.uint64), terminal.view(np.uint64))
    assert outcome.alpha.shape == outcome.wealth.shape
    assert len(replays) == 1


@pytest.mark.parametrize("year", [0, 5, 12])  # small_inputs has T = 12
def test_tranche_run_refuses_an_index_outside_the_values(small_inputs, year):
    # every year's indices are checked, the last year's too, though they
    # grow no tranche
    def decide(t, live):
        return np.full(live.shape, 2 if t == year else 1)

    with pytest.raises(IndexError):
        _run_tranches("bad", small_inputs, (0.0, 1.0), decide)


@pytest.fixture(scope="module")
def long_inputs():
    """40 paths over a 130-year career, so up to 131 tranches per path."""
    years = 131
    schedule = CareerSchedule(
        ages=tuple(range(25, 25 + years)),
        career_rate=(0.01,) * years,
        contribution_rate=(0.1,) * years,
    )
    scenarios = simulate(ModelParams(), 40, years - 1, seed=11)
    return SimulationInputs.prepare(
        scenarios, annuity=AnnuitySpec(T=years - 1, N=20), schedule=schedule
    )


@pytest.mark.parametrize("rule", ["individual", "index"])
def test_long_horizon_tranche_run_equals_dense_reference(long_inputs, rule):
    # each path sums up to 131 tranches in birth order, far past the
    # lengths at which numpy's own row sum would change its order
    n, T = long_inputs.n_paths, long_inputs.T
    if rule == "individual":
        params = target_params(r=0.03)
        frame = TargetFrame.build(long_inputs, params)
        absorbed = np.zeros((n, T + 1), dtype=bool)

        def decide(t, live):
            absorbed[:, : t + 1] |= live >= frame.tranche_targets(t)
            return np.where(absorbed[:, : t + 1], 0.0, 1.0)

        outcome = IndividualTargetStrategy(params).run(long_inputs)
    else:
        values = np.linspace(0.0, 1.0, 300)

        def index(t, shape):
            return (np.arange(n)[:, None] * 7 + np.arange(shape[1]) * 13 + t) % values.size

        outcome = _run_tranches("many", long_inputs, values, lambda t, live: index(t, live.shape))

        def decide(t, live):
            return values[index(t, live.shape)]

    assert_same_run(outcome, dense_tranche_run(long_inputs, decide))
    held = outcome.tranche_alpha[~np.isnan(outcome.tranche_alpha)]
    assert np.unique(held).size > 1


def test_individual_run_memory_stays_below_dense_panel(default_inputs):
    import tracemalloc

    n, T = default_inputs.n_paths, default_inputs.T
    strategy = IndividualTargetStrategy(target_params())
    tracemalloc.start()
    try:
        outcome = strategy.run(default_inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.wealth.shape == (n, T + 1)
    assert peak < 8 * n * (T + 1) ** 2


def test_tranche_rules_report_zero_alpha_without_wealth():
    # a salary below the franchise: no contributions in the first ten years
    scenarios = simulate(ModelParams(), 50, 12, seed=7)
    inputs = SimulationInputs.prepare(
        scenarios,
        annuity=AnnuitySpec(T=12, N=20),
        schedule=replace(default_schedule(), base_salary=10000.0),
    )
    params, cfg = target_params(), DpConfig(curve_points=21)
    individual = IndividualTargetStrategy(params).run(inputs)
    empty = individual.wealth == 0
    assert empty[:, :10].all()
    assert np.all(individual.alpha[empty] == 0.0)
    # every empty tranche has reached its zero target and is absorbed
    assert np.all(individual.tranche_alpha[:, 9, :10] == 0.0)
    # the combination's empty tranches still have a ratio, and follow their
    # policies: the solves' own decisions, or the first tranche's curves
    frame = TargetFrame.build(inputs, params)
    first = solve_policy(inputs, frame, cfg, tau=0)
    for mode in ("per-contribution", "shared"):
        outcome = CombinationStrategy(params, cfg=cfg, mode=mode).run(inputs)
        assert np.array_equal(outcome.wealth == 0, empty)
        assert np.all(outcome.alpha[empty] == 0.0)
        for tau in range(10):
            if mode == "per-contribution":
                want = first.grid[solve_policy(inputs, frame, cfg, tau=tau).decisions].T
            else:
                want = interp_replay(inputs, frame, first, tau)
            assert np.array_equal(outcome.tranche_alpha[:, tau:12, tau], want)


def test_target_rules_scale_with_monetary_units(small_inputs):
    sched = small_inputs.schedule
    scaled = SimulationInputs.prepare(
        small_inputs.scenarios,
        annuity=small_inputs.annuity,
        schedule=replace(sched, base_salary=sched.base_salary * 10,
                         franchise=sched.franchise * 10),
    )
    params = target_params()
    for cls in (CumulativeTargetStrategy, IndividualTargetStrategy):
        base = cls(params).run(small_inputs)
        big = cls(params).run(scaled)
        np.testing.assert_allclose(big.alpha, base.alpha, rtol=0, atol=1e-12)
        np.testing.assert_allclose(big.wealth, 10.0 * base.wealth, rtol=1e-10)


# ---------------------------------------------------------------------------
# static mix optimization
# ---------------------------------------------------------------------------

def test_optimize_static_single_point():
    s = simulate(flat_params(), 3, 6, seed=5)
    inp = SimulationInputs.prepare(s, annuity=AnnuitySpec(T=6, N=20))
    assert optimize_static_mix(inp, [0.3]) == 0.3


def test_optimize_static_prefers_dominant_asset():
    # deterministic world where equity returns 20% and matching 0%
    s = simulate(flat_params(mean_x=0.20), 2, 8, seed=5)
    inp = SimulationInputs.prepare(s, annuity=AnnuitySpec(T=8, N=20))
    best = optimize_static_mix(inp, np.linspace(0, 1, 11))
    assert best == 1.0


def test_optimize_static_tie_breaks_to_smaller_mix():
    # flat career at the franchise level: no contributions, zero wealth for
    # every mix, hence identical shortfalls and a tie across the grid
    s = simulate(flat_params(), 2, 6, seed=5)
    sched = CareerSchedule(
        ages=tuple(range(25, 32)),
        career_rate=(0.0,) * 7,
        contribution_rate=(0.1,) * 7,
        base_salary=13123.0,
        franchise=13123.0,
    )
    inp = SimulationInputs.prepare(s, annuity=AnnuitySpec(T=6, N=20), schedule=sched)
    assert optimize_static_mix(inp, [0.0, 0.25, 0.5, 1.0]) == 0.0


def test_optimize_static_grid_validation(small_inputs):
    with pytest.raises(ParameterError):
        optimize_static_mix(small_inputs, [])
    with pytest.raises(ParameterError):
        optimize_static_mix(small_inputs, [0.5, 1.3])


@pytest.mark.xfail(
    reason="default calibration keeps replacement ratios below the 0.70 goal, "
    "pushing the static optimum to the all-equity corner",
    strict=True,
)
def test_optimized_static_mix_lands_in_interior_band(default_inputs):
    grid = np.linspace(0.0, 1.0, 101).round(12)
    best = optimize_static_mix(default_inputs, grid)
    assert 0.35 <= best <= 0.60
