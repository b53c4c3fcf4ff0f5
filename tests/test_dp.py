"""Dynamic-programming policy solver for the per-tranche ratio process."""

import itertools
import multiprocessing
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_run,
    dense_tranche_run,
    einsum_loess,
    flat_params,
    interp_choice,
    interp_replay,
    reference_envelope,
    target_params,
    toy_inputs,
)
from pensionsim import (
    CombinationStrategy,
    CumulativeTargetStrategy,
    DpConfig,
    GlidePath,
    IndividualTargetStrategy,
    ModelParams,
    PolicyModel,
    SimulationInputs,
    StaticMixStrategy,
    TargetFrame,
    evaluate_strategy,
    export_policy_csv,
    simulate,
    solve_policy,
    utility_check,
    z_step,
)
from pensionsim import cli, dp
from pensionsim.dp import _envelope, _Solver, _StepPolicy
from pensionsim.errors import DomainError, ParameterError
from pensionsim.lsmc import _loess
from pensionsim.market import AnnuitySpec
from pensionsim.metrics import REPORT_COLUMNS


# ---------------------------------------------------------------------------
# config, utility, ratio process
# ---------------------------------------------------------------------------

def test_dp_config_validation():
    with pytest.raises(ParameterError):
        DpConfig(grid=())
    with pytest.raises(ParameterError):
        DpConfig(grid=(0.0, 1.2))
    with pytest.raises(ParameterError):
        DpConfig(grid=(0.5, 0.5))
    with pytest.raises(ParameterError):
        DpConfig(z_min=2.0, z_max=1.0)
    with pytest.raises(ParameterError):
        DpConfig(iterations=0)
    with pytest.raises(ParameterError):
        DpConfig(loess_d=0.0)
    with pytest.raises(ParameterError):
        DpConfig(curve_points=1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ParameterError, match="grid"):
            DpConfig(grid=(0.0, bad))


def test_utility_reflection_point_and_values():
    cfg = DpConfig()
    np.testing.assert_allclose(cfg.beta, np.sqrt(17.0), rtol=1e-15)
    np.testing.assert_allclose(cfg.beta, 4.123105625617661, rtol=1e-12)
    # direct evaluation of the printed form (-(z-beta)^2 - (z-z_min)^2) / z
    np.testing.assert_allclose(utility_check(1.0), -9.753788748764679, rtol=1e-12)
    np.testing.assert_allclose(utility_check(3.0), -1.7537887487646788, rtol=1e-12)
    z = np.linspace(1.0, 3.0, 9)
    oracle = (-((z - np.sqrt(17.0)) ** 2) - (z - 1.0) ** 2) / z
    np.testing.assert_allclose(utility_check(z), oracle, rtol=1e-14)


def test_utility_increasing_up_to_peak():
    z = np.linspace(0.5, 3.0, 50)
    u = utility_check(z)
    assert (np.diff(u) > 0).all()  # peak sits at z_max = 3
    with pytest.raises(DomainError):
        utility_check(0.0)
    with pytest.raises(DomainError):
        utility_check(np.array([1.0, -2.0]))


def test_z_step_pinned_value():
    got = z_step(1.0, 0.5, 0.10, 0.02, 1.0)
    np.testing.assert_allclose(got, (0.5 * 1.10 + 0.5 * 1.02) / 1.02, rtol=1e-15)
    np.testing.assert_allclose(got, 1.0392156862745099, rtol=1e-14)


def test_z_step_matching_only_is_identity():
    rng = np.random.default_rng(3)
    z = rng.uniform(0.5, 3.0, size=1000)
    m = rng.normal(0.02, 0.1, size=1000)
    out = z_step(z, 0.0, 0.5, m, 1.0)
    np.testing.assert_allclose(out, z, rtol=1e-14)


def test_z_step_validation():
    with pytest.raises(DomainError):
        z_step(-1.0, 0.5, 0.1, 0.02, 1.0)
    with pytest.raises(ParameterError):
        z_step(1.0, 1.5, 0.1, 0.02, 1.0)
    with pytest.raises(DomainError):
        z_step(1.0, 0.5, 0.1, -1.5, 1.0)
    with pytest.raises(DomainError):
        z_step(1.0, 0.5, 0.1, 0.02, 0.0)


# ---------------------------------------------------------------------------
# solver vs exhaustive enumeration
# ---------------------------------------------------------------------------

def test_toy_policy_matches_enumeration(tmp_path):
    inputs = toy_inputs(tmp_path)
    frame = TargetFrame.build(inputs, target_params())
    cfg = DpConfig(grid=(0.0, 1.0), iterations=3)
    policy = solve_policy(inputs, frame, cfg, tau=0)

    x, m, er = inputs.scenarios.x, inputs.market.m, frame.er
    best_u = np.full(inputs.n_paths, -np.inf)
    best_seq = {}
    for seq in itertools.product((0.0, 1.0), repeat=2):
        z = frame.z0(0)
        for t, a in enumerate(seq):
            z = z_step(z, a, x[:, t + 1], m[:, t + 1], er[:, t + 1])
        u = utility_check(z, cfg)
        for p in range(inputs.n_paths):
            if u[p] > best_u[p]:
                best_u[p] = u[p]
                best_seq[p] = seq

    np.testing.assert_allclose(policy.utility_trace[-1], best_u.mean(), rtol=1e-12)
    chosen = policy.grid[policy.decisions]  # (times, paths)
    for p in range(inputs.n_paths):
        assert tuple(chosen[:, p]) == best_seq[p]
    np.testing.assert_allclose(
        policy.terminal_utility.mean(), best_u.mean(), rtol=1e-12
    )


def test_solver_trace_improves_on_second_iteration(small_inputs):
    # the sweep is a heuristic and a later pass can lose ground (it does on
    # some seeds); on this fixture the second pass is no worse than the first
    frame = TargetFrame.build(small_inputs, target_params())
    policy = solve_policy(small_inputs, frame, DpConfig(iterations=2), tau=0)
    trace = policy.utility_trace
    assert len(trace) == 2
    assert trace[1] >= trace[0] - 1e-6


def test_solver_is_deterministic(small_inputs):
    frame = TargetFrame.build(small_inputs, target_params())
    p1 = solve_policy(small_inputs, frame, tau=2)
    p2 = solve_policy(small_inputs, frame, tau=2)
    assert np.array_equal(p1.decisions, p2.decisions)
    assert np.array_equal(p1.z_path, p2.z_path)
    for a, b in zip(p1.curves, p2.curves):
        assert np.array_equal(a, b)


class _FullRolloutCheck(_Solver):
    """Solver that checks every forward pass: each fit since the last one
    equals a fresh LOESS fit on the ratios that pass left, and afterwards
    the ratios equal a full rollout of the decisions from z0.

    ``built`` collects ``(x, nodes, responses, fits)`` of every ``_loess``
    call, the regressor and responses copied as the fit saw them.
    """

    built: list = []
    passes = 0

    def _forward(self):
        cfg = self.cfg
        # none before the start's pass, then one per step, last step first
        assert len(self.built) == (self.nd if _FullRolloutCheck.passes else 0)
        for s, (x, nodes, responses, fits) in zip(range(self.nd - 1, -1, -1), self.built):
            assert np.array_equal(x, self.z[s])
            lo, hi = x.min(), x.max()
            want_nodes = np.linspace(lo, hi, cfg.curve_points) if lo < hi else np.array([lo])
            want = _loess(x, want_nodes, cfg.loess_d, cfg.loess_degree, responses)
            assert np.array_equal(nodes, want_nodes)
            assert np.array_equal(fits, want)
        self.built.clear()
        super()._forward()
        full = np.empty_like(self.z)
        full[0] = self.z[0]
        for t in range(self.nd):
            full[t + 1] = full[t] * self.factors[t][self.decisions[t], self._paths]
        assert np.array_equal(self.z, full)
        _FullRolloutCheck.passes += 1


def test_forward_pass_matches_full_rollout(small_inputs, monkeypatch):
    # a fit's regressor is untouched by its sweep, and each forward pass
    # leaves the full rollout of the decisions
    frame = TargetFrame.build(small_inputs, target_params())
    want = solve_policy(small_inputs, frame, tau=0)

    def recorded(x, nodes, d, degree, responses):
        fits = _loess(x, nodes, d, degree, responses)
        _FullRolloutCheck.built.append((x.copy(), nodes, responses.copy(), fits))
        return fits

    monkeypatch.setattr(dp, "_loess", recorded)
    monkeypatch.setattr(dp, "_Solver", _FullRolloutCheck)
    monkeypatch.setattr(_FullRolloutCheck, "built", [])
    monkeypatch.setattr(_FullRolloutCheck, "passes", 0)
    got = solve_policy(small_inputs, frame, tau=0)
    # the start's pass and one per sweep
    assert _FullRolloutCheck.passes == DpConfig().iterations + 2
    assert np.array_equal(got.decisions, want.decisions)
    assert np.array_equal(got.z_path, want.z_path)


class _CountingSolver(_Solver):
    """Solver that records the step of every fit it makes."""

    def __init__(self, *args):
        self.fitted = []
        super().__init__(*args)

    def _fit(self, s):
        self.fitted.append(s)
        super()._fit(s)


def _tranche_solver(inputs, cfg, tau, solver=_Solver):
    frame = TargetFrame.build(inputs, target_params())
    factors = dp._step_factors(inputs, frame, cfg)
    return solver(frame.z0(tau), factors[tau + 1 : inputs.T + 1], cfg)


@pytest.mark.parametrize("iterations", [1, 2])
@pytest.mark.parametrize("nd", [1, 2, 6])
def test_each_sweep_fits_every_step_once_last_first(small_inputs, nd, iterations):
    # one initial sweep and `iterations` traced ones, each fitting every
    # step once, last step first
    solver = _tranche_solver(
        small_inputs, DpConfig(iterations=iterations), small_inputs.T - nd, _CountingSolver
    )
    solver.solve()
    assert solver.fitted == list(range(nd - 1, -1, -1)) * (iterations + 1)
    assert len(solver.trace) == iterations


def test_decisions_match_einsum_loess_reference(monkeypatch):
    # the coefficient rows and the batched matmul move only the last bits of
    # the fitted curves
    scenarios = simulate(ModelParams(), 400, 8, seed=23)
    inputs = SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=8, N=20))
    frame = TargetFrame.build(inputs, target_params(r=0.01))
    got = solve_policy(inputs, frame, tau=0)
    monkeypatch.setattr(dp, "_loess", lambda *fit: einsum_loess(*fit)[0])
    want = solve_policy(inputs, frame, tau=0)
    assert np.array_equal(got.decisions, want.decisions)
    assert np.array_equal(got.z_path, want.z_path)
    for a, b in zip(got.curves, want.curves):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_step_factors_are_year_major_z_steps_of_one_unit(small_inputs):
    # one growth rule: row t of the table is z_step from z = 1 at every grid
    # allocation, bit for bit, laid out (year, allocation, path)
    T, n = small_inputs.T, small_inputs.n_paths
    cfg = DpConfig()
    frame = TargetFrame.build(small_inputs, target_params())
    factors = dp._step_factors(small_inputs, frame, cfg)
    assert factors.shape == (T + 1, len(cfg.grid), n) and factors.flags.c_contiguous
    x, m = small_inputs.scenarios.x, small_inputs.market.m
    for t in range(1, T + 1):
        for k, a in enumerate(cfg.grid):
            want = z_step(np.ones(n), np.full(n, a), x[:, t], m[:, t], frame.er[:, t])
            assert np.array_equal(factors[t, k], want)


def test_solver_keeps_the_factor_slice_it_is_given(small_inputs):
    T = small_inputs.T
    frame = TargetFrame.build(small_inputs, target_params())
    factors = dp._step_factors(small_inputs, frame, DpConfig())
    tranche = factors[3 : T + 1]
    solver = _Solver(frame.z0(2), tranche, DpConfig())
    assert solver.factors is tranche
    assert np.shares_memory(solver._flat_factors, tranche)


def test_solve_policy_validation(small_inputs):
    frame = TargetFrame.build(small_inputs, target_params())
    with pytest.raises(ParameterError):
        solve_policy(small_inputs, frame, tau=small_inputs.T)
    with pytest.raises(ParameterError):
        solve_policy(small_inputs, frame, tau=-1)


# ---------------------------------------------------------------------------
# policy lookups and export
# ---------------------------------------------------------------------------

def _flat_policy(values):
    """Hand-built single-time policy with constant curves per allocation."""
    cfg = DpConfig(grid=(0.0, 0.5, 1.0))
    nodes = np.array([1.0, 2.0, 3.0])
    curves = [np.array([np.full(3, v) for v in values])]
    return PolicyModel(
        cfg=cfg,
        times=np.array([4]),
        z_nodes=[nodes],
        curves=curves,
        decisions=np.zeros((1, 1), dtype=int),
        z_path=np.ones((2, 1)),
        steps=[_StepPolicy(*_envelope(nodes, curves[0]), 1)],
    )


def test_choice_at_picks_argmax_and_breaks_ties_low():
    policy = _flat_policy([0.0, 1.0, 0.5])
    assert policy.grid[policy.choice_at(4, 1.5)] == 0.5
    policy = _flat_policy([2.0, 2.0, 2.0])
    assert policy.grid[policy.choice_at(4, 1.5)] == 0.0
    with pytest.raises(ParameterError):
        _flat_policy([0.0, 1.0, 0.5]).choice_at(7, 1.5)


@pytest.fixture(scope="module", params=[(0, 1), (0, 2), (-3, 1), (-3, 2)],
                ids=["tau0-deg1", "tau0-deg2", "tauT-3-deg1", "tauT-3-deg2"])
def solved_policy(request, small_inputs):
    """A solved policy of the tranche born at tau = 0 or T - 3, LOESS degree 1 or 2."""
    tau, degree = request.param
    T = small_inputs.T
    frame = TargetFrame.build(small_inputs, target_params())
    return solve_policy(small_inputs, frame, DpConfig(loess_degree=degree), tau=tau % T)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.floats(1e-3, 20.0), min_size=1, max_size=40))
def test_choice_at_is_the_argmax_of_the_interpolated_curves(solved_policy, drawn):
    policy = solved_policy
    for i, t in enumerate(policy.times):
        nodes, breaks = policy.z_nodes[i], policy.steps[i].breaks
        z = np.array(drawn)
        z = z[~np.isin(z, breaks)]
        for q in (nodes, z):
            assert np.array_equal(policy.choice_at(t, q), interp_choice(policy, t, q))
        # the step policy extends flat beyond the training range
        below = nodes[0] * np.array([1e-3, 0.5, 1.0 - 2.0**-52])
        above = nodes[-1] * np.array([1.0 + 2.0**-52, 2.0, 1e3])
        assert np.all(policy.choice_at(t, below) == policy.choice_at(t, nodes[0]))
        assert np.all(policy.choice_at(t, above) == policy.choice_at(t, nodes[-1]))


def test_in_sample_decisions_are_the_step_lookups_of_the_ratios(solved_policy):
    # the per-contribution strategy's exact replay of each solve rests on this
    policy = solved_policy
    for i, t in enumerate(policy.times):
        assert np.array_equal(policy.decisions[i], policy.choice_at(t, policy.z_path[i]))


@st.composite
def _curve_sets(draw):
    """Up to 6 curves on up to 12 evenly spaced nodes.

    Curves on a few quarter levels tie, run parallel and cross exactly on
    nodes; shifted copies of one curve run parallel throughout; free floats
    cross anywhere.
    """
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    lo = draw(st.floats(0.1, 3.0))
    nodes = np.linspace(lo, lo + draw(st.floats(0.5, 5.0)), m)
    kind = draw(st.sampled_from(["levels", "parallel", "free"]))
    if kind == "levels":
        cells = draw(st.lists(st.integers(-3, 3), min_size=k * m, max_size=k * m))
        curves = np.array(cells, dtype=float).reshape(k, m) / 4.0
    elif kind == "parallel":
        base = np.array(draw(st.lists(st.floats(-10.0, 0.0), min_size=m, max_size=m)))
        shifts = draw(st.lists(st.sampled_from([0.0, 0.25, -0.5]), min_size=k, max_size=k))
        curves = base[None, :] + np.array(shifts)[:, None]
    else:
        cells = draw(st.lists(st.floats(-10.0, 0.0), min_size=k * m, max_size=k * m))
        curves = np.array(cells).reshape(k, m)
    return nodes, curves


def _assert_same_envelope(nodes, curves):
    breaks, regions = _envelope(nodes, curves)
    # the reference divides by zero on coinciding nodes, then clips
    with np.errstate(divide="ignore", invalid="ignore"):
        want_breaks, want_regions = reference_envelope(nodes, curves)
    assert breaks.tobytes() == want_breaks.tobytes()
    assert np.array_equal(regions, want_regions)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_curve_sets())
@example((np.array([1.0]), np.array([[-0.5], [-0.2], [-0.2]])))  # m = 1
@example((np.linspace(1.0, 2.0, 5), np.full((1, 5), -1.0)))  # k = 1
@example((np.linspace(1.0, 2.0, 3), np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])))
# a crossing at t = 1 that rounds one ulp past the last node, where curves 1
# and 2 tie (a probe there evaluated with t > 1 would pick curve 2), and one
# just below the last node whose midpoint with it rounds onto it
@example((
    np.array([0.0, 1.5 * 2.0**-52, 1.0 + 3 * 2.0**-52]),
    np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1e-30], [0.0, -1.0, 1e-30]]),
))
@example((np.array([1.0, 1.5, 2.0]), np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0**-51]])))
# coinciding first and last nodes, as linspace gives over a span of a few ulps
@example((
    np.array([1.0, 1.0, 1.5, 2.0, 2.0]),
    np.array([[0.0, 1.0, 0.0, 1.0, 0.0], [1.0, 0.0, 0.5, 0.0, 1.0]]),
))
def test_envelope_matches_reference(case):
    _assert_same_envelope(*case)


def test_envelope_matches_reference_in_a_solve(small_inputs, monkeypatch):
    calls = []

    def checked(nodes, curves):
        calls.append(None)
        _assert_same_envelope(nodes, curves)
        return _envelope(nodes, curves)

    monkeypatch.setattr(dp, "_envelope", checked)
    # every tranche solve, in this process
    CombinationStrategy(target_params(), threads=1).run(small_inputs)
    assert len(calls) > 100


@pytest.mark.parametrize("nb", [0, 1, 3, 8, 9, 15])
def test_step_policy_lookup_counts_breaks_at_or_below(nb):
    # uniformly drawn breaks and ratios, ratios sitting exactly on a break included
    rng = np.random.default_rng(nb)
    breaks = np.sort(rng.uniform(0.5, 3.0, nb))
    regions = rng.integers(0, 6, nb + 1)
    z = np.concatenate([rng.uniform(0.0, 3.5, 400 - nb), breaks]).reshape(2, -1)
    want = regions[(breaks[None, None, :] <= z[:, :, None]).sum(axis=2)]
    assert np.array_equal(_StepPolicy(breaks, regions, 200).choose(z), want)


@st.composite
def _break_sets(draw):
    """Up to 30 strictly increasing breaks, some clustered a few ulps apart."""
    points = []
    for centre in draw(st.lists(st.floats(0.05, 5.0), max_size=6)):
        gap = draw(st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.3]))
        p = centre
        for i in range(draw(st.integers(1, 8))):
            points.append(p)
            # gap 0: consecutive floats, all in one bucket
            p = np.nextafter(p, np.inf) if gap == 0.0 else centre + (i + 1) * gap
    return np.unique(points)[:30]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_break_sets(), st.lists(st.floats(0.0, 6.0), max_size=20))
@example(np.empty(0), [1.0])
@example(np.array([1.5]), [1.5, 0.2, 9.0])
def test_step_policy_count_matches_direct_count(breaks, drawn):
    # ratios on every break and on both neighbouring floats, far below the
    # first break and far above the last, plus drawn ones
    z = np.concatenate([
        breaks,
        np.nextafter(breaks, -np.inf),
        np.nextafter(breaks, np.inf),
        [1e-300, 1e-9, 1e9, 1e300],
        drawn,
    ])
    want = (breaks[None, :] <= z[:, None]).sum(axis=1)
    n = z.shape[0]
    regions = (np.arange(breaks.shape[0] + 1) * 7) % 6
    rows = np.stack([z, z[::-1]])
    # the lookups stay free of floating-point warnings on their own, for
    # any positive ratio, whatever error state their caller sets
    with np.errstate(all="raise"):
        policy = _StepPolicy(breaks, regions, n)
        count, chosen = policy.count(z), policy.choose(z)
        flat = policy.flat_index(rows, np.arange(n))
    assert np.array_equal(count, want)
    assert np.array_equal(chosen, regions[want])
    assert np.array_equal(
        flat, np.stack([regions[want], regions[want[::-1]]]) * n + np.arange(n)
    )


def test_export_policy_csv_round_trips(small_inputs):
    frame = TargetFrame.build(small_inputs, target_params())
    policy = solve_policy(small_inputs, frame, tau=0)
    text = export_policy_csv(policy)
    lines = text.strip().splitlines()
    assert lines[0] == "t,z,alpha"
    assert len(lines) == 1 + sum(len(n) for n in policy.z_nodes)
    grid = set(policy.grid.tolist())
    for line in lines[1:]:
        t, z, a = line.split(",")
        assert int(t) in policy.times
        assert float(a) in grid
        assert np.isfinite(float(z))


def test_decision_table_is_the_argmax_of_the_curves_at_the_nodes(small_inputs):
    frame = TargetFrame.build(small_inputs, target_params())
    policy = solve_policy(small_inputs, frame, tau=0)
    expected = [
        (int(t), float(z), float(a))
        for i, t in enumerate(policy.times)
        for z, a in zip(policy.z_nodes[i], policy.grid[np.argmax(policy.curves[i], axis=0)])
    ]
    assert policy.decision_table() == expected


# ---------------------------------------------------------------------------
# combination strategy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_inputs():
    scenarios = simulate(ModelParams(), 60, 8, seed=19)
    return SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=8, N=20))


def test_combination_allocations_come_from_grid(tiny_inputs):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    outcome = CombinationStrategy(target_params(), cfg=cfg).run(tiny_inputs)
    ta = outcome.tranche_alpha
    T = tiny_inputs.T
    assert np.all(ta[:, T, :] == 0.0)  # retirement converts every tranche
    for tau in range(T):
        vals = ta[:, tau:T, tau]
        assert not np.isnan(vals).any()
        assert np.isin(vals, cfg.grid).all()
        assert np.isnan(ta[:, :tau, tau]).all()
    assert (outcome.alpha >= 0.0).all() and (outcome.alpha <= 1.0).all()


def test_combination_runs_are_deterministic(tiny_inputs):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    a = CombinationStrategy(target_params(), cfg=cfg).run(tiny_inputs)
    b = CombinationStrategy(target_params(), cfg=cfg).run(tiny_inputs)
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.alpha, b.alpha)


def test_combination_tranche_solves_are_thread_independent(small_inputs):
    # more workers than cores, so a lost or misplaced tranche result would
    # show as a mismatch
    a, b = (
        CombinationStrategy(target_params(), threads=threads).run(small_inputs)
        for threads in (1, 3)
    )
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.tranche_alpha, b.tranche_alpha, equal_nan=True)
    with pytest.raises(ParameterError):
        CombinationStrategy(target_params(), threads=0)


def test_combination_shared_mode(tiny_inputs):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    outcome = CombinationStrategy(target_params(), cfg=cfg, mode="shared").run(tiny_inputs)
    assert outcome.wealth.shape == (60, 9)
    assert (outcome.wealth[:, -1] > 0).all()
    assert np.isin(outcome.tranche_alpha[:, :8, 0][~np.isnan(outcome.tranche_alpha[:, :8, 0])], cfg.grid).all()


def test_combination_converts_at_T_on_a_grid_without_zero(tiny_inputs):
    cfg = DpConfig(grid=(0.2, 0.6, 1.0), curve_points=41)
    outcome = CombinationStrategy(target_params(), cfg=cfg).run(tiny_inputs)
    T = tiny_inputs.T
    assert np.all(outcome.tranche_alpha[:, T, :] == 0.0)
    assert np.all(outcome.alpha[:, T] == 0.0)
    assert np.isin(outcome.tranche_alpha[:, :T][~np.isnan(outcome.tranche_alpha[:, :T])], cfg.grid).all()


@pytest.mark.parametrize("mode", ["per-contribution", "shared"])
def test_combination_on_a_one_allocation_grid(mode):
    # with one allocation every step policy is a single region, so the run
    # holds every tranche at that allocation: the static mix, tranche by tranche
    scenarios = simulate(ModelParams(), 200, 10, seed=3)
    inputs = SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=10, N=20))
    cfg, T = DpConfig(grid=(0.5,), curve_points=21), inputs.T
    outcome = CombinationStrategy(target_params(), cfg=cfg, mode=mode, threads=2).run(inputs)
    born = np.tri(T + 1, dtype=bool)  # born[t, tau]: tau <= t
    assert (outcome.tranche_alpha[:, :T][:, born[:T]] == 0.5).all()
    assert (outcome.tranche_alpha[:, T] == 0.0).all()
    static = StaticMixStrategy(0.5).run(inputs)
    np.testing.assert_allclose(outcome.terminal_wealth, static.terminal_wealth, rtol=1e-12)
    frame = TargetFrame.build(inputs, target_params())
    for tau in range(T):
        for step in solve_policy(inputs, frame, cfg, tau=tau).steps:
            assert step.breaks.size == 0 and step.regions.tolist() == [0]


@pytest.mark.parametrize("mode", ["per-contribution", "shared"])
def test_combination_run_equals_dense_reference(small_inputs, mode):
    # the panel filled first, as the run once did, then grown densely
    T = small_inputs.T
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    params = target_params()
    frame = TargetFrame.build(small_inputs, params)
    grid = np.asarray(cfg.grid)
    full = np.full((small_inputs.n_paths, T + 1, T + 1), np.nan)
    policy = solve_policy(small_inputs, frame, cfg, tau=0)
    for tau in range(T):
        if mode == "per-contribution":
            full[:, tau:T, tau] = grid[solve_policy(small_inputs, frame, cfg, tau=tau).decisions].T
        else:
            full[:, tau:T, tau] = interp_replay(small_inputs, frame, policy, tau)
    full[:, T, :] = 0.0
    reference = dense_tranche_run(small_inputs, lambda t, live: full[:, t, : t + 1])
    outcome = CombinationStrategy(params, cfg=cfg, mode=mode).run(small_inputs)
    assert_same_run(outcome, reference)


def _every_strategy(params, inputs):
    """Both ``combination`` modes and the four rule strategies of the report."""
    return [
        CombinationStrategy(params),
        CombinationStrategy(params, mode="shared"),
        StaticMixStrategy(0.4),
        StaticMixStrategy(GlidePath.bogle(ages=inputs.schedule.ages)),
        CumulativeTargetStrategy(params),
        IndividualTargetStrategy(params),
    ]


class _Ran:
    """A strategy whose run hands back an outcome already computed, so that
    ``evaluate_strategy`` reports it without running it again."""

    def __init__(self, outcome):
        self.outcome = outcome

    def run(self, inputs):
        return self.outcome


def _assert_same_report_row(inputs_a, a, inputs_b, b, params):
    """The report rows of two outcomes agree statistic by statistic."""
    row_a, row_b = (
        evaluate_strategy(inputs, _Ran(outcome), params)
        for inputs, outcome in ((inputs_a, a), (inputs_b, b))
    )
    for name in REPORT_COLUMNS[1:]:
        np.testing.assert_allclose(
            getattr(row_b, name), getattr(row_a, name), rtol=1e-12, atol=0.0, err_msg=name
        )


def test_permuting_paths_permutes_every_strategy():
    # paths are exchangeable: no LOESS window, envelope tie or sort may
    # depend on their order
    scenarios = simulate(ModelParams(), 400, 16, seed=11)
    perm = np.random.default_rng(0).permutation(scenarios.n_paths)
    # every per-path array the set holds: x, pi, w and the curve's factors
    held = {f.name: getattr(scenarios, f.name) for f in fields(scenarios)}
    permuted = replace(scenarios, **{k: a[perm] for k, a in held.items() if np.ndim(a) > 1})
    assert np.array_equal(permuted.curves, scenarios.curves[perm])
    worlds = [SimulationInputs.prepare(s, annuity=AnnuitySpec(T=16, N=20)) for s in (scenarios, permuted)]
    params = target_params()
    for strategy in _every_strategy(params, worlds[0]):
        a, b = (strategy.run(inputs) for inputs in worlds)
        # grid decisions match exactly; wealth and the pot's mix rest on the
        # cross-sectional inflation fit, whose sums run in path order
        if a.tranche_alpha is not None:
            assert np.array_equal(a.tranche_alpha[perm], b.tranche_alpha, equal_nan=True)
        np.testing.assert_allclose(b.alpha, a.alpha[perm], rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(b.terminal_wealth, a.terminal_wealth[perm], rtol=1e-12, atol=0.0)
        # and the report's statistics do not see the order
        _assert_same_report_row(worlds[0], a, worlds[1], b, params)


def test_money_units_change_no_decision_and_no_report_statistic():
    # salary and franchise in other units scale every contribution, wealth
    # and target alike: the ratios the rules and the DP read do not move
    scenarios = simulate(ModelParams(), 300, 12, seed=5)
    annuity = AnnuitySpec(T=12, N=20)
    inputs = SimulationInputs.prepare(scenarios, annuity=annuity)
    scaled = replace(
        inputs.schedule,
        base_salary=inputs.schedule.base_salary * 7.0,
        franchise=inputs.schedule.franchise * 7.0,
    )
    inputs7 = SimulationInputs.prepare(scenarios, schedule=scaled, annuity=annuity)
    np.testing.assert_allclose(inputs7.contributions, 7.0 * inputs.contributions, rtol=1e-12)
    params = target_params()
    for strategy in _every_strategy(params, inputs):
        a, b = strategy.run(inputs), strategy.run(inputs7)
        if isinstance(strategy, CombinationStrategy):
            assert np.array_equal(a.tranche_alpha, b.tranche_alpha, equal_nan=True)
        _assert_same_report_row(inputs, a, inputs7, b, params)


def test_a_zero_volatility_world_gives_every_path_the_same_run(flat_inputs):
    # every path is the mean path, so every panel is one path repeated and
    # the DP, whose LOESS fits are all means, picks one allocation per step
    params = target_params(r=0.0)
    for strategy in _every_strategy(params, flat_inputs):
        outcome = strategy.run(flat_inputs)
        panels = [outcome.wealth, outcome.alpha, outcome.terminal_wealth]
        if outcome.tranche_alpha is not None:
            panels.append(outcome.tranche_alpha)
        for panel in panels:
            assert np.array_equal(panel, np.broadcast_to(panel[:1], panel.shape), equal_nan=True)
    frame = TargetFrame.build(flat_inputs, params)
    decisions = solve_policy(flat_inputs, frame, tau=0).decisions
    assert np.array_equal(decisions, np.broadcast_to(decisions[:, :1], decisions.shape))


def test_combination_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        CombinationStrategy(target_params(), mode="global")


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("world", ["tiny_inputs", "small_inputs"])
def test_worker_tranches_equal_direct_solves(request, world, threads):
    inputs = request.getfixturevalue(world)
    T = inputs.T
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    params = target_params()
    outcome = CombinationStrategy(params, cfg=cfg, threads=threads).run(inputs)
    frame = TargetFrame.build(inputs, params)
    grid = np.asarray(cfg.grid)
    for tau in range(T):
        direct = grid[solve_policy(inputs, frame, cfg, tau=tau).decisions].T
        assert np.array_equal(outcome.tranche_alpha[:, tau:T, tau], direct)


def _fail_solves(monkeypatch, T, which):
    """Make ``_Solver.solve`` raise a DomainError for some birth years.

    A solver for the tranche born at tau has T - tau decision times.  Forked
    workers inherit the patch.
    """
    solve = _Solver.solve

    def failing(self):
        if which(T - self.nd):
            raise DomainError(f"injected failure at tau={T - self.nd}")
        solve(self)

    monkeypatch.setattr(dp._Solver, "solve", failing)


@pytest.mark.parametrize("which", [lambda tau: tau >= 1, lambda tau: tau == 0],
                         ids=["worker", "parent"])
def test_failed_tranche_solve_raises_typed_and_leaves_no_worker(tiny_inputs, monkeypatch, which):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    _fail_solves(monkeypatch, tiny_inputs.T, which)
    for threads in (1, 3):
        with pytest.raises(DomainError, match="injected failure"):
            CombinationStrategy(target_params(), cfg=cfg, threads=threads).run(tiny_inputs)
        assert multiprocessing.active_children() == []


def test_worker_failure_exits_like_a_serial_run(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "n_paths = 60\nhorizon = 8\nannuity.T = 8\nseed = 5\n"
        "report.strategies = static_40,combination\n",
        encoding="utf-8",
    )
    _fail_solves(monkeypatch, 8, lambda tau: tau >= 1)
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = ["report", "--config", str(cfg), "--out", str(out), "--threads", threads]
        assert cli.main(argv) == 2
        assert "injected failure" in capsys.readouterr().err
        assert os.listdir(out) == []
        assert multiprocessing.active_children() == []
