"""Dynamic-programming policy solver for the per-tranche ratio process."""

import itertools
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_run,
    dense_tranche_run,
    einsum_loess_apply,
    flat_params,
    reference_envelope,
)
from pensionsim import (
    CombinationStrategy,
    DpConfig,
    PolicyModel,
    SimulationInputs,
    TargetFrame,
    TargetParams,
    export_policy_csv,
    ingest,
    simulate,
    solve_policy,
    utility_check,
    z_step,
)
from pensionsim import cli, dp
from pensionsim.dp import _envelope, _SnakeSolver, _StepPolicy
from pensionsim.errors import DomainError, ParameterError
from pensionsim.market import AnnuitySpec


def _params(T, r=0.02):
    return TargetParams(r=r, delta=0.025, N=20, T=T)


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

def _toy_inputs(tmp_path):
    """Two paths, two decision years, zero inflation.

    The year-0 curves differ across the paths so the initial ratios differ:
    a policy that only sees the ratio can then tell the scenarios apart at
    every decision time, which makes the per-scenario optimum attainable.
    """
    hdr = "path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))
    lines = [hdr]
    for p, (xs, r0) in enumerate(
        [((0.0, 0.30, 0.30), 0.05), ((0.0, -0.20, -0.20), 0.02)]
    ):
        for t, x in enumerate(xs):
            rate = r0 if t == 0 else 0.02
            lines.append(f"{p},{t},{x},0.0," + ",".join([f"{rate}"] * 30))
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n")
    return SimulationInputs.prepare(ingest(path), annuity=AnnuitySpec(T=2, N=20))


def test_toy_policy_matches_enumeration(tmp_path):
    inputs = _toy_inputs(tmp_path)
    frame = TargetFrame.build(inputs, _params(2))
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
    # later iterations may oscillate (the sweep is a heuristic), but the
    # second pass must not lose ground against the first
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
    policy = solve_policy(small_inputs, frame, DpConfig(iterations=2), tau=0)
    trace = policy.utility_trace
    assert len(trace) == 2
    assert trace[1] >= trace[0] - 1e-6


def test_solver_is_deterministic(small_inputs):
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
    p1 = solve_policy(small_inputs, frame, tau=2)
    p2 = solve_policy(small_inputs, frame, tau=2)
    assert np.array_equal(p1.decisions, p2.decisions)
    assert np.array_equal(p1.z_path, p2.z_path)
    for a, b in zip(p1.curves, p2.curves):
        assert np.array_equal(a, b)


class _FullRecomputeCheck(_SnakeSolver):
    """Solver that compares its ratios with a full rollout after every refresh."""

    refreshes = 0
    partial = 0

    def _refresh(self, s):
        before = self.decisions[s].copy()
        super()._refresh(s)
        full = np.empty_like(self.z)
        full[0] = self.z[0]
        for t in range(self.nd):
            full[t + 1] = full[t] * self.factors[t][self.decisions[t], self._paths]
        assert np.array_equal(self.z, full)
        changed = np.count_nonzero(self.decisions[s] != before)
        _FullRecomputeCheck.refreshes += 1
        _FullRecomputeCheck.partial += 0 < changed < self.n


def test_changed_path_propagation_matches_full_rollout(small_inputs, monkeypatch):
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
    want = solve_policy(small_inputs, frame, tau=0)
    monkeypatch.setattr(dp, "_SnakeSolver", _FullRecomputeCheck)
    monkeypatch.setattr(_FullRecomputeCheck, "refreshes", 0)
    monkeypatch.setattr(_FullRecomputeCheck, "partial", 0)
    got = solve_policy(small_inputs, frame, tau=0)
    # the check ran, and on refreshes that moved only some paths' decisions
    assert _FullRecomputeCheck.refreshes > 0
    assert _FullRecomputeCheck.partial > 0
    assert np.array_equal(got.decisions, want.decisions)
    assert np.array_equal(got.z_path, want.z_path)


def test_decisions_match_einsum_loess_reference(monkeypatch):
    # the batched-matmul apply moves only the last bits of the fitted curves
    from pensionsim import ModelParams

    scenarios = simulate(ModelParams(), 400, 8, seed=23)
    inputs = SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=8, N=20))
    frame = TargetFrame.build(inputs, _params(inputs.T, r=0.01))
    got = solve_policy(inputs, frame, tau=0)
    monkeypatch.setattr(dp, "_loess_apply", einsum_loess_apply)
    want = solve_policy(inputs, frame, tau=0)
    assert np.array_equal(got.decisions, want.decisions)
    assert np.array_equal(got.z_path, want.z_path)
    for a, b in zip(got.curves, want.curves):
        np.testing.assert_allclose(a, b, rtol=1e-12)


def test_solve_policy_validation(small_inputs):
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
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
    )


def test_alpha_at_picks_argmax_and_breaks_ties_low():
    assert _flat_policy([0.0, 1.0, 0.5]).alpha_at(4, 1.5) == 0.5
    assert _flat_policy([2.0, 2.0, 2.0]).alpha_at(4, 1.5) == 0.0
    with pytest.raises(ParameterError):
        _flat_policy([0.0, 1.0, 0.5]).alpha_at(7, 1.5)


def test_policy_lookup_extends_flat(small_inputs):
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
    policy = solve_policy(small_inputs, frame, tau=0)
    t = int(policy.times[3])
    lo, hi = policy.z_nodes[3][0], policy.z_nodes[3][-1]
    np.testing.assert_allclose(
        policy.expected_utilities(t, lo * 1e-3), policy.expected_utilities(t, lo)
    )
    np.testing.assert_allclose(
        policy.expected_utilities(t, hi * 1e3), policy.expected_utilities(t, hi)
    )


def test_policy_lookup_interpolates_between_nodes(small_inputs):
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
    policy = solve_policy(small_inputs, frame, tau=0)
    nodes, curves = policy.z_nodes[2], policy.curves[2]
    t = int(policy.times[2])
    mid = 0.5 * (nodes[4] + nodes[5])
    np.testing.assert_allclose(
        policy.expected_utilities(t, mid)[:, 0],
        0.5 * (curves[:, 4] + curves[:, 5]),
        rtol=1e-13,
    )


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
    solve_policy(small_inputs, TargetFrame.build(small_inputs, _params(small_inputs.T)), tau=0)
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
        count, chosen, flat = policy.count(z), policy.choose(z), policy.flat_index(rows)
    assert np.array_equal(count, want)
    assert np.array_equal(chosen, regions[want])
    assert np.array_equal(
        flat, np.stack([regions[want], regions[want[::-1]]]) * n + np.arange(n)
    )


def test_export_policy_csv_round_trips(small_inputs):
    frame = TargetFrame.build(small_inputs, _params(small_inputs.T))
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


# ---------------------------------------------------------------------------
# combination strategy
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_inputs():
    from pensionsim import ModelParams

    scenarios = simulate(ModelParams(), 60, 8, seed=19)
    return SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=8, N=20))


def test_combination_allocations_come_from_grid(tiny_inputs):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    outcome = CombinationStrategy(_params(8), cfg=cfg).run(tiny_inputs)
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
    a = CombinationStrategy(_params(8), cfg=cfg).run(tiny_inputs)
    b = CombinationStrategy(_params(8), cfg=cfg).run(tiny_inputs)
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.alpha, b.alpha)


def test_combination_tranche_solves_are_thread_independent(small_inputs):
    # more workers than cores, so a lost or misplaced tranche result would
    # show as a mismatch
    a, b = (
        CombinationStrategy(_params(small_inputs.T), threads=threads).run(small_inputs)
        for threads in (1, 3)
    )
    assert np.array_equal(a.wealth, b.wealth)
    assert np.array_equal(a.alpha, b.alpha)
    assert np.array_equal(a.tranche_alpha, b.tranche_alpha, equal_nan=True)
    with pytest.raises(ParameterError):
        CombinationStrategy(_params(small_inputs.T), threads=0)


def test_combination_shared_mode(tiny_inputs):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    outcome = CombinationStrategy(_params(8), cfg=cfg, mode="shared").run(tiny_inputs)
    assert outcome.wealth.shape == (60, 9)
    assert (outcome.wealth[:, -1] > 0).all()
    assert np.isin(outcome.tranche_alpha[:, :8, 0][~np.isnan(outcome.tranche_alpha[:, :8, 0])], cfg.grid).all()


def test_combination_converts_at_T_on_a_grid_without_zero(tiny_inputs):
    cfg = DpConfig(grid=(0.2, 0.6, 1.0), curve_points=41)
    outcome = CombinationStrategy(_params(8), cfg=cfg).run(tiny_inputs)
    T = tiny_inputs.T
    assert np.all(outcome.tranche_alpha[:, T, :] == 0.0)
    assert np.all(outcome.alpha[:, T] == 0.0)
    assert np.isin(outcome.tranche_alpha[:, :T][~np.isnan(outcome.tranche_alpha[:, :T])], cfg.grid).all()


@pytest.mark.parametrize("mode", ["per-contribution", "shared"])
def test_combination_run_equals_dense_reference(small_inputs, mode):
    # the panel filled first, as the run once did, then grown densely
    T = small_inputs.T
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    params = _params(T)
    frame = TargetFrame.build(small_inputs, params)
    x, m = small_inputs.scenarios.x, small_inputs.market.m
    grid = np.asarray(cfg.grid)
    full = np.full((small_inputs.n_paths, T + 1, T + 1), np.nan)
    policy = solve_policy(small_inputs, frame, cfg, tau=0)
    for tau in range(T):
        if mode == "per-contribution":
            full[:, tau:T, tau] = grid[solve_policy(small_inputs, frame, cfg, tau=tau).decisions].T
            continue
        z = frame.z0(tau)
        for t in range(tau, T):
            full[:, t, tau] = policy.alpha_at(t, z)
            z = z_step(z, full[:, t, tau], x[:, t + 1], m[:, t + 1], frame.er[:, t + 1])
    full[:, T, :] = 0.0
    reference = dense_tranche_run(small_inputs, lambda t, live: full[:, t, : t + 1])
    outcome = CombinationStrategy(params, cfg=cfg, mode=mode).run(small_inputs)
    assert_same_run(outcome, reference)


def test_combination_rejects_unknown_mode():
    with pytest.raises(ParameterError):
        CombinationStrategy(_params(8), mode="global")


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("world", ["tiny_inputs", "small_inputs"])
def test_worker_tranches_equal_direct_solves(request, world, threads):
    inputs = request.getfixturevalue(world)
    T = inputs.T
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    params = _params(T)
    outcome = CombinationStrategy(params, cfg=cfg, threads=threads).run(inputs)
    frame = TargetFrame.build(inputs, params)
    grid = np.asarray(cfg.grid)
    for tau in range(T):
        direct = grid[solve_policy(inputs, frame, cfg, tau=tau).decisions].T
        assert np.array_equal(outcome.tranche_alpha[:, tau:T, tau], direct)


def _fail_solves(monkeypatch, T, which):
    """Make ``_SnakeSolver.solve`` raise a DomainError for some birth years.

    A solver for the tranche born at tau has T - tau decision times.  Forked
    workers inherit the patch.
    """
    solve = _SnakeSolver.solve

    def failing(self):
        if which(T - self.nd):
            raise DomainError(f"injected failure at tau={T - self.nd}")
        solve(self)

    monkeypatch.setattr(dp._SnakeSolver, "solve", failing)


@pytest.mark.parametrize("which", [lambda tau: tau >= 1, lambda tau: tau == 0],
                         ids=["worker", "parent"])
def test_failed_tranche_solve_raises_typed_and_leaves_no_worker(tiny_inputs, monkeypatch, which):
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    _fail_solves(monkeypatch, tiny_inputs.T, which)
    for threads in (1, 3):
        with pytest.raises(DomainError, match="injected failure"):
            CombinationStrategy(_params(tiny_inputs.T), cfg=cfg, threads=threads).run(tiny_inputs)
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
