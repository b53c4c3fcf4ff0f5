"""The benchmark in ``perfbench/`` still runs against the package.

``perfbench/traced.py`` patches names in ``pensionsim`` for its traced and
check runs; a rename there would otherwise break the benchmark silently.
These tests only read ``perfbench/``.
"""

import os
import subprocess
import sys

import numpy as np

import pensionsim
import pensionsim.cli as cli
import pensionsim.dp as dp
import pensionsim.engine as engine
from pensionsim import (
    CombinationStrategy,
    DpConfig,
    IndividualTargetStrategy,
    TargetFrame,
    TargetParams,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def test_oracle_self_test_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join(PERFBENCH, "run.py"), "--self-test"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_layer_hooks_patch_and_restore_the_originals(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import traced

    owners = [cli, dp, engine] + [
        getattr(pensionsim, name)
        for name in (
            "CombinationStrategy", "CumulativeTargetStrategy", "IndividualTargetStrategy",
            "InflationEstimator", "ReplacementEstimators", "SimulationInputs",
            "StaticMixStrategy", "TargetFrame",
        )
    ]
    before = [dict(vars(owner)) for owner in owners]
    with traced.hooks(traced.Tracer("w", "r")):
        patched = [
            (owner, name)
            for owner, names in zip(owners, before)
            for name, value in names.items()
            if vars(owner)[name] is not value
        ]
    # every owner has at least one name replaced while the hooks are on
    assert {id(owner) for owner, _ in patched} == {id(owner) for owner in owners}
    for owner, names in zip(owners, before):
        assert set(vars(owner)) == set(names)
        for name, value in names.items():
            assert vars(owner)[name] is value, (owner, name)


def test_setup_samples_build_inputs_with_positional_threads(tmp_path, monkeypatch):
    # traced.setup_main calls cli._build_inputs(cfg, seed, threads) positionally,
    # and workloads.check_outputs calls cli._build_scenarios the same way
    monkeypatch.syspath_prepend(PERFBENCH)
    import traced
    import workloads

    config = tmp_path / "tiny.cfg"
    config.write_text(
        "n_paths = 40\nhorizon = 4\nannuity.T = 4\nevaluation.estimation_lag = 4\n",
        encoding="utf-8",
    )
    assert traced.setup_main(str(config), 3, 2) == 0
    cfg = cli.parse_config(str(config))
    assert workloads.same_sets(cli._build_scenarios(cfg, 3, 2), cli._build_scenarios(cfg, 3, 1))


def test_package_outcomes_pass_the_tranche_oracles(small_inputs, monkeypatch):
    # the oracles read ``outcome.tranche_alpha``; a break in that contract
    # fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(PERFBENCH)
    import oracles
    import workloads

    p = workloads.panels(small_inputs)
    params = TargetParams(r=0.02)
    individual = IndividualTargetStrategy(params).run(small_inputs)
    assert oracles.check_individual(individual.tranche_alpha) == []
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    for mode in ("per-contribution", "shared"):
        outcome = CombinationStrategy(params, cfg=cfg, mode=mode).run(small_inputs)
        assert oracles.check_combination(
            outcome.terminal_wealth, outcome.tranche_alpha, p["x"], p["m"], p["c"]
        ) == []


def test_solved_policy_passes_the_policy_checks(small_inputs, monkeypatch):
    # a check run replays ``PolicyModel.decisions`` through ``z_step`` from
    # ``times`` and ``cfg``, and scores ``z_path`` and ``decision_table``
    monkeypatch.syspath_prepend(PERFBENCH)
    import traced

    params = TargetParams(r=0.01)
    policy = dp.solve_policy(small_inputs, TargetFrame.build(small_inputs, params), tau=0)
    bad, switches, _ = traced.policy_checks(policy, params, small_inputs)
    assert bad == []
    assert switches > 0


def test_tranche_solves_run_through_a_wrapped_solve_policy(small_inputs, monkeypatch):
    # perfbench's traced hook replaces ``dp.solve_policy`` with a wrapper of
    # this signature; every tranche solve, in this process or a forked
    # worker, goes through the module-level name
    params = TargetParams(r=0.02)
    cfg = DpConfig(grid=(0.0, 0.5, 1.0), curve_points=41)
    reference = CombinationStrategy(params, cfg=cfg, threads=1).run(small_inputs).tranche_alpha
    original = dp.solve_policy
    seen = []

    def solve_policy(inputs, frame, cfg, tau=0, **kwargs):
        seen.append(tau)
        return original(inputs, frame, cfg, tau=tau, **kwargs)

    monkeypatch.setattr(dp, "solve_policy", solve_policy)
    for threads, parent_taus in ((1, list(range(small_inputs.T))), (2, [0])):
        seen.clear()
        outcome = CombinationStrategy(params, cfg=cfg, threads=threads).run(small_inputs)
        assert np.array_equal(outcome.tranche_alpha, reference, equal_nan=True)
        assert seen == parent_taus
