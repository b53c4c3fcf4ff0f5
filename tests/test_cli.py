"""End-to-end tests for the command-line runner.

Everything goes through ``cli.main`` in-process so exit codes, stderr text
and written files can be checked exactly; one test exercises the installed
``python -m pensionsim`` entry point.
"""

import importlib.util
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from pensionsim import DpConfig, IndividualTargetStrategy, ModelParams, cli, export_csv, simulate
from pensionsim.errors import ConfigError, DomainError

# small, fast setup shared by most runs: 10-year horizon, few paths
SMALL = """
n_paths = 120
horizon = 10
annuity.T = 10
seed = 11
"""


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# configuration parsing


def test_print_defaults_round_trips(tmp_path, capsys):
    assert cli.main(["simulate", "--print-defaults"]) == 0
    text = capsys.readouterr().out
    cfg = cli.parse_config(write_config(tmp_path, text))
    assert cfg.values == cli.default_config().values
    # every known key appears exactly once
    keys = [line.split("=")[0].strip() for line in text.strip().splitlines()]
    assert keys == list(cli.DEFAULTS)


def test_default_config_builds_dataclass_defaults():
    cfg = cli.default_config()
    assert cli._model_params(cfg) == ModelParams()
    assert cli._dp_config(cfg) == DpConfig()


def test_config_surface_is_pinned():
    # adding, dropping or re-defaulting a key is a deliberate edit of this sha
    import hashlib

    text = cli.format_defaults()
    assert len(text.splitlines()) == 58
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b5e9d4afc282889081c13e9c2bc71fee4173f0a91a3298073e5f9822bb97af07"
    )


def test_defaults_without_config_file():
    cfg = cli.parse_config(None)
    assert cfg.source == "<defaults>"
    assert cfg["n_paths"] == 2000
    assert cfg["horizon"] == 41
    assert cfg["annuity.T"] == 41
    assert cfg["annuity.N"] == 20
    assert cfg["strategy.target_rr"] == 0.70
    assert cfg["dp.grid"] == "0.0,0.2,0.4,0.6,0.8,1.0"
    assert "n_paths" not in cfg.explicit


def test_explicit_keys_tracked_and_comments_ignored(tmp_path):
    cfg = cli.parse_config(
        write_config(tmp_path, "# comment\nn_paths = 50  # trailing\n\nseed=9\n")
    )
    assert cfg["n_paths"] == 50
    assert cfg["seed"] == 9
    assert cfg.explicit == {"n_paths", "seed"}


def test_unknown_key_reports_file_and_line(tmp_path):
    path = write_config(tmp_path, "seed = 1\nbogus = 2\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:2.*unknown key 'bogus'"):
        cli.parse_config(path)


def test_output_sha_tool_configs_parse(tmp_path):
    # every command of tools/output_shas.py names a subcommand and writes a
    # config that parses, so a renamed or removed key fails here
    path = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "output_shas.py")
    spec = importlib.util.spec_from_file_location("output_shas", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    csv = str(tmp_path / "scenarios.csv")
    export_csv(simulate(ModelParams(), 4, 3, 0), csv)
    assert tool.COMMANDS
    for i, (label, subs, keys, *_) in enumerate(tool.COMMANDS):
        assert set(subs.split()) <= set(cli.SUBCOMMANDS), label
        cfg = cli.parse_config(tool.write_config(str(tmp_path / f"{i}.cfg"), keys, csv))
        assert cfg.explicit == set(keys), label


def test_type_mismatch_reports_expectation(tmp_path):
    path = write_config(tmp_path, "n_paths = abc\n")
    with pytest.raises(ConfigError, match=r"n_paths expects integer, got 'abc'"):
        cli.parse_config(path)
    path = write_config(tmp_path, "model.mean_x = wide\n")
    with pytest.raises(ConfigError, match=r"expects number, got 'wide'"):
        cli.parse_config(path)


def test_malformed_line_rejected(tmp_path):
    path = write_config(tmp_path, "just some words\n")
    with pytest.raises(ConfigError, match=r"expected key = value"):
        cli.parse_config(path)


def test_range_validation(tmp_path):
    with pytest.raises(ConfigError, match="n_paths must be >= 2, got -1"):
        cli.parse_config(write_config(tmp_path, "n_paths = -1\n"))
    with pytest.raises(ConfigError, match="horizon must be >= 2"):
        cli.parse_config(write_config(tmp_path, "horizon = 1\n"))
    with pytest.raises(ConfigError, match="seed must be >= 0, got -4"):
        cli.parse_config(write_config(tmp_path, "seed = -4\n"))
    with pytest.raises(ConfigError, match="annuity.N must be >= 1, got 0"):
        cli.parse_config(write_config(tmp_path, "annuity.N = 0\n"))
    with pytest.raises(ConfigError, match="strategy.kind must be one of"):
        cli.parse_config(write_config(tmp_path, "strategy.kind = martingale\n"))
    with pytest.raises(ConfigError, match="dp.mode must be"):
        cli.parse_config(write_config(tmp_path, "dp.mode = global\n"))
    with pytest.raises(ConfigError, match="strategy.glide_end must lie in"):
        cli.parse_config(write_config(tmp_path, "strategy.glide_end = 1.5\n"))


@pytest.mark.parametrize("floor", ["0", "-10"])
def test_inflation_floor_must_be_positive(tmp_path, capsys, floor):
    path = write_config(tmp_path, f"inflation.floor = {floor}\n")
    with pytest.raises(ConfigError, match="inflation.floor must be positive"):
        cli.parse_config(path)
    assert cli.main(["evaluate", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "inflation.floor must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "report.static_grid_step = 0.3\n",
        "frontier.mix_step = 3\n",
        "frontier.mix_step = 0.15\n",
        "frontier.r_step = 0.03\n",
        "frontier.r_min = 0.01\nfrontier.r_max = 0.02\nfrontier.r_step = 0.004\n",
        "frontier.mix_step = 1e12\n",
        "frontier.r_step = 1e300\n",
    ],
)
def test_grid_step_must_divide_its_span(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="does not divide its span"):
        cli.parse_config(path)
    assert cli.main(["frontier", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "does not divide" in capsys.readouterr().err


def test_dividing_grid_steps_are_accepted(tmp_path):
    for text in (
        "report.static_grid_step = 0.05\nfrontier.mix_step = 0.25\n",
        "frontier.r_min = 0.01\nfrontier.r_max = 0.04\nfrontier.r_step = 0.001\n",
        "frontier.r_min = 0.02\nfrontier.r_max = 0.02\n",
    ):
        cli.parse_config(write_config(tmp_path, text))


def test_missing_config_file_reports_path(tmp_path):
    missing = str(tmp_path / "nope.cfg")
    with pytest.raises(ConfigError, match="cannot read config"):
        cli.parse_config(missing)


def test_scenario_file_excludes_generation_keys(tmp_path):
    data = tmp_path / "scen.csv"
    data.write_text("x\n")  # existence is all that is checked here
    path = write_config(tmp_path, f"scenario.file = {data}\nn_paths = 50\n")
    with pytest.raises(ConfigError, match="exactly one scenario source"):
        cli.parse_config(path)
    path = write_config(tmp_path, f"scenario.file = {data}\nmodel.mean_x = 0.05\n")
    with pytest.raises(ConfigError, match="exactly one scenario source"):
        cli.parse_config(path)


def test_scenario_file_takes_the_wage_spread(tmp_path):
    # an ingested set without a w column fills it with pi + model.wage_spread
    data = tmp_path / "scen.csv"
    rows = ["path,t,x,pi," + ",".join(f"r{k}" for k in range(1, 31))]
    for p in range(2):
        for t in range(3):
            rows.append(f"{p},{t},0.05,{0.01 * (p + t)}," + ",".join(["0.02"] * 30))
    data.write_text("\n".join(rows) + "\n")
    path = write_config(tmp_path, f"scenario.file = {data}\nmodel.wage_spread = 0.01\n")
    scenarios = cli._build_scenarios(cli.parse_config(path), 0, 1)
    assert scenarios.wage_spread == 0.01
    np.testing.assert_array_equal(scenarios.w, scenarios.pi + 0.01)


def test_scenario_file_must_exist(tmp_path):
    path = write_config(tmp_path, f"scenario.file = {tmp_path}/missing.csv\n")
    with pytest.raises(ConfigError, match="scenario.file not found"):
        cli.parse_config(path)


def test_invalid_model_params_rejected_at_parse_time(tmp_path):
    # nested dataclass validation surfaces as a config error
    with pytest.raises(ConfigError, match="volatilities"):
        cli.parse_config(write_config(tmp_path, "model.std_x = -0.2\n"))
    for grid in ("0.0,1.5", "0.0,nan", "0.0,inf", "nan"):
        with pytest.raises(ConfigError, match="grid"):
            cli.parse_config(write_config(tmp_path, f"dp.grid = {grid}\n"))
    with pytest.raises(ConfigError, match="comma-separated"):
        cli.parse_config(write_config(tmp_path, "dp.grid = a,b\n"))


@pytest.mark.parametrize(
    "text",
    [
        "frontier.r_step = nan\n",
        "frontier.r_min = nan\n",
        "frontier.mix_step = inf\n",
        "frontier.r_max = -inf\n",
        "strategy.r = NaN\n",
    ],
)
def test_non_finite_numbers_rejected(tmp_path, capsys, text):
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="expects a finite number"):
        cli.parse_config(path)
    out = tmp_path / "o"
    assert cli.main(["frontier", "--config", path, "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, match",
    [
        ("strategy.target_rr = 5\n", "target replacement ratio"),
        ("strategy.delta = -2\n", "discount rate"),
        ("strategy.r = -1\n", "required return"),
        ("report.cumulative_r = -2\n", "required return"),
        ("report.individual_r = -1.5\n", "required return"),
        ("report.combination_r = -1\n", "required return"),
        ("evaluation.estimation_r = -3\n", "required return"),
        ("frontier.r_min = -2\n", "required return"),
    ],
)
def test_bad_target_parameters_rejected_at_parse_time(tmp_path, capsys, text, match):
    # before any scenario is simulated, whichever command would read them
    path = write_config(tmp_path, SMALL + text)
    with pytest.raises(ConfigError, match=match):
        cli.parse_config(path)
    out = tmp_path / "o"
    assert cli.main(["report", "--config", path, "--out", str(out)]) == 1
    assert match in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key",
    [
        "strategy.r", "report.cumulative_r", "report.individual_r", "report.combination_r",
        "evaluation.estimation_r", "frontier.r_min", "frontier.r_max",
    ],
)
def test_bad_required_return_names_its_key(tmp_path, capsys, key):
    # a frontier.r_max of -3 already fails against frontier.r_min, which the
    # message names too
    path = write_config(tmp_path, SMALL + f"{key} = -3\n")
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        cli.parse_config(path)
    assert cli.main(["report", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("flag", [["--seed", "-5"], ["--threads", "-3"]])
def test_negative_seed_or_threads_override_exits_1(tmp_path, capsys, flag):
    out = tmp_path / "o"
    path = write_config(tmp_path, SMALL)
    assert cli.main(["simulate", "--config", path, "--out", str(out)] + flag) == 1
    assert flag[0][2:] + " must be" in capsys.readouterr().err
    assert not out.exists()


def test_run_checks_seed_and_threads_overrides(tmp_path):
    cfg = cli.parse_config(write_config(tmp_path, SMALL))
    with pytest.raises(ConfigError, match="seed must be >= 0, got -5"):
        cli.run(cfg, "simulate", str(tmp_path / "o"), seed=-5)
    with pytest.raises(ConfigError, match="threads must be >= 0"):
        cli.run(cfg, "simulate", str(tmp_path / "o"), threads=-3)
    with pytest.raises(ConfigError, match="threads must be >= 0"):
        cli.parse_config(write_config(tmp_path, "threads = -3\n"))
    assert not (tmp_path / "o").exists()


def test_estimation_lag_must_lie_within_the_horizon(tmp_path):
    for lag in (-1, 11):
        with pytest.raises(ConfigError, match="estimation_lag must lie in 0..annuity.T"):
            cli.parse_config(write_config(tmp_path, SMALL + f"evaluation.estimation_lag = {lag}\n"))
    cli.parse_config(write_config(tmp_path, SMALL + "evaluation.estimation_lag = 10\n"))


# ---------------------------------------------------------------------------
# subcommand plumbing


def test_missing_subcommand_exits_1(capsys):
    assert cli.main([]) == 1
    assert "missing subcommand" in capsys.readouterr().err


def test_unknown_subcommand_exits_1(capsys):
    assert cli.main(["transmogrify"]) == 1


def test_config_error_exits_1(tmp_path, capsys):
    path = write_config(tmp_path, "bogus = 2\n")
    assert cli.main(["simulate", "--config", path]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_run_rejects_unknown_subcommand():
    with pytest.raises(ConfigError, match="unknown subcommand"):
        cli.run(cli.default_config(), "transmogrify")


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_scenarios_and_moments(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "out")
    assert cli.main(["simulate", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["moments.csv", "scenarios.csv"]
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "scenarios.csv" in stdout
    header = read_bytes(os.path.join(out, "scenarios.csv")).split(b"\n", 1)[0]
    assert header.startswith(b"path,t,x,pi,w,r1")
    moments = read_bytes(os.path.join(out, "moments.csv")).decode()
    assert moments.splitlines()[0] == "stat,a,b,value"


def test_simulate_deterministic_and_threads_independent(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    outs = [str(tmp_path / f"o{i}") for i in range(3)]
    assert cli.main(["simulate", "--config", cfg, "--out", outs[0], "--threads", "1"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", outs[1], "--threads", "1"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", outs[2], "--threads", "4"]) == 0
    for name in ("scenarios.csv", "moments.csv"):
        base = read_bytes(os.path.join(outs[0], name))
        assert read_bytes(os.path.join(outs[1], name)) == base
        assert read_bytes(os.path.join(outs[2], name)) == base


def test_seed_override_changes_scenarios(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert cli.main(["simulate", "--config", cfg, "--out", out1, "--seed", "1"]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out", out2, "--seed", "2"]) == 0
    a = read_bytes(os.path.join(out1, "scenarios.csv"))
    b = read_bytes(os.path.join(out2, "scenarios.csv"))
    assert a != b


# ---------------------------------------------------------------------------
# evaluate and the ingestion pipeline


def test_evaluate_writes_single_row_report(tmp_path):
    cfg = write_config(tmp_path, SMALL + "strategy.kind = static\nstrategy.mix = 0.5\n")
    out = str(tmp_path / "ev")
    assert cli.main(["evaluate", "--config", cfg, "--out", out]) == 0
    lines = read_bytes(os.path.join(out, "report.csv")).decode().splitlines()
    assert len(lines) == 2
    assert lines[0].split(",")[0] == "strategy"
    assert lines[1].startswith("static,")


@pytest.mark.parametrize("kind", ["cumulative", "individual", "combination"])
def test_evaluate_is_the_one_row_report(tmp_path, kind):
    ev = write_config(
        tmp_path, SMALL + f"strategy.kind = {kind}\nstrategy.r = 0.015\n", name="ev.cfg"
    )
    rep = write_config(
        tmp_path, SMALL + f"report.strategies = {kind}\nreport.{kind}_r = 0.015\n", name="rep.cfg"
    )
    for sub, cfg in (("evaluate", ev), ("report", rep)):
        assert cli.main([sub, "--config", cfg, "--out", str(tmp_path / sub), "--threads", "1"]) == 0
    one, many = (read_bytes(tmp_path / sub / "report.csv") for sub in ("evaluate", "report"))
    assert one == many
    assert one.count(b"\n") == 2


def test_career_anchors_apply_without_a_career_file(tmp_path):
    anchors = "career.base_salary = 60000\ncareer.franchise = 1000\n"
    inputs = cli._build_inputs(cli.parse_config(write_config(tmp_path, SMALL + anchors)), 11, 1)
    assert (inputs.schedule.base_salary, inputs.schedule.franchise) == (60000.0, 1000.0)
    np.testing.assert_array_equal(inputs.salaries[:, 0], 60000.0)
    np.testing.assert_array_equal(inputs.franchises[:, 0], 1000.0)
    reports = []
    for name, text in (("default", ""), ("anchored", anchors)):
        cfg = write_config(tmp_path, SMALL + "strategy.kind = static\n" + text, name=name + ".cfg")
        assert cli.main(["evaluate", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        reports.append(read_bytes(os.path.join(tmp_path, name, "report.csv")))
    assert reports[0] != reports[1]


def test_ingested_scenarios_reproduce_generated_report(tmp_path):
    """simulate -> evaluate-from-file matches the single-pass evaluate run."""
    gen_cfg = write_config(tmp_path, SMALL, name="gen.cfg")
    sim_out = str(tmp_path / "sim")
    assert cli.main(["simulate", "--config", gen_cfg, "--out", sim_out]) == 0

    strategy = "strategy.kind = cumulative\nstrategy.r = 0.02\n"
    direct_cfg = write_config(tmp_path, SMALL + strategy, name="direct.cfg")
    ingest_cfg = write_config(
        tmp_path,
        f"scenario.file = {sim_out}/scenarios.csv\nannuity.T = 10\nseed = 11\n" + strategy,
        name="ingest.cfg",
    )
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli.main(["evaluate", "--config", direct_cfg, "--out", out_a]) == 0
    assert cli.main(["evaluate", "--config", ingest_cfg, "--out", out_b]) == 0
    assert read_bytes(os.path.join(out_a, "report.csv")) == read_bytes(
        os.path.join(out_b, "report.csv")
    )


def test_runtime_domain_error_exits_2_and_cleans_outputs(tmp_path, capsys):
    # r = -0.99 passes static validation but makes 1 + r + pi cross zero
    cfg = write_config(tmp_path, SMALL + "strategy.kind = cumulative\nstrategy.r = -0.99\n")
    out = str(tmp_path / "bad")
    assert cli.main(["evaluate", "--config", cfg, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_os_error_exits_1_without_traceback(tmp_path, capsys):
    # --out names a regular file: the output directory cannot be made
    afile = tmp_path / "afile"
    afile.write_text("keep\n", encoding="utf-8")
    cfg = write_config(tmp_path, SMALL)
    assert cli.main(["simulate", "--config", cfg, "--out", str(afile)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert afile.read_text(encoding="utf-8") == "keep\n"
    assert sorted(os.listdir(tmp_path)) == ["afile", "run.cfg"]


def test_writer_failing_part_way_leaves_no_partial_file(tmp_path, monkeypatch):
    def failing_export(scenarios, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("path,t")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "export_csv", failing_export)
    cfg = cli.parse_config(write_config(tmp_path, SMALL))
    out = str(tmp_path / "out")
    with pytest.raises(OSError, match="disk full"):
        cli.run(cfg, "simulate", out)
    assert os.listdir(out) == []


@pytest.mark.parametrize("kind", ["glide", "bogle"])
def test_glide_paths_follow_career_file_ages(tmp_path, kind):
    # a career that starts at 30: the glide path must cover ages 30..42
    rows = "".join(f"{age},0.02,0.08\n" for age in range(30, 43))
    career = tmp_path / "career.csv"
    career.write_text("age,career_rate,contribution_rate\n" + rows, encoding="utf-8")
    cfg = write_config(
        tmp_path,
        "n_paths = 60\nhorizon = 12\nannuity.T = 12\nseed = 5\n"
        f"career.file = {career}\nstrategy.kind = {kind}\n",
    )
    assert cli.main(["evaluate", "--config", cfg, "--out", str(tmp_path / kind)]) == 0
    parsed = cli.parse_config(cfg)
    ages = cli._build_inputs(parsed, 5, 1).schedule.ages
    strategy, _ = cli._strategy(parsed, kind, 0.3, None, kind, 1, ages)
    assert strategy.mix.ages == tuple(range(30, 43))


def test_zero_threads_counts_usable_cores(tmp_path, monkeypatch):
    seen = []

    def combination(*args, threads, **kwargs):
        seen.append(threads)
        raise ConfigError("stop")

    monkeypatch.setattr(cli, "CombinationStrategy", combination)
    cfg = cli.parse_config(write_config(tmp_path, SMALL + "strategy.kind = combination\n"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    with pytest.raises(ConfigError):
        cli.run(cfg, "evaluate", str(tmp_path / "a"), threads=0)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    with pytest.raises(ConfigError):
        cli.run(cfg, "evaluate", str(tmp_path / "b"), threads=0)
    assert seen == [3, 64]


# ---------------------------------------------------------------------------
# solve-dp


def test_solve_dp_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "n_paths = 60\nhorizon = 8\nannuity.T = 8\nseed = 5\ndp.iterations = 2\n",
    )
    out = str(tmp_path / "dp")
    assert cli.main(["solve-dp", "--config", cfg, "--out", out]) == 0
    assert sorted(os.listdir(out)) == ["dp_trace.csv", "policy.csv"]
    policy = read_bytes(os.path.join(out, "policy.csv")).decode().splitlines()
    assert policy[0] == "t,z,alpha"
    assert len(policy) > 1
    trace = read_bytes(os.path.join(out, "dp_trace.csv")).decode().splitlines()
    assert trace[0] == "iteration,mean_utility"
    assert len(trace) == 1 + 2  # header + one row per iteration
    assert trace[1].startswith("1,") and trace[2].startswith("2,")


# ---------------------------------------------------------------------------
# frontier


def test_frontier_row_counts_match_grids(tmp_path):
    cfg = write_config(
        tmp_path,
        SMALL
        + "frontier.families = static,cumulative\n"
        + "frontier.mix_step = 0.25\n"
        + "frontier.r_min = 0.0\nfrontier.r_max = 0.02\nfrontier.r_step = 0.01\n",
    )
    out = str(tmp_path / "fr")
    assert cli.main(["frontier", "--config", cfg, "--out", out]) == 0
    lines = read_bytes(os.path.join(out, "frontier.csv")).decode().splitlines()
    assert lines[0] == "family,param,shortfall,cvar10"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 5 + 3  # static 0,.25,.5,.75,1 and r 0,.01,.02
    assert sum(1 for r in rows if r[0] == "static") == 5
    assert sum(1 for r in rows if r[0] == "cumulative") == 3


def test_frontier_deterministic_across_threads(tmp_path):
    cfg = write_config(tmp_path, SMALL + "frontier.r_step = 0.01\n")
    outs = [str(tmp_path / f"fr{threads}") for threads in (1, 2)]
    for out, threads in zip(outs, ("1", "2")):
        assert cli.main(["frontier", "--config", cfg, "--out", out, "--threads", threads]) == 0
    base = read_bytes(os.path.join(outs[0], "frontier.csv"))
    assert len(base.splitlines()) == 1 + 11 + 6 + 6
    assert read_bytes(os.path.join(outs[1], "frontier.csv")) == base


def test_frontier_worker_failure_exits_like_a_serial_run(tmp_path, monkeypatch, capsys):
    # forked workers inherit the patch
    def failing(self, inputs):
        raise DomainError("injected failure")

    monkeypatch.setattr(IndividualTargetStrategy, "run", failing)
    cfg = write_config(tmp_path, SMALL + "frontier.r_step = 0.01\n")
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = ["frontier", "--config", cfg, "--out", str(out), "--threads", threads]
        assert cli.main(argv) == 2
        assert "injected failure" in capsys.readouterr().err
        assert os.listdir(out) == []
        assert multiprocessing.active_children() == []


def test_frontier_unknown_family_exits_1(tmp_path, capsys):
    cfg = write_config(tmp_path, SMALL + "frontier.families = static,mystery\n")
    out = str(tmp_path / "frx")
    assert cli.main(["frontier", "--config", cfg, "--out", out]) == 1
    assert "unknown frontier family" in capsys.readouterr().err
    assert os.listdir(out) == []


@pytest.mark.parametrize("families", ["", ","])
def test_frontier_empty_family_list_exits_1(tmp_path, capsys, families):
    cfg = write_config(tmp_path, SMALL + f"frontier.families = {families}\n")
    out = str(tmp_path / "fre")
    assert cli.main(["frontier", "--config", cfg, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: frontier.families must list at least one family\n"
    assert os.listdir(out) == []


def test_frontier_family_names_fail_before_any_scenario(tmp_path, monkeypatch):
    def unreachable(*args):
        raise AssertionError("scenarios simulated before the families were checked")

    monkeypatch.setattr(cli, "simulate", unreachable)
    cfg = cli.parse_config(write_config(tmp_path, SMALL + "frontier.families = static,mystery\n"))
    with pytest.raises(ConfigError, match="frontier.families: unknown frontier family 'mystery'"):
        cli.run(cfg, "frontier", str(tmp_path / "frx"))


# ---------------------------------------------------------------------------
# report


def test_report_one_row_per_strategy_token(tmp_path):
    cfg = write_config(
        tmp_path,
        SMALL + "report.strategies = static_0,static_100,glide_30,cumulative\n",
    )
    out = str(tmp_path / "rep")
    assert cli.main(["report", "--config", cfg, "--out", out]) == 0
    lines = read_bytes(os.path.join(out, "report.csv")).decode().splitlines()
    assert len(lines) == 5
    labels = [line.split(",")[0] for line in lines[1:]]
    assert labels == ["static_0", "static_100", "glide_30", "cumulative"]


@pytest.mark.parametrize("token", ["wizardry", "static_abc", "glide_x", "glide_150", "static_-5"])
def test_report_unknown_token_exits_1(tmp_path, capsys, token):
    cfg = write_config(tmp_path, SMALL + f"report.strategies = static_0,{token}\n")
    out = str(tmp_path / "repx")
    assert cli.main(["report", "--config", cfg, "--out", out]) == 1
    assert "unknown report strategy token" in capsys.readouterr().err
    assert os.listdir(out) == []


def test_report_deterministic_across_threads(tmp_path):
    cfg = write_config(
        tmp_path,
        "n_paths = 80\nhorizon = 8\nannuity.T = 8\nseed = 3\n"
        + "report.strategies = static_40,cumulative,individual\n",
    )
    outs = [str(tmp_path / f"r{i}") for i in range(3)]
    assert cli.main(["report", "--config", cfg, "--out", outs[0], "--threads", "1"]) == 0
    assert cli.main(["report", "--config", cfg, "--out", outs[1], "--threads", "1"]) == 0
    assert cli.main(["report", "--config", cfg, "--out", outs[2], "--threads", "4"]) == 0
    base = read_bytes(os.path.join(outs[0], "report.csv"))
    assert read_bytes(os.path.join(outs[1], "report.csv")) == base
    assert read_bytes(os.path.join(outs[2], "report.csv")) == base


# ---------------------------------------------------------------------------
# portable identity: the same outputs under another arithmetic kernel

# runs a report and saves the tranche decision panels of the two tranche
# rules, with the numpy dispatch targets this process runs without
_IDENTITY_CHILD = """
import json, sys
import numpy as np
from pensionsim import cli, dp, strategies
from numpy._core import _multiarray_umath as umath
cfg, out = sys.argv[1:]
panels = {}
for cls in (strategies.IndividualTargetStrategy, dp.CombinationStrategy):
    def run(self, inputs, _run=cls.run):
        outcome = _run(self, inputs)
        panels[outcome.label] = outcome.tranche_alpha
        return outcome
    cls.run = run
code = cli.main(["report", "--config", cfg, "--out", out, "--threads", "1"])
np.savez(out + "/panels.npz", **panels)
print(json.dumps([k for k in umath.__cpu_dispatch__ if not umath.__cpu_features__[k]]))
sys.exit(code)
"""


def test_outputs_agree_under_another_arithmetic_kernel(tmp_path):
    # the identity standard: under another OpenBLAS kernel and without
    # numpy's AVX-512 loops, every tranche decision is equal and every
    # report.csv number agrees to rtol 1e-12
    from numpy._core import _multiarray_umath as umath

    avx512 = [
        k
        for k in umath.__cpu_dispatch__
        if (k == "X86_V4" or k.startswith("AVX512")) and umath.__cpu_features__[k]
    ]
    cfg = write_config(tmp_path, "n_paths = 400\nhorizon = 16\nannuity.T = 16\n")
    env = dict(os.environ)
    env.pop("OPENBLAS_CORETYPE", None)
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    other = dict(env, OPENBLAS_CORETYPE="Haswell")
    if avx512:
        other["NPY_DISABLE_CPU_FEATURES"] = " ".join(avx512)
    outs = [str(tmp_path / "default"), str(tmp_path / "other")]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _IDENTITY_CHILD, cfg, out],
            env=e,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for e, out in zip((env, other), outs)
    ]
    streams = [proc.communicate() for proc in procs]
    for proc, (_, stderr) in zip(procs, streams):
        assert proc.returncode == 0, stderr
    # the child really ran without the AVX-512 targets
    assert set(avx512) <= set(json.loads(streams[1][0].splitlines()[-1]))

    panels = [np.load(os.path.join(out, "panels.npz")) for out in outs]
    for label in ("individual", "combination"):
        assert np.array_equal(panels[0][label], panels[1][label], equal_nan=True), label
    rows = [read_bytes(os.path.join(out, "report.csv")).decode().splitlines() for out in outs]
    assert [r.split(",")[0] for r in rows[0]] == [r.split(",")[0] for r in rows[1]]
    tables = [np.array([r.split(",")[1:] for r in lines[1:]], dtype=float) for lines in rows]
    np.testing.assert_allclose(tables[1], tables[0], rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# installed entry point


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path, SMALL)
    out = str(tmp_path / "mod")
    proc = subprocess.run(
        [sys.executable, "-m", "pensionsim", "simulate", "--config", cfg, "--out", out],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "scenarios.csv"))
