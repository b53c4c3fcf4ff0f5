"""The three workloads: their configs, commands and output checks.

Every workload runs one ``pensionsim`` subcommand with ``--threads 2`` and
the benchmark's ``--seed``.  Sizes are chosen so one run of the benchmark,
with several timed rounds, its set-up samples and its check run, stays
within about a minute on two cores (see README.md for how they relate to the
shipped defaults).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

THREADS = 2
# the report-default set; every workload's scenario set starts with it
DP_PATHS, DP_YEARS = 2000, 15
FRONTIER_PATHS = 8000
FRONTIER_ROWS = 11 + 21 + 21


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str
    config: dict
    output: str
    ops_per_round: int
    needs_csv: bool = False


REPORT_CFG = {"n_paths": DP_PATHS, "horizon": DP_YEARS, "annuity.T": DP_YEARS}

WORKLOADS = {
    w.name: w
    for w in (
        # the six-strategy report: per-contribution DP tranche solves on the
        # 2-thread pool are nearly all of it
        Workload("report-default", "report", REPORT_CFG, "report.csv", 6),
        # one serial tau = 0 solve read back for every tranche, on an ingested
        # CSV of the report-default set: solver speed without the pool
        Workload(
            "dp-shared", "evaluate",
            {"scenario.file": "{csv}", "annuity.T": DP_YEARS, "strategy.kind": "combination",
             "dp.mode": "shared", "strategy.r": 0.01},
            "report.csv", 1, needs_csv=True,
        ),
        # 53 rule strategies on a large set, no DP: strategy kernels,
        # scenario generation and input preparation
        Workload("frontier-large", "frontier", {"n_paths": FRONTIER_PATHS}, "frontier.csv",
                 FRONTIER_ROWS),
    )
}


def cli_args(subcommand: str, config: str, out: str, seed: int, threads: int) -> list:
    """Arguments of a ``pensionsim`` command, after the program name."""
    return [subcommand, "--config", config, "--out", out, "--seed", str(seed),
            "--threads", str(threads)]


def write_config(path: str, values: dict, csv: str = "") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in values.items():
            fh.write(f"{key} = {str(value).format(csv=csv)}\n")


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def parse_report(text: str) -> dict:
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = {k: float(c) for k, c in zip(header[1:], cells[1:])}
    return rows


def parse_frontier(text: str) -> list:
    rows = []
    for line in text.strip().split("\n")[1:]:
        family, param, short, cvar10 = line.split(",")
        rows.append((family, float(param), float(short), float(cvar10)))
    return rows


def panels(inputs) -> dict:
    """The prepared inputs as the plain arrays the oracles take."""
    T = inputs.T
    return dict(
        x=inputs.scenarios.x[:, : T + 1], m=inputs.market.m, c=inputs.contributions,
        M=inputs.market.M, M_T=inputs.market.M[:, T], salaries=inputs.salaries,
        pi=inputs.scenarios.pi[:, : T + 1], rates=inputs.inflation.rates,
    )


def same_sets(a, b) -> bool:
    import numpy as np

    return all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("x", "pi", "w", "curves")) \
        and a.n_paths == b.n_paths and a.horizon == b.horizon


def check_outputs(workload: Workload, text: str, inputs, workdir: str, seed: int, threads: int) -> list:
    """Failures found in the command's output file; empty when it is correct.

    ``inputs`` are the prepared inputs the command ran on.
    """
    import oracles
    from pensionsim.cli import _build_scenarios, parse_config

    v = parse_config(os.path.join(workdir, workload.name + ".cfg")).values
    target = v["strategy.target_rr"]
    bad = []
    if workload.name == "frontier-large":
        rows = parse_frontier(text)
        if len(rows) != FRONTIER_ROWS:
            return [f"frontier: {len(rows)} rows, expected {FRONTIER_ROWS}"]
        for family, param, short, cvar10 in rows:
            if not short >= 0.0:
                bad.append(f"frontier {family} {param!r}: negative shortfall")
        return bad + oracles.check_static_frontier(rows, panels(inputs), target)

    rows = parse_report(text)
    if len(rows) != workload.ops_per_round:
        return [f"{workload.name}: {len(rows)} report rows, expected {workload.ops_per_round}"]
    for name, row in rows.items():
        bad += oracles.check_row_order(row, name)
    if workload.name == "report-default":
        bad += oracles.check_static_report(rows, panels(inputs), target, v["report.static_grid_step"])
    else:
        rd_cfg = parse_config(os.path.join(workdir, "report-default.cfg"))
        if not same_sets(inputs.scenarios, _build_scenarios(rd_cfg, seed, threads)):
            bad.append("dp-shared: ingested scenario set differs from the simulated one")
    return bad
