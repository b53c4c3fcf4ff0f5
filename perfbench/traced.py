"""The workload's command run in-process, with a span around each layer call.

Run by ``run.py`` as a child process, in a fresh interpreter.  ``WORKDIR`` is
the run's work directory: it holds ``<workload>.cfg`` and
``report-default.cfg``.

``traced.py setup CONFIG SEED THREADS``
    Import the package, read the config and build the prepared inputs the
    way ``pensionsim`` does before any strategy runs, then exit.  The parent
    times this process from start to exit: that is one ``setup_s`` sample.

``traced.py check WORKLOAD WORKDIR SEED THREADS``
    Run the workload's command through ``pensionsim.cli.main`` in this
    process, with the layer hooks on, and check every strategy outcome with
    the oracles as it is made.  Then check the output file, replay every
    tau = 0 policy solved, and write the failures to ``WORKDIR/check.json``.
    The output file goes to ``WORKDIR/check/``.

``traced.py trace WORKLOAD WORKDIR SEED THREADS T0``
    Run the command the same way, then the layer calls it does not make on
    its own (see README.md).  Spans are kept in memory and written, with the
    per-layer metrics, to ``WORKDIR/trace.json`` at the end.  ``T0`` is the
    parent's ``time.time()`` just before it started this process, so the
    command's wall time counts interpreter start-up as an untraced round does.
    The output file goes to ``WORKDIR/trace/``.

The hooks replace, for the duration of a run, the names ``pensionsim.cli``
and the modules below it look up: ``cli.run``, ``simulate``, ``ingest``,
``evaluate_strategy``, ``optimize_static_mix`` and ``frontier`` in
``pensionsim.cli``; ``InflationEstimator.fit``, ``market_value_series`` and
the career panels in ``pensionsim.engine``; ``solve_policy`` in
``pensionsim.dp``; and ``SimulationInputs.prepare``, ``TargetFrame.build``,
``ReplacementEstimators`` and each strategy's ``run`` on their classes.

Nothing in this file imports ``numpy`` or ``pensionsim`` at module level:
the first span, ``cli.import``, times that import.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from contextlib import ExitStack, contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, cli_args, panels, same_sets  # noqa: E402

MB = float(2**20)
# where a metric is taken from, first match wins: the workload's own command,
# the report-default command on the same seed's 2000 x 15 set, a lone call
PRIORITY = ("own", "report", "probe")


class Tracer:
    """Spans (name, start, end, parent, workload, run id) kept in memory.

    Each thread keeps its own stack of open spans; a span opened on a worker
    thread with an empty stack takes the main thread's innermost open span
    as its parent.  ``source`` tags which run a span belongs to (PRIORITY).
    The hooks also keep what the checks and probes need: the prepared inputs,
    every tau = 0 policy solved, and the first instance of each strategy run.
    """

    def __init__(self, workload: str, run_id: str, check: bool = False):
        self.workload = workload
        self.run_id = run_id
        self.check = check
        self.origin = time.perf_counter()
        self.spans: list = []
        self.source = "own"
        self.failures: list = []
        self.prepared: list = []  # (source, inputs)
        self.solved: list = []  # (source, inputs, frame, dp config, tau = 0 policy)
        self.first_run: dict = {}  # run span name -> (strategy, inputs)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
        rec = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "workload": self.workload,
            "run_id": self.run_id,
            "source": self.source,
            "thread": threading.current_thread().name,
        }
        rec.update(attrs)
        stack.append(rec["id"])
        cpu0 = time.process_time()
        rec["start"] = time.perf_counter() - self.origin
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter() - self.origin
            rec["cpu"] = time.process_time() - cpu0
            stack.pop()
            self.spans.append(rec)

    def by_source(self, items: list) -> list:
        """``items`` (tuples starting with a source) in PRIORITY order."""
        return sorted(items, key=lambda item: PRIORITY.index(item[0]))


@contextmanager
def hooks(tr: Tracer):
    """Span every layer call ``pensionsim.cli`` makes, for the ``with`` block."""
    import pensionsim.cli as cli
    import pensionsim.dp as dp
    import pensionsim.engine as engine
    from pensionsim import (
        CombinationStrategy, CumulativeTargetStrategy, IndividualTargetStrategy,
        InflationEstimator, ReplacementEstimators, SimulationInputs, StaticMixStrategy,
        TargetFrame,
    )

    def timed(name, fn):
        def call(*args, **kwargs):
            with tr.span(name):
                return fn(*args, **kwargs)
        return call

    prepare_original = SimulationInputs.prepare

    def prepare(*args, **kwargs):
        with tr.span("engine.prepare"):
            inputs = prepare_original(*args, **kwargs)
        tr.prepared.append((tr.source, inputs))
        return inputs

    solve_original = dp.solve_policy

    def solve_policy(inputs, frame, cfg, tau=0, **kwargs):
        with tr.span("dp.solve_policy", tau=tau):
            policy = solve_original(inputs, frame, cfg, tau=tau, **kwargs)
        if tau == 0:
            tr.solved.append((tr.source, inputs, frame, cfg, policy))
        return policy

    def strategy_run(cls, name_of):
        original = cls.run

        def run(self, inputs):
            name = name_of(self)
            with tr.span(name):
                outcome = original(self, inputs)
            tr.first_run.setdefault(name, (self, inputs))
            if tr.check:
                tr.failures.extend(rule_checks(name, self, outcome, inputs))
            return outcome
        return run

    patches = [
        (cli, "run", timed("cli.run", cli.run)),
        (cli, "simulate", timed("scenario.simulate", cli.simulate)),
        (cli, "ingest", timed("scenario.ingest", cli.ingest)),
        (cli, "evaluate_strategy", timed("metrics.evaluate", cli.evaluate_strategy)),
        (cli, "optimize_static_mix", timed("strategies.static_opt", cli.optimize_static_mix)),
        (cli, "frontier", timed("metrics.frontier", cli.frontier)),
        (SimulationInputs, "prepare", staticmethod(prepare)),
        (InflationEstimator, "fit", staticmethod(timed("lsmc.inflation_fit", InflationEstimator.fit))),
        (engine, "market_value_series", timed("market.value_series", engine.market_value_series)),
        (engine, "salary_path", timed("career.panels", engine.salary_path)),
        (engine, "franchise_path", timed("career.panels", engine.franchise_path)),
        (engine, "contribution_path", timed("career.panels", engine.contribution_path)),
        (TargetFrame, "build", staticmethod(timed("strategies.target_frame", TargetFrame.build))),
        (ReplacementEstimators, "__init__", timed("metrics.estimators", ReplacementEstimators.__init__)),
        (ReplacementEstimators, "expected_rr",
         timed("metrics.estimators", ReplacementEstimators.expected_rr)),
        (dp, "solve_policy", solve_policy),
        (StaticMixStrategy, "run", strategy_run(StaticMixStrategy, lambda s: "strategies.static")),
        (CumulativeTargetStrategy, "run",
         strategy_run(CumulativeTargetStrategy, lambda s: "strategies.cumulative")),
        (IndividualTargetStrategy, "run",
         strategy_run(IndividualTargetStrategy, lambda s: "strategies.individual")),
        (CombinationStrategy, "run", strategy_run(
            CombinationStrategy,
            lambda s: "dp.combination_shared" if s.mode == "shared" else "dp.combination")),
    ]
    with ExitStack() as restore:
        for owner, attr, replacement in patches:
            restore.callback(setattr, owner, attr, vars(owner)[attr])
            setattr(owner, attr, replacement)
        yield


def command(workload: str, workdir: str, seed: int, threads: int, out: str) -> None:
    """``pensionsim <subcommand> ...`` with the same arguments a timed round gets."""
    import pensionsim.cli

    config = os.path.join(workdir, workload + ".cfg")
    code = pensionsim.cli.main(cli_args(WORKLOADS[workload].subcommand, config, out, seed, threads))
    if code != 0:
        raise RuntimeError(f"pensionsim {WORKLOADS[workload].subcommand} exited with code {code}")


# ---------------------------------------------------------------------------
# checks that need in-memory outcomes
# ---------------------------------------------------------------------------


def rule_checks(name: str, strategy, outcome, inputs) -> list:
    import oracles

    p = panels(inputs)
    if name == "strategies.cumulative":
        sp = strategy.params
        _, _, target = oracles.target_panels(p["pi"], p["rates"], p["M"], p["c"], sp.r, sp.delta, sp.N)
        return oracles.check_cumulative(outcome.wealth, outcome.alpha, target)
    if name == "strategies.individual":
        return oracles.check_individual(outcome.tranche_alpha)
    if name.startswith("dp.combination"):
        return oracles.check_combination(outcome.terminal_wealth, outcome.tranche_alpha,
                                         p["x"], p["m"], p["c"])
    return []


def policy_checks(policy, params, inputs) -> tuple:
    """Replay the tau = 0 decisions with z_step; compare with constants."""
    import math

    import numpy as np
    import oracles
    from pensionsim import z_step

    p = panels(inputs)
    cfg = policy.cfg
    er, z0, _ = oracles.target_panels(p["pi"], p["rates"], p["M"], p["c"], params.r, params.delta, params.N)
    grid = np.asarray(cfg.grid, dtype=float)
    times = [int(t) for t in policy.times]
    replayed = np.empty_like(policy.z_path)
    replayed[0] = z0[:, times[0]]
    for i, t in enumerate(times):
        a = grid[policy.decisions[i]]
        replayed[i + 1] = z_step(replayed[i], a, p["x"][:, t + 1], p["m"][:, t + 1], er[:, t + 1])
    consts = oracles.constant_utilities(replayed[0], grid, p["x"], p["m"], er, times, cfg.z_min, cfg.z_max)
    bad = oracles.check_policy(replayed, policy.z_path, policy.decisions, grid, consts,
                               cfg.z_min, cfg.z_max)
    mean_u = math.fsum(oracles.utility(policy.z_path[-1], cfg.z_min, cfg.z_max)) / policy.z_path.shape[1]
    switches = oracles.policy_switches(policy.decision_table())
    return bad, switches, mean_u - float(np.max(consts))


# ---------------------------------------------------------------------------
# per-layer metrics from the spans
# ---------------------------------------------------------------------------


def _dur(s) -> float:
    return s["end"] - s["start"]


def _pick(spans, name):
    """Spans called ``name`` from the first source, in PRIORITY order, that has any."""
    for source in PRIORITY:
        found = [s for s in spans if s["name"] == name and s["source"] == source]
        if found:
            return found
    raise KeyError(f"no span {name!r} recorded")


def _less_children(spans, rec, names=None) -> float:
    """Duration of ``rec`` minus that of its children (only those in ``names``, if given)."""
    kids = [s for s in spans if s["parent"] == rec["id"] and (names is None or s["name"] in names)]
    return _dur(rec) - sum(_dur(s) for s in kids)


RUN_SPANS = {"strategies.static", "strategies.cumulative", "strategies.individual",
             "dp.combination", "dp.combination_shared"}


def layer_metrics(spans, extra: dict) -> dict:
    def total(name):
        return sum(_dur(s) for s in _pick(spans, name))

    m = {}
    for metric, name in (
        ("scenario.simulate_s", "scenario.simulate"),
        ("scenario.ingest_s", "scenario.ingest"),
        ("engine.prepare_s", "engine.prepare"),
        ("lsmc.inflation_fit_s", "lsmc.inflation_fit"),
        ("market.value_series_s", "market.value_series"),
        ("career.panels_s", "career.panels"),
        ("strategies.target_frame_s", "strategies.target_frame"),
        ("strategies.static_s", "strategies.static"),
        ("strategies.static_opt_s", "strategies.static_opt"),
        ("strategies.cumulative_s", "strategies.cumulative"),
        ("strategies.individual_s", "strategies.individual"),
        ("dp.combination_s", "dp.combination"),
        ("dp.solve_serial_sum_s", "dp.solve_serial"),
        ("metrics.frontier_s", "metrics.frontier"),
        ("metrics.estimators_s", "metrics.estimators"),
        ("cli.import_s", "cli.import"),
    ):
        m[metric] = (total(name), "s")
    m["dp.combination_cpu_s"] = (sum(s["cpu"] for s in _pick(spans, "dp.combination")), "s")
    tau0 = [s for s in _pick(spans, "dp.solve_serial") if s["tau"] == 0]
    m["dp.solve_tau0_s"] = (_dur(tau0[0]), "s")
    m["dp.pool_efficiency"] = (
        m["dp.solve_serial_sum_s"][0] / (extra["threads"] * m["dp.combination_s"][0]), "ratio")
    m["dp.shared_apply_s"] = (sum(_less_children(spans, s, {"dp.solve_policy"})
                                  for s in _pick(spans, "dp.combination_shared")), "s")
    m["dp.combination_peak_mb"] = (_pick(spans, "dp.combination_mem")[0]["peak_mb"], "MB")
    m["strategies.individual_peak_mb"] = (_pick(spans, "strategies.individual_mem")[0]["peak_mb"], "MB")
    m["dp.tau0_policy_switches"] = (extra["switches"], "count")
    m["dp.tau0_margin_over_constant"] = (extra["margin"], "utility")
    m["dp.tau0_trace_gain"] = (extra["gain"], "utility")
    # tranche solves sit on pool threads below the run span, not below evaluate
    m["metrics.evaluate_s"] = (sum(_less_children(spans, s, RUN_SPANS)
                                   for s in _pick(spans, "metrics.evaluate")), "s")
    run = [s for s in spans if s["name"] == "cli.run" and s["source"] == "own"][0]
    m["cli.overhead_s"] = (_less_children(spans, run), "s")
    return m


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def peak_mb(fn) -> float:
    import tracemalloc

    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def setup_main(config: str, seed: int, threads: int) -> int:
    from pensionsim.cli import _build_inputs, parse_config

    _build_inputs(parse_config(config), seed, threads)
    return 0


def check_main(workload: str, workdir: str, seed: int, threads: int) -> int:
    from workloads import check_outputs

    tr = Tracer(workload, f"{workload}-seed{seed}-pid{os.getpid()}", check=True)
    out = os.path.join(workdir, "check")
    with hooks(tr):
        command(workload, workdir, seed, threads, out)
    wl = WORKLOADS[workload]
    with open(os.path.join(out, wl.output), encoding="utf-8") as fh:
        text = fh.read()
    failures = tr.failures + check_outputs(wl, text, tr.prepared[0][1], workdir, seed, threads)
    for _, inputs, frame, _, policy in tr.solved:
        failures += policy_checks(policy, frame.params, inputs)[0]
    with open(os.path.join(workdir, "check.json"), "w", encoding="utf-8") as fh:
        json.dump({"failures": failures}, fh)
    return 0


def trace_main(workload: str, workdir: str, seed: int, threads: int, t0: float) -> int:
    tr = Tracer(workload, f"{workload}-seed{seed}-pid{os.getpid()}")
    with tr.span("cli.import"):
        import numpy as np  # noqa: F401
        import pensionsim.cli as cli
    from pensionsim import CombinationStrategy, export_csv, ingest, solve_policy

    probe_out = os.path.join(workdir, "probe")
    with hooks(tr):
        command(workload, workdir, seed, threads, os.path.join(workdir, "trace"))
        command_wall = time.time() - t0
        if workload != "report-default":
            tr.source = "report"
            rd_cfg = cli.parse_config(os.path.join(workdir, "report-default.cfg"))
            cli.run(rd_cfg, "report", probe_out, seed=seed, threads=threads)
        tr.source = "probe"
        if workload != "frontier-large":
            own_cfg = cli.parse_config(os.path.join(workdir, workload + ".cfg"))
            cli.run(own_cfg, "frontier", probe_out, seed=seed, threads=threads)
        # the first tau = 0 solve recorded, the own command's if it made one:
        # on every workload the 2000 x 15 set at r = 0.01; the dp probes reuse
        # its inputs, target frame and config
        _, dp_inputs, frame, dp_cfg, policy = tr.by_source(tr.solved)[0]
        if workload != "dp-shared":
            shared = CombinationStrategy(frame.params, cfg=dp_cfg, mode="shared", threads=threads)
            shared.run(dp_inputs)

    failures = []
    if workload != "dp-shared":
        path = os.path.join(workdir, "probe-scenarios.csv")
        export_csv(dp_inputs.scenarios, path)
        with tr.span("scenario.ingest"):
            back = ingest(path, wage_spread=dp_inputs.scenarios.wage_spread)
        os.unlink(path)
        if not same_sets(back, dp_inputs.scenarios):
            failures.append("export_csv -> ingest does not reproduce the scenario set")
    ind, ind_inputs = tr.first_run["strategies.individual"]
    with tr.span("strategies.individual_mem") as rec:
        rec["peak_mb"] = peak_mb(lambda: ind.run(ind_inputs))
    for tau in range(dp_inputs.T):
        with tr.span("dp.solve_serial", tau=tau):
            solve_policy(dp_inputs, frame, dp_cfg, tau=tau)
    per = CombinationStrategy(frame.params, cfg=dp_cfg, mode="per-contribution", threads=threads)
    with tr.span("dp.combination_mem") as rec:
        rec["peak_mb"] = peak_mb(lambda: per.run(dp_inputs))

    bad, switches, margin = policy_checks(policy, frame.params, dp_inputs)
    failures += bad
    # the last sweep's mean terminal utility minus the first's; it falls on
    # some seeds, so it is reported, not checked
    gain = policy.utility_trace[-1] - policy.utility_trace[0]
    metrics = layer_metrics(tr.spans, {"threads": threads, "switches": switches, "margin": margin,
                                       "gain": gain})
    with open(os.path.join(workdir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload,
            "run_id": tr.run_id,
            "command_wall_s": command_wall,
            "failures": failures,
            "metrics": {k: {"value": val, "unit": unit} for k, (val, unit) in metrics.items()},
            "spans": sorted(tr.spans, key=lambda s: s["start"]),
        }, fh)
    return 0


def main(argv) -> int:
    if argv[:1] == ["setup"] and len(argv) == 4:
        return setup_main(argv[1], int(argv[2]), int(argv[3]))
    if argv[:1] == ["check"] and len(argv) == 5:
        return check_main(argv[1], argv[2], int(argv[3]), int(argv[4]))
    if argv[:1] == ["trace"] and len(argv) == 6:
        return trace_main(argv[1], argv[2], int(argv[3]), int(argv[4]), float(argv[5]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
