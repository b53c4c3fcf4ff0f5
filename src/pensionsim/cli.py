"""Command-line runner: config parsing, subcommands and file outputs.

Subcommands: ``simulate`` (scenario CSV + moment report), ``evaluate`` (the
one-row ``report`` of the ``strategy.*`` keys), ``solve-dp`` (policy export +
utility trace), ``frontier`` (family/parameter sweep, its family names checked
before any scenario is built) and ``report`` (multi-strategy comparison).
Configuration is a flat ``key = value`` text file with ``#`` comments; every
key has a default (see ``--print-defaults``).  The ``model.*`` and ``dp.*``
keys (``dp.mode`` aside) are the fields of
:class:`~pensionsim.scenario.ModelParams` and
:class:`~pensionsim.dp.DpConfig`, derived from the dataclasses with their
defaults, so a field added there becomes a key here.  ``scenario.file``
rules out the generation keys but ``model.wage_spread``, which fills a
missing ``w`` column.  All runs are deterministic: the same config and seed
produce byte-identical files.
``--threads`` (config key ``threads``, 0 = every core this process may run
on) sets the worker processes for the per-contribution tranche solves of the
``combination`` strategy and for the rows of ``frontier``; it never changes
results.  The grid steps ``report.static_grid_step``, ``frontier.mix_step``
and ``frontier.r_step`` must divide their spans.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from .career import default_schedule, schedule_from_csv
from .dp import CombinationStrategy, DpConfig, export_policy_csv, solve_policy
from .engine import SimulationInputs
from .errors import ConfigError, DomainError, EngineError, EstimatorError
from .market import AnnuitySpec
from .metrics import _FRONTIER_FAMILIES, REPORT_COLUMNS, evaluate_strategy, frontier
from .scenario import ModelParams, export_csv, ingest, simulate, summarize
from .strategies import (
    CumulativeTargetStrategy,
    GlidePath,
    IndividualTargetStrategy,
    StaticMixStrategy,
    TargetFrame,
    TargetParams,
    optimize_static_mix,
)

__all__ = ["DEFAULTS", "RunConfig", "main", "parse_config", "run"]

SUBCOMMANDS = ("simulate", "evaluate", "solve-dp", "frontier", "report")


def _dataclass_keys(prefix: str, cls) -> dict:
    """``prefix.<field>`` entries for every field of a config dataclass.

    Scalar fields keep their default and its type; a tuple field (the DP
    allocation grid) is read as comma-separated text.
    """
    keys = {}
    for f in fields(cls):
        if isinstance(f.default, tuple):
            keys[f"{prefix}.{f.name}"] = (",".join(str(v) for v in f.default), str)
        else:
            keys[f"{prefix}.{f.name}"] = (f.default, type(f.default))
    return keys


# key -> (default, type); strings keep their raw text
DEFAULTS: dict = {
    "seed": (42, int),
    "threads": (0, int),
    "n_paths": (2000, int),
    "horizon": (41, int),
    "scenario.file": ("", str),
    **_dataclass_keys("model", ModelParams),
    "annuity.T": (41, int),
    "annuity.N": (20, int),
    "career.file": ("", str),
    "career.base_salary": (29403.0, float),
    "career.franchise": (13123.0, float),
    "inflation.floor": (0.5, float),
    "strategy.kind": ("cumulative", str),
    "strategy.mix": (0.4602, float),
    "strategy.glide_end": (0.30, float),
    "strategy.r": (0.02, float),
    "strategy.delta": (0.025, float),
    "strategy.target_rr": (0.70, float),
    **_dataclass_keys("dp", DpConfig),
    "dp.mode": ("per-contribution", str),
    "report.strategies": (
        "static_0,static_100,static_opt,cumulative,individual,combination",
        str,
    ),
    "report.static_grid_step": (0.01, float),
    "report.cumulative_r": (0.0306, float),
    "report.individual_r": (0.0299, float),
    "report.combination_r": (0.01, float),
    "frontier.families": ("static,cumulative,individual", str),
    "frontier.r_min": (0.0, float),
    "frontier.r_max": (0.05, float),
    "frontier.r_step": (0.0025, float),
    "frontier.mix_step": (0.1, float),
    "evaluation.estimation_lag": (5, int),
    "evaluation.estimation_r": (0.025, float),
}

_STRATEGY_KINDS = ("static", "glide", "bogle", "cumulative", "individual", "combination")


@dataclass
class RunConfig:
    """Validated configuration: defaults overlaid with explicit keys."""

    values: dict = field(default_factory=dict)
    explicit: set = field(default_factory=set)
    source: str = "<defaults>"

    def __getitem__(self, key: str):
        return self.values[key]


def default_config() -> RunConfig:
    return RunConfig(values={k: v for k, (v, _) in DEFAULTS.items()})


def format_defaults() -> str:
    lines = [f"{key} = {value}" for key, (value, _) in DEFAULTS.items()]
    return "\n".join(lines) + "\n"


def _coerce(key: str, text: str, kind, where: str):
    if kind is str:
        return text
    try:
        if kind is int:
            return int(text, 10)
        value = float(text)
    except ValueError:
        name = "integer" if kind is int else "number"
        raise ConfigError(f"{where}: {key} expects {name}, got {text!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"{where}: {key} expects a finite number, got {text!r}")
    return value


def parse_config(path: str | None) -> RunConfig:
    """Read a flat key = value file, validate, and fill defaults."""
    cfg = default_config()
    if path is None:
        _validate(cfg)
        return cfg
    cfg.source = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key = value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        cfg.values[key] = _coerce(key, text, DEFAULTS[key][1], where)
        cfg.explicit.add(key)
    _validate(cfg)
    return cfg


# integer key -> its least admissible value; ``run`` checks the seed and
# threads overrides against the same bounds
_LEAST = {"n_paths": 2, "horizon": 2, "seed": 0, "threads": 0, "annuity.T": 1, "annuity.N": 1}


def _check_least(key: str, value: int) -> None:
    if value < _LEAST[key]:
        raise ConfigError(f"{key} must be >= {_LEAST[key]}, got {value}")


def _validate(cfg: RunConfig) -> None:
    v = cfg.values
    for key in _LEAST:
        _check_least(key, v[key])
    if v["scenario.file"]:
        own = cfg.explicit - {"model.wage_spread"}  # ingest reads it for a missing w column
        generation = [k for k in own if k.startswith("model.") or k in ("n_paths", "horizon")]
        if generation:
            raise ConfigError(
                "exactly one scenario source: scenario.file conflicts with "
                + ", ".join(sorted(generation))
            )
        if not os.path.exists(v["scenario.file"]):
            raise ConfigError(f"scenario.file not found: {v['scenario.file']}")
    if v["career.file"] and not os.path.exists(v["career.file"]):
        raise ConfigError(f"career.file not found: {v['career.file']}")
    if v["strategy.kind"] not in _STRATEGY_KINDS:
        raise ConfigError(
            f"strategy.kind must be one of {', '.join(_STRATEGY_KINDS)}, got {v['strategy.kind']!r}"
        )
    if not 0.0 <= v["strategy.glide_end"] <= 1.0:
        raise ConfigError(f"strategy.glide_end must lie in [0, 1], got {v['strategy.glide_end']}")
    if v["dp.mode"] not in ("per-contribution", "shared"):
        raise ConfigError(f"dp.mode must be per-contribution or shared, got {v['dp.mode']!r}")
    if not 0.0 < v["report.static_grid_step"] <= 1.0:
        raise ConfigError("report.static_grid_step must lie in (0, 1]")
    if v["frontier.r_step"] <= 0.0 or v["frontier.mix_step"] <= 0.0:
        raise ConfigError("frontier step sizes must be positive")
    if v["frontier.r_max"] < v["frontier.r_min"]:
        raise ConfigError("frontier.r_max must be >= frontier.r_min")
    for key, span in (
        ("report.static_grid_step", 1.0),
        ("frontier.mix_step", 1.0),
        ("frontier.r_step", v["frontier.r_max"] - v["frontier.r_min"]),
    ):
        steps = span / v[key]
        # a step longer than a non-empty span would leave one grid point
        if abs(steps - round(steps)) > 1e-9 * max(steps, 1.0) or (span > 0 and round(steps) == 0):
            raise ConfigError(f"{key} = {v[key]!r} does not divide its span {span!r}")
    # NaN fails the comparison
    if not v["inflation.floor"] > 0.0:
        raise ConfigError(f"inflation.floor must be positive, got {v['inflation.floor']}")
    if not 0 <= v["evaluation.estimation_lag"] <= v["annuity.T"]:
        raise ConfigError("evaluation.estimation_lag must lie in 0..annuity.T")
    key = None
    try:
        _dp_config(cfg)
        _model_params(cfg)
        _target_params(cfg, 0.0)  # the parameters every required return shares
        # every required return a command can use, before any scenario is built
        for key in (
            "strategy.r", "report.cumulative_r", "report.individual_r", "report.combination_r",
            "evaluation.estimation_r", "frontier.r_min", "frontier.r_max",
        ):
            _target_params(cfg, v[key])
    except EngineError as exc:
        raise ConfigError(f"{key}: {exc}" if key else str(exc)) from None


def _model_params(cfg: RunConfig) -> ModelParams:
    v = cfg.values
    return ModelParams(**{f.name: v[f"model.{f.name}"] for f in fields(ModelParams)})


def _dp_config(cfg: RunConfig) -> DpConfig:
    v = cfg.values
    try:
        grid = tuple(float(tok) for tok in v["dp.grid"].split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"dp.grid expects comma-separated numbers, got {v['dp.grid']!r}") from None
    scalars = {f.name: v[f"dp.{f.name}"] for f in fields(DpConfig) if f.name != "grid"}
    return DpConfig(grid=grid, **scalars)


def _grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo, lo + step, ..., hi; ``_validate`` has checked that step divides hi - lo."""
    return np.linspace(lo, hi, int(round((hi - lo) / step)) + 1)


# ``threads`` is unused here and in _build_inputs: perfbench/ passes it positionally
def _build_scenarios(cfg: RunConfig, seed: int, threads: int):
    v = cfg.values
    if v["scenario.file"]:
        return ingest(v["scenario.file"], wage_spread=v["model.wage_spread"])
    return simulate(_model_params(cfg), v["n_paths"], v["horizon"], seed)


def _build_inputs(cfg: RunConfig, seed: int, threads: int) -> SimulationInputs:
    v = cfg.values
    scenarios = _build_scenarios(cfg, seed, threads)
    anchors = {"base_salary": v["career.base_salary"], "franchise": v["career.franchise"]}
    schedule = (
        schedule_from_csv(v["career.file"], **anchors)
        if v["career.file"]
        else default_schedule(**anchors)
    )
    annuity = AnnuitySpec(T=v["annuity.T"], N=v["annuity.N"])
    return SimulationInputs.prepare(
        scenarios, annuity=annuity, schedule=schedule, inflation_floor=v["inflation.floor"]
    )


def _target_params(cfg: RunConfig, r: float) -> TargetParams:
    v = cfg.values
    return TargetParams(
        r=r,
        delta=v["strategy.delta"],
        N=v["annuity.N"],
        target_rr=v["strategy.target_rr"],
    )


def _strategy(cfg: RunConfig, kind: str, value, r, label: str, threads: int, ages: tuple):
    """Strategy of one ``kind`` plus the target parameters its estimators use.

    ``value`` is the mix of ``static`` and the final equity fraction of
    ``glide``; ``r`` is the required real return of the target rules.  The
    rules without a target are evaluated at ``evaluation.estimation_r``.
    Glide paths run over ``ages``, the prepared career schedule's ages.
    """
    v = cfg.values
    if kind in ("static", "glide", "bogle"):
        if kind == "glide":
            value = GlidePath.linear_to(value, ages=ages)
        elif kind == "bogle":
            value = GlidePath.bogle(ages=ages)
        est_params = _target_params(cfg, v["evaluation.estimation_r"])
        return StaticMixStrategy(mix=value, label=label), est_params
    params = _target_params(cfg, r)
    if kind == "cumulative":
        return CumulativeTargetStrategy(params, label=label), params
    if kind == "individual":
        return IndividualTargetStrategy(params, label=label), params
    dp_cfg = _dp_config(cfg)
    return (
        CombinationStrategy(params, cfg=dp_cfg, mode=v["dp.mode"], label=label, threads=threads),
        params,
    )


def _report_spec(token: str, cfg: RunConfig) -> tuple:
    """``(kind, value, r, label)`` for one ``report.strategies`` token.

    ``static_opt`` gets its mix from the prepared inputs, so its value is
    None here.
    """
    if token == "static_opt":
        return "static", None, None, token
    if token in ("bogle", "cumulative", "individual", "combination"):
        return token, None, cfg.values.get(f"report.{token}_r"), token
    kind, _, pct = token.partition("_")
    if kind in ("static", "glide"):
        try:
            value = float(pct) / 100.0
        except ValueError:
            value = np.nan
        if 0.0 <= value <= 1.0:
            return kind, value, None, token
    raise ConfigError(
        f"unknown report strategy token {token!r} (static_/glide_ take a percentage in 0..100)"
    )


class _Outputs:
    """Tracks written files so failures leave no partial outputs behind."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.written: list = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        """Path of the output file ``name``, tracked before anything writes it,
        so ``cleanup`` also removes a file that a writer left part-way."""
        path = os.path.join(self.out_dir, name)
        self.written.append(path)
        return path

    def cleanup(self) -> None:
        for path in self.written:
            try:
                os.unlink(path)
            except OSError:
                pass


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run(cfg: RunConfig, subcommand: str, out_dir: str = ".", seed=None, threads=None) -> list:
    """Execute one subcommand; returns the list of files written."""
    if subcommand not in SUBCOMMANDS:
        raise ConfigError(f"unknown subcommand {subcommand!r}")
    v = cfg.values
    seed = v["seed"] if seed is None else int(seed)
    threads = v["threads"] if threads is None else int(threads)
    _check_least("seed", seed)
    _check_least("threads", threads)
    if threads <= 0:
        # the cores this process may run on, not every host CPU: each
        # tranche worker is a whole process
        try:
            threads = len(os.sched_getaffinity(0))
        except AttributeError:
            threads = os.cpu_count() or 1
    outputs = _Outputs(out_dir)
    try:
        if subcommand == "simulate":
            scenarios = _build_scenarios(cfg, seed, threads)
            export_csv(scenarios, outputs.path("scenarios.csv"))
            summarize(scenarios).write_csv(outputs.path("moments.csv"))
        elif subcommand == "solve-dp":
            inputs = _build_inputs(cfg, seed, threads)
            params = _target_params(cfg, v["strategy.r"])
            frame = TargetFrame.build(inputs, params)
            policy = solve_policy(inputs, frame, _dp_config(cfg), tau=0)
            _write_text(outputs.path("policy.csv"), export_policy_csv(policy))
            trace = "iteration,mean_utility\n" + "".join(
                f"{i + 1},{u!r}\n" for i, u in enumerate(policy.utility_trace)
            )
            _write_text(outputs.path("dp_trace.csv"), trace)
        elif subcommand == "frontier":
            names = [tok.strip() for tok in v["frontier.families"].split(",") if tok.strip()]
            if not names:
                raise ConfigError("frontier.families must list at least one family")
            for name in names:
                if name not in _FRONTIER_FAMILIES:
                    raise ConfigError(
                        f"frontier.families: unknown frontier family {name!r}; "
                        f"known: {', '.join(_FRONTIER_FAMILIES)}"
                    )
            inputs = _build_inputs(cfg, seed, threads)
            # mixes for static, required returns for the target families
            mixes = _grid(0.0, 1.0, v["frontier.mix_step"]).round(12)
            returns = _grid(v["frontier.r_min"], v["frontier.r_max"], v["frontier.r_step"]).round(12)
            families = {name: mixes if name == "static" else returns for name in names}
            rows = frontier(
                inputs,
                families,
                target_rr=v["strategy.target_rr"],
                delta=v["strategy.delta"],
                threads=threads,
            )
            text = "family,param,shortfall,cvar10\n" + "".join(r.csv_row() + "\n" for r in rows)
            _write_text(outputs.path("frontier.csv"), text)
        else:  # evaluate is the one-row report of the strategy.* keys
            if subcommand == "evaluate":
                kind = v["strategy.kind"]
                value = v["strategy.mix"] if kind == "static" else v["strategy.glide_end"]
                specs = [(kind, value, v["strategy.r"], kind)]
            else:
                tokens = [tok.strip() for tok in v["report.strategies"].split(",") if tok.strip()]
                if not tokens:
                    raise ConfigError("report.strategies must list at least one strategy")
                specs = [_report_spec(token, cfg) for token in tokens]
            inputs = _build_inputs(cfg, seed, threads)
            lines = [",".join(REPORT_COLUMNS)]
            for kind, value, r, label in specs:
                if label == "static_opt":
                    grid = _grid(0.0, 1.0, v["report.static_grid_step"])
                    value = optimize_static_mix(inputs, grid, target_rr=v["strategy.target_rr"])
                strategy, est_params = _strategy(
                    cfg, kind, value, r, label, threads, inputs.schedule.ages
                )
                report = evaluate_strategy(
                    inputs, strategy, est_params, estimation_lag=v["evaluation.estimation_lag"]
                )
                lines.append(report.csv_row())
            _write_text(outputs.path("report.csv"), "\n".join(lines) + "\n")
    except BaseException:
        outputs.cleanup()
        raise
    return outputs.written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pensionsim",
        description="Pension accumulation simulator: scenarios, strategies and reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", metavar="subcommand")
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--threads",
            type=int,
            default=None,
            help="worker processes for the combination tranche solves and the frontier "
            "rows (0 = all usable cores); results are identical for any count",
        )
        p.add_argument(
            "--print-defaults",
            action="store_true",
            help="print every config key with its default and exit",
        )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        print("error: missing subcommand", file=sys.stderr)
        return 1
    if args.print_defaults:
        sys.stdout.write(format_defaults())
        return 0
    try:
        cfg = parse_config(args.config)
        written = run(cfg, args.subcommand, args.out, seed=args.seed, threads=args.threads)
    except (DomainError, EstimatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
