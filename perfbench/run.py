"""Benchmark for the ``pensionsim`` command line.

One run:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs from the root of a source checkout (the package is imported from
``src/``).  With ``--trace 0`` it times the workload's ``pensionsim`` command
in child processes, round after round for ``S`` seconds, then runs the
command once more in-process (``traced.py check``) to check its outcomes and
output file with the oracles, and prints the end-to-end metrics.  With
``--trace 1`` it runs the command untraced, traced in-process
(``traced.py trace``, which then also times the layer calls the command does
not make on its own) and untraced again, then the check run, and prints the
per-layer metrics and the tracing overhead.  The last line of standard
output is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

Other modes:

    python3 perfbench/run.py --repeat 1,2,...,10 [--seconds S] [--trace 0|1]
        run every workload once per seed, alternating the workload order, and
        print each metric's median, quartiles and spread against its bound
    python3 perfbench/run.py --self-test
        show that every output oracle accepts correct data and rejects a
        perturbed copy
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)
sys.path.insert(1, SRC)

from workloads import REPORT_CFG, THREADS, WORKLOADS, cli_args, write_config  # noqa: E402

SETUP_SAMPLES = 11
CHILD_TIMEOUT_S = 150.0


def child(argv: list, log: str) -> dict:
    """Run one child process; wall time, CPU time and peak RSS of that process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def cli(subcommand: str, config: str, out: str, seed: int) -> list:
    return [sys.executable, "-m", "pensionsim"] + cli_args(subcommand, config, out, seed, THREADS)


def traced(*args) -> list:
    return [sys.executable, os.path.join(HERE, "traced.py")] + [str(a) for a in args]


def read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def tail(path: str) -> str:
    """Last line a child wrote to the run's stderr log."""
    lines = read(path).strip().splitlines() if os.path.exists(path) else []
    return lines[-1] if lines else ""


def run_once(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = os.path.join(OUT, f"{name}-seed{seed}-pid{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    log = os.path.join(work, "stderr.log")
    failures: list = []
    attempted = failed = 0
    metrics: dict = {}
    texts: list = []  # every output file of the run, each must equal the first

    def output(mode: str) -> str:
        return read(os.path.join(work, mode, wl.output))

    def check() -> None:
        """The in-process check run: oracles on the outcomes and the output file."""
        r = child(traced("check", name, work, seed, THREADS), log)
        if r["code"] != 0:
            raise RuntimeError(f"check run failed: {tail(log)}")
        print(f"check run (s): {r['wall']:.3f}", file=sys.stderr)
        failures.extend(json.loads(read(os.path.join(work, "check.json")))["failures"])
        texts.append(output("check"))

    try:
        rd_config = os.path.join(work, "report-default.cfg")
        write_config(rd_config, REPORT_CFG)
        config = os.path.join(work, name + ".cfg")
        csv = ""
        if wl.needs_csv:
            r = child(cli("simulate", rd_config, os.path.join(work, "scenarios"), seed), log)
            if r["code"] != 0:
                raise RuntimeError(f"writing the scenario CSV failed: {tail(log)}")
            csv = os.path.join(work, "scenarios", "scenarios.csv")
        write_config(config, wl.config, csv=csv)
        argv = cli(wl.subcommand, config, os.path.join(work, "round"), seed)

        if not trace:
            setup_argv = traced("setup", config, seed, THREADS)

            def setup_sample() -> None:
                r = child(setup_argv, log)
                if r["code"] != 0:
                    raise RuntimeError(f"set-up sample failed: {tail(log)}")
                setups.append(r["wall"])

            # set-up samples alternate with rounds, so both span the same
            # stretch of time and drift in machine speed hits them alike
            setups, rounds = [], []
            start = time.perf_counter()
            while not rounds or time.perf_counter() - start < seconds:
                if len(setups) < SETUP_SAMPLES:
                    setup_sample()
                r = child(argv, log)
                attempted += wl.ops_per_round
                if r["code"] != 0:
                    failed += wl.ops_per_round
                    if time.perf_counter() - start >= seconds:
                        break
                    continue
                rounds.append(r)
                texts.append(output("round"))
            while len(setups) < SETUP_SAMPLES:
                setup_sample()
            print("round walls (s): " + " ".join(f"{r['wall']:.3f}" for r in rounds)
                  + "; set-up samples (s): " + " ".join(f"{t:.3f}" for t in setups),
                  file=sys.stderr)
            if rounds:
                check()
                metrics = {
                    "wall_s": (statistics.median(r["wall"] for r in rounds), "s"),
                    "cpu_s": (statistics.median(r["cpu"] for r in rounds), "s"),
                    "setup_s": (statistics.median(setups), "s"),
                    "peak_rss_mb": (statistics.median(r["rss_mb"] for r in rounds), "MB"),
                }
        else:
            # untraced, traced, untraced: the overhead compares the traced
            # command with the mean of its neighbours, so slow drift in
            # machine speed cancels; then the check run
            walls = []
            for mode in ("round", "trace", "round"):
                t0 = time.time()
                r = child(argv if mode == "round" else traced("trace", name, work, seed, THREADS, repr(t0)),
                          log)
                attempted += wl.ops_per_round
                if r["code"] != 0:
                    failed += wl.ops_per_round
                    raise RuntimeError(f"{mode} run failed: {tail(log)}")
                if mode == "round":
                    walls.append(r["wall"])
                texts.append(output(mode))
            check()
            traced_run = json.loads(read(os.path.join(work, "trace.json")))
            failures += traced_run["failures"]
            metrics = {k: (m["value"], m["unit"]) for k, m in traced_run["metrics"].items()}
            untraced = statistics.mean(walls)
            overhead = traced_run["command_wall_s"] - untraced
            metrics["trace.overhead_s"] = (overhead, "s")
            traced_run.update(untraced_walls_s=walls, seed=seed, trace_overhead_s=overhead)
            os.makedirs(OUT, exist_ok=True)
            trace_file = os.path.join(OUT, f"trace-{name}-seed{seed}.json")
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(traced_run, fh, indent=1)
            print(f"spans and per-layer metrics: {os.path.relpath(trace_file, ROOT)}")
            print(f"untraced walls {walls[0]:.3f} s and {walls[1]:.3f} s, traced command "
                  f"{traced_run['command_wall_s']:.3f} s: tracing overhead {overhead:+.3f} s "
                  f"({overhead / untraced:+.1%})")
        if any(t != texts[0] for t in texts):
            failures.append("an output file (a round's, the traced run's or the check run's) "
                            "differs from the first round's")
    except RuntimeError as exc:
        failures.append(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, (value, unit) in sorted(metrics.items()):
        print(f"{key:<34} {value:>14.6f} {unit}")
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# repeat mode
# ---------------------------------------------------------------------------


def repeat(seeds: list, seconds: int, trace: int) -> int:
    """One run per seed and workload; exits 1 if a run fails or a spread is out of bound.

    The spread of ``setup_s`` is printed but not gated: set-up time is judged
    by the shift of its median between two sets of runs, not by its spread.
    A spread above a third of its bound is flagged as a warning.
    """
    names = list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in json.loads(read(os.path.join(ROOT, "BENCHMARK.json")))["end_to_end"]}
    runs = {n: [] for n in names}
    for i, seed in enumerate(seeds):
        for name in names if i % 2 == 0 else names[::-1]:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
            runs[name].append({"seed": seed, "result": result})
            print(f"[{time.strftime('%H:%M:%S')}] {name} seed {seed}: "
                  + (json.dumps(result) if result else f"FAILED {proc.stderr.strip()[-300:]}"),
                  file=sys.stderr, flush=True)
    ok = True
    print(f"{'workload':<15} {'metric':<30} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in names:
        done = [r["result"] for r in runs[name] if r["result"]]
        correct = all(r["correct"] for r in done)
        ok &= len(done) == len(runs[name]) and correct
        shares = sorted({r["failed"] / r["attempted"] for r in done})
        for key in sorted({k for r in done for k in r["metrics"]}):
            values = [r["metrics"][key]["value"] for r in done if key in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("nan")
            bound = bounds.get(key)
            flag = ""
            if bound is not None and key != "setup_s":
                if not spread <= bound:
                    flag, ok = " <- FAIL: spread above the bound", False
                elif not spread < bound / 3.0:
                    flag = " <- warning: spread above a third of the bound"
            print(f"{name:<15} {key:<30} {len(values):>3} {med:>12.5f} {q1:>12.5f} {q3:>12.5f} "
                  f"{spread:>8.4f} {bound if bound is not None else '-':>6}{flag}")
        print(f"{name:<15} runs {len(done)}/{len(runs[name])}, attempted "
              f"{sum(r['attempted'] for r in done)}, failed {sum(r['failed'] for r in done)}, "
              f"failed shares {shares}, all correct {correct}")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"repeat-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "trace": trace, "seeds": seeds, "runs": runs}, fh, indent=1)
    print(f"all runs: {os.path.relpath(path, ROOT)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", default="", metavar="SEEDS",
                    help="repeat mode: comma-separated seeds, one run per seed and workload")
    ap.add_argument("--self-test", action="store_true", help="run the oracle self-test")
    args = ap.parse_args(argv)

    if args.self_test:
        import oracles

        return oracles.main()
    if not os.path.isfile(os.path.join(SRC, "pensionsim", "__init__.py")):
        print(f"error: no pensionsim sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.repeat:
        return repeat([int(s) for s in args.repeat.split(",")], args.seconds, args.trace)
    if args.workload is None:
        ap.error("--workload is required")
    result = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
