"""Hash the output files of a fixed set of ``pensionsim`` commands, for one or
more source trees, to show whether a change keeps every output's bytes.

Usage::

    python tools/output_shas.py SRC [SRC ...]

Each ``SRC`` is a directory that holds the ``pensionsim`` package (a
checkout's ``src``).  For each tree, the commands below run in a fresh
temporary directory with ``PYTHONPATH=SRC`` and seed 42.  The script prints
one row per output: its name, the first 16 hex digits of its sha256 for each
tree, and ``same`` or ``DIFFERS`` across the trees.  It exits 1 if a command
fails or any output differs.  The full default report runs twice, so one
tree takes about 20 s on two x86-64 cores.  Standard library only.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

SEED = 42
SMALL = {"n_paths": 2000, "horizon": 15, "annuity.T": 15}
SHARED = {"annuity.T": 15, "strategy.kind": "combination", "dp.mode": "shared",
          "strategy.r": 0.01}
# the DP solver's LOESS at degree 2 and with one window of every path
LOESS = dict(SMALL, **{"strategy.kind": "combination", "strategy.r": 0.01})
LOESS_FILES = ("report.csv+policy.csv+dp_trace.csv",)

# (row label, subcommands, config keys, threads, files hashed); the
# subcommands run in turn into one directory, and names joined by "+" are
# hashed as one concatenation; a config value "{csv}" stands for the
# scenarios.csv that the "small simulate" command wrote
COMMANDS = (
    ("report, threads 1", "report", {}, 1, ("report.csv",)),
    ("report, threads 2", "report", {}, 2, ("report.csv",)),
    ("frontier, 8000 paths", "frontier", {"n_paths": 8000}, 2, ("frontier.csv",)),
    ("report, 2000 x 15", "report", SMALL, 2, ("report.csv",)),
    ("evaluate, 2000 x 15", "evaluate", SMALL, 2, ("report.csv",)),
    ("small simulate", "simulate", SMALL, 2, ()),
    ("evaluate, shared combination r 0.01, ingested 2000 x 15", "evaluate",
     dict(SHARED, **{"scenario.file": "{csv}"}), 2, ("report.csv",)),
    ("solve-dp", "solve-dp", {}, 2, ("policy.csv", "dp_trace.csv")),
    ("simulate", "simulate", {}, 2, ("scenarios.csv", "moments.csv")),
    ("evaluate + solve-dp, LOESS degree 2, 2000 x 15", "evaluate solve-dp",
     dict(LOESS, **{"dp.loess_degree": 2}), 2, LOESS_FILES),
    ("evaluate + solve-dp, LOESS d 1.0, 2000 x 15", "evaluate solve-dp",
     dict(LOESS, **{"dp.loess_d": 1.0}), 2, LOESS_FILES),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _pensionsim(src: str, args: list) -> bytes:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-m", "pensionsim", *args], env=env,
                          capture_output=True)
    if done.returncode != 0:
        raise RuntimeError(f"pensionsim {' '.join(args)} exited {done.returncode}:\n"
                           + done.stderr.decode(errors="replace"))
    return done.stdout


def write_config(path: str, keys: dict, csv: str) -> str:
    """Write one command's config keys to ``path``, "{csv}" filled in."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in keys.items():
            fh.write(f"{key} = {str(value).format(csv=csv)}\n")
    return path


def tree_shas(src: str) -> dict:
    """Output label -> sha256 prefix for every command run against ``src``."""
    shas = {}
    with tempfile.TemporaryDirectory(prefix="output-shas-") as work:
        csv = os.path.join(work, "small simulate", "scenarios.csv")
        for label, subs, keys, threads, files in COMMANDS:
            out = os.path.join(work, label)
            config = write_config(out + ".cfg", keys, csv)
            for sub in subs.split():
                _pensionsim(src, [sub, "--config", config, "--out", out, "--seed", str(SEED),
                                  "--threads", str(threads)])
            for name in files:
                data = b""
                for part in name.split("+"):
                    with open(os.path.join(out, part), "rb") as fh:
                        data += fh.read()
                shas[f"{name} ({label})"] = _sha(data)
        shas["report --print-defaults"] = _sha(_pensionsim(src, ["report", "--print-defaults"]))
    return shas


def main(argv: list) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 1
    columns = [tree_shas(src) for src in argv]
    for i, src in enumerate(argv, start=1):
        print(f"tree {i}: {src}")
    width = max(len(label) for label in columns[0])
    print(f"{'output':<{width}}  " + "  ".join(f"{f'tree {i}':<16}" for i in range(1, len(argv) + 1))
          + "  match")
    same_everywhere = True
    for label in columns[0]:
        row = [col[label] for col in columns]
        same = len(set(row)) == 1
        same_everywhere &= same
        print(f"{label:<{width}}  " + "  ".join(row) + ("  same" if same else "  DIFFERS"))
    return 0 if same_everywhere else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
