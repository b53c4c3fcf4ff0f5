"""Independent oracles for the benchmark's output checks.

Nothing here imports ``pensionsim``.  Every function takes plain numpy
panels (the scenario, market and career data a prepared input set carries)
and recomputes a result from the paper's formulas, or checks an invariant a
strategy promises.  Each ``check_*`` returns a list of failure messages;
an empty list means the output passed.

``python3 perfbench/oracles.py`` runs the self-test: it builds a small
synthetic panel, confirms that every check accepts correct data and that it
rejects a deliberately perturbed copy, and exits non-zero otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

REL_TOL = 1e-9
REPLAY_TOL = 1e-12

# ---------------------------------------------------------------------------
# statistics by full sort
# ---------------------------------------------------------------------------


def tail_count(n: int, level: str) -> int:
    """ceil(level * n) with the level given as an exact decimal string."""
    return min(max(math.ceil(Fraction(level) * n), 1), n)


def rr_stats(rr: np.ndarray, target: float) -> dict:
    """Report-row statistics of one replacement-ratio sample."""
    s = np.sort(np.asarray(rr, dtype=float))
    n = s.size
    half = n // 2
    median = s[half] if n % 2 else (s[half - 1] + s[half]) / 2.0
    out = {
        "mean": math.fsum(s) / n,
        "median": float(median),
        "shortage": math.fsum(np.maximum(target - s, 0.0)) / n,
        "goal_reached": float(np.count_nonzero(s >= target)) / n,
    }
    for level, tag in (("0.05", "5"), ("0.10", "10")):
        k = tail_count(n, level)
        out["var" + tag] = float(s[k - 1])
        out["cvar" + tag] = math.fsum(s[:k]) / k
    return out


# ---------------------------------------------------------------------------
# accumulation and replacement ratio
# ---------------------------------------------------------------------------


def static_wealth(mix, x, m, c) -> np.ndarray:
    """Terminal wealth of annual rebalancing to ``mix`` equity.

    W_0 = c_0, W_t = W_{t-1} (mix (1 + x_t) + (1 - mix)(1 + m_t)) + c_t.
    """
    T = c.shape[1] - 1
    w = c[:, 0].copy()
    for t in range(1, T + 1):
        w = w * (mix * (1.0 + x[:, t]) + (1.0 - mix) * (1.0 + m[:, t])) + c[:, t]
    return w


def replacement_ratio(w_T, M_T, salaries, pi) -> np.ndarray:
    """(W_T / M_T) (T + 1) / sum_t s_t prod_{tau=t+1..T} (1 + pi_tau)."""
    T = salaries.shape[1] - 1
    index = np.ones_like(salaries)
    for t in range(T - 1, -1, -1):
        index[:, t] = index[:, t + 1] * (1.0 + pi[:, t + 1])
    return w_T / M_T * (T + 1) / (salaries * index).sum(axis=1)


def annuity_factor(delta: float, N: int) -> float:
    return math.fsum((1.0 + delta) ** -j for j in range(N))


def utility(z, z_min: float, z_max: float) -> np.ndarray:
    beta = math.sqrt(2.0 * z_max**2 - z_min**2)
    return (-((z - beta) ** 2) - (z - z_min) ** 2) / z


def target_panels(pi, rates, M, c, r: float, delta: float, N: int):
    """Target growth panels of one required return r.

    Returns (er, z0, target_cum): the one-year target growth er_t =
    (1 + r + pi_t)(1 + r + I_t)^(T-t) / (1 + r + I_{t-1})^(T-t+1), the initial
    ratio z0[:, tau] = M~ / (M_tau (1 + r + I_tau)^(T-tau)) of a tranche born
    at tau, and the aggregate target M_t acc_t (1 + r + I_t)^(T-t) / M~ with
    contributions accumulated at 1 + r + pi.
    """
    T = c.shape[1] - 1
    m_tilde = annuity_factor(delta, N)
    growth = (1.0 + r + rates[:, : T + 1]) ** np.arange(T, -1, -1)
    q = 1.0 + r + pi[:, : T + 1]
    er = np.full_like(q, np.nan)
    er[:, 1:] = q[:, 1:] * growth[:, 1:] / growth[:, :-1]
    acc = np.empty_like(c)
    acc[:, 0] = c[:, 0]
    for t in range(1, T + 1):
        acc[:, t] = acc[:, t - 1] * q[:, t] + c[:, t]
    return er, m_tilde / (M * growth), M * acc * growth / m_tilde


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-300)


def check_row(row: dict, expected: dict, what: str) -> list:
    """Every statistic of ``row`` within REL_TOL of the oracle's."""
    return [
        f"{what}: {key} = {row[key]!r}, oracle {expected[key]!r}"
        for key in expected
        if not _close(row[key], expected[key])
    ]


def check_row_order(row: dict, what: str) -> list:
    """cvar5 <= var5 <= var10 <= median, cvar5 <= cvar10 <= var10, shortage >= 0."""
    r = row
    bad = []
    if not r["cvar5"] <= r["var5"] <= r["var10"] <= r["median"]:
        bad.append(f"{what}: cvar5 <= var5 <= var10 <= median fails")
    if not r["cvar5"] <= r["cvar10"] <= r["var10"]:
        bad.append(f"{what}: cvar5 <= cvar10 <= var10 fails")
    if not r["shortage"] >= 0.0:
        bad.append(f"{what}: negative shortage {r['shortage']!r}")
    return bad


def check_static_report(rows: dict, panels: dict, target: float, grid_step: float) -> list:
    """Static rows against the oracle plus the ordering claims between them.

    ``rows`` maps a strategy name to its parsed report row; ``panels`` holds
    x, m, c, M_T, salaries and pi.
    """
    p = panels
    bad = []

    def stats(mix):
        w = static_wealth(mix, p["x"], p["m"], p["c"])
        return rr_stats(replacement_ratio(w, p["M_T"], p["salaries"], p["pi"]), target)

    expected = {name: stats(mix) for name, mix in (("static_0", 0.0), ("static_100", 1.0))}
    for name, exp in expected.items():
        bad += check_row({k: rows[name][k] for k in exp}, exp, name)
    k = int(round(1.0 / grid_step))
    best = min(stats(mix)["shortage"] for mix in np.linspace(0.0, 1.0, k + 1))
    opt = rows["static_opt"]["shortage"]
    if not _close(opt, best):
        bad.append(f"static_opt: shortage {opt!r}, oracle grid minimum {best!r}")
    if not (opt <= rows["static_0"]["shortage"] and opt <= rows["static_100"]["shortage"]):
        bad.append("static_opt: shortage above static_0 or static_100")
    if not rows["static_100"]["mean"] > rows["static_0"]["mean"]:
        bad.append("static_100: mean not above static_0")
    if not rows["static_100"]["cvar5"] < rows["static_0"]["cvar5"]:
        bad.append("static_100: cvar5 not below static_0")
    return bad


def check_static_frontier(rows: list, panels: dict, target: float) -> list:
    """Static frontier rows (family, param, shortfall, cvar10) against the oracle."""
    p = panels
    bad = []
    for family, mix, short, cvar10 in rows:
        if family != "static":
            continue
        w = static_wealth(mix, p["x"], p["m"], p["c"])
        exp = rr_stats(replacement_ratio(w, p["M_T"], p["salaries"], p["pi"]), target)
        bad += check_row(
            {"shortage": short, "cvar10": cvar10},
            {"shortage": exp["shortage"], "cvar10": exp["cvar10"]},
            f"frontier static {mix!r}",
        )
    return bad


def check_cumulative(wealth, alpha, target_cum) -> list:
    """No equity while aggregate wealth covers the aggregate target."""
    covered = wealth >= target_cum
    hits = int(np.count_nonzero(alpha[covered] != 0.0))
    if hits:
        return [f"cumulative: {hits} covered (path, year) cells hold equity"]
    if not np.all((alpha >= 0.0) & (alpha <= 1.0)):
        return ["cumulative: allocation outside [0, 1]"]
    return []


def check_individual(tranche_alpha) -> list:
    """Per tranche: all-equity until one exit into matching, never back."""
    n, T1, _ = tranche_alpha.shape
    bad = []
    for tau in range(T1):
        a = tranche_alpha[:, tau:, tau]
        if np.any(~np.isnan(tranche_alpha[:, :tau, tau])):
            bad.append(f"individual: tranche {tau} has an allocation before birth")
        if np.any((a != 0.0) & (a != 1.0)):
            bad.append(f"individual: tranche {tau} holds a mix other than 0 or 1")
        elif np.any(np.diff(a, axis=1) > 0.0):
            bad.append(f"individual: tranche {tau} re-enters equity after its exit")
    return bad


def check_combination(wealth_T, tranche_alpha, x, m, c) -> list:
    """Terminal wealth equals the sum of tranches, each grown by its own mix."""
    T = c.shape[1] - 1
    total = np.zeros(c.shape[0])
    for tau in range(T + 1):
        w = c[:, tau].copy()
        for t in range(tau, T):
            a = tranche_alpha[:, t, tau]
            w = w * (a * (1.0 + x[:, t + 1]) + (1.0 - a) * (1.0 + m[:, t + 1]))
        total += w
    err = np.abs(total - wealth_T) / np.abs(total)
    if not np.all(err <= REL_TOL):
        return [f"combination: terminal wealth off the tranche sum by {err.max():.3e} (rel)"]
    return []


def constant_utilities(z0, grid, x, m, er, times, z_min, z_max) -> np.ndarray:
    """Mean terminal utility of holding each grid allocation at every step."""
    out = []
    for a in grid:
        z = z0.copy()
        for t in times:
            z = z * (a * (1.0 + x[:, t + 1]) + (1.0 - a) * (1.0 + m[:, t + 1]))
            z = z / (er[:, t + 1] * (1.0 + m[:, t + 1]))
        out.append(math.fsum(utility(z, z_min, z_max)) / z.size)
    return np.asarray(out)


def check_policy(replayed, z_path, decisions, grid, const_means, z_min, z_max) -> list:
    """A solved policy replays its own ratios and beats every constant allocation.

    ``replayed`` is the ratio path rebuilt from ``decisions`` one step at a
    time, ``z_path`` the solver's in-sample path.
    """
    bad = []
    rel = np.abs(replayed - z_path) / np.abs(z_path)
    if not np.all(rel <= REPLAY_TOL):
        bad.append(f"dp: decision replay misses the solver's ratios by {rel.max():.3e} (rel)")
    if np.any((decisions < 0) | (decisions >= len(grid))):
        bad.append("dp: decision outside the allocation grid")
    mean_u = math.fsum(utility(z_path[-1], z_min, z_max)) / z_path.shape[1]
    if not np.all(mean_u > const_means):
        bad.append(
            f"dp: mean utility {mean_u!r} does not beat the best constant "
            f"{float(np.max(const_means))!r}"
        )
    return bad


def policy_switches(table) -> int:
    """Allocation changes between neighbouring z nodes, summed over times."""
    switches = 0
    prev_t, prev_a = None, None
    for t, _, a in table:
        if t == prev_t and a != prev_a:
            switches += 1
        prev_t, prev_a = t, a
    return switches


# ---------------------------------------------------------------------------
# self-test
# ---------------------------------------------------------------------------


def _synthetic(n: int = 400, T: int = 8, seed: int = 7) -> dict:
    rng = np.random.default_rng(seed)
    x = 0.06 + 0.18 * rng.standard_normal((n, T + 1))
    pi = 0.016 + 0.01 * rng.standard_normal((n, T + 1))
    m = np.full((n, T + 1), np.nan)
    m[:, 1:] = 0.02 + 0.05 * rng.standard_normal((n, T))
    salaries = 30000.0 * np.cumprod(1.0 + 0.02 + pi, axis=1)
    c = 0.1 * salaries
    M = 15.0 + rng.standard_normal((n, T + 1))
    rates = 0.016 + 0.005 * rng.standard_normal((n, T + 1))
    return dict(x=x, pi=pi, m=m, c=c, salaries=salaries, M=M, M_T=M[:, T], rates=rates)


def _row(p, mix, target):
    w = static_wealth(mix, p["x"], p["m"], p["c"])
    return rr_stats(replacement_ratio(w, p["M_T"], p["salaries"], p["pi"]), target)


def self_test() -> list:
    """(name, accepts correct output, rejects perturbed output) per oracle."""
    p = _synthetic()
    n, T = p["c"].shape[0], p["c"].shape[1] - 1
    target = 0.6 * float(np.median(replacement_ratio(
        static_wealth(1.0, p["x"], p["m"], p["c"]), p["M_T"], p["salaries"], p["pi"])))
    results = []

    def case(name, good, bad):
        results.append((name, not good, bool(bad)))

    # static report rows
    grid = np.linspace(0.0, 1.0, 11)
    best = min(grid, key=lambda a: (_row(p, a, target)["shortage"], a))
    rows = {"static_0": _row(p, 0.0, target), "static_100": _row(p, 1.0, target),
            "static_opt": _row(p, best, target)}
    perturbed = {k: dict(v) for k, v in rows.items()}
    perturbed["static_100"]["cvar10"] *= 1.0 + 1e-7
    case("static report rows", check_static_report(rows, p, target, 0.1),
         check_static_report(perturbed, p, target, 0.1))

    # row ordering
    good = rows["static_0"]
    worse = dict(good, var5=good["median"] * 1.01)
    case("row ordering", check_row_order(good, "row"), check_row_order(worse, "row"))

    # static frontier
    front = [("static", a, _row(p, a, target)["shortage"], _row(p, a, target)["cvar10"])
             for a in grid]
    moved = list(front)
    moved[3] = (moved[3][0], moved[3][1], moved[3][2], moved[3][3] * (1.0 - 1e-7))
    case("static frontier", check_static_frontier(front, p, target),
         check_static_frontier(moved, p, target))

    # cumulative rule: equity only below the target
    er, z0, target_cum = target_panels(p["pi"], p["rates"], p["M"], p["c"], 0.02, 0.025, 20)
    wealth = np.cumsum(p["c"], axis=1) * 1.3
    alpha = np.where(wealth >= target_cum, 0.0, 0.7)
    leak = alpha.copy()
    covered = np.argwhere(wealth >= target_cum)
    if covered.size == 0:
        raise AssertionError("synthetic panel never covers its target")
    leak[tuple(covered[0])] = 0.5
    case("cumulative invariant", check_cumulative(wealth, alpha, target_cum),
         check_cumulative(wealth, leak, target_cum))

    # individual rule: one exit per tranche
    ta = np.full((n, T + 1, T + 1), np.nan)
    exit_at = np.random.default_rng(1).integers(0, T + 2, size=(n, T + 1))
    for tau in range(T + 1):
        for t in range(tau, T + 1):
            ta[:, t, tau] = np.where(t >= exit_at[:, tau], 0.0, 1.0)
    back = ta.copy()
    back[0, T, 0], back[0, T - 1, 0] = 1.0, 0.0
    case("individual invariant", check_individual(ta), check_individual(back))

    # combination: terminal wealth is the tranche sum
    mix = np.where(np.isnan(ta), np.nan, 0.4 * ta + 0.1)
    wT = np.zeros(n)
    for tau in range(T + 1):
        w = p["c"][:, tau].copy()
        for t in range(tau, T):
            a = mix[:, t, tau]
            w = w * (a * (1.0 + p["x"][:, t + 1]) + (1.0 - a) * (1.0 + p["m"][:, t + 1]))
        wT += w
    off = wT.copy()
    off[5] *= 1.0 + 1e-8
    case("combination tranche sum", check_combination(wT, mix, p["x"], p["m"], p["c"]),
         check_combination(off, mix, p["x"], p["m"], p["c"]))

    # dp: replay and constant comparison
    gridk = np.array([0.0, 0.5, 1.0])
    times = list(range(T))
    z = np.empty((T + 1, n))
    z[0] = z0[:, 0]
    dec = np.empty((T, n), dtype=np.int64)
    for i, t in enumerate(times):
        # a crude feedback rule: equity while under 1.5, matching above
        dec[i] = np.where(z[i] < 1.5, 2, 0)
        a = gridk[dec[i]]
        z[i + 1] = z[i] * (a * (1.0 + p["x"][:, t + 1]) + (1.0 - a) * (1.0 + p["m"][:, t + 1]))
        z[i + 1] /= er[:, t + 1] * (1.0 + p["m"][:, t + 1])
    zmin, zmax = 0.5 * float(np.median(z[-1])), 1.5 * float(np.median(z[-1]))
    consts = constant_utilities(z[0], gridk, p["x"], p["m"], er, times, zmin, zmax)
    beat = consts - 1.0  # a policy that beats every constant by one utility unit
    lose = consts.copy()
    lose[1] = math.fsum(utility(z[-1], zmin, zmax)) / n + 1.0
    drift = z.copy()
    drift[3, 17] *= 1.0 + 1e-9
    good = check_policy(z, z, dec, gridk, beat, zmin, zmax)
    case("dp replay", good, check_policy(drift, z, dec, gridk, beat, zmin, zmax))
    case("dp beats constants", good, check_policy(z, z, dec, gridk, lose, zmin, zmax))
    return results


def main() -> int:
    ok = True
    for name, accepts, rejects in self_test():
        verdict = "ok" if accepts and rejects else "FAILED"
        ok &= accepts and rejects
        print(f"{name:<26} accepts correct: {accepts!s:<5} rejects perturbed: {rejects!s:<5} {verdict}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
