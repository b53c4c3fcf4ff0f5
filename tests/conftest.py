"""Shared fixtures: scenario sets and prepared inputs reused across tests."""

import numpy as np
import pytest

from pensionsim import ModelParams, SimulationInputs, TargetParams, ingest, simulate, z_step
from pensionsim.errors import DomainError, ParameterError
from pensionsim.lsmc import _window_size
from pensionsim.market import AnnuitySpec


def flat_params(mean_x=0.04, mean_pi=0.0, mean_level=0.0, wage_spread=0.0):
    """Zero-volatility parameters: every path is the deterministic mean path."""
    return ModelParams(
        mean_x=mean_x,
        mean_pi=mean_pi,
        mean_level=mean_level,
        mean_slope=0.0,
        std_x=0.0,
        std_pi=0.0,
        std_level=0.0,
        std_slope=0.0,
        wage_spread=wage_spread,
    )


# Reference career contributions in year-0 currency (ages 25..66), earned
# with zero wage growth (ZERO_W).
REFERENCE_CONTRIBUTION = np.array([
    1270, 1339, 1409, 1482, 1558, 1887, 1979, 2073, 2171, 2272,
    2731, 2813, 2897, 2982, 3070, 3670, 3775, 3883, 3993, 4104,
    4844, 4911, 4978, 5047, 5116, 6026, 6108, 6190, 6274, 6358,
    7476, 7476, 7476, 7476, 7476, 8863, 8863, 8863, 8863, 8863,
    10019, 10019,
], dtype=float)

ZERO_W = np.zeros(42)


def target_params(r=0.02):
    """Target parameters at required real return ``r``, 20 payout years."""
    return TargetParams(r=r, delta=0.025, N=20)


def toy_inputs(tmp_path):
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


def dense_accumulate(inputs, decide):
    """Reference one-pot kernel, path-major.

    ``decide(t, wealth_t, alpha_prev)`` returns alpha_t (``alpha_prev`` is
    None at t = 0).  Returns ``(wealth, alpha)`` of shape (n_paths, T + 1),
    with every product in the order the package's kernel uses.
    """
    T, n = inputs.T, inputs.n_paths
    x, m, c = inputs.scenarios.x, inputs.market.m, inputs.contributions
    wealth = np.empty((n, T + 1))
    alpha = np.empty((n, T + 1))
    wealth[:, 0] = c[:, 0]
    alpha[:, 0] = decide(0, wealth[:, 0], None)
    for t in range(1, T + 1):
        a = alpha[:, t - 1]
        growth = a * (1.0 + x[:, t]) + (1.0 - a) * (1.0 + m[:, t])
        wealth[:, t] = wealth[:, t - 1] * growth + c[:, t]
        alpha[:, t] = decide(t, wealth[:, t], alpha[:, t - 1])
    return wealth, alpha


def dense_tranche_run(inputs, decide):
    """Reference tranche kernel on a dense NaN-filled float panel.

    ``decide(t, live)`` returns the allocations (not indices) of the
    tranches born up to t.  Returns ``(wealth, alpha, tranche_alpha)`` with
    every product and sum in the order the package's kernel uses.
    """
    T, n = inputs.T, inputs.n_paths
    x, m, c = inputs.scenarios.x, inputs.market.m, inputs.contributions
    panel = np.full((n, T + 1, T + 1), np.nan)
    tranche_wealth = np.zeros((n, T + 1))
    wealth = np.empty((n, T + 1))
    alpha = np.empty((n, T + 1))
    for t in range(T + 1):
        if t > 0:
            a = panel[:, t - 1, :t]
            tranche_wealth[:, :t] = tranche_wealth[:, :t] * (
                a * (1.0 + x[:, t, None]) + (1.0 - a) * (1.0 + m[:, t, None])
            )
        tranche_wealth[:, t] = c[:, t]
        live = tranche_wealth[:, : t + 1]
        panel[:, t, : t + 1] = decide(t, live)
        held = live * panel[:, t, : t + 1]
        # each path's tranches add from 0.0 in birth order, tau = 0 first
        wealth[:, t], weighted = 0.0, np.zeros(n)
        for tau in range(t + 1):
            wealth[:, t] += live[:, tau]
            weighted += held[:, tau]
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha[:, t] = np.where(wealth[:, t] > 0, weighted / wealth[:, t], 0.0)
    return wealth, alpha, panel


def reference_estimators(inputs, params, wealth_t, t, M_hat):
    """Closed-form mid-career estimators ``(R_t, R*(t))`` at year t.

    Written apart from the package's compounding: the indexed wage sum takes
    ratios of realized cumulative inflation, compounded here from
    ``scenarios.pi`` (year 0 not compounded; flat I_t after t), salaries and
    franchises grow from year t by ``wage_growth ** k``, and every projected
    contribution of year k is grown by ``(1 + r + I_t) ** (T - k)``.
    ``M_hat`` is E[M_T | year t].
    """
    T = inputs.T
    I_t = inputs.inflation.rates[:, t]
    horizon = np.arange(T - t + 1)  # offsets 0..T-t for years t..T
    wage_proj = (1.0 + I_t + inputs.scenarios.wage_spread)[:, None] ** horizon
    career = np.asarray(inputs.schedule.career_rate)
    career_proj = np.cumprod(np.concatenate(([1.0], 1.0 + career[t + 1 :])))
    s_hat = inputs.salaries[:, t][:, None] * career_proj * wage_proj
    f_hat = inputs.franchises[:, t][:, None] * wage_proj
    rates = np.asarray(inputs.schedule.contribution_rate)[t:]
    c_hat = rates * np.maximum(s_hat - f_hat, 0.0)
    growth = 1.0 + inputs.scenarios.pi[:, : T + 1]
    growth[:, 0] = 1.0
    cum = np.cumprod(growth, axis=1)
    cum_hat = np.hstack((cum[:, :t], cum[:, t][:, None] * (1.0 + I_t)[:, None] ** horizon))
    salaries = np.hstack((inputs.salaries[:, :t], s_hat))
    den = (salaries * (cum_hat[:, -1:] / cum_hat)).sum(axis=1)
    grow = (1.0 + params.r + I_t)[:, None] ** (T - t - horizon)
    # year T's contribution is outside the wealth forecast, inside the target
    w_T = wealth_t * grow[:, 0] + (c_hat[:, 1:-1] * grow[:, 1:-1]).sum(axis=1)
    c, pi = inputs.contributions, inputs.scenarios.pi
    acc_t = sum(
        c[:, k] * np.prod(1.0 + params.r + pi[:, k + 1 : t + 1], axis=1) for k in range(t + 1)
    )
    pension = acc_t * grow[:, 0] + (c_hat[:, 1:] * grow[:, 1:]).sum(axis=1)
    return w_T / M_hat * (T + 1) / den, pension / params.m_tilde * (T + 1) / den


def target_wealth_factor(pi, tau, t, T, params, expected_rate):
    """Scalar oracle for the compounding factor E_t F_tau of one contribution
    toward the target at horizon T, which ``TargetFrame`` computes for all
    paths at once.

    Realized inflation ``pi`` (a single path) is used between tau and t,
    the current expected rate beyond t.
    """
    if not 0 <= tau <= t <= T:
        raise ParameterError(f"need 0 <= tau <= t <= T, got tau={tau}, t={t}, T={T}")
    pi = np.asarray(pi, dtype=float)
    realized = 1.0 + params.r + pi[tau + 1 : t + 1]
    future = 1.0 + params.r + expected_rate
    if np.any(realized <= 0.0) or future <= 0.0:
        raise DomainError("target growth factor 1 + r + inflation must stay positive")
    return float(np.prod(realized) * future ** (T - t))


def cumulative_target(pi, contributions, t, T, params, M_t, m_tilde, expected_rate):
    """Scalar oracle for the aggregate wealth target
    (M_t / M~_T) * sum_tau c_tau * E_t F_tau of ``TargetFrame.target_cum``.
    """
    if m_tilde <= 0.0:
        raise DomainError(f"post-retirement factor must be positive, got {m_tilde}")
    c = np.asarray(contributions, dtype=float)
    if c.shape[0] < t + 1:
        raise ParameterError(f"need contributions c_0..c_{t}, got {c.shape[0]}")
    total = sum(
        c[tau] * target_wealth_factor(pi, tau, t, T, params, expected_rate)
        for tau in range(t + 1)
    )
    return M_t / m_tilde * total


def reference_tranche_targets(frame, t):
    """Reference ``TargetFrame.tranche_targets``: reads the path-major
    contributions through a strided transposed view.  The frame's
    year-major read must equal it bit for bit.
    """
    scale = frame.M[:, t] * frame.growth_exp[:, t] / frame.params.m_tilde
    targets = np.multiply(scale, frame.contributions[:, : t + 1].T, order="C")
    targets *= frame.cumq[t] / frame.cumq[: t + 1]
    return targets.T


def assert_same_run(outcome, reference):
    """An outcome equals a ``dense_tranche_run`` result bit for bit."""
    wealth, alpha, panel = reference
    assert np.array_equal(outcome.wealth, wealth)
    assert np.array_equal(outcome.alpha, alpha)
    assert np.array_equal(outcome.tranche_alpha, panel, equal_nan=True)


def einsum_loess(x, queries, d, degree, responses):
    """Reference LOESS in moment form: ``(fits, none)``, the fits of every
    response row at every query and the mask of queries without support.

    Picks each query's window itself: the k = ceil(d * n) training points
    from the start s that counts the window midpoints
    ``(xs[s] + xs[s + k]) / 2`` below the query, on a stable sort ``xs``.
    It recomputes the rest too: tri-cube weights, moment sums term by term
    with einsum, the local determinants and each query's choice of nearest
    value, mean, line or quadratic.  Returns the package's fits up to
    rounding, and its copied nearest values exactly.
    """
    m = queries.shape[0]
    if np.ptp(x) == 0.0:
        return np.repeat(responses.mean(axis=1)[:, None], m, axis=1), np.zeros(m, dtype=bool)
    n, k = x.shape[0], _window_size(d, x.shape[0])
    order = np.argsort(x, kind="stable")
    xs = x[order]
    starts = np.count_nonzero((xs[: n - k] + xs[k:]) / 2.0 < queries[:, None], axis=1)
    idx = order[starts[:, None] + np.arange(k)]
    xc = x[idx] - queries[:, None]
    yw = responses[:, idx]
    dist = np.abs(xc)
    dk = dist.max(axis=1, keepdims=True)
    u = np.divide(dist, dk, out=np.zeros_like(dist), where=dk > 0.0)
    w = np.where(u < 1.0, (1.0 - u**3) ** 3, 0.0)
    npos = np.count_nonzero(u < 1.0, axis=1)
    s = [np.einsum("mw,mw->m", w, xc**p) for p in range(2 * degree + 1)]
    t = [np.einsum("mw,kmw->km", w * xc**p, yw) for p in range(degree + 1)]

    with np.errstate(invalid="ignore", divide="ignore"):
        fits = t[0] / s[0]
        det1 = s[0] * s[2] - s[1] * s[1]
        ok1 = (npos >= 2) & (det1 > 1e-12 * s[0] * s[2])
        fits = np.where(ok1, (s[2] * t[0] - s[1] * t[1]) / det1, fits)
        if degree == 2:
            c22 = s[2] * s[4] - s[3] * s[3]
            c12 = s[1] * s[4] - s[2] * s[3]
            c11 = s[1] * s[3] - s[2] * s[2]
            det2 = s[0] * c22 - s[1] * c12 + s[2] * c11
            ok2 = (npos >= 3) & (det2 > 1e-10 * s[0] * s[2] * s[4])
            fits = np.where(ok2, (t[0] * c22 - t[1] * c12 + t[2] * c11) / det2, fits)

    # no support: the value at the nearest x, the first (lowest x) on ties
    none = npos == 0
    nearest = np.take_along_axis(yw, dist.argmin(axis=1)[None, :, None], axis=2)[..., 0]
    return np.where(none, nearest, fits), none


def interp_choice(policy, t, z):
    """Reference lookup of a solved policy: the argmax, ties going low, over
    the fitted curves of time t interpolated linearly at the ratios z and
    flat beyond the nodes.  ``PolicyModel.choice_at`` must equal it
    everywhere except exactly on a break of its step policy.
    """
    i = int(t) - int(policy.times[0])
    z = np.asarray(z, dtype=float)
    nodes, curves = policy.z_nodes[i], policy.curves[i]
    return np.argmax(np.stack([np.interp(z, nodes, c) for c in curves]), axis=0)


def interp_replay(inputs, frame, policy, tau):
    """Reference shared-mode allocations, (n_paths, T - tau), of the tranche
    born at tau: ``interp_choice`` of ``policy`` at each year, the ratio
    moved from ``frame.z0(tau)`` by ``z_step``.
    """
    T, grid = inputs.T, policy.grid
    x, m = inputs.scenarios.x, inputs.market.m
    out, z = np.empty((inputs.n_paths, T - tau)), frame.z0(tau)
    for t in range(tau, T):
        out[:, t - tau] = grid[interp_choice(policy, t, z)]
        z = z_step(z, out[:, t - tau], x[:, t + 1], m[:, t + 1], frame.er[:, t + 1])
    return out


def _plin_eval(nodes, curves, q):
    """Evaluate each piecewise-linear curve at q with flat extrapolation."""
    j = np.clip(np.searchsorted(nodes, q, side="right"), 1, nodes.shape[0] - 1)
    left = nodes[j - 1]
    t = np.clip((q - left) / (nodes[j] - left), 0.0, 1.0)
    return curves[:, j - 1] * (1.0 - t) + curves[:, j] * t


def reference_envelope(nodes, curves):
    """Reference upper envelope of fitted curves: ``(breaks, regions)``.

    Computes every pair's crossing on every segment, dedupes the cuts with
    ``np.unique`` and evaluates every probe, tails included, through the
    clamped interpolation.  The solver's envelope must equal it bit for bit.
    """
    k, m = curves.shape
    if m == 1 or k == 1:
        return np.empty(0), np.array([int(np.argmax(curves[:, 0]))], dtype=np.int64)
    left, right = curves[:, :-1], curves[:, 1:]
    ia, ib = np.triu_indices(k, 1)
    dl = left[ia] - left[ib]
    dr = right[ia] - right[ib]
    crossing = dl * dr < 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        t = dl / (dl - dr)
    zc = nodes[:-1] + t * np.diff(nodes)
    cand = np.unique(np.concatenate([nodes, zc[crossing]]))
    probes = np.empty(cand.shape[0] + 1)
    probes[1:-1] = (cand[:-1] + cand[1:]) / 2.0
    probes[0] = cand[0] - 1.0
    probes[-1] = cand[-1] + 1.0
    reg = np.argmax(_plin_eval(nodes, curves, probes), axis=0)
    change = reg[1:] != reg[:-1]
    return cand[change], np.concatenate([reg[:1], reg[1:][change]]).astype(np.int64)


@pytest.fixture(scope="session")
def default_set():
    """2000 paths x 41 years at default calibration; treat as read-only."""
    return simulate(ModelParams(), 2000, 41, seed=42)


@pytest.fixture(scope="session")
def default_inputs(default_set):
    return SimulationInputs.prepare(default_set)


@pytest.fixture(scope="session")
def small_inputs():
    """A cheap 250 x 12 world for structural strategy and solver tests."""
    scenarios = simulate(ModelParams(), 250, 12, seed=7)
    return SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=12, N=20))


@pytest.fixture(scope="session")
def flat_inputs():
    """Deterministic world: zero rates, zero inflation, zero wage growth.

    Annuity factors are constant (M = N), so the matching return is zero
    and every projection made with r = 0 coincides with the realized path.
    """
    scenarios = simulate(flat_params(), 4, 10, seed=3)
    return SimulationInputs.prepare(scenarios, annuity=AnnuitySpec(T=10, N=20))
