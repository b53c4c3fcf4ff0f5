"""Shared fixtures: scenario sets and prepared inputs reused across tests."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from pensionsim import ModelParams, SimulationInputs, simulate
from pensionsim.errors import DomainError, ParameterError
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
        wealth[:, t] = live.sum(axis=1)
        weighted = (live * panel[:, t, : t + 1]).sum(axis=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            alpha[:, t] = np.where(wealth[:, t] > 0, weighted / wealth[:, t], 0.0)
    return wealth, alpha, panel


def target_wealth_factor(pi, tau, t, params, expected_rate):
    """Scalar oracle for the compounding factor E_t F_tau of one contribution
    toward the target, which ``TargetFrame`` computes for all paths at once.

    Realized inflation ``pi`` (a single path) is used between tau and t,
    the current expected rate beyond t.
    """
    if not 0 <= tau <= t <= params.T:
        raise ParameterError(f"need 0 <= tau <= t <= T, got tau={tau}, t={t}, T={params.T}")
    pi = np.asarray(pi, dtype=float)
    realized = 1.0 + params.r + pi[tau + 1 : t + 1]
    future = 1.0 + params.r + expected_rate
    if np.any(realized <= 0.0) or future <= 0.0:
        raise DomainError("target growth factor 1 + r + inflation must stay positive")
    return float(np.prod(realized) * future ** (params.T - t))


def cumulative_target(pi, contributions, t, params, M_t, m_tilde, expected_rate):
    """Scalar oracle for the aggregate wealth target
    (M_t / M~_T) * sum_tau c_tau * E_t F_tau of ``TargetFrame.target_cum``.
    """
    if m_tilde <= 0.0:
        raise DomainError(f"post-retirement factor must be positive, got {m_tilde}")
    c = np.asarray(contributions, dtype=float)
    if c.shape[0] < t + 1:
        raise ParameterError(f"need contributions c_0..c_{t}, got {c.shape[0]}")
    total = sum(
        c[tau] * target_wealth_factor(pi, tau, t, params, expected_rate) for tau in range(t + 1)
    )
    return M_t / m_tilde * total


def reference_tranche_targets(frame, t):
    """Reference ``TargetFrame.tranche_targets``: reads the path-major
    contributions through a strided transposed view.  The frame's
    year-major read must equal it bit for bit.
    """
    scale = frame.M[:, t] * frame.growth_exp[:, t] / frame.m_tilde
    targets = np.multiply(scale, frame.contributions[:, : t + 1].T, order="C")
    targets *= frame.cumq[t] / frame.cumq[: t + 1]
    return targets.T


def assert_same_run(outcome, reference):
    """An outcome equals a ``dense_tranche_run`` result bit for bit."""
    wealth, alpha, panel = reference
    assert np.array_equal(outcome.wealth, wealth)
    assert np.array_equal(outcome.alpha, alpha)
    assert np.array_equal(outcome.tranche_alpha, panel, equal_nan=True)


def einsum_loess_apply(design, responses):
    """Reference LOESS apply step: one einsum per weight column.

    Sums each window term by term over the (response, query, window)
    gather, where the package's apply hands the windows to one batched
    matmul.  Takes the same design and returns the same fits up to rounding.
    """
    if design.mean_only:
        return np.repeat(responses.mean(axis=1)[:, None], design.n_queries, axis=1)
    yw = sliding_window_view(responses[:, design.order], design.win, axis=1)[:, design.lo]
    t0 = np.einsum("mw,kmw->km", design.ws[..., 0], yw)
    t1 = np.einsum("mw,kmw->km", design.ws[..., 1], yw)

    fits = np.empty((responses.shape[0], design.n_queries))
    base, ok1 = ~design.none_mask, design.ok1
    with np.errstate(invalid="ignore", divide="ignore"):
        mean_pred = np.where(base, t0 / np.where(base, design.s0, 1.0), 0.0)
    fits[:, base] = mean_pred[:, base]
    with np.errstate(invalid="ignore", divide="ignore"):
        pred1 = (design.s2 * t0 - design.s1 * t1) / np.where(ok1, design.det1, 1.0)
    fits[:, ok1] = pred1[:, ok1]

    if design.ok2 is not None:
        t2 = np.einsum("mw,kmw->km", design.ws[..., 2], yw)
        s1, s2, s3, s4 = design.s1, design.s2, design.s3, design.s4
        ok2 = design.ok2
        with np.errstate(invalid="ignore", divide="ignore"):
            num = t0 * design.c22 - s1 * (t1 * s4 - s3 * t2) + s2 * (t1 * s3 - s2 * t2)
            pred2 = num / np.where(ok2, design.det2, 1.0)
        fits[:, ok2] = pred2[:, ok2]

    for i in np.nonzero(design.none_mask)[0]:
        fits[:, i] = yw[:, i, design.nearest[i]]
    return fits


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
