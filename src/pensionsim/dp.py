"""Dynamic-programming combination strategy on the wealth-to-target ratio.

The state is Z = W / W-target per contribution tranche, which removes the
tranche size and birth year from the problem: one policy in Z serves every
tranche.  The solver discretizes the control to a small allocation grid and
runs regression-based backward induction with forward re-simulation
(Longstaff & Schwartz 2001; Brandt, Goyal, Santa-Clara & Stroud 2005) from
every path all in equity.  A sweep fits the decision times last first: each
fit forces every grid allocation at its step, follows the step policies
fitted above it to T, and estimates expected terminal utility given Z by
regressing the realized utilities on Z with the LOESS of :mod:`pensionsim.lsmc`
on ``curve_points`` evenly spaced nodes: one call fits every allocation's curve
on the same windows, weights and coefficient rows.  Then one
forward pass re-decides every step from its step policy and rolls the ratios
on.  One initial sweep is followed by ``iterations`` traced ones.

Terminal utility rewards ending between the configured ratio bounds:

    U(z) = [-(z - beta)^2 - (z - z_min)^2] / z,  beta = sqrt(2 z_max^2 - z_min^2)

whose maximum sits exactly at z_max.  :func:`utility_check` computes it and
:func:`z_step` moves a ratio one year by the portfolio rule
``strategies._grown`` over its target; ``_step_factors``, the year-major
(year, allocation, path) table of one unit's factors, grows every ratio.

Each fitted step becomes a step policy over z (``_StepPolicy``, built on
every fit), the one way a solved policy is applied: a ratio on
a break takes the region above it, and elsewhere the argmax over the
interpolated curves.  Its exact lookup puts breaks into uniform buckets
through a monotone float map, so breaks in other buckets than z's lie on
the known side of z and a ratio needs a table read plus one compare per
break in its bucket.  The counterfactual rollout gathers growth factors by
flat ``region * n + path`` indices.

The per-contribution tranche solves are independent, and their kernels hold
the interpreter lock, so :class:`CombinationStrategy` runs them in worker
processes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .engine import SimulationInputs, _fan_out
from .errors import DomainError, ParameterError
from .lsmc import _loess
from .strategies import StrategyOutcome, TargetFrame, TargetParams, _grown, _run_tranches

__all__ = [
    "CombinationStrategy",
    "DpConfig",
    "PolicyModel",
    "export_policy_csv",
    "solve_policy",
    "utility_check",
    "z_step",
]


@dataclass(frozen=True)
class DpConfig:
    """Allocation grid, utility bounds and solver knobs."""

    grid: tuple = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    z_min: float = 1.0
    z_max: float = 3.0
    iterations: int = 2  # traced sweeps after one initial sweep
    loess_d: float = 0.2
    loess_degree: int = 1
    curve_points: int = 101

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0:
            raise ParameterError("allocation grid must be non-empty")
        # NaN fails both comparisons
        if not np.all((g >= 0.0) & (g <= 1.0)):
            raise ParameterError(f"allocation grid must lie within [0, 1], got {self.grid}")
        if np.any(np.diff(g) <= 0.0):
            raise ParameterError("allocation grid must be strictly increasing")
        if not 0.0 < self.z_min < self.z_max:
            raise ParameterError(f"need 0 < z_min < z_max, got ({self.z_min}, {self.z_max})")
        if self.iterations < 1:
            raise ParameterError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.loess_d <= 1.0:
            raise ParameterError(f"loess_d={self.loess_d} outside (0, 1]")
        if self.loess_degree not in (1, 2):
            raise ParameterError(f"loess_degree must be 1 or 2, got {self.loess_degree}")
        if self.curve_points < 2:
            raise ParameterError(f"curve_points must be >= 2, got {self.curve_points}")

    @property
    def beta(self) -> float:
        """Upper reflection point of the terminal utility."""
        return float(np.sqrt(2.0 * self.z_max**2 - self.z_min**2))


def utility_check(z, cfg: DpConfig = DpConfig()):
    """Terminal utility of the wealth-to-target ratio; peaks at z_max."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0.0):
        raise DomainError("utility is defined for positive ratios only")
    beta = cfg.beta
    out = (-((z - beta) ** 2) - (z - cfg.z_min) ** 2) / z
    return out if out.ndim else float(out)


def z_step(z, alpha, x, m, expectation_ratio):
    """One-year update of the wealth-to-target ratio.

    The tranche grows at the chosen mix of equity (x) and matching (m)
    returns while its target grows by ``expectation_ratio * (1 + m)``.
    """
    z = np.asarray(z, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if np.any(z <= 0.0):
        raise DomainError("ratio must be positive")
    if np.any((alpha < 0.0) | (alpha > 1.0)):
        raise ParameterError("allocation must lie in [0, 1]")
    x, m = np.asarray(x, dtype=float), np.asarray(m, dtype=float)
    denom = np.asarray(expectation_ratio, dtype=float) * (1.0 + m)
    if np.any(denom <= 0.0):
        raise DomainError("target growth denominator must be positive")
    out = _grown(z, alpha, x, m) / denom
    return out if out.ndim else float(out)


@functools.cache
def _pairs(k: int) -> tuple:
    """Row indices of the k (k - 1) / 2 pairs of k curves (read-only)."""
    return np.triu_indices(k, 1)


def _envelope(nodes: np.ndarray, curves: np.ndarray):
    """Upper envelope of fitted curves, reduced to a step policy over z.

    Returns ``(breaks, regions)``: the strictly increasing ``breaks`` cut the
    z axis into intervals, flat tails included, and ``regions[i]`` is the
    grid index whose linearly interpolated curve is highest on the i-th
    interval (ties go low).  So the policy picks the region after the last
    break <= z, which agrees with argmax over the interpolated curves
    everywhere except exactly on a break, where the tied neighbours have
    equal fitted value anyway.

    The candidate cuts are the nodes and the crossings of any two curves;
    each interval between cuts is decided at its midpoint, and each tail at
    its outermost node, beyond which the curves extend flat.
    """
    k, m = curves.shape
    ia, ib = _pairs(k)
    d = curves[ia] - curves[ib]
    dl, dr = d[:, :-1], d[:, 1:]
    crossing = dl * dr < 0.0
    seg = np.flatnonzero(crossing) % (m - 1)
    dl, dr = dl[crossing], dr[crossing]
    zc = nodes[seg] + dl / (dl - dr) * (nodes[seg + 1] - nodes[seg])
    cand = np.concatenate((nodes, zc))
    cand.sort()
    cand = cand[np.concatenate(([True], cand[1:] != cand[:-1]))]
    mid = (cand[:-1] + cand[1:]) / 2.0
    # a crossing can round onto or one ulp past the last node: a midpoint
    # there stays in the last segment, where t still rounds to 1
    j = np.searchsorted(nodes, mid, side="right")
    np.minimum(j, m - 1, out=j)
    left = nodes[j - 1]
    t = (mid - left) / (nodes[j] - left)
    inner = curves.take(j - 1, axis=1) * (1.0 - t) + curves.take(j, axis=1) * t
    reg = np.argmax(np.concatenate((curves[:, :1], inner, curves[:, -1:]), axis=1), axis=0)
    change = reg[1:] != reg[:-1]
    return cand[change], np.concatenate((reg[:1], reg[1:][change]))


class _StepPolicy:
    """A step policy over z with an exact bucketed break lookup.

    ``regions[i]`` is the grid index the policy picks on the i-th interval
    of the partition cut at the strictly increasing ``breaks``: a ratio z
    takes the region after the last break <= z, so the lookup is a count of
    the breaks <= z.

    The count goes through ``nbuckets = 8 * len(breaks)`` uniform buckets
    of width ``1 / inv`` from the first break to the last, plus one bucket
    below.  A value v lands in bucket ``int(clip(v - lo, 0, hi) * inv)``,
    where ``lo`` lies one width below the first break and ``hi`` is the
    last break's distance from it: bucket 0 below the first break, bucket
    nbuckets + 1 at most.  The clip comes before the multiply, so no ratio
    makes it overflow and a lookup raises no floating-point warning of its
    own.  Every step of that float expression is monotone non-decreasing in
    v, so a break in a lower bucket than z is <= z and a break in a higher
    bucket is > z.  Only the breaks sharing z's bucket are compared, which
    makes the count exact: it equals a binary search for every z, breaks
    themselves included.  ``_start[j]`` counts the breaks in buckets below j
    and ``_table[q, j]`` holds the q-th break of bucket j (+inf where the
    bucket has fewer).

    ``offsets`` are the regions as row offsets into a flattened
    (allocation, path) slab of n paths, so :meth:`flat_index` turns a
    lookup over per-path ratios into one 1-D gather.
    """

    def __init__(self, breaks: np.ndarray, regions: np.ndarray, n: int):
        self.breaks, self.regions = breaks, regions
        self.offsets = regions * n
        nb = breaks.shape[0]
        first, last = (float(breaks[0]), float(breaks[-1])) if nb else (0.0, 0.0)
        # breaks cluster where curves cross; eight buckets per break leave
        # most buckets with at most one
        nbuckets = 8 * nb
        # one bucket for zero span (one break) or a span too small to invert
        inv = nbuckets / (last - first) if last > first else 0.0
        self._inv = inv if np.isfinite(inv) else 0.0
        self._lo = first - (1.0 / self._inv if self._inv else 0.0)
        self._hi = last - self._lo
        home = self._bucket(breaks)
        self._start = np.searchsorted(home, np.arange(nbuckets + 2), side="left")
        width = int(np.bincount(home).max()) if nb else 0
        self._table = np.full((width, nbuckets + 2), np.inf)
        self._table[np.arange(nb) - self._start[home], home] = breaks

    def _bucket(self, z: np.ndarray) -> np.ndarray:
        v = z - self._lo
        np.clip(v, 0.0, self._hi, out=v)
        v *= self._inv
        return v.astype(np.intp)

    def count(self, z: np.ndarray) -> np.ndarray:
        """Number of breaks <= z, elementwise."""
        j = self._bucket(z)
        c = self._start.take(j)
        for row in self._table:
            c += z >= row.take(j)
        return c

    def choose(self, z: np.ndarray) -> np.ndarray:
        """Grid indices the policy picks for ratios z."""
        return self.regions.take(self.count(z))

    def flat_index(self, z: np.ndarray, paths: np.ndarray) -> np.ndarray:
        """``region * n + path`` for ratios z whose last axis runs over ``paths``."""
        idx = self.offsets.take(self.count(z))
        idx += paths
        return idx


@dataclass
class PolicyModel:
    """Solved policy: the solver's step policies, curves and in-sample output.

    ``steps[i]`` is the step policy applied at decision time ``times[i]``,
    the upper envelope of ``curves[i]``: one expected-utility curve per grid
    allocation on ``z_nodes[i]``, linear between nodes and flat beyond them.
    ``decisions[i]`` are the in-sample grid indices, ``steps[i]`` at
    ``z_path[i]``; ``z_path`` holds the ratios at ``times`` and at T.
    """

    cfg: DpConfig
    times: np.ndarray
    z_nodes: list
    curves: list
    decisions: np.ndarray
    z_path: np.ndarray
    steps: list
    utility_trace: list = field(default_factory=list)

    @property
    def grid(self) -> np.ndarray:
        return np.asarray(self.cfg.grid, dtype=float)

    def choice_at(self, t: int, z) -> np.ndarray:
        """Grid index the step policy of time t picks for ratios z: a ratio on a
        break takes the region above it, elsewhere the argmax of the curves."""
        i = int(t) - int(self.times[0])
        if not 0 <= i < len(self.times):
            raise ParameterError(
                f"no decision solved for t={t}; policy covers {self.times[0]}..{self.times[-1]}"
            )
        return self.steps[i].choose(np.atleast_1d(np.asarray(z, dtype=float)))

    def decision_table(self) -> list:
        """(t, z, alpha) rows sampled on the stored z-node grids."""
        return [
            (int(t), float(z), float(a))
            for t, nodes in zip(self.times, self.z_nodes)
            for z, a in zip(nodes, self.grid[self.choice_at(t, nodes)])
        ]

    @property
    def terminal_utility(self) -> np.ndarray:
        return utility_check(self.z_path[-1], self.cfg)


def export_policy_csv(policy: PolicyModel) -> str:
    """Render the sampled decision map as ``t,z,alpha`` CSV text."""
    return "t,z,alpha\n" + "".join(f"{t},{z!r},{a!r}\n" for t, z, a in policy.decision_table())


class _Solver:
    """Algorithm state for one tranche: factors, decisions and ratios."""

    def __init__(self, z0: np.ndarray, factors: np.ndarray, cfg: DpConfig):
        if np.any(z0 <= 0.0):
            raise DomainError("initial wealth-to-target ratio must be positive")
        if np.any(factors <= 0.0):
            raise DomainError("ratio growth factors must be positive")
        self.cfg = cfg
        # the tranche's rows of the year-major factor table, kept as given: one
        # contiguous (allocation, path) slab per step for the per-step gathers
        self.factors = factors
        self.nd, self.n = factors.shape[0], z0.shape[0]
        self._flat_factors = factors.reshape(self.nd, -1)
        self._paths = np.arange(self.n)
        self.decisions = np.empty((self.nd, self.n), dtype=np.int64)
        self.z = np.empty((self.nd + 1, self.n))
        self.z[0] = z0
        self.z_nodes, self.curves = [None] * self.nd, [None] * self.nd
        # the start: every path all in equity (all in matching gave policies
        # that did worse out of sample)
        self._env = [_StepPolicy(np.empty(0), np.array([len(cfg.grid) - 1]), self.n)] * self.nd
        self.trace: list = []
        self._forward()

    def _forward(self) -> None:
        """Re-decide every step from its step policy and roll every path on."""
        for s in range(self.nd):
            self.decisions[s] = self._env[s].choose(self.z[s])
            at = self.decisions[s] * self.n + self._paths
            self.z[s + 1] = self.z[s] * self._flat_factors[s].take(at)

    def _fit(self, s: int) -> None:
        """Fit the expected-utility curves at time index s and its step policy.

        The counterfactual rollout forces each grid allocation at s and then
        follows the step policies fitted above s at the counterfactual states,
        so the regression responses value each choice under state-feedback
        control rather than under the scenario's incumbent decision sequence.
        The regressor is ``z[s]``, which only decisions before s move.
        """
        zk = self.z[s][None, :] * self.factors[s]
        for t in range(s + 1, self.nd):
            zk *= self._flat_factors[t].take(self._env[t].flat_index(zk, self._paths))
        cfg, zs = self.cfg, self.z[s]
        u = utility_check(zk, cfg)
        lo, hi = float(zs.min()), float(zs.max())
        nodes = np.linspace(lo, hi, cfg.curve_points) if lo < hi else np.array([lo])
        self.z_nodes[s] = nodes
        self.curves[s] = _loess(zs, nodes, cfg.loess_d, cfg.loess_degree, u)
        self._env[s] = _StepPolicy(*_envelope(nodes, self.curves[s]), self.n)

    def solve(self) -> None:
        """One initial sweep, then ``cfg.iterations`` traced ones."""
        for sweep in range(self.cfg.iterations + 1):
            for s in range(self.nd - 1, -1, -1):
                self._fit(s)
            self._forward()
            if sweep:
                self.trace.append(float(utility_check(self.z[self.nd], self.cfg).mean()))


def _solve_steps(shared: tuple, tau: int) -> list:
    """Step policies, one per decision time, of the tranche born at tau, by
    :func:`solve_policy` (looked up at each call): a worker sends back these
    small objects.  ``shared`` is ``(inputs, frame, cfg, factors)``."""
    inputs, frame, cfg, factors = shared
    return solve_policy(inputs, frame, cfg, tau=tau, factors=factors).steps


def _step_factors(inputs: SimulationInputs, frame: TargetFrame, cfg: DpConfig) -> np.ndarray:
    """Per (year, allocation, path) growth factor of the ratio Z.

    Year-major, C-contiguous: row t holds the (allocation, path) factors over
    (t-1, t], one unit grown by :func:`~pensionsim.strategies._grown` over
    its target's growth; row 0 is unused padding.  A tranche born at tau
    reads the rows ``tau + 1 .. T`` as one contiguous slice.
    """
    grid = np.asarray(cfg.grid, dtype=float)[:, None]
    # year-major copies of the (path, year) panels: numpy lays each result
    # out like its operands, so these make it (year, allocation, path)
    x, m, er = (
        np.ascontiguousarray(p[:, : inputs.T + 1].T)[:, None, :]
        for p in (inputs.scenarios.x, inputs.market.m, frame.er)
    )
    with np.errstate(invalid="ignore"):
        factors = _grown(1.0, grid, x, m) / (er * (1.0 + m))
    factors[0] = 1.0
    if np.any(factors <= 0.0) or not np.all(np.isfinite(factors)):
        raise DomainError("ratio growth factors must be positive and finite")
    return factors


def solve_policy(
    inputs: SimulationInputs,
    frame: TargetFrame,
    cfg: DpConfig = DpConfig(),
    tau: int = 0,
    factors: np.ndarray | None = None,
) -> PolicyModel:
    """Solve the program for the tranche born in year ``tau`` by backward
    induction with forward re-simulation."""
    T = inputs.T
    if not 0 <= tau <= T - 1:
        raise ParameterError(f"tranche birth year {tau} leaves no decision before T={T}")
    if factors is None:
        factors = _step_factors(inputs, frame, cfg)
    solver = _Solver(frame.z0(tau), factors[tau + 1 : T + 1], cfg)
    solver.solve()
    return PolicyModel(
        cfg=cfg, times=np.arange(tau, T), z_nodes=solver.z_nodes, curves=solver.curves,
        decisions=solver.decisions, z_path=solver.z, steps=solver._env, utility_trace=solver.trace,
    )


@dataclass(frozen=True)
class CombinationStrategy:
    """Applies dynamic-programming policies to every contribution tranche.

    Each year every tranche's ratio, started at the solver's ``z0`` and grown
    by its factor table (so it has the solver's bits), is looked up in the
    tranche's step policy for that year.  ``per-contribution`` mode solves the
    program for each tranche, so the lookups give back each solve's in-sample
    decisions; ``shared`` mode solves once for the first tranche, and every
    tranche uses that policy's step at year t.  The tranche kernel
    :func:`~pensionsim.strategies._run_tranches` grows the tranches on their
    grid indices year by year; a last index, 0.0, converts them all at T.

    ``threads`` is the number of worker processes for the independent
    per-contribution tranche solves: above one, the tranches born at tau >= 1
    go to the forked workers of :func:`~pensionsim.engine._fan_out`, costliest
    first, while this process solves tau = 0, the largest, through :func:`solve_policy`.
    Results never depend on the worker count.
    """

    params: TargetParams
    cfg: DpConfig = DpConfig()
    mode: str = "per-contribution"
    label: str = "combination"
    threads: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("per-contribution", "shared"):
            raise ParameterError(f"unknown combination mode {self.mode!r}")
        if self.threads < 1:
            raise ParameterError(f"threads must be >= 1, got {self.threads}")

    def run(self, inputs: SimulationInputs) -> StrategyOutcome:
        frame = TargetFrame.build(inputs, self.params)
        T = inputs.T
        factors = _step_factors(inputs, frame, self.cfg)
        shared = (inputs, frame, self.cfg, factors)
        # steps[tau][t - tau]: the step policy of the tranche born at tau at year t
        if self.mode == "per-contribution":
            steps = _fan_out(
                _solve_steps, shared, [(tau,) for tau in range(1, T)],
                self.threads, here=lambda: _solve_steps(shared, 0),
            )
        else:
            first = _solve_steps(shared, 0)
            steps = [first[tau:] for tau in range(T)]
        # the ratios held year-major, (tau, path), like the kernel's state
        z = frame.z0(slice(None)).T.copy()

        def choose(t):
            born = z[: t + 1]
            idx = np.stack([steps[tau][t - tau].choose(born[tau]) for tau in range(t + 1)])
            born *= np.take_along_axis(factors[t + 1], idx, axis=0)
            return idx.T

        conversion = len(self.cfg.grid)
        values = np.append(self.cfg.grid, 0.0)
        return _run_tranches(
            self.label, inputs, values, lambda t, live: conversion if t == T else choose(t)
        )
