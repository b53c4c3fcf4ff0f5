"""Dynamic-programming combination strategy on the wealth-to-target ratio.

The state is Z = W / W-target per contribution tranche, which removes the
tranche size and birth year from the problem: one policy in Z serves every
tranche.  The solver discretizes the control to a small allocation grid and
walks a snake-like pattern through the decision times: solve the last
sub-problem, then repeatedly update future sub-problems backward, solve the
earliest untouched time, and update forward again.  Expected terminal
utility conditional on the current state is estimated cross-sectionally
with local (LOESS) regression of realized terminal utilities on Z, sampled
on ``curve_points`` evenly spaced nodes.  The regression is the design/apply
LOESS of :mod:`pensionsim.lsmc`, the code behind
:class:`~pensionsim.lsmc.LoessModel`: a design (windows and tri-cube
weights) is reused across refreshes while the ratios it was built on are
unchanged, and one batched matmul fits every allocation's curve on it.

Terminal utility rewards ending between the configured ratio bounds:

    U(z) = [-(z - beta)^2 - (z - z_min)^2] / z,  beta = sqrt(2 z_max^2 - z_min^2)

whose maximum sits exactly at z_max.  :func:`utility_check` computes it and
:func:`z_step` moves a ratio one year; the solver and the shared-mode
strategy call these, with no copies.

Each fitted step becomes a step policy over z (``_StepPolicy``, built once
per changed envelope) with one exact lookup: breaks go into uniform buckets
through a monotone float map, so breaks in other buckets than z's lie on
the known side of z and a ratio needs a table read plus one compare per
break in its bucket.  The rollout gathers growth factors by flat
``region * n + path`` indices, and a refresh that changes decisions
re-rolls only the paths whose decision changed.

The per-contribution tranche solves are independent, and their kernels hold
the interpreter lock, so :class:`CombinationStrategy` runs them in worker
processes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .engine import SimulationInputs
from .errors import DomainError, ParameterError
from .lsmc import _loess_apply, _loess_geometry
from .strategies import StrategyOutcome, TargetFrame, TargetParams, _run_tranches

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
    iterations: int = 2
    loess_d: float = 0.2
    loess_degree: int = 1
    curve_points: int = 101

    def __post_init__(self) -> None:
        g = np.asarray(self.grid, dtype=float)
        if g.size == 0:
            raise ParameterError("allocation grid must be non-empty")
        if np.any(g < 0.0) or np.any(g > 1.0):
            raise ParameterError("allocation grid must lie within [0, 1]")
        if np.any(np.diff(g) <= 0.0):
            raise ParameterError("allocation grid must be strictly increasing")
        if not 0.0 < self.z_min < self.z_max:
            raise ParameterError(
                f"need 0 < z_min < z_max, got ({self.z_min}, {self.z_max})"
            )
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
    growth = alpha * (1.0 + np.asarray(x, dtype=float)) + (1.0 - alpha) * (
        1.0 + np.asarray(m, dtype=float)
    )
    denom = np.asarray(expectation_ratio, dtype=float) * (1.0 + np.asarray(m, dtype=float))
    if np.any(denom <= 0.0):
        raise DomainError("target growth denominator must be positive")
    out = z * growth / denom
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
    if m == 1 or k == 1:
        return np.empty(0), np.array([int(np.argmax(curves[:, 0]))], dtype=np.int64)
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
        self._paths = np.arange(n)
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

    def flat_index(self, z: np.ndarray) -> np.ndarray:
        """``region * n + path`` for ratios z whose last axis runs over the paths."""
        idx = self.offsets.take(self.count(z))
        idx += self._paths
        return idx


@dataclass
class PolicyModel:
    """Solved policy: sampled expected-utility curves plus in-sample output.

    ``curves[i]`` holds, for decision time ``times[i]``, one expected-utility
    curve per grid allocation sampled on ``z_nodes[i]``; lookups interpolate
    linearly between nodes and extend flat beyond the training range.
    ``decisions[i]`` are the in-sample optimal grid indices per scenario and
    ``z_path`` the in-sample ratios at ``times`` plus the terminal year.
    """

    cfg: DpConfig
    times: np.ndarray
    z_nodes: list
    curves: list
    decisions: np.ndarray
    z_path: np.ndarray
    utility_trace: list = field(default_factory=list)

    @property
    def grid(self) -> np.ndarray:
        return np.asarray(self.cfg.grid, dtype=float)

    def _index(self, t: int) -> int:
        i = int(t) - int(self.times[0])
        if not 0 <= i < len(self.times):
            raise ParameterError(
                f"no decision solved for t={t}; policy covers {self.times[0]}..{self.times[-1]}"
            )
        return i

    def expected_utilities(self, t: int, z) -> np.ndarray:
        """Fitted expected utility per grid allocation, shape (k, len(z))."""
        i = self._index(t)
        z = np.atleast_1d(np.asarray(z, dtype=float))
        nodes, curves = self.z_nodes[i], self.curves[i]
        return np.stack([np.interp(z, nodes, c) for c in curves])

    def choice_at(self, t: int, z) -> np.ndarray:
        """Grid index of the optimal allocation at time t for ratios z (ties go low)."""
        return np.argmax(self.expected_utilities(t, z), axis=0)

    def alpha_at(self, t: int, z) -> np.ndarray:
        """Optimal grid allocation at time t for ratios z (ties go low)."""
        return self.grid[self.choice_at(t, z)]

    def decision_table(self) -> list:
        """(t, z, alpha) rows sampled on the stored z-node grids."""
        rows = []
        for i, t in enumerate(self.times):
            alpha = self.grid[np.argmax(self.curves[i], axis=0)]
            rows.extend(
                (int(t), float(z), float(a)) for z, a in zip(self.z_nodes[i], alpha)
            )
        return rows

    @property
    def terminal_utility(self) -> np.ndarray:
        return utility_check(self.z_path[-1], self.cfg)


def export_policy_csv(policy: PolicyModel) -> str:
    """Render the sampled decision map as ``t,z,alpha`` CSV text."""
    return "t,z,alpha\n" + "".join(f"{t},{z!r},{a!r}\n" for t, z, a in policy.decision_table())


class _SnakeSolver:
    """Algorithm state for one tranche: factors, decisions and ratios."""

    def __init__(self, z0: np.ndarray, factors: np.ndarray, cfg: DpConfig):
        if np.any(z0 <= 0.0):
            raise DomainError("initial wealth-to-target ratio must be positive")
        if np.any(factors <= 0.0):
            raise DomainError("ratio growth factors must be positive")
        self.cfg = cfg
        # one contiguous (allocation, path) slab per step keeps the per-step
        # gathers in the rollout and propagation cache-friendly
        self.factors = np.ascontiguousarray(factors.transpose(2, 0, 1))
        self.nd = factors.shape[2]
        self.n = z0.shape[0]
        self._flat_factors = self.factors.reshape(self.nd, -1)
        self._paths = np.arange(self.n)
        self.decisions = np.zeros((self.nd, self.n), dtype=np.int64)
        self.z = np.empty((self.nd + 1, self.n))
        self.z[0] = z0
        self.z_nodes = [None] * self.nd
        self.curves = [None] * self.nd
        self.trace: list = []
        # A fit at step s reads the design points z[s] (set by decisions
        # before s) and rolls counterfactuals forward through the fitted
        # step policies after s.  Stamping decision and policy changes
        # with one event clock lets an update be skipped exactly when its
        # inputs are unchanged, i.e. when rerunning it would be a no-op.
        self._stamp = 0
        self._dec_stamp = np.zeros(self.nd, dtype=np.int64)
        self._env_stamp = np.zeros(self.nd, dtype=np.int64)
        self._fitted_at = np.full(self.nd, -1, dtype=np.int64)
        self._env: list = [None] * self.nd
        self._design: list = [None] * self.nd
        self._design_key = np.full(self.nd, -1, dtype=np.int64)
        self._propagate(0, self._paths)

    def _propagate(self, start: int, paths: np.ndarray) -> None:
        """Roll the ratios of ``paths`` forward from step ``start``.

        Called with every path at set-up and, after a refresh, with the paths
        whose decision at ``start`` changed: every other path keeps its
        decisions and ratios, so its products are unchanged.
        """
        z = self.z[start, paths]
        for s in range(start, self.nd):
            at = self.decisions[s].take(paths) * self.n + paths
            z = z * self._flat_factors[s].take(at)
            self.z[s + 1, paths] = z

    def _stale(self, s: int) -> bool:
        fitted = self._fitted_at[s]
        if fitted < 0:
            return True
        if s > 0 and self._dec_stamp[:s].max() > fitted:
            return True
        return s + 1 < self.nd and self._env_stamp[s + 1 :].max() > fitted

    def _refresh(self, s: int) -> None:
        """Re-fit the expected-utility curves at time index s and re-decide.

        The counterfactual rollout forces each grid allocation at s and then
        follows the current fitted policies at the counterfactual states, so
        the regression responses value each choice under state-feedback
        control rather than under the scenario's incumbent decision sequence.
        """
        if not self._stale(s):
            return
        zk = self.z[s][None, :] * self.factors[s]
        for t in range(s + 1, self.nd):
            zk *= self._flat_factors[t].take(self._env[t].flat_index(zk))
        u = utility_check(zk, self.cfg)
        key = int(self._dec_stamp[:s].max()) if s > 0 else 0
        if self._design_key[s] != key:
            zs = self.z[s]
            z_lo, z_hi = float(zs.min()), float(zs.max())
            if z_lo < z_hi:
                nodes = np.linspace(z_lo, z_hi, self.cfg.curve_points)
            else:
                nodes = np.array([z_lo])
            self._design[s] = _loess_geometry(zs, nodes, self.cfg.loess_d, self.cfg.loess_degree)
            self.z_nodes[s] = nodes
            self._design_key[s] = key
        self.curves[s] = _loess_apply(self._design[s], u)
        breaks, regions = _envelope(self.z_nodes[s], self.curves[s])
        old = self._env[s]
        if old is None or not (
            np.array_equal(breaks, old.breaks) and np.array_equal(regions, old.regions)
        ):
            self._env[s] = _StepPolicy(breaks, regions, self.n)
            self._stamp += 1
            self._env_stamp[s] = self._stamp
        new = self._env[s].choose(self.z[s])
        changed = np.flatnonzero(new != self.decisions[s])
        if changed.size:
            self.decisions[s] = new
            self._stamp += 1
            self._dec_stamp[s] = self._stamp
            self._propagate(s, changed)
        self._fitted_at[s] = self._stamp

    def solve(self) -> None:
        last = self.nd - 1
        for _ in range(self.cfg.iterations):
            self._refresh(last)
            for i in range(self.nd - 2, -1, -1):
                for tb in range(last, i, -1):
                    self._refresh(tb)
                self._refresh(i)
                for tf in range(i + 1, last + 1):
                    self._refresh(tf)
            self.trace.append(float(utility_check(self.z[self.nd], self.cfg).mean()))


def _solve_decisions(z0: np.ndarray, factors: np.ndarray, cfg: DpConfig) -> np.ndarray:
    """In-sample grid indices of one tranche, shape (decision times, paths).

    A module-level function, so a worker process can run it and send back
    the small index array rather than a :class:`PolicyModel` with its curves.
    """
    solver = _SnakeSolver(z0, factors, cfg)
    solver.solve()
    return solver.decisions


def _step_factors(inputs: SimulationInputs, frame: TargetFrame, cfg: DpConfig) -> np.ndarray:
    """Per (allocation, path, year) growth factor of the ratio Z.

    Column t holds the factor over (t-1, t]; column 0 is unused padding.
    """
    grid = np.asarray(cfg.grid, dtype=float)[:, None, None]
    x = inputs.scenarios.x[:, : inputs.T + 1][None, :, :]
    m = inputs.market.m[None, :, :]
    er = frame.er[None, :, :]
    with np.errstate(invalid="ignore"):
        factors = (grid * (1.0 + x) + (1.0 - grid) * (1.0 + m)) / (er * (1.0 + m))
    factors[:, :, 0] = 1.0
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
    """Solve the snake-pattern program for the tranche born in year ``tau``."""
    T = inputs.T
    if not 0 <= tau <= T - 1:
        raise ParameterError(f"tranche birth year {tau} leaves no decision before T={T}")
    if factors is None:
        factors = _step_factors(inputs, frame, cfg)
    solver = _SnakeSolver(frame.z0(tau), factors[:, :, tau + 1 : T + 1], cfg)
    solver.solve()
    return PolicyModel(
        cfg=cfg,
        times=np.arange(tau, T),
        z_nodes=solver.z_nodes,
        curves=solver.curves,
        decisions=solver.decisions,
        z_path=solver.z,
        utility_trace=solver.trace,
    )


@dataclass(frozen=True)
class CombinationStrategy:
    """Applies dynamic-programming policies to every contribution tranche.

    ``per-contribution`` mode re-solves the program for each tranche and
    uses its in-sample decisions; ``shared`` mode solves once for the first
    tranche and evaluates that policy's curves at every tranche's ratio.
    Either way the tranche kernel :func:`~pensionsim.strategies._run_tranches`,
    the one the individual rule uses, grows the tranches on their grid
    indices year by year; a last index, 0.0, converts them all at T.

    ``threads`` is the number of worker processes for the independent
    per-contribution tranche solves.  Above one, the tranches born at
    tau >= 1 go to forked workers, largest first, while this process solves
    tau = 0, the largest, through :func:`solve_policy`; at one, every solve
    runs here.  Each solve depends only on its own tranche, so results never
    depend on the worker count.
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

    def _tranche_decisions(self, inputs: SimulationInputs, frame: TargetFrame, factors) -> list:
        """In-sample grid indices of every tranche, indexed by birth year."""
        T = inputs.T

        def tranche(tau: int) -> tuple:
            return frame.z0(tau), factors[:, :, tau + 1 : T + 1], self.cfg

        if self.threads == 1 or T < 2:
            policy = solve_policy(inputs, frame, self.cfg, tau=0, factors=factors)
            return [policy.decisions] + [_solve_decisions(*tranche(tau)) for tau in range(1, T)]
        # imported here: the process machinery costs a package import ~11 ms
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork, whatever the platform default: workers inherit numpy and the
        # package instead of importing them again.  The one other thread is
        # the pool OpenBLAS starts when numpy is imported; its pthread_atfork
        # handler shuts that pool down before each fork, so no BLAS thread
        # or lock is copied mid-hold, and a process whose BLAS call wants
        # threads again starts a fresh pool
        pool = ProcessPoolExecutor(
            max_workers=min(self.threads, T - 1), mp_context=multiprocessing.get_context("fork")
        )
        try:
            # work falls with tau: the largest tranches go first, and this
            # process solves tau = 0, the largest of all, meanwhile
            futures = [pool.submit(_solve_decisions, *tranche(tau)) for tau in range(1, T)]
            policy = solve_policy(inputs, frame, self.cfg, tau=0, factors=factors)
            return [policy.decisions] + [f.result() for f in futures]
        finally:
            # on a failure the queued tranches are dropped; either way every
            # worker has exited and been reaped before this returns
            pool.shutdown(wait=True, cancel_futures=True)

    def run(self, inputs: SimulationInputs) -> StrategyOutcome:
        frame = TargetFrame.build(inputs, self.params)
        T = inputs.T
        x, m = inputs.scenarios.x, inputs.market.m
        factors = _step_factors(inputs, frame, self.cfg)
        # both modes hold their tranches year-major, (tau, path), like the
        # kernel's state, and hand the kernel (path, tau) indices
        if self.mode == "per-contribution":
            # decisions[tau][t - tau]: grid indices of the tranche born at tau
            decisions = self._tranche_decisions(inputs, frame, factors)

            def choose(t):
                return np.stack([decisions[tau][t - tau] for tau in range(t + 1)]).T
        else:
            policy = solve_policy(inputs, frame, self.cfg, tau=0, factors=factors)
            z = frame.z0(slice(None)).T.copy()

            def choose(t):
                born = z[: t + 1]
                # interp runs fastest on queries in path order, where
                # neighbouring tranches have close ratios
                idx = policy.choice_at(t, born.T)
                a, er = policy.grid[idx.T], frame.er[:, t + 1]
                born[...] = z_step(born, a, x[:, t + 1], m[:, t + 1], er)
                return idx

        conversion = len(self.cfg.grid)
        values = np.append(self.cfg.grid, 0.0)
        return _run_tranches(
            self.label, inputs, values, lambda t, live: conversion if t == T else choose(t)
        )
