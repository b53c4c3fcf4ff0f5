"""Cross-sectional conditional-expectation estimators.

Three tools, all operating across simulated scenarios rather than through
nested simulation:

* :func:`regress_now` — the closed-form least-squares line of realized
  future payoffs on the current state (the classic simulation-regression
  step); the inflation table and the market-factor estimate both fit it.
* :class:`LoessModel` / :func:`loess_eval` — local weighted polynomial
  regression with tri-cube weights over the ``k = ceil(d*n)`` nearest
  neighbours of the query point.  One call, ``_loess``, fits a batch of
  response rows on shared training abscissae: the sort, windows and weights
  and each query's fit rule (nearest value, mean, line or quadratic, settled
  as one coefficient row) depend only on the abscissae and the queries, and
  every row's fit then reads each window as one contiguous block of the
  responses sorted path-major, takes every window's moment sums by one
  batched matmul and contracts them with its query's coefficient row.  This
  is the package's only LOESS; the dynamic-programming solver fits its
  expected-utility curves with the same call.
* :class:`InflationEstimator` — the per-(path, year) table of expected
  annual inflation, one cumulative-inflation cross-sectional line fit per
  observation year.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "regress_now",
    "tricube_weight",
    "LoessModel",
    "loess_eval",
    "loess_batch",
    "InflationEstimator",
]


def ceil_int(value: float) -> int:
    """ceil() that forgives binary float fuzz on mathematically integral inputs.

    0.2 * 2000 evaluates to 400.00000000000006; the intended count is 400,
    not 401.  Rounding to 9 decimals first removes that artifact while leaving
    genuinely fractional products untouched.
    """
    return int(math.ceil(round(value, 9)))


# ---------------------------------------------------------------------------
# Global regression
# ---------------------------------------------------------------------------


def regress_now(x, y) -> np.ndarray:
    """Least-squares intercept and slope of y on x, in closed form.

    The predictor is ``x -> coef[0] + coef[1] * x``.  The slope is the
    centred cross product over the centred sum of squares; a constant x
    never raises, and gives a zero slope and the mean of y.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ParameterError(f"sample size mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ParameterError(f"need at least 2 samples, got {len(x)}")
    xm, ym = x.mean(), y.mean()
    slope = 0.0
    if np.ptp(x) > 0.0:
        xd = x - xm
        slope = float(np.dot(xd, y - ym) / np.dot(xd, xd))
    return np.array([ym - slope * xm, slope])


# ---------------------------------------------------------------------------
# Local regression
# ---------------------------------------------------------------------------


def tricube_weight(u):
    """Tri-cube kernel: (1-u^3)^3 on [0, 1), zero on [1, inf)."""
    arr = np.asarray(u, dtype=float)
    if np.any(arr < 0):
        raise DomainError("tri-cube weight is defined for u >= 0 only")
    w = _tricube(np.minimum(np.atleast_1d(arr), 1.0)).reshape(arr.shape)
    return w if isinstance(u, np.ndarray) else float(w)


def _tricube(c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """(1-c^3)^3 for an array c in [0, 1], by multiplies into ``out``."""
    t = c * c
    t *= c
    np.subtract(1.0, t, out=t)
    out = np.multiply(t, t, out=out)
    out *= t
    return out


def _window_size(d: float, n: int) -> int:
    """k = ceil(d * n): the number of nearest neighbours a LOESS fit weights."""
    return min(max(ceil_int(d * n), 1), n)


def _windows(rows: np.ndarray, win: int) -> np.ndarray:
    """``sliding_window_view`` of C-contiguous ``rows`` over its first axis,
    shape (start, win, *rest), at a fraction of the call cost; the
    constructor checks the view against the array's bounds."""
    shape = (rows.shape[0] - win + 1, win) + rows.shape[1:]
    return np.ndarray(shape, rows.dtype, rows, 0, rows.strides[:1] + rows.strides)


def _loess(
    x: np.ndarray, queries: np.ndarray, d: float, degree: int, responses: np.ndarray
) -> np.ndarray:
    """LOESS fits of every response row at every query point.

    ``x`` holds the n training abscissae, ``queries`` the points the fit is
    evaluated at and ``responses`` one row per fit and one column per
    training point; ``d`` and ``degree`` are as in :class:`LoessModel`.  The
    result has one row per fit and one column per query.  Each query takes
    the local quadratic (degree 2) or line where its support and local
    design allow it, and the weighted mean otherwise.

    The neighbours of query i are the ``win`` training points
    ``order[lo[i] : lo[i] + win]``: ``order`` sorts the abscissae and every
    window is a contiguous run of the sorted sample.  ``ws[i, j]`` holds the
    weight of window point j and that weight times its centred abscissa (and
    times its square at degree 2): the columns of one (window, moment)
    matrix per query.  ``coef[i]`` is the first row of the inverse of query
    i's local normal equations for the fit it takes, so its fitted value is
    ``coef[i]`` dotted with its response moment sums.
    """
    n = x.shape[0]
    # ties are ordered as a stable sort orders them, since the windows and
    # the nearest-value fit read that order; without ties every sort gives
    # the one sorting permutation, and the default sort is faster
    order = np.argsort(x)
    xs = x.take(order)
    if n < 2 or xs[0] == xs[-1]:
        # one distinct training abscissa: every fit degenerates to the mean
        return np.repeat(responses.mean(axis=1)[:, None], queries.shape[0], axis=1)
    if (xs[1:] == xs[:-1]).any():
        order = np.argsort(x, kind="stable")
        xs = x.take(order)

    win = _window_size(d, n)
    # window-start boundaries: a query above (xs[s] + xs[s+k])/2 shifts the
    # k-nearest window from start s to s+1; a window of all n has none
    mids = (xs[: n - win] + xs[win:]) / 2.0
    lo = np.searchsorted(mids, queries, side="left")
    xc = _windows(xs, win)[lo]
    xc -= queries[:, None]
    # u = dist / dk lies in [0, 1].  Where the k nearest points all coincide
    # with the query (dk = 0) every distance is 0, and so every weight is 1.
    # A window is sorted, so its largest distance sits at one of its ends
    u = np.abs(xc)
    dk = np.maximum(u[:, 0], u[:, -1])
    u /= np.where(dk == 0.0, 1.0, dk)[:, None]
    # a tri-cube weight is positive exactly where u < 1: below 1 the rounded
    # u^3 stays below 1, and the cube of 1 - u^3 >= 2^-53 cannot underflow
    npos = np.count_nonzero(u < 1.0, axis=1)
    ws = np.empty(xc.shape + (degree + 1,))
    w = _tricube(u, out=ws[..., 0])
    # no support (every neighbour exactly at the cutoff distance): one-hot
    # weights on the sorted window's first point, the nearest x (the lowest
    # on ties), give s0 = 1, so the mean's coefficient row copies its value
    w[npos == 0, 0] = 1.0
    wx = np.multiply(w, xc, out=ws[..., 1])
    s0 = w.sum(axis=1)
    s1 = wx.sum(axis=1)
    # u is free now: the higher moments are summed in its buffer
    s2 = np.multiply(wx, xc, out=u).sum(axis=1)

    # the mean, or the line where its support and local design allow it
    coef = np.zeros((queries.shape[0], degree + 1))
    np.divide(1.0, s0, out=coef[:, 0])
    det1 = s0 * s2 - s1 * s1
    ok1 = (npos >= 2) & (det1 > 1e-12 * s0 * s2)
    np.divide((s2, -s1), det1, out=coef[:, :2].T, where=ok1)

    if degree == 2:
        ws[..., 2] = u
        u *= xc
        s3 = u.sum(axis=1)
        u *= xc
        s4 = u.sum(axis=1)
        c22 = s2 * s4 - s3 * s3
        c12 = s1 * s4 - s2 * s3
        c11 = s1 * s3 - s2 * s2
        det2 = s0 * c22 - s1 * c12 + s2 * c11
        ok2 = (npos >= 3) & (det2 > 1e-10 * s0 * s2 * s4)
        np.divide((c22, -c12, c11), det2, out=coef.T, where=ok2)
    # locals live until the return: without this the window gather would
    # hold two (query, window) arrays more at its peak
    del xc, u
    # responses sorted path-major make each query's window one contiguous
    # (window, response) block; its transpose, a layout BLAS reads as is,
    # times the query's (window, moment) weights, one batched matmul, gives
    # every moment sum t[i, r, j] of every response row r at every query i;
    # each query's coefficients turn its sums into its fitted value
    yw = _windows(responses.T.take(order, axis=0), win)[lo]
    t = np.matmul(yw.transpose(0, 2, 1), ws)
    return np.einsum("irj,ij->ri", t, coef)


class LoessModel:
    """Training sample plus neighbourhood configuration for local regression.

    Parameters
    ----------
    x, y : arrays of equal length n >= degree + 1.
    d : neighbourhood share in (0, 1]; k = ceil(d * n) points receive
        non-trivial weight at each query.
    degree : local polynomial degree, 1 or 2.
    """

    def __init__(self, x, y, d: float = 0.2, degree: int = 1):
        x = np.asarray(x, dtype=float).ravel()
        y = np.asarray(y, dtype=float).ravel()
        if x.shape != y.shape:
            raise ParameterError("x and y must have equal length")
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(y)):
            raise ParameterError("training data must be finite")
        if not 0.0 < d <= 1.0:
            raise ParameterError(f"neighbourhood parameter d={d} outside (0, 1]")
        if degree not in (1, 2):
            raise ParameterError(f"degree must be 1 or 2, got {degree}")
        if len(x) < degree + 1:
            raise ParameterError(f"need at least degree+1={degree + 1} points")
        self.d = float(d)
        self.degree = int(degree)
        self.n = len(x)
        self.k = _window_size(self.d, self.n)
        self._x = x
        self._y = y


def loess_batch(model: LoessModel, queries) -> np.ndarray:
    """Vectorized :func:`loess_eval` over an array of query points."""
    q = np.asarray(queries, dtype=float).ravel()
    if not np.all(np.isfinite(q)):
        raise DomainError("query points must be finite")
    return _loess(model._x, q, model.d, model.degree, model._y[None, :])[0]


def loess_eval(model: LoessModel, x: float) -> float:
    """Local weighted polynomial fit evaluated at the single point x.

    Weights are ``T(dist_i / dist_(k))`` over *all* training points (zero at
    and beyond the k-th nearest distance).  Degenerate neighbourhoods degrade
    gracefully: fewer than degree+1 positively weighted points (or a
    numerically singular local design, e.g. duplicate x values) reduce the
    degree down to a weighted mean, and a query whose neighbours all sit at
    the exact cutoff distance returns the nearest training value.
    """
    return float(loess_batch(model, [x])[0])


# ---------------------------------------------------------------------------
# Expected inflation
# ---------------------------------------------------------------------------


@dataclass
class InflationEstimator:
    """Per-(path, year) expected annual inflation table, (n_paths, T + 1).

    ``rates[:, t]`` is I(T; t), the expected effective annual inflation over
    [t, T]: the cross-sectional least-squares line of future cumulative
    inflation ``prod_{k=t+1..T}(1+pi_k)`` on realized cumulative inflation
    ``prod_{k=1..t}(1+pi_k)`` (year-0 inflation is not compounded; ``fit``
    keeps no panel but ``rates``), its fitted level floored at ``floor`` and
    rooted with order ``T - (t+1)`` (the single-period level is used
    directly).  A constant regressor (t = 0) fits the cross-sectional mean
    alone.  The column at t = T carries the t = T-1 value forward (annuity
    pricing at retirement still needs an expected-inflation rate, and the
    same annual rate extends beyond the regression's last observation year).
    """

    rates: np.ndarray

    @classmethod
    def fit(cls, scenarios, T: int, floor: float = 0.5) -> "InflationEstimator":
        if not 1 <= T <= scenarios.horizon:
            raise ParameterError(f"need 1 <= T <= horizon {scenarios.horizon}, got T={T}")
        # NaN fails the comparison
        if not floor > 0.0:
            raise ParameterError(f"inflation floor must be positive, got {floor}")
        growth = 1.0 + scenarios.pi[:, : T + 1]
        growth[:, 0] = 1.0
        cum = np.cumprod(growth, axis=1)
        rates = np.empty((scenarios.n_paths, T + 1))
        for t in range(T):
            x = cum[:, t]
            intercept, slope = regress_now(x, cum[:, T] / x)
            # the floor keeps the level (and 1 + I) positive before the root
            levels = np.maximum(slope * x + intercept, floor)
            order = T - t - 1
            rates[:, t] = levels ** (1.0 / order) - 1.0 if order else levels - 1.0
        rates[:, T] = rates[:, T - 1]
        return cls(rates=rates)

    def annual_rate(self, t: int) -> np.ndarray:
        T = self.rates.shape[1] - 1
        if not 0 <= t <= T:
            raise DomainError(f"t={t} outside 0..{T}")
        return self.rates[:, t]
