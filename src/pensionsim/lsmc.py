"""Cross-sectional conditional-expectation estimators.

Three tools, all operating across simulated scenarios rather than through
nested simulation:

* :func:`regress_now` — least-squares line of realized future payoffs on
  the current state (the classic simulation-regression step).
* :class:`LoessModel` / :func:`loess_eval` — local weighted polynomial
  regression with tri-cube weights over the ``k = ceil(d*n)`` nearest
  neighbours of the query point.  The fit is split into a design step
  (``_loess_geometry``: sort, windows, weights and moment sums for given
  training abscissae and query points) and an apply step (``_loess_apply``:
  a batch of response rows on that design, each window read as one
  contiguous block of the responses sorted path-major and every window's
  moment sums taken by one batched matmul).  This is the package's only
  LOESS; the dynamic-programming solver fits its expected-utility curves
  with the same two steps.
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


def _line_design(x: np.ndarray) -> np.ndarray:
    """The [1, x] design of a least-squares line."""
    return np.column_stack((np.ones_like(x), x))


def regress_now(x, y) -> np.ndarray:
    """Least-squares intercept and slope of y on x.

    The predictor is ``x -> coef[0] + coef[1] * x``.  A rank-deficient
    design (x constant) never raises: the fit falls back to the intercept
    alone and reports a zero slope.
    """
    x = np.asarray(x, dtype=float).ravel()
    y = np.asarray(y, dtype=float).ravel()
    if x.shape != y.shape:
        raise ParameterError(f"sample size mismatch: {x.shape} vs {y.shape}")
    if len(x) < 2:
        raise ParameterError(f"need at least 2 samples, got {len(x)}")
    design = _line_design(x)
    coef, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2:
        intercept = np.linalg.lstsq(design[:, :1], y, rcond=None)[0]
        coef = np.array([intercept[0], 0.0])
    return coef


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


@dataclass
class _LoessDesign:
    """Design-side factors of a LOESS fit: everything that depends only on
    the training abscissae and the query points.

    Splitting these from the response-side sums lets a caller re-fit the same
    design against fresh responses without redoing the sort, window search,
    tri-cube weights and normal-equation coefficients.

    The neighbours of query i are the ``win`` training points
    ``order[lo[i] : lo[i] + win]``: ``order`` sorts the abscissae (ties in
    input order) and every window is a contiguous run of the sorted sample,
    so the apply step sorts the responses once and reads each window as a
    slice.  ``ws[i, j]`` holds the weight of window point j and that weight
    times its centred abscissa (and times its square at degree 2): the
    columns of one (window, moment) matrix per query.
    """

    n_queries: int
    mean_only: bool = False
    order: np.ndarray | None = None
    lo: np.ndarray | None = None
    win: int = 0
    ws: np.ndarray | None = None
    nearest: np.ndarray | None = None
    s0: np.ndarray | None = None
    s1: np.ndarray | None = None
    s2: np.ndarray | None = None
    s3: np.ndarray | None = None
    s4: np.ndarray | None = None
    ok1: np.ndarray | None = None
    ok2: np.ndarray | None = None
    det1: np.ndarray | None = None
    det2: np.ndarray | None = None
    c22: np.ndarray | None = None
    c12: np.ndarray | None = None
    c11: np.ndarray | None = None
    none_mask: np.ndarray | None = None


def _windows(rows: np.ndarray, win: int) -> np.ndarray:
    """``sliding_window_view`` of C-contiguous ``rows`` over its first axis,
    shape (start, win, *rest), at a fraction of the call cost; the
    constructor checks the view against the array's bounds."""
    shape = (rows.shape[0] - win + 1, win) + rows.shape[1:]
    return np.ndarray(shape, rows.dtype, rows, 0, rows.strides[:1] + rows.strides)


def _loess_geometry(x: np.ndarray, queries: np.ndarray, d: float, degree: int) -> _LoessDesign:
    """Sort, windows, tri-cube weights and moment sums of a LOESS design.

    ``x`` holds the n training abscissae and ``queries`` the points the fit
    is evaluated at; ``d`` and ``degree`` are as in :class:`LoessModel`.
    """
    n = x.shape[0]
    # ties are ordered as a stable sort orders them, since the windows and
    # the nearest-value fallback read that order; without ties every sort
    # gives the one sorting permutation, and the default sort is faster
    order = np.argsort(x)
    xs = x.take(order)
    if n < 2 or xs[0] == xs[-1]:
        # one distinct training abscissa: every fit degenerates to the mean
        return _LoessDesign(n_queries=queries.shape[0], mean_only=True)
    if (xs[1:] == xs[:-1]).any():
        order = np.argsort(x, kind="stable")
        xs = x.take(order)

    k = _window_size(d, n)
    if k < n:
        # window-start boundaries: a query above (xs[s] + xs[s+k])/2 shifts
        # the k-nearest window from start s to s+1
        mids = (xs[: n - k] + xs[k:]) / 2.0
        lo = np.searchsorted(mids, queries, side="left")
        win = k
    else:
        lo = np.zeros(queries.shape, dtype=int)
        win = n
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
    wx = np.multiply(w, xc, out=ws[..., 1])
    s0 = w.sum(axis=1)
    s1 = wx.sum(axis=1)
    # u is free now: the higher moments are summed in its buffer
    s2 = np.multiply(wx, xc, out=u).sum(axis=1)

    none_mask = npos == 0
    want1 = npos >= 2  # at least degree-1 worth of support
    det1 = s0 * s2 - s1 * s1
    design = _LoessDesign(
        n_queries=queries.shape[0],
        order=order,
        lo=lo,
        win=win,
        ws=ws,
        s0=s0,
        s1=s1,
        s2=s2,
        ok1=want1 & (det1 > 1e-12 * s0 * s2),
        det1=det1,
        none_mask=none_mask,
    )
    if np.any(none_mask):
        design.nearest = np.argmin(np.abs(xc), axis=1)

    if degree == 2:
        ws[..., 2] = u
        u *= xc
        s3 = u.sum(axis=1)
        u *= xc
        s4 = u.sum(axis=1)
        want2 = npos >= 3
        c22 = s2 * s4 - s3 * s3
        c12 = s1 * s4 - s2 * s3
        c11 = s1 * s3 - s2 * s2
        det2 = s0 * c22 - s1 * c12 + s2 * c11
        design.s3, design.s4 = s3, s4
        design.ok2 = want2 & (det2 > 1e-10 * s0 * s2 * s4)
        design.det2 = det2
        design.c22, design.c12, design.c11 = c22, c12, c11
    return design


def _loess_apply(design: _LoessDesign, responses: np.ndarray) -> np.ndarray:
    """Fit each response row on a prepared design.

    ``responses`` has one row per fit and one column per training point;
    the result has one row per fit and one column per query point.
    """
    if design.mean_only:
        return np.repeat(responses.mean(axis=1)[:, None], design.n_queries, axis=1)
    # responses sorted path-major make each query's window one contiguous
    # (window, response) block; its transpose, a layout BLAS reads as is,
    # times the query's (window, moment) weights, one batched matmul, gives
    # every moment sum t[i, r, j] of every response row r at every query i
    yw = _windows(responses.T.take(design.order, axis=0), design.win)[design.lo]
    t = np.matmul(yw.transpose(0, 2, 1), design.ws)
    t0, t1 = t[..., 0].T, t[..., 1].T

    # a query without support or with a singular local design divides by
    # zero here; the fit it falls back to replaces that value
    with np.errstate(invalid="ignore", divide="ignore"):
        fits = np.where(design.ok1, (design.s2 * t0 - design.s1 * t1) / design.det1, t0 / design.s0)
        if design.ok2 is not None:
            t2 = t[..., 2].T
            s1, s2, s3, s4 = design.s1, design.s2, design.s3, design.s4
            num = t0 * design.c22 - s1 * (t1 * s4 - s3 * t2) + s2 * (t1 * s3 - s2 * t2)
            fits = np.where(design.ok2, num / design.det2, fits)

    if np.any(design.none_mask):
        # all tri-cube weights vanished (every neighbour sits exactly at the
        # cutoff distance): fall back to the nearest training value, lowest
        # x first on ties
        for i in np.nonzero(design.none_mask)[0]:
            fits[:, i] = yw[i, design.nearest[i]]
    return fits


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

    # internal: evaluate the fitted local polynomial at each query point
    def _evaluate(self, queries: np.ndarray) -> np.ndarray:
        q = np.asarray(queries, dtype=float).ravel()
        if q.size == 0:
            return np.empty(0)
        if not np.all(np.isfinite(q)):
            raise DomainError("query points must be finite")
        design = _loess_geometry(self._x, q, self.d, self.degree)
        return _loess_apply(design, self._y[None, :])[0]


def loess_batch(model: LoessModel, queries) -> np.ndarray:
    """Vectorized :func:`loess_eval` over an array of query points."""
    return model._evaluate(np.asarray(queries, dtype=float))


def loess_eval(model: LoessModel, x: float) -> float:
    """Local weighted polynomial fit evaluated at the single point x.

    Weights are ``T(dist_i / dist_(k))`` over *all* training points (zero at
    and beyond the k-th nearest distance).  Degenerate neighbourhoods degrade
    gracefully: fewer than degree+1 positively weighted points (or a
    numerically singular local design, e.g. duplicate x values) reduce the
    degree down to a weighted mean, and a query whose neighbours all sit at
    the exact cutoff distance returns the nearest training value.
    """
    return float(model._evaluate(np.array([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# Expected inflation
# ---------------------------------------------------------------------------


@dataclass
class InflationEstimator:
    """Per-(path, year) expected annual inflation table.

    ``rates[:, t]`` is I(T; t), the expected effective annual inflation over
    [t, T]: the cross-sectional least-squares line of future cumulative
    inflation ``prod_{k=t+1..T}(1+pi_k)`` on realized cumulative inflation
    ``cum[:, t] = prod_{k=1..t}(1+pi_k)`` (year-0 inflation is not
    compounded), its fitted level floored at ``floor`` and rooted with order
    ``T - (t+1)`` (the single-period level is used directly).  A constant
    regressor (t = 0) fits the cross-sectional mean alone.  The column at
    t = T carries the t = T-1 value forward (annuity pricing at retirement
    still needs an expected-inflation rate, and the same annual rate extends
    beyond the regression's last observation year).
    """

    T: int
    rates: np.ndarray   # (n_paths, T+1)
    cum: np.ndarray     # (n_paths, T+1)

    @classmethod
    def fit(cls, scenarios, T: int, floor: float = 0.5) -> "InflationEstimator":
        if not 1 <= T <= scenarios.horizon:
            raise DomainError(f"need 1 <= T <= horizon, got T={T}")
        growth = 1.0 + scenarios.pi[:, : T + 1]
        growth[:, 0] = 1.0
        cum = np.cumprod(growth, axis=1)
        rates = np.empty((scenarios.n_paths, T + 1))
        for t in range(T):
            x, y = cum[:, t], cum[:, T] / cum[:, t]
            # closed-form line; regress_now's lstsq differs in the last bits
            xm, ym = x.mean(), y.mean()
            xi1 = 0.0
            if np.ptp(x) > 0.0:
                xd = x - xm
                xi1 = float(np.dot(xd, y - ym) / np.dot(xd, xd))
            # the floor keeps the level (and 1 + I) positive before the root
            levels = np.maximum(xi1 * x + float(ym - xi1 * xm), floor)
            order = T - t - 1
            rates[:, t] = levels ** (1.0 / order) - 1.0 if order else levels - 1.0
        rates[:, T] = rates[:, T - 1]
        return cls(T=T, rates=rates, cum=cum)

    def annual_rate(self, t: int) -> np.ndarray:
        if not 0 <= t <= self.T:
            raise DomainError(f"t={t} outside 0..{self.T}")
        return self.rates[:, t]
