"""Economic scenario generation, ingestion and moment reporting.

The stochastic driver is a stationary first-order Gaussian vector
autoregression over four core variables: the equity return ``x``, price
inflation ``pi``, and the level and slope of the yield curve.  Unconditional
means, volatilities, correlations and AR(1) coefficients are direct
configuration targets: innovations are rescaled so that the stationary
distribution matches them exactly, and year 0 is drawn from the stationary
distribution itself.  Wage inflation is ``pi`` plus a constant spread, and the
curve of annually compounded spot rates at integer pillar maturities m is

    r^m = max(level + slope * ln(m / reference_maturity), floor).

Each path draws from an independent RNG substream keyed by ``(seed, path)``,
so a smaller run is a prefix of a larger one under the same seed.

A simulated set keeps that curve as its two factors, an ingested one as the
rate panel its CSV holds; ``ScenarioSet.rates`` reads either form and forms
only the pillars it is asked for.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SchemaError, ShapeError

__all__ = [
    "ModelParams",
    "ScenarioSet",
    "MomentReport",
    "simulate",
    "ingest",
    "export_csv",
    "summarize",
]

# Growth factors (1+x, 1+pi, 1+r^m) must stay positive for compounding;
# Gaussian tails are floored just above -100% (a >5-sigma event at defaults).
_GROWTH_FLOOR = -1.0 + 1e-9


@dataclass(frozen=True)
class ModelParams:
    """Targets and dynamics of the scenario model.

    Means/stds are *unconditional* (stationary) targets per variable; ``ar_*``
    are the AR(1) coefficients; ``corr_*`` fill the symmetric correlation
    matrix of the stationary distribution.  ``wage_spread`` is added to
    inflation to obtain wage inflation; the curve loading is
    ``ln(m / slope_reference)`` at pillar maturity m.
    """

    mean_x: float = 0.061
    mean_pi: float = 0.016
    mean_level: float = 0.025
    mean_slope: float = 0.005
    std_x: float = 0.183
    std_pi: float = 0.015
    std_level: float = 0.024
    std_slope: float = 0.004
    ar_x: float = 0.0
    ar_pi: float = 0.93
    ar_level: float = 0.969
    ar_slope: float = 0.95
    corr_x_pi: float = 0.11
    corr_x_level: float = 0.10
    corr_x_slope: float = 0.0
    corr_pi_level: float = 0.80
    corr_pi_slope: float = 0.0
    corr_level_slope: float = -0.30
    wage_spread: float = 0.005
    max_maturity: int = 30
    slope_reference: float = 10.0

    def means(self) -> np.ndarray:
        return np.array([self.mean_x, self.mean_pi, self.mean_level, self.mean_slope])

    def stds(self) -> np.ndarray:
        return np.array([self.std_x, self.std_pi, self.std_level, self.std_slope])

    def ars(self) -> np.ndarray:
        return np.array([self.ar_x, self.ar_pi, self.ar_level, self.ar_slope])

    def correlation(self) -> np.ndarray:
        c = np.eye(4)
        c[0, 1] = c[1, 0] = self.corr_x_pi
        c[0, 2] = c[2, 0] = self.corr_x_level
        c[0, 3] = c[3, 0] = self.corr_x_slope
        c[1, 2] = c[2, 1] = self.corr_pi_level
        c[1, 3] = c[3, 1] = self.corr_pi_slope
        c[2, 3] = c[3, 2] = self.corr_level_slope
        return c

    def validate(self) -> None:
        """Raise :class:`ParameterError` on any inconsistency."""
        if not np.all(np.isfinite(self.means())):
            raise ParameterError("model means must be finite")
        if np.any(self.stds() < 0) or not np.all(np.isfinite(self.stds())):
            raise ParameterError("volatilities must be finite and >= 0")
        if np.any(np.abs(self.ars()) >= 1):
            raise ParameterError("AR(1) coefficients must satisfy |phi| < 1")
        corr = self.correlation()
        if np.any(np.abs(corr) > 1):
            raise ParameterError("correlations must lie in [-1, 1]")
        _psd_factor(corr, "correlation matrix")
        _psd_factor(self.innovation_covariance(), "innovation covariance")
        if self.max_maturity < 1:
            raise ParameterError("max_maturity must be >= 1")
        if self.slope_reference <= 0:
            raise ParameterError("slope_reference must be > 0")

    def stationary_covariance(self) -> np.ndarray:
        s = self.stds()
        return self.correlation() * np.outer(s, s)

    def innovation_covariance(self) -> np.ndarray:
        """Covariance of the AR(1) innovations implied by the stationary targets."""
        phi = self.ars()
        return self.stationary_covariance() * (1.0 - np.outer(phi, phi))

    def curve_loadings(self) -> np.ndarray:
        m = np.arange(1, self.max_maturity + 1, dtype=float)
        return np.log(m / self.slope_reference)


def _psd_factor(cov: np.ndarray, what: str) -> np.ndarray:
    """Return L with L @ L.T == cov, tolerating exact semi-definiteness."""
    vals, vecs = np.linalg.eigh(cov)
    tol = -1e-10 * max(abs(vals[-1]), 1.0)
    if vals[0] < tol:
        raise ParameterError(
            f"{what} is not positive semi-definite (min eigenvalue {vals[0]:.3e})"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


@dataclass
class ScenarioSet:
    """Rectangular panel of economic states over (path, year).

    Arrays are indexed ``[path, year]`` with years ``0..horizon`` inclusive.
    The yield curve at pillar maturities ``1..n_pillars`` takes one form: a
    set from :func:`simulate` holds the VAR factors ``level`` and ``slope``
    and the pillar ``loadings``, one from :func:`ingest` the ``panel``
    ``[path, year, pillar-1]`` of its file's rates.  :meth:`rates` reads
    either form; ``curves`` gives the whole panel, built anew on each read
    of a simulated set.
    Instances are treated as immutable after construction.
    """

    n_paths: int
    horizon: int
    x: np.ndarray
    pi: np.ndarray
    w: np.ndarray
    level: np.ndarray | None = None
    slope: np.ndarray | None = None
    loadings: np.ndarray | None = None
    panel: np.ndarray | None = None
    wage_spread: float = 0.005

    def __post_init__(self) -> None:
        shape = (self.n_paths, self.horizon + 1)
        held = tuple(k for k in ("level", "slope", "loadings", "panel") if getattr(self, k) is not None)
        if held not in (("level", "slope", "loadings"), ("panel",)):
            raise ShapeError(f"need either a rate panel or level, slope and loadings, got {held}")
        factored = self.panel is None
        for name in ("x", "pi", "w") + (("level", "slope") if factored else ()):
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {shape}")
        if factored and (self.loadings.ndim != 1 or self.loadings.size < 1):
            raise ShapeError(f"loadings has shape {self.loadings.shape}, expected (n_pillars,)")
        if not factored and (self.panel.ndim != 3 or self.panel.shape[:2] != shape):
            raise ShapeError(
                f"curves has shape {self.panel.shape}, expected {shape} x n_pillars"
            )
        if self.n_paths < 1 or self.horizon < 1:
            raise ShapeError("need n_paths >= 1 and horizon >= 1")
        for name in ("x", "pi", "w") + held:
            arr = getattr(self, name)
            if not np.all(np.isfinite(arr)):
                raise ShapeError(f"{name} contains non-finite values")
        if factored:
            # a floored rate is monotone in the loading, so the pillars of the
            # least and the greatest loading bound every rate of the curve
            with np.errstate(over="ignore"):
                edges = self._curve(np.s_[:], [self.loadings.argmin(), self.loadings.argmax()])
            if not np.all(np.isfinite(edges)):
                raise ShapeError("curves contains non-finite values")
        if np.any(self.x <= -1) or np.any(self.pi <= -1):
            raise ShapeError("growth factors 1+x and 1+pi must stay positive")

    @property
    def n_pillars(self) -> int:
        return self.loadings.size if self.panel is None else self.panel.shape[2]

    @property
    def curves(self) -> np.ndarray:
        """The whole ``[path, year, pillar-1]`` rate panel."""
        return self._curve(np.s_[:])

    def rates(self, year: int, maturities) -> np.ndarray:
        """Spot rates taken into a new ``(n_paths, len(maturities))`` array, at
        a ``year`` in 0..horizon for whole-year maturities >= 1, flat past the
        last pillar; any other year or maturity raises ParameterError."""
        q = np.atleast_1d(np.asarray(maturities, dtype=float))
        # a NaN maturity fails the comparison
        if not (0 <= year <= self.horizon and np.all((q >= 1.0) & (q == np.floor(q)))):
            raise ParameterError(
                f"need a year in 0..{self.horizon} and whole maturities >= 1, got {year}, {q}"
            )
        pillars = np.minimum(q, self.n_pillars).astype(np.intp) - 1
        return self._curve(np.s_[:, year], pillars)

    def _curve(self, cells, pillars=np.s_[:]) -> np.ndarray:
        """Rates at the ``(path, year)`` cells ``cells`` and the pillar
        indices ``pillars``; the one reader that knows the set's form."""
        if self.panel is not None:
            return self.panel[cells][..., pillars]
        # slope * loading, then + level, then the floor: the same steps in
        # the same order for every rate, so each keeps its bits
        r = self.slope[cells][..., None] * self.loadings[pillars]
        r += self.level[cells][..., None]
        return np.maximum(r, _GROWTH_FLOOR, out=r)


def simulate(
    params: ModelParams,
    n_paths: int,
    horizon: int,
    seed: int,
) -> ScenarioSet:
    """Generate a ScenarioSet from the VAR(1) surrogate model.

    Parameters
    ----------
    params : ModelParams
        Validated model targets and dynamics.
    n_paths, horizon : int
        Panel dimensions; years run 0..horizon inclusive.
    seed : int
        Master seed; path p consumes the substream keyed by (seed, p).
    """
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    if horizon < 1:
        raise ParameterError("horizon must be >= 1")
    params.validate()

    mu = params.means()
    phi = params.ars()
    l_stat = _psd_factor(params.stationary_covariance(), "stationary covariance")
    l_innov = _psd_factor(params.innovation_covariance(), "innovation covariance")

    # one block: each year's state is written over its noise once the right side is formed
    state = np.empty((n_paths, horizon + 1, 4))
    for p in range(n_paths):
        state[p] = np.random.default_rng([seed, p]).standard_normal((horizon + 1, 4))
    state[:, 0] = mu + state[:, 0] @ l_stat.T
    for t in range(1, horizon + 1):
        state[:, t] = mu + (state[:, t - 1] - mu) * phi + state[:, t] @ l_innov.T

    x = np.maximum(state[..., 0], _GROWTH_FLOOR)
    pi = np.maximum(state[..., 1], _GROWTH_FLOOR)
    w = pi + params.wage_spread
    return ScenarioSet(
        n_paths=n_paths,
        horizon=horizon,
        x=x,
        pi=pi,
        w=w,
        level=state[..., 2].copy(),
        slope=state[..., 3].copy(),
        loadings=params.curve_loadings(),
        wage_spread=params.wage_spread,
    )


# ---------------------------------------------------------------------------
# CSV export / ingestion
#
# Schema: header `path,t,x,pi,w,r1,...,rK`, one row per (path, year), UTF-8,
# LF line endings.  Floats are written with repr (shortest round-trip), so
# export -> ingest reproduces the arrays bit-exactly.
# ---------------------------------------------------------------------------


_EXPORT_BLOCK = 256  # paths per block of rows formed at once


def export_csv(scenarios: ScenarioSet, path: str) -> None:
    """Write the set to ``path`` in the scenario CSV schema."""
    npil = scenarios.n_pillars
    header = "path,t,x,pi,w," + ",".join(f"r{m}" for m in range(1, npil + 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for p0 in range(0, scenarios.n_paths, _EXPORT_BLOCK):
            paths = np.s_[p0 : p0 + _EXPORT_BLOCK]
            columns = tuple(a[paths, :, None] for a in (scenarios.x, scenarios.pi, scenarios.w))
            block = np.concatenate(columns + (scenarios._curve(paths),), axis=2)
            for p, rows in enumerate(block, start=p0):
                # Python floats, so each cell is the shortest round-trip repr
                for t, row in enumerate(rows.tolist()):
                    fh.write(f"{p},{t}," + ",".join(map(repr, row)) + "\n")


def ingest(path: str, wage_spread: float = 0.005) -> ScenarioSet:
    """Read a scenario CSV produced by :func:`export_csv` (or hand-written).

    The ``w`` column is optional; when absent it is reconstructed as
    ``pi + wage_spread``.  Pillar columns must be contiguous ``r1..rK``, and
    ``path`` and ``t`` must hold whole numbers.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header_line = fh.readline()
        if not header_line:
            raise SchemaError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([header_line]))]
        data = _read_numeric_rows(fh, path, len(header))

    cols = {name: i for i, name in enumerate(header)}
    if len(cols) != len(header):
        raise SchemaError(f"{path}: duplicate column names in header")
    for required in ("path", "t", "x", "pi"):
        if required not in cols:
            raise SchemaError(f"{path}: missing required column '{required}'")
    pillars = []
    m = 1
    while f"r{m}" in cols:
        pillars.append(cols[f"r{m}"])
        m += 1
    if not pillars:
        raise SchemaError(f"{path}: missing required column 'r1'")
    known = {"path", "t", "x", "pi", "w"} | {f"r{i}" for i in range(1, len(pillars) + 1)}
    unknown = [h for h in header if h not in known]
    if unknown:
        raise SchemaError(f"{path}: unknown column '{unknown[0]}'")

    keys = data[:, [cols["path"], cols["t"]]]
    if not np.all(np.isfinite(keys) & (keys == np.floor(keys))):
        raise SchemaError(f"{path}: path and t must be whole numbers")
    path_ids, years = keys.astype(int).T
    ids = np.unique(path_ids)
    n = len(ids)
    if not np.array_equal(ids, np.arange(n)):
        raise ShapeError(f"{path}: path ids must be contiguous 0..{n - 1}")
    counts = np.bincount(path_ids, minlength=n)
    if counts.min() != counts.max():
        bad = int(np.argmin(counts) if counts.min() != counts[0] else np.argmax(counts))
        raise ShapeError(f"{path}: ragged paths (path {bad} has {counts[bad]} rows)")
    horizon = counts[0] - 1
    if horizon < 1:
        raise ShapeError(f"{path}: need at least two years per path")

    # order rows by (path, t) and check year coverage
    order = np.lexsort((years, path_ids))
    data = data[order]
    years = years[order]
    expected_years = np.tile(np.arange(horizon + 1), n)
    if not np.array_equal(years, expected_years):
        bad = int(path_ids[order][years != expected_years][0])
        raise ShapeError(f"{path}: path {bad} does not cover years 0..{horizon}")

    def grab(ci: int) -> np.ndarray:
        return data[:, ci].reshape(n, horizon + 1)

    x = grab(cols["x"])
    pi = grab(cols["pi"])
    w = grab(cols["w"]) if "w" in cols else pi + wage_spread
    curves = np.stack([grab(ci) for ci in pillars], axis=2)
    return ScenarioSet(
        n_paths=n,
        horizon=horizon,
        x=x,
        pi=pi,
        w=w,
        panel=curves,
        wage_spread=wage_spread,
    )


def _read_numeric_rows(fh, path: str, width: int) -> np.ndarray:
    try:
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise SchemaError(f"{path}: malformed numeric data ({exc})") from exc
    if data.size == 0:
        raise SchemaError(f"{path}: no data rows")
    if data.shape[1] != width:
        raise SchemaError(
            f"{path}: rows have {data.shape[1]} columns, header has {width}"
        )
    return data


# ---------------------------------------------------------------------------
# Moment report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MomentReport:
    """Pooled sample moments over all (path, year) cells.

    ``correlation[i, j]`` pairs ``names[i]`` with ``names[j]``; undefined
    correlations (zero variance) are reported as NaN.
    """

    names: tuple[str, ...]
    means: np.ndarray
    stds: np.ndarray
    correlation: np.ndarray

    def mean(self, name: str) -> float:
        return float(self.means[self.names.index(name)])

    def std(self, name: str) -> float:
        return float(self.stds[self.names.index(name)])

    def corr(self, a: str, b: str) -> float:
        return float(self.correlation[self.names.index(a), self.names.index(b)])

    def csv_lines(self) -> list[str]:
        lines = ["stat,a,b,value"]
        for i, name in enumerate(self.names):
            lines.append(f"mean,{name},,{repr(float(self.means[i]))}")
        for i, name in enumerate(self.names):
            lines.append(f"std,{name},,{repr(float(self.stds[i]))}")
        for i in range(len(self.names)):
            for j in range(i + 1, len(self.names)):
                val = float(self.correlation[i, j])
                lines.append(f"corr,{self.names[i]},{self.names[j]},{repr(val)}")
        return lines

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(self.csv_lines()))
            fh.write("\n")


def summarize(scenarios: ScenarioSet) -> MomentReport:
    """Pooled means, stds and Pearson correlations of the panel variables.

    Reports ``x``, the 10-year rate ``r10``, ``pi`` and ``w``, each pooled
    over every path and every year 0..horizon.  Standard deviations use the
    n-1 normalization.

    Generated sets satisfy ``w == pi + wage_spread`` elementwise; in that case
    w's standard deviation and correlations are copied from pi (they are
    mathematically identical), which keeps corr(pi, w) exactly 1 instead of
    1 - O(1e-16) from round-off.
    """
    names = ("x", "r10", "pi", "w")
    # maturity 10 is pillar 10 when available, else flat beyond the last pillar
    r10 = scenarios._curve(np.s_[:], [min(10, scenarios.n_pillars) - 1])
    sample = np.stack([a.ravel() for a in (scenarios.x, r10, scenarios.pi, scenarios.w)])
    means = sample.mean(axis=1)
    stds = sample.std(axis=1, ddof=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(sample)
    corr = np.where(np.isfinite(corr), corr, np.nan)
    np.fill_diagonal(corr, 1.0)

    exact_shift = np.array_equal(scenarios.w, scenarios.pi + scenarios.wage_spread)
    if exact_shift:
        iw, ip = names.index("w"), names.index("pi")
        stds[iw] = stds[ip]
        corr[iw, :] = corr[ip, :]
        corr[:, iw] = corr[:, ip]
        corr[iw, ip] = corr[ip, iw] = 1.0
        corr[iw, iw] = 1.0
    return MomentReport(names=names, means=means, stds=stds, correlation=corr)
