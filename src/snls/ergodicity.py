"""Time averages, tightness profiles, invariant-measure fingerprints, decay fits.

The long-run program: time-averaged laws of bounded functionals approximate an
invariant measure; occupation fractions of V-norm balls witness tightness; in
the regime C1 = 0 with beta > C1~^2 / 2 every fingerprint collapses onto the
value of the functional at the zero field, and the mean mass decays at an
exponential rate that is exactly sum gamma_m^2 - 2 beta for scalar diagonal G.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from . import dynamics
from .spectral import SpectralField
from .dynamics import (
    ConfigurationError,
    EnsembleReport,
    SdeConfig,
    TrajectoryRecord,
    _prepare_initial,
    build_operators,
)

# Bounded functionals of the snapshot observables.  Each maps an observable
# table (name -> array) elementwise to an array of the same shape with range
# [0, 1], so it evaluates a batch table (name -> (rows, snapshots)) at once.

def min_mass_1(tab: Dict[str, np.ndarray]) -> np.ndarray:
    return np.minimum(tab["mass"], 1.0)


def tanh_v_norm_sq(tab: Dict[str, np.ndarray]) -> np.ndarray:
    return np.tanh(tab["v_norm_sq"])


PHI_REGISTRY: Dict[str, Callable[[Dict[str, np.ndarray]], np.ndarray]] = {
    "min_mass_1": min_mass_1,
    "tanh_v_norm_sq": tanh_v_norm_sq,
}


def radius_indicator(radius: float):
    """Indicator of ||u||_V > R as a registered-style functional."""
    rsq = float(radius) ** 2

    def phi(tab: Dict[str, np.ndarray]) -> np.ndarray:
        return (tab["v_norm_sq"] > rsq).astype(float)

    phi.__name__ = f"v_gt_{radius:g}"
    return phi


def resolve_phi(phi):
    """A functional from a registered name or a v_gt_<R> name; a callable passes through."""
    if callable(phi):
        return phi
    if phi in PHI_REGISTRY:
        return PHI_REGISTRY[phi]
    if phi.startswith("v_gt_"):
        return radius_indicator(float(phi[len("v_gt_"):]))
    raise ConfigurationError(f"unknown functional {phi!r}; "
                             f"registered: {sorted(PHI_REGISTRY)} and v_gt_<R>")


@dataclass
class TimeAverageReport:
    name: str
    burn_in: float
    window: Tuple[float, float]
    value: float
    quarters: Tuple[float, float, float, float]
    initial_tag: str = ""


@dataclass
class TightnessProfile:
    radii: np.ndarray
    fractions: np.ndarray


def trapezoid(y: np.ndarray, x: np.ndarray) -> float:
    """Trapezoid integral of y over the grid x (SciPy's trapezoid arithmetic)."""
    return float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2.0))


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)|.

    Evaluated at every sample point, as SciPy's ks_2samp does, so ties
    and saturated samples give its statistic exactly.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, both, side="right") / len(a)
                               - np.searchsorted(b, both, side="right") / len(b))))


def _window_average(times: np.ndarray, values: np.ndarray, t0: float, t1: float) -> float:
    lo = int(np.searchsorted(times, t0, side="left"))
    hi = int(np.searchsorted(times, t1, side="right"))
    sel_t, sel_v = times[lo:hi], values[lo:hi]
    if len(sel_t) == 0:
        raise ConfigurationError("averaging window contains no snapshots")
    if len(sel_t) == 1 or sel_t[-1] == sel_t[0]:
        return float(sel_v[0])
    return trapezoid(sel_v, sel_t) / (sel_t[-1] - sel_t[0])


def time_average(record: TrajectoryRecord, phi, burn_in: float,
                 initial_tag: str = "") -> TimeAverageReport:
    """Trapezoid average of phi over [burn_in, T], with quarter sub-averages."""
    phi = resolve_phi(phi)
    t = record.times
    T = float(t[-1])
    if burn_in >= T and T > 0.0:
        raise ConfigurationError("burn_in must be smaller than the final time")
    vals = phi(record.table)
    value = _window_average(t, vals, burn_in, T)
    span = T - burn_in
    quarters = tuple(
        _window_average(t, vals, burn_in + q * span / 4.0,
                        burn_in + (q + 1) * span / 4.0)
        for q in range(4)) if span > 0.0 else (value,) * 4
    return TimeAverageReport(name=getattr(phi, "__name__", "phi"), burn_in=burn_in,
                             window=(burn_in, T), value=value, quarters=quarters,
                             initial_tag=initial_tag)


def tightness_profile(record: TrajectoryRecord, radii: Sequence[float]) -> TightnessProfile:
    """Occupation fractions f(R) = fraction of time with ||u||_V > R."""
    radii = np.asarray(radii, dtype=float)
    if len(radii) and np.any(np.diff(radii) <= 0.0):
        raise ConfigurationError("radii must be strictly ascending")
    t = record.times
    fracs = [_window_average(t, radius_indicator(r)(record.table), t[0], t[-1]) for r in radii]
    return TightnessProfile(radii=radii, fractions=np.array(fracs))


# ---------------------------------------------------------------------------
# invariant-measure fingerprint

@dataclass
class FingerprintReport:
    phis: Tuple[str, ...]
    tags: Tuple[str, ...]
    values: np.ndarray          # (n_phi, n_init) time-averaged values
    pairwise_max: np.ndarray    # (n_phi,) max |value_i - value_j|
    ks_max: np.ndarray          # (n_phi,) max two-sample KS distance over pairs
    window: Tuple[float, float]


def invariant_fingerprint(cfg: SdeConfig, initial_data: Sequence[Tuple[str, SpectralField]],
                          phi_names: Sequence = ("min_mass_1", "tanh_v_norm_sq"),
                          ) -> FingerprintReport:
    """Time-averaged functionals per initial datum, with pairwise and KS discrepancies.

    All initial data run as one batch on noise stream 0, the stream `simulate`
    uses, so they differ only in where they start.  Each functional, given by
    name or as a callable labelled by its __name__, is evaluated once on the
    batch table.  The Kolmogorov-Smirnov distance compares the empirical
    distributions of the post-burn-in snapshot samples of each scalar
    functional across initial data.
    """
    if len(initial_data) < 2:
        raise ConfigurationError("fingerprint needs at least 2 initial data")
    n = len(initial_data)
    ops = build_operators(cfg)
    u0 = _prepare_initial(lambda j: initial_data[j][1], cfg, ops, range(n))
    # looked up on the module, so a wrapper installed there sees the call
    times, tables, _, _ = dynamics.integrate_paths(cfg, ops, u0, [0] * n)
    burn_in = cfg.burn_in_fraction * cfg.t_final
    keep = times >= burn_in

    phis = [resolve_phi(p) for p in phi_names]
    values = np.empty((len(phis), n))
    ks = np.zeros(len(phis))
    for i, phi in enumerate(phis):
        rows = phi(tables)
        values[i] = [_window_average(times, row, burn_in, times[-1]) for row in rows]
        ks[i] = max(ks_statistic(rows[a, keep], rows[b, keep])
                    for a, b in itertools.combinations(range(n), 2))
    return FingerprintReport(phis=tuple(getattr(p, "__name__", "phi") for p in phis),
                             tags=tuple(tag for tag, _ in initial_data), values=values,
                             pairwise_max=np.ptp(values, axis=1), ks_max=ks,
                             window=(burn_in, cfg.t_final))


# ---------------------------------------------------------------------------
# decay-rate fit

@dataclass
class DecayRateFit:
    rate: float
    stderr: float
    ci: Tuple[float, float]     # 95% interval, conservative of WLS and OLS widths
    n_points: int
    window: Tuple[float, float]
    warning: bool
    message: str = ""


def decay_rate_fit(report: EnsembleReport) -> DecayRateFit:
    """Least-squares slope of log E[mass(t)] over the full time window.

    Weighted by the per-point delta-method sigma (stderr/mean) when the
    ensemble carries noise; the returned interval is the wider of the WLS
    interval (chi-square inflated) and the plain OLS residual interval, since
    snapshot noise is serially correlated and WLS alone would understate it.
    """
    cfg, G = report.cfg, report.G
    if G.C1 != 0.0:
        raise ConfigurationError(
            f"decay-rate fit requires C1 = 0, but C1 = {G.C1:.6g} "
            f"for variant {cfg.g_variant!r}")

    t = report.times
    mean = report.mean["mass"]
    se = report.stderr["mass"]
    good = mean > 0.0
    warning = False
    msg = ""
    if not np.all(good):
        warning, msg = True, "non-positive mean mass excluded from the fit"
    t, mean, se = t[good], mean[good], se[good]
    if len(t) < 3:
        raise ConfigurationError("decay-rate fit needs at least 3 usable snapshots")

    y = np.log(mean)
    sig = np.where(mean > 0.0, se / mean, np.inf)
    if np.max(sig) == 0.0:
        w = np.ones_like(y)
    else:
        w = 1.0 / np.maximum(sig, 1e-12) ** 2
    W = np.sum(w)
    tbar = np.sum(w * t) / W
    ybar = np.sum(w * y) / W
    sxx = np.sum(w * (t - tbar) ** 2)
    slope = np.sum(w * (t - tbar) * (y - ybar)) / sxx
    intercept = ybar - slope * tbar
    resid = y - (intercept + slope * t)

    dof = len(t) - 2
    chi2 = np.sum(w * resid ** 2)
    inflate = max(1.0, math.sqrt(chi2 / dof)) if dof > 0 else 1.0
    se_wls = inflate / math.sqrt(sxx)
    sxx_o = np.sum((t - np.mean(t)) ** 2)
    se_ols = math.sqrt(max(np.sum(resid ** 2), 0.0) / max(dof, 1) / sxx_o)
    se_slope = max(se_wls, se_ols)

    if slope >= 0.0:
        warning = True
        msg = (msg + "; " if msg else "") + "mean mass is not decaying"
    return DecayRateFit(rate=float(slope), stderr=float(se_slope),
                        ci=(float(slope - 1.96 * se_slope), float(slope + 1.96 * se_slope)),
                        n_points=len(t), window=(float(t[0]), float(t[-1])),
                        warning=warning, message=msg)
