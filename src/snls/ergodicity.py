"""Time averages, invariant-measure fingerprints, decay fits.

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
from typing import Dict, Sequence, Tuple

import numpy as np

from . import dynamics
from .spectral import SpectralField
from .dynamics import (
    ConfigurationError,
    EnsembleReport,
    SdeConfig,
    _prepare_initial,
    build_operators,
)

# Bounded functionals of the snapshot observables, labelled by __name__.  Each
# maps an observable table (name -> array) elementwise to an array of the same
# shape with range [0, 1], so it evaluates a batch table (name -> (rows,
# snapshots)) at once.

def min_mass_1(tab: Dict[str, np.ndarray]) -> np.ndarray:
    return np.minimum(tab["mass"], 1.0)


def tanh_v_norm_sq(tab: Dict[str, np.ndarray]) -> np.ndarray:
    return np.tanh(tab["v_norm_sq"])


def radius_indicator(radius: float):
    """Indicator of ||u||_V > R, labelled v_gt_<R>; its time average is an occupation fraction."""
    if not radius >= 0.0:
        raise ConfigurationError(f"radius must be non-negative, got {radius}")
    rsq = float(radius) ** 2

    def phi(tab: Dict[str, np.ndarray]) -> np.ndarray:
        return (tab["v_norm_sq"] > rsq).astype(float)

    phi.__name__ = f"v_gt_{radius:g}"
    return phi


def trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Trapezoid integral of y over the grid x along y's last axis (SciPy's arithmetic)."""
    return np.sum(np.diff(x) * (y[..., 1:] + y[..., :-1]) / 2.0, axis=-1)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup_x |F_a(x) - F_b(x)|.

    Evaluated at every sample point, as SciPy's ks_2samp does, so ties
    and saturated samples give its statistic exactly.
    """
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, both, side="right") / len(a)
                               - np.searchsorted(b, both, side="right") / len(b))))


def time_average(times: np.ndarray, values: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """Trapezoid average over the snapshots with t0 <= t <= t1, along values' last axis.

    values has shape (..., len(times)); the result has its leading shape.  A
    window without snapshots raises; a window of one snapshot time gives the
    values at it.
    """
    lo = int(np.searchsorted(times, t0, side="left"))
    hi = int(np.searchsorted(times, t1, side="right"))
    sel_t, sel_v = times[lo:hi], values[..., lo:hi]
    if len(sel_t) == 0:
        raise ConfigurationError("averaging window contains no snapshots")
    if len(sel_t) == 1 or sel_t[-1] == sel_t[0]:
        return sel_v[..., 0]
    return trapezoid(sel_v, sel_t) / (sel_t[-1] - sel_t[0])


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
                          phis: Sequence = (min_mass_1, tanh_v_norm_sq)) -> FingerprintReport:
    """Time-averaged functionals per initial datum, with pairwise and KS discrepancies.

    All initial data run as one batch on noise stream 0, the stream `simulate`
    uses, so they differ only in where they start.  Each functional is
    evaluated once on the batch table and averaged over [burn-in, T] in one
    time_average call.  The Kolmogorov-Smirnov distance compares the empirical
    distributions of the post-burn-in snapshot samples of each scalar
    functional across initial data.
    """
    if len(initial_data) < 2:
        raise ConfigurationError("fingerprint needs at least 2 initial data")
    # the report, and fingerprint.csv, key their rows by label
    names = tuple(phi.__name__ for phi in phis)
    for name in names:
        if names.count(name) > 1:
            raise ConfigurationError(f"two functionals share the label {name!r} "
                                     "(radii are labelled to 6 significant digits)")
    n = len(initial_data)
    ops = build_operators(cfg)
    u0 = _prepare_initial([field for _, field in initial_data], cfg, ops)
    # looked up on the module, so a wrapper installed there sees the call
    times, tables, _, _ = dynamics.integrate_paths(cfg, ops, u0, [0] * n)
    burn_in = cfg.burn_in_fraction * cfg.t_final
    keep = times >= burn_in

    values = np.empty((len(phis), n))
    ks = np.zeros(len(phis))
    for i, phi in enumerate(phis):
        rows = phi(tables)
        values[i] = time_average(times, rows, burn_in, times[-1])
        ks[i] = max(ks_statistic(rows[a, keep], rows[b, keep])
                    for a, b in itertools.combinations(range(n), 2))
    return FingerprintReport(phis=names,
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
    sig = se / mean
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
    inflate = max(1.0, math.sqrt(chi2 / dof))
    se_wls = inflate / math.sqrt(sxx)
    sxx_o = np.sum((t - np.mean(t)) ** 2)
    se_ols = math.sqrt(np.sum(resid ** 2) / dof / sxx_o)
    se_slope = max(se_wls, se_ols)

    if slope >= 0.0:
        warning = True
        msg = (msg + "; " if msg else "") + "mean mass is not decaying"
    return DecayRateFit(rate=float(slope), stderr=float(se_slope),
                        ci=(float(slope - 1.96 * se_slope), float(slope + 1.96 * se_slope)),
                        n_points=len(t), window=(float(t[0]), float(t[-1])),
                        warning=warning, message=msg)
