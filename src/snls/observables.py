"""Trajectory-level diagnostics.

The five scalar functionals of a state (mass = ||u||^2_H, energy =
1/2||A^{1/2}u||^2 + Fhat(u), v_norm_sq, z = mass + 2*energy and the
L^{alpha+1} norm) are dynamics.state_functionals.  Diagnostics built on top
of ensembles and trajectories:

  mass_budget_residual   mass(t) - mass(0) + 2 beta int mass - int hs  (trapezoid)
  supermartingale_trace  E[e^{lambda t} mass(t)] with a monotonicity audit
  contraction_diagnostic e^{-int psi} ||u1 - u2||^2_H along common-noise pairs
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralField, h_norm_sq
from .dynamics import (
    ConfigurationError,
    EnsembleReport,
    SdeConfig,
    TrajectoryRecord,
    _budget_residual_batch,
    _prepare_initial,
    build_operators,
    cumulative_trapezoid,
    integrate_paths,
)


def mass_budget_residual(record: TrajectoryRecord) -> np.ndarray:
    """residual(t) = mass(t) - mass(0) + 2 beta int_0^t mass - int_0^t hs_norm_sq."""
    return _budget_residual_batch(record.times, record.table, record.cfg)


# ---------------------------------------------------------------------------
# supermartingale trace

@dataclass
class SupermartingaleTrace:
    times: np.ndarray
    value: np.ndarray           # E[e^{lambda t} mass(t)]
    stderr: np.ndarray
    diff: np.ndarray            # adjacent differences of the trace
    diff_stderr: np.ndarray     # SE of each difference (uses the lag-1 covariance)
    violations: np.ndarray      # indices j where diff[j] > 3 * diff_stderr[j]
    lam: float


def supermartingale_trace(report: EnsembleReport, lam: float) -> SupermartingaleTrace:
    """Trace of E[e^{lambda t} ||u||^2_H]; requires C1 = 0 and lambda < 2 beta - C1~^2."""
    cfg, G = report.cfg, report.G
    if G.C1 != 0.0:
        raise ConfigurationError(
            f"supermartingale trace requires C1 = 0, but C1 = {G.C1:.6g} "
            f"for variant {cfg.g_variant!r}")
    bound = 2.0 * cfg.beta - G.C1t ** 2
    if not (lam < bound):
        raise ConfigurationError(
            "supermartingale trace requires lambda < 2*beta - C1_tilde^2 "
            f"({lam:.6g} >= {bound:.6g})")

    t = report.times
    scale = np.exp(lam * t)
    value = scale * report.mean["mass"]
    stderr = scale * report.stderr["mass"]
    # Var(X_{j+1} - X_j) needs Cov(mass_j, mass_{j+1}) = E[m_j m_{j+1}] - mu_j mu_{j+1}
    mu = report.mean["mass"]
    var = report.var["mass"]
    cov = report.mass_lag1_mean - mu[:-1] * mu[1:]
    var_diff = (scale[1:] ** 2 * var[1:] + scale[:-1] ** 2 * var[:-1]
                - 2.0 * scale[1:] * scale[:-1] * cov)
    diff = value[1:] - value[:-1]
    diff_stderr = np.sqrt(np.maximum(var_diff, 0.0) / report.n_paths)
    violations = np.nonzero(diff > 3.0 * diff_stderr)[0]
    return SupermartingaleTrace(times=t, value=value, stderr=stderr, diff=diff,
                                diff_stderr=diff_stderr, violations=violations,
                                lam=lam)


# ---------------------------------------------------------------------------
# contraction diagnostic

@dataclass
class ContractionReport:
    times: np.ndarray
    d_mean: np.ndarray
    d_stderr: np.ndarray
    d_pairs: np.ndarray         # (n_snap, n_pairs) pathwise D(t)
    d0: float
    lip_g: float


def contraction_diagnostic(u10: SpectralField, u20: SpectralField,
                           cfg: SdeConfig) -> ContractionReport:
    """Common-noise two-point motion weighted by the worst-case expansion rate.

    psi(t) = 2[||u1||_inf^{alpha-1} + ||u2||_inf^{alpha-1} - beta] + L_G with the
    sup-norm terms dropped in linear test mode (they bound the nonlinearity's
    local Lipschitz constant); D(t) = exp(-int_0^t psi) ||u1 - u2||^2_H.
    cfg.paths sets the number of pairs.
    """
    P = cfg.paths
    ops = build_operators(cfg)
    # rows p and P + p start from u10 and u20 and share noise stream p
    u0 = _prepare_initial([u10] * P + [u20] * P, cfg, ops)
    times, _, _, states = integrate_paths(cfg, ops, u0, np.tile(np.arange(P), 2),
                                          collect_states=True)
    axes = tuple(range(-ops.basis.dim, 0))
    linf_arr = np.empty((len(times), 2 * P))
    dist_arr = np.empty((len(times), P))
    for i, u in enumerate(states):
        linf_arr[i] = np.max(np.abs(ops.basis.synthesize(u)), axis=axes)
        dist_arr[i] = h_norm_sq(u[:P] - u[P:])
    if cfg.nonlinearity_enabled:
        p = cfg.alpha - 1.0
        psi = 2.0 * (linf_arr[:, :P] ** p + linf_arr[:, P:] ** p - cfg.beta) \
            + ops.G.L_G
    else:
        psi = np.full((len(times), P), ops.G.L_G - 2.0 * cfg.beta)
    int_psi = cumulative_trapezoid(psi, times, axis=0)
    d = np.exp(-int_psi) * dist_arr
    d_mean = d.mean(axis=1)
    d_std = d.std(axis=1, ddof=1) if P > 1 else np.zeros(len(times))
    return ContractionReport(times=times, d_mean=d_mean,
                             d_stderr=d_std / math.sqrt(P), d_pairs=d,
                             d0=float(d_mean[0]), lip_g=ops.G.L_G)
