"""Self-check battery for the verify CLI mode.

Each check measures one invariant on a small deterministic configuration and
passes when measured <= tolerance.  The battery covers every module; it is
meant to run in seconds, not to replace the test suite.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Tuple

import numpy as np

from .spectral import (BASIS_KINDS, SpectralField, apply_frac_power, h_norm_sq,
                       make_basis, norms)
from .operators import (antiderivative_F, apply_F, make_noise_B, make_noise_G,
                        rho, smoothed_projector,
                        stratonovich_correction)
from .dynamics import (ConfigurationError, SdeConfig, build_operators,
                       default_initial, simulate, simulate_ensemble)
from .observables import (contraction_diagnostic, mass_budget_residual, observe,
                          supermartingale_trace)
from .ergodicity import decay_rate_fit, tightness_profile, time_average
from .config import config_checksum, parse_config, ConfigError

_REL_EPS = 1e-12


def _rand_field(basis, seed: int, decay: float = 0.5) -> SpectralField:
    g = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    c = (g.standard_normal(basis.n_modes) + 1j * g.standard_normal(basis.n_modes))
    return SpectralField(c * np.exp(-decay * basis.s_eigs), basis)


def _small_cfg(**kw) -> SdeConfig:
    base = dict(domain_kind="torus1d", modes_per_axis=16, galerkin_level=4,
                alpha=3.0, beta=1.0, scheme="strat_split", dt=1e-3, t_final=0.1,
                seed=11, snapshot_stride=5)
    base.update(kw)
    return SdeConfig(**base)


# ---------------------------------------------------------------------------
# individual checks: return (measured, tolerance)

def _chk_roundtrip(kind: str):
    def run():
        m = 8 if kind.endswith("2d") else 16
        basis = make_basis(kind, m)
        u = _rand_field(basis, 101)
        back = basis.analyze(basis.synthesize(u.coeffs))
        return float(np.max(np.abs(back - u.coeffs))), 1e-12
    return run


def _chk_parseval():
    worst = 0.0
    for kind in BASIS_KINDS:
        m = 8 if kind.endswith("2d") else 16
        basis = make_basis(kind, m)
        u = _rand_field(basis, 202)
        rec = norms(u)
        grid = basis.synthesize(u.coeffs)
        quad = float(basis.quad_weight * np.sum(np.abs(grid) ** 2))
        worst = max(worst, abs(quad - rec.h_norm_sq) / rec.h_norm_sq)
    return worst, 1e-12


def _chk_frac_power():
    basis = make_basis("dirichlet1d", 16)
    u = _rand_field(basis, 303)
    half = apply_frac_power(apply_frac_power(u, "A", 0.5), "A", 0.5)
    full = apply_frac_power(u, "A", 1.0)
    return float(np.max(np.abs(half.coeffs - full.coeffs))
                 / np.max(np.abs(full.coeffs))), 1e-12


def _chk_partition_of_unity():
    t = np.linspace(0.51, 1.99, 797)
    total = rho(t) + rho(t / 2.0) + rho(2.0 * t)
    return float(np.max(np.abs(total - 1.0))), 1e-13


def _chk_rho_midpoint():
    return abs(float(rho(np.array([1.0]))[0]) - 1.0), 0.0


def _chk_projector_norm_bound():
    worst = 0.0
    for kind in BASIS_KINDS:
        m = 8 if kind.endswith("2d") else 16
        basis = make_basis(kind, m)
        for n in range(7):
            w = smoothed_projector(n, basis)
            worst = max(worst, float(np.max(w)) - 1.0, float(-np.min(w)))
    return max(worst, 0.0), 0.0


def _chk_projector_identity():
    basis = make_basis("torus1d", 16)
    n = int(math.ceil(math.log2(float(np.max(basis.s_eigs))))) + 1
    u = _rand_field(basis, 404)
    w = smoothed_projector(n, basis)
    return float(np.max(np.abs(w * u.coeffs - u.coeffs))), 0.0


def _chk_f_skew():
    basis = make_basis("torus1d", 16)
    u = _rand_field(basis, 505)
    fu = apply_F(u, 3.0)
    val = np.real(np.vdot(1j * u.coeffs, fu.coeffs))
    scale = norms(u).lp_norm(4.0) ** 4
    return abs(val) / scale, 1e-10


def _chk_f_norm_identity():
    basis = make_basis("torus1d", 16)
    u = _rand_field(basis, 606, decay=1.0)
    alpha = 3.0
    fu = apply_F(u, alpha)
    lhs = norms(fu).lp_norm((alpha + 1.0) / alpha)
    rhs = norms(u).lp_norm(alpha + 1.0) ** alpha
    return abs(lhs - rhs) / rhs, 1e-8


def _chk_f_antiderivative():
    basis = make_basis("torus1d", 16)
    u = _rand_field(basis, 707)
    v = _rand_field(basis, 708)
    h = 1e-4
    up = SpectralField(u.coeffs + h * v.coeffs, basis)
    um = SpectralField(u.coeffs - h * v.coeffs, basis)
    fd = (antiderivative_F(up, 3.0) - antiderivative_F(um, 3.0)) / (2.0 * h)
    exact = float(np.real(np.vdot(apply_F(u, 3.0).coeffs, v.coeffs)))
    return abs(fd - exact) / max(abs(exact), 1.0), 1e-6


def _chk_b_correction():
    basis = make_basis("torus1d", 16)
    B = make_noise_B(basis, ("0.2", "0.1/(1+lambda)"))
    w = smoothed_projector(3, basis)
    corr = stratonovich_correction(B, w)
    resid = 2.0 * corr + np.sum((w ** 2 * B.multipliers) ** 2, axis=0)
    return float(np.max(np.abs(resid))), 1e-15


def _chk_b_profile_value():
    basis = make_basis("torus1d", 16)
    B = make_noise_B(basis, ("0.1/(1+lambda)",))
    k0 = int(np.argmin(basis.s_eigs))        # s = 1 at the constant mode
    return abs(float(B.multipliers[0, k0]) - 0.05), 1e-15


def _chk_g_linear_intensity():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "linear_diagonal", (0.3, 0.2), 3.0)
    u = _rand_field(basis, 808)
    from .operators import hs_norm_sq_batch
    got = float(hs_norm_sq_batch(u.coeffs[None, :], G, basis)[0])
    want = (0.09 + 0.04) * h_norm_sq(u.coeffs[None, :])[0]
    return abs(got - want) / want, 1e-12


def _chk_g_additive_bound():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "additive", (0.15, 0.1), 3.0)
    u = _rand_field(basis, 909)
    from .operators import hs_norm_sq_batch
    hs = float(hs_norm_sq_batch(u.coeffs[None, :], G, basis)[0])
    return max(math.sqrt(hs) - G.C1, 0.0), 1e-12


def _chk_rotation_exactness():
    cfg = _small_cfg(beta=0.0, nonlinearity_enabled=False, t_final=0.05)
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    rec = simulate(cfg, u0)
    exact = u0.coeffs * np.exp(-1j * ops.basis.a_eigs * cfg.t_final)
    return float(np.max(np.abs(rec.final_state.coeffs - exact))), 1e-13


def _chk_split_mass_conservation():
    cfg = _small_cfg(beta=0.0, b_profiles=("0.2",), t_final=0.2,
                     galerkin_level=9)
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, 3))
    m = rec.table["mass"]
    return float(np.max(np.abs(m / m[0] - 1.0))), 1e-10


def _chk_damping_exactness():
    cfg = _small_cfg(beta=0.8, nonlinearity_enabled=False, t_final=0.2)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rec = simulate(cfg, u0)
    want = rec.table["mass"][0] * np.exp(-2 * 0.8 * rec.times)
    return float(np.max(np.abs(rec.table["mass"] - want) / want)), 1e-12


def _chk_replay():
    cfg = _small_cfg(b_profiles=("0.2",), g_variant="linear_diagonal",
                     g_params=(0.3,))
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    a = simulate(cfg, u0).final_state.coeffs
    b = simulate(cfg, u0).final_state.coeffs
    return float(np.max(np.abs(a - b))), 0.0


def _chk_ensemble_single_path():
    cfg = _small_cfg(b_profiles=("0.2",), paths=1)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rec = simulate(cfg, u0)
    rep = simulate_ensemble(cfg, u0)
    return float(np.max(np.abs(rep.mean["mass"] - rec.table["mass"]))), 0.0


def _chk_support_invariant():
    cfg = _small_cfg(galerkin_level=2, b_profiles=("0.2",),
                     g_variant="linear_diagonal", g_params=(0.3,))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, 5)       # wider than the level-2 band
    rec = simulate(cfg, u0, collect_states=True)
    outside = rec.states[:, ~ops.mask]
    return float(np.max(np.abs(outside))) if outside.size else 0.0, 0.0


def _chk_em_mass_recursion():
    cfg = _small_cfg(domain_kind="torus1d", modes_per_axis=8, galerkin_level=9,
                     scheme="ito_exp_em", beta=0.7, nonlinearity_enabled=False,
                     b_profiles=("0.25",), g_variant="linear_diagonal",
                     g_params=(0.4,), paths=800, t_final=0.1)
    u0 = default_initial(build_operators(cfg).basis, 9)
    rep = simulate_ensemble(cfg, u0)
    corr = -0.5 * 0.25 ** 2
    fac = (1.0 + (corr - cfg.beta) * cfg.dt) ** 2 + (0.25 ** 2 + 0.4 ** 2) * cfg.dt
    pred = rep.mean["mass"][0] * fac ** cfg.n_steps
    se = rep.stderr["mass"][-1]
    return abs(float(rep.mean["mass"][-1]) - pred), 4.0 * se + 1e-12


def _chk_budget_residual():
    cfg = _small_cfg(beta=0.9, t_final=0.2, snapshot_stride=1)
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    res = mass_budget_residual(rec)
    return float(np.max(np.abs(res))), 10.0 * cfg.dt * rec.table["mass"][0]


def _chk_z_identity():
    basis = make_basis("torus2d", 8)
    u = _rand_field(basis, 111)
    s = observe(u, 3.0)
    fhat = antiderivative_F(u, 3.0)
    return abs(s.z - (s.v_norm_sq + 2.0 * fhat)) / max(s.z, 1.0), 1e-10


def _chk_observe_purity():
    basis = make_basis("neumann1d", 16)
    u = _rand_field(basis, 222)
    a, b = observe(u, 3.0), observe(u, 3.0)
    return max(abs(a.mass - b.mass), abs(a.energy - b.energy),
               abs(a.z - b.z)), 0.0


def _chk_smg_guard():
    cfg = _small_cfg(g_variant="additive", g_params=(0.1,), paths=2,
                     t_final=0.05)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rep = simulate_ensemble(cfg, u0)
    try:
        supermartingale_trace(rep, 0.5)
    except ConfigurationError:
        return 0.0, 0.0
    return 1.0, 0.0


def _chk_contraction_trivial():
    cfg = _small_cfg(paths=2, t_final=0.05, b_profiles=("0.2",))
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rep = contraction_diagnostic(u0, u0, cfg)
    return float(np.max(np.abs(rep.d_pairs))), 0.0


def _chk_contraction_linear():
    # F off, G off: common linear noise cancels in the difference and
    # D(t) = exp(2 beta t) e^{-2 beta t} D(0) stays constant.
    cfg = _small_cfg(paths=4, t_final=0.1, nonlinearity_enabled=False,
                     b_profiles=("0.3",))
    basis = build_operators(cfg).basis
    u0 = default_initial(basis, cfg.galerkin_level)
    pert = default_initial(basis, cfg.galerkin_level, mass=1e-6, s_scale=1.5)
    u1 = SpectralField(u0.coeffs + pert.coeffs, basis)
    rep = contraction_diagnostic(u0, u1, cfg)
    return float(np.max(np.abs(rep.d_pairs - rep.d_pairs[0])) / rep.d0), 1e-10


def _chk_time_average_hull():
    cfg = _small_cfg(t_final=0.2, b_profiles=("0.2",))
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    report = time_average(rec, "min_mass_1", burn_in=0.05)
    vals = np.minimum(rec.table["mass"], 1.0)
    viol = max(report.value - float(np.max(vals)), float(np.min(vals)) - report.value)
    return max(viol, 0.0), 1e-12


def _chk_tightness_monotone():
    cfg = _small_cfg(t_final=0.2, b_profiles=("0.2",))
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    prof = tightness_profile(rec, (0.5, 1.0, 2.0, 4.0))
    return max(float(np.max(np.diff(prof.fractions))), 0.0), 0.0


def _chk_tightness_chebyshev():
    cfg = _small_cfg(t_final=0.2, b_profiles=("0.2",))
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    prof = tightness_profile(rec, (0.5, 1.0, 2.0))
    avg_vsq = time_average(rec, lambda tab: tab["v_norm_sq"], burn_in=0.0).value
    worst = max(float(f) - avg_vsq / r ** 2 for f, r in zip(prof.fractions, prof.radii))
    return max(worst, 0.0), 1e-12


def _chk_decay_rate_zero_noise():
    cfg = _small_cfg(beta=0.6, nonlinearity_enabled=False, t_final=0.5,
                     paths=1, snapshot_stride=10)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rep = simulate_ensemble(cfg, u0)
    fit = decay_rate_fit(rep)
    return abs(fit.rate + 2.0 * 0.6), 1e-3


def _chk_checksum_sensitivity():
    a = config_checksum("alpha = 3\n")
    b = config_checksum("alpha = 3 \n")
    return (1.0 if a == b else 0.0), 0.0


def _chk_duplicate_key():
    try:
        parse_config("alpha = 3\nalpha = 2\n")
    except ConfigError as exc:
        return (0.0 if "line" in str(exc) else 1.0), 0.0
    return 1.0, 0.0


def _chk_alpha_reject():
    try:
        parse_config("alpha = 0.5\n")
    except ConfigurationError as exc:
        return (0.0 if "alpha must exceed 1" in str(exc) else 1.0), 0.0
    return 1.0, 0.0


CHECKS: List[Tuple[str, str, Callable]] = [
    ("transform_roundtrip_torus1d", "orthonormal eigenbasis transform pair", _chk_roundtrip("torus1d")),
    ("transform_roundtrip_dirichlet1d", "orthonormal eigenbasis transform pair", _chk_roundtrip("dirichlet1d")),
    ("transform_roundtrip_neumann1d", "orthonormal eigenbasis transform pair", _chk_roundtrip("neumann1d")),
    ("transform_roundtrip_torus2d", "orthonormal eigenbasis transform pair", _chk_roundtrip("torus2d")),
    ("transform_roundtrip_dirichlet2d", "orthonormal eigenbasis transform pair", _chk_roundtrip("dirichlet2d")),
    ("transform_roundtrip_neumann2d", "orthonormal eigenbasis transform pair", _chk_roundtrip("neumann2d")),
    ("parseval_identity", "discrete Plancherel identity", _chk_parseval),
    ("fractional_power_composition", "spectral calculus of A", _chk_frac_power),
    ("partition_of_unity", "dyadic cutoff partition identity", _chk_partition_of_unity),
    ("cutoff_midpoint_value", "dyadic cutoff normalization", _chk_rho_midpoint),
    ("projector_weights_in_unit_interval", "projector contraction on H and V", _chk_projector_norm_bound),
    ("projector_identity_above_band", "projector acts as identity below the band", _chk_projector_identity),
    ("nonlinearity_skew_symmetry", "mass neutrality of the defocusing term", _chk_f_skew),
    ("nonlinearity_norm_identity", "pointwise power-norm identity", _chk_f_norm_identity),
    ("nonlinearity_antiderivative_gradient", "antiderivative directional derivative", _chk_f_antiderivative),
    ("stratonovich_correction_identity", "correction cancels the noise quadratic variation", _chk_b_correction),
    ("noise_profile_evaluation", "multiplier profile arithmetic", _chk_b_profile_value),
    ("state_noise_linear_intensity", "diagonal noise intensity identity", _chk_g_linear_intensity),
    ("state_noise_additive_bound", "additive noise growth constant", _chk_g_additive_bound),
    ("rotation_exactness", "exact unitary linear flow", _chk_rotation_exactness),
    ("split_mass_conservation", "mass conservation without damping and G", _chk_split_mass_conservation),
    ("damping_exactness", "exact exponential damping factor", _chk_damping_exactness),
    ("replay_bit_identity", "seeded reproducibility", _chk_replay),
    ("ensemble_single_path_consistency", "ensemble of one equals the trajectory", _chk_ensemble_single_path),
    ("support_invariant", "states stay inside the Galerkin band", _chk_support_invariant),
    ("em_mean_mass_recursion", "Ito mean-mass recursion", _chk_em_mass_recursion),
    ("budget_residual_zero_noise", "deterministic damped mass identity", _chk_budget_residual),
    ("z_identity", "z equals v_norm_sq plus twice the antiderivative", _chk_z_identity),
    ("observe_purity", "observables are pure functions", _chk_observe_purity),
    ("supermartingale_precondition_guard", "additive part must vanish for the trace", _chk_smg_guard),
    ("contraction_trivial_pair", "equal data give zero separation", _chk_contraction_trivial),
    ("contraction_linear_closed_form", "common linear noise cancels in the difference", _chk_contraction_linear),
    ("time_average_convex_hull", "averages stay in the observed hull", _chk_time_average_hull),
    ("tightness_monotone", "occupation fractions decrease in the radius", _chk_tightness_monotone),
    ("tightness_chebyshev", "occupation bounded by the second moment", _chk_tightness_chebyshev),
    ("decay_rate_zero_noise", "deterministic decay rate equals -2 beta", _chk_decay_rate_zero_noise),
    ("config_checksum_sensitivity", "checksum tracks config bytes", _chk_checksum_sensitivity),
    ("config_duplicate_key", "duplicate keys rejected with line numbers", _chk_duplicate_key),
    ("config_alpha_reject", "alpha constraint enforced", _chk_alpha_reject),
]


def run_verify() -> Tuple[List[Dict], int]:
    records: List[Dict] = []
    n_failed = 0
    for name, ref, fn in CHECKS:
        try:
            measured, tolerance = fn()
            status = "pass" if measured <= tolerance else "fail"
        except Exception as exc:                    # a crashed check is a failure
            measured, tolerance, status = float("nan"), 0.0, "fail"
            ref = f"{ref} (raised {type(exc).__name__}: {exc})"
        if status == "fail":
            n_failed += 1
        records.append({"name": name, "paper_ref": ref, "status": status,
                        "measured": measured, "tolerance": tolerance})
    return records, n_failed
