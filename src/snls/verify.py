"""Self-check battery for the verify CLI mode.

Each check measures one invariant on a small deterministic configuration and
passes when measured <= tolerance.  A measurement that is not finite, a
crashed check's included, fails and is recorded as None.  The battery covers
every module; it is meant to run in seconds, not to replace the test suite.
"""

from __future__ import annotations

import logging
import math
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from .spectral import (BASIS_KINDS, SpectralField, apply_frac_power, h_norm_sq,
                       lp_power, make_basis, v_norm_sq)
from .operators import (antiderivative_F, apply_F, hs_norm_sq_batch, make_noise_B,
                        make_noise_G, rho, smoothed_projector, stratonovich_correction)
from .dynamics import (_RNG_BLOCK, _STEPPERS, BLOWUP_V_NORM, CONFIG_KEYS, BlowUpError,
                       BrownianDriver, ConfigurationError, SdeConfig, StepWork, build_operators,
                       default_initial, default_initial_family, integrate_paths, simulate,
                       simulate_ensemble, state_functionals)
from .observables import contraction_diagnostic, mass_budget_residual, supermartingale_trace
from .ergodicity import decay_rate_fit, min_mass_1, radius_indicator, time_average
from .config import ConfigError, compute_constants, config_checksum, parse_config


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
        h = float(h_norm_sq(u.coeffs))
        quad = float(lp_power(u.coeffs, basis, 2.0))
        worst = max(worst, abs(quad - h) / h)
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
    scale = float(lp_power(u.coeffs, basis, 4.0))
    return abs(val) / scale, 1e-10


def _chk_f_norm_identity():
    basis = make_basis("torus1d", 16)
    u = _rand_field(basis, 606, decay=1.0)
    alpha = 3.0
    fu = apply_F(u, alpha)
    q = (alpha + 1.0) / alpha
    lhs = float(lp_power(fu.coeffs, basis, q) ** (1.0 / q))
    rhs = float(lp_power(u.coeffs, basis, alpha + 1.0) ** (1.0 / (alpha + 1.0))) ** alpha
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


# (kind, modes per axis, level): each kind at full band and at a band that cuts the box
ALIAS_CASES = (("torus1d", 16, 9), ("torus1d", 16, 4), ("dirichlet1d", 16, 9),
               ("dirichlet1d", 16, 6), ("neumann1d", 16, 9), ("neumann1d", 16, 6),
               ("torus2d", 8, 9), ("torus2d", 8, 3), ("dirichlet2d", 8, 9),
               ("dirichlet2d", 8, 5), ("neumann2d", 8, 9), ("neumann2d", 8, 5))


def _chk_alias_free():
    # P_n F(u) on the engine's grid against a 4x finer one, for a flat band field
    worst = 0.0
    for kind, m, level in ALIAS_CASES:
        cfg = _small_cfg(domain_kind=kind, modes_per_axis=m, galerkin_level=level)
        if not compute_constants(cfg).alias_free:
            return 1.0, 1e-12
        ops = build_operators(cfg)
        u = _rand_field(ops.basis, 1212, decay=0.0).coeffs * ops.maskf
        fine = make_basis(kind, m, 4 * cfg.oversample, level)
        got = ops.maskf * apply_F(SpectralField(u, ops.basis), 3.0).coeffs
        want = ops.maskf * apply_F(SpectralField(u, fine), 3.0).coeffs
        worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    return worst, 1e-12


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
    got = float(hs_norm_sq_batch(u.coeffs[None, :], G, basis)[0])
    want = (0.09 + 0.04) * h_norm_sq(u.coeffs[None, :])[0]
    return abs(got - want) / want, 1e-12


def _chk_g_growth_bound():
    # ||G(u)|| <= C1 + C1t ||u||_H for every variant, on a state and far out
    basis = make_basis("torus1d", 16)
    u = _rand_field(basis, 909).coeffs
    states = np.stack([u, 1e6 * u])
    worst = 0.0
    for variant in ("additive", "linear_diagonal", "bounded_nemytskii"):
        G = make_noise_G(basis, variant, (0.15, 0.1), 3.0)
        hs = hs_norm_sq_batch(states, G, basis)
        bound = G.C1 + G.C1t * np.sqrt(h_norm_sq(states))
        worst = max(worst, float(np.max(np.sqrt(hs) / bound - 1.0)))
    return max(worst, 0.0), 1e-12


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


def _chk_blow_up_exact_step():
    # linear antidamped Euler: the V-norm grows by 1 - beta dt = 1.3 per step,
    # and this amplitude first exceeds BLOWUP_V_NORM at step 300, mid second
    # RNG block, with half a step of margin on either side
    cfg = _small_cfg(scheme="ito_exp_em", beta=-30.0, dt=1e-2, t_final=4.0,
                     nonlinearity_enabled=False)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    trip = 300
    amp = BLOWUP_V_NORM / (math.sqrt(v_norm_sq(u0.coeffs, u0.basis)) * 1.3 ** (trip - 0.5))
    try:
        simulate(cfg, SpectralField(amp * u0.coeffs, u0.basis))
    except BlowUpError as exc:
        return float(abs(exc.step - trip)), 0.0
    return math.inf, 0.0


def _chk_noise_tables():
    # snls invariant's batch, 3 rows of default.cfg on key 0, for 300 steps: the
    # engine's steps read their diagonal factors from noise tables filled 4
    # times, direct stepper calls compute their own from the same increments
    text = (Path(__file__).resolve().parent / "default.cfg").read_text()
    cfg = replace(parse_config(text), t_final=0.3)
    ops = build_operators(cfg)
    batch = np.array([f.coeffs for _, f in default_initial_family(ops.basis, cfg.galerkin_level)])
    end = integrate_paths(cfg, ops, batch, [0, 0, 0])[2]
    driver = BrownianDriver(cfg.seed, 0, ops.B.n_modes, ops.G.n_modes, cfg.dt)
    step_ops, nb, u = replace(ops, work=StepWork(len(batch), ops.basis)), ops.B.n_modes, batch
    for start in range(0, cfg.n_steps, _RNG_BLOCK):
        block = driver.increments(min(_RNG_BLOCK, cfg.n_steps - start))
        for inc in np.repeat(block[:, None], len(batch), axis=1):
            u = _STEPPERS[cfg.scheme](u, inc[:, :nb], inc[:, nb:], cfg, step_ops)
    return float(u.tobytes() != end.tobytes()), 0.0


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
    log, caught = logging.getLogger("snls.dynamics"), []

    def catch(record) -> bool:
        caught.append(record.getMessage())
        return False                         # announced here, not on stderr
    log.addFilter(catch)
    try:
        rec = simulate(cfg, u0, collect_states=True)
    finally:
        log.removeFilter(catch)
    if len(caught) != 1 or "level-2 band" not in caught[0]:
        return float("inf"), 0.0             # the projection must be announced once
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
    s = state_functionals(u.coeffs[None, :], basis, 3.0)
    z = float(s["z"][0])
    fhat = antiderivative_F(u, 3.0)
    return abs(z - (float(s["v_norm_sq"][0]) + 2.0 * fhat)) / max(z, 1.0), 1e-10


def _chk_observe_purity():
    basis = make_basis("neumann1d", 16)
    u = _rand_field(basis, 222)
    a, b = (state_functionals(u.coeffs[None, :], basis, 3.0) for _ in range(2))
    return max(float(np.max(np.abs(a[name] - b[name]))) for name in a), 0.0


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


def _long_run_record():
    cfg = _small_cfg(t_final=0.2, b_profiles=("0.2",))
    return simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))


def _occupation(rec, radii) -> np.ndarray:
    """Fractions of [0, T] with ||u||_V > R, one per radius."""
    stack = np.stack([radius_indicator(r)(rec.table) for r in radii])
    return time_average(rec.times, stack, rec.times[0], rec.times[-1])


def _chk_time_average_hull():
    rec = _long_run_record()
    vals = min_mass_1(rec.table)
    avg = float(time_average(rec.times, vals, 0.05, rec.times[-1]))
    viol = max(avg - float(np.max(vals)), float(np.min(vals)) - avg)
    return max(viol, 0.0), 1e-12


def _chk_tightness_monotone():
    fractions = _occupation(_long_run_record(), (0.5, 1.0, 2.0, 4.0))
    return max(float(np.max(np.diff(fractions))), 0.0), 0.0


def _chk_tightness_chebyshev():
    rec = _long_run_record()
    radii = np.array([0.5, 1.0, 2.0])
    avg_vsq = time_average(rec.times, rec.table["v_norm_sq"], rec.times[0], rec.times[-1])
    worst = np.max(_occupation(rec, radii) - avg_vsq / radii ** 2)
    return max(float(worst), 0.0), 1e-12


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


def _chk_reject(text: str, needle: str, error=ConfigurationError):
    def run():
        try:
            parse_config(text)
        except error as exc:
            return (0.0 if needle in str(exc) else 1.0), 0.0
        return 1.0, 0.0
    return run


def _chk_key_table():
    # "nan" breaks every key's parser or rule: the rejection states key, rule and value
    missed = 0
    for row in CONFIG_KEYS:
        key = row.key.replace("<m>", "1")
        try:
            build_operators(parse_config("noise.B.count = 1\n" * (key != row.key) + f"{key} = nan"))
        except ConfigurationError as exc:
            head, _, got = str(exc).partition(", got ")
            missed += head != f"key {key!r}: expected {row.rule}" or "nan" not in got
        else:
            missed += 1
    return float(missed), 0.0


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
    ("nonlinearity_alias_free", "Galerkin projection of the cubic term is exact on the grid", _chk_alias_free),
    ("stratonovich_correction_identity", "correction cancels the noise quadratic variation", _chk_b_correction),
    ("noise_profile_evaluation", "multiplier profile arithmetic", _chk_b_profile_value),
    ("state_noise_linear_intensity", "diagonal noise intensity identity", _chk_g_linear_intensity),
    ("state_noise_growth_bound", "noise growth constants of every G variant", _chk_g_growth_bound),
    ("rotation_exactness", "exact unitary linear flow", _chk_rotation_exactness),
    ("split_mass_conservation", "mass conservation without damping and G", _chk_split_mass_conservation),
    ("damping_exactness", "exact exponential damping factor", _chk_damping_exactness),
    ("replay_bit_identity", "seeded reproducibility", _chk_replay),
    ("blow_up_guard_exact_step", "a blow-up names the step of the per-step rule", _chk_blow_up_exact_step),
    ("noise_tables_bit_identity", "a block's noise tables give the bits of per-step factors", _chk_noise_tables),
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
    ("config_duplicate_key", "duplicate keys rejected with line numbers",
     _chk_reject("alpha = 3\nalpha = 2\n", "line", ConfigError)),
    ("config_alpha_reject", "alpha constraint enforced",
     _chk_reject("alpha = 0.5\n", "key 'alpha': expected a finite real exceeding 1")),
    ("config_non_finite_reject", "non-finite reals rejected by key", _chk_reject("dt = nan\n", "key 'dt'")),
    ("config_g_params_reject", "G params checked against the G variant",
     _chk_reject("noise.G.params = 0.3, 0.2\n", "key 'noise.G.params'")),
    ("config_beta_reject", "damping factor exp(-beta dt) stays finite",
     _chk_reject("beta = -1e6\ndt = 1e-3\n", "key 'beta'")),
    ("config_key_table", "every config key rejects as key, rule and value", _chk_key_table),
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
                        "measured": measured if math.isfinite(measured) else None,
                        "tolerance": tolerance})
    return records, n_failed
