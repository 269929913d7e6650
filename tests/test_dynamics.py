"""Integrator tests: exact substep laws, discrete moment recursions, RNG layout."""

import dataclasses
import logging
import math
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from snls import dynamics
from snls.config import parse_config
from snls.dynamics import (
    SCHEMES,
    BlowUpError,
    BrownianDriver,
    ConfigurationError,
    SdeConfig,
    build_operators,
    default_initial,
    default_initial_family,
    drift,
    integrate_paths,
    scaled_initial_factory,
    simulate,
    simulate_ensemble,
)
from snls.operators import G_VARIANTS, modulus_power
from snls.spectral import BASIS_KINDS, SpectralField, h_norm_sq, lp_power, make_basis, v_norm_sq


def _rho_oracle(t: float) -> float:
    # independent transcription of the mollified cutoff, kept local on purpose
    def h(x):
        if x <= 0.5 or x >= 2.0:
            return 0.0
        return math.exp(-1.0 / ((x - 0.5) * (2.0 - x)))

    return h(t) / (h(t) + h(t / 2.0) + h(2.0 * t))


def _weight_oracle(s: float, level: int) -> float:
    lo, hi = 2.0 ** level, 2.0 ** (level + 1)
    if s < lo:
        return 1.0
    if s >= hi:
        return 0.0
    return _rho_oracle(s / lo)


def _cfg(**kw) -> SdeConfig:
    base = dict(domain_kind="torus1d", modes_per_axis=16, galerkin_level=9,
                alpha=3.0, beta=0.0, scheme="strat_split", dt=1e-3,
                t_final=0.1, seed=11, snapshot_stride=10,
                nonlinearity_enabled=False)
    base.update(kw)
    return SdeConfig(**base)


# ---------------------------------------------------------------------------
# config plumbing

def test_validated_rejects_bad_knobs():
    cases = [
        (dict(alpha=1.0), "alpha"),
        (dict(dt=0.0), "dt"),
        (dict(dt=0.5, t_final=0.1), "dt"),
        (dict(t_final=-1.0), "t_final"),
        (dict(galerkin_level=-1), "galerkin.level"),
        (dict(scheme="euler"), "scheme"),
        (dict(snapshot_stride=0), "snapshot_stride"),
        (dict(paths=0), "paths"),
        (dict(seed=-1), "seed"),
        (dict(burn_in_fraction=1.0), "burn_in"),
        (dict(beta=-1e6), "key 'beta'"),            # exp(-beta dt) overflows at dt = 1e-3
    ]
    for kw, needle in cases:
        with pytest.raises(ConfigurationError, match=needle):
            _cfg(**kw).validated()


def test_n_steps_requires_integer_multiple():
    assert _cfg(t_final=1.0, dt=1e-3).n_steps == 1000
    assert _cfg(t_final=0.0).n_steps == 0
    with pytest.raises(ConfigurationError, match="integer multiple"):
        _ = _cfg(t_final=0.1, dt=3e-4).n_steps


def test_integrate_paths_checks_index_count():
    cfg = _cfg(t_final=1e-3, snapshot_stride=1)
    ops = build_operators(cfg)
    u0 = np.zeros((3, ops.basis.n_modes), dtype=complex)
    with pytest.raises(ConfigurationError, match="one stream key per path"):
        integrate_paths(cfg, ops, u0, [0, 1])
    with pytest.raises(ConfigurationError, match="one stream key per path"):
        integrate_paths(cfg, ops, u0, [0, 0, 0, 0])


# ---------------------------------------------------------------------------
# exact deterministic substep laws

@pytest.mark.parametrize("kind", ["torus1d", "dirichlet1d"])
@pytest.mark.parametrize("scheme", ["ito_exp_em", "strat_split"])
def test_free_flow_is_exact_rotation(kind, scheme):
    cfg = _cfg(domain_kind=kind, scheme=scheme, beta=0.0, t_final=0.1)
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    rec = simulate(cfg, u0)
    expect = np.exp(-1j * ops.basis.a_eigs * cfg.t_final) * u0.coeffs
    assert np.allclose(rec.final_state.coeffs, expect, rtol=0, atol=1e-13)
    assert np.allclose(rec.table["mass"], rec.table["mass"][0], rtol=1e-13)


def test_split_with_multiplicative_noise_conserves_mass_at_large_dt():
    # every substep is a per-mode phase when F is off and beta = 0
    cfg = _cfg(scheme="strat_split", dt=0.05, t_final=1.0, snapshot_stride=1,
               b_profiles=("0.6", "0.4/sqrt(lambda)"))
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    m0 = rec.table["mass"][0]
    assert np.allclose(rec.table["mass"], m0, rtol=1e-13)


def test_split_phase_substep_only_sheds_mass_through_reprojection():
    cfg = _cfg(scheme="strat_split", dt=0.01, t_final=1.0, snapshot_stride=1,
               nonlinearity_enabled=True)
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    m = rec.table["mass"]
    assert np.all(np.diff(m) <= m[0] * 1e-13)     # monotone up to roundoff
    assert m[0] - m[-1] < 1e-6                    # smooth datum: negligible loss


def test_damping_follows_each_schemes_closed_form():
    beta, dt, T = 0.8, 1e-3, 0.5
    cfg_s = _cfg(scheme="strat_split", beta=beta, dt=dt, t_final=T, snapshot_stride=50)
    cfg_e = _cfg(scheme="ito_exp_em", beta=beta, dt=dt, t_final=T, snapshot_stride=50)
    u0 = default_initial(build_operators(cfg_s).basis, cfg_s.galerkin_level)
    rec_s = simulate(cfg_s, u0)
    rec_e = simulate(cfg_e, u0)
    m0 = rec_s.table["mass"][0]
    steps = np.round(rec_s.times / dt).astype(int)
    assert np.allclose(rec_s.table["mass"], m0 * np.exp(-2 * beta * rec_s.times),
                       rtol=1e-12)
    assert np.allclose(rec_e.table["mass"], m0 * (1.0 - beta * dt) ** (2 * steps),
                       rtol=1e-12)


def test_em_mass_gain_equals_dt_squared_drift_norm():
    # with beta = 0 and no noise the EM update satisfies, step by step,
    #   m_{j+1} - m_j = dt^2 ||P F(u_j)||^2   (the cross term is skew)
    cfg = _cfg(scheme="ito_exp_em", modes_per_axis=16, galerkin_level=9,
               dt=1e-3, t_final=0.05, snapshot_stride=1, nonlinearity_enabled=True)
    ops = build_operators(cfg)
    rec = simulate(cfg, default_initial(ops.basis, cfg.galerkin_level), collect_states=True)
    m = rec.table["mass"]
    for j in range(len(m) - 1):
        d = drift(SpectralField(rec.states[j], ops.basis), cfg, ops).coeffs
        pf = 1j * d - ops.basis.a_eigs * rec.states[j]   # isolate the F component
        gain = cfg.dt ** 2 * np.sum(np.abs(pf) ** 2)
        assert m[j + 1] - m[j] == pytest.approx(gain, rel=1e-8, abs=1e-16)


# ---------------------------------------------------------------------------
# drift assembly

def test_single_mode_drift_coefficient():
    cfg = _cfg(beta=0.4, nonlinearity_enabled=True,
               b_profiles=("0.2", "0.1/(1+lambda)"))
    ops = build_operators(cfg)
    k, c = 3, 0.7 + 0.2j
    coeffs = np.zeros(ops.basis.n_modes, dtype=complex)
    coeffs[k] = c
    d = drift(SpectralField(coeffs, ops.basis), cfg, ops).coeffs

    s = 1.0 + k ** 2
    corr = -0.5 * (0.2 ** 2 + (0.1 / (1.0 + s)) ** 2)
    expect = (-1j * (k ** 2 + abs(c) ** 2 / (2 * np.pi)) - 0.4 + corr) * c
    assert d[k] == pytest.approx(expect, rel=1e-12)
    other = np.delete(d, k)
    assert np.max(np.abs(other)) < 1e-14


def test_drift_vanishes_at_zero_and_is_mass_neutral_without_damping():
    cfg = _cfg(beta=0.0, nonlinearity_enabled=True)
    ops = build_operators(cfg)
    zero = SpectralField(np.zeros(ops.basis.n_modes, dtype=complex), ops.basis)
    assert np.all(drift(zero, cfg, ops).coeffs == 0.0)

    rng = np.random.default_rng(5)
    c = (rng.normal(size=ops.basis.n_modes) + 1j * rng.normal(size=ops.basis.n_modes))
    c *= ops.maskf
    u = SpectralField(c, ops.basis)
    d = drift(u, cfg, ops).coeffs
    ip = np.sum(np.conj(c) * d)
    assert abs(ip.real) < 1e-10 * abs(ip.imag)


# ---------------------------------------------------------------------------
# RNG layout

def test_brownian_driver_is_reproducible_and_stateful():
    d1 = BrownianDriver(42, 7, n_B=2, n_G=1, dt=1e-3)
    d2 = BrownianDriver(42, 7, n_B=2, n_G=1, dt=1e-3)
    a = d1.increments(100)
    assert a.shape == (100, 3)            # dW in columns 0 and 1, dW~ in column 2
    assert np.array_equal(a, d2.increments(100))
    assert not np.array_equal(a, d1.increments(100))     # continuation, not a replay
    assert not np.array_equal(a, BrownianDriver(42, 8, n_B=2, n_G=1, dt=1e-3).increments(100))


def test_brownian_increments_do_not_depend_on_the_draw_blocks():
    # the engine draws increments in blocks; the block size must not move a bit
    whole = BrownianDriver(42, 7, n_B=2, n_G=1, dt=1e-3).increments(300)
    d = BrownianDriver(42, 7, n_B=2, n_G=1, dt=1e-3)
    assert np.array_equal(whole, np.concatenate([d.increments(n) for n in (64, 64, 64, 64, 44)]))


def test_brownian_increments_have_the_right_scale_and_no_cross_correlation():
    dt = 2e-3
    z = BrownianDriver(3, 0, n_B=2, n_G=1, dt=dt).increments(20000) / math.sqrt(dt)
    assert np.all(np.abs(z.mean(axis=0)) < 0.04)          # ~4 sigma
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 0.04)
    corr = np.corrcoef(z.T)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.03


def test_replay_is_bit_identical_and_seed_sensitive():
    kw = dict(beta=0.5, t_final=0.05, snapshot_stride=10, nonlinearity_enabled=True,
              b_profiles=("0.3",), g_variant="linear_diagonal", g_params=(0.2,))
    cfg = _cfg(**kw)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rec1, rec2 = simulate(cfg, u0), simulate(cfg, u0)
    assert np.array_equal(rec1.final_state.coeffs, rec2.final_state.coeffs)
    for name in rec1.table:
        assert np.array_equal(rec1.table[name], rec2.table[name])
    rec3 = simulate(_cfg(seed=cfg.seed + 1, **kw), u0)
    assert not np.array_equal(rec1.final_state.coeffs, rec3.final_state.coeffs)


def test_shared_stream_keys_drive_paths_with_common_noise():
    cfg = _cfg(beta=0.3, t_final=0.02, snapshot_stride=5,
               b_profiles=("0.4",), g_variant="linear_diagonal", g_params=(0.3,))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level).coeffs
    batch = np.stack([u0, u0, u0])
    _, tables, u, _ = integrate_paths(cfg, ops, batch, [5, 5, 6])
    assert np.array_equal(u[0], u[1])
    assert np.array_equal(tables["mass"][0], tables["mass"][1])
    assert not np.array_equal(u[0], u[2])


# ---------------------------------------------------------------------------
# band support and snapshots

@pytest.mark.parametrize("scheme", ["ito_exp_em", "strat_split"])
def test_band_support_is_invariant_exactly(scheme):
    cfg = _cfg(modes_per_axis=16, galerkin_level=3, scheme=scheme, beta=0.4,
               t_final=0.05, snapshot_stride=10, nonlinearity_enabled=True,
               b_profiles=("0.3", "0.2/sqrt(lambda)"),
               g_variant="linear_diagonal", g_params=(0.25,))
    ops = build_operators(cfg)
    rec = simulate(cfg, default_initial(ops.basis, cfg.galerkin_level),
                   collect_states=True)
    outside = rec.states[:, ~ops.mask]
    assert np.all(outside == 0.0)
    fractional = (ops.w > 0) & (ops.w < 1)
    assert fractional.any()
    assert np.all(np.abs(rec.states[-1][fractional]) > 0.0)


def test_initial_datum_outside_band_is_projected_with_warning(caplog):
    cfg = _cfg(modes_per_axis=16, galerkin_level=2, t_final=0.0)
    ops = build_operators(cfg)
    ones = SpectralField(np.ones(ops.basis.n_modes, dtype=complex), ops.basis)
    with caplog.at_level(logging.WARNING, logger="snls.dynamics"):
        rec = simulate(cfg, ones)
    assert "projecting" in caplog.text
    assert rec.table["mass"][0] == float(np.count_nonzero(ops.mask))


@pytest.mark.parametrize("kind,oversample", [("torus1d", 2), ("neumann1d", 3)])
def test_initial_datum_from_another_geometry_is_rejected(kind, oversample):
    cfg = _cfg(domain_kind="neumann1d", modes_per_axis=16, oversample=2, paths=3)
    datum = default_initial(make_basis(kind, 16, oversample), cfg.galerkin_level)
    want = r"\('neumann1d', 16, 2\)"
    with pytest.raises(ConfigurationError, match=rf"\('{kind}', 16, {oversample}\).*{want}"):
        simulate(cfg, datum)
    with pytest.raises(ConfigurationError, match=want):
        simulate_ensemble(cfg, scaled_initial_factory(datum, seed=1))


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", G_VARIANTS)
@pytest.mark.parametrize("b_on", [False, True])
def test_a_row_does_not_depend_on_the_batch_size(kind, scheme, g_variant, b_on):
    # numpy reuses a temporary operand of 256 KiB or more in place, which can
    # swap the operands of a complex product and change its rounding.  One
    # noise component each keeps dW @ b_eff and the G mixes single products,
    # exact under any BLAS kernel.
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.005,
               snapshot_stride=1, b_profiles=("0.1/(1+lambda)",) if b_on else (),
               g_variant=g_variant, g_params=(0.3,) if g_variant != "none" else ())
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs[None]
    P = 1 + 2 ** 18 // (16 * min(ops.basis.n_modes, math.prod(ops.basis.grid_shape)))
    _, tab1, _, states1 = integrate_paths(cfg, ops, u0, [0], collect_states=True)
    _, tabP, _, statesP = integrate_paths(cfg, ops, np.repeat(u0, P, axis=0), range(P),
                                          collect_states=True)
    # a 1-D transform of one row is a BLAS matrix-vector product, of a batch a
    # matrix-matrix product, and the two kernels round differently; a 2-D
    # transform is one matrix-matrix product per row at any batch size
    tol = 1e-13 if ops.basis.dim == 1 else 0.0
    scale = np.max(np.abs(states1))
    assert np.max(np.abs(statesP[:, 0] - states1[:, 0])) <= tol * scale
    for name, row in tab1.items():
        assert np.max(np.abs(tabP[name][0] - row[0])) <= tol * np.max(np.abs(row[0])), name


def test_snapshot_stride_does_not_change_the_path():
    kw = dict(beta=0.5, t_final=0.1, nonlinearity_enabled=True,
              b_profiles=("0.3",))
    u0 = None
    recs = {}
    for stride in (1, 7):
        cfg = _cfg(snapshot_stride=stride, **kw)
        if u0 is None:
            u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
        recs[stride] = simulate(cfg, u0)
    steps7 = np.round(recs[7].times / 1e-3).astype(int)
    assert steps7[-1] == 100 and steps7[-2] == 98     # tail snapshot is kept
    assert np.array_equal(recs[7].table["mass"], recs[1].table["mass"][steps7])
    assert np.array_equal(recs[7].final_state.coeffs, recs[1].final_state.coeffs)


def test_zero_horizon_returns_the_projected_datum_only():
    cfg = _cfg(t_final=0.0)
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    rec = simulate(cfg, u0)
    assert rec.times.tolist() == [0.0]
    assert all(v.shape == (1,) for v in rec.table.values())
    assert np.array_equal(rec.final_state.coeffs, u0.coeffs * ops.maskf)


# ---------------------------------------------------------------------------
# ensemble bookkeeping

def test_singleton_ensemble_reproduces_the_single_path():
    cfg = _cfg(beta=0.5, t_final=0.05, snapshot_stride=5, paths=1,
               nonlinearity_enabled=True, b_profiles=("0.3",),
               g_variant="linear_diagonal", g_params=(0.2,))
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rec = simulate(cfg, u0)
    rep = simulate_ensemble(cfg, u0)
    assert rep.n_paths == 1
    for name, trace in rec.table.items():
        assert np.array_equal(rep.mean[name], trace)
        assert np.all(rep.var[name] == 0.0)
    assert np.array_equal(rep.mass_lag1_mean,
                          rec.table["mass"][:-1] * rec.table["mass"][1:])


def test_deterministic_ensemble_variance_is_at_the_ulp_scale():
    # identical paths; chunk means may round by one ulp, nothing more
    cfg = _cfg(beta=0.7, t_final=0.05, snapshot_stride=5, paths=5,
               nonlinearity_enabled=True)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rep = simulate_ensemble(cfg, u0)
    eps = np.finfo(float).eps
    for name in rep.var:
        bound = (4.0 * eps * (1.0 + np.abs(rep.mean[name]))) ** 2
        assert np.all(rep.var[name] <= bound), name


def test_blow_up_guard_trips_on_antidamping():
    cfg = _cfg(scheme="ito_exp_em", beta=-30.0, dt=1e-2, t_final=1.0,
               snapshot_stride=10)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    with pytest.raises(BlowUpError) as exc:
        simulate(cfg, u0)
    assert 0.0 < exc.value.t <= 1.0
    assert exc.value.step == round(exc.value.t / cfg.dt)
    assert f"at step {exc.value.step} " in str(exc.value)
    assert exc.value.path_index == 0
    assert exc.value.v_norm > 1e8


def test_blow_up_in_a_later_chunk_names_the_ensemble_path():
    # 2050 paths run as chunks of 2048 and 2; only path 2049 leaves the origin
    cfg = _cfg(scheme="ito_exp_em", beta=-30.0, dt=1e-2, t_final=1.0,
               snapshot_stride=10, paths=2050)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    zero = SpectralField(np.zeros_like(u0.coeffs), u0.basis)
    with pytest.raises(BlowUpError, match=r"\(path 2049\)") as exc:
        simulate_ensemble(cfg, lambda p: u0 if p == 2049 else zero)
    assert exc.value.path_index == 2049
    assert 0 < exc.value.step <= 100
    assert exc.value.t == exc.value.step * cfg.dt
    assert f"at step {exc.value.step} " in str(exc.value)


# ---------------------------------------------------------------------------
# discrete moment recursions (exact in expectation; tolerances are sample SEs)

def test_em_per_mode_moments_follow_the_discrete_recursion():
    beta, dt, T, paths = 0.7, 1e-3, 0.2, 10000
    cfg = _cfg(modes_per_axis=8, galerkin_level=3, scheme="ito_exp_em",
               beta=beta, dt=dt, t_final=T, snapshot_stride=200,
               b_profiles=("0.3/sqrt(lambda)", "0.15"),
               g_variant="linear_diagonal", g_params=(0.4,))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    batch = np.tile(u0.coeffs * ops.maskf, (paths, 1))
    _, _, _, states = integrate_paths(cfg, ops, batch, list(range(paths)),
                                      collect_states=True)
    uT = states[-1]
    n = cfg.n_steps

    s = ops.basis.s_eigs
    w = np.array([_weight_oracle(si, cfg.galerkin_level) for si in s])
    sum_b2 = 0.09 / s + 0.15 ** 2
    corr = -0.5 * w ** 4 * sum_b2
    factor = (1.0 + (corr - beta) * dt) ** 2 + w ** 4 * (sum_b2 + 0.4 ** 2) * dt
    mean_factor = (np.exp(-1j * ops.basis.a_eigs * dt) * (1.0 + (corr - beta) * dt)) ** n

    u0m = u0.coeffs * ops.maskf
    live = np.abs(u0m) > 0
    assert np.all(uT[:, ~live] == 0.0)

    # second moments, mode by mode; the weight dressing differs across the band
    second = np.abs(uT) ** 2
    meas = second.mean(axis=0)
    se = second.std(axis=0, ddof=1) / math.sqrt(paths)
    oracle = np.abs(u0m) ** 2 * factor ** n
    assert np.all(np.abs(meas[live] - oracle[live]) < 5.0 * se[live])

    # total mass aggregates the same recursion
    mass = second.sum(axis=1)
    se_mass = mass.std(ddof=1) / math.sqrt(paths)
    assert abs(mass.mean() - oracle.sum()) < 5.0 * se_mass

    # first moments keep the deterministic rotation and the correction sign
    cmean = uT.mean(axis=0)
    spread = (uT.real.std(axis=0, ddof=1) + uT.imag.std(axis=0, ddof=1)) / math.sqrt(paths)
    gap = np.abs(cmean - u0m * mean_factor)
    assert np.all(gap[live] < 5.0 * (spread[live] + 1e-12))


def test_split_mass_recursion_with_linear_state_noise():
    beta, dt, T, paths = 0.7, 1e-3, 0.2, 10000
    cfg = _cfg(modes_per_axis=8, galerkin_level=9, scheme="strat_split",
               beta=beta, dt=dt, t_final=T, snapshot_stride=200,
               b_profiles=("0.3/sqrt(lambda)", "0.15"),
               g_variant="linear_diagonal", g_params=(0.4,))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    batch = np.tile(u0.coeffs, (paths, 1))
    _, tables, _, _ = integrate_paths(cfg, ops, batch, list(range(paths)))
    m = tables["mass"][:, -1]
    n = cfg.n_steps
    # the unitary B substep drops out of the modulus; gamma attaches via EM
    oracle = tables["mass"][0, 0] * (math.exp(-2 * beta * dt) * (1 + 0.16 * dt)) ** n
    se = m.std(ddof=1) / math.sqrt(paths)
    assert abs(m.mean() - oracle) < 5.0 * se


def test_split_mass_recursion_with_additive_noise():
    beta, dt, T, paths = 0.9, 1e-3, 0.2, 10000
    cfg = _cfg(modes_per_axis=8, galerkin_level=9, scheme="strat_split",
               beta=beta, dt=dt, t_final=T, snapshot_stride=200,
               g_variant="additive", g_params=(0.2, 0.1))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    batch = np.tile(u0.coeffs, (paths, 1))
    _, tables, _, states = integrate_paths(cfg, ops, batch, list(range(paths)),
                                           collect_states=True)
    n = cfg.n_steps
    q = math.exp(-2 * beta * dt)
    intensity = 0.2 ** 2 + 0.1 ** 2
    m0 = tables["mass"][0, 0]
    oracle = q ** n * m0 + intensity * dt * (1 - q ** n) / (1 - q)
    m = tables["mass"][:, -1]
    se = m.std(ddof=1) / math.sqrt(paths)
    assert abs(m.mean() - oracle) < 5.0 * se

    # the unique lowest-eigenvalue mode carries the first amplitude
    k0 = int(np.argmin(ops.basis.s_eigs))
    mode = np.abs(states[-1][:, k0]) ** 2
    mode_oracle = q ** n * np.abs(u0.coeffs[k0]) ** 2 \
        + 0.2 ** 2 * dt * (1 - q ** n) / (1 - q)
    se_mode = mode.std(ddof=1) / math.sqrt(paths)
    assert abs(mode.mean() - mode_oracle) < 5.0 * se_mode


# ---------------------------------------------------------------------------
# built-in initial data

def test_default_initial_mass_and_support():
    basis = make_basis("torus1d", 16, 2)
    u = default_initial(basis, level=3, mass=1.4)
    assert np.sum(np.abs(u.coeffs) ** 2) == pytest.approx(1.4, rel=1e-12)
    from snls.operators import sharp_projector
    assert np.all(u.coeffs[~sharp_projector(3, basis)] == 0.0)


def test_default_initial_family_tags_and_masses():
    basis = make_basis("torus1d", 16, 2)
    fam = default_initial_family(basis, level=4, count=3)
    assert [t for t, _ in fam] == ["init_a", "init_b", "init_c"]
    masses = [np.sum(np.abs(f.coeffs) ** 2) for _, f in fam]
    assert masses == pytest.approx([1.0, 0.6, 1.4], rel=1e-12)
    assert not np.array_equal(fam[0][1].coeffs, fam[1][1].coeffs)


def test_scaled_initial_factory_is_reproducible_and_bounded():
    basis = make_basis("torus1d", 16, 2)
    base = default_initial(basis, level=4)
    factory = scaled_initial_factory(base, seed=13, spread=0.3)
    nz = int(np.flatnonzero(np.abs(base.coeffs) > 0)[0])
    again = factory(5)
    assert np.array_equal(factory(5).coeffs, again.coeffs)
    factors = np.array([abs(factory(k).coeffs[nz] / base.coeffs[nz])
                        for k in range(200)])
    assert np.all((factors >= 0.7) & (factors <= 1.3))
    assert factors.std() > 0.05
    assert abs(factors.mean() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# rows on threads

def _threads(monkeypatch, n):
    monkeypatch.setattr(dynamics, "engine_threads", lambda rows, grid_shape: n)


def _same_bits(a, b):
    """Same shape, dtype and bytes; unlike np.array_equal, -0.0 is not 0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", G_VARIANTS)
@pytest.mark.parametrize("b_on", [False, True])
def test_a_row_does_not_depend_on_the_split(kind, scheme, g_variant, b_on, monkeypatch):
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.005,
               snapshot_stride=1, b_profiles=("0.1/(1+lambda)", "0.05") if b_on else (),
               g_variant=g_variant, g_params=(0.3, 0.1) if g_variant != "none" else ())
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch = u0 * (1.0 + 0.1 * np.arange(8))[:, None]
    # keys shared across the slices 0-2, 2-5 and 5-8 of the 3-thread split
    for streams in ([0] * 8, np.tile(np.arange(4), 2)):
        runs = []
        for n in (1, 3):
            _threads(monkeypatch, n)
            runs.append(integrate_paths(cfg, ops, batch, streams, collect_states=True))
        (_, tab1, u1, states1), (_, tab3, u3, states3) = runs
        assert _same_bits(u3, u1) and _same_bits(states3, states1)
        for name, table in tab1.items():
            assert _same_bits(tab3[name], table), name


def _antidamped_rows(amplitudes, **kw):
    # ito_exp_em with beta = -30 multiplies the mass by (1 + 0.3)^2 per step
    cfg = _cfg(scheme="ito_exp_em", beta=-30.0, dt=1e-2, t_final=1.0, snapshot_stride=10, **kw)
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level)
    return cfg, u0, np.array([a * u0.coeffs for a in amplitudes])


def _blow_up(cfg, ops, batch, monkeypatch, n):
    _threads(monkeypatch, n)
    # rows of 1e200 overflow at once; the engine's own error state must reach
    # every thread and override the caller's, so nothing but BlowUpError leaves
    with pytest.raises(BlowUpError) as exc, np.errstate(all="raise"):
        integrate_paths(cfg, ops, batch, range(len(batch)))
    e = exc.value
    assert f"(path {e.path_index})" in str(e)
    return e.step, e.t, e.v_norm, e.path_index


@pytest.mark.parametrize("amplitudes, path", [
    ((0, 1, 0, 0, 1, 0), 1),           # same step, same norm: the lower row
    ((0, 1, 0, 0, 1.01, 0), 4),        # same step: the larger norm
    ((0, 1e-3, 0, 0, 1, 0), 4),        # different steps: the earlier
    ((0, 1, 0, 0, 1e-3, 0), 1),
    ((0, 1e9, 0, 0, 1e200, 0), 4),     # step 1: non-finite before finite
    ((0, 1e200, 0, 1e200, 1e9, 0), 1), # then the lower non-finite row
])
def test_blow_up_does_not_depend_on_the_split(amplitudes, path, monkeypatch):
    cfg, _, batch = _antidamped_rows(amplitudes)
    ops = build_operators(cfg)
    serial = _blow_up(cfg, ops, batch, monkeypatch, 1)
    assert serial[3] == path
    for n in (2, 3):
        assert _blow_up(cfg, ops, batch, monkeypatch, n) == serial


def test_blow_up_on_threads_names_the_ensemble_path(monkeypatch):
    # chunks of 6 paths on 2 threads; paths 7 and 10 of the second chunk blow up
    monkeypatch.setattr(dynamics, "_ENSEMBLE_CHUNK", 6)
    cfg, u0, _ = _antidamped_rows((), paths=12)
    amp = {7: 1e-3, 10: 1.0}
    initial = lambda p: SpectralField(amp.get(p, 0.0) * u0.coeffs, u0.basis)
    got = []
    for n in (1, 2):
        _threads(monkeypatch, n)
        with pytest.raises(BlowUpError) as exc:
            simulate_ensemble(cfg, initial)
        e = exc.value
        got.append((e.step, e.t, e.v_norm, e.path_index))
    assert got[0] == got[1] and got[0][3] == 10


def _counting_stepper(monkeypatch, get):
    """Wrap every stepper to record the OpenBLAS thread count and the thread it runs on."""
    seen = set()
    for scheme, step in list(dynamics._STEPPERS.items()):
        def counted(u, dW, dWt, cfg, ops, step=step):
            seen.add((get(), threading.get_ident()))
            return step(u, dW, dWt, cfg, ops)
        monkeypatch.setitem(dynamics._STEPPERS, scheme, counted)
    return seen


def test_blas_is_pinned_inside_the_engine_and_restored_after(monkeypatch):
    blas = dynamics._openblas_threads()
    if blas is None:
        pytest.skip("numpy has no bundled OpenBLAS")
    get, set_ = blas
    before = get()
    cfg, _, batch = _antidamped_rows((1.0,) * 4 + (0,) * 4)
    ops = build_operators(cfg)
    seen = _counting_stepper(monkeypatch, get)
    _threads(monkeypatch, 2)
    set_(2)    # a count the pin must change and then restore
    try:
        integrate_paths(cfg, ops, 0.0 * batch, range(8))     # zero rows never blow up
        assert get() == 2
        with pytest.raises(BlowUpError):
            integrate_paths(cfg, ops, batch, range(8))
        assert get() == 2
    finally:
        set_(before)
    assert {count for count, _ in seen} == {1} and len({t for _, t in seen}) == 2


def test_without_the_blas_symbols_the_engine_runs_serial(monkeypatch):
    cfg = _cfg(domain_kind="dirichlet2d", modes_per_axis=16, galerkin_level=6,
               nonlinearity_enabled=True, t_final=0.01, snapshot_stride=2,
               b_profiles=("0.1",), g_variant="bounded_nemytskii", g_params=(0.3,))
    ops = build_operators(cfg)
    rows = 2 * dynamics._THREAD_WORK // math.prod(ops.basis.grid_shape) + 2
    assert dynamics.engine_threads(rows, ops.basis.grid_shape) >= min(2, dynamics._cores())
    batch = np.repeat(default_initial(ops.basis, cfg.galerkin_level).coeffs[None], rows, 0)
    threaded = integrate_paths(cfg, ops, batch, range(rows))
    monkeypatch.setattr(dynamics, "_openblas_threads", lambda: None)
    assert dynamics.engine_threads(rows, ops.basis.grid_shape) == 1
    seen = _counting_stepper(monkeypatch, lambda: None)
    serial = integrate_paths(cfg, ops, batch, range(rows))
    assert {t for _, t in seen} == {threading.get_ident()}
    assert _same_bits(serial[2], threaded[2])
    for name, table in threaded[1].items():
        assert _same_bits(serial[1][name], table), name


# ---------------------------------------------------------------------------
# the blow-up guard, checked once per RNG block

def _fresh_step(u, dW, dWt, cfg, ops):
    """One call of the scheme's stepper in a fresh StepWork of u's rows."""
    step_ops = dataclasses.replace(ops, work=dynamics.StepWork(len(u), ops.basis))
    return dynamics._STEPPERS[cfg.scheme](u, dW, dWt, cfg, step_ops)


def _per_step_reference(cfg, ops, u0_batch, streams):
    """The engine as a plain loop: one gather of the increments and one check
    of the blow-up rule after every step.  integrate_paths must reproduce its
    tables, states, final batch and BlowUpError bit for bit."""
    keys = list(dict.fromkeys(streams))
    slots = np.array([keys.index(k) for k in streams])
    nb = ops.B.n_modes
    drivers = [BrownianDriver(cfg.seed, k, nb, ops.G.n_modes, cfg.dt) for k in keys]
    snap_steps = dynamics._snapshot_steps(cfg)
    snap = {int(s): i for i, s in enumerate(snap_steps)}
    tables = {name: np.empty((len(streams), len(snap))) for name in dynamics.OBSERVABLE_NAMES}
    states = np.empty((len(snap),) + u0_batch.shape, dtype=np.complex128)

    def record(u, step):
        if step in snap:
            obs = dynamics._observe_batch(u, cfg, ops)
            for name in tables:
                tables[name][:, snap[step]] = obs[name]
            states[snap[step]] = u

    u = u0_batch.copy()
    record(u, 0)
    step = 0
    while step < cfg.n_steps:
        block = min(dynamics._RNG_BLOCK, cfg.n_steps - step)
        inc = np.stack([d.increments(block) for d in drivers])
        for i in range(block):
            row_inc = inc[slots, i]
            u = _fresh_step(u, row_inc[:, :nb], row_inc[:, nb:], cfg, ops)
            step += 1
            vsq = v_norm_sq(u, ops.basis)
            bad = ~np.isfinite(vsq)
            if bad.any():
                raise BlowUpError(step, step * cfg.dt, math.inf, int(np.argmax(bad)))
            worst = int(np.argmax(vsq))
            if vsq[worst] > dynamics.BLOWUP_V_NORM ** 2:
                raise BlowUpError(step, step * cfg.dt, math.sqrt(vsq[worst]), worst)
            record(u, step)
    return snap_steps * cfg.dt, tables, u, states


def _error(run):
    with pytest.raises(BlowUpError) as exc:
        run()
    e = exc.value
    return e.step, e.t, e.v_norm, e.path_index


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", G_VARIANTS)
@pytest.mark.parametrize("b_on", [False, True])
def test_the_engine_matches_the_per_step_reference(kind, scheme, g_variant, b_on):
    # 270 steps: a full RNG block, then part of one, and a last snapshot off the stride
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.27,
               snapshot_stride=7, b_profiles=("0.1/(1+lambda)", "0.05") if b_on else (),
               g_variant=g_variant, g_params=(0.3, 0.1) if g_variant != "none" else ())
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch = u0 * (1.0 + 0.1 * np.arange(6))[:, None]
    for streams in (list(range(6)), [0, 1, 2, 0, 1, 2]):
        times, tables, u, states = integrate_paths(cfg, ops, batch, streams, collect_states=True)
        ref = _per_step_reference(cfg, ops, batch, streams)
        assert _same_bits(times, ref[0])
        assert _same_bits(u, ref[2]) and _same_bits(states, ref[3])
        for name, table in tables.items():
            assert _same_bits(table, ref[1][name]), name


def _by_factors(scheme):
    """A stepper that applies the diagonal factors one at a time, as the
    steppers did before they were folded into D: the damping, then the B unit
    phase or term, then the G increment, with the linear-diagonal one as the
    column -i dW~ @ gamma times w^2 u.  Its F stage and Nemytskii increment
    are the engine's own functions, in a StepWork of its own per row count."""
    works = {}

    def g_increment(v, dWt, ops, work):
        G = ops.G.variant
        if G == "linear_diagonal":
            return (-1j * (dWt @ ops.G.gammas))[:, None] * (ops.w2 * v)
        if G == "additive":
            return -1j * (dWt @ ops.g_additive_dressed.astype(complex))
        if G == "bounded_nemytskii":
            return dynamics._nemytskii_increment(v, dWt, ops, work).copy()
        return 0.0

    def step(u, dW, dWt, cfg, ops):
        work = works.setdefault(len(u), dynamics.StepWork(len(u), ops.basis))
        x = np.matmul(dW[None], ops.b_eff)[0] if len(ops.b_eff) else None
        if scheme == "ito_exp_em":
            incr = (ops.corr - cfg.beta) * u
            incr *= cfg.dt
            if cfg.nonlinearity_enabled:
                incr -= 1j * cfg.dt * dynamics._nonlinear_coeffs(u, ops, cfg.alpha, work)
            if x is not None:
                incr -= (1j * x) * u
            return ops.rot * (u + (incr + g_increment(u, dWt, ops, work)))
        out = ops.rot * u
        if cfg.nonlinearity_enabled:
            ops.basis.synthesize(out, out=work.grid, scratch=work.mid)
            for _, g, scratch in work.chunks:
                phase = modulus_power(g, cfg.alpha)
                phase *= cfg.dt
                g *= dynamics._unit_phase(phase, scratch)
            out = ops.maskf * ops.basis.analyze(work.grid, scratch=work.mid)
        if cfg.beta != 0.0:
            out *= ops.damp
        if x is not None:
            out *= dynamics._unit_phase(x, np.empty_like(out))
        return out + g_increment(out, dWt, ops, work)

    return step


def _growth(cfg, ops, states, keys):
    """prod_n (1 + l_n) over the steps of a run whose state before step n is
    states[n], (rows, n_modes): l_n bounds how much step n can stretch a
    perturbation of its input, relative to its size, on these rows."""
    basis, nb = ops.basis, ops.B.n_modes
    incs = np.stack([BrownianDriver(cfg.seed, k, nb, ops.G.n_modes, cfg.dt)
                     .increments(cfg.n_steps) for k in keys], axis=1)
    pre = states[:-1] * ops.rot if cfg.scheme == "strat_split" else states[:-1]
    sup = np.abs(basis.synthesize(pre)).reshape(cfg.n_steps, -1).max(axis=1)
    dW, dWt = incs[..., :nb], incs[..., nb:]
    # the F stage: |d(v e^{-i dt |v|^{a-1}})| <= 1 + (a - 1) dt |v|^{a-1}, |dF| <= a |v|^{a-1}
    slope = cfg.alpha - 1.0 if cfg.scheme == "strat_split" else cfg.alpha
    ell = slope * cfg.dt * sup ** (cfg.alpha - 1.0)
    ell += (abs(cfg.beta) + np.abs(ops.corr).max()) * cfg.dt
    if nb:
        ell += np.abs(dW @ ops.b_eff).max(axis=(1, 2))
    c_G = (np.abs(ops.G.gammas).max() if ops.G.variant == "linear_diagonal"
           else ops.G.L_G if ops.G.variant == "bounded_nemytskii" else 0.0)
    ell += c_G * np.abs(dWt).sum(axis=2).max(axis=1)
    return float(np.prod(1.0 + ell))


FOLD_OPS = 24


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", G_VARIANTS)
@pytest.mark.parametrize("b_on", [False, True])
def test_the_folded_factor_moves_a_run_by_round_off_only(kind, scheme, g_variant, b_on,
                                                         monkeypatch):
    """The engine against _by_factors, both through integrate_paths on the
    same increments, for N = 300 steps of 3 rows at stride 1.

    The bound.  Both steps are the same map in exact arithmetic.  Each rounded
    operation, real or complex, errs by at most sqrt(5) eps / 2 < 1.2 eps
    relative to the size of its operands (Brent, Percival and Zimmermann for
    a complex product), and every factor and increment of the tail is at most
    one in modulus relative to the state, so one step's two results differ by
    at most k eps ||u_n||, where k = FOLD_OPS counts the roundings at which
    they can part: at most 11 in the tail applied factor by factor (damping,
    the B factor, then for linear-diagonal G w^2 u, the column product and
    the sum; in ito_exp_em also (b_n - beta) u, dt, the subtraction of the F
    term and of the B term), at most 7 in the folded tail (3 per part of D,
    the damping and the product D u, or the sum D u - i dt P_n F(u) in
    ito_exp_em), and 6 in the stages both share, which see inputs that differ
    by the round-off so far and so may round apart (rot, the two transforms,
    the pointwise F or phase, maskf and the last sum); 11 + 7 + 6 = 24.  A
    step stretches a difference of its input by at most 1 + l_n (_growth):
    (alpha - 1) dt sup|v|^{alpha - 1} for the nonlinear phase of strat_split
    and alpha dt sup|v|^{alpha - 1} for F in ito_exp_em, whose transforms are
    isometries on the band in the grid quadrature, (|beta| + max|b_n|) dt for
    the damping and correction, max|dW @ b_eff| for the B factor or term,
    and max|gamma| or L_G times |dW~|_1 for linear-diagonal or Nemytskii G.
    So after n steps the difference is at most k eps n A max_{j <= n} ||u_j||,
    with A = prod (1 + l_j) over the run, and relative to the reference's
    state at most k eps N A rho, with rho the ratio of the largest to the
    smallest ||u_j|| over the run and the rows.  The bound is first order in
    eps; the run's factors keep it far below one.
    """
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.3,
               snapshot_stride=1, b_profiles=("0.1/(1+lambda)", "0.05") if b_on else (),
               g_variant=g_variant, g_params=(0.3, 0.1) if g_variant != "none" else ())
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch, keys = u0 * (1.0 + 0.1 * np.arange(3))[:, None], [0, 1, 2]
    states = integrate_paths(cfg, ops, batch, keys, collect_states=True)[3]
    monkeypatch.setitem(dynamics._STEPPERS, scheme, _by_factors(scheme))
    ref = integrate_paths(cfg, ops, batch, keys, collect_states=True)[3]
    norms = np.sqrt(h_norm_sq(ref))
    rel = float((np.sqrt(h_norm_sq(states - ref)) / norms).max())
    rho = float(norms.max() / norms.min())
    bound = FOLD_OPS * np.finfo(float).eps * cfg.n_steps * _growth(cfg, ops, ref, keys) * rho
    assert rel <= bound, (rel, bound)


def _linear_runaway(trip_step: int, t_final: float = 3.2):
    """Antidamped linear ito_exp_em, V-norm x 1.3 per step, and the amplitude
    whose V-norm first exceeds BLOWUP_V_NORM at trip_step (half a step of margin)."""
    cfg = _cfg(scheme="ito_exp_em", beta=-30.0, dt=1e-2, t_final=t_final, snapshot_stride=10)
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level).coeffs
    v0 = math.sqrt(float(v_norm_sq(u0, ops.basis)))
    return cfg, ops, u0 * dynamics.BLOWUP_V_NORM / (v0 * 1.3 ** (trip_step - 0.5))


@pytest.mark.parametrize("keys", [[0, 1, 2, 3], [0, 1, 0, 1]])
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("trip_step", [1, 100, 256, 257, 300])
def test_the_block_replay_names_the_step_of_the_per_step_rule(trip_step, threads, keys,
                                                               monkeypatch):
    # 1 and 257 open a block, 256 closes one, 100 and 300 fall inside one; at 2
    # threads the keys [0, 1, 0, 1] are shared across slices, so the replay
    # reads gathered increments
    cfg, ops, amp = _linear_runaway(trip_step)
    batch = np.array([0.0 * amp, 0.5 * amp, amp, 0.0 * amp])
    ref = _error(lambda: _per_step_reference(cfg, ops, batch, keys))
    assert ref[0] == trip_step and ref[3] == 2
    _threads(monkeypatch, threads)
    assert _error(lambda: integrate_paths(cfg, ops, batch, keys)) == ref


@pytest.mark.parametrize("threads, keys, drivers", [(1, [0, 1, 2, 3], 4), (2, [0, 1, 0, 1], 2)])
def test_a_batch_builds_one_driver_per_key_and_draws_each_block_once(threads, keys, drivers,
                                                                     monkeypatch):
    # a trip at step 300 falls in block 1 of 2; its replay draws nothing
    made, drawn = [0], [0]

    class Counted(BrownianDriver):
        def __init__(self, *args):
            made[0] += 1
            super().__init__(*args)

        def increments(self, n_steps):
            drawn[0] += 1
            return super().increments(n_steps)
    cfg, ops, amp = _linear_runaway(300)
    batch = np.array([0.0 * amp, 0.5 * amp, amp, 0.0 * amp])
    monkeypatch.setattr(dynamics, "BrownianDriver", Counted)
    _threads(monkeypatch, threads)
    assert _error(lambda: integrate_paths(cfg, ops, batch, keys))[0] == 300
    assert math.ceil(cfg.n_steps / dynamics._RNG_BLOCK) == 2
    assert (made[0], drawn[0]) == (drivers, 2 * drivers)


@pytest.mark.parametrize("threads", [1, 2])
def test_a_tripped_block_builds_one_workspace_and_observes_nothing_again(threads,
                                                                         monkeypatch):
    # a trip at step 300 falls in block 1 of 2: one StepWork per slice and one
    # for the replay of the whole block, which checks every step and makes no
    # observe call once it has begun
    cfg, ops, amp = _linear_runaway(300)
    batch = np.array([0.0 * amp, 0.5 * amp, amp, 0.0 * amp])
    ref = _error(lambda: _per_step_reference(cfg, ops, batch, range(4)))
    made, events = [0], []
    observe, check = dynamics._observe_batch, dynamics._check_rows

    class Counted(dynamics.StepWork):
        def __init__(self, *args):
            made[0] += 1
            super().__init__(*args)

    def observed(*args):
        events.append("observe")
        return observe(*args)

    def checked(*args):
        events.append("check")
        return check(*args)
    monkeypatch.setattr(dynamics, "StepWork", Counted)
    monkeypatch.setattr(dynamics, "_observe_batch", observed)
    monkeypatch.setattr(dynamics, "_check_rows", checked)
    _threads(monkeypatch, threads)
    assert _error(lambda: integrate_paths(cfg, ops, batch, range(4))) == ref
    assert ref[0] == 300 and made[0] == threads + 1
    replay = events.index("check")
    assert "observe" in events[:replay] and "observe" not in events[replay:]


@pytest.mark.parametrize("threads", [1, 2])
def test_a_row_going_non_finite_mid_block_is_named(threads, monkeypatch):
    # the stepper poisons a row once its mass passes 1e4, far below the V-norm
    # threshold: row 1 turns to NaN at step 18 while rows 0, 2 and 3 stay finite
    for scheme, step in list(dynamics._STEPPERS.items()):
        def poisoned(u, dW, dWt, cfg, ops, step=step):
            out = step(u, dW, dWt, cfg, ops)
            out[np.sum(np.abs(out) ** 2, axis=-1) > 1e4] = np.nan
            return out
        monkeypatch.setitem(dynamics._STEPPERS, scheme, poisoned)
    cfg, ops, _ = _linear_runaway(1)
    u0 = default_initial(ops.basis, cfg.galerkin_level).coeffs
    batch = np.array([1e-3 * u0, u0, 1e-3 * u0, 0.0 * u0])
    ref = _error(lambda: _per_step_reference(cfg, ops, batch, range(4)))
    assert ref[2] == math.inf and ref[3] == 1 and 1 < ref[0] < dynamics._RNG_BLOCK
    _threads(monkeypatch, threads)
    assert _error(lambda: integrate_paths(cfg, ops, batch, range(4))) == ref


@pytest.mark.parametrize("threads", [1, 2])
def test_a_runaway_that_overflows_later_in_the_block_still_ends_in_blow_up(threads,
                                                                          monkeypatch):
    # with the cubic term on, the row overflows a few steps after it trips, in
    # the same block; no errstate here, so under the suite's error filter an
    # overflow warning from the replay would fail the test
    cfg, ops, amp = _linear_runaway(100)
    cfg = dataclasses.replace(cfg, nonlinearity_enabled=True)
    batch = np.array([0.0 * amp, amp, 0.0 * amp, 0.0 * amp])
    with np.errstate(all="ignore"):
        u = batch
        for _ in range(dynamics._RNG_BLOCK):
            u = _fresh_step(u, np.zeros((4, 0)), np.zeros((4, 0)), cfg, ops)
    assert not np.all(np.isfinite(u))
    ref = _error(lambda: _per_step_reference(cfg, ops, batch, range(4)))
    assert ref[3] == 1 and ref[2] < math.inf and ref[0] < dynamics._RNG_BLOCK
    _threads(monkeypatch, threads)
    assert _error(lambda: integrate_paths(cfg, ops, batch, range(4))) == ref


def test_the_engine_checks_the_v_norm_once_per_rng_block(monkeypatch):
    # 600 steps are 3 RNG blocks; calls made by the observables do not count
    cfg = _cfg(t_final=0.6, nonlinearity_enabled=True, b_profiles=("0.1",),
               g_variant="linear_diagonal", g_params=(0.2,))
    ops = build_operators(cfg)
    batch = np.repeat(default_initial(ops.basis, cfg.galerkin_level).coeffs[None], 3, 0)
    calls, inside = [0], [False]
    v_norm, observe = dynamics.v_norm_sq, dynamics._observe_batch

    def counted(u, basis):
        calls[0] += not inside[0]
        return v_norm(u, basis)

    def observed(*args):
        inside[0] = True
        try:
            return observe(*args)
        finally:
            inside[0] = False
    monkeypatch.setattr(dynamics, "v_norm_sq", counted)
    monkeypatch.setattr(dynamics, "_observe_batch", observed)
    integrate_paths(cfg, ops, batch, [0, 0, 0])
    assert calls[0] <= math.ceil(cfg.n_steps / dynamics._RNG_BLOCK) == 3


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_the_guard_and_the_tables_read_the_same_norms(kind):
    # one definition per norm: the guard's v_norm_sq, h_norm_sq and lp_power
    # of the snapshots, one batch as in the engine, are the table's bits
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               beta=0.5, nonlinearity_enabled=True, t_final=0.1, snapshot_stride=1,
               b_profiles=("0.2", "0.1/(1+lambda)"), g_variant="bounded_nemytskii",
               g_params=(0.3, 0.2))
    basis = build_operators(cfg).basis
    rec = simulate(cfg, default_initial(basis, cfg.galerkin_level, mass=3.0),
                   collect_states=True)
    rows = rec.states
    p = cfg.alpha + 1.0
    assert np.array_equal(v_norm_sq(rows, basis), rec.table["v_norm_sq"])
    assert np.array_equal(h_norm_sq(rows), rec.table["mass"])
    assert np.array_equal(lp_power(rows, basis, p) ** (1.0 / p), rec.table["l_alpha1_norm"])


def test_snapshots_are_observed_in_groups_that_cross_snapshots_and_blocks(monkeypatch):
    # the shape of snls invariant: 3 rows on key 0, default.cfg's equation; 301
    # snapshots of 3 rows are groups of 390, 390 and 123 rows on the 21-point
    # grid, which start and end inside snapshots and span RNG blocks
    cfg = _cfg(galerkin_level=4, beta=1.0, t_final=3.0, seed=7, nonlinearity_enabled=True,
               b_profiles=("0.2", "0.1/(1+lambda)"), g_variant="linear_diagonal",
               g_params=(0.3, 0.2))
    ops = build_operators(cfg)
    batch = np.array([f.coeffs for _, f in default_initial_family(ops.basis, 4)])
    n_snap = len(dynamics._snapshot_steps(cfg))
    groups = dynamics._row_chunks(n_snap * 3, ops.basis)
    assert [g.stop - g.start for g in groups] == [390, 390, 123]
    calls, observe = [], dynamics._observe_batch

    def counted(u, *args):
        calls.append(len(u))
        return observe(u, *args)
    monkeypatch.setattr(dynamics, "_observe_batch", counted)
    _, tables, _, states = integrate_paths(cfg, ops, batch, [0, 0, 0], collect_states=True)
    assert calls == [390, 390, 123]
    # a row's bits do not depend on its group: each snapshot observed on its own
    monkeypatch.setattr(dynamics, "_observe_batch", observe)
    for i, snap in enumerate(states):
        obs = observe(snap, cfg, ops)
        for name, table in tables.items():
            assert _same_bits(table[:, i], obs[name]), (i, name)


@pytest.mark.parametrize("kind", ["torus1d", "dirichlet2d"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_threaded_run_at_stride_one_matches_the_serial_one(kind, scheme, monkeypatch):
    # 300 snapshots of 5 rows, split 2 + 3 on two threads: every slice's groups
    # cross snapshots and the RNG block, at other entries than the serial run's
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.3,
               snapshot_stride=1, b_profiles=("0.1/(1+lambda)", "0.05"),
               g_variant="bounded_nemytskii", g_params=(0.3, 0.1))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch = u0 * (1.0 + 0.1 * np.arange(5))[:, None]
    runs = []
    for n in (1, 2):
        _threads(monkeypatch, n)
        runs.append(integrate_paths(cfg, ops, batch, [0, 1, 2, 0, 1], collect_states=True))
    (_, tab1, u1, states1), (_, tab2, u2, states2) = runs
    assert _same_bits(u2, u1) and _same_bits(states2, states1)
    for name, table in tab1.items():
        assert _same_bits(tab2[name], table), name


@pytest.mark.parametrize("threads", [1, 2])
def test_a_replay_that_passes_records_the_tables_of_a_run_without_one(threads, monkeypatch):
    # with the per-step check switched off, every block from the trip on is
    # replayed to its end, which records nothing: the tables and states are
    # the slices', and the run goes on from their last states
    cfg, ops, amp = _linear_runaway(100)
    cfg = dataclasses.replace(cfg, snapshot_stride=1)
    batch = np.array([0.5 * amp, amp, 0.9 * amp, 0.0 * amp])
    _threads(monkeypatch, threads)
    monkeypatch.setattr(dynamics, "BLOWUP_V_NORM", math.inf)
    plain = integrate_paths(cfg, ops, batch, range(4), collect_states=True)
    monkeypatch.undo()
    _threads(monkeypatch, threads)
    monkeypatch.setattr(dynamics, "_check_rows", lambda *args: None)
    replayed = integrate_paths(cfg, ops, batch, range(4), collect_states=True)
    assert _same_bits(replayed[2], plain[2]) and _same_bits(replayed[3], plain[3])
    for name, table in plain[1].items():
        assert _same_bits(replayed[1][name], table), name


def test_floating_point_errors_in_a_block_that_passes_are_not_raised():
    # beta dt = 3: the state decays by e^-3 per step and its quartic
    # observables underflow within the first block, which ends far below the
    # threshold; no snapshot runs under the caller's error state
    cfg = _cfg(beta=300.0, dt=1e-2, t_final=2.0, nonlinearity_enabled=True)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    with np.errstate(under="raise"):
        rec = simulate(cfg, u0)
    assert rec.table["mass"][-1] == 0.0


@pytest.mark.parametrize("knobs", [
    dict(beta=-700.0, dt=1.0, t_final=1.0, nonlinearity_enabled=True),
    dict(scheme="ito_exp_em", b_profiles=("1e154",), t_final=0.27),
])
@pytest.mark.parametrize("strict", ["errstate", "warnings"])
def test_an_overflow_in_the_guard_ends_only_in_blow_up(knobs, strict):
    # both runs overflow at step 1 inside the guard's own V-norm; whatever the
    # caller asks of floating-point errors, only the BlowUpError leaves
    cfg = _cfg(**knobs)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    with warnings.catch_warnings(), np.errstate(all="raise" if strict == "errstate" else "warn"):
        if strict == "warnings":
            warnings.simplefilter("error")
        with pytest.raises(BlowUpError) as exc:
            simulate(cfg, u0)
    assert (exc.value.step, exc.value.v_norm, exc.value.path_index) == (1, math.inf, 0)


# ---------------------------------------------------------------------------
# the step workspace of a row slice

def _nemytskii_2d(**kw):
    """The equation of the ensemble_dirichlet2d benchmark: B on, Nemytskii G."""
    return _cfg(**{**dict(domain_kind="dirichlet2d", modes_per_axis=32, galerkin_level=8,
                          beta=1.0, nonlinearity_enabled=True,
                          b_profiles=("0.2", "0.1/(1+lambda)"),
                          g_variant="bounded_nemytskii", g_params=(0.3, 0.2)), **kw})


def _rows_and_noise(cfg, ops, rows):
    """A batch of `rows` rows and one step's dW and dW~ for it."""
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch = u0 * (1.0 + 0.1 * np.arange(rows))[:, None]
    noise = np.random.default_rng(rows).standard_normal((rows, ops.B.n_modes + ops.G.n_modes))
    return batch, 0.03 * noise[:, :ops.B.n_modes], 0.03 * noise[:, ops.B.n_modes:]


def _largest_numpy_block(run):
    """The largest numpy data block that run() allocates and holds across a
    bytecode of any frame: every temporary of a numpy expression outlives the
    bytecode that makes it."""
    numpy_only = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
    largest = [0]

    def per_bytecode(frame, event, arg):
        traces = tracemalloc.take_snapshot().filter_traces(numpy_only).traces
        largest[0] = max([largest[0]] + [t.size for t in traces])
        return per_bytecode

    def per_frame(frame, event, arg):
        frame.f_trace_opcodes = True
        return per_bytecode
    tracing, tracer = tracemalloc.is_tracing(), sys.gettrace()
    tracemalloc.stop()      # a fresh start traces only the blocks that run() makes
    tracemalloc.start()
    sys.settrace(per_frame)
    try:
        run()
    finally:
        sys.settrace(tracer)
        if not tracing:
            tracemalloc.stop()
    return largest[0]


def _equation(dim, g_variant, **kw):
    """The equation of ensemble_dirichlet2d (dim 2) or of ensemble_torus1d with
    B on (dim 1), with G of the given variant, and the rows of one engine
    slice of its benchmark: 32 and 1024."""
    g = dict(g_variant=g_variant, g_params=(0.3, 0.2) if g_variant != "none" else ())
    if dim == 2:
        return _nemytskii_2d(**g, **kw), 32
    return _cfg(**{**dict(modes_per_axis=32, beta=1.0, nonlinearity_enabled=True,
                          b_profiles=("0.2", "0.1/(1+lambda)")), **g, **kw}), 1024


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", ["linear_diagonal", "additive", "bounded_nemytskii"])
def test_a_warm_step_allocates_no_block_beyond_the_chunk_scratch(dim, scheme, g_variant):
    # every grid temporary of a step is one chunk of rows, at most the chunk
    # scratch of complex grid values; every other array is in the workspace
    cfg, rows = _equation(dim, g_variant, scheme=scheme)
    ops = build_operators(cfg)
    work = dynamics.StepWork(rows, ops.basis)
    bound = max(scratch.nbytes for _, _, scratch in work.chunks)
    assert bound < 128 * 1024 and len(work.chunks) > 1
    step_ops = dataclasses.replace(ops, work=work)
    u, dW, dWt = _rows_and_noise(cfg, ops, rows)
    step = dynamics._STEPPERS[cfg.scheme]
    u = step(u, dW, dWt, cfg, step_ops)
    assert _largest_numpy_block(lambda: step(u, dW, dWt, cfg, step_ops)) <= bound
    # in the step loop, a warm step that fills the tables with the next steps'
    # noise factors writes them into the tables the first fill made: few rows,
    # so that the tables hold several steps and outweigh the scratch
    rows = 1 if dim == 2 else 3
    work = dynamics.StepWork(rows, ops.basis)
    bound = max(scratch.nbytes for _, _, scratch in work.chunks)
    step_ops, nb = dataclasses.replace(ops, work=work), ops.B.n_modes
    u = _rows_and_noise(cfg, ops, rows)[0]
    incs = 0.03 * np.random.default_rng(5).standard_normal((256, rows, nb + ops.G.n_modes))
    steps = dynamics._steps(u, 0, incs, cfg, step_ops)
    next(steps)
    per_load = len(work.tables[0])
    assert 2 <= per_load < 128 and sum(t.nbytes for t in work.tables) > bound
    for _ in range(1, per_load):
        next(steps)
    assert _largest_numpy_block(lambda: next(steps)) <= bound
    assert work.row == 0        # step per_load read the first row of a new fill


@pytest.mark.parametrize("scheme, g_variant, scratch", [
    ("ito_exp_em", "linear_diagonal", False), ("ito_exp_em", "bounded_nemytskii", True),
    ("strat_split", "linear_diagonal", True)])
def test_the_chunk_scratch_is_made_only_by_a_stage_that_uses_it(scheme, g_variant, scratch):
    # ito_exp_em runs f_pointwise over the chunks' grid values and needs no
    # scratch unless the Nemytskii increment mixes in one
    cfg, rows = _equation(1, g_variant, scheme=scheme)
    ops = build_operators(cfg)
    work = dynamics.StepWork(rows, ops.basis)
    u, dW, dWt = _rows_and_noise(cfg, ops, rows)
    dynamics._STEPPERS[cfg.scheme](u, dW, dWt, cfg, dataclasses.replace(ops, work=work))
    assert "grid_chunks" in work.__dict__
    assert ("chunks" in work.__dict__) == scratch


def test_the_unit_phase_gives_an_element_the_same_bits_at_every_call_size():
    # a noise-table fill, a per-step fill, a direct stepper call and every row
    # split call the unit phase on different spans of the same values, so an
    # element's bits must not depend on where its call starts or how long it is
    x = np.concatenate([[0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-300, 1e-8, np.pi,
                         1e6, -1e6], np.random.default_rng(0).standard_normal(5000) * 30.0])
    full = dynamics._unit_phase(x, np.empty(len(x), dtype=complex))
    lengths = [*range(1, 70), 127, 128, 129, 1023, 1024, 1025, 2048, 4096]
    for lo in [*range(0, 17), 31, 63, 100, 511, 903]:
        for n in lengths:
            got = dynamics._unit_phase(x[lo:lo + n], np.empty(n, dtype=complex))
            assert got.tobytes() == full[lo:lo + n].tobytes(), (lo, n)
    # a fact about this platform that nothing in the engine relies on
    assert full.tobytes() == np.exp(-1j * x).tobytes()


def _table_bytes(ops, rows):
    """The bytes a step of `rows` rows takes in a StepWork's noise tables, by
    the rule StepWork.fill states: 16 a row per element of D (n_modes with B
    or linear-diagonal G on) and 8 per real (n_modes with B or additive G on,
    and one with linear-diagonal G)."""
    n, lin = ops.basis.n_modes, int(ops.G.variant == "linear_diagonal")
    d = n if ops.B.n_modes or lin else 0
    r = n if ops.B.n_modes or ops.G.variant == "additive" else 0
    return rows * (16 * d + 8 * (r + lin))


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", G_VARIANTS)
@pytest.mark.parametrize("b_on", [False, True])
def test_a_stepper_fed_a_block_gives_the_bits_of_direct_calls(kind, scheme, g_variant, b_on,
                                                              monkeypatch):
    # the step loop against direct stepper calls: at 1 to 3 rows, tables of 3
    # steps, so a block of 10 steps fills them 4 times, the last time with one
    # step; a one-row step is a matrix-vector product, which a product over
    # the steps keeps and one over the steps x rows flattened does not.  At
    # 1024 rows, on the 1-D kinds (the factors do not depend on the grid), the
    # tables of 128 KiB: one step of every config that has a factor, with D
    # in the coefficient buffer, and all 10 of zero width for the rest.  A
    # direct call fills tables of one step with its own factors.
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True,
               b_profiles=("0.1/(1+lambda)", "0.05") if b_on else (),
               g_variant=g_variant, g_params=(0.3, 0.1) if g_variant != "none" else ())
    ops = build_operators(cfg)
    step, nb = dynamics._STEPPERS[scheme], ops.B.n_modes
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    for rows in (1, 2, 3) if kind.endswith("2d") else (1, 2, 3, 1024):
        per_step = _table_bytes(ops, rows)
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES",
                            3 * per_step if per_step and rows < 1024 else 128 * 1024)
        per_load = max(1, min(dynamics._CHUNK_BYTES // per_step, 10)) if per_step else 10
        incs = 0.03 * np.random.default_rng(rows).standard_normal((10, rows, nb + ops.G.n_modes))
        fed_ops, direct_ops = (dataclasses.replace(ops, work=dynamics.StepWork(rows, ops.basis))
                               for _ in range(2))
        fed = direct = u0 * (1.0 + np.arange(rows) / rows)[:, None]
        for i, (_, fed) in enumerate(dynamics._steps(fed, 0, incs, cfg, fed_ops)):
            direct = step(direct, incs[i, :, :nb], incs[i, :, nb:], cfg, direct_ops)
            assert fed.tobytes() == direct.tobytes(), (rows, i)
        assert [len(t) for t in fed_ops.work.tables] == [per_load] * 3, rows
        assert [len(t) for t in direct_ops.work.tables] == [1] * 3 and fed_ops.work.row is None
        for step_ops in (fed_ops, direct_ops)[per_load > 1:]:
            D = step_ops.work.tables[0]
            assert not D.shape[2] or np.shares_memory(D, step_ops.work.coef)


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_slices_that_share_keys_read_their_noise_tables_with_the_per_step_bits(kind, scheme,
                                                                               monkeypatch):
    # 9 rows on keys 0, 1, 2, 0, 1, 2, ... split over 3 slices of 3 rows: every
    # key runs in every slice, and each slice loads its tables 3 times or more
    # in the first RNG block
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.27,
               snapshot_stride=7, b_profiles=("0.1/(1+lambda)", "0.05"),
               g_variant="linear_diagonal", g_params=(0.3, 0.1))
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch = u0 * (1.0 + 0.1 * np.arange(9))[:, None]
    streams = [0, 1, 2] * 3
    per_load = dynamics._CHUNK_BYTES // _table_bytes(ops, 3)
    assert 14 <= per_load and 2 * per_load < dynamics._RNG_BLOCK
    loads, factors = [], dynamics._diagonal_factors

    def counted(dW, *args):
        loads.append(len(dW))
        return factors(dW, *args)
    monkeypatch.setattr(dynamics, "_diagonal_factors", counted)
    _threads(monkeypatch, 3)
    times, tables, u, states = integrate_paths(cfg, ops, batch, streams, collect_states=True)
    monkeypatch.undo()
    # blocks of 256 and 14 steps
    block0 = [per_load] * (256 // per_load) + [256 % per_load] * (256 % per_load > 0)
    assert sorted(loads) == sorted((block0 + [14]) * 3)
    ref = _per_step_reference(cfg, ops, batch, streams)
    assert _same_bits(u, ref[2]) and _same_bits(states, ref[3])
    for name, table in tables.items():
        assert _same_bits(table, ref[1][name]), name


def test_the_split_step_takes_one_unit_phase_per_step_and_one_per_table_load(monkeypatch):
    # snls invariant's batch, 3 rows of default.cfg on key 0, for 300 steps:
    # 3 x (16 x 16 + 8 x (16 + 1)) = 1176 bytes a step, so the tables hold
    # 131072 // 1176 = 111 steps; the RNG blocks of 256 and 44 steps load
    # them 3 times and once.  Each step's nonlinear phase is one more call.
    text = (Path(dynamics.__file__).resolve().parent / "default.cfg").read_text()
    cfg = dataclasses.replace(parse_config(text), t_final=0.3)
    ops = build_operators(cfg)
    batch = np.array([f.coeffs for _, f in default_initial_family(ops.basis, cfg.galerkin_level)])
    calls, unit_phase = [], dynamics._unit_phase

    def counted(x, out):
        calls.append(x.shape)
        return unit_phase(x, out)
    monkeypatch.setattr(dynamics, "_unit_phase", counted)
    integrate_paths(cfg, ops, batch, [0, 0, 0])
    assert [s[0] for s in calls if len(s) == 3] == [111, 111, 34, 44]
    assert len(calls) == cfg.n_steps + 4


def _stepping_twice(monkeypatch):
    """Wrap every stepper to step its input twice and return the second result."""
    for scheme, step in list(dynamics._STEPPERS.items()):
        def twice(u, dW, dWt, cfg, ops, step=step):
            step(u, dW, dWt, cfg, ops)
            return step(u, dW, dWt, cfg, ops)
        monkeypatch.setitem(dynamics._STEPPERS, scheme, twice)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("one_step", [False, True])
def test_a_steps_noise_factors_follow_the_loop_not_the_stepper_calls(scheme, threads, one_step,
                                                                     monkeypatch):
    # every stepper wrapped to step its input twice: the tables' row is the
    # loop's step, so the run keeps its bits.  snls invariant's batch, 3 rows
    # of default.cfg on key 0, for 300 steps; antidamped and without F, it
    # trips the guard in block 0 after the tables' second fill, and the
    # replay fills its own.  With room for one step only, D lives in the
    # coefficient buffer, which a step's later stages overwrite, so each call
    # makes it again.
    if one_step:
        monkeypatch.setattr(dynamics, "_CHUNK_BYTES", 2000)
    text = (Path(dynamics.__file__).resolve().parent / "default.cfg").read_text()
    cfg = dataclasses.replace(parse_config(text), t_final=0.3, scheme=scheme)
    runaway = dataclasses.replace(cfg, beta=-100.0, nonlinearity_enabled=False)
    ops, runaway_ops = build_operators(cfg), build_operators(runaway)
    batch = np.array([f.coeffs for _, f in default_initial_family(ops.basis, cfg.galerkin_level)])
    _threads(monkeypatch, threads)
    runs = []
    for twice in (False, True):
        if twice:
            _stepping_twice(monkeypatch)
        _, tables, u, states = integrate_paths(cfg, ops, batch, [0, 0, 0], True)
        with pytest.raises(BlowUpError) as exc:
            integrate_paths(runaway, runaway_ops, batch, [0, 0, 0])
        e = exc.value
        runs.append((u, states, tables, (e.step, e.t, e.v_norm, e.path_index)))
    (u1, states1, tables1, err1), (u2, states2, tables2, err2) = runs
    assert _same_bits(u2, u1) and _same_bits(states2, states1) and err2 == err1
    assert 111 < err1[0] < dynamics._RNG_BLOCK
    for name, table in tables2.items():
        assert _same_bits(table, tables1[name]), name


@pytest.mark.parametrize("rows", [1, 3, 9, 10])
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", G_VARIANTS)
def test_a_step_with_its_workspace_matches_a_fresh_one_and_spares_its_input(rows, scheme,
                                                                            g_variant):
    # chunks of 4 rows on this grid: 9 rows end in a lone row that joins the
    # chunk before it, 10 rows in a partial chunk of 2
    cfg, _ = _equation(2, g_variant, scheme=scheme)
    ops = build_operators(cfg)
    assert [c.stop - c.start for c in dynamics._row_chunks(10, ops.basis)] == [4, 4, 2]
    u, dW, dWt = _rows_and_noise(cfg, ops, rows)
    step = dynamics._STEPPERS[cfg.scheme]
    step_ops = dataclasses.replace(ops, work=dynamics.StepWork(rows, ops.basis))
    fresh, kept = u, u.copy()
    for _ in range(3):     # from outside the workspace, then from its own states
        with_work = step(u, dW, dWt, cfg, step_ops)
        assert u.tobytes() == kept.tobytes()        # the input is never written
        fresh = _fresh_step(fresh, dW, dWt, cfg, ops)
        assert with_work.tobytes() == fresh.tobytes()
        u, kept = with_work, with_work.copy()


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_row_of_a_step_does_not_depend_on_the_chunks_beside_it(scheme):
    # three G amplitudes: the Nemytskii mix of a lone row would be a BLAS
    # matrix-vector product, which rounds unlike the matrix-matrix product
    cfg = _nemytskii_2d(scheme=scheme, g_params=(0.3, 0.2, 0.1))
    ops = build_operators(cfg)
    u, dW, dWt = _rows_and_noise(cfg, ops, 10)
    ten = _fresh_step(u, dW, dWt, cfg, ops)
    for rows in (9, 5, 3, 2):
        got = _fresh_step(u[:rows], dW[:rows], dWt[:rows], cfg, ops)
        assert got.tobytes() == ten[:rows].tobytes()


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("g_variant", ["none", "bounded_nemytskii"])
def test_two_slices_on_one_pool_thread_keep_their_rows(kind, scheme, g_variant, monkeypatch):
    # a 3-way split on a pool of one thread runs slices 1 and 2 on the same
    # thread, one after the other; buffers kept per thread would hand slice 2
    # the buffer that slice 1's last state is still in
    cfg = _cfg(domain_kind=kind, modes_per_axis=8 if kind.endswith("2d") else 16,
               scheme=scheme, beta=0.5, nonlinearity_enabled=True, t_final=0.005,
               snapshot_stride=1, b_profiles=("0.1/(1+lambda)", "0.05"),
               g_variant=g_variant, g_params=(0.3, 0.1) if g_variant != "none" else ())
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    batch = u0 * (1.0 + 0.1 * np.arange(8))[:, None]
    runs = []
    with ThreadPoolExecutor(1) as pool:
        monkeypatch.setattr(dynamics, "_workers", lambda n, pid: pool)
        for n in (1, 3):
            _threads(monkeypatch, n)
            runs.append(integrate_paths(cfg, ops, batch, range(8), collect_states=True))
    (_, tab1, u1, states1), (_, tab3, u3, states3) = runs
    assert _same_bits(u3, u1) and _same_bits(states3, states1)
    for name, table in tab1.items():
        assert _same_bits(tab3[name], table), name
