"""Integrator tests: exact substep laws, discrete moment recursions, RNG layout."""

import logging
import math

import numpy as np
import pytest

from snls.dynamics import (
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
from snls.spectral import SpectralField, make_basis


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
    a_W, a_Wt = d1.increments(100)
    b_W, b_Wt = d2.increments(100)
    assert np.array_equal(a_W, b_W) and np.array_equal(a_Wt, b_Wt)
    c_W, _ = d1.increments(100)           # continuation, not a replay
    assert not np.array_equal(a_W, c_W)
    other_W, _ = BrownianDriver(42, 8, n_B=2, n_G=1, dt=1e-3).increments(100)
    assert not np.array_equal(a_W, other_W)


def test_brownian_increments_do_not_depend_on_the_draw_blocks():
    # the engine draws increments in blocks; the block size must not move a bit
    whole_W, whole_Wt = BrownianDriver(42, 7, n_B=2, n_G=1, dt=1e-3).increments(300)
    d = BrownianDriver(42, 7, n_B=2, n_G=1, dt=1e-3)
    parts = [d.increments(n) for n in (64, 64, 64, 64, 44)]
    assert np.array_equal(whole_W, np.concatenate([W for W, _ in parts]))
    assert np.array_equal(whole_Wt, np.concatenate([Wt for _, Wt in parts]))


def test_brownian_increments_have_the_right_scale_and_no_cross_correlation():
    dt = 2e-3
    W, Wt = BrownianDriver(3, 0, n_B=2, n_G=1, dt=dt).increments(20000)
    z = np.hstack([W, Wt]) / math.sqrt(dt)
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
