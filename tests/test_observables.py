"""Functional evaluations against closed forms, budget and two-point diagnostics."""

import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest

import snls.dynamics
from snls.dynamics import (
    ConfigurationError,
    EnsembleReport,
    SdeConfig,
    build_operators,
    default_initial,
    default_initial_family,
    simulate,
    simulate_ensemble,
    state_functionals,
)
from snls.ergodicity import decay_rate_fit
from snls.observables import (
    contraction_diagnostic,
    mass_budget_residual,
    supermartingale_trace,
)
from snls.operators import antiderivative_F
from snls.spectral import SpectralField, make_basis


def _cfg(**kw) -> SdeConfig:
    base = dict(domain_kind="torus1d", modes_per_axis=16, galerkin_level=9,
                alpha=3.0, beta=0.0, scheme="strat_split", dt=1e-3,
                t_final=0.1, seed=23, snapshot_stride=1,
                nonlinearity_enabled=False)
    base.update(kw)
    return SdeConfig(**base)


def _random_band_field(basis, seed=4):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=basis.n_modes) + 1j * rng.normal(size=basis.n_modes)
    return SpectralField(c * np.exp(-basis.s_eigs / 6.0), basis)


# ---------------------------------------------------------------------------
# pointwise functionals

def _functionals(u: SpectralField, alpha: float) -> SimpleNamespace:
    """The five functionals of one state, as a batch of one."""
    values = state_functionals(u.coeffs[None, :], u.basis, alpha)
    return SimpleNamespace(**{name: float(v[0]) for name, v in values.items()})


def test_state_functionals_of_the_zero_field_are_identically_zero():
    basis = make_basis("torus1d", 16, 2)
    s = _functionals(SpectralField(np.zeros(basis.n_modes, dtype=complex), basis), 3.0)
    assert (s.mass, s.energy, s.v_norm_sq, s.z, s.l_alpha1_norm) == (0, 0, 0, 0, 0)


def test_state_functionals_reject_alpha_at_most_one():
    basis = make_basis("torus1d", 16, 2)
    with pytest.raises(ConfigurationError,
                       match=r"key 'alpha': expected a finite real exceeding 1, got 1\.0"):
        state_functionals(np.zeros((1, basis.n_modes), dtype=complex), basis, 1.0)


def test_state_functionals_single_torus_mode_closed_forms():
    basis = make_basis("torus1d", 16, 2)
    k, c = 3, 0.8 - 0.5j
    coeffs = np.zeros(basis.n_modes, dtype=complex)
    coeffs[k] = c
    s = _functionals(SpectralField(coeffs, basis), 3.0)
    m = abs(c) ** 2
    assert s.mass == pytest.approx(m, rel=1e-13)
    assert s.v_norm_sq == pytest.approx((1 + k ** 2) * m, rel=1e-13)
    assert s.energy == pytest.approx(0.5 * k ** 2 * m + m ** 2 / (8 * np.pi), rel=1e-12)
    assert s.l_alpha1_norm == pytest.approx(abs(c) / (2 * np.pi) ** 0.25, rel=1e-12)


def test_state_functionals_z_identity_and_scaling():
    basis = make_basis("torus1d", 16, 2)
    u = _random_band_field(basis)
    s = _functionals(u, 3.0)
    fhat = antiderivative_F(u, 3.0)
    assert s.z == pytest.approx(s.v_norm_sq + 2.0 * fhat, rel=1e-12)

    s2 = _functionals(SpectralField(2.0 * u.coeffs, basis), 3.0)
    kin = s.energy - fhat
    assert s2.mass == pytest.approx(4 * s.mass, rel=1e-13)
    assert s2.v_norm_sq == pytest.approx(4 * s.v_norm_sq, rel=1e-13)
    assert s2.energy == pytest.approx(4 * kin + 16 * fhat, rel=1e-12)
    assert s2.l_alpha1_norm == pytest.approx(2 * s.l_alpha1_norm, rel=1e-13)


def test_state_functionals_quadrature_matches_a_refined_grid():
    coarse = make_basis("torus1d", 16, 2)
    fine = make_basis("torus1d", 16, 8)
    u = _random_band_field(coarse)
    for alpha, tol in ((3.0, 1e-12), (4.5, 1e-8)):
        a = _functionals(u, alpha)
        b = _functionals(SpectralField(u.coeffs, fine), alpha)
        assert a.energy == pytest.approx(b.energy, rel=tol)
        assert a.l_alpha1_norm == pytest.approx(b.l_alpha1_norm, rel=tol)


# ---------------------------------------------------------------------------
# mass budget

def test_budget_residual_vanishes_for_the_conservative_flow():
    cfg = _cfg(nonlinearity_enabled=True, t_final=0.1)
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    res = mass_budget_residual(rec)
    assert res[0] == 0.0
    assert np.max(np.abs(res)) < 1e-7      # reprojection shedding only


def test_budget_residual_for_pure_damping_is_trapezoid_small():
    cfg = _cfg(beta=0.8, t_final=0.5)
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    res = mass_budget_residual(rec)
    assert np.max(np.abs(res)) < 5e-6
    # sign check: dropping the damping term would leave ~ m0*(1 - e^{-2 beta t})
    wrong = rec.table["mass"] - rec.table["mass"][0]
    assert np.max(np.abs(wrong)) > 0.5


def test_budget_residual_mean_is_centred_for_noisy_ensembles():
    cfg = _cfg(beta=0.7, t_final=0.1, paths=2000,
               b_profiles=("0.3", "0.15/sqrt(lambda)"),
               g_variant="linear_diagonal", g_params=(0.4,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    mean, se = rep.mean["residual"], rep.stderr["residual"]
    assert np.all(np.abs(mean) <= 4.0 * se + 1e-5)
    assert np.max(np.abs(mean)) > 0 or np.all(se == 0)


# ---------------------------------------------------------------------------
# supermartingale trace

def test_supermartingale_preconditions_are_enforced():
    cfg = _cfg(beta=1.0, t_final=0.01, paths=2,
               g_variant="additive", g_params=(0.15, 0.1))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    with pytest.raises(ConfigurationError, match="C1 = "):
        supermartingale_trace(rep, 0.0)

    cfg2 = _cfg(beta=0.5, t_final=0.01, paths=2,
                g_variant="linear_diagonal", g_params=(0.4,))
    rep2 = simulate_ensemble(cfg2, default_initial(
        build_operators(cfg2).basis, cfg2.galerkin_level))
    with pytest.raises(ConfigurationError, match="lambda"):
        supermartingale_trace(rep2, 0.9)       # bound is 2*0.5 - 0.16 = 0.84


def test_supermartingale_zero_noise_closed_form():
    beta, lam = 0.9, 0.7
    cfg = _cfg(beta=beta, t_final=0.5, snapshot_stride=25, paths=3)
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    tr = supermartingale_trace(rep, lam)
    m0 = rep.mean["mass"][0]
    assert np.allclose(tr.value, m0 * np.exp((lam - 2 * beta) * tr.times), rtol=1e-12)
    assert tr.violations.size == 0
    assert np.all(tr.diff <= 0.0)


def test_supermartingale_trace_decays_under_linear_noise():
    beta, gam = 0.7, 0.4
    cfg = _cfg(beta=beta, t_final=0.5, snapshot_stride=25, paths=500,
               g_variant="linear_diagonal", g_params=(gam,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    tr = supermartingale_trace(rep, 0.0)
    rate = gam ** 2 - 2 * beta
    assert tr.value[-1] / tr.value[0] == pytest.approx(math.exp(rate * 0.5), rel=1e-2)
    assert tr.violations.size == 0


def test_supermartingale_audit_flags_a_rising_trace():
    times = np.array([0.0, 0.1, 0.2])
    mass = np.array([1.0, 1.2, 1.5])
    zeros = np.zeros_like(mass)
    cfg = _cfg(beta=5.0, t_final=0.2, snapshot_stride=100)
    rep = EnsembleReport(
        times=times, n_paths=100,
        mean={"mass": mass}, var={"mass": zeros + 1e-8},
        stderr={"mass": zeros + 1e-5},
        mass_lag1_mean=mass[:-1] * mass[1:],
        cfg=cfg, G=build_operators(cfg).G)
    tr = supermartingale_trace(rep, 0.0)
    assert np.array_equal(tr.value, mass)
    assert tr.violations.tolist() == [0, 1]


def test_report_diagnostics_read_g_from_the_report(monkeypatch):
    cfg = _cfg(beta=1.0, t_final=0.05, snapshot_stride=10, paths=3,
               g_variant="linear_diagonal", g_params=(0.3,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))

    def rebuilt(*args, **kwargs):
        raise AssertionError("the basis was built again")
    monkeypatch.setattr(snls.dynamics, "make_basis", rebuilt)
    assert supermartingale_trace(rep, 0.5).violations.size == 0
    assert decay_rate_fit(rep).rate < 0.0


# ---------------------------------------------------------------------------
# moment envelope under additive forcing

def test_mass_envelope_under_additive_forcing():
    # E||u||^2 <= (m0 + 2 C1^2 t) e^{2(C1t^2 - beta) t} on a horizon with
    # (e^x - 1)/x <= 2 for x = 2 beta t
    beta, amps, T, dt = 1.0, (0.15, 0.1), 0.5, 1e-3
    cfg = _cfg(beta=beta, dt=dt, t_final=T, snapshot_stride=25, paths=4000,
               g_variant="additive", g_params=amps)
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    c1_sq = sum(a ** 2 for a in amps)
    m0 = rep.mean["mass"][0]
    envelope = (m0 + 2.0 * c1_sq * rep.times) * np.exp(-2.0 * beta * rep.times)

    # discrete mass law: per step m -> e^{-2 beta dt} m + C1^2 dt
    steps = np.round(rep.times / dt).astype(int)
    q = math.exp(-2.0 * beta * dt)
    law = q ** steps * m0 + c1_sq * dt * (1.0 - q ** steps) / (1.0 - q)
    gap = np.abs(rep.mean["mass"] - law)
    assert np.all(gap[1:] <= 4.0 * rep.stderr["mass"][1:])

    # the law sits below the envelope on this horizon, and the sample does
    # up to Monte Carlo noise; the envelope binds to within ~15 percent
    assert np.all(law <= envelope + 1e-12)
    assert np.all(rep.mean["mass"] <= envelope + 4.0 * rep.stderr["mass"] + 1e-12)
    assert envelope[-1] < 1.15 * law[-1]


# ---------------------------------------------------------------------------
# two-point contraction

def test_contraction_identical_data_stays_at_zero():
    cfg = _cfg(beta=0.5, t_final=0.05, snapshot_stride=10, paths=4,
               b_profiles=("0.3",), g_variant="linear_diagonal", g_params=(0.2,))
    u0 = default_initial(make_basis("torus1d", 16, 2), cfg.galerkin_level)
    rep = contraction_diagnostic(u0, u0, cfg)
    assert rep.d0 == 0.0
    assert np.all(rep.d_pairs == 0.0)


def test_contraction_projects_out_of_band_data_with_warning(caplog):
    cfg = _cfg(galerkin_level=2, t_final=0.0, paths=2)
    basis = make_basis("torus1d", 16, 2)
    ones = SpectralField(np.ones(basis.n_modes, dtype=complex), basis)
    with caplog.at_level(logging.WARNING, logger="snls.dynamics"):
        rep = contraction_diagnostic(ones, ones, cfg)
    assert "projecting" in caplog.text
    assert rep.d0 == 0.0


def test_contraction_common_multiplicative_noise_cancels_exactly():
    # F off, G off: every substep is a common per-mode phase, so D is constant
    cfg = _cfg(beta=0.6, t_final=0.1, snapshot_stride=10, paths=8,
               b_profiles=("0.5", "0.3/sqrt(lambda)"))
    basis = make_basis("torus1d", 16, 2)
    fam = default_initial_family(basis, cfg.galerkin_level, count=2)
    rep = contraction_diagnostic(fam[0][1], fam[1][1], cfg)
    assert rep.lip_g == 0.0
    assert np.allclose(rep.d_pairs, rep.d0, rtol=1e-10)


def test_contraction_linear_noise_discrete_oracle():
    beta, gam, T, dt, pairs = 0.7, 0.4, 0.2, 1e-3, 600
    cfg = _cfg(beta=beta, dt=dt, t_final=T, snapshot_stride=25, paths=pairs,
               b_profiles=("0.3",), g_variant="linear_diagonal", g_params=(gam,))
    basis = make_basis("torus1d", 16, 2)
    fam = default_initial_family(basis, cfg.galerkin_level, count=2)
    rep = contraction_diagnostic(fam[0][1], fam[1][1], cfg)
    assert rep.lip_g == pytest.approx(gam)
    n = round(T / dt)
    oracle = rep.d0 * math.exp(-gam * T) * (1.0 + gam ** 2 * dt) ** n
    err = abs(rep.d_mean[-1] - oracle)
    assert err < 5.0 * rep.d_stderr[-1]


def test_contraction_with_nonlinearity_is_nonexpanding_in_the_mean():
    cfg = _cfg(beta=0.7, t_final=0.05, snapshot_stride=5, paths=16,
               nonlinearity_enabled=True,
               g_variant="linear_diagonal", g_params=(0.2,))
    basis = make_basis("torus1d", 16, 2)
    fam = default_initial_family(basis, cfg.galerkin_level, count=2)
    rep = contraction_diagnostic(fam[0][1], fam[1][1], cfg)
    assert rep.d_mean[-1] <= rep.d0
