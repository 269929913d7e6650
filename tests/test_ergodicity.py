"""Time averages, occupation profiles, fingerprints, and decay-rate fits."""

import math
from dataclasses import replace

import numpy as np
import pytest

from snls import dynamics
from snls.dynamics import (
    ConfigurationError,
    SdeConfig,
    build_operators,
    default_initial,
    default_initial_family,
    simulate,
    simulate_ensemble,
)
from snls.ergodicity import (
    decay_rate_fit,
    invariant_fingerprint,
    ks_statistic,
    min_mass_1,
    radius_indicator,
    tanh_v_norm_sq,
    time_average,
    trapezoid,
)
from snls.dynamics import cumulative_trapezoid
from snls.spectral import make_basis


def _cfg(**kw) -> SdeConfig:
    base = dict(domain_kind="torus1d", modes_per_axis=16, galerkin_level=9,
                alpha=3.0, beta=0.9, scheme="strat_split", dt=2e-3,
                t_final=1.0, seed=31, snapshot_stride=5,
                nonlinearity_enabled=False)
    base.update(kw)
    return SdeConfig(**base)


def _occupation(rec, radii):
    """Fractions of [0, T] with ||u||_V > R, from the stack of indicator rows."""
    stack = np.stack([radius_indicator(r)(rec.table) for r in radii])
    return time_average(rec.times, stack, rec.times[0], rec.times[-1])


# ---------------------------------------------------------------------------
# functionals

def test_functionals_are_bounded_and_labelled():
    tab = {"mass": np.array([0.0, 0.5, 3.0]), "v_norm_sq": np.array([0.0, 1.0, 50.0])}
    assert np.array_equal(min_mass_1(tab), [0.0, 0.5, 1.0])
    out = tanh_v_norm_sq(tab)
    assert np.all((out >= 0.0) & (out <= 1.0))    # tanh(50) rounds to 1.0
    assert out[1] < 1.0
    ind = radius_indicator(2.0)(tab)
    assert ind.tolist() == [0.0, 0.0, 1.0]      # threshold is on the square
    phi = radius_indicator(2.5)
    assert phi.__name__ == "v_gt_2.5"
    assert phi({"v_norm_sq": np.array([6.0, 6.5])}).tolist() == [0.0, 1.0]   # 2.5^2 = 6.25


@pytest.mark.parametrize("radius", [-3.0, -1e-300, math.nan])
def test_radius_indicator_rejects_a_negative_radius(radius):
    # squaring would test ||u||_V > |R| under the label v_gt_-3
    with pytest.raises(ConfigurationError, match="radius must be non-negative"):
        radius_indicator(radius)


# ---------------------------------------------------------------------------
# time averages

def test_time_average_of_a_constant_is_the_constant():
    times = np.linspace(0, 2, 21)
    assert time_average(times, np.full(21, 0.37), 0.5, 2.0) == pytest.approx(0.37, abs=1e-15)
    for q in range(4):
        assert time_average(times, np.full(21, 0.37), 0.5 + 0.375 * q,
                            0.5 + 0.375 * (q + 1)) == pytest.approx(0.37, abs=1e-15)


def test_time_average_stays_in_the_convex_hull_and_rejects_an_empty_window():
    times = np.linspace(0, 1, 11)
    mass = np.linspace(0.2, 0.9, 11)
    vals = min_mass_1({"mass": mass})
    for t0, t1 in [(0.0, 1.0), (0.0, 0.25), (0.25, 0.5), (0.5, 0.75), (0.75, 1.0)]:
        assert mass.min() <= time_average(times, vals, t0, t1) <= mass.max()
    with pytest.raises(ConfigurationError, match="no snapshots"):
        time_average(times, vals, 1.05, 2.0)
    with pytest.raises(ConfigurationError, match="no snapshots"):
        time_average(times, vals, 0.61, 0.69)


def test_time_average_of_one_snapshot_is_its_value():
    times = np.linspace(0, 1, 11)
    table = np.arange(22.0).reshape(2, 11)
    assert np.array_equal(time_average(times, table, 0.55, 0.65), table[:, 6])
    assert np.array_equal(time_average(times, table, 1.0, 1.0), table[:, -1])


def test_time_average_is_batched_over_the_leading_axes():
    rng = np.random.default_rng(12)
    times = np.cumsum(rng.uniform(0.01, 0.2, 40))
    table = rng.standard_normal((3, 4, 40))
    for t0, t1 in [(times[0], times[-1]), (times[5], times[30]), (0.3, 1.7)]:
        got = time_average(times, table, t0, t1)
        assert got.shape == (3, 4)
        for idx in np.ndindex(3, 4):
            assert got[idx] == time_average(times, table[idx], t0, t1)


def test_time_average_saturates_at_one_when_mass_stays_large():
    times = np.linspace(0, 1, 9)
    assert time_average(times, min_mass_1({"mass": np.full(9, 2.5)}), 0.25, 1.0) == 1.0


def test_quarter_averages_decay_in_the_dissipative_regime():
    # beta > C1t^2 / 2 drives every path to zero: the last quarter of
    # [burn_in, T] averages below the first
    cfg = _cfg(beta=1.5, t_final=2.0, g_variant="linear_diagonal", g_params=(0.4,))
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level, mass=1.5)
    burn_in, T = 0.4, cfg.t_final
    span = T - burn_in
    hits = 0
    for seed in range(20):
        rec = simulate(_cfg(beta=1.5, t_final=2.0, seed=seed,
                            g_variant="linear_diagonal", g_params=(0.4,)), u0)
        vals = min_mass_1(rec.table)
        first = time_average(rec.times, vals, burn_in, burn_in + span / 4.0)
        last = time_average(rec.times, vals, burn_in + 3.0 * span / 4.0, T)
        hits += last < first
    assert hits >= 19


# ---------------------------------------------------------------------------
# occupation fractions of V-norm balls (tightness)

def test_occupation_fractions_are_monotone_with_exact_endpoints():
    cfg = _cfg(beta=0.7, t_final=1.0, g_variant="linear_diagonal", g_params=(0.3,))
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    fractions = _occupation(rec, [1e-6, 1.0, 2.0, 4.0, 1e6])
    assert np.all(np.diff(fractions) <= 0.0)
    assert fractions[0] == 1.0
    assert fractions[-1] == 0.0
    assert np.all((fractions >= 0.0) & (fractions <= 1.0))


def test_occupation_fractions_obey_chebyshev_against_the_same_average():
    cfg = _cfg(beta=0.5, t_final=1.0, nonlinearity_enabled=True,
               b_profiles=("0.3",), g_variant="linear_diagonal", g_params=(0.3,))
    rec = simulate(cfg, default_initial(build_operators(cfg).basis, cfg.galerkin_level))
    radii = [0.5, 1.0, 2.0]
    fractions = _occupation(rec, radii)
    from scipy.integrate import trapezoid
    t, vsq = rec.times, rec.table["v_norm_sq"]
    avg_vsq = trapezoid(vsq, t) / (t[-1] - t[0])
    for r, frac in zip(radii, fractions):
        assert frac <= avg_vsq / r ** 2 + 1e-12


# ---------------------------------------------------------------------------
# fingerprint

def test_fingerprint_of_identical_initial_data_has_zero_discrepancy():
    cfg = _cfg(beta=0.7, t_final=0.5, g_variant="linear_diagonal", g_params=(0.3,))
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    rep = invariant_fingerprint(cfg, [("init_a", u0), ("init_b", u0)])
    assert rep.tags == ("init_a", "init_b")
    assert rep.values.shape == (2, 2)
    assert np.all(rep.pairwise_max == 0.0)
    assert np.all(rep.ks_max == 0.0)
    assert rep.window == (0.1, 0.5)


def test_fingerprint_needs_two_initial_data_and_honours_t_final():
    cfg = _cfg(t_final=0.5)
    u0 = default_initial(build_operators(cfg).basis, cfg.galerkin_level)
    with pytest.raises(ConfigurationError, match="at least 2"):
        invariant_fingerprint(cfg, [("only", u0)])
    rep = invariant_fingerprint(replace(cfg, t_final=0.25), [("a", u0), ("b", u0)],
                                phis=(min_mass_1, radius_indicator(2)))
    assert rep.window[1] == 0.25
    assert rep.phis == ("min_mass_1", "v_gt_2")
    assert np.all((rep.values >= 0.0) & (rep.values <= 1.0))


def test_fingerprint_evaluates_each_functional_once():
    calls = []

    def counted(tab):
        calls.append(tab["mass"].shape)
        return np.minimum(tab["mass"], 1.0)

    cfg = _cfg(t_final=0.25)
    fam = default_initial_family(build_operators(cfg).basis, cfg.galerkin_level, count=3)
    rep = invariant_fingerprint(cfg, fam, phis=(counted, min_mass_1))
    assert calls == [(3, 26)]                  # one call on the whole batch table
    assert rep.phis == ("counted", "min_mass_1")
    assert np.array_equal(rep.values[0], rep.values[1])


@pytest.mark.parametrize("phis", [
    (min_mass_1, radius_indicator(1.0000001), radius_indicator(1.0000002)),
    (min_mass_1, tanh_v_norm_sq, min_mass_1),
])
def test_fingerprint_rejects_two_functionals_with_one_label(phis, monkeypatch):
    # fingerprint.csv keys its rows by label; the error comes before any integration
    monkeypatch.setattr(dynamics, "integrate_paths",
                        lambda *args: pytest.fail("the fingerprint integrated"))
    cfg = _cfg(t_final=0.25)
    fam = default_initial_family(build_operators(cfg).basis, cfg.galerkin_level, count=3)
    label = phis[-1].__name__
    with pytest.raises(ConfigurationError, match=f"share the label '{label}'"):
        invariant_fingerprint(cfg, fam, phis=phis)


@pytest.mark.parametrize("b_profiles", [(), ("0.3", "0.1/(1+lambda)")])
def test_fingerprint_batch_matches_per_datum_simulate(b_profiles):
    # The fingerprint runs its initial data as rows of one batch on stream 0;
    # each row must reproduce simulate() of that datum.  A batch may round
    # differently from one row, because BLAS picks another kernel for it: in
    # the 1-D transforms and in the noise products (dW @ b_eff, dWt @ gammas).
    # At most 3.3e-15 was measured over four geometries, both schemes and
    # every G variant.
    cfg = _cfg(beta=0.7, t_final=0.5, nonlinearity_enabled=True, b_profiles=b_profiles,
               g_variant="linear_diagonal", g_params=(0.3,))
    basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    fam = default_initial_family(basis, cfg.galerkin_level, count=3)
    phis = (min_mass_1, tanh_v_norm_sq)
    rep = invariant_fingerprint(cfg, fam, phis=phis)
    burn_in = cfg.burn_in_fraction * cfg.t_final
    for j, (tag, field) in enumerate(fam):
        rec = simulate(cfg, field)
        for i, phi in enumerate(phis):
            single = time_average(rec.times, phi(rec.table), burn_in, rec.times[-1])
            assert abs(rep.values[i, j] - single) <= 1e-12, (tag, phi.__name__)


def test_fingerprint_collapses_when_every_path_dies():
    # C1 = 0 and beta > C1t^2/2: all fingerprints approach phi(0) = 0
    cfg = _cfg(beta=2.0, t_final=3.0, snapshot_stride=10,
               g_variant="linear_diagonal", g_params=(0.3,),
               burn_in_fraction=1.0 / 3.0)
    basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    fam = default_initial_family(basis, cfg.galerkin_level, count=3)
    rep = invariant_fingerprint(cfg, fam)
    assert np.all(rep.values < 0.05)
    assert np.all(rep.pairwise_max < 0.05)


# ---------------------------------------------------------------------------
# decay-rate fit

def test_decay_rate_fit_recovers_pure_damping_exactly():
    beta = 0.9
    cfg = _cfg(beta=beta, t_final=1.0, paths=2)
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    fit = decay_rate_fit(rep)
    assert fit.rate == pytest.approx(-2.0 * beta, rel=1e-6)
    assert not fit.warning and fit.message == ""
    assert fit.ci[0] <= -2.0 * beta <= fit.ci[1]
    assert fit.n_points == len(rep.times)


def test_decay_rate_fit_matches_the_linear_noise_rate():
    beta, gam, dt = 0.7, 0.4, 2e-3
    cfg = _cfg(beta=beta, dt=dt, t_final=1.0, paths=800,
               g_variant="linear_diagonal", g_params=(gam,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    fit = decay_rate_fit(rep)
    expected = -2.0 * beta + math.log(1.0 + gam ** 2 * dt) / dt
    assert abs(fit.rate - expected) < 0.02
    assert fit.ci[0] <= expected <= fit.ci[1]
    assert not fit.warning


def test_decay_rate_fit_is_flat_at_the_balance_point():
    gam = 0.6
    cfg = _cfg(beta=0.5 * gam ** 2, dt=1e-3, t_final=1.0, paths=800, seed=5,
               g_variant="linear_diagonal", g_params=(gam,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    fit = decay_rate_fit(rep)
    assert abs(fit.rate) < 3e-3


def test_decay_rate_fit_warns_when_mass_grows():
    cfg = _cfg(beta=0.0, t_final=1.0, paths=200,
               g_variant="linear_diagonal", g_params=(0.5,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    fit = decay_rate_fit(rep)
    assert fit.rate > 0.0
    assert fit.warning and "not decaying" in fit.message


def test_decay_rate_fit_drops_snapshots_whose_mean_mass_underflowed():
    # mass e^{-800 t} reaches the smallest subnormal at t = 0.93 and is 0 after it
    beta = 400.0
    cfg = _cfg(beta=beta, t_final=1.0, paths=2)
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    mean = rep.mean["mass"]
    kept = int(np.count_nonzero(mean > 0.0))
    assert 3 <= kept < len(mean) and np.all(mean[kept:] == 0.0)
    fit = decay_rate_fit(rep)
    assert fit.warning and fit.message == "non-positive mean mass excluded from the fit"
    assert fit.n_points == kept
    assert fit.window == (rep.times[0], rep.times[kept - 1])
    assert fit.rate == pytest.approx(-2.0 * beta, rel=1e-4)
    assert fit.ci[0] <= -2.0 * beta <= fit.ci[1]


def test_decay_rate_fit_preconditions():
    cfg = _cfg(beta=1.0, t_final=0.01, dt=5e-3, snapshot_stride=1, paths=2,
               g_variant="additive", g_params=(0.1,))
    rep = simulate_ensemble(cfg, default_initial(
        build_operators(cfg).basis, cfg.galerkin_level))
    with pytest.raises(ConfigurationError, match="C1 = "):
        decay_rate_fit(rep)

    cfg2 = _cfg(beta=1.0, t_final=5e-3, dt=5e-3, snapshot_stride=1, paths=2)
    rep2 = simulate_ensemble(cfg2, default_initial(
        build_operators(cfg2).basis, cfg2.galerkin_level))
    with pytest.raises(ConfigurationError, match="at least 3"):
        decay_rate_fit(rep2)


def test_numpy_quadrature_and_ks_match_scipy_exactly():
    from scipy.integrate import cumulative_trapezoid as sp_cumtrapz
    from scipy.integrate import trapezoid as sp_trapz
    from scipy.stats import ks_2samp

    rng = np.random.default_rng(8)
    for trial in range(200):
        n = int(rng.integers(2, 40))
        t = np.cumsum(rng.uniform(0.01, 1.0, n))
        y = rng.standard_normal((3, n))
        assert trapezoid(y[0], t) == sp_trapz(y[0], t)
        assert np.array_equal(trapezoid(y, t), sp_trapz(y, t, axis=-1))
        assert np.array_equal(cumulative_trapezoid(y, t),
                              sp_cumtrapz(y, t, axis=-1, initial=0.0))
        assert np.array_equal(cumulative_trapezoid(y.T, t, axis=0),
                              sp_cumtrapz(y.T, t, axis=0, initial=0.0))
        assert np.array_equal(cumulative_trapezoid(y[0], t),
                              sp_cumtrapz(y[0], t, initial=0.0))

        a = rng.standard_normal(int(rng.integers(1, 60)))
        b = rng.standard_normal(int(rng.integers(1, 60))) + rng.uniform(-1, 1)
        samples = [
            (a, b),                                                  # continuous
            (np.round(a, 1), np.round(b, 1)),                        # heavy ties
            (np.minimum(np.abs(a), 1.0), np.minimum(np.abs(b), 1.0)),  # saturated at 1
            ((a > 0).astype(float), (b > 0.5).astype(float)),        # indicator values
            (np.ones(3), np.ones(5)),                                # identical constants
        ]
        for x1, x2 in samples:
            assert ks_statistic(x1, x2) == ks_2samp(x1, x2, method="asymp").statistic
