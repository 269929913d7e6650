"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) and
states its tolerance inline next to the assertion that enforces it.  All
seeds are pinned, so every Monte Carlo figure below is reproducible.
"""
import numpy as np

from dataclasses import replace

from snls.config import compute_constants, parse_config
from snls.dynamics import (
    SdeConfig,
    build_operators,
    default_initial,
    default_initial_family,
    integrate_paths,
    scaled_initial_factory,
    simulate,
    simulate_ensemble,
)
from snls.ergodicity import decay_rate_fit, invariant_fingerprint, min_mass_1
from snls.observables import contraction_diagnostic, supermartingale_trace
from snls.operators import (
    antiderivative_F,
    apply_F,
    f_pointwise,
    sharp_projector,
    smoothed_projector,
)
from snls.spectral import SpectralField, h_norm_sq, make_basis


class _criterion:
    """Emit one PASS/FAIL line per criterion regardless of how the test exits."""

    def __init__(self, n: int, label: str):
        self.n = n
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status} criterion {self.n}: {self.label}", flush=True)
        return False


# --------------------------------------------------------------------------
# 1. mass conservation of the split scheme under purely multiplicative noise

def test_criterion_1_split_scheme_mass_conservation():
    # beta = 0 and no state noise: every substep of the split scheme is
    # unitary, so the squared norm must hold to 1e-10 across the whole run.
    with _criterion(1, "split-scheme mass constant to 1e-10 over T=10 "
                       "(2d torus, 3 noise modes)"):
        cfg = SdeConfig(domain_kind="torus2d", modes_per_axis=32, oversample=2,
                        galerkin_level=8, alpha=3.0, beta=0.0,
                        scheme="strat_split", dt=1e-3, t_final=10.0, seed=1,
                        snapshot_stride=100, nonlinearity_enabled=True,
                        b_profiles=("0.2", "0.1/(1+lambda)", "0.05"))
        ops = build_operators(cfg)
        u0 = default_initial(ops.basis, cfg.galerkin_level)
        rec = simulate(cfg, u0)
        m = rec.table["mass"]
        assert m.size == 101
        assert np.max(np.abs(m / m[0] - 1.0)) <= 1e-10


# --------------------------------------------------------------------------
# 2. mean-mass ODE under linear state noise, explicit Euler arm

def test_criterion_2_ito_mean_mass_ode():
    # E[mass(t)] = mass(0) exp((sum gamma^2 - 2 beta) t) = mass(0) e^{-1.5 t}.
    # The initial amplitudes are randomized (spread 0.3) so the per-path
    # chi-square noise is small against the quoted standard error; the anchor
    # uses the measured t=0 ensemble mean, which shares that randomization.
    with _criterion(2, "mean mass tracks e^{-1.5 t} within 3 standard errors "
                       "(1e4 paths)"):
        cfg = SdeConfig(domain_kind="torus1d", modes_per_axis=32, oversample=2,
                        galerkin_level=9, alpha=3.0, beta=1.0,
                        scheme="ito_exp_em", dt=1e-3, t_final=2.0, seed=101,
                        snapshot_stride=100, paths=10000,
                        nonlinearity_enabled=True,
                        g_variant="linear_diagonal", g_params=(0.5, 0.5))
        ops = build_operators(cfg)
        base = default_initial(ops.basis, cfg.galerkin_level)
        rep = simulate_ensemble(cfg, scaled_initial_factory(base, seed=cfg.seed))
        mean, se = rep.mean["mass"], rep.stderr["mass"]
        law = mean[0] * np.exp(-1.5 * rep.times)
        assert mean[0] == law[0]
        assert np.all(np.abs(mean[1:] - law[1:]) <= 3.0 * se[1:])


# --------------------------------------------------------------------------
# 3. the two schemes agree on the mean up to a first-order-in-dt gap

def test_criterion_3_scheme_gap_shrinks_first_order():
    # Same linear noise family as criterion 1, damping on, state noise and
    # nonlinearity off.  The split scheme treats the noise exponentially
    # (mean mass exactly m0 e^{-2 beta t}); the Euler arm carries the
    # drift-correction term instead.  Their mean-mass gap must shrink
    # linearly in dt: if the correction were wrong the gap would tend to a
    # constant and the fitted slope would collapse toward zero.
    with _criterion(3, "scheme gap fits slope 1 in dt (three dt levels, "
                       "1024 paths each)"):
        base = SdeConfig(domain_kind="torus1d", modes_per_axis=32, oversample=2,
                         galerkin_level=9, alpha=3.0, beta=1.0,
                         scheme="ito_exp_em", dt=2e-3, t_final=1.0, seed=33,
                         snapshot_stride=1, paths=1024,
                         nonlinearity_enabled=False,
                         b_profiles=("0.2", "0.1/(1+lambda)", "0.05"))
        dts = (2e-3, 1e-3, 5e-4)
        gaps, pooled = [], []
        for dt in dts:
            cfg_em = replace(base, dt=dt,
                             snapshot_stride=int(round(base.t_final / dt)))
            ops = build_operators(cfg_em)
            u0 = default_initial(ops.basis, cfg_em.galerkin_level)
            rep_em = simulate_ensemble(cfg_em, u0)
            rep_sp = simulate_ensemble(replace(cfg_em, scheme="strat_split"), u0)
            gaps.append(abs(rep_em.mean["mass"][-1] - rep_sp.mean["mass"][-1]))
            pooled.append(float(np.hypot(rep_em.stderr["mass"][-1],
                                         rep_sp.stderr["mass"][-1])))
        gaps, pooled, dts = np.array(gaps), np.array(pooled), np.array(dts)
        c = float(np.sum(gaps * dts) / np.sum(dts * dts))
        assert np.all(gaps <= 3.0 * pooled + c * dts)
        slope = float(np.polyfit(np.log(dts), np.log(gaps), 1)[0])
        assert 0.5 <= slope <= 1.5


# --------------------------------------------------------------------------
# 4. projector weights, operator norms, and band-limited reproduction

def _rho_reference(t: float) -> float:
    # independent transcription of the normalized dyadic bump
    def h(x):
        return np.exp(-1.0 / ((x - 0.5) * (2.0 - x))) if 0.5 < x < 2.0 else 0.0
    num = h(t)
    return num / (h(t) + h(t / 2.0) + h(2.0 * t)) if num > 0.0 else 0.0


def test_criterion_4_projector_suite():
    # mode counts chosen so every s_k < 2^6 and the n = 6 projector must
    # reproduce any field bit-exactly
    cases = [("torus1d", 14), ("torus2d", 6), ("dirichlet1d", 7),
             ("dirichlet2d", 5), ("neumann1d", 7), ("neumann2d", 5)]
    with _criterion(4, "projector weights exact, norms <= 1, band-limited "
                       "fields reproduced (6 bases, n = 0..6)"):
        rng = np.random.default_rng(4)
        for kind, m in cases:
            basis = make_basis(kind, m)
            s = basis.s_eigs
            assert s.max() < 2.0 ** 6
            u = rng.standard_normal(basis.n_modes) \
                + 1j * rng.standard_normal(basis.n_modes)
            for n in range(7):
                mask = sharp_projector(n, basis)
                assert np.array_equal(mask, s < 2.0 ** (n + 1))
                w = smoothed_projector(n, basis)
                lo = 2.0 ** n
                assert np.all(w[s < lo] == 1.0)
                assert np.all(w[s >= 2.0 * lo] == 0.0)
                shell = (s >= lo) & (s < 2.0 * lo)
                ref = np.array([_rho_reference(v) for v in s[shell] / lo])
                assert np.allclose(w[shell], ref, rtol=0.0, atol=5e-16)
                # diagonal in the eigenbasis, so the H and V operator norms
                # are both the largest weight
                assert 0.0 <= w.min() and w.max() <= 1.0
            w6 = smoothed_projector(6, basis)
            assert np.array_equal(w6 * u, u)
            assert np.array_equal(np.where(sharp_projector(6, basis), u, 0.0), u)


# --------------------------------------------------------------------------
# 5. uniform-in-time bound on E[Z] above the damping threshold

def test_criterion_5_uniform_z_bound():
    # additive forcing keeps the long-run state away from zero, so the
    # stationary plateau of E[Z] is a meaningful target; with linear state
    # noise everything collapses to the origin and the ratio below would be
    # an ill-posed 0/0
    text = """
domain.kind = torus1d
domain.modes_per_axis = 16
domain.oversample = 2
galerkin.level = 9
alpha = 3.0
beta = 0.5
scheme = strat_split
dt = 2e-3
t_final = 20.0
snapshot_stride = 250
seed = 41
ensemble.paths = 1000
nonlinearity.enabled = true
noise.B.count = 2
noise.B.1.profile = 0.2
noise.B.2.profile = 0.1/(1+lambda)
noise.G.variant = additive
noise.G.params = 0.15, 0.12, 0.1, 0.08, 0.06, 0.05
"""
    with _criterion(5, "E[Z] plateau flat on [10,20]: max <= 1.1 x median "
                       "(1e3 paths, damping above threshold)"):
        cfg = parse_config(text)
        consts = compute_constants(cfg)
        assert bool(consts.beta_condition_ok)
        ops = build_operators(cfg)
        u0 = default_initial(ops.basis, cfg.galerkin_level)
        rep = simulate_ensemble(cfg, u0)
        zz = rep.mean["z"][rep.times >= 10.0]
        assert zz.size >= 20
        assert zz.max() <= 1.1 * np.median(zz)


# --------------------------------------------------------------------------
# 6. collapse to the origin when only vanishing noise is present

def test_criterion_6_origin_regime():
    # linear state noise with sum gamma^2 = 0.5 and beta = 1: the origin is
    # invariant and exponentially attracting at rate 2 beta - 0.5 = 1.5
    cfg = SdeConfig(domain_kind="torus1d", modes_per_axis=16, oversample=2,
                    galerkin_level=9, alpha=3.0, beta=1.0,
                    scheme="strat_split", dt=1e-3, t_final=2.0, seed=61,
                    snapshot_stride=100, paths=2000,
                    nonlinearity_enabled=True,
                    g_variant="linear_diagonal", g_params=(0.5, 0.5))
    with _criterion(6, "origin regime: exp-weighted mass non-increasing, "
                       "decay CI contains -1.5, fingerprints at 0"):
        assert bool(compute_constants(cfg).delta0_condition_ok)
        ops = build_operators(cfg)
        u0 = default_initial(ops.basis, cfg.galerkin_level)
        rep = simulate_ensemble(cfg, u0)

        # (a) e^{lambda t} E[mass] with lambda = 1 < 1.5 must not rise
        # anywhere by more than 3 standard errors of the increment
        trace = supermartingale_trace(rep, 1.0)
        assert len(trace.violations) == 0

        # (b) fitted decay rate brackets the exact -1.5
        fit = decay_rate_fit(rep)
        assert not fit.warning
        assert fit.ci[0] <= -1.5 <= fit.ci[1]

        # (c) long-run averages of min(mass, 1) forget the initial state:
        # all three values within 0.02 of the point-mass value 0
        cfg_fp = replace(cfg, dt=2e-3, t_final=50.0, snapshot_stride=250,
                         paths=1, burn_in_fraction=0.2)
        fam = default_initial_family(ops.basis, cfg.galerkin_level)
        fp = invariant_fingerprint(cfg_fp, fam, phis=(min_mass_1,))
        assert fp.values.shape == (1, 3)
        assert np.max(np.abs(fp.values)) <= 0.02


# --------------------------------------------------------------------------
# 7. contraction of nearby trajectories under a common driver

def test_criterion_7_common_noise_contraction():
    with _criterion(7, "squared gap of common-noise pairs never exceeds "
                       "1.05 x initial (1e3 pairs, T=2)"):
        cfg = SdeConfig(domain_kind="torus1d", modes_per_axis=16, oversample=2,
                        galerkin_level=9, alpha=3.0, beta=1.0,
                        scheme="strat_split", dt=2e-3, t_final=2.0, seed=29,
                        snapshot_stride=25, nonlinearity_enabled=True,
                        b_profiles=("0.2", "0.1/(1+lambda)"),
                        g_variant="linear_diagonal", g_params=(0.3, 0.2))
        ops = build_operators(cfg)
        u10 = default_initial(ops.basis, cfg.galerkin_level)
        delta = default_initial(ops.basis, cfg.galerkin_level,
                                mass=1.0, s_scale=1.5, tilt=0.2).coeffs
        delta = delta * (1e-3 / np.sqrt(h_norm_sq(delta)))
        u20 = SpectralField(u10.coeffs + delta, ops.basis)
        rep = contraction_diagnostic(u10, u20, replace(cfg, paths=1000))
        assert abs(rep.d0 - 1e-6) <= 1e-12
        assert np.all(rep.d_mean <= 1.05 * rep.d0)


# --------------------------------------------------------------------------
# 8. the two schemes shadow each other pathwise as dt is halved

def test_criterion_8_pathwise_shadowing_order():
    # Both schemes consume the identical driver per path, so their pathwise
    # gap is pure discretization error; the exponential-vs-linearized noise
    # treatment makes its strong order 1/2.  A single pair gives a hopeless
    # 3-point regression (the per-draw prefactor varies by factors of 2-3),
    # so the statistic is the rms over 512 common-driver pairs.
    with _criterion(8, "max-in-time pathwise gap between schemes scales "
                       "with slope >= 0.45 under dt halving"):
        base = SdeConfig(domain_kind="torus1d", modes_per_axis=16, oversample=2,
                         galerkin_level=9, alpha=3.0, beta=1.0,
                         scheme="ito_exp_em", dt=2e-3, t_final=1.0, seed=17,
                         snapshot_stride=25, nonlinearity_enabled=True,
                         b_profiles=("0.2", "0.1/(1+lambda)"),
                         g_variant="linear_diagonal", g_params=(0.3, 0.2))
        n_pairs = 512
        dts = (2e-3, 1e-3, 5e-4)
        rms = []
        for dt in dts:
            cfg_a = replace(base, dt=dt, snapshot_stride=int(round(0.05 / dt)))
            ops = build_operators(cfg_a)
            c0 = default_initial(ops.basis, cfg_a.galerkin_level).coeffs
            u0 = np.broadcast_to(c0, (n_pairs,) + c0.shape).copy()
            idx = np.arange(n_pairs)
            _, _, _, sa = integrate_paths(cfg_a, ops, u0, idx,
                                          collect_states=True)
            cfg_b = replace(cfg_a, scheme="strat_split")
            _, _, _, sb = integrate_paths(cfg_b, ops, u0, idx,
                                          collect_states=True)
            gap_sq = np.zeros(n_pairs)
            for a, b in zip(sa, sb):
                gap_sq = np.maximum(gap_sq, h_norm_sq(a - b))
            rms.append(float(np.sqrt(np.mean(gap_sq))))
        slope = float(np.polyfit(np.log(dts), np.log(rms), 1)[0])
        assert slope >= 0.45


# --------------------------------------------------------------------------
# 9. algebraic identities of the nonlinearity on random fields

def test_criterion_9_nonlinearity_identities():
    with _criterion(9, "gauge orthogonality, norm identity, and potential "
                       "derivative on 100 random fields"):
        basis = make_basis("torus1d", 32)
        rng = np.random.default_rng(7)
        alphas = (3.0, 2.0, 4.5, 3.2)
        for trial in range(100):
            alpha = alphas[trial % len(alphas)]
            scale = float(rng.uniform(0.2, 3.0))
            s0 = float(rng.uniform(2.0, 20.0))
            env = np.exp(-basis.s_eigs / s0)
            c = scale * env * (rng.standard_normal(basis.n_modes)
                               + 1j * rng.standard_normal(basis.n_modes))
            u = SpectralField(c, basis)

            # multiplying by i rotates the phase everywhere, which the
            # modulus nonlinearity cannot see
            f_coeffs = apply_F(u, alpha).coeffs
            lp_sum = (alpha + 1.0) * antiderivative_F(u, alpha)
            assert abs(np.real(np.vdot(1j * c, f_coeffs))) <= 1e-10 * lp_sum

            # the dual-exponent norm of F(u) equals ||u||^alpha in L^{alpha+1}
            grid = basis.synthesize(c)
            q = (alpha + 1.0) / alpha
            lhs = (basis.quad_weight
                   * np.sum(np.abs(f_pointwise(grid, alpha)) ** q)) ** (1.0 / q)
            rhs = lp_sum ** (alpha / (alpha + 1.0))
            assert abs(lhs - rhs) <= 1e-8 * rhs

            # central difference of the potential against the pairing with F
            v = env * (rng.standard_normal(basis.n_modes)
                       + 1j * rng.standard_normal(basis.n_modes))
            eps = 1e-5
            up = SpectralField(c + eps * v, basis)
            um = SpectralField(c - eps * v, basis)
            fd = (antiderivative_F(up, alpha)
                  - antiderivative_F(um, alpha)) / (2.0 * eps)
            exact = float(np.real(np.vdot(f_coeffs, v)))
            assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-12)
