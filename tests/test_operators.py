import math

import numpy as np
import pytest

from snls.spectral import SpectralField, make_basis, norms
from snls.operators import (
    OperatorError,
    SIGMA_BOUND,
    SIGMA_LIP,
    antiderivative_F,
    apply_F,
    apply_G,
    f_pointwise,
    g_fields_batch,
    hs_norm_sq_batch,
    make_noise_B,
    make_noise_G,
    rho,
    sharp_projector,
    sigma_saturating,
    smoothed_projector,
    stratonovich_correction,
)


def random_field(basis, seed, decay=0.5):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n_modes) + 1j * rng.standard_normal(basis.n_modes)
    return SpectralField(c * np.exp(-decay * basis.s_eigs), basis)


# independent reimplementation of the cutoff, used as the oracle below
def _oracle_rho(t):
    def h(x):
        if x <= 0.5 or x >= 2.0:
            return 0.0
        return math.exp(-1.0 / ((x - 0.5) * (2.0 - x)))
    denom = h(t) + h(t / 2.0) + h(2.0 * t)
    return h(t) / denom if denom else 0.0


def test_rho_against_independent_oracle():
    for t in (0.6, 0.8, 1.0, 1.25, 1.7, 1.999):
        assert rho(np.array([t]))[0] == pytest.approx(_oracle_rho(t), abs=1e-12)
    assert rho(np.array([1.0]))[0] == 1.0
    assert rho(np.array([0.5]))[0] == 0.0     # open support; the 2t copy carries t=1/2
    assert rho(np.array([2.0]))[0] == 0.0


def test_rho_partition_of_unity():
    t = np.linspace(0.51, 1.99, 1001)
    total = rho(t) + rho(t / 2.0) + rho(2.0 * t)
    assert np.max(np.abs(total - 1.0)) < 5e-16


def test_sharp_projector_band():
    basis = make_basis("torus1d", 16)
    mask = sharp_projector(3, basis)
    for m, s, kept in zip(basis.mode_index_set, basis.s_eigs, mask):
        assert kept == (s < 16.0)
        assert kept == (abs(int(m[0])) <= 3)


def test_smoothed_weights_band_values():
    # level 3: weight 1 for s < 8, rho(s/8) on [8,16), 0 at and beyond 16
    basis = make_basis("torus1d", 16)
    w = smoothed_projector(3, basis)
    for s, wk in zip(basis.s_eigs, w):
        if s < 8.0:
            assert wk == 1.0
        elif s < 16.0:
            assert wk == pytest.approx(_oracle_rho(s / 8.0), abs=1e-12)
        else:
            assert wk == 0.0
    assert 0.0 < w[list(basis.s_eigs).index(10.0)] < 1.0


@pytest.mark.parametrize("kind", ["torus1d", "dirichlet1d", "neumann2d"])
def test_projector_contraction_and_identity(kind):
    basis = make_basis(kind, 8)
    for n in range(8):
        w = smoothed_projector(n, basis)
        assert np.min(w) >= 0.0 and np.max(w) <= 1.0
    big = int(math.ceil(math.log2(float(np.max(basis.s_eigs))))) + 1
    assert np.all(smoothed_projector(big, basis) == 1.0)


def test_smoothed_inside_sharp():
    basis = make_basis("torus2d", 8)
    for n in range(6):
        w = smoothed_projector(n, basis)
        mask = sharp_projector(n, basis)
        assert np.all((w > 0.0) <= mask)  # smoothed support within the sharp band


def test_f_skew_symmetry():
    basis = make_basis("torus1d", 16)
    for seed in range(8):
        u = random_field(basis, 40 + seed)
        fu = apply_F(u, 3.0)
        val = abs(np.real(np.vdot(1j * u.coeffs, fu.coeffs)))
        assert val < 1e-10 * norms(u).lp_norm(4.0) ** 4


def test_f_norm_identity():
    basis = make_basis("torus1d", 16)
    for alpha in (2.0, 3.0, 4.5):
        u = random_field(basis, 7, decay=1.0)
        fu = apply_F(u, alpha)
        lhs = norms(fu).lp_norm((alpha + 1.0) / alpha)
        rhs = norms(u).lp_norm(alpha + 1.0) ** alpha
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_f_homogeneity():
    basis = make_basis("dirichlet1d", 16)
    u = random_field(basis, 8)
    c = 0.7 - 1.1j
    scaled = apply_F(SpectralField(c * u.coeffs, basis), 3.0)
    want = abs(c) ** 2 * c * apply_F(u, 3.0).coeffs
    assert np.max(np.abs(scaled.coeffs - want)) < 1e-12 * np.max(np.abs(want))


def test_f_cubic_branch_matches_the_generic_power():
    rng = np.random.default_rng(9)
    v = rng.standard_normal((64, 33)) + 1j * rng.standard_normal((64, 33))
    v[0, :4] = [0.0, 1e-90, 3e50j, -2.0]
    got = f_pointwise(v, 3.0)
    want = v * np.abs(v) ** 2
    assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))


def test_f_single_mode_algebra():
    # |c phi_k|^2 (c phi_k) = |c|^2 |phi_k|^2 c phi_k with |phi_k|^2 = 1/(2 pi)
    basis = make_basis("torus1d", 16)
    j = 5
    c = 1.3 - 0.4j
    coeffs = np.zeros(basis.n_modes, dtype=np.complex128)
    coeffs[j] = c
    fu = apply_F(SpectralField(coeffs, basis), 3.0)
    want = abs(c) ** 2 * c / (2.0 * math.pi)
    assert fu.coeffs[j] == pytest.approx(want, rel=1e-13)
    off = np.delete(fu.coeffs, j)
    assert np.max(np.abs(off)) < 1e-13 * abs(want)


def test_antiderivative_refined_quadrature():
    # the quartic functional recomputed on a 4x oversampled copy of the basis
    basis = make_basis("torus1d", 16, oversample=2)
    fine = make_basis("torus1d", 16, oversample=8)
    u = random_field(basis, 9)
    v = SpectralField(u.coeffs, fine)
    a = antiderivative_F(u, 3.0)
    b = antiderivative_F(v, 3.0)
    assert a == pytest.approx(b, rel=1e-12)
    assert a > 0.0


def test_antiderivative_directional_derivative():
    basis = make_basis("torus1d", 16)
    u = random_field(basis, 10)
    v = random_field(basis, 11)
    h = 1e-4
    up = SpectralField(u.coeffs + h * v.coeffs, basis)
    um = SpectralField(u.coeffs - h * v.coeffs, basis)
    fd = (antiderivative_F(up, 3.0) - antiderivative_F(um, 3.0)) / (2.0 * h)
    exact = float(np.real(np.vdot(apply_F(u, 3.0).coeffs, v.coeffs)))
    assert fd == pytest.approx(exact, rel=1e-6)


def test_profile_grammar():
    basis = make_basis("torus1d", 8)
    lam = basis.s_eigs
    cases = {
        "0.2": np.full_like(lam, 0.2),
        "0.1/(1+lambda)": 0.1 / (1.0 + lam),
        "sqrt(lambda)": np.sqrt(lam),
        "exp(-lambda)": np.exp(-lam),
        "2^2/lambda": 4.0 / lam,
    }
    for text, want in cases.items():
        B = make_noise_B(basis, (text,))
        assert np.max(np.abs(B.multipliers[0] - want)) < 1e-14


def test_profile_rejects_unsafe_text():
    basis = make_basis("torus1d", 8)
    for bad in ("__import__('os')", "min(1,2)", "x", "lambda: 1", "1;2", "[1]"):
        with pytest.raises(OperatorError):
            make_noise_B(basis, (bad,))


def test_profile_rejects_non_finite():
    basis = make_basis("torus1d", 8)   # has a mode with s = 1
    with pytest.raises(OperatorError):
        make_noise_B(basis, ("1/(lambda-1)",))


def test_b_operator_norms():
    basis = make_basis("torus1d", 16)
    B = make_noise_B(basis, ("0.2", "0.1/(1+lambda)"))
    # diagonal multipliers: operator norm on H and V is the largest |b|
    want = 0.2 ** 2 + 0.05 ** 2            # second profile peaks at s = 1
    assert B.h_opnorm_sq_sum == pytest.approx(want, rel=1e-14)
    assert B.v_opnorm_sq_sum == pytest.approx(want, rel=1e-14)
    # constant profiles have exact L^p norm; the decaying one uses the kernel bound
    assert B.lp_opnorm_sq_sum_bound >= want


def test_stratonovich_correction_identity():
    basis = make_basis("torus1d", 16)
    B = make_noise_B(basis, ("0.2", "0.1/(1+lambda)"))
    w = smoothed_projector(3, basis)
    corr = stratonovich_correction(B, w)
    resid = 2.0 * corr + np.sum((w ** 2 * B.multipliers) ** 2, axis=0)
    assert np.max(np.abs(resid)) < 1e-15
    assert np.all(corr <= 0.0)
    # without a projector the dressing weights are 1
    bare = stratonovich_correction(B, None)
    assert np.max(np.abs(2.0 * bare + np.sum(B.multipliers ** 2, axis=0))) < 1e-15


def test_g_linear_diagonal_constants():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "linear_diagonal", (0.3, 0.2), 3.0)
    l2 = math.sqrt(0.09 + 0.04)
    assert G.C1 == 0.0 and G.C2 == 0.0 and G.C3 == 0.0
    for val in (G.C1t, G.C2t, G.C3t, G.L_G):
        assert val == pytest.approx(l2, rel=1e-14)
    u = random_field(basis, 12)
    hs = hs_norm_sq_batch(u.coeffs[None, :], G, basis)[0]
    assert hs == pytest.approx((0.09 + 0.04) * norms(u).h_norm_sq, rel=1e-13)


def test_g_linear_dressed_intensity():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "linear_diagonal", (0.4,), 3.0)
    w = smoothed_projector(3, basis)
    u = random_field(basis, 13)
    hs = hs_norm_sq_batch(u.coeffs[None, :], G, basis, dress=w)[0]
    want = 0.16 * np.sum(w ** 4 * np.abs(u.coeffs) ** 2)
    assert hs == pytest.approx(want, rel=1e-13)


def test_g_additive():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "additive", (0.15, 0.1), 3.0)
    assert G.C1 == pytest.approx(math.sqrt(0.15 ** 2 + 0.1 ** 2), rel=1e-14)
    assert G.C1t == 0.0 and G.C2t == 0.0 and G.C3t == 0.0
    u = random_field(basis, 14)
    stack = g_fields_batch(u.coeffs[None, :], G, basis)
    assert stack.shape == (2, 1, basis.n_modes)
    # additive fields ignore the state
    stack2 = g_fields_batch(2.0 * u.coeffs[None, :], G, basis)
    assert np.array_equal(stack, stack2)
    hs = hs_norm_sq_batch(u.coeffs[None, :], G, basis)[0]
    assert hs == pytest.approx(G.C1 ** 2, rel=1e-13)


def test_g_additive_mode_placement():
    # amplitudes attach to the lowest-s eigenmodes in deterministic order
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "additive", (0.15, 0.1), 3.0)
    rows = np.abs(G.g_coeffs) > 0.0
    assert np.all(rows.sum(axis=1) == 1)
    s_of_rows = [float(basis.s_eigs[np.argmax(r)]) for r in rows]
    assert s_of_rows == sorted(s_of_rows)
    assert s_of_rows[0] == float(np.min(basis.s_eigs))


def test_sigma_saturating():
    z = np.array([0.0, 3.0 + 4.0j, 1e8j, -2.0])
    s = sigma_saturating(z)
    assert s[0] == 0.0
    assert np.max(np.abs(s)) <= SIGMA_BOUND
    # Lipschitz constant: sampled difference quotients stay below the constant
    rng = np.random.default_rng(15)
    a = rng.standard_normal(400) + 1j * rng.standard_normal(400)
    b = a + 1e-3 * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
    quot = np.abs(sigma_saturating(a) - sigma_saturating(b)) / np.abs(a - b)
    assert np.max(quot) <= SIGMA_LIP + 1e-9
    assert SIGMA_LIP == pytest.approx(2.0 / 1.5 ** 1.5, rel=1e-15)


def test_g_bounded_nemytskii():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "bounded_nemytskii", (0.2, 0.1), 3.0)
    assert G.C1 > 0.0 and G.C2t > 0.0 and G.L_G > 0.0
    u = random_field(basis, 16)
    fields, hs = apply_G(u, G)
    assert len(fields) == 2
    # bounded by construction: intensity never exceeds the C1 budget
    assert hs <= G.C1 ** 2 * (1.0 + 1e-12)
    big = SpectralField(u.coeffs * 1e6, basis)
    _, hs_big = apply_G(big, G)
    assert hs_big <= G.C1 ** 2 * (1.0 + 1e-12)


def test_apply_g_matches_batched_intensity():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "linear_diagonal", (0.3, 0.2), 3.0)
    u = random_field(basis, 17)
    _, hs = apply_G(u, G)
    assert hs == pytest.approx(hs_norm_sq_batch(u.coeffs[None, :], G, basis)[0],
                               rel=1e-13)


def test_g_rejects_bad_params():
    basis = make_basis("torus1d", 8)
    with pytest.raises(OperatorError):
        make_noise_G(basis, "additive", (), 3.0)        # no amplitudes
    with pytest.raises(OperatorError):
        make_noise_G(basis, "additive", (0.1,) * 99, 3.0)  # more modes than the basis
    with pytest.raises(OperatorError):
        make_noise_G(basis, "unknown_variant", (0.1,), 3.0)
