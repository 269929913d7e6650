import math

import numpy as np
import pytest

from snls.spectral import SpectralField, h_norm_sq, lp_power, make_basis
from snls.operators import (
    OperatorError,
    SIGMA_BOUND,
    SIGMA_LIP,
    antiderivative_F,
    apply_F,
    f_pointwise,
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
        assert val < 1e-10 * lp_power(u.coeffs, basis, 4.0)


def test_f_norm_identity():
    basis = make_basis("torus1d", 16)
    for alpha in (2.0, 3.0, 4.5):
        u = random_field(basis, 7, decay=1.0)
        fu = apply_F(u, alpha)
        q = (alpha + 1.0) / alpha
        lhs = lp_power(fu.coeffs, basis, q) ** (1.0 / q)
        rhs = (lp_power(u.coeffs, basis, alpha + 1.0) ** (1.0 / (alpha + 1.0))) ** alpha
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
    for bad in ("__import__('os')", "min(1,2)", "x", "lambda: 1", "1;2", "[1]", "True"):
        with pytest.raises(OperatorError):
            make_noise_B(basis, (bad,))


@pytest.mark.parametrize("text, says", [
    ("lam", "unknown name 'lam'"),
    ("s", "unknown name 's'"),
    ("lambda_", "unknown name 'lambda_'"),
    ("lambda * lambda_", "unknown name 'lambda_'"),
    ("lam*s + lambda__", "unknown name 'lam'"),
    ("0.1/(1+lambda", "unparsable"),
    ("min(lambda, 1)", "unsupported call 'min'"),
    ("lambda % 2", "unsupported operator"),
    ("lambda // 2", "unsupported operator"),
])
def test_profile_knows_only_lambda_and_quotes_the_text_as_written(text, says):
    basis = make_basis("torus1d", 8)
    with pytest.raises(OperatorError) as exc:
        make_noise_B(basis, (text,))
    msg = str(exc.value)
    assert msg.startswith("key 'noise.B.1.profile': expected ") and says in msg
    assert f", got {text!r} (" in msg


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
    assert hs == pytest.approx((0.09 + 0.04) * h_norm_sq(u.coeffs), rel=1e-13)


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
    assert G.g_grids is None        # only the Nemytskii fields are made on the grid
    u = random_field(basis, 14)
    hs = hs_norm_sq_batch(u.coeffs[None, :], G, basis)
    # additive fields ignore the state
    assert hs.tobytes() == hs_norm_sq_batch(2.0 * u.coeffs[None, :], G, basis).tobytes()
    assert hs[0] == pytest.approx(G.C1 ** 2, rel=1e-13)


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


def test_sigma_saturating_agrees_with_the_modulus_form_and_stays_bounded():
    # the form z / sqrt(1 + np.abs(z) ** 2), against re^2 + im^2 and the pad of
    # 3 eps: each form rounds by at most 2.25 eps and the pad moves by 3 eps,
    # so the two agree to 7.5 eps relative.  Past about |z| = 1e8 the old
    # form's |sigma| exceeded 1 by an ulp (1e150 (1 + i) gave 1 + 2.2e-16).
    edge = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-150, -1e-150,
            1e150, -1e150, 1e-8, 1.0, 3.0]
    rng = np.random.default_rng(28)
    z = np.concatenate([
        np.array([complex(a, b) for a in edge for b in edge]),
        rng.standard_normal(5000) + 1j * rng.standard_normal(5000),
        (rng.standard_normal(5000) + 1j * rng.standard_normal(5000))
        * np.exp(rng.uniform(-60.0, 60.0, 5000))])
    old = z / np.sqrt(1.0 + np.abs(z) ** 2)
    new = sigma_saturating(z)
    assert np.all(np.abs(new - old) <= 7.5 * np.finfo(float).eps * np.abs(old))
    assert np.all(np.abs(new) <= SIGMA_BOUND)
    assert np.all((new == 0.0) == (z == 0.0))
    assert np.any(np.abs(old) > SIGMA_BOUND)


def test_g_bounded_nemytskii():
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, "bounded_nemytskii", (0.2, 0.1), 3.0)
    assert G.C1 > 0.0 and G.C2t > 0.0 and G.L_G > 0.0
    u = random_field(basis, 16)
    # bounded by construction: intensity never exceeds the C1 budget
    hs, hs_big = hs_norm_sq_batch(np.stack([u.coeffs, u.coeffs * 1e6]), G, basis)
    assert hs <= G.C1 ** 2 * (1.0 + 1e-12)
    assert hs_big <= G.C1 ** 2 * (1.0 + 1e-12)


@pytest.mark.parametrize("kind, crests", [
    ("torus1d", [(2 * math.pi) ** -0.5] * 2),
    ("dirichlet2d", [2 / math.pi] * 2),            # sin(x) sin(2y): crest at x = pi/2
    ("neumann1d", [math.pi ** -0.5, (2 / math.pi) ** 0.5]),
    ("neumann2d", [1 / math.pi, math.sqrt(2) / math.pi]),   # cos(y): crest on the wall
])
def test_g_nemytskii_sup_norms_are_the_crests_of_its_modes(kind, crests):
    # the grid of 17 intervals has no node at pi/2, and midpoints never reach a wall
    G = make_noise_G(make_basis(kind, 8), "bounded_nemytskii", (0.3, 0.2), 3.0)
    want = SIGMA_LIP * math.sqrt(sum((a * c) ** 2 for a, c in zip((0.3, 0.2), crests)))
    assert G.L_G == pytest.approx(want, rel=1e-14)
    assert G.C2t == G.L_G


def _g_fields(v, G, basis):
    """G(v)e_m for a batch v from the definitions of make_noise_G: (M~,) + v.shape."""
    if G.variant == "additive":
        return np.broadcast_to(G.g_coeffs[:, None, :], (G.n_modes,) + v.shape)
    if G.variant == "linear_diagonal":
        return G.gammas[:, None, None] * v[None]
    sig = sigma_saturating(basis.synthesize(v))
    return np.array([basis.analyze(sig * g) for g in basis.synthesize(G.g_coeffs)])


@pytest.mark.parametrize("variant", ["additive", "linear_diagonal", "bounded_nemytskii"])
@pytest.mark.parametrize("dressed", [False, True])
@pytest.mark.parametrize("rows", [1, 3, 390])
def test_batched_intensity_matches_the_per_field_sum(variant, dressed, rows):
    # the stack of all fields, dressed, summed over the noise axis: the bits
    # of the sum the engine makes one noise mode at a time
    basis = make_basis("torus1d", 16)
    G = make_noise_G(basis, variant, (0.3, 0.2, 0.1), 3.0)
    u = np.array([random_field(basis, 17 + r).coeffs for r in range(rows)])
    w = smoothed_projector(3, basis) if dressed else None
    stack = _g_fields(u if w is None else u * w, G, basis)
    want = np.sum(h_norm_sq(stack if w is None else stack * w), axis=0)
    assert hs_norm_sq_batch(u, G, basis, dress=w).tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", ["additive", "linear_diagonal", "bounded_nemytskii"])
def test_a_rows_intensity_does_not_depend_on_the_batch_size(variant):
    # nine noise modes: numpy sums a lone row's nine norms pairwise, in another
    # order than the row's in a batch; the modes are added in order at any size.
    # A 2-D basis: a 1-D transform of one row rounds unlike one of a batch
    basis = make_basis("dirichlet2d", 8)
    G = make_noise_G(basis, variant, tuple(0.3 / m for m in range(1, 10)), 3.0)
    w = smoothed_projector(3, basis)
    u = np.array([random_field(basis, 30 + r).coeffs for r in range(3)])
    for dress in (None, w):
        batch = hs_norm_sq_batch(u, G, basis, dress=dress)
        for r in range(3):
            assert hs_norm_sq_batch(u[r:r + 1], G, basis, dress=dress)[0] == batch[r]


def test_g_rejects_bad_params():
    basis = make_basis("torus1d", 8)
    with pytest.raises(OperatorError):
        make_noise_G(basis, "additive", (), 3.0)        # no amplitudes
    with pytest.raises(OperatorError):
        make_noise_G(basis, "additive", (0.1,) * 99, 3.0)  # more modes than the basis
    with pytest.raises(OperatorError):
        make_noise_G(basis, "unknown_variant", (0.1,), 3.0)
