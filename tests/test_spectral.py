import math

import numpy as np
import pytest

from snls.spectral import (
    BASIS_KINDS,
    BasisError,
    SpectralField,
    apply_frac_power,
    h_norm_sq,
    make_basis,
    norms,
    v_norm_sq,
)


def small(kind):
    return 8 if kind.endswith("2d") else 16


def random_field(basis, seed, decay=0.5):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(basis.n_modes) + 1j * rng.standard_normal(basis.n_modes)
    return SpectralField(c * np.exp(-decay * basis.s_eigs), basis)


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_transform_roundtrip(kind):
    basis = make_basis(kind, small(kind))
    u = random_field(basis, 1)
    back = basis.analyze(basis.synthesize(u.coeffs))
    assert np.max(np.abs(back - u.coeffs)) < 1e-12


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_parseval(kind):
    basis = make_basis(kind, small(kind))
    u = random_field(basis, 2)
    grid = basis.synthesize(u.coeffs)
    quad = basis.quad_weight * np.sum(np.abs(grid) ** 2)
    assert abs(quad - norms(u).h_norm_sq) < 1e-12 * norms(u).h_norm_sq


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_mode_orthonormality(kind):
    # analyze(synthesize(e_j)) = e_j for every basis vector at once
    basis = make_basis(kind, 4 if kind.endswith("2d") else 8)
    eye = np.eye(basis.n_modes, dtype=np.complex128)
    gram = basis.analyze(basis.synthesize(eye))
    assert np.max(np.abs(gram - eye)) < 1e-12


def _dense_eigenfunctions(basis):
    """h_k at every grid node from the closed forms, shape (n_modes,) + grid_shape."""
    family = basis.kind[:-2]

    def h1(k, x):
        if family == "torus":
            return np.exp(1j * k * x) / math.sqrt(2.0 * math.pi)
        if family == "dirichlet":
            return math.sqrt(2.0 / math.pi) * np.sin(k * x)
        return (1.0 / math.sqrt(math.pi) if k == 0 else math.sqrt(2.0 / math.pi)) * np.cos(k * x)

    rows = []
    for mode in basis.mode_index_set:
        h = np.ones(())
        for k, x in zip(mode, basis.grid_axes):
            h = np.multiply.outer(h, h1(k, x))
        rows.append(h)
    return np.array(rows, dtype=np.complex128)


@pytest.mark.parametrize("kind", BASIS_KINDS)
@pytest.mark.parametrize("lead", [(), (1,), (5,)])
def test_batched_transforms_match_dense_eigenfunctions(kind, lead):
    # synthesis is sum_k c_k h_k(x); analysis is the grid quadrature sum_x w f(x) conj(h_k(x))
    basis = make_basis(kind, small(kind))
    H = _dense_eigenfunctions(basis)
    rng = np.random.default_rng(len(lead) + 3)
    c = rng.standard_normal(lead + (basis.n_modes,)) + 1j * rng.standard_normal(lead + (basis.n_modes,))
    f = rng.standard_normal(lead + basis.grid_shape) + 1j * rng.standard_normal(lead + basis.grid_shape)
    grid_axes = tuple(range(1, H.ndim))
    synth = basis.synthesize(c)
    assert synth.shape == lead + basis.grid_shape
    assert np.max(np.abs(synth - np.tensordot(c, H, axes=(-1, 0)))) < 1e-12
    hat = basis.analyze(f)
    want = basis.quad_weight * np.tensordot(f, H.conj(), axes=(
        tuple(range(len(lead), f.ndim)), grid_axes))
    assert hat.shape == lead + (basis.n_modes,)
    assert np.max(np.abs(hat - want)) < 1e-12


def test_torus_eigenvalues():
    basis = make_basis("torus1d", 8)
    table = {tuple(np.atleast_1d(k)): (a, s) for k, a, s in
             zip(basis.mode_index_set, basis.a_eigs, basis.s_eigs)}
    assert set(k[0] for k in table) == set(range(-4, 4))
    for (k,), (a, s) in table.items():
        assert a == float(k * k)
        assert s == float(1 + k * k)


def test_dirichlet_eigenvalues():
    basis = make_basis("dirichlet1d", 8)
    ks = np.sort(np.asarray(basis.mode_index_set).ravel())
    assert list(ks) == list(range(1, 9))
    assert np.array_equal(basis.a_eigs, basis.s_eigs)
    assert np.min(basis.s_eigs) == 1.0


def test_neumann_eigenvalues():
    basis = make_basis("neumann1d", 8)
    ks = np.sort(np.asarray(basis.mode_index_set).ravel())
    assert list(ks) == list(range(0, 8))
    assert np.max(np.abs(basis.s_eigs - basis.a_eigs - 1.0)) == 0.0


def test_torus_mode_values():
    # single mode k: grid values e^{ikx} / sqrt(2 pi) at the stored grid points
    basis = make_basis("torus1d", 16)
    k = 3
    j = int(np.nonzero([int(m[0]) == k for m in basis.mode_index_set])[0][0])
    c = np.zeros(basis.n_modes, dtype=np.complex128)
    c[j] = 1.0
    grid = basis.synthesize(c)
    x = basis.grid_axes[0]
    want = np.exp(1j * k * x) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(grid - want)) < 1e-13


def test_dirichlet_mode_values():
    basis = make_basis("dirichlet1d", 16)
    j = int(np.nonzero([int(m[0]) == 2 for m in basis.mode_index_set])[0][0])
    c = np.zeros(basis.n_modes, dtype=np.complex128)
    c[j] = 1.0
    grid = basis.synthesize(c)
    x = basis.grid_axes[0]
    want = math.sqrt(2.0 / math.pi) * np.sin(2.0 * x)
    assert np.max(np.abs(grid - want)) < 1e-13
    assert x[0] > 0.0 and x[-1] < math.pi  # interior nodes only


def test_neumann_mode_values():
    basis = make_basis("neumann1d", 16)
    j0 = int(np.nonzero([int(m[0]) == 0 for m in basis.mode_index_set])[0][0])
    c = np.zeros(basis.n_modes, dtype=np.complex128)
    c[j0] = 1.0
    grid = basis.synthesize(c)
    assert np.max(np.abs(grid - 1.0 / math.sqrt(math.pi))) < 1e-14
    j1 = int(np.nonzero([int(m[0]) == 1 for m in basis.mode_index_set])[0][0])
    c[:] = 0.0
    c[j1] = 1.0
    x = basis.grid_axes[0]
    want = math.sqrt(2.0 / math.pi) * np.cos(x)
    assert np.max(np.abs(basis.synthesize(c) - want)) < 1e-13


def test_torus2d_tensor_mode():
    basis = make_basis("torus2d", 8)
    target = (2, -3)
    j = int(np.nonzero([tuple(int(v) for v in m) == target
                        for m in basis.mode_index_set])[0][0])
    c = np.zeros(basis.n_modes, dtype=np.complex128)
    c[j] = 1.0
    grid = basis.synthesize(c)
    X, Y = np.meshgrid(basis.grid_axes[0], basis.grid_axes[1], indexing="ij")
    want = np.exp(1j * (2 * X - 3 * Y)) / (2.0 * math.pi)
    assert np.max(np.abs(grid - want)) < 1e-13
    assert basis.a_eigs[j] == 13.0


def test_domain_measure():
    assert make_basis("torus1d", 8).domain_measure == pytest.approx(2 * math.pi)
    assert make_basis("torus2d", 8).domain_measure == pytest.approx((2 * math.pi) ** 2)
    assert make_basis("dirichlet1d", 8).domain_measure == pytest.approx(math.pi)
    assert make_basis("neumann2d", 8).domain_measure == pytest.approx(math.pi ** 2)


def test_frac_power_composition():
    basis = make_basis("dirichlet1d", 16)
    u = random_field(basis, 3)
    twice = apply_frac_power(apply_frac_power(u, "A", 0.5), "A", 0.5)
    once = apply_frac_power(u, "A", 1.0)
    assert np.max(np.abs(twice.coeffs - once.coeffs)) < 1e-12 * np.max(np.abs(once.coeffs))


def test_frac_power_kernel_convention():
    # a = 0 modes are sent to 0 under negative powers instead of dividing by zero
    basis = make_basis("neumann1d", 8)
    u = SpectralField(np.ones(basis.n_modes, dtype=np.complex128), basis)
    inv = apply_frac_power(u, "A", -1.0)
    j0 = int(np.argmin(basis.a_eigs))
    assert basis.a_eigs[j0] == 0.0
    assert inv.coeffs[j0] == 0.0
    assert np.all(np.isfinite(inv.coeffs))
    # S has no kernel on any domain here
    assert np.all(np.isfinite(apply_frac_power(u, "S", -1.0).coeffs))


def test_norm_helpers_batched():
    basis = make_basis("torus1d", 16)
    batch = np.stack([random_field(basis, 10 + i).coeffs for i in range(5)])
    h = h_norm_sq(batch)
    v = v_norm_sq(batch, basis)
    for i in range(5):
        rec = norms(SpectralField(batch[i], basis))
        assert h[i] == pytest.approx(rec.h_norm_sq, rel=1e-14)
        assert v[i] == pytest.approx(rec.v_norm_sq, rel=1e-14)


def test_lp_norm_against_quadrature():
    basis = make_basis("torus1d", 16)
    u = random_field(basis, 4)
    grid = basis.synthesize(u.coeffs)
    want = (basis.quad_weight * np.sum(np.abs(grid) ** 4)) ** 0.25
    assert norms(u).lp_norm(4.0) == pytest.approx(want, rel=1e-13)


def test_grid_spectral_conversions():
    basis = make_basis("neumann1d", 16)
    u = random_field(basis, 5)
    grid = basis.synthesize(u.coeffs)
    back = basis.analyze(grid)
    assert np.max(np.abs(back - u.coeffs)) < 1e-12


def test_validation_errors():
    with pytest.raises(BasisError):
        make_basis("torus1d", 7)          # torus needs even modes
    with pytest.raises(BasisError):
        make_basis("torus1d", 8, oversample=1)
    with pytest.raises(BasisError):
        make_basis("klein_bottle", 8)
    basis = make_basis("torus1d", 8)
    with pytest.raises(ValueError):
        basis.analyze(np.zeros(3))        # wrong grid shape


def test_field_accepts_a_strided_row_of_a_batch():
    # engine batches can come back column-major; their rows are strided views
    basis = make_basis("torus1d", 8)
    batch = np.asfortranarray(np.arange(3 * basis.n_modes).reshape(3, -1) * (1 + 1j))
    field = SpectralField(batch[1], basis)
    assert np.array_equal(field.coeffs, batch[1])
    batch[2, 3] = np.nan
    with pytest.raises(BasisError, match="non-finite"):
        SpectralField(batch[2], basis)


@pytest.mark.parametrize("kind", BASIS_KINDS)
def test_transforms_of_strided_inputs_equal_the_contiguous_results(kind):
    # the matrix axes view complex arrays as float64, which needs C order
    basis = make_basis(kind, small(kind))
    rng = np.random.default_rng(7)
    c = rng.standard_normal((6, basis.n_modes)) + 1j * rng.standard_normal((6, basis.n_modes))
    f = rng.standard_normal((6,) + basis.grid_shape) + 1j * rng.standard_normal((6,) + basis.grid_shape)
    rows, grids = c[::2], f[::2]
    assert not rows.flags.c_contiguous and not grids.flags.c_contiguous
    assert np.array_equal(basis.synthesize(rows), basis.synthesize(rows.copy()))
    assert np.array_equal(basis.analyze(grids), basis.analyze(grids.copy()))
    # the same batch held transposed in memory, and a transposed grid
    assert np.array_equal(basis.synthesize(np.asfortranarray(c)), basis.synthesize(c))
    assert np.array_equal(basis.analyze(np.asfortranarray(f)), basis.analyze(f))
    grid_t = f[0].T
    assert np.array_equal(basis.analyze(grid_t), basis.analyze(grid_t.copy()))


@pytest.mark.parametrize("kind", ["torus1d", "torus2d", "dirichlet1d", "dirichlet2d",
                                  "neumann1d", "neumann2d"])
@pytest.mark.parametrize("modes", [2, 8, 32])
@pytest.mark.parametrize("oversample", [2, 3])
def test_matrix_axes_roundtrip_on_small_and_odd_grids(kind, modes, oversample):
    # Dirichlet grids have oversample * M - 1 points, odd at oversample 2
    basis = make_basis(kind, modes, oversample)
    rng = np.random.default_rng(modes + oversample)
    c = rng.standard_normal((3, basis.n_modes)) + 1j * rng.standard_normal((3, basis.n_modes))
    back = basis.analyze(basis.synthesize(c))
    assert np.max(np.abs(back - c)) < 1e-13
