"""Concrete eigenbases of the operator pair (A, S) on desk-scale geometries.

A is the (negative) Laplacian on a flat torus (0, 2*pi)^d or on the box
(0, pi)^d with Dirichlet or Neumann boundary conditions; S is the strictly
positive operator used for the dyadic projection machinery:

    torus:     S = I - Laplacian      s_k = 1 + |k|^2
    dirichlet: S = A = -Laplacian_D   s_k = |k|^2,  k_i >= 1
    neumann:   S = eps*I - Laplacian_N, eps = 1, so s_k = 1 + |k|^2

Fields are stored as complex coefficient vectors over an orthonormal
eigenfunction family h_k.  Every basis is a tensor product of one 1-D family
per axis, so a basis is a table of per-axis entries (wavenumbers, nodes,
measure and a 1-D transform pair).  On every axis the pair is the
eigenfunction matrix h_k(x_j) and its quadrature-weighted conjugate
transpose, one BLAS product of O(M N) per grid line (Boyd's matrix
multiplication transform, faster than a fast transform at these sizes):
complex exponentials on torus axes, sines (Dirichlet) and cosines (Neumann)
on box axes.  Synthesis and analysis walk the table last axis first, are
exact on band-limited fields and accept leading batch axes, so an ensemble
of coefficient vectors transforms in one call.

The grid is sized from the Galerkin band, not from the stored box: with
q = oversample it has the fewest points per axis on which every stored mode
stays orthonormal and the product of 2q - 1 band fields (the cubic |u|^2 u
at q = 2) has no alias on a band frequency, so P_n F(u) is exact there.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

BASIS_KINDS = ("torus1d", "torus2d", "dirichlet1d", "dirichlet2d", "neumann1d", "neumann2d")

NEUMANN_EPS = 1.0


class ConfigurationError(ValueError):
    """An input the library rejects; every layer's input error derives from it."""


class BasisError(ConfigurationError):
    pass


KIND_RULE = f"one of {BASIS_KINDS}"
MODES_RULE = "an integer >= 2, even on tori"
OVERSAMPLE_RULE = "an integer >= 2"
LEVEL_RULE = "an integer in [0, 1022]"     # the band edge 2^(n+1) is a finite double


def rejection(key: str, rule: str, value) -> str:
    """The one wording of a rejected config value: its key, its rule and the value."""
    return f"key {key!r}: expected {rule}, got {value!r}"


def check_level(level: int) -> None:
    """The Galerkin level rule for every layer that takes a level."""
    if not 0 <= level <= 1022:
        raise BasisError(rejection("galerkin.level", LEVEL_RULE, level))


def check_box(kind: str, modes_per_axis: int, oversample: int) -> None:
    """The stored-box rules for every layer that takes a box: a known kind, at
    least 2 modes per axis, an even count on tori (k = -M/2 .. M/2-1), and
    oversample >= 2 (the Lp quadrature contract)."""
    if kind not in BASIS_KINDS:
        raise BasisError(rejection("domain.kind", KIND_RULE, kind))
    if modes_per_axis < 2 or (kind.startswith("torus") and modes_per_axis % 2):
        raise BasisError(rejection("domain.modes_per_axis", MODES_RULE, modes_per_axis))
    if oversample < 2:
        raise BasisError(rejection("domain.oversample", OVERSAMPLE_RULE, oversample))


@dataclass(frozen=True)
class AxisTransform:
    """One axis of a separable basis: stored modes, grid nodes and 1-D transform pair.

    `synth` holds Phi[k, j] = h_k(x_j), shape (M, len(nodes)), complex on a torus
    axis and real on a sine or cosine axis; `analysis` holds its conjugate
    transpose times the uniform quadrature weight, so that x @ analysis is
    the inner product <f, h_k>.  Each comes with its complex128 copy (the
    same array on a torus axis), so that the product on the last axis casts
    nothing per call.  Both are applied by `_contract`, and directly on a
    1-D basis.
    """

    ks: np.ndarray         # wavenumbers of the stored modes, in storage order
    nodes: np.ndarray      # grid node coordinates
    measure: float         # length of the interval
    synth: Tuple[np.ndarray, np.ndarray]      # stored modes -> grid values
    analysis: Tuple[np.ndarray, np.ndarray]   # grid values -> stored modes


def _contract(x: np.ndarray, axis: int, mat: np.ndarray, mat_c: np.ndarray,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_i x[.., i, ..] mat[i, j] along `axis`: -1, or -2 of a C-ordered x;
    into out, a C-contiguous complex array of the result's size and any
    shape, when given.

    A real mat on axis -2 multiplies the float64 view of x (re and im
    interleaved along the last axis), half the flops of a complex product.
    """
    if out is not None:
        shape = list(x.shape)
        shape[axis] = mat.shape[1]
        out = out.reshape(shape)
    if axis == -1:
        return np.matmul(x, mat_c, out=out)
    if np.iscomplexobj(mat):
        return np.matmul(mat.T, x, out=out)
    return np.matmul(mat.T, x.view(np.float64),
                     out=None if out is None else out.view(np.float64)).view(np.complex128)


@dataclass(frozen=True)
class EigenBasis:
    """Immutable spectral realization of (A, S): eigenvalues, transforms, grid."""

    kind: str
    modes_per_axis: int
    oversample: int
    dim: int
    mode_index_set: Tuple[Tuple[int, ...], ...]
    a_eigs: np.ndarray          # eigenvalues of A, shape (n_modes,)
    s_eigs: np.ndarray          # eigenvalues of S, strictly positive
    grid_shape: Tuple[int, ...]
    grid_axes: Tuple[np.ndarray, ...]   # 1d node coordinates per axis
    quad_weight: float          # uniform quadrature weight per node
    domain_measure: float
    axes: Tuple[AxisTransform, ...] = field(repr=False)

    @property
    def n_modes(self) -> int:
        return len(self.mode_index_set)

    def synthesize(self, coeffs: np.ndarray, out: Optional[np.ndarray] = None,
                   scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Pointwise synthesis sum_k c_k h_k on the grid; batched over leading axes.

        out, when given, receives the grid values and has their shape; scratch,
        on a 2-D basis, receives the values transformed along the last axis
        only and is a C-contiguous complex array of their size, of any shape.
        Neither may overlap coeffs.
        """
        if coeffs.shape[-1] != self.n_modes:
            raise BasisError(
                f"coefficient length {coeffs.shape[-1]} does not match basis with {self.n_modes} modes")
        x = np.asarray(coeffs, dtype=np.complex128)
        if self.dim == 1:
            return np.matmul(x, self.axes[0].synth[1], out=out)
        x = x.reshape(x.shape[:-1] + (self.modes_per_axis,) * self.dim)
        # scratch takes the intermediate contractions (one on a 2-D basis), out the last
        for axis, buf in zip(range(-1, -self.dim - 1, -1), (scratch,) * (self.dim - 1) + (out,)):
            x = _contract(x, axis, *self.axes[axis].synth, out=buf)
        return x

    def analyze(self, values: np.ndarray, out: Optional[np.ndarray] = None,
                scratch: Optional[np.ndarray] = None) -> np.ndarray:
        """Quadrature inner products <f, h_k>; exact for band-limited f.

        out and scratch as in synthesize: out has the shape of the
        coefficients, and scratch the size of the values transformed along the
        last axis only.
        """
        if values.shape[-self.dim:] != self.grid_shape:
            raise BasisError(
                f"grid shape {values.shape[-self.dim:]} does not match basis grid {self.grid_shape}")
        x = np.asarray(values, dtype=np.complex128)
        if self.dim == 1:
            return np.matmul(x, self.axes[0].analysis[1], out=out)
        for axis, buf in zip(range(-1, -self.dim - 1, -1), (scratch,) * (self.dim - 1) + (out,)):
            x = _contract(x, axis, *self.axes[axis].analysis, out=buf)
        return x.reshape(x.shape[:-self.dim] + (self.n_modes,))


@dataclass
class SpectralField:
    """State vector u in H_n: complex coefficients aligned with mode_index_set."""

    coeffs: np.ndarray
    basis: EigenBasis

    def __post_init__(self):
        # contiguous, so a strided row of a batch can be viewed as floats below
        self.coeffs = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.basis.n_modes,):
            raise BasisError(
                f"expected {self.basis.n_modes} coefficients, got shape {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs.view(np.float64))):
            raise BasisError("non-finite coefficient")


# ---------------------------------------------------------------------------
# construction

def _axis_modes(family: str, M: int):
    """Wavenumbers of the M stored modes of one axis, in storage order, and the S-shift."""
    if family == "torus":
        # k = 0, .., M/2-1, -M/2, .., -1
        return (np.arange(M) + M // 2) % M - M // 2, 1.0
    if family == "dirichlet":
        return np.arange(1, M + 1), 0.0
    return np.arange(M), NEUMANN_EPS


def _grid_points(family: str, M: int, q: int, band_ks: np.ndarray) -> int:
    """Points per axis: the fewest that keep every stored mode exact and let no
    frequency of a product of 2q - 1 band fields land on a band frequency.

    A torus grid of N points sends frequency m to m mod N.  The product
    u^q conj(u)^(q-1) of band fields on [a, b] aliases onto a band frequency
    only if a nonzero multiple of N lies in q [a, b] - q [a, b], so N must
    exceed q (b - a): at q = 2 the cubic analogue of Orszag's 2/3 rule.  A
    box axis reflects into a grid of period 2N over the frequencies -K, .., K,
    so 2N must exceed 2 q K.  The same N makes the quadrature of |u|^(2q) exact.
    """
    # the sine family needs M + 1 intervals: sin(N x) vanishes on every node
    floor = M + 1 if family == "dirichlet" else M
    if not band_ks.size:
        return floor
    reach = band_ks.max() - band_ks.min() if family == "torus" else band_ks.max()
    return max(floor, q * int(reach) + 1)


def _axis_table(family: str, ks: np.ndarray, N: int) -> AxisTransform:
    """Per-axis entry of one family on N points.  Each family is discretely
    orthonormal under its quadrature weight; phases are reduced mod 2 pi in integers."""
    j = np.arange(N)
    if family == "torus":
        # h_k(x) = exp(i k x) / sqrt(2 pi) on x_j = 2 pi j / N
        nodes, measure = j * (2.0 * np.pi / N), 2.0 * np.pi
        phi = np.exp(1j * (np.outer(ks, j) % N * (2.0 * np.pi / N))) / np.sqrt(2.0 * np.pi)
    elif family == "dirichlet":
        # h_k(x) = sqrt(2/pi) sin(k x) on the N-1 interior nodes x_j = j pi / N
        nodes, measure = j[1:] * (np.pi / N), np.pi
        phi = np.sqrt(2.0 / np.pi) * np.sin(np.outer(ks, j[1:]) % (2 * N) * (np.pi / N))
    else:
        # neumann: h_0 = 1/sqrt(pi), h_k = sqrt(2/pi) cos(k x) on the midpoints (j + 1/2) pi / N
        nodes, measure = (j + 0.5) * (np.pi / N), np.pi
        phi = np.sqrt(2.0 / np.pi) * np.cos(np.outer(ks, 2 * j + 1) % (4 * N) * (np.pi / (2 * N)))
        phi[0] = 1.0 / np.sqrt(np.pi)
    return AxisTransform(ks, nodes, measure, *(
        (m, m.astype(np.complex128, copy=False)) for m in (phi, phi.conj().T * (measure / N))))


def make_basis(kind: str, modes_per_axis: int, oversample: int = 2,
               level: Optional[int] = None) -> EigenBasis:
    """The stored box of modes_per_axis modes per axis, on the grid that
    dealiases products of 2 * oversample - 1 fields of the band s_k < 2^(level+1)
    (the whole box when level is None)."""
    check_box(kind, modes_per_axis, oversample)
    if level is not None:
        check_level(level)

    dim = int(kind[-2])
    family = kind[:-2]
    M = modes_per_axis
    ks, s_shift = _axis_modes(family, M)
    ksq = functools.reduce(np.add.outer, [ks.astype(float) ** 2] * dim)
    # the band is a disk: its extent on one axis is the same on every axis
    band = np.ones(ksq.shape, bool) if level is None else s_shift + ksq < 2.0 ** (level + 1)
    N = _grid_points(family, M, oversample, ks[band.any(axis=tuple(range(1, dim)))])
    ax = _axis_table(family, ks, N)
    axes = (ax,) * dim
    ksq = ksq.ravel()
    return EigenBasis(
        kind=kind,
        modes_per_axis=M,
        oversample=oversample,
        dim=dim,
        mode_index_set=tuple(tuple(int(k) for k in ks)
                             for ks in itertools.product(*(a.ks for a in axes))),
        a_eigs=ksq,
        s_eigs=s_shift + ksq,
        grid_shape=tuple(len(a.nodes) for a in axes),
        grid_axes=tuple(a.nodes for a in axes),
        quad_weight=(ax.measure / N) ** dim,
        domain_measure=ax.measure ** dim,
        axes=axes,
    )


# ---------------------------------------------------------------------------
# public operations

def apply_frac_power(u: SpectralField, which: str, exponent: float) -> SpectralField:
    """Coefficient-wise multiplication by a_k^exponent or s_k^exponent.

    Negative powers of A map the kernel mode (a_k = 0) to 0 by convention;
    the kernel mode only occurs for torus/neumann k = 0 and the convention is
    used by diagnostics only, never by the dynamics.
    """
    if not np.isfinite(exponent):
        raise BasisError("exponent must be finite")
    if which == "A":
        eigs = u.basis.a_eigs
    elif which == "S":
        eigs = u.basis.s_eigs
    else:
        raise BasisError(f"which must be 'A' or 'S', got {which!r}")
    if exponent == 0.0:
        return SpectralField(u.coeffs.copy(), u.basis)
    mult = np.power(eigs, exponent, out=np.zeros_like(eigs), where=eigs > 0.0)
    return SpectralField(u.coeffs * mult, u.basis)


# ---------------------------------------------------------------------------
# norms of a batch of states: the one definition the engine, its tables and
# the diagnostics share, so each norm has the same bits wherever it is read

def h_norm_sq(coeffs: np.ndarray) -> np.ndarray:
    """Batched squared H-norm along the last axis: sum |c_k|^2."""
    return (coeffs.real ** 2 + coeffs.imag ** 2).sum(axis=-1)


def v_norm_sq(coeffs: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Batched squared V-norm: sum (1 + a_k) |c_k|^2."""
    return ((1.0 + basis.a_eigs) * (coeffs.real ** 2 + coeffs.imag ** 2)).sum(axis=-1)


def lp_power(coeffs: np.ndarray, basis: EigenBasis, p: float) -> np.ndarray:
    """Batched ||u||_{L^p}^p for p in [1, inf), by quadrature on the grid."""
    if not (p >= 1.0 and np.isfinite(p)):
        raise BasisError(f"lp_power requires p in [1, inf), got {p}")
    return basis.quad_weight * np.sum(np.abs(basis.synthesize(coeffs)) ** p,
                                      axis=tuple(range(-basis.dim, 0)))
