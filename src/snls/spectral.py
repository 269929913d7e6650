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
measure, grid length and a 1-D transform pair: complex FFT on the torus,
DST-I on Dirichlet boxes, DCT-III/DCT-II on Neumann boxes).  Synthesis walks
the table last axis first, zero-padding each axis from its modes to its grid
before transforming; analysis transforms and truncates back in the same
order.  The transforms are exact on band-limited fields and accept leading
batch axes, so an ensemble of coefficient vectors transforms in one call.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Union

import numpy as np
import scipy.fft

BASIS_KINDS = ("torus1d", "torus2d", "dirichlet1d", "dirichlet2d", "neumann1d", "neumann2d")

NEUMANN_EPS = 1.0


class BasisError(ValueError):
    pass


@dataclass(frozen=True)
class AxisTransform:
    """One axis of a separable basis: stored modes, grid nodes and 1-D transform pair."""

    ks: np.ndarray                   # wavenumbers of the stored modes, in storage order
    nodes: np.ndarray                # grid node coordinates
    measure: float                   # length of the interval
    n_grid: int
    slots: Union[np.ndarray, slice]  # place of each stored mode in the transform's spectrum
    forward: Callable                # spectrum -> grid values along `axis=`
    backward: Callable               # grid values -> spectrum along `axis=`
    synth_weight: Optional[np.ndarray] = None     # per-mode factor before `forward`
    analyze_weight: Optional[np.ndarray] = None   # per-mode factor after `backward`

    def synthesize(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Zero-pad `axis` from the stored modes to the grid spectrum, then transform."""
        trailing = -1 - axis
        if self.synth_weight is not None:
            x = x * self.synth_weight.reshape((-1,) + (1,) * trailing)
        shape = list(x.shape)
        shape[axis] = self.n_grid
        buf = np.zeros(shape, dtype=np.complex128)
        buf[(Ellipsis, self.slots) + (slice(None),) * trailing] = x
        return self.forward(buf, axis=axis)

    def analyze(self, x: np.ndarray, axis: int) -> np.ndarray:
        """Transform `axis` and truncate its spectrum to the stored modes."""
        trailing = -1 - axis
        hat = self.backward(x, axis=axis)[(Ellipsis, self.slots) + (slice(None),) * trailing]
        if self.analyze_weight is not None:
            hat = hat * self.analyze_weight.reshape((-1,) + (1,) * trailing)
        return hat


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
    synth_scale: float          # overall factor of synthesize, after every axis
    analyze_scale: float        # overall factor of analyze, after every axis

    @property
    def n_modes(self) -> int:
        return len(self.mode_index_set)

    @property
    def n_grid(self) -> int:
        return int(np.prod(self.grid_shape))

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Pointwise synthesis sum_k c_k h_k on the grid; batched over leading axes."""
        if coeffs.shape[-1] != self.n_modes:
            raise BasisError(
                f"coefficient length {coeffs.shape[-1]} does not match basis with {self.n_modes} modes")
        x = np.asarray(coeffs, dtype=np.complex128)
        x = x.reshape(x.shape[:-1] + (self.modes_per_axis,) * self.dim)
        for axis in range(-1, -self.dim - 1, -1):
            x = self.axes[axis].synthesize(x, axis)
        return x * self.synth_scale

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products <f, h_k>; exact for band-limited f."""
        if values.shape[-self.dim:] != self.grid_shape:
            raise BasisError(
                f"grid shape {values.shape[-self.dim:]} does not match basis grid {self.grid_shape}")
        x = np.asarray(values, dtype=np.complex128)
        for axis in range(-1, -self.dim - 1, -1):
            x = self.axes[axis].analyze(x, axis)
        x = x * self.analyze_scale
        return x.reshape(x.shape[:-self.dim] + (self.n_modes,))


@dataclass
class SpectralField:
    """State vector u in H_n: complex coefficients aligned with mode_index_set."""

    coeffs: np.ndarray
    basis: EigenBasis

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)
        if self.coeffs.shape != (self.basis.n_modes,):
            raise BasisError(
                f"expected {self.basis.n_modes} coefficients, got shape {self.coeffs.shape}")
        if not np.all(np.isfinite(self.coeffs.view(np.float64))):
            raise BasisError("non-finite coefficient")

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.basis)


# ---------------------------------------------------------------------------
# construction

_dst1 = functools.partial(scipy.fft.dst, type=1)


def _axis_table(family: str, M: int, N: int, dim: int):
    """Per-axis entry of one family on N = oversample * M points, with its
    overall synthesis and analysis scales and the S-shift of the spectrum."""
    if family == "torus":
        # h_k(x) = exp(i k x) / sqrt(2 pi); the FFT layout stores k = 0, .., M/2-1, -M/2, .., -1
        ks = np.fft.fftfreq(M, d=1.0 / M).astype(int)
        ax = AxisTransform(ks, np.arange(N) * (2.0 * np.pi / N), 2.0 * np.pi, N,
                           np.mod(ks, N), np.fft.ifft, np.fft.fft)
        norm = (2.0 * np.pi) ** (dim / 2.0)
        return ax, N ** dim / norm, norm / N ** dim, 1.0
    if family == "dirichlet":
        # h_k(x) = sqrt(2/pi) sin(k x); DST-I on the N-1 interior nodes gives
        # exact discrete orthogonality
        ax = AxisTransform(np.arange(1, M + 1), np.arange(1, N) * (np.pi / N), np.pi, N - 1,
                           slice(0, M), _dst1, _dst1)
        synth = 1.0 / np.sqrt(2.0 * np.pi)          # sqrt(2/pi) * (1/2)
        analyze = np.sqrt(2.0 * np.pi) / (2.0 * N)  # (pi/N) * sqrt(2/pi) / 2
        return ax, synth ** dim, analyze ** dim, 0.0
    # neumann: h_0 = 1/sqrt(pi), h_k = sqrt(2/pi) cos(k x); midpoint nodes give
    # exact discrete cosine orthogonality for the DCT-III/DCT-II pair
    nf = np.full(M, np.sqrt(2.0 / np.pi))
    nf[0] = 1.0 / np.sqrt(np.pi)
    half = np.full(M, 0.5)
    half[0] = 1.0
    ax = AxisTransform(np.arange(M), (np.arange(N) + 0.5) * (np.pi / N), np.pi, N,
                       slice(0, M), functools.partial(scipy.fft.dct, type=3),
                       functools.partial(scipy.fft.dct, type=2),
                       synth_weight=nf * half, analyze_weight=nf * (np.pi / (2.0 * N)))
    return ax, 1.0, 1.0, NEUMANN_EPS


def make_basis(kind: str, modes_per_axis: int, oversample: int = 2) -> EigenBasis:
    if kind not in BASIS_KINDS:
        raise BasisError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    if modes_per_axis < 2:
        raise BasisError("modes_per_axis must be at least 2")
    if oversample < 2:
        raise BasisError("oversample must be at least 2 (Lp quadrature contract)")
    if kind.startswith("torus") and modes_per_axis % 2 != 0:
        raise BasisError("torus bases require an even modes_per_axis (FFT layout)")

    dim = int(kind[-2])
    M = modes_per_axis
    N = oversample * M
    ax, synth_scale, analyze_scale, s_shift = _axis_table(kind[:-2], M, N, dim)
    axes = (ax,) * dim
    ksq = functools.reduce(np.add.outer, [a.ks.astype(float) ** 2 for a in axes]).ravel()
    return EigenBasis(
        kind=kind,
        modes_per_axis=M,
        oversample=oversample,
        dim=dim,
        mode_index_set=tuple(tuple(int(k) for k in ks)
                             for ks in itertools.product(*(a.ks for a in axes))),
        a_eigs=ksq,
        s_eigs=s_shift + ksq,
        grid_shape=tuple(a.n_grid for a in axes),
        grid_axes=tuple(a.nodes for a in axes),
        quad_weight=(ax.measure / N) ** dim,
        domain_measure=ax.measure ** dim,
        axes=axes,
        synth_scale=synth_scale,
        analyze_scale=analyze_scale,
    )


# ---------------------------------------------------------------------------
# public operations

def to_spectral(values: np.ndarray, basis: EigenBasis) -> SpectralField:
    return SpectralField(basis.analyze(values), basis)


def from_spectral(u: SpectralField) -> np.ndarray:
    return u.basis.synthesize(u.coeffs)


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


@dataclass(frozen=True)
class NormRecord:
    h_norm_sq: float
    v_norm_sq: float
    basis: EigenBasis = field(repr=False)
    _grid_abs: np.ndarray = field(repr=False)

    def lp_norm(self, p: float) -> float:
        if p < 1.0 or not np.isfinite(p):
            raise BasisError("lp_norm requires p in [1, inf)")
        return float((self.basis.quad_weight * np.sum(self._grid_abs ** p)) ** (1.0 / p))


def norms(u: SpectralField) -> NormRecord:
    """H and V norms from coefficients, Lp norms by oversampled-grid quadrature."""
    absq = np.abs(u.coeffs) ** 2
    h = float(np.sum(absq))
    v = float(np.sum((1.0 + u.basis.a_eigs) * absq))
    grid_abs = np.abs(from_spectral(u))
    return NormRecord(h_norm_sq=h, v_norm_sq=v, basis=u.basis, _grid_abs=grid_abs)


def h_norm_sq(coeffs: np.ndarray) -> np.ndarray:
    """Batched squared H-norm along the last axis."""
    # the float view needs a contiguous layout; FFT slices are strided
    c = np.ascontiguousarray(coeffs)
    r = c.view(np.float64).reshape(c.shape + (2,))
    return np.sum(r * r, axis=(-2, -1))


def v_norm_sq(coeffs: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Batched squared V-norm: sum (1 + a_k) |c_k|^2."""
    return np.sum((1.0 + basis.a_eigs) * (np.abs(coeffs) ** 2), axis=-1)
