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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

BASIS_KINDS = ("torus1d", "torus2d", "dirichlet1d", "dirichlet2d", "neumann1d", "neumann2d")

NEUMANN_EPS = 1.0


class BasisError(ValueError):
    pass


@dataclass(frozen=True)
class AxisTransform:
    """One axis of a separable basis: stored modes, grid nodes and 1-D transform pair.

    `synth` holds Phi[k, j] = h_k(x_j), shape (M, len(nodes)), complex on a torus
    axis and real on a sine or cosine axis; `analysis` holds its conjugate
    transpose times the uniform quadrature weight, so that x @ analysis is
    the inner product <f, h_k>.  Each comes with its complex128 copy (the
    same array on a torus axis), so that the product on the last axis casts
    nothing per call.  Both are applied by `_contract`.
    """

    ks: np.ndarray         # wavenumbers of the stored modes, in storage order
    nodes: np.ndarray      # grid node coordinates
    measure: float         # length of the interval
    synth: Tuple[np.ndarray, np.ndarray]      # stored modes -> grid values
    analysis: Tuple[np.ndarray, np.ndarray]   # grid values -> stored modes


def _contract(x: np.ndarray, axis: int, mat: np.ndarray, mat_c: np.ndarray) -> np.ndarray:
    """sum_i x[.., i, ..] mat[i, j] along `axis`: -1, or -2 of a C-ordered x.

    A real mat on axis -2 multiplies the float64 view of x (re and im
    interleaved along the last axis), half the flops of a complex product.
    """
    if axis == -1:
        return x @ mat_c
    if np.iscomplexobj(mat):
        return np.matmul(mat.T, x)
    return np.matmul(mat.T, x.view(np.float64)).view(np.complex128)


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

    def synthesize(self, coeffs: np.ndarray) -> np.ndarray:
        """Pointwise synthesis sum_k c_k h_k on the grid; batched over leading axes."""
        if coeffs.shape[-1] != self.n_modes:
            raise BasisError(
                f"coefficient length {coeffs.shape[-1]} does not match basis with {self.n_modes} modes")
        x = np.asarray(coeffs, dtype=np.complex128)
        x = x.reshape(x.shape[:-1] + (self.modes_per_axis,) * self.dim)
        for axis in range(-1, -self.dim - 1, -1):
            x = _contract(x, axis, *self.axes[axis].synth)
        return x

    def analyze(self, values: np.ndarray) -> np.ndarray:
        """Quadrature inner products <f, h_k>; exact for band-limited f."""
        if values.shape[-self.dim:] != self.grid_shape:
            raise BasisError(
                f"grid shape {values.shape[-self.dim:]} does not match basis grid {self.grid_shape}")
        x = np.asarray(values, dtype=np.complex128)
        for axis in range(-1, -self.dim - 1, -1):
            x = _contract(x, axis, *self.axes[axis].analysis)
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

    def copy(self) -> "SpectralField":
        return SpectralField(self.coeffs.copy(), self.basis)


# ---------------------------------------------------------------------------
# construction

def _axis_table(family: str, M: int, N: int):
    """Per-axis entry of one family on N = oversample * M points, with the
    S-shift of the spectrum.  Each family is discretely orthonormal under its
    quadrature weight; phases are reduced mod 2 pi in integers."""
    j = np.arange(N)
    if family == "torus":
        # h_k(x) = exp(i k x) / sqrt(2 pi) on x_j = 2 pi j / N; stored k = 0, .., M/2-1, -M/2, .., -1
        ks = (np.arange(M) + M // 2) % M - M // 2
        nodes, measure, shift = j * (2.0 * np.pi / N), 2.0 * np.pi, 1.0
        phi = np.exp(1j * (np.outer(ks, j) % N * (2.0 * np.pi / N))) / np.sqrt(2.0 * np.pi)
    elif family == "dirichlet":
        # h_k(x) = sqrt(2/pi) sin(k x) on the N-1 interior nodes x_j = j pi / N
        ks, nodes, measure, shift = np.arange(1, M + 1), j[1:] * (np.pi / N), np.pi, 0.0
        phi = np.sqrt(2.0 / np.pi) * np.sin(np.outer(ks, j[1:]) % (2 * N) * (np.pi / N))
    else:
        # neumann: h_0 = 1/sqrt(pi), h_k = sqrt(2/pi) cos(k x) on the midpoints (j + 1/2) pi / N
        ks, nodes, measure, shift = np.arange(M), (j + 0.5) * (np.pi / N), np.pi, NEUMANN_EPS
        phi = np.sqrt(2.0 / np.pi) * np.cos(np.outer(ks, 2 * j + 1) % (4 * N) * (np.pi / (2 * N)))
        phi[0] = 1.0 / np.sqrt(np.pi)
    ax = AxisTransform(ks, nodes, measure, *(
        (m, m.astype(np.complex128, copy=False)) for m in (phi, phi.conj().T * (measure / N))))
    return ax, shift


def make_basis(kind: str, modes_per_axis: int, oversample: int = 2) -> EigenBasis:
    if kind not in BASIS_KINDS:
        raise BasisError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")
    if modes_per_axis < 2:
        raise BasisError("modes_per_axis must be at least 2")
    if oversample < 2:
        raise BasisError("oversample must be at least 2 (Lp quadrature contract)")
    if kind.startswith("torus") and modes_per_axis % 2 != 0:
        raise BasisError("torus bases require an even modes_per_axis (k = -M/2 .. M/2-1)")

    dim = int(kind[-2])
    M = modes_per_axis
    N = oversample * M
    ax, s_shift = _axis_table(kind[:-2], M, N)
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
    grid_abs = np.abs(u.basis.synthesize(u.coeffs))
    return NormRecord(h_norm_sq=h, v_norm_sq=v, basis=u.basis, _grid_abs=grid_abs)


def h_norm_sq(coeffs: np.ndarray) -> np.ndarray:
    """Batched squared H-norm along the last axis."""
    # the float view needs a contiguous layout; a row or slice of a batch may be strided
    c = np.ascontiguousarray(coeffs)
    r = c.view(np.float64).reshape(c.shape + (2,))
    return np.sum(r * r, axis=(-2, -1))


def v_norm_sq(coeffs: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Batched squared V-norm: sum (1 + a_k) |c_k|^2."""
    return np.sum((1.0 + basis.a_eigs) * (np.abs(coeffs) ** 2), axis=-1)
