"""An independent numpy reference for the deterministic Galerkin equation.

With the noise off, both schemes of the package reduce to a deterministic
map on the band s_k < 2^{level+1}:

    ito_exp_em   u <- e^{-iA dt} (u - beta u dt - i dt P_n F(u))
    strat_split  u <- e^{-beta dt} P_n[ e^{-i dt |v|^{alpha-1}} v ],  v = e^{-iA dt} u

with F(u) = |u|^{alpha-1} u evaluated pointwise on a grid.  This module
integrates that map from its own eigenfunction matrices (a naive DFT or sine
transform, no FFT) on a grid twice as fine per axis as the package's, so the
cubic product of band modes never folds back into the band.  It imports
nothing from snls.  The benchmark compares the package's result with it to
check the nonlinear term, which the Monte Carlo checks cannot see: F leaves
the mass unchanged (strat_split) or changes it only at O(dt^2) (ito_exp_em).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

import numpy as np


def _axis(kind: str, modes_per_axis: int, n_grid: int):
    """(wavenumbers, eigenfunction matrix H[j, i] = h_{k_i}(x_j), axis length)."""
    M = modes_per_axis
    if kind.startswith("torus"):
        ks = np.concatenate([np.arange(M // 2), np.arange(-(M // 2), 0)])
        x = np.arange(n_grid) * (2.0 * np.pi / n_grid)
        H = np.exp(1j * np.outer(x, ks)) / math.sqrt(2.0 * np.pi)
        return ks, H, 2.0 * np.pi
    if kind.startswith("dirichlet"):
        ks = np.arange(1, M + 1)
        x = np.arange(1, n_grid) * (np.pi / n_grid)
        H = math.sqrt(2.0 / np.pi) * np.sin(np.outer(x, ks)) + 0j
        return ks, H, np.pi
    raise ValueError(f"no reference for domain kind {kind!r}")


class Reference:
    """The band, the transforms and the deterministic step for one domain."""

    def __init__(self, kind: str, modes_per_axis: int, oversample: int, level: int):
        self.dim = 2 if kind.endswith("2d") else 1
        # twice the package's grid: alias-free for the cubic product of band modes
        n_grid = 2 * oversample * modes_per_axis
        ks, self.H, length = _axis(kind, modes_per_axis, n_grid)
        self.measure = length ** self.dim
        self.weight = (length / n_grid) ** self.dim
        grids = np.meshgrid(*([ks] * self.dim), indexing="ij")
        self.modes = tuple(zip(*(g.ravel().tolist() for g in grids)))
        ksq = sum(g.astype(float) ** 2 for g in grids)
        s = ksq + 1.0 if kind.startswith("torus") else ksq
        self.band = s < 2.0 ** (level + 1)
        self.a = ksq

    def synthesize(self, c: np.ndarray) -> np.ndarray:
        if self.dim == 1:
            return self.H @ c
        return self.H @ c @ self.H.T

    def analyze(self, g: np.ndarray) -> np.ndarray:
        Hc = self.H.conj()
        if self.dim == 1:
            return self.weight * (Hc.T @ g)
        return self.weight * (Hc.T @ g @ Hc)

    def datum(self, density: float) -> np.ndarray:
        """A rough band datum, |c_k| ~ 1 / (1 + |k|^2) with fixed phases, mean |u|^2 = density.

        Its tail reaches the band edge, so a nonlinear term that leaks out of
        the band shows.
        """
        phase = sum((0.7 + 0.6 * i) * np.asarray(k, dtype=float)
                    for i, k in enumerate(zip(*self.modes)))
        c = (np.exp(1j * phase) / (1.0 + self.a.ravel())).reshape(self.band.shape) * self.band
        return c * math.sqrt(density * self.measure / np.sum(np.abs(c) ** 2))

    def as_dict(self, c: np.ndarray) -> Dict[Tuple[int, ...], complex]:
        return {m: complex(v) for m, v, b in zip(self.modes, c.ravel(), self.band.ravel()) if b}

    def integrate(self, c: np.ndarray, scheme: str, alpha: float, beta: float,
                  dt: float, n_steps: int) -> np.ndarray:
        rot = np.exp(-1j * self.a * dt)
        damp = math.exp(-beta * dt)
        for _ in range(n_steps):
            if scheme == "ito_exp_em":
                v = self.synthesize(c)
                Fc = self.band * self.analyze(np.abs(v) ** (alpha - 1.0) * v)
                c = rot * (c - beta * dt * c - 1j * dt * Fc)
            elif scheme == "strat_split":
                v = self.synthesize(rot * c)
                v = v * np.exp(-1j * dt * np.abs(v) ** (alpha - 1.0))
                c = damp * self.band * self.analyze(v)
            else:
                raise ValueError(f"no reference for scheme {scheme!r}")
        return c

    def energy(self, c: np.ndarray, alpha: float) -> float:
        """0.5 <Au, u> + ||u||_{alpha+1}^{alpha+1} / (alpha+1), by quadrature."""
        pot = self.weight * np.sum(np.abs(self.synthesize(c)) ** (alpha + 1.0))
        return float(0.5 * np.sum(self.a * np.abs(c) ** 2) + pot / (alpha + 1.0))
