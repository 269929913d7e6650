"""Time integration of the Galerkin SDE in Ito and Stratonovich-faithful form.

The level-n Galerkin system on the band s_k < 2^{n+1} reads, in Ito form,

    du = (-iAu - i P_n F(u) - beta u + b_n u) dt
         - i sum_m (S_n B_m S_n) u dW_m - i S_n G(S_n u) dW~,

with the correction b_n = -1/2 sum_m (S_n B_m S_n)^2.  Two schemes:

  ito_exp_em   exponential Euler-Maruyama: exact unitary factor e^{-iA dt}
               applied after an EM update of every remaining term, diffusion
               at the left endpoint, its diagonal terms one factor D.
  strat_split  Lie splitting: exact linear flow, exact pointwise nonlinear
               phase flow followed by re-projection, then one factor D of exact
               damping, exact unitary Stratonovich B-flow and linear-diagonal
               Ito G increment; other G adds its Ito increment.

Everything is vectorized over a batch of paths; a single trajectory is the
batch of size one, so ensemble and single-path runs share one code path and
one RNG stream layout (master_seed, path_index).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import logging
import math
import os
import sys
from dataclasses import dataclass, replace
from collections import namedtuple
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import spectral
from .spectral import (KIND_RULE, LEVEL_RULE, MODES_RULE, OVERSAMPLE_RULE, ConfigurationError,
                       EigenBasis, SpectralField, check_box, check_level, make_basis,
                       rejection, v_norm_sq)
from .operators import (ALPHA_RULE, B_PROFILE_RULE, G_PARAMS_RULE, G_VARIANT_RULE,
                        LinearNoiseB, StateNoiseG, _check_alpha, check_g, f_pointwise,
                        hs_norm_sq_batch, make_noise_B, make_noise_G, modulus_power,
                        sharp_projector, sigma_saturating, smoothed_projector,
                        stratonovich_correction)

logger = logging.getLogger(__name__)

SCHEMES = ("ito_exp_em", "strat_split")

BLOWUP_V_NORM = 1e8
_NOISE_STREAM = 0
_INIT_STREAM = 2
_RNG_BLOCK = 256          # steps drawn per driver call; the draws do not depend on it
_ENSEMBLE_CHUNK = 2048    # paths simulate_ensemble integrates together
# rows x grid points of a step per engine thread: on a 2-core VM a 2-way split
# of the steppers lost below about 16k and won above it
_THREAD_WORK = 8192
_LOG_MAX = math.log(sys.float_info.max)    # math.exp overflows above it
# bytes of the complex grid values of one chunk of rows: the grid-pointwise
# stages of a step and the snapshot observables run a chunk at a time, so
# their temporaries stay below glibc's default mmap threshold (128 KiB) and
# are not faulted in again on every step
_CHUNK_BYTES = 128 * 1024


class BlowUpError(RuntimeError):
    """Integrator abort: records step, time and V-norm at the blow-up check."""

    def __init__(self, step: int, t: float, v_norm: float, path_index: int):
        self.step = step
        self.t = t
        self.v_norm = v_norm
        self.path_index = path_index
        super().__init__(
            f"blow-up guard tripped at step {step} (t={t:.6g}): ||u||_V = {v_norm:.3e} "
            f"(path {path_index}); threshold {BLOWUP_V_NORM:.1e}")


@dataclass(frozen=True)
class SdeConfig:
    """Every knob of one simulation."""

    domain_kind: str = "torus1d"
    modes_per_axis: int = 16
    oversample: int = 2
    galerkin_level: int = 4
    alpha: float = 3.0
    beta: float = 1.0
    scheme: str = "strat_split"
    dt: float = 1e-3
    t_final: float = 1.0
    seed: int = 0
    snapshot_stride: int = 1
    paths: int = 1
    nonlinearity_enabled: bool = True
    b_profiles: Tuple[str, ...] = ()
    g_variant: str = "none"
    g_params: Tuple[float, ...] = ()
    burn_in_fraction: float = 0.2
    radii: Tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    smg_lambda: Optional[float] = None

    def __post_init__(self):
        self.validated()

    def validated(self) -> "SdeConfig":
        """Check every knob by the rules of CONFIG_KEYS; runs once, at construction."""
        check_box(self.domain_kind, self.modes_per_axis, self.oversample)
        check_level(self.galerkin_level)
        _check_alpha(self.alpha)
        check_g(self.g_variant, self.g_params)
        for row in CONFIG_KEYS:
            value = getattr(self, row.field)
            # every real a parser reads must be finite
            if ((row.parse in (float, _parse_floats) and value is not None
                 and not np.all(np.isfinite(value)))
                    or (row.holds is not None and not row.holds(value, self))):
                raise ConfigurationError(rejection(row.key, row.rule, value))
        return self

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


def _parse_bool(s: str) -> bool:      # ValueError for any other word
    return ("false", "no", "off", "0", "true", "yes", "on", "1").index(s.lower()) >= 4


def _parse_floats(s: str) -> Tuple[float, ...]:
    return tuple(float(part) for part in s.split(",")) if s.strip() else ()


def _on_the_step_grid(t_final: float, cfg: SdeConfig) -> bool:
    ratio = t_final / cfg.dt
    return ((t_final == 0.0 or cfg.dt <= t_final) and math.isfinite(ratio)
            and abs(ratio - round(ratio)) <= 1e-6 * max(1.0, ratio))


# A config key, the SdeConfig field it sets, the parser of its written value, the
# rule every rejection of it states, and holds(value, cfg), the test of that rule;
# holds is None where the parser, the finiteness of the reals it reads or a lower
# layer's helper states the whole rule.
ConfigKey = namedtuple("ConfigKey", "key field parse rule holds", defaults=(None,))

# The one table of config keys, in the order SdeConfig.validated checks them after
# the helpers. The two B keys give b_profiles: parse_config checks the count and
# make_noise_B the profiles.
CONFIG_KEYS = (
    ConfigKey("domain.kind", "domain_kind", str.strip, KIND_RULE),
    ConfigKey("domain.modes_per_axis", "modes_per_axis", int, MODES_RULE),
    ConfigKey("domain.oversample", "oversample", int, OVERSAMPLE_RULE),
    ConfigKey("galerkin.level", "galerkin_level", int, LEVEL_RULE),
    ConfigKey("alpha", "alpha", float, ALPHA_RULE),
    ConfigKey("dt", "dt", float, "a finite positive real", lambda v, c: v > 0.0),
    ConfigKey("t_final", "t_final", float, "0 or a positive integer multiple of dt",
              _on_the_step_grid),
    ConfigKey("beta", "beta", float, "a finite real with exp(-beta dt) finite",
              lambda v, c: -v * c.dt <= _LOG_MAX),
    ConfigKey("scheme", "scheme", str.strip, f"one of {SCHEMES}", lambda v, c: v in SCHEMES),
    ConfigKey("snapshot_stride", "snapshot_stride", int, "an integer >= 1", lambda v, c: v >= 1),
    ConfigKey("seed", "seed", int, "a non-negative integer", lambda v, c: v >= 0),
    ConfigKey("ensemble.paths", "paths", int, "an integer >= 1", lambda v, c: v >= 1),
    ConfigKey("nonlinearity.enabled", "nonlinearity_enabled", _parse_bool, "true or false"),
    ConfigKey("noise.B.count", "b_profiles", int, "a non-negative integer"),
    ConfigKey("noise.B.<m>.profile", "b_profiles", str.strip, B_PROFILE_RULE),
    ConfigKey("noise.G.variant", "g_variant", str.strip, G_VARIANT_RULE),
    ConfigKey("noise.G.params", "g_params", _parse_floats, G_PARAMS_RULE),
    ConfigKey("run.burn_in_fraction", "burn_in_fraction", float, "a real in [0, 1)",
              lambda v, c: 0.0 <= v < 1.0),
    ConfigKey("run.radii", "radii", _parse_floats,
              "strictly ascending non-negative finite reals, comma-separated, "
              "distinct to 6 significant digits",
              lambda v, c: (not v or v[0] >= 0.0) and all(a < b for a, b in zip(v, v[1:]))
              and len({f"{r:g}" for r in v}) == len(v)),    # the labels v_gt_<r:g>
    ConfigKey("run.lambda", "smg_lambda", float, "a finite real"),
)


@dataclass(frozen=True)
class GalerkinOps:
    """Precomputed diagonal data for one (basis, config) pair."""

    basis: EigenBasis
    mask: np.ndarray             # bool, band s_k < 2^{n+1}
    maskf: np.ndarray            # mask as float
    w: np.ndarray                # smoothed projector weights
    w2: np.ndarray
    B: LinearNoiseB
    G: StateNoiseG
    b_eff: np.ndarray            # diag of S_n B_m S_n, shape (M, n_modes)
    corr: np.ndarray             # diag of b_n = -1/2 sum (S_n B_m S_n)^2
    rot: np.ndarray              # exp(-i a_k dt)
    damp: float                  # exp(-beta dt)
    g_additive_dressed: Optional[np.ndarray]   # w * g_m, real, shape (M~, n_modes)
    work: Optional["StepWork"] = None   # the steppers' buffers, set by their caller


def build_operators(cfg: SdeConfig, basis: Optional[EigenBasis] = None) -> GalerkinOps:
    # No caller in the package passes `basis`; it stays because the benchmark's
    # mutation tests wrap this function as build_operators(cfg, basis).
    if basis is None:
        basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample,
                           cfg.galerkin_level)
    mask = sharp_projector(cfg.galerkin_level, basis)
    w = smoothed_projector(cfg.galerkin_level, basis)
    B = make_noise_B(basis, cfg.b_profiles)
    G = make_noise_G(basis, cfg.g_variant, cfg.g_params, cfg.alpha)
    b_eff = B.multipliers * w ** 2 if B.n_modes else np.zeros((0, basis.n_modes))
    corr = stratonovich_correction(B, w) if B.n_modes else np.zeros(basis.n_modes)
    g_add = None
    if G.variant == "additive":
        g_add = G.g_coeffs.real * w
    return GalerkinOps(
        basis=basis,
        mask=mask,
        maskf=mask.astype(float),
        w=w,
        w2=w ** 2,
        B=B,
        G=G,
        b_eff=b_eff,
        corr=corr,
        rot=np.exp(-1j * basis.a_eigs * cfg.dt),
        damp=math.exp(-cfg.beta * cfg.dt),
        g_additive_dressed=g_add,
    )


# ---------------------------------------------------------------------------
# Brownian driver

class BrownianDriver:
    """Per-path RNG stream of increments dW_m ~ N(0, dt), dW~_m ~ N(0, dt).

    The stream is keyed by (master_seed, path_index).  increments(n) returns
    one (n, n_B + n_G) block, dW in the first n_B columns and dW~ in the
    rest, so the two are mutually independent and the whole stream is
    reproducible from the key alone.
    """

    def __init__(self, master_seed: int, path_index: int, n_B: int, n_G: int, dt: float):
        self.n_B = n_B
        self.n_G = n_G
        self.dt = dt
        seq = np.random.SeedSequence((int(master_seed), int(path_index), _NOISE_STREAM))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def increments(self, n_steps: int) -> np.ndarray:
        block = self._gen.standard_normal((n_steps, self.n_B + self.n_G))
        block *= math.sqrt(self.dt)
        return block


# ---------------------------------------------------------------------------
# step kernels (batched over paths: u has shape (P, n_modes))

def _row_chunks(rows: int, basis: EigenBasis) -> Tuple[slice, ...]:
    """Ranges of max(2, _CHUNK_BYTES // (16 x grid points)) rows that cover
    `rows`; a lone last row joins the chunk before it.  A one-row BLAS product
    is a matrix-vector product, which rounds unlike the matrix-matrix product
    of several rows, so in a batch of two rows or more a row gets the same
    bits in any chunk."""
    per = max(2, _CHUNK_BYTES // (16 * math.prod(basis.grid_shape)))
    bounds = list(range(0, rows, per)) + [rows]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return tuple(slice(a, b) for a, b in zip(bounds, bounds[1:]))


class StepWork:
    """The buffers the steps of a batch of `rows` rows write into, each made at
    its first use and kept for as long as its owner steps: at most 16 x rows x
    (3.5 n_modes + grid points, plus modes_per_axis x grid points per axis on
    a 2-D basis) + 8 x rows bytes, a scratch of the grid points of the widest of
    `chunks`, the row ranges the grid-pointwise stages run over, and at most
    _CHUNK_BYTES of noise tables.  Both steppers use them; a buffer that no
    stage of a config needs, as the grid without F and Nemytskii G, or the
    scratch of ito_exp_em without Nemytskii G, is never made.

    The tables hold each step's D and additive G increment (_diagonal_factors):
    _steps fills them ahead and points `row` at each step's row; a step with
    `row` None, as a direct call, fills row 0 with its own.
    """

    def __init__(self, rows: int, basis: EigenBasis):
        self.rows = rows
        self.basis = basis
        self.row = None         # the tables' row of the current step, or None
        self.tables = None      # (D, real, dW~ @ gamma), made at the first fill

    def _empty(self, *shape: int) -> np.ndarray:
        return np.empty((self.rows,) + shape, dtype=np.complex128)

    @functools.cached_property
    def states(self) -> Tuple[np.ndarray, np.ndarray]:
        """(rows, n_modes) each: a step returns the one its input is not."""
        return self._empty(self.basis.n_modes), self._empty(self.basis.n_modes)

    @functools.cached_property
    def coef(self) -> np.ndarray:
        """(rows, n_modes): a coefficient-space stage of a step, as P_n F(u), the
        Nemytskii G increment, or D where the tables hold one step."""
        return self._empty(self.basis.n_modes)

    @functools.cached_property
    def grid(self) -> np.ndarray:
        """(rows,) + grid_shape."""
        return self._empty(*self.basis.grid_shape)

    @functools.cached_property
    def mid(self) -> Optional[np.ndarray]:
        """A 2-D transform's values after its first axis; None on a 1-D basis."""
        basis = self.basis
        return self._empty(basis.modes_per_axis * basis.grid_shape[-1]) if basis.dim > 1 else None

    @functools.cached_property
    def grid_chunks(self) -> Tuple[Tuple[slice, np.ndarray], ...]:
        """(rows, their grid values) per row chunk, each (chunk rows, grid points)."""
        points = self.grid.reshape(self.rows, -1)
        return tuple((c, points[c]) for c in _row_chunks(self.rows, self.basis))

    @functools.cached_property
    def chunks(self) -> Tuple[Tuple[slice, np.ndarray, np.ndarray], ...]:
        """grid_chunks, each with a scratch of its shape; every scratch is a view
        of one complex array, made only by the stages that read this."""
        scratch = np.empty(max((g.size for _, g in self.grid_chunks), default=0),
                           dtype=np.complex128)
        return tuple((c, g, scratch[:g.size].reshape(g.shape)) for c, g in self.grid_chunks)

    def fill(self, dW: np.ndarray, dWt: np.ndarray, ops: GalerkinOps, cfg: SdeConfig,
             em: bool) -> int:
        """Fill the tables with the factors of the first steps of dW, (steps,
        rows, n_B), and dWt, (steps, rows, n_G), as many as they hold, and
        return that count; 0 where they hold one step, with D in coef, as the
        first fill makes them where fewer than two steps fit in _CHUNK_BYTES.
        A step takes 16 bytes a row per element of D, n_modes with B or
        linear-diagonal G on, and 8 per real: n_modes with B or additive G on
        (dW @ b_eff, then the additive increment), one with linear-diagonal G."""
        if self.tables is None:
            n, lin = self.basis.n_modes, int(ops.G.variant == "linear_diagonal")
            d = n if ops.B.n_modes or lin else 0
            r = n if ops.B.n_modes or ops.G.variant == "additive" else 0
            per_step = self.rows * (16 * d + 8 * (r + lin))
            steps = max(1, min(_CHUNK_BYTES // per_step, len(dW))) if per_step else len(dW)
            D = (self.coef[None] if steps == 1 and d
                 else np.empty((steps, self.rows, d), dtype=np.complex128))
            self.tables = (D, np.empty((steps, self.rows, r)), np.empty((steps, self.rows, lin)))
        D, real, scal = self.tables
        if len(D) == 1:
            return 0
        m = min(len(D), len(dW))
        _diagonal_factors(dW[:m], dWt[:m], ops, cfg, em, real[:m], scal[:m], D[:m])
        return m

    def factors(self, dW: np.ndarray, dWt: np.ndarray, ops: GalerkinOps, cfg: SdeConfig,
                em: bool) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
        """This step's D and the imaginary part of its additive G increment, each
        (rows, n_modes) or None; with `row` None, filled in every call, as a
        later stage of a step may overwrite D in coef."""
        if self.tables is None:
            self.fill(dW[None], dWt[None], ops, cfg, em)
        D, real, scal = self.tables
        row = self.row
        if row is None:
            row = 0
            _diagonal_factors(dW[None], dWt[None], ops, cfg, em, real[:1], scal[:1], D[:1])
        return (D[row] if D.shape[2] else None,
                real[row] if ops.G.variant == "additive" else None)


def _unit_phase(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """e^{-ix} for real x, into the complex array out of x's shape: cos(x) into
    its real part and -sin(x) into its imaginary part.  Both are elementwise,
    so an element gets the same bits whatever the size of the call it is in,
    and a row does not depend on its batch, its slice or its table fill."""
    np.cos(x, out=out.real)
    np.negative(np.sin(x, out=out.imag), out=out.imag)
    return out


def _diagonal_factors(dW: np.ndarray, dWt: np.ndarray, ops: GalerkinOps, cfg: SdeConfig,
                      em: bool, real: np.ndarray, scal: np.ndarray, D: np.ndarray) -> None:
    """The factors of each step of dW, (steps, rows, n_B), and dWt, (steps,
    rows, n_G), into the tables' D, real and scal, each (steps, rows, width).
    With x = dW @ b_eff and t = (dWt @ gamma) w^2, 0 with B or linear-diagonal
    G off, D folds every term that acts on u mode by mode after the F stage:
    (b_n - beta) dt - i (x + t) for ito_exp_em, whose increment is D u, and
    e^{-beta dt} e^{-ix} (1 - i t) for strat_split.  The additive G increment
    -i dWt @ (w g) is imaginary: real gets dWt @ (w g).  Each product is a
    stack of per-step products, so a step gets the bits of a block of its
    own, which a product over the steps x rows flattened would not give a
    one-row step."""
    lin = ops.G.variant == "linear_diagonal"
    if lin:
        np.matmul(dWt, ops.G.gammas, out=scal[..., 0])
    x = np.matmul(dW, ops.b_eff, out=real) if ops.B.n_modes else None
    if x is not None and not em:
        _unit_phase(x, D)
        if lin:     # e^{-ix} = c + iq times 1 - it: c + tq + i (q - tc), through real
            np.copyto(real, D.real)
            np.multiply(np.multiply(D.imag, scal, out=D.real), ops.w2, out=D.real)
            D.real += real
            D.imag -= np.multiply(np.multiply(real, scal, out=real), ops.w2, out=real)
    elif D.shape[2]:
        D.real[...] = (ops.corr - cfg.beta) * cfg.dt if em else 1.0
        if not lin:
            np.negative(x, out=D.imag)
        else:   # -(t + x) as (-s) w^2 - x, the same bits with one pass fewer
            np.multiply(np.negative(scal, out=scal), ops.w2, out=D.imag)
            if x is not None:
                D.imag -= x
    if D.shape[2] and not em:
        D *= ops.damp
    if ops.G.variant == "additive":
        np.matmul(dWt, ops.g_additive_dressed, out=real)


def _nemytskii_increment(u: np.ndarray, dWt: np.ndarray, ops: GalerkinOps,
                         work: StepWork) -> np.ndarray:
    """-i S_n G(S_n u) dW~ of Nemytskii G for a batch, in work.coef: one
    synthesis of S_n u, one analysis of the mixed field; sigma(z) * mix
    replaces z a chunk of rows at a time.  Overwrites work's grid and mid."""
    basis, G = ops.basis, ops.G
    z = basis.synthesize(np.multiply(ops.w, u, out=work.coef), out=work.grid,
                         scratch=work.mid)
    g_grids = G.g_grids.reshape(G.n_modes, -1)
    for rows, zc, scratch in work.chunks:
        np.multiply(sigma_saturating(zc), np.dot(dWt[rows], g_grids, out=scratch), out=zc)
    inc = basis.analyze(z, out=work.coef, scratch=work.mid)
    return np.multiply(-1j * ops.w, inc, out=inc)


def _nonlinear_coeffs(u: np.ndarray, ops: GalerkinOps, alpha: float,
                      work: StepWork) -> np.ndarray:
    """P_n F(u) for a batch, in work.coef; overwrites work's grid and mid.

    Exact on the band grid of make_basis when alpha is an odd integer at most
    2 * oversample - 1; otherwise F(u) is not band-limited and the quadrature
    aliases.  f_pointwise runs a chunk of rows at a time, the transforms on
    the whole batch.
    """
    basis = ops.basis
    basis.synthesize(u, out=work.grid, scratch=work.mid)
    for _, g in work.grid_chunks:
        np.copyto(g, f_pointwise(g, alpha))
    nl = basis.analyze(work.grid, out=work.coef, scratch=work.mid)
    return np.multiply(ops.maskf, nl, out=nl)


# The steppers never write into their input.  Each writes into ops.work, a
# StepWork of u's rows that its caller sets, and returns one of its two states,
# the one its input is not, so a caller that keeps a step's result past the
# next step must copy it.  A step reads its D and additive G increment from
# the tables' row that _steps points ops.work.row at, else, as in a direct
# call, fills the tables from its dW and dWt; only the Nemytskii mix reads dWt
# in every call.  D acts after the F stage, as the factors it folds did, so
# stages that do not commute keep their order.  Complex products keep their
# operand order, since numpy's complex multiply rounds a * b and b * a
# differently.  That includes the order numpy picks itself: it evaluates
# `x * temporary` as `temporary *= x` from 256 KiB up when the two have one
# shape, so a product written with out= keeps the order the expression had.

def _step_em_batch(u: np.ndarray, dW: np.ndarray, dWt: np.ndarray,
                   cfg: SdeConfig, ops: GalerkinOps) -> np.ndarray:
    dt = cfg.dt
    work = ops.work
    # the engine hands a step's result back as it is, so `is` tells the states apart
    incr = work.states[u is work.states[0]]
    D, additive = work.factors(dW, dWt, ops, cfg, em=True)
    np.multiply((ops.corr - cfg.beta) * dt if D is None else D, u, out=incr)
    if cfg.nonlinearity_enabled:
        nl = _nonlinear_coeffs(u, ops, cfg.alpha, work)
        incr -= np.multiply(1j * dt, nl, out=nl)
    if additive is not None:
        incr.imag -= additive
    elif ops.G.variant == "bounded_nemytskii":
        incr += _nemytskii_increment(u, dWt, ops, work)
    # u + incr, then times rot: the result takes incr's buffer
    return np.multiply(ops.rot, np.add(u, incr, out=incr), out=incr)


def _step_split_batch(u: np.ndarray, dW: np.ndarray, dWt: np.ndarray,
                      cfg: SdeConfig, ops: GalerkinOps) -> np.ndarray:
    work = ops.work
    # the engine hands a step's result back as it is, so `is` tells the states apart
    out = work.states[u is work.states[0]]
    np.multiply(ops.rot, u, out=out)
    if cfg.nonlinearity_enabled:
        basis = ops.basis
        basis.synthesize(out, out=work.grid, scratch=work.mid)
        for _, g, scratch in work.chunks:
            x = modulus_power(g, cfg.alpha)
            x *= cfg.dt
            g *= _unit_phase(x, scratch)
        np.multiply(ops.maskf, basis.analyze(work.grid, out=out, scratch=work.mid), out=out)
    D, additive = work.factors(dW, dWt, ops, cfg, em=False)
    if D is not None:
        out *= D
    elif cfg.beta != 0.0:
        out *= ops.damp
    if additive is not None:
        out.imag -= additive
    elif ops.G.variant == "bounded_nemytskii":
        out += _nemytskii_increment(out, dWt, ops, work)
    return out


_STEPPERS = {"ito_exp_em": _step_em_batch, "strat_split": _step_split_batch}


def drift(u: SpectralField, cfg: SdeConfig, ops: GalerkinOps) -> SpectralField:
    """The four-term Ito drift -iAu - i P_n F(u) - beta u + b_n u."""
    c = u.coeffs[None, :]
    out = (-1j * ops.basis.a_eigs - cfg.beta + ops.corr) * c
    if cfg.nonlinearity_enabled:
        out = out - 1j * _nonlinear_coeffs(c, ops, cfg.alpha, StepWork(1, ops.basis))
    return SpectralField(out[0], ops.basis)


# ---------------------------------------------------------------------------
# records

OBSERVABLE_NAMES = ("mass", "energy", "v_norm_sq", "z", "l_alpha1_norm", "hs_norm_sq")


@dataclass
class TrajectoryRecord:
    times: np.ndarray
    table: Dict[str, np.ndarray]          # name -> (n_snap,)
    final_state: SpectralField
    cfg: SdeConfig
    states: Optional[np.ndarray] = None   # (n_snap, n_modes) when requested


@dataclass
class EnsembleReport:
    times: np.ndarray
    n_paths: int
    mean: Dict[str, np.ndarray]
    var: Dict[str, np.ndarray]
    stderr: Dict[str, np.ndarray]
    mass_lag1_mean: np.ndarray            # E[mass(t_j) mass(t_{j+1})], length n_snap-1
    cfg: SdeConfig
    G: StateNoiseG                        # the state noise the paths ran with


# ---------------------------------------------------------------------------
# engine

def _snapshot_steps(cfg: SdeConfig) -> np.ndarray:
    n = cfg.n_steps
    steps = list(range(0, n + 1, cfg.snapshot_stride))
    if steps[-1] != n:
        steps.append(n)
    return np.array(steps, dtype=int)


def state_functionals(u: np.ndarray, basis: EigenBasis, alpha: float) -> Dict[str, np.ndarray]:
    """mass, energy, v_norm_sq, z and the L^{alpha+1} norm of a batch of states.

    The norms are spectral's, called on the module, so they are the bits the
    blow-up guard reads and a wrapper of dynamics.v_norm_sq sees the guard only.
    """
    _check_alpha(alpha)
    mass = spectral.h_norm_sq(u)
    powsum = spectral.lp_power(u, basis, alpha + 1.0)
    energy = 0.5 * (basis.a_eigs * (u.real ** 2 + u.imag ** 2)).sum(axis=-1) \
        + powsum / (alpha + 1.0)
    return {
        "mass": mass,
        "energy": energy,
        "v_norm_sq": spectral.v_norm_sq(u, basis),
        "z": mass + 2.0 * energy,
        "l_alpha1_norm": powsum ** (1.0 / (alpha + 1.0)),
    }


def _observe_batch(u: np.ndarray, cfg: SdeConfig, ops: GalerkinOps) -> Dict[str, np.ndarray]:
    obs = state_functionals(u, ops.basis, cfg.alpha)
    obs["hs_norm_sq"] = hs_norm_sq_batch(u, ops.G, ops.basis, dress=ops.w)
    return obs


def _prepare_initial(fields: Sequence[SpectralField], cfg: SdeConfig,
                     ops: GalerkinOps) -> np.ndarray:
    """Initial batch, one row per field."""
    # coefficients of another geometry would be silently read as this one's modes
    want = (cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    for u in fields:
        got = (u.basis.kind, u.basis.modes_per_axis, u.basis.oversample)
        if got != want:
            raise ConfigurationError(
                f"initial datum lives on (kind, modes_per_axis, oversample) = {got}, "
                f"but the config asks for {want}")
    batch = np.stack([u.coeffs for u in fields])
    outside = np.abs(batch[:, ~ops.mask])
    if outside.size and np.max(outside) > 0.0:
        logger.warning("initial data has support outside the level-%d band; projecting",
                       cfg.galerkin_level)
    return batch * ops.maskf


def _cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None.

    Looked up at the first engine call, not at import."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _blas_pinned():
    """Hold OpenBLAS at one thread, then restore the count it had; a no-op
    without the symbols.  The count is process-wide, so engine calls made
    from several threads at once can restore it out of order."""
    blas = _openblas_threads()
    if blas is None:
        yield
        return
    get, set_ = blas
    old = get()
    set_(1)
    try:
        yield
    finally:
        set_(old)


def engine_threads(rows: int, grid_shape: Sequence[int]) -> int:
    """Threads integrate_paths splits a batch of `rows` rows over.

    One per _THREAD_WORK rows x grid points of a step, at most one per core
    and one per two rows: a 1-D transform of a single row is a BLAS
    matrix-vector product, which rounds unlike the matrix-matrix product of
    a batch.  One when OpenBLAS cannot be pinned: its own threads would
    compete with the row threads.
    """
    if _openblas_threads() is None:
        return 1
    work = rows * math.prod(grid_shape)
    return max(1, min(_cores(), rows // 2, work // _THREAD_WORK))


def engine_info(batches: Sequence[int], grid_shape: Sequence[int]) -> Dict[str, object]:
    """What the engine runs batches of these row counts on, for the run
    manifest; threads is None when no single count describes the run: the
    batches take different counts, or there are none."""
    counts = {engine_threads(rows, grid_shape) for rows in batches}
    return {"cpu_affinity": _cores(),
            "threads": counts.pop() if len(counts) == 1 else None,
            "blas_pinned": _openblas_threads() is not None}


def _batch_noise(cfg: SdeConfig, ops: GalerkinOps, keys: Sequence[int]):
    """draw(block) -> the (block, rows, nb+ng) increments of a batch whose row r
    has noise key keys[r]; one driver per distinct key, in first-seen order."""
    index = {k: i for i, k in enumerate(dict.fromkeys(keys))}
    slots = np.array([index[k] for k in keys])
    nb, ng = ops.B.n_modes, ops.G.n_modes
    drivers = [BrownianDriver(cfg.seed, k, nb, ng, cfg.dt) for k in index]

    def draw(block: int) -> np.ndarray:
        incs = np.empty((block, len(drivers), nb + ng))
        for s, d in enumerate(drivers):
            incs[:, s] = d.increments(block)
        return incs[:, slots] if len(drivers) < len(slots) else incs   # keys shared between rows

    return draw


@functools.lru_cache(maxsize=None)
def _workers(n: int, pid: int):
    """A pool of n threads for row slices, made at the first call that needs
    it and kept for the life of the process; keyed by pid, so that a forked
    child makes its own."""
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(n)


def _steps(u: np.ndarray, step: int, incs: np.ndarray, cfg: SdeConfig, ops: GalerkinOps):
    """The step loop: run the batch u at `step` through the block of
    increments incs, (steps, rows, n_B + n_G), one stepper call per step, and
    yield (step, state) after each.  It fills ops.work's noise tables with the
    factors of as many next steps as they hold whenever they are used up,
    points ops.work.row at each step's row, and resets it after the block."""
    stepper = _STEPPERS[cfg.scheme]
    work, nb, em = ops.work, ops.B.n_modes, cfg.scheme == "ito_exp_em"
    lo = hi = 0     # the steps the tables hold
    for i, inc in enumerate(incs):
        if i == hi:
            lo, hi = i, i + work.fill(incs[i:, :, :nb], incs[i:, :, nb:], ops, cfg, em)
        work.row = i - lo if i < hi else None
        u = stepper(u, inc[:, :nb], inc[:, nb:], cfg, ops)
        yield step + i + 1, u
    work.row = None


class _RowSlice:
    """One row slice of an integrate_paths batch for one call: its rows, the
    ops it steps with, which carry the StepWork made for it here, its views
    of the tables and states, and its snapshot sequence.

    advance runs the slice's rows through one block of _steps, which fills
    the StepWork's noise tables and picks each step's row, without a check,
    and records the block's snapshots.  They are observed as one sequence of
    (snapshot, row) pairs in step order, the initial snapshot first, which
    groups cuts into _observe_batch calls.  A group is observed as soon as
    its last row is recorded: where the state is when the group lies inside
    one snapshot, else from pending, which holds the rows of the group in
    progress.
    """

    def __init__(self, rows: slice, cfg: SdeConfig, ops: GalerkinOps,
                 tables: Dict[str, np.ndarray], states: Optional[np.ndarray],
                 snapset: Dict[int, int]):
        n = rows.stop - rows.start
        self.rows = rows
        self.cfg = cfg
        self.ops = replace(ops, work=StepWork(n, ops.basis))
        self.snapset = snapset
        # (n_snap, slice rows) views: entry j of the sequence is .flat[j]
        self.tables = {name: table[rows].T for name, table in tables.items()}
        self.states = None if states is None else states[:, rows]
        self.groups = _row_chunks(len(snapset) * n, ops.basis)
        self.next = 0       # the first group not yet observed

    @functools.cached_property
    def pending(self) -> np.ndarray:
        """(widest of groups, n_modes): the rows of a group recorded while it is
        incomplete; made only when a group crosses a snapshot boundary."""
        return np.empty((max(g.stop - g.start for g in self.groups), self.ops.basis.n_modes),
                        dtype=np.complex128)

    def record(self, u: np.ndarray, i: int) -> None:
        """Snapshot i of the slice, u of shape (slice rows, n_modes)."""
        groups = self.groups
        a, b = i * len(u), (i + 1) * len(u)
        if self.states is not None:
            self.states[i] = u
        while self.next < len(groups) and groups[self.next].start < b:
            g = groups[self.next]
            if a <= g.start and g.stop <= b:
                rows = u[g.start - a:g.stop - a]
            else:
                lo, hi = max(g.start, a), min(g.stop, b)
                self.pending[lo - g.start:hi - g.start] = u[lo - a:hi - a]
                if g.stop > b:
                    return
                rows = self.pending[:g.stop - g.start]
            obs = _observe_batch(rows, self.cfg, self.ops)
            for name, seq in self.tables.items():
                seq.flat[g] = obs[name]
            self.next += 1

    def advance(self, u: np.ndarray, step: int, incs: np.ndarray) -> np.ndarray:
        """One unchecked block of the slice's rows of u at `step` and of incs;
        returns their last state, which may be a buffer of ops.work."""
        u = u[self.rows]
        # pool threads do not inherit the caller's errstate
        with np.errstate(all="ignore"):
            for step, u in _steps(u, step, incs[:, self.rows], self.cfg, self.ops):
                i = self.snapset.get(step)
                if i is not None:
                    self.record(u, i)
        return u


def _replay(u: np.ndarray, step: int, incs: np.ndarray, cfg: SdeConfig,
            ops: GalerkinOps) -> None:
    """Run the block of increments incs from the whole batch u at `step`
    again, through _steps in one StepWork, with _check_rows after every step.
    It records nothing: the slices have recorded the block with the same
    bits, and the tables of a run that raises are discarded."""
    ops = replace(ops, work=StepWork(len(u), ops.basis))
    for step, u in _steps(u, step, incs, cfg, ops):
        _check_rows(u, step, cfg, ops)


def integrate_paths(cfg: SdeConfig, ops: GalerkinOps, u0_batch: np.ndarray,
                    streams: Sequence[int], collect_states: bool = False):
    """Advance a batch of paths in lockstep, sampling observables on the stride grid.

    streams[r] is the noise-stream key of row r: the row is driven by the
    Brownian increments of (cfg.seed, streams[r]).  Rows with the same key
    see the same noise (common-noise pairs, fingerprints from several
    initial data); an ensemble gives every row its own key.  Returns
    (times, tables, final batch, states), where states is (n_snap, P,
    n_modes) when collect_states is set and None otherwise.

    A large batch runs as contiguous row slices (_RowSlice), one per
    engine_threads thread: the first on the calling thread, the others on a
    pool that the process keeps, with OpenBLAS held at one thread for the
    call.  The calling thread owns the noise: one driver per distinct key
    for the whole batch, and one draw per RNG block, of which each slice
    reads its rows.  So a row's result does not depend on the split.

    Each slice steps in a StepWork of its own, made once per call, through
    _steps, which fills its noise tables and picks each step's row.  Both
    steppers write into it and return one of its buffers, so a slice's last
    state of a block lives in its StepWork until the calling thread joins
    the slices into a new array; a block never starts from one.  A slice
    observes its snapshots, the initial one first, in groups of rows that
    may cross snapshots: one _observe_batch call per 128 KiB of grid values,
    not one per snapshot.  The calling thread records the initial snapshot
    through the slices.

    Floating-point errors are ignored throughout, whatever the caller's
    np.errstate: a run fails only with BlowUpError.  The threads run the
    steps of each block and observe its snapshots; the calling thread checks
    the blow-up rule on the block's last state of the whole batch and, when
    it trips, replays the block through _steps from the same increments
    with _check_rows after every step (_replay).  Non-finite values stay
    non-finite, so the error names what a check after every step would,
    except that a row that exceeds BLOWUP_V_NORM and falls back below it
    within one block passes.
    """
    P = u0_batch.shape[0]
    if len(streams) != P:
        raise ConfigurationError(f"one stream key per path is required: "
                                 f"{len(streams)} keys for {P} paths")
    snap_steps = _snapshot_steps(cfg)
    snapset = {int(s): i for i, s in enumerate(snap_steps)}
    tables = {name: np.empty((P, len(snap_steps))) for name in OBSERVABLE_NAMES}
    states = np.empty((len(snap_steps), P, ops.basis.n_modes), dtype=np.complex128) \
        if collect_states else None
    n = engine_threads(P, ops.basis.grid_shape)
    bounds = [P * i // n for i in range(n + 1)]
    draw = _batch_noise(cfg, ops, [int(k) for k in streams])
    # one StepWork per slice, never per thread: two slices that share a pool
    # thread must not share the buffers their last states are in
    parts = [_RowSlice(slice(a, b), cfg, ops, tables, states, snapset)
             for a, b in zip(bounds, bounds[1:])]
    pool = _workers(n - 1, os.getpid()) if n > 1 else None
    u = u0_batch.copy()
    with _blas_pinned(), np.errstate(all="ignore"):
        for part in parts:
            part.record(u[part.rows], 0)
        for step in range(0, cfg.n_steps, _RNG_BLOCK):
            incs = draw(min(_RNG_BLOCK, cfg.n_steps - step))
            later = [pool.submit(part.advance, u, step, incs) for part in parts[1:]]
            try:
                head = parts[0].advance(u, step, incs)
            finally:    # no slice outlives the call, also when this one raises
                rest = [f.result() for f in later]
            # a new array: a block starts from no slice's buffers
            end = np.concatenate([head] + rest)
            if not np.all(v_norm_sq(end, ops.basis) <= BLOWUP_V_NORM ** 2):
                _replay(u, step, incs, cfg, ops)
            u = end
            del incs    # released before the next block is drawn
    return snap_steps * cfg.dt, tables, u, states


def _check_rows(u: np.ndarray, step: int, cfg: SdeConfig, ops: GalerkinOps) -> None:
    """The blow-up rule at one step: the first non-finite row, else the row of
    largest V-norm when that norm exceeds BLOWUP_V_NORM."""
    vsq = v_norm_sq(u, ops.basis)
    bad = ~np.isfinite(vsq)
    if bad.any():
        raise BlowUpError(step, step * cfg.dt, float("inf"), int(np.argmax(bad)))
    worst = int(np.argmax(vsq))
    if vsq[worst] > BLOWUP_V_NORM ** 2:
        raise BlowUpError(step, step * cfg.dt, float(np.sqrt(vsq[worst])), worst)


def simulate(cfg: SdeConfig, initial: SpectralField,
             collect_states: bool = False) -> TrajectoryRecord:
    """Integrate one trajectory (path_index 0 of the config seed)."""
    ops = build_operators(cfg)
    u0 = _prepare_initial([initial], cfg, ops)
    times, tables, u, states = integrate_paths(cfg, ops, u0, [0], collect_states)
    table = {name: tables[name][0] for name in OBSERVABLE_NAMES}
    return TrajectoryRecord(times=times, table=table,
                            final_state=SpectralField(u[0], ops.basis),
                            cfg=cfg, states=states[:, 0] if collect_states else None)


class _MomentAccumulator:
    """Chunk-merged count/mean/M2 (Chan's parallel update).

    Merged in chunk order, so the result is deterministic for a fixed chunk
    size; a different chunking or merge order changes the last bits.
    """

    def __init__(self):
        self.n = 0
        self.mean = None
        self.m2 = None

    def update(self, chunk: np.ndarray):
        cn = chunk.shape[0]
        cmean = chunk.mean(axis=0)
        cm2 = ((chunk - cmean) ** 2).sum(axis=0)
        if self.n == 0:
            self.n, self.mean, self.m2 = cn, cmean, cm2
            return
        delta = cmean - self.mean
        tot = self.n + cn
        self.mean = self.mean + delta * (cn / tot)
        self.m2 = self.m2 + cm2 + delta ** 2 * (self.n * cn / tot)
        self.n = tot

    def variance(self) -> np.ndarray:
        if self.n < 2:
            return np.zeros_like(self.mean)
        return np.maximum(self.m2, 0.0) / (self.n - 1)


def simulate_ensemble(cfg: SdeConfig, initial) -> EnsembleReport:
    """Monte Carlo ensemble of cfg.paths paths, path p on noise stream p.

    initial may be a SpectralField or a path_index -> field factory.
    """
    n_paths = cfg.paths
    ops = build_operators(cfg)

    accs = {name: _MomentAccumulator() for name in OBSERVABLE_NAMES}
    accs["residual"] = _MomentAccumulator()
    lag_sum = None
    done = 0
    while done < n_paths:
        pn = min(_ENSEMBLE_CHUNK, n_paths - done)
        idx = list(range(done, done + pn))
        u0 = _prepare_initial([initial(p) for p in idx] if callable(initial)
                              else [initial] * pn, cfg, ops)
        try:
            times, tables, _, _ = integrate_paths(cfg, ops, u0, idx)
        except BlowUpError as exc:
            # integrate_paths names the row of the chunk; report the path
            raise BlowUpError(exc.step, exc.t, exc.v_norm, done + exc.path_index) from None
        tables["residual"] = _budget_residual_batch(times, tables, cfg)
        for name, acc in accs.items():
            acc.update(tables[name])
        prod = tables["mass"][:, :-1] * tables["mass"][:, 1:]
        lag_sum = prod.sum(axis=0) if lag_sum is None else lag_sum + prod.sum(axis=0)
        done += pn

    mean = {k: a.mean for k, a in accs.items()}
    var = {k: a.variance() for k, a in accs.items()}
    stderr = {k: np.sqrt(v / n_paths) for k, v in var.items()}
    return EnsembleReport(times=times, n_paths=n_paths, mean=mean, var=var,
                          stderr=stderr, mass_lag1_mean=lag_sum / n_paths, cfg=cfg,
                          G=ops.G)


def _budget_residual_batch(times: np.ndarray, tables: Dict[str, np.ndarray],
                           cfg: SdeConfig) -> np.ndarray:
    """mass(t) - mass(0) + 2 beta int mass - int hs, trapezoid on the snapshot grid."""
    mass = tables["mass"]
    hs = tables["hs_norm_sq"]
    int_mass = cumulative_trapezoid(mass, times)
    int_hs = cumulative_trapezoid(hs, times)
    return mass - mass[..., :1] + 2.0 * cfg.beta * int_mass - int_hs


def cumulative_trapezoid(y: np.ndarray, x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Running trapezoid integral of y over the 1-D grid x along axis, starting at 0.

    The arithmetic of SciPy's cumulative_trapezoid(..., initial=0), so
    results match it bit for bit.
    """
    y = np.asarray(y)
    axis = axis % y.ndim
    head = (slice(None),) * axis
    d = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1 - axis))
    res = np.cumsum(d * (y[head + (slice(1, None),)] + y[head + (slice(None, -1),)]) / 2.0,
                    axis=axis)
    return np.concatenate([np.zeros_like(y[head + (slice(0, 1),)]), res], axis=axis)


# ---------------------------------------------------------------------------
# built-in initial data (the config surface has no initial-data key)

def default_initial(basis: EigenBasis, level: int, mass: float = 1.0,
                    s_scale: float = 3.0, tilt: float = 0.6) -> SpectralField:
    """Deterministic smooth low-band profile with prescribed squared H-norm."""
    mask = sharp_projector(level, basis)
    idx = np.arange(basis.n_modes)
    c = np.exp(-basis.s_eigs / s_scale) * (1.0 + tilt * 1j) * np.exp(0.9j * idx)
    c = c * mask
    nrm = spectral.h_norm_sq(c)
    if nrm == 0.0:
        raise ConfigurationError("empty Galerkin band for the default initial datum")
    return SpectralField(c * math.sqrt(mass / nrm), basis)


def default_initial_family(basis: EigenBasis, level: int, count: int = 3):
    """Distinct smooth initial data (tag, field) for fingerprint comparisons."""
    shapes = [(2.0, 0.4, 1.0), (4.0, 0.8, 0.6), (6.0, 0.2, 1.4),
              (3.0, 1.0, 0.9), (5.0, 0.6, 1.2)]
    out = []
    for j in range(count):
        s_scale, tilt, mass = shapes[j % len(shapes)]
        out.append((f"init_{chr(ord('a') + j)}",
                    default_initial(basis, level, mass=mass, s_scale=s_scale, tilt=tilt)))
    return out


def scaled_initial_factory(base: SpectralField, seed: int, spread: float = 0.3):
    """Per-path amplitude randomization: factor 1 + spread*(2U-1), U ~ U(0,1).

    The factor stream is keyed by (seed, path_index) independently of the
    noise stream, so ensembles stay reproducible path by path.
    """
    def factory(path_index: int) -> SpectralField:
        seq = np.random.SeedSequence((int(seed), int(path_index), _INIT_STREAM))
        g = np.random.Generator(np.random.Philox(seq))
        factor = 1.0 + spread * (2.0 * g.random() - 1.0)
        return SpectralField(base.coeffs * factor, base.basis)

    return factory
