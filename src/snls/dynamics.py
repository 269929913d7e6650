"""Time integration of the Galerkin SDE in Ito and Stratonovich-faithful form.

The level-n Galerkin system on the band s_k < 2^{n+1} reads, in Ito form,

    du = (-iAu - i P_n F(u) - beta u + b_n u) dt
         - i sum_m (S_n B_m S_n) u dW_m - i S_n G(S_n u) dW~,

with the correction b_n = -1/2 sum_m (S_n B_m S_n)^2.  Two schemes:

  ito_exp_em   exponential Euler-Maruyama: exact unitary factor e^{-iA dt}
               applied after an EM update of every remaining term, diffusion
               at the left endpoint.
  strat_split  Lie splitting: exact linear flow, exact pointwise nonlinear
               phase flow followed by re-projection, exact damping factor,
               exact unitary Stratonovich B-flow, then the Ito G increment.

Everything is vectorized over a batch of paths; a single trajectory is the
batch of size one, so ensemble and single-path runs share one code path and
one RNG stream layout (master_seed, path_index).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .spectral import BASIS_KINDS, EigenBasis, SpectralField, make_basis, v_norm_sq
from .operators import (
    G_VARIANTS,
    LinearNoiseB,
    StateNoiseG,
    f_pointwise,
    hs_norm_sq_batch,
    make_noise_B,
    make_noise_G,
    sharp_projector,
    sigma_saturating,
    smoothed_projector,
    stratonovich_correction,
)

logger = logging.getLogger(__name__)

SCHEMES = ("ito_exp_em", "strat_split")

BLOWUP_V_NORM = 1e8
_NOISE_STREAM = 0
_INIT_STREAM = 2
_RNG_BLOCK = 256          # steps drawn per driver call; the draws do not depend on it
_ENSEMBLE_CHUNK = 2048    # paths simulate_ensemble integrates together


class ConfigurationError(ValueError):
    pass


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
        """Check every knob; runs once, when the config is constructed."""
        if self.domain_kind not in BASIS_KINDS:
            raise ConfigurationError(f"key 'domain.kind': expected one of {BASIS_KINDS}, "
                                     f"got {self.domain_kind!r}")
        if self.g_variant not in G_VARIANTS:
            raise ConfigurationError(f"key 'noise.G.variant': expected one of {G_VARIANTS}, "
                                     f"got {self.g_variant!r}")
        if not (self.alpha > 1.0):
            raise ConfigurationError("alpha must exceed 1")
        if self.dt <= 0.0:
            raise ConfigurationError("dt must be positive")
        if self.t_final < 0.0:
            raise ConfigurationError("t_final must be non-negative")
        if self.t_final > 0.0 and self.dt > self.t_final:
            raise ConfigurationError("dt must not exceed t_final")
        ratio = self.t_final / self.dt
        if abs(ratio - round(ratio)) > 1e-6 * max(1.0, ratio):
            raise ConfigurationError("t_final must be an integer multiple of dt")
        if self.galerkin_level < 0:
            raise ConfigurationError("galerkin.level must be non-negative")
        if self.scheme not in SCHEMES:
            raise ConfigurationError(f"scheme must be one of {SCHEMES}")
        if self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be at least 1")
        if self.paths < 1:
            raise ConfigurationError("ensemble.paths must be at least 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be a non-negative integer")
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ConfigurationError("run.burn_in_fraction must lie in [0, 1)")
        radii = self.radii
        if len(radii) and any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigurationError("key 'run.radii': radii must be strictly ascending")
        if self.modes_per_axis < 1:
            raise ConfigurationError("key 'domain.modes_per_axis': must be positive")
        if self.oversample < 2:
            raise ConfigurationError("key 'domain.oversample': must be an integer >= 2")
        return self

    @property
    def n_steps(self) -> int:
        return round(self.t_final / self.dt)


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
    g_additive_dressed: Optional[np.ndarray]   # w * g_m, shape (M~, n_modes)


def build_operators(cfg: SdeConfig, basis: Optional[EigenBasis] = None) -> GalerkinOps:
    # No caller in the package passes `basis`; it stays because the benchmark's
    # mutation tests wrap this function as build_operators(cfg, basis).
    if basis is None:
        basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    mask = sharp_projector(cfg.galerkin_level, basis)
    w = smoothed_projector(cfg.galerkin_level, basis)
    B = make_noise_B(basis, cfg.b_profiles)
    G = make_noise_G(basis, cfg.g_variant, cfg.g_params, cfg.alpha)
    b_eff = B.multipliers * w ** 2 if B.n_modes else np.zeros((0, basis.n_modes))
    corr = stratonovich_correction(B, w) if B.n_modes else np.zeros(basis.n_modes)
    g_add = None
    if G.variant == "additive":
        g_add = G.g_coeffs * w
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

    The stream is keyed by (master_seed, path_index); W and W~ occupy disjoint
    columns of one normal block, so they are mutually independent and the
    whole stream is reproducible from the key alone.
    """

    def __init__(self, master_seed: int, path_index: int, n_B: int, n_G: int, dt: float):
        self.n_B = n_B
        self.n_G = n_G
        self.dt = dt
        seq = np.random.SeedSequence((int(master_seed), int(path_index), _NOISE_STREAM))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def increments(self, n_steps: int) -> Tuple[np.ndarray, np.ndarray]:
        block = self._gen.standard_normal((n_steps, self.n_B + self.n_G))
        block *= math.sqrt(self.dt)
        return block[:, : self.n_B], block[:, self.n_B:]


# ---------------------------------------------------------------------------
# step kernels (batched over paths: u has shape (P, n_modes))

def _g_increment(u: np.ndarray, dWt: np.ndarray, ops: GalerkinOps) -> Optional[np.ndarray]:
    """-i S_n G(S_n u) dW~ for a batch; None when G is off."""
    G = ops.G
    if not G.enabled:
        return None
    if G.variant == "linear_diagonal":
        scal = dWt @ G.gammas
        return -1j * scal[:, None] * (ops.w2 * u)
    if G.variant == "additive":
        return -1j * (dWt @ ops.g_additive_dressed)
    # bounded_nemytskii: one synthesis of S_n u, one analysis of the mixed field
    basis = ops.basis
    sig = sigma_saturating(basis.synthesize(ops.w * u))
    mix = np.tensordot(dWt, G.g_grids, axes=(1, 0))
    return -1j * ops.w * basis.analyze(sig * mix)


def _nonlinear_coeffs(u: np.ndarray, ops: GalerkinOps, alpha: float) -> np.ndarray:
    """P_n F(u) for a batch, dealiased on the oversampled grid."""
    grid = ops.basis.synthesize(u)
    return ops.maskf * ops.basis.analyze(f_pointwise(grid, alpha))


def _step_em_batch(u: np.ndarray, dW: np.ndarray, dWt: np.ndarray,
                   cfg: SdeConfig, ops: GalerkinOps) -> np.ndarray:
    dt = cfg.dt
    incr = (ops.corr - cfg.beta) * u * dt
    if cfg.nonlinearity_enabled:
        incr = incr - 1j * dt * _nonlinear_coeffs(u, ops, cfg.alpha)
    if ops.B.n_modes:
        incr = incr - 1j * (dW @ ops.b_eff) * u
    g_inc = _g_increment(u, dWt, ops)
    if g_inc is not None:
        incr = incr + g_inc
    return ops.rot * (u + incr)


def _step_split_batch(u: np.ndarray, dW: np.ndarray, dWt: np.ndarray,
                      cfg: SdeConfig, ops: GalerkinOps) -> np.ndarray:
    u = ops.rot * u
    if cfg.nonlinearity_enabled:
        grid = ops.basis.synthesize(u)
        if cfg.alpha == 3.0:
            phase = cfg.dt * (grid.real ** 2 + grid.imag ** 2)
        else:
            phase = cfg.dt * np.abs(grid) ** (cfg.alpha - 1.0)
        grid = grid * np.exp(-1j * phase)
        u = ops.maskf * ops.basis.analyze(grid)
    if cfg.beta != 0.0:
        u = u * ops.damp
    if ops.B.n_modes:
        u = u * np.exp(-1j * (dW @ ops.b_eff))
    g_inc = _g_increment(u, dWt, ops)
    if g_inc is not None:
        u = u + g_inc
    return u


_STEPPERS = {"ito_exp_em": _step_em_batch, "strat_split": _step_split_batch}


def drift(u: SpectralField, cfg: SdeConfig, ops: GalerkinOps) -> SpectralField:
    """The four-term Ito drift -iAu - i P_n F(u) - beta u + b_n u."""
    c = u.coeffs[None, :]
    out = (-1j * ops.basis.a_eigs - cfg.beta + ops.corr) * c
    if cfg.nonlinearity_enabled:
        out = out - 1j * _nonlinear_coeffs(c, ops, cfg.alpha)
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


# ---------------------------------------------------------------------------
# engine

def _snapshot_steps(cfg: SdeConfig) -> np.ndarray:
    n = cfg.n_steps
    steps = list(range(0, n + 1, cfg.snapshot_stride))
    if steps[-1] != n:
        steps.append(n)
    return np.array(steps, dtype=int)


def state_functionals(u: np.ndarray, basis: EigenBasis, alpha: float) -> Dict[str, np.ndarray]:
    """mass, energy, v_norm_sq, z and the L^{alpha+1} norm of a batch of states."""
    absq = u.real ** 2 + u.imag ** 2
    mass = absq.sum(axis=-1)
    powsum = basis.quad_weight * np.sum(
        np.abs(basis.synthesize(u)) ** (alpha + 1.0), axis=tuple(range(-basis.dim, 0)))
    energy = 0.5 * (basis.a_eigs * absq).sum(axis=-1) + powsum / (alpha + 1.0)
    return {
        "mass": mass,
        "energy": energy,
        "v_norm_sq": ((1.0 + basis.a_eigs) * absq).sum(axis=-1),
        "z": mass + 2.0 * energy,
        "l_alpha1_norm": powsum ** (1.0 / (alpha + 1.0)),
    }


def _observe_batch(u: np.ndarray, cfg: SdeConfig, ops: GalerkinOps) -> Dict[str, np.ndarray]:
    obs = state_functionals(u, ops.basis, cfg.alpha)
    obs["hs_norm_sq"] = hs_norm_sq_batch(u, ops.G, ops.basis, dress=ops.w)
    return obs


def _prepare_initial(initial, cfg: SdeConfig, ops: GalerkinOps,
                     path_indices: Sequence[int]) -> np.ndarray:
    """Initial batch, one row per path; initial is a field or a path_index -> field factory."""
    fields = [initial(int(p)) for p in path_indices] if callable(initial) \
        else [initial] * len(path_indices)
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


def integrate_paths(cfg: SdeConfig, ops: GalerkinOps, u0_batch: np.ndarray,
                    streams: Sequence[int], collect_states: bool = False):
    """Advance a batch of paths in lockstep, sampling observables on the stride grid.

    streams[r] is the noise-stream key of row r: the row is driven by the
    Brownian increments of (cfg.seed, streams[r]).  Rows with the same key
    share one driver and so see the same noise (common-noise pairs,
    fingerprints from several initial data); an ensemble gives every row
    its own key.  Returns (times, tables, final batch, states), where states
    is (n_snap, P, n_modes) when collect_states is set and None otherwise.
    """
    P = u0_batch.shape[0]
    if len(streams) != P:
        raise ConfigurationError(f"one stream key per path is required: "
                                 f"{len(streams)} keys for {P} paths")
    # driver slot per distinct key, in first-seen order; slots[r] is row r's driver
    index = {k: i for i, k in enumerate(dict.fromkeys(int(k) for k in streams))}
    slots = np.array([index[int(k)] for k in streams])
    n_steps = cfg.n_steps
    snap_steps = _snapshot_steps(cfg)
    snapset = {int(s): i for i, s in enumerate(snap_steps)}
    stepper = _STEPPERS[cfg.scheme]

    drivers = [BrownianDriver(cfg.seed, k, ops.B.n_modes, ops.G.n_modes, cfg.dt)
               for k in index]

    tables = {name: np.empty((P, len(snap_steps))) for name in OBSERVABLE_NAMES}
    states = np.empty((len(snap_steps), P, ops.basis.n_modes), dtype=np.complex128) \
        if collect_states else None

    u = u0_batch.copy()

    def record(step: int):
        i = snapset.get(step)
        if i is None:
            return
        obs = _observe_batch(u, cfg, ops)
        for name in OBSERVABLE_NAMES:
            tables[name][:, i] = obs[name]
        if collect_states:
            states[i] = u

    record(0)
    step = 0
    nb, ng = ops.B.n_modes, ops.G.n_modes
    while step < n_steps:
        block = min(_RNG_BLOCK, n_steps - step)
        # increments per stream for this block: (n_streams, block, nb+ng)
        stream_inc = np.empty((len(drivers), block, nb + ng))
        for s, d in enumerate(drivers):
            dW, dWt = d.increments(block)
            stream_inc[s, :, :nb] = dW
            stream_inc[s, :, nb:] = dWt
        for i in range(block):
            inc_i = stream_inc[slots, i]
            u = stepper(u, inc_i[:, :nb], inc_i[:, nb:], cfg, ops)
            step += 1
            vsq = v_norm_sq(u, ops.basis)
            bad = ~np.isfinite(vsq)
            if bad.any():
                worst = int(np.argmax(bad))
                raise BlowUpError(step, step * cfg.dt, float("inf"), worst)
            worst = int(np.argmax(vsq))
            if vsq[worst] > BLOWUP_V_NORM ** 2:
                raise BlowUpError(step, step * cfg.dt, float(np.sqrt(vsq[worst])), worst)
            record(step)

    times = snap_steps * cfg.dt
    return times, tables, u, states


def simulate(cfg: SdeConfig, initial: SpectralField,
             collect_states: bool = False) -> TrajectoryRecord:
    """Integrate one trajectory (path_index 0 of the config seed)."""
    ops = build_operators(cfg)
    u0 = _prepare_initial(initial, cfg, ops, [0])
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
        u0 = _prepare_initial(initial, cfg, ops, idx)
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
                          stderr=stderr, mass_lag1_mean=lag_sum / n_paths, cfg=cfg)


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
    nrm = np.sum(np.abs(c) ** 2)
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
