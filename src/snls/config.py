"""Flat key=value configuration: parsing, validation, constants echo, checksum.

One `key = value` pair per line, `#` starts a comment, keys are dotted paths.
Unknown keys and duplicate keys are reported with line numbers; an unparsable
or off-rule value as `key '<key>': expected <rule>, got <value>`, with the
rule of its row in dynamics.CONFIG_KEYS.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
from dataclasses import dataclass
from typing import Dict, Tuple, Union

import numpy as np
# the manifest records its version; perfbench/worker.py also reads
# sys.modules["scipy"] without importing it, so `import snls` must load it
import scipy

from .spectral import rejection
from .operators import B_PROFILE_RULE, G_PARAMS_RULE, make_noise_B
from .dynamics import CONFIG_KEYS, ConfigurationError, SdeConfig, build_operators

_ROWS = {row.key: row for row in CONFIG_KEYS}


class ConfigError(ConfigurationError):
    pass


def config_checksum(data: Union[str, bytes]) -> str:
    """sha256 of the config bytes (a str is taken as its UTF-8 encoding)."""
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def parse_config(text: str) -> SdeConfig:
    """Parse by the rows of CONFIG_KEYS, then validate; a rejection names its key or line."""
    seen_lines: Dict[str, int] = {}
    fields: Dict[str, object] = {}
    profiles: Dict[int, str] = {}
    b_count = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in seen_lines:
            raise ConfigError(f"duplicate key {key!r} at line {lineno} "
                              f"(first set at line {seen_lines[key]})")
        seen_lines[key] = lineno

        name = key
        if key.startswith("noise.B.") and key.endswith(".profile"):
            mid = key[len("noise.B."):-len(".profile")]
            if not mid.isdigit() or int(mid) < 1:
                raise ConfigError(f"line {lineno}: malformed key {key!r}; "
                                  "expected noise.B.<m>.profile with m >= 1")
            name = "noise.B.<m>.profile"
        row = _ROWS.get(name)
        if row is None:
            raise ConfigError(f"unknown config key {key!r} at line {lineno}")
        try:
            parsed = row.parse(value)
            if name == "noise.B.count" and parsed < 0:
                raise ValueError(value)
        except ValueError:
            raise ConfigError(rejection(key, row.rule, value)) from None
        if name == "noise.B.count":
            b_count = parsed
        elif name == "noise.B.<m>.profile":
            profiles[int(mid)] = parsed
        else:
            fields[row.field] = parsed

    for m in profiles:
        if m > b_count:
            raise ConfigError(f"key 'noise.B.{m}.profile' exceeds noise.B.count = {b_count}")
    missing = [m for m in range(1, b_count + 1) if m not in profiles]
    if missing:
        raise ConfigError(f"missing profile for noise.B.{missing[0]}.profile "
                          f"(noise.B.count = {b_count})")
    fields["b_profiles"] = tuple(profiles[m] for m in range(1, b_count + 1))

    return SdeConfig(**fields)


# ---------------------------------------------------------------------------
# constants echo

@dataclass
class ConstantsReport:
    """Growth constants of G, operator norms of B, the two damping checks, and
    the grid the nonlinearity is evaluated on."""

    alpha: float
    beta: float
    c1: float
    c1_tilde: float
    c2: float
    c2_tilde: float
    c3: float
    c3_tilde: float
    l_g: float
    b_h_norm_sq: float          # sum_m ||B_m||^2_{L(H)}
    b_v_norm_sq: float          # sum_m ||B_m||^2_{L(V)}
    b_lp_norm_sq: float         # upper bound for sum_m ||B_m||^2_{L(L^{alpha+1})}
    damping_term_v: float       # C1~^2 + C2~^2 + ||B||^2_V
    damping_term_lp: float      # (alpha+1)/2 ||B||^2_Lp + alpha C3~^2
    beta_condition_ok: bool     # beta > max(term_v, term_lp)
    delta0_condition_ok: bool   # C1 = 0 and beta > C1~^2 / 2
    grid_shape: Tuple[int, ...]  # quadrature nodes per axis
    band_modes: int             # stored modes inside the band s_k < 2^{n+1}
    alias_free: bool            # P_n F(u) exact on the grid: alpha odd, <= 2 oversample - 1

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def lines(self):
        return [f"{k} = {v}" for k, v in self.to_dict().items()]


def _damping_terms(cfg: SdeConfig, B, G) -> Tuple[float, float]:
    """C1~^2 + C2~^2 + ||B||^2_V and (alpha+1)/2 ||B||^2_Lp + alpha C3~^2."""
    return (G.C1t ** 2 + G.C2t ** 2 + B.h_opnorm_sq_sum,
            0.5 * (cfg.alpha + 1.0) * B.lp_opnorm_sq_sum_bound + cfg.alpha * G.C3t ** 2)


def _overflowing_noise_key(cfg: SdeConfig, ops) -> str:
    """The rejection of the noise input that takes a damping term past the
    largest double: G's params, else the first B profile whose running sum does."""
    for m in range(len(cfg.b_profiles) + 1):
        B = make_noise_B(ops.basis, cfg.b_profiles[:m])
        if not all(map(math.isfinite, _damping_terms(cfg, B, ops.G))):
            return (rejection("noise.G.params", G_PARAMS_RULE, cfg.g_params) if m == 0 else
                    rejection(f"noise.B.{m}.profile", B_PROFILE_RULE, cfg.b_profiles[m - 1]))


def compute_constants(cfg: SdeConfig) -> ConstantsReport:
    """Constants of the B, G and grid that build_operators(cfg) gives the integrator.

    Rejects a config whose damping terms are not finite doubles, naming the
    noise key that overflows them."""
    ops = build_operators(cfg)
    B, G = ops.B, ops.G
    term_v, term_lp = _damping_terms(cfg, B, G)
    if not (math.isfinite(term_v) and math.isfinite(term_lp)):
        raise ConfigError(_overflowing_noise_key(cfg, ops))
    return ConstantsReport(
        alpha=cfg.alpha, beta=cfg.beta,
        c1=G.C1, c1_tilde=G.C1t, c2=G.C2, c2_tilde=G.C2t, c3=G.C3, c3_tilde=G.C3t,
        l_g=G.L_G,
        b_h_norm_sq=B.h_opnorm_sq_sum,
        # a diagonal multiplier has the same operator norm on H and on V
        b_v_norm_sq=B.h_opnorm_sq_sum,
        b_lp_norm_sq=B.lp_opnorm_sq_sum_bound,
        damping_term_v=term_v,
        damping_term_lp=term_lp,
        beta_condition_ok=bool(cfg.beta > max(term_v, term_lp)),
        delta0_condition_ok=bool(G.C1 == 0.0 and cfg.beta > 0.5 * G.C1t ** 2),
        grid_shape=ops.basis.grid_shape,
        band_modes=int(np.count_nonzero(ops.mask)),
        # |u|^(alpha-1) u is a product of alpha band fields only for odd integer alpha
        alias_free=bool(cfg.alpha % 2.0 == 1.0 and cfg.alpha <= 2 * cfg.oversample - 1),
    )


@dataclass
class RunManifest:
    mode: str
    out_dir: str
    tool_version: str
    config_checksum: str
    cfg: SdeConfig
    constants: ConstantsReport
    engine: dict                # dynamics.engine_info of the run's batch

    def to_json(self) -> str:
        body = {
            "mode": self.mode,
            "out_dir": self.out_dir,
            "tool_version": self.tool_version,
            "config_checksum": self.config_checksum,
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in self.cfg.__dict__.items()},
            "constants": self.constants.to_dict(),
            "engine": self.engine,
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
        }
        return json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
