"""Flat key=value configuration: parsing, validation, constants echo, checksum.

One `key = value` pair per line, `#` starts a comment, keys are dotted paths.
Unknown keys, duplicate keys (reported with line numbers), unparsable values,
and violated invariants are all hard errors naming the key and constraint.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
# the manifest records its version; perfbench/worker.py also reads
# sys.modules["scipy"] without importing it, so `import snls` must load it
import scipy

from .spectral import BASIS_KINDS
from .operators import G_VARIANTS
from .dynamics import SCHEMES, ConfigurationError, SdeConfig, build_operators


class ConfigError(ConfigurationError):
    pass


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean (true/false)")


def _parse_floats(s: str) -> Tuple[float, ...]:
    s = s.strip()
    if not s:
        return ()
    return tuple(float(part) for part in s.split(","))


# key -> (config field, parser, constraint text or None)
_SCALAR_KEYS = {
    "domain.kind": ("domain_kind", str.strip, f"one of {BASIS_KINDS}"),
    "domain.modes_per_axis": ("modes_per_axis", int, "a positive integer"),
    "domain.oversample": ("oversample", int, "an integer >= 2"),
    "galerkin.level": ("galerkin_level", int, "a non-negative integer"),
    "alpha": ("alpha", float, "a real exceeding 1"),
    "beta": ("beta", float, "a real"),
    "scheme": ("scheme", str.strip, f"one of {SCHEMES}"),
    "dt": ("dt", float, "a positive real"),
    "t_final": ("t_final", float, "a non-negative real"),
    "snapshot_stride": ("snapshot_stride", int, "an integer >= 1"),
    "seed": ("seed", int, "a non-negative integer"),
    "ensemble.paths": ("paths", int, "an integer >= 1"),
    "nonlinearity.enabled": ("nonlinearity_enabled", _parse_bool, "true or false"),
    "noise.G.variant": ("g_variant", str.strip, f"one of {G_VARIANTS}"),
    "noise.G.params": ("g_params", _parse_floats, "comma-separated reals"),
    "run.burn_in_fraction": ("burn_in_fraction", float, "a real in [0, 1)"),
    "run.radii": ("radii", _parse_floats, "ascending comma-separated reals"),
    "run.lambda": ("smg_lambda", float, "a real"),
}


def config_checksum(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def parse_config(text: str) -> SdeConfig:
    """Parse and validate; raises ConfigError naming the offending key/line."""
    seen_lines: Dict[str, int] = {}
    fields: Dict[str, object] = {}
    profiles: Dict[int, str] = {}
    b_count: Optional[int] = None

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

        if key == "noise.B.count":
            try:
                b_count = int(value)
            except ValueError:
                raise ConfigError(f"key 'noise.B.count': expected an integer, got {value!r}")
            if b_count < 0:
                raise ConfigError("key 'noise.B.count': must be non-negative")
            continue
        if key.startswith("noise.B.") and key.endswith(".profile"):
            mid = key[len("noise.B."):-len(".profile")]
            if not mid.isdigit() or int(mid) < 1:
                raise ConfigError(f"line {lineno}: malformed key {key!r}; "
                                  "expected noise.B.<m>.profile with m >= 1")
            profiles[int(mid)] = value
            continue
        if key not in _SCALAR_KEYS:
            raise ConfigError(f"unknown config key {key!r} at line {lineno}")
        field, parser, constraint = _SCALAR_KEYS[key]
        try:
            fields[field] = parser(value)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected {constraint}, got {value!r}")

    if b_count is None:
        b_count = 0
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
    """Growth constants of G, operator norms of B, and the two damping checks."""

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

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}

    def lines(self):
        d = self.to_dict()
        out = [f"{k} = {v}" for k, v in d.items()]
        return out


def compute_constants(cfg: SdeConfig) -> ConstantsReport:
    """Constants of the B and G that build_operators(cfg) gives the integrator."""
    ops = build_operators(cfg)
    B, G = ops.B, ops.G
    term_v = G.C1t ** 2 + G.C2t ** 2 + B.v_opnorm_sq_sum
    term_lp = 0.5 * (cfg.alpha + 1.0) * B.lp_opnorm_sq_sum_bound + cfg.alpha * G.C3t ** 2
    return ConstantsReport(
        alpha=cfg.alpha, beta=cfg.beta,
        c1=G.C1, c1_tilde=G.C1t, c2=G.C2, c2_tilde=G.C2t, c3=G.C3, c3_tilde=G.C3t,
        l_g=G.L_G,
        b_h_norm_sq=B.h_opnorm_sq_sum,
        b_v_norm_sq=B.v_opnorm_sq_sum,
        b_lp_norm_sq=B.lp_opnorm_sq_sum_bound,
        damping_term_v=term_v,
        damping_term_lp=term_lp,
        beta_condition_ok=bool(cfg.beta > max(term_v, term_lp)),
        delta0_condition_ok=bool(G.C1 == 0.0 and cfg.beta > 0.5 * G.C1t ** 2),
    )


@dataclass
class RunManifest:
    mode: str
    out_dir: str
    tool_version: str
    config_checksum: str
    cfg: SdeConfig
    constants: ConstantsReport

    def to_json(self) -> str:
        body = {
            "mode": self.mode,
            "out_dir": self.out_dir,
            "tool_version": self.tool_version,
            "config_checksum": self.config_checksum,
            "config": {k: (list(v) if isinstance(v, tuple) else v)
                       for k, v in self.cfg.__dict__.items()},
            "constants": self.constants.to_dict(),
            "versions": {"python": platform.python_version(), "numpy": np.__version__,
                         "scipy": scipy.__version__},
        }
        return json.dumps(body, indent=2, sort_keys=True)
