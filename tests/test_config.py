"""Config grammar, validation errors, constants echo, checksum stability."""

import json

import numpy as np
import pytest

from snls.config import (
    ConfigError,
    RunManifest,
    compute_constants,
    config_checksum,
    parse_config,
)
from snls.dynamics import ConfigurationError, engine_info


GOOD = """
domain.kind = torus1d
domain.modes_per_axis = 16
domain.oversample = 2
galerkin.level = 4
alpha = 3
beta = 1.0
scheme = strat_split
dt = 1e-3
t_final = 0.5            # horizon
snapshot_stride = 10
seed = 7
ensemble.paths = 4
nonlinearity.enabled = true
noise.B.count = 2
noise.B.1.profile = 0.2
noise.B.2.profile = 0.1/(1+lambda)
noise.G.variant = linear_diagonal
noise.G.params = 0.3, 0.2
run.burn_in_fraction = 0.2
run.radii = 1, 2, 4
run.lambda = 0.5
"""


def test_empty_config_yields_defaults():
    cfg = parse_config("")
    assert cfg.domain_kind == "torus1d"
    assert cfg.alpha == 3.0
    assert cfg.b_profiles == ()
    assert cfg.g_variant == "none"


def test_full_config_parses_every_key():
    cfg = parse_config(GOOD)
    assert cfg.modes_per_axis == 16 and cfg.galerkin_level == 4
    assert cfg.beta == 1.0 and cfg.scheme == "strat_split"
    assert cfg.dt == 1e-3 and cfg.t_final == 0.5
    assert cfg.snapshot_stride == 10 and cfg.seed == 7 and cfg.paths == 4
    assert cfg.nonlinearity_enabled is True
    assert cfg.b_profiles == ("0.2", "0.1/(1+lambda)")
    assert cfg.g_variant == "linear_diagonal" and cfg.g_params == (0.3, 0.2)
    assert cfg.burn_in_fraction == 0.2
    assert cfg.radii == (1.0, 2.0, 4.0)
    assert cfg.smg_lambda == 0.5


@pytest.mark.parametrize("text,needle", [
    ("alpha = 0.5", "alpha must exceed 1"),
    ("alpha = 2\nalpha = 3", "duplicate key 'alpha' at line 2"),
    ("alpha = 2\nalpha = 3", "first set at line 1"),
    ("foo.bar = 1", "unknown config key 'foo.bar' at line 1"),
    ("dt = fast", "key 'dt': expected a positive real, got 'fast'"),
    ("just words", "line 1: expected key = value"),
    ("noise.B.count = two", "key 'noise.B.count': expected an integer"),
    ("noise.B.count = -1", "must be non-negative"),
    ("noise.B.count = 2\nnoise.B.1.profile = 0.2", "missing profile for noise.B.2.profile"),
    ("noise.B.count = 1\nnoise.B.1.profile = 0.2\nnoise.B.3.profile = 0.1",
     "'noise.B.3.profile' exceeds noise.B.count = 1"),
    ("noise.B.x.profile = 0.2", "malformed key"),
    ("noise.B.0.profile = 0.2", "malformed key"),
    ("run.radii = 2, 1", "strictly ascending"),
    ("scheme = rk4", "scheme must be one of"),
    ("domain.kind = circle", "key 'domain.kind'"),
    ("noise.G.variant = cubic", "key 'noise.G.variant'"),
    ("domain.oversample = 1", "key 'domain.oversample'"),
    ("domain.modes_per_axis = 0", "key 'domain.modes_per_axis'"),
    ("nonlinearity.enabled = maybe", "key 'nonlinearity.enabled': expected true or false"),
    ("noise.G.params = a,b", "key 'noise.G.params': expected comma-separated reals"),
    ("snapshot_stride = 0", "snapshot_stride"),
    ("ensemble.paths = 0", "paths"),
    ("seed = -1", "seed"),
    ("run.burn_in_fraction = 1.5", "burn_in"),
    ("dt = 0.5\nt_final = 0.1", "dt must not exceed t_final"),
    ("dt = nan", "key 'dt'"),
    ("t_final = inf", "key 't_final'"),
    ("t_final = 1e300\ndt = 1e-10", "t_final must be an integer multiple of dt"),
    ("alpha = inf", "alpha must exceed 1"),
    ("beta = nan", "key 'beta'"),
    ("noise.G.variant = linear_diagonal\nnoise.G.params = 0.3, nan", "key 'noise.G.params'"),
    ("noise.G.params = 0.3, 0.2", "key 'noise.G.params': G variant 'none' takes no parameters"),
    ("noise.G.variant = additive", "key 'noise.G.params': G variant 'additive' needs"),
    ("run.radii = 1, inf", "key 'run.radii'"),
    ("run.radii = -3, 2", "key 'run.radii': radii must be non-negative"),
    ("run.lambda = nan", "key 'run.lambda'"),
    ("domain.modes_per_axis = 1", "key 'domain.modes_per_axis'"),
    ("domain.modes_per_axis = 15", "key 'domain.modes_per_axis'"),
])
def test_rejections_name_the_key_and_constraint(text, needle):
    with pytest.raises(ConfigurationError, match=None) as exc:
        parse_config(text)
    assert needle in str(exc.value)


def test_config_error_is_a_configuration_error():
    assert issubclass(ConfigError, ConfigurationError)


def test_every_layer_raises_input_errors_as_configuration_errors():
    from snls.operators import OperatorError
    from snls.spectral import BasisError
    assert issubclass(BasisError, ConfigurationError)
    assert issubclass(OperatorError, ConfigurationError)


def test_checksum_is_byte_sensitive_and_stable():
    a = config_checksum(GOOD)
    assert a == config_checksum(GOOD)
    assert a != config_checksum(GOOD + " ")
    assert len(a) == 64 and all(ch in "0123456789abcdef" for ch in a)


def test_constants_echo_matches_hand_computation():
    cfg = parse_config(GOOD)
    rep = compute_constants(cfg)

    # B multipliers on s = 1 + k^2, k in [-8, 8) for 16 torus modes
    s = 1.0 + np.arange(-8, 8) ** 2
    b_h = 0.2 ** 2 + (0.1 / (1 + s.min())) ** 2
    assert rep.b_h_norm_sq == pytest.approx(b_h, rel=1e-12)
    assert rep.b_v_norm_sq == pytest.approx(b_h, rel=1e-12)
    lp = 0.2 ** 2 + np.sum((0.1 / (1 + s)) ** 2)
    assert rep.b_lp_norm_sq == pytest.approx(lp, rel=1e-12)

    c1t_sq = 0.3 ** 2 + 0.2 ** 2
    assert rep.c1 == 0.0
    assert rep.c1_tilde ** 2 == pytest.approx(c1t_sq, rel=1e-12)
    term_v = 2 * c1t_sq + b_h
    term_lp = 2.0 * lp + 3.0 * c1t_sq
    assert rep.damping_term_v == pytest.approx(term_v, rel=1e-12)
    assert rep.damping_term_lp == pytest.approx(term_lp, rel=1e-12)
    assert rep.beta_condition_ok == bool(1.0 > max(term_v, term_lp))
    assert rep.beta_condition_ok is True
    assert rep.delta0_condition_ok is True

    lines = rep.lines()
    assert any(line.startswith("damping_term_v = ") for line in lines)


def test_constants_conditions_flip_with_weak_damping():
    weak = GOOD.replace("beta = 1.0", "beta = 0.05")
    rep = compute_constants(parse_config(weak))
    assert rep.beta_condition_ok is False
    assert rep.delta0_condition_ok is False   # 0.05 < 0.13 / 2


@pytest.mark.parametrize("alpha, oversample, alias_free", [
    (3.0, 2, True), (3.0, 3, True), (5.0, 2, False), (5.0, 3, True), (2.5, 4, False),
    (4.0, 4, False),
])
def test_alias_free_needs_an_odd_power_within_the_oversample(alpha, oversample, alias_free):
    text = GOOD.replace("alpha = 3", f"alpha = {alpha}").replace(
        "domain.oversample = 2", f"domain.oversample = {oversample}")
    rep = compute_constants(parse_config(text))
    assert rep.alias_free is alias_free
    # the band |k| <= 5 of the level-4 torus: 2 oversample K + 1 nodes
    assert rep.band_modes == 11 and rep.grid_shape == (10 * oversample + 1,)


def test_run_manifest_is_valid_json():
    cfg = parse_config(GOOD)
    constants = compute_constants(cfg)
    man = RunManifest(mode="simulate", out_dir="/tmp/x", tool_version="0.1.0",
                      config_checksum=config_checksum(GOOD), cfg=cfg, constants=constants,
                      engine=engine_info(1, constants.grid_shape))
    body = json.loads(man.to_json())
    assert body["mode"] == "simulate"
    assert body["engine"]["threads"] == 1
    assert body["config"]["b_profiles"] == ["0.2", "0.1/(1+lambda)"]
    assert body["config"]["radii"] == [1.0, 2.0, 4.0]
    assert body["constants"]["beta_condition_ok"] is True
    assert len(body["config_checksum"]) == 64
