"""Config grammar, validation errors, constants echo, checksum stability."""

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from snls.config import (
    ConfigError,
    RunManifest,
    compute_constants,
    config_checksum,
    parse_config,
)
from snls.cli import main
from snls.dynamics import CONFIG_KEYS, ConfigurationError, SdeConfig, build_operators, engine_info


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
    ("alpha = 0.5", "key 'alpha': expected a finite real exceeding 1, got 0.5"),
    ("alpha = 2\nalpha = 3", "duplicate key 'alpha' at line 2"),
    ("alpha = 2\nalpha = 3", "first set at line 1"),
    ("foo.bar = 1", "unknown config key 'foo.bar' at line 1"),
    ("dt = fast", "key 'dt': expected a finite positive real, got 'fast'"),
    ("just words", "line 1: expected key = value"),
    ("noise.B.count = two", "key 'noise.B.count': expected a non-negative integer, got 'two'"),
    ("noise.B.count = -1", "key 'noise.B.count': expected a non-negative integer, got '-1'"),
    ("noise.B.count = 2\nnoise.B.1.profile = 0.2", "missing profile for noise.B.2.profile"),
    ("noise.B.count = 1\nnoise.B.1.profile = 0.2\nnoise.B.3.profile = 0.1",
     "'noise.B.3.profile' exceeds noise.B.count = 1"),
    ("noise.B.x.profile = 0.2", "malformed key"),
    ("noise.B.0.profile = 0.2", "malformed key"),
    ("run.radii = 2, 1", "strictly ascending"),
    ("scheme = rk4", "key 'scheme': expected one of ('ito_exp_em', 'strat_split'), got 'rk4'"),
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
    ("dt = 0.5\nt_final = 0.1",
     "key 't_final': expected 0 or a positive integer multiple of dt, got 0.1"),
    ("dt = nan", "key 'dt'"),
    ("t_final = inf", "key 't_final'"),
    ("t_final = 1e300\ndt = 1e-10",
     "key 't_final': expected 0 or a positive integer multiple of dt, got 1e+300"),
    ("alpha = inf", "key 'alpha': expected a finite real exceeding 1, got inf"),
    ("beta = nan", "key 'beta'"),
    ("noise.G.variant = linear_diagonal\nnoise.G.params = 0.3, nan", "key 'noise.G.params'"),
    ("noise.G.params = 0.3, 0.2",
     "key 'noise.G.params': expected comma-separated reals, none for G variant 'none'"),
    ("noise.G.variant = additive", "key 'noise.G.params': expected comma-separated reals, "
     "none for G variant 'none' and at least one for the others"),
    ("run.radii = 1, inf", "key 'run.radii'"),
    ("run.radii = -3, 2",
     "key 'run.radii': expected strictly ascending non-negative finite reals, comma-separated, "
     "distinct to 6 significant digits, got (-3.0, 2.0)"),
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
                      engine=engine_info([1], constants.grid_shape))
    body = json.loads(man.to_json())
    assert body["mode"] == "simulate"
    assert body["engine"]["threads"] == 1
    assert body["config"]["b_profiles"] == ["0.2", "0.1/(1+lambda)"]
    assert body["config"]["radii"] == [1.0, 2.0, 4.0]
    assert body["constants"]["beta_condition_ok"] is True
    assert len(body["config_checksum"]) == 64
    # strict JSON or nothing: a non-finite constant is an error, not an Infinity token
    man.constants = dataclasses.replace(constants, damping_term_lp=math.inf)
    with pytest.raises(ValueError, match="JSON compliant"):
        man.to_json()


# one value off each key's rule, as written in a config
OFF_RULE = {
    "domain.kind": "circle", "domain.modes_per_axis": "15", "domain.oversample": "1",
    "galerkin.level": "1023", "alpha": "0.5", "dt": "0.0", "t_final": "0.0105",
    "beta": "-1000000.0", "scheme": "rk4", "snapshot_stride": "0", "seed": "-1",
    "ensemble.paths": "0", "nonlinearity.enabled": "maybe", "noise.B.count": "-1",
    "noise.B.<m>.profile": "1e200", "noise.G.variant": "cubic", "noise.G.params": "0.3",
    "run.burn_in_fraction": "1.5", "run.radii": "2.0, 1.0", "run.lambda": "nan",
}


@pytest.mark.parametrize("row", CONFIG_KEYS, ids=lambda row: row.key)
def test_every_key_rejects_as_key_rule_and_value(row, tmp_path, capsys):
    key = row.key.replace("<m>", "1")
    before = "noise.B.count = 1\n" if key != row.key else ""
    # an off-rule value, and "?", which fails the parser or the rule of every key:
    # both rejections state the same rule; a B profile meets its rule when the
    # operators are built on the basis spectrum
    for value in (OFF_RULE[row.key], "?"):
        text = f"{before}{key} = {value}\n"
        with pytest.raises(ConfigurationError) as exc:
            build_operators(parse_config(text))
        msg = str(exc.value)
        assert msg.startswith(f"key {key!r}: expected {row.rule}, got "), msg
        assert value in msg.split(", got ", 1)[1], msg

        cfg, out = tmp_path / "run.cfg", tmp_path / value
        cfg.write_text(text)
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {msg}\n" and captured.out == ""
        assert not (out / "run_manifest.json").exists()


def test_the_key_table_sets_every_config_field():
    assert {row.field for row in CONFIG_KEYS} == {f.name for f in dataclasses.fields(SdeConfig)}
    assert len({row.key for row in CONFIG_KEYS}) == len(CONFIG_KEYS)
    # b_profiles is the one field set by two keys
    assert [row.key for row in CONFIG_KEYS if row.field == "b_profiles"] == \
        ["noise.B.count", "noise.B.<m>.profile"]


def test_the_readme_lists_every_key_with_its_rule():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Configuration keys\n", 1)[1].split("\n## ", 1)[0]
    cells = [[c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
             for line in section.splitlines() if line.startswith("| `")]
    assert [c[0] for c in cells] == [f"`{row.key}`" for row in CONFIG_KEYS]
    for c, row in zip(cells, CONFIG_KEYS):
        assert f"`{row.rule}`" in c[2], row.key
