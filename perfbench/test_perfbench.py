"""Tests of the benchmark itself: its output checks reject corrupted results,
and its span arithmetic is right.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import copy
import math
import sys
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import snls
import tracing
import workloads
from workloads import CheckError

ROOT = Path(__file__).resolve().parent.parent


def _cfg(workload, **changes):
    text = workloads.WORKLOADS[workload].config_text(3, ROOT)
    return text, replace(snls.parse_config(text), **changes)


# ---------------------------------------------------------------------------
# span arithmetic

def test_self_times_on_a_hand_built_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 2.0, 3.0, 1),      # grandchild: covers a, not root
        ("a", 5.0, 6.0, 0),
        ("c", 5.5, 7.0, 0),      # overlaps the second a: the union [5, 7] counts once
        ("d", 9.0, 12.0, 0),     # clipped to the parent's end
    ]
    got = tracing.self_times(spans)
    assert got["root"][0] == 1 and got["root"][1] == pytest.approx(10.0 - 3.0 - 2.0 - 1.0)
    assert got["a"][0] == 2 and got["a"][1] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got["b"] == (1, pytest.approx(1.0))
    assert got["c"] == (1, pytest.approx(1.5))
    assert got["d"] == (1, pytest.approx(3.0))


def test_tracer_wraps_by_lookup_name_and_skips_absent_layers():
    mod = types.ModuleType("perfbench_fake_engine")
    exec("def inner(x):\n    return x + 1\n"
         "def outer(x):\n    return TABLE['k'](inner(x))\n"
         "TABLE = {'k': lambda y: 2 * y}\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    try:
        tr = tracing.Tracer("t0")
        tr.install((
            ("fake.outer", mod.__name__, "", "outer", None),
            ("fake.inner", mod.__name__, "", "inner", None),
            ("fake.table", mod.__name__, "TABLE", "*", None),
            ("fake.gone", mod.__name__, "", "deleted_later", None),
            ("fake.nomodule", "perfbench_no_such_module", "", "f", None),
        ))
        assert mod.outer(1) == 4
        tr.uninstall()
        assert mod.outer(1) == 4 and not hasattr(mod.outer, "__wrapped__")
    finally:
        del sys.modules[mod.__name__]
    assert [s[0] for s in tr.spans] == ["fake.outer", "fake.inner", "fake.table"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    assert tr.absent == [f"{mod.__name__}.deleted_later", "perfbench_no_such_module.f"]
    per = tracing.self_times(tr.spans)
    outer = tr.spans[0]
    total = sum(s for _, s in per.values())
    assert total == pytest.approx(outer[2] - outer[1], abs=1e-12)


# ---------------------------------------------------------------------------
# output checks

def test_torus1d_check_rejects_mean_mass_scaled_by_1_01():
    _, cfg = _cfg("ensemble_torus1d", paths=256)
    wl = workloads.WORKLOADS["ensemble_torus1d"]
    ops = snls.build_operators(cfg)
    initial = wl.initial(snls, cfg, ops)
    rep = snls.simulate_ensemble(cfg, initial)
    wl.check(rep, cfg, initial, "", None)

    bad = copy.deepcopy(rep)
    bad.mean["mass"] = bad.mean["mass"] * 1.01
    with pytest.raises(CheckError, match="t=0"):
        wl.check(bad, cfg, initial, "", None)
    rate = float(np.sum(np.square(cfg.g_params))) - 2.0 * cfg.beta
    off_law = copy.deepcopy(rep)
    off_law.mean["mass"][1:] *= 1.0 + 10.0 * off_law.stderr["mass"][1:] / off_law.mean["mass"][1:]
    with pytest.raises(CheckError, match="standard errors from the law"):
        workloads.check_mean_mass_law(off_law, rate)


def test_dirichlet2d_check_rejects_one_nan_path():
    _, cfg = _cfg("ensemble_dirichlet2d", paths=8, t_final=0.01)
    wl = workloads.WORKLOADS["ensemble_dirichlet2d"]
    initial = wl.initial(snls, cfg, snls.build_operators(cfg))
    rep = snls.simulate_ensemble(cfg, initial)
    wl.check(rep, cfg, initial, "", None)

    # a NaN in one path turns every moment it enters into NaN
    bad = copy.deepcopy(rep)
    for kind in (bad.mean, bad.var, bad.stderr):
        kind["energy"][-1] = math.nan
    with pytest.raises(CheckError, match="non-finite"):
        wl.check(bad, cfg, initial, "", None)
    drift = copy.deepcopy(rep)
    drift.mean["residual"][-1] += 10.0 * drift.stderr["residual"][-1]
    with pytest.raises(CheckError, match="budget residual"):
        wl.check(drift, cfg, initial, "", None)


def _stepper_with(monkeypatch, **changes):
    """Run every stepper with some config fields changed, as a broken engine would."""
    for scheme, step in list(snls.dynamics._STEPPERS.items()):
        monkeypatch.setitem(snls.dynamics._STEPPERS, scheme,
                            lambda u, dW, dWt, cfg, ops, step=step:
                            step(u, dW, dWt, replace(cfg, **changes), ops))


def _mask_lost(monkeypatch):
    build = snls.dynamics.build_operators

    def unmasked(cfg, basis=None):
        ops = build(cfg, basis)
        return replace(ops, maskf=np.ones_like(ops.maskf))
    monkeypatch.setattr(snls.dynamics, "build_operators", unmasked)


def _f_pointwise_with(monkeypatch, fn):
    f = snls.dynamics.f_pointwise
    monkeypatch.setattr(snls.dynamics, "f_pointwise", lambda v, alpha: fn(f, v, alpha))


NONLINEAR_MUTATIONS = {
    "nonlinearity removed": lambda mp: _stepper_with(mp, nonlinearity_enabled=False),
    "alpha 2 in the stepper": lambda mp: _stepper_with(mp, alpha=2.0),
    "f_pointwise zeroed": lambda mp: _f_pointwise_with(mp, lambda f, v, a: 0.0 * v),
    "f_pointwise alpha 2": lambda mp: _f_pointwise_with(mp, lambda f, v, a: f(v, 2.0)),
    "mask lost": _mask_lost,
}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_nonlinear_reference_check_accepts_the_engine(workload):
    _, cfg = _cfg(workload)
    workloads.check_nonlinear_reference(snls, cfg)


@pytest.mark.parametrize("workload, mutation", [
    ("ensemble_torus1d", "nonlinearity removed"),
    ("ensemble_torus1d", "f_pointwise zeroed"),
    ("ensemble_torus1d", "f_pointwise alpha 2"),
    ("ensemble_dirichlet2d", "nonlinearity removed"),
    ("ensemble_dirichlet2d", "alpha 2 in the stepper"),
    ("ensemble_dirichlet2d", "mask lost"),
    ("invariant_cli", "nonlinearity removed"),
    ("invariant_cli", "mask lost"),
])
def test_nonlinear_reference_check_rejects_a_broken_nonlinearity(workload, mutation,
                                                                 monkeypatch):
    _, cfg = _cfg(workload)
    NONLINEAR_MUTATIONS[mutation](monkeypatch)
    with pytest.raises(CheckError, match="noise-free"):
        workloads.check_nonlinear_reference(snls, cfg)


@pytest.fixture(scope="module")
def fingerprint(tmp_path_factory):
    text, _ = _cfg("invariant_cli")
    text = text.replace("t_final = 15", "t_final = 2")
    out = tmp_path_factory.mktemp("invariant")
    (out / "run.cfg").write_text(text)
    import snls.cli
    assert snls.cli.main(["invariant", "--config", str(out / "run.cfg"),
                          "--out", str(out)]) == 0
    return text, snls.parse_config(text), out / "fingerprint.csv"


def _check_csv(path, text, cfg, tol=1.0):
    window = (cfg.burn_in_fraction * cfg.t_final, cfg.t_final)
    workloads.check_fingerprint_csv(path, text, cfg.radii, window, tol)


def test_fingerprint_check_rejects_truncated_csv(fingerprint, tmp_path):
    text, cfg, path = fingerprint
    _check_csv(path, text, cfg)
    content = path.read_text()
    cut = tmp_path / "cut.csv"
    for keep in (len(content) // 2, content.rfind("\n", 0, len(content) - 1) + 1,
                 len(content) - 5):
        cut.write_text(content[:keep])
        with pytest.raises(CheckError):
            _check_csv(cut, text, cfg)


def test_fingerprint_check_rejects_bad_values_and_spread(fingerprint, tmp_path):
    text, cfg, path = fingerprint
    lines = path.read_text().splitlines(keepends=True)
    edited = tmp_path / "edited.csv"
    phi, tag, _, window = lines[2].rstrip("\n").split(",")
    for value in ("nan", "1.5", "-0.1"):
        edited.write_text("".join(lines[:2] + [f"{phi},{tag},{value},{window}\n"] + lines[3:]))
        with pytest.raises(CheckError):
            _check_csv(edited, text, cfg)
    with pytest.raises(CheckError, match="config_checksum"):
        _check_csv(path, text + "# edited\n", cfg)
    with pytest.raises(CheckError, match="pairwise_max_diff"):
        _check_csv(path, text, cfg, tol=1e-12)


def test_traced_launch_order_is_balanced():
    import run
    order = [run._traced(i) for i in range(9)]
    assert order == [False, True, False, False, True, True, False, False, True]
