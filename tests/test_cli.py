"""End-to-end CLI runs: output contracts, overrides, exit codes."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from snls.cli import main
from snls.config import config_checksum
from snls.dynamics import CONFIG_KEYS, engine_info, engine_threads
from snls.operators import B_PROFILE_RULE, G_PARAMS_RULE
from snls.verify import CHECKS

BASE_CFG = """
domain.kind = torus1d
domain.modes_per_axis = 16
galerkin.level = 4
alpha = 3
beta = 1.0
scheme = strat_split
dt = 1e-3
t_final = 0.02
snapshot_stride = 5
seed = 7
ensemble.paths = 2
nonlinearity.enabled = true
noise.B.count = 1
noise.B.1.profile = 0.2
noise.G.variant = linear_diagonal
noise.G.params = 0.3
run.radii = 1, 2
run.lambda = 0.5
"""


def _write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_checksum=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_simulate_writes_the_trajectory_contract(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0

    checksum_line, header, rows = _read_csv(out / "trajectory.csv")
    assert checksum_line == f"# config_checksum={config_checksum(BASE_CFG)}"
    assert header == ["t", "mass", "energy", "v_norm_sq", "z",
                      "l_alpha1_norm", "hs_norm_sq"]
    assert len(rows) == 5                      # steps 0,5,10,15,20
    times = [float(r[0]) for r in rows]
    assert times == pytest.approx([0.0, 0.005, 0.01, 0.015, 0.02])
    for r in rows:
        assert all(abs(float(c)) < 1e6 for c in r)

    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["mode"] == "simulate"
    assert manifest["config"]["seed"] == 7
    assert manifest["config_checksum"] == config_checksum(BASE_CFG)
    assert "damping_term_v" in manifest["constants"]
    assert set(manifest["versions"]) == {"python", "numpy", "scipy"}
    assert manifest["versions"]["python"] == "%d.%d.%d" % sys.version_info[:3]
    # the level-4 band |k| <= 5 of 16 torus modes, on 4 K + 1 nodes
    assert manifest["constants"]["grid_shape"] == [21]
    assert manifest["constants"]["band_modes"] == 11
    assert manifest["constants"]["alias_free"] is True
    # one row runs serial; the count comes from the function the engine calls
    assert manifest["engine"] == engine_info([1], (21,))
    assert manifest["engine"]["threads"] == 1
    assert manifest["engine"]["cpu_affinity"] == len(os.sched_getaffinity(0))


def test_ensemble_builds_the_basis_once_per_consumer(tmp_path, monkeypatch):
    import snls.spectral
    real = snls.spectral.make_basis
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "snls" and getattr(module, "make_basis", None) is real:
            monkeypatch.setattr(module, "make_basis", counted)
    cfg = _write_cfg(tmp_path, BASE_CFG)
    assert main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # the constants echo, the initial datum and the driver; the supermartingale
    # trace reads G from the ensemble report
    assert len(calls) == 3


def test_simulate_zero_horizon_has_one_row(tmp_path):
    text = BASE_CFG.replace("t_final = 0.02", "t_final = 0")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    _, _, rows = _read_csv(out / "trajectory.csv")
    assert len(rows) == 1 and float(rows[0][0]) == 0.0


def test_simulate_reruns_are_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "trajectory.csv").read_bytes() == (out2 / "trajectory.csv").read_bytes()


def test_seed_override_changes_the_noise(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out1),
                 "--seed", "7"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                 "--seed", "8"]) == 0
    a = (out1 / "trajectory.csv").read_text().splitlines()
    b = (out2 / "trajectory.csv").read_text().splitlines()
    assert a[:2] == b[:2] and a != b
    man = json.loads((out2 / "run_manifest.json").read_text())
    assert man["config"]["seed"] == 8


def test_ensemble_columns_and_singleton_equality(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out_e, out_s = tmp_path / "e", tmp_path / "s"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out_e),
                 "--paths", "1"]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_s)]) == 0

    _, header, rows = _read_csv(out_e / "ensemble.csv")
    names = ["mass", "energy", "v_norm_sq", "z", "l_alpha1_norm",
             "hs_norm_sq", "residual"]
    expect = ["t"]
    for n in names:
        expect += [f"{n}_mean", f"{n}_var", f"{n}_stderr"]
    expect += ["smg_mean", "smg_var", "smg_stderr"]     # run.lambda is set
    assert header == expect

    _, _, srows = _read_csv(out_s / "trajectory.csv")
    i_mass = header.index("mass_mean")
    assert [r[i_mass] for r in rows] == [r[1] for r in srows]   # same digits
    i_var = header.index("mass_var")
    assert all(float(r[i_var]) == 0.0 for r in rows)
    man = json.loads((out_e / "run_manifest.json").read_text())
    assert man["config"]["paths"] == 1


@pytest.mark.parametrize("paths", [2049, 4096])
def test_the_manifest_names_a_thread_count_only_when_every_chunk_runs_on_it(tmp_path, paths):
    # an ensemble runs its paths in chunks of 2048: 2049 paths end in a chunk
    # of one path, which runs serial, so no one count describes the run
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(cfg), "--out", str(out),
                 "--paths", str(paths)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    counts = {engine_threads(2048, (21,)), engine_threads(paths - 2048, (21,))}
    assert manifest["engine"]["threads"] == (counts.pop() if len(counts) == 1 else None)
    assert manifest["engine"] == engine_info([2048, paths - 2048], (21,))


def test_ensemble_smg_precondition_failure_exits_2(tmp_path):
    # run.lambda = 0.5 needs lambda < 2 beta - C1t^2 = 0.2 - 0.09 at beta = 0.1
    text = BASE_CFG.replace("beta = 1.0", "beta = 0.1")
    cfg = _write_cfg(tmp_path, text)
    rc = main(["ensemble", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2


def test_invariant_writes_the_fingerprint_grid(tmp_path):
    text = BASE_CFG.replace("t_final = 0.02", "t_final = 0.1")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "out"
    assert main(["invariant", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = _read_csv(out / "fingerprint.csv")
    assert header == ["phi", "initial_tag", "value", "window"]
    phis = ["min_mass_1", "tanh_v_norm_sq", "v_gt_1", "v_gt_2"]
    assert len(rows) == len(phis) * 5          # 3 tags + 2 summary rows each
    for phi in phis:
        sub = [r for r in rows if r[0] == phi]
        assert [r[1] for r in sub] == ["init_a", "init_b", "init_c",
                                       "pairwise_max_diff", "ks_max"]
        for r in sub:
            assert 0.0 <= float(r[2]) <= 1.0
            assert ":" in r[3]


def test_verify_runs_the_battery_with_the_packaged_default(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path / "v")])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "0 failed" in stdout

    lines = (tmp_path / "v" / "verify.json-lines").read_text().splitlines()
    head = json.loads(lines[0])
    assert set(head) == {"config_checksum", "tool_version"}
    checks = [json.loads(line) for line in lines[1:]]
    assert len(checks) >= 25
    for c in checks:
        assert set(c) == {"name", "paper_ref", "status", "measured", "tolerance"}
        assert c["status"] == "pass"


def test_config_errors_exit_2_with_stderr(tmp_path, capsys):
    bad = _write_cfg(tmp_path, "alpha = 0.5\n")
    rc = main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err

    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err

    rc = main(["simulate", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "--config is required" in capsys.readouterr().err

    odd = _write_cfg(tmp_path, "domain.modes_per_axis = 15\n", name="odd.cfg")
    rc = main(["simulate", "--config", str(odd), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_non_finite_and_off_rule_values_exit_2_without_a_traceback(tmp_path, capsys):
    cases = ["dt = nan", "t_final = inf", "t_final = 1e300\ndt = 1e-10", "alpha = inf",
             "beta = nan", "noise.G.variant = linear_diagonal\nnoise.G.params = nan",
             "domain.modes_per_axis = 1", "domain.modes_per_axis = 15",
             "beta = -1e6",           # exp(-beta dt) overflows at the default dt = 1e-3
             "noise.B.count = 1\nnoise.B.1.profile = 1e308*10",
             "noise.B.count = 1\nnoise.B.1.profile = exp(1000)",
             # 2^(n+1) overflows a double above level 1022
             "galerkin.level = 1023", "galerkin.level = 1030", "galerkin.level = 2000",
             # finite amplitudes whose squared noise constants overflow
             "noise.B.count = 1\nnoise.B.1.profile = 1e200",
             "noise.G.variant = additive\nnoise.G.params = 1e200",
             "noise.G.variant = linear_diagonal\nnoise.G.params = 1e200",
             "noise.G.variant = bounded_nemytskii\nnoise.G.params = 1e200",
             b"# not UTF-8: \xff\xfe\nalpha = 3"]
    for text in cases:
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(text + b"\n" if isinstance(text, bytes) else (text + "\n").encode())
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert rc == 2, text
        assert err.startswith("error: ") and err.count("\n") == 1, (text, err)
    assert err.startswith(f"error: cannot read config {cfg}: ")


def test_the_config_checksum_is_the_sha256_of_the_file_bytes(tmp_path):
    # CRLF line endings are bytes of the file too: the checksum is not the LF twin's
    cfg = tmp_path / "crlf.cfg"
    cfg.write_bytes(BASE_CFG.replace("\n", "\r\n").encode())
    out = tmp_path / "o"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    want = hashlib.sha256(cfg.read_bytes()).hexdigest()
    assert want != config_checksum(BASE_CFG)
    assert json.loads((out / "run_manifest.json").read_text())["config_checksum"] == want
    assert _read_csv(out / "trajectory.csv")[0] == f"# config_checksum={want}"


def test_invariant_tests_each_configured_radius_exactly(tmp_path, monkeypatch):
    # a radius parsed back from a 6-digit label would test 0.1234567 against 0.123457^2
    import snls.cli
    handed = []
    real = snls.cli.invariant_fingerprint

    def spy(cfg, family, phis):
        handed.extend(phis)
        return real(cfg, family, phis=phis)

    monkeypatch.setattr(snls.cli, "invariant_fingerprint", spy)
    radii = (0.1234567, 2.0)
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("run.radii = 1, 2", "run.radii = 0.1234567, 2"))
    assert main(["invariant", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert len(handed) == 2 + len(radii)
    for r, phi in zip(radii, handed[2:]):
        assert phi({"v_norm_sq": np.array([np.nextafter(r * r, np.inf)])})[0] == 1.0, r
        assert phi({"v_norm_sq": np.array([r * r])})[0] == 0.0, r


def test_invariant_radii_with_one_label_exit_2_before_the_fingerprint(tmp_path, capsys):
    # both radii print as v_gt_1, so their fingerprint rows could not be told apart
    text = BASE_CFG.replace("run.radii = 1, 2", "run.radii = 1.0000001, 1.0000002")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "o"
    rc = main(["invariant", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    rule = next(row.rule for row in CONFIG_KEYS if row.key == "run.radii")
    assert rc == 2
    assert captured.err == (f"error: key 'run.radii': expected {rule}, "
                            "got (1.0000001, 1.0000002)\n")
    assert captured.out == ""                  # no constants echo
    assert not (out / "run_manifest.json").exists()
    assert not (out / "fingerprint.csv").exists()


def test_horizon_off_the_step_grid_exits_2_before_any_output(tmp_path, capsys):
    text = BASE_CFG.replace("dt = 1e-3", "dt = 3e-4").replace("t_final = 0.02",
                                                              "t_final = 0.1")
    cfg = _write_cfg(tmp_path, text)
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "integer multiple" in captured.err
    assert captured.out == ""                  # no constants echo
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("mode, name", [("simulate", "trajectory.csv"),
                                        ("ensemble", "ensemble.csv"),
                                        ("invariant", "fingerprint.csv")])
def test_an_empty_galerkin_band_exits_2_without_the_modes_output(tmp_path, capsys, mode, name):
    # level 0 holds no dirichlet2d mode (s >= 2 there), so the basis falls back
    # to its floor grid and there is no default initial datum to normalise
    text = (BASE_CFG.replace("torus1d", "dirichlet2d")
            .replace("modes_per_axis = 16", "modes_per_axis = 8")
            .replace("galerkin.level = 4", "galerkin.level = 0"))
    out = tmp_path / "o"
    rc = main([mode, "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == "error: empty Galerkin band for the default initial datum\n"
    assert "band_modes = 0\n" in captured.out and "grid_shape = (8, 8)\n" in captured.out
    assert not (out / name).exists()


def test_an_out_path_naming_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    rc = main(["simulate", "--config", str(_write_cfg(tmp_path, BASE_CFG)), "--out", str(taken)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith(f"error: cannot create output directory {taken}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--paths", "0"]])
def test_invalid_overrides_exit_2_without_a_manifest(tmp_path, capsys, override):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "o"
    rc = main(["ensemble", "--config", str(cfg), "--out", str(out)] + override)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err and captured.out == ""
    assert not (out / "run_manifest.json").exists()


@pytest.mark.parametrize("edits", [
    {"beta = 1.0": "beta = -30", "scheme = strat_split": "scheme = ito_exp_em",
     "dt = 1e-3": "dt = 1e-2", "t_final = 0.02": "t_final = 2"},
    # the next two overflow at step 1, inside the blow-up guard's own V-norm
    {"beta = 1.0": "beta = -700", "dt = 1e-3": "dt = 1", "t_final = 0.02": "t_final = 1"},
    # the largest round B amplitude whose damping terms stay finite doubles
    {"scheme = strat_split": "scheme = ito_exp_em",
     "noise.B.1.profile = 0.2": "noise.B.1.profile = 9e153"},
], ids=["antidamped", "beta_-700", "B_9e153"])
def test_blow_up_exits_1(tmp_path, capsys, edits):
    text = BASE_CFG
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg = _write_cfg(tmp_path, text)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: blow-up guard tripped at step "), err


@pytest.mark.parametrize("edits, key, rule, value", [
    # (alpha + 1)/2 ||B||^2_Lp = 2 x 1e308 overflows, though ||B||^2 = 1e308 does not
    ({"noise.B.1.profile = 0.2": "noise.B.1.profile = 1e154"},
     "noise.B.1.profile", B_PROFILE_RULE, "'1e154'"),
    # each profile alone passes; the second takes the running sum past the largest double
    ({"noise.B.count = 1": "noise.B.count = 2",
      "noise.B.1.profile = 0.2": "noise.B.1.profile = 7e153\nnoise.B.2.profile = 7e153"},
     "noise.B.2.profile", B_PROFILE_RULE, "'7e153'"),
    # C1~^2 + C2~^2 = 2 x 1e308 overflows
    ({"noise.G.params = 0.3": "noise.G.params = 1e154"},
     "noise.G.params", G_PARAMS_RULE, "(1e+154,)"),
], ids=["B_1e154", "second_B", "G_1e154"])
def test_a_non_finite_damping_term_exits_2_before_any_output(tmp_path, capsys, edits, key,
                                                             rule, value):
    text = BASE_CFG
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    out = tmp_path / "o"
    rc = main(["simulate", "--config", str(_write_cfg(tmp_path, text)), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: key {key!r}: expected {rule}, got {value}\n"
    assert captured.out == "" and not out.exists()


def test_the_json_outputs_are_strict(tmp_path, capsys, monkeypatch):
    # a check that crashes and one that measures NaN fail and are written as
    # null: no NaN or Infinity token, which strict JSON readers reject
    def crash():
        raise ZeroDivisionError("boom")
    monkeypatch.setattr("snls.verify.CHECKS", [("crash", "ref", crash),
                                                ("nan", "ref", lambda: (math.nan, 1.0)),
                                                ("fine", "ref", lambda: (0.5, 1.0))])
    out = tmp_path / "v"
    assert main(["verify", "--out", str(out)]) == 1
    assert "[fail] crash: measured none tolerance" in capsys.readouterr().out

    def strict(token):
        raise ValueError(f"non-strict JSON token {token}")
    json.loads((out / "run_manifest.json").read_text(), parse_constant=strict)
    lines = (out / "verify.json-lines").read_text().splitlines()
    checks = [json.loads(line, parse_constant=strict) for line in lines[1:]]
    assert [(c["status"], c["measured"]) for c in checks] == [
        ("fail", None), ("fail", None), ("pass", 0.5)]


@pytest.mark.parametrize("mode, name", [("simulate", "trajectory.csv"),
                                        ("simulate", "run_manifest.json"),
                                        ("verify", "verify.json-lines")])
def test_an_output_name_taken_by_a_directory_exits_1(tmp_path, capsys, monkeypatch, mode, name):
    monkeypatch.setattr("snls.verify.run_verify", lambda: ([], 0))   # the battery is not under test
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    assert main([mode, "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out / name}: ")


def test_installed_entry_point_smoke(tmp_path):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "snls.cli", "simulate",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "trajectory.csv").exists()
    assert "damping_term_v" in proc.stdout


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.stats and scipy.integrate cost ~0.8 s of import for three formulas,
    # scipy.fft ~0.3 s; the bare scipy package is loaded for the manifest
    code = ("import sys, snls, snls.cli; "
            "print([m for m in ('scipy.stats', 'scipy.integrate', 'scipy.fft') "
            "if m in sys.modules], 'scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] True"


def test_verify_formats_the_projection_warning(tmp_path):
    # a datum two levels wider than the level-4 band of BASE_CFG is projected with a warning
    code = ("import sys\n"
            "import snls.cli as cli\n"
            "from snls.dynamics import default_initial\n"
            "from snls.spectral import make_basis\n"
            "cli._build_initial = lambda cfg: default_initial(make_basis(\n"
            "    cfg.domain_kind, cfg.modes_per_axis, cfg.oversample), cfg.galerkin_level + 2)\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    cfg = _write_cfg(tmp_path, BASE_CFG)
    proc = subprocess.run(
        [sys.executable, "-c", code, "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        "warning: snls.dynamics: initial data has support outside the level-4 band; projecting"]


def test_a_clean_verify_writes_nothing_to_stderr(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "snls.cli", "verify", "--out", str(tmp_path / "v")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_the_readme_states_the_verify_check_count():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    counts = re.findall(r"(\d+) internal consistency checks|one of its (\d+) checks", readme)
    assert len(counts) == 2
    assert [int(a or b) for a, b in counts] == [len(CHECKS)] * 2
