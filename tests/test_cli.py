"""End-to-end CLI runs: output contracts, overrides, exit codes."""

import json
import subprocess
import sys

import pytest

from snls.cli import main
from snls.config import config_checksum

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


@pytest.mark.parametrize("override", [["--seed", "-1"], ["--paths", "0"]])
def test_invalid_overrides_exit_2_without_a_manifest(tmp_path, capsys, override):
    cfg = _write_cfg(tmp_path, BASE_CFG)
    out = tmp_path / "o"
    rc = main(["ensemble", "--config", str(cfg), "--out", str(out)] + override)
    captured = capsys.readouterr()
    assert rc == 2
    assert "error" in captured.err and captured.out == ""
    assert not (out / "run_manifest.json").exists()


def test_blow_up_exits_1(tmp_path, capsys):
    text = BASE_CFG.replace("beta = 1.0", "beta = -30") \
                   .replace("scheme = strat_split", "scheme = ito_exp_em") \
                   .replace("dt = 1e-3", "dt = 1e-2") \
                   .replace("t_final = 0.02", "t_final = 2")
    cfg = _write_cfg(tmp_path, text)
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "blow-up" in capsys.readouterr().err


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
    proc = subprocess.run(
        [sys.executable, "-m", "snls.cli", "verify", "--out", str(tmp_path / "v")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert ("warning: snls.dynamics: initial data has support outside the level-2 band; "
            "projecting") in proc.stderr.splitlines()
