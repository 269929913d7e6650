"""The benchmark's workloads: inputs made from a seed, the timed call, and the
checks that its outputs are right.

Each workload turns the benchmark seed into a config text (parsed by the
package like any user config) and initial data, runs one call into snls, and
checks the result against a law the physics fixes.  Every workload also
checks a noise-free path of its equation against an independent reference
(reference.py), because the Monte Carlo laws cannot see the nonlinear term.
The checks allow for round-off and Monte Carlo error but not for wrong
physics, and no check compares against a bit-exact digest: a change of grid
or band sizing may legitimately move results at the 1e-3 relative level.

This module imports nothing outside the standard library at load time, so a
launch can time `import snls` (numpy and scipy included) on its own.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import re
from pathlib import Path

# Monte Carlo band, in standard errors, applied at every snapshot.  With 3 to
# 5 correlated snapshots a correct run leaves it with probability below 1e-3.
K_STDERR = 4.0
# The t=0 ensemble mean mass is a sum of squares of the given initial data.
ANCHOR_RTOL = 1e-9
# Largest pairwise difference of the time-averaged fingerprints across the
# three initial data.  The default config has C1 = 0 and beta = 1 > sum gamma^2
# / 2, so every fingerprint collapses onto its value at the zero field; runs
# measure differences of a few 1e-3, a run with no damping is near 0.4.
FINGERPRINT_TOL = 0.02
# The nonlinear-term check: one noise-free path from a datum with mean
# |u|^2 = REF_DENSITY, REF_STEPS steps of the workload's scheme, against
# perfbench/reference.py.  A correct run agrees to 1e-9 or better; dropping F,
# running it with alpha = 2, or letting it leak out of the band (no mask)
# moves the final state by 4e-2 to 1.4 relative.
REF_DENSITY = 5.0
REF_STEPS = 100
REF_RTOL = 1e-2


class CheckError(AssertionError):
    """An output failed its correctness check."""


def _finite(values) -> bool:
    import numpy as np
    return bool(np.all(np.isfinite(np.asarray(values, dtype=float))))


def check_report_finite(report) -> None:
    """Every ensemble moment must be finite; one non-finite path poisons all of them."""
    for kind in ("mean", "var", "stderr"):
        for name, values in getattr(report, kind).items():
            if not _finite(values):
                raise CheckError(f"non-finite {kind}[{name!r}]")
    if not _finite(report.mass_lag1_mean):
        raise CheckError("non-finite mass_lag1_mean")


def check_initial_mass(report, anchor: float) -> None:
    got = float(report.mean["mass"][0])
    if not abs(got - anchor) <= ANCHOR_RTOL * abs(anchor):
        raise CheckError(f"mean mass at t=0 is {got!r}, the initial data give {anchor!r}")


def check_mean_mass_law(report, rate: float, k: float = K_STDERR) -> None:
    """Criterion 2: E[mass(t)] = mean[0] exp(rate t) within k standard errors."""
    import numpy as np
    mean, se = report.mean["mass"], report.stderr["mass"]
    law = mean[0] * np.exp(rate * np.asarray(report.times))
    dev = np.abs(mean[1:] - law[1:])
    bad = np.flatnonzero(~(dev <= k * se[1:]))
    if bad.size:
        j = int(bad[0]) + 1
        raise CheckError(f"mean mass {float(mean[j])!r} at t={report.times[j]:g} is "
                         f"{dev[j - 1] / se[j]:.2f} standard errors from the law "
                         f"{float(law[j])!r}")


def check_budget_residual(report, k: float = K_STDERR) -> None:
    """Mass budget: the mean residual is 0 within k standard errors at every snapshot."""
    import numpy as np
    res, se = report.mean["residual"], report.stderr["residual"]
    bad = np.flatnonzero(~(np.abs(res) <= k * se + 1e-12))
    if bad.size:
        j = int(bad[0])
        raise CheckError(f"mean budget residual {float(res[j])!r} at t={report.times[j]:g} "
                         f"exceeds {k:g} standard errors ({float(se[j])!r})")


def check_fingerprint_csv(path: Path, config_text: str, radii, window, tol: float) -> None:
    """fingerprint.csv is complete, finite, in [0, 1], and collapsed across initial data."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CheckError(f"cannot read {path}: {exc}") from None
    checksum = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    if not lines or lines[0] != f"# config_checksum={checksum}":
        raise CheckError("missing or wrong config_checksum header")
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != ["phi", "initial_tag", "value", "window"]:
        raise CheckError("missing or wrong column header")
    phis = ["min_mass_1", "tanh_v_norm_sq"] + [f"v_gt_{r:g}" for r in radii]
    tags = ["init_a", "init_b", "init_c", "pairwise_max_diff", "ks_max"]
    expected = [(phi, tag) for phi in phis for tag in tags]
    body = rows[1:]
    if [tuple(r[:2]) for r in body] != expected or any(len(r) != 4 for r in body):
        raise CheckError(f"expected {len(expected)} rows (phi, tag, value, window), "
                         f"got {len(body)}")
    want_window = f"{window[0]:.17g}:{window[1]:.17g}"
    for phi, tag, value, win in body:
        try:
            x = float(value)
        except ValueError:
            raise CheckError(f"{phi}/{tag}: value {value!r} is not a number") from None
        if not (math.isfinite(x) and 0.0 <= x <= 1.0):
            raise CheckError(f"{phi}/{tag}: value {x!r} outside [0, 1]")
        if win != want_window:
            raise CheckError(f"{phi}/{tag}: window {win!r}, expected {want_window!r}")
        if tag == "pairwise_max_diff" and x > tol:
            raise CheckError(f"{phi}: pairwise_max_diff {x!r} exceeds {tol:g}")


def check_nonlinear_reference(snls, cfg) -> None:
    """A noise-free path of the workload's equation matches the independent reference.

    Compares the final state mode by mode, and the energy at the last
    snapshot, each within REF_RTOL relative.  This is the check that sees F.
    """
    import numpy as np
    import reference
    det = dataclasses.replace(cfg, b_profiles=(), g_variant="none", g_params=(), paths=1,
                              nonlinearity_enabled=True, t_final=REF_STEPS * cfg.dt,
                              snapshot_stride=REF_STEPS)
    ref = reference.Reference(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample,
                              cfg.galerkin_level)
    c0 = ref.datum(REF_DENSITY)
    basis = snls.make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    start = ref.as_dict(c0)
    u0 = snls.SpectralField(np.array([start.get(m, 0.0) for m in basis.mode_index_set]), basis)
    try:
        rec = snls.simulate(det, u0)
    except snls.BlowUpError as exc:
        raise CheckError(f"noise-free reference path blew up: {exc}") from None
    c = ref.integrate(c0, cfg.scheme, cfg.alpha, cfg.beta, cfg.dt, REF_STEPS)
    want = ref.as_dict(c)
    got = dict(zip(basis.mode_index_set, rec.final_state.coeffs))
    diff = sum(abs(got.get(m, 0.0) - want.get(m, 0.0)) ** 2 for m in set(want) | set(got))
    err = math.sqrt(diff / sum(abs(v) ** 2 for v in want.values()))
    if not err <= REF_RTOL:
        raise CheckError(f"noise-free final state is {err:.3g} relative from the reference")
    e_ref, e_got = ref.energy(c, cfg.alpha), float(rec.table["energy"][-1])
    if not abs(e_got - e_ref) <= REF_RTOL * abs(e_ref):
        raise CheckError(f"noise-free final energy {e_got!r}, the reference gives {e_ref!r}")


# ---------------------------------------------------------------------------
# workloads

class _Ensemble:
    """simulate_ensemble on a fixed config; subclasses give the config, initial data and check."""

    config_lines = ""

    def config_text(self, seed: int, root: Path) -> str:
        return self.config_lines.strip() + f"\nseed = {int(seed)}\n"

    def run(self, snls, cfg, initial, config_path, out_dir):
        return snls.dynamics.simulate_ensemble(cfg, initial)

    def path_steps(self, cfg) -> int:
        return cfg.paths * cfg.n_steps

    def check(self, report, cfg, initial, config_text, out_dir) -> None:
        check_report_finite(report)
        if report.n_paths != cfg.paths:
            raise CheckError(f"{report.n_paths} paths reported, {cfg.paths} asked")


class EnsembleTorus1d(_Ensemble):
    """Criterion 2 at P=2048: simulate_ensemble under linear state noise."""

    name = "ensemble_torus1d"
    config_lines = """
domain.kind = torus1d
domain.modes_per_axis = 32
domain.oversample = 2
galerkin.level = 9
alpha = 3
beta = 1
scheme = ito_exp_em
dt = 1e-3
t_final = 0.3
snapshot_stride = 100
ensemble.paths = 2048
nonlinearity.enabled = true
noise.G.variant = linear_diagonal
noise.G.params = 0.5, 0.5
"""

    def initial(self, snls, cfg, ops):
        base = snls.default_initial(ops.basis, cfg.galerkin_level)
        return snls.scaled_initial_factory(base, seed=cfg.seed)

    def check(self, report, cfg, initial, config_text, out_dir) -> None:
        import numpy as np
        super().check(report, cfg, initial, config_text, out_dir)
        anchor = float(np.mean([np.sum(np.abs(initial(p).coeffs) ** 2)
                                for p in range(cfg.paths)]))
        check_initial_mass(report, anchor)
        rate = float(np.sum(np.square(cfg.g_params))) - 2.0 * cfg.beta
        check_mean_mass_law(report, rate)


class EnsembleDirichlet2d(_Ensemble):
    """Separable 2D DST path with Nemytskii state noise under strat_split."""

    name = "ensemble_dirichlet2d"
    config_lines = """
domain.kind = dirichlet2d
domain.modes_per_axis = 32
domain.oversample = 2
galerkin.level = 8
alpha = 3
beta = 1
scheme = strat_split
dt = 1e-3
t_final = 0.04
snapshot_stride = 10
ensemble.paths = 64
nonlinearity.enabled = true
noise.B.count = 2
noise.B.1.profile = 0.2
noise.B.2.profile = 0.1/(1+lambda)
noise.G.variant = bounded_nemytskii
noise.G.params = 0.3, 0.2
"""

    def initial(self, snls, cfg, ops):
        return snls.default_initial(ops.basis, cfg.galerkin_level)

    def check(self, report, cfg, initial, config_text, out_dir) -> None:
        import numpy as np
        super().check(report, cfg, initial, config_text, out_dir)
        check_initial_mass(report, float(np.sum(np.abs(initial.coeffs) ** 2)))
        check_budget_residual(report)


class InvariantCli:
    """`snls invariant` on the shipped default.cfg with a longer horizon."""

    name = "invariant_cli"
    t_final = 15.0
    n_initial = 3          # the CLI's fingerprint family size

    def config_text(self, seed: int, root: Path) -> str:
        text = (root / "src" / "snls" / "default.cfg").read_text()
        for key, value in (("t_final", f"{self.t_final:g}"), ("seed", str(int(seed)))):
            text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
            if n != 1:
                raise ValueError(f"default.cfg has {n} '{key}' lines, expected 1")
        return text

    def initial(self, snls, cfg, ops):
        return None        # snls invariant builds its own initial family

    def run(self, snls, cfg, initial, config_path, out_dir):
        return snls.cli.main(["invariant", "--config", str(config_path), "--out", str(out_dir)])

    def path_steps(self, cfg) -> int:
        return self.n_initial * cfg.n_steps

    def check(self, exit_code, cfg, initial, config_text, out_dir) -> None:
        if exit_code != 0:
            raise CheckError(f"snls invariant exited with {exit_code}")
        window = (cfg.burn_in_fraction * cfg.t_final, cfg.t_final)
        check_fingerprint_csv(Path(out_dir) / "fingerprint.csv", config_text,
                              cfg.radii, window, FINGERPRINT_TOL)


WORKLOADS = {w.name: w for w in (EnsembleTorus1d(), EnsembleDirichlet2d(), InvariantCli())}
