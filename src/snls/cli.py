"""Command-line harness: simulate / ensemble / invariant / verify.

Every output CSV starts with a `# config_checksum=<sha256>` header line so a
result can always be traced back to the exact configuration bytes.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .spectral import BasisError, make_basis
from .operators import OperatorError
from .dynamics import (
    BlowUpError,
    ConfigurationError,
    OBSERVABLE_NAMES,
    default_initial,
    default_initial_family,
    simulate,
    simulate_ensemble,
)
from .observables import supermartingale_trace
from .ergodicity import invariant_fingerprint
from .config import (
    RunManifest,
    compute_constants,
    config_checksum,
    parse_config,
)

MODES = ("simulate", "ensemble", "invariant", "verify")

_TRAJ_COLUMNS = ("t",) + OBSERVABLE_NAMES


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_csv(path: Path, checksum: str, columns: Sequence[str], rows) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(f"# config_checksum={checksum}\n")
            fh.write(",".join(columns) + "\n")
            for row in rows:
                fh.write(",".join(cell if isinstance(cell, str) else _fmt(cell)
                                  for cell in row) + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _default_config_path() -> Path:
    return Path(__file__).resolve().parent / "default.cfg"


def _build_initial(cfg):
    basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    return default_initial(basis, cfg.galerkin_level)


def _run_simulate(cfg, out: Path, checksum: str) -> int:
    rec = simulate(cfg, _build_initial(cfg))
    rows = ((rec.times[i],) + tuple(rec.table[n][i] for n in OBSERVABLE_NAMES)
            for i in range(len(rec.times)))
    _write_csv(out / "trajectory.csv", checksum, _TRAJ_COLUMNS, rows)
    return 0

def _run_ensemble(cfg, out: Path, checksum: str) -> int:
    rep = simulate_ensemble(cfg, _build_initial(cfg))
    names = list(OBSERVABLE_NAMES) + ["residual"]
    columns = ["t"]
    for n in names:
        columns += [f"{n}_mean", f"{n}_var", f"{n}_stderr"]
    smg = None
    if cfg.smg_lambda is not None:
        smg = supermartingale_trace(rep, cfg.smg_lambda)
        columns += ["smg_mean", "smg_var", "smg_stderr"]

    def rows():
        for i in range(len(rep.times)):
            row: List[float] = [rep.times[i]]
            for n in names:
                row += [rep.mean[n][i], rep.var[n][i], rep.stderr[n][i]]
            if smg is not None:
                s = np.exp(cfg.smg_lambda * rep.times[i])
                row += [smg.value[i], s ** 2 * rep.var["mass"][i], smg.stderr[i]]
            yield row

    _write_csv(out / "ensemble.csv", checksum, columns, rows())
    return 0


def _run_invariant(cfg, out: Path, checksum: str) -> int:
    basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample)
    family = default_initial_family(basis, cfg.galerkin_level, count=3)
    phis = ["min_mass_1", "tanh_v_norm_sq"] + [f"v_gt_{r:g}" for r in cfg.radii]
    rep = invariant_fingerprint(cfg, family, phi_names=phis)
    window = f"{rep.window[0]:.17g}:{rep.window[1]:.17g}"
    rows = []
    for i, phi in enumerate(rep.phis):
        for j, tag in enumerate(rep.tags):
            rows.append((phi, tag, rep.values[i, j], window))
        rows.append((phi, "pairwise_max_diff", rep.pairwise_max[i], window))
        rows.append((phi, "ks_max", rep.ks_max[i], window))
    _write_csv(out / "fingerprint.csv", checksum, ("phi", "initial_tag", "value", "window"),
               rows)
    return 0


def _run_verify(cfg, out: Path, checksum: str) -> int:
    from .verify import run_verify
    records, n_failed = run_verify()
    path = out / "verify.json-lines"
    try:
        with open(path, "w") as fh:
            fh.write(json.dumps({"config_checksum": checksum,
                                 "tool_version": __version__}) + "\n")
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return 1
    for rec in records:
        print(f"[{rec['status']}] {rec['name']}: measured {rec['measured']:.3e} "
              f"tolerance {rec['tolerance']:.3e}")
    print(f"{len(records)} checks, {n_failed} failed")
    return 0 if n_failed == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the package logs only warnings; without a handler they reach stderr bare
    logging.basicConfig(format="warning: %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="snls",
        description="Spectral Galerkin simulator for the damped stochastic "
                    "nonlinear Schrodinger equation.")
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file (verify defaults to the "
                             "packaged default.cfg)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--paths", type=int, default=None,
                        help="override ensemble.paths")
    args = parser.parse_args(argv)

    config_path = args.config
    if config_path is None:
        if args.mode != "verify":
            print("error: --config is required for this mode", file=sys.stderr)
            return 2
        config_path = _default_config_path()
    out = args.out if args.out is not None else Path(".")

    try:
        text = config_path.read_text()
    except OSError as exc:
        print(f"error: cannot read config {config_path}: {exc}", file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        # replace() re-runs SdeConfig's validation on the overridden values
        if args.seed is not None:
            cfg = replace(cfg, seed=args.seed)
        if args.paths is not None:
            cfg = replace(cfg, paths=args.paths)
        constants = compute_constants(cfg)
    except (ConfigurationError, BasisError, OperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checksum = config_checksum(text)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output directory {out}: {exc}", file=sys.stderr)
        return 2

    manifest = RunManifest(mode=args.mode, out_dir=str(out), tool_version=__version__,
                           config_checksum=checksum, cfg=cfg, constants=constants)
    try:
        (out / "run_manifest.json").write_text(manifest.to_json() + "\n")
    except OSError as exc:
        print(f"error: cannot write manifest in {out}: {exc}", file=sys.stderr)
        return 2

    for line in constants.lines():
        print(line)

    try:
        if args.mode == "simulate":
            return _run_simulate(cfg, out, checksum)
        if args.mode == "ensemble":
            return _run_ensemble(cfg, out, checksum)
        if args.mode == "invariant":
            return _run_invariant(cfg, out, checksum)
        return _run_verify(cfg, out, checksum)
    except BlowUpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, BasisError, OperatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
