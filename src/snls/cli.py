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
from .spectral import make_basis
from .dynamics import (_ENSEMBLE_CHUNK, ConfigurationError, OBSERVABLE_NAMES, default_initial,
                       default_initial_family, engine_info, simulate, simulate_ensemble)
from .observables import supermartingale_trace
from .ergodicity import invariant_fingerprint, min_mass_1, radius_indicator, tanh_v_norm_sq
from .config import RunManifest, compute_constants, config_checksum, parse_config

_TRAJ_COLUMNS = ("t",) + OBSERVABLE_NAMES
_FAMILY_SIZE = 3    # initial data of the invariant fingerprint, one batch row each


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(path: Path, lines) -> None:
    """Write one output file, a line per item; any OSError is a run failure."""
    try:
        with open(path, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
    except OSError as exc:
        raise RuntimeError(f"cannot write {path}: {exc}") from exc


def _csv(checksum: str, columns: Sequence[str], rows):
    yield f"# config_checksum={checksum}"
    yield ",".join(columns)
    for row in rows:
        yield ",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row)


def _default_config_path() -> Path:
    return Path(__file__).resolve().parent / "default.cfg"


def _build_initial(cfg):
    basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample, cfg.galerkin_level)
    return default_initial(basis, cfg.galerkin_level)


def _run_simulate(cfg, out: Path, checksum: str) -> int:
    rec = simulate(cfg, _build_initial(cfg))
    rows = ((rec.times[i],) + tuple(rec.table[n][i] for n in OBSERVABLE_NAMES)
            for i in range(len(rec.times)))
    _write(out / "trajectory.csv", _csv(checksum, _TRAJ_COLUMNS, rows))
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

    _write(out / "ensemble.csv", _csv(checksum, columns, rows()))
    return 0


def _run_invariant(cfg, out: Path, checksum: str) -> int:
    basis = make_basis(cfg.domain_kind, cfg.modes_per_axis, cfg.oversample, cfg.galerkin_level)
    family = default_initial_family(basis, cfg.galerkin_level, count=_FAMILY_SIZE)
    phis = [min_mass_1, tanh_v_norm_sq] + [radius_indicator(r) for r in cfg.radii]
    rep = invariant_fingerprint(cfg, family, phis=phis)
    window = f"{rep.window[0]:.17g}:{rep.window[1]:.17g}"
    rows = []
    for i, phi in enumerate(rep.phis):
        for j, tag in enumerate(rep.tags):
            rows.append((phi, tag, rep.values[i, j], window))
        rows.append((phi, "pairwise_max_diff", rep.pairwise_max[i], window))
        rows.append((phi, "ks_max", rep.ks_max[i], window))
    _write(out / "fingerprint.csv",
           _csv(checksum, ("phi", "initial_tag", "value", "window"), rows))
    return 0


def _run_verify(cfg, out: Path, checksum: str) -> int:
    from .verify import run_verify
    records, n_failed = run_verify()
    head = {"config_checksum": checksum, "tool_version": __version__}
    _write(out / "verify.json-lines",
           [json.dumps(rec, allow_nan=False) for rec in [head] + records])
    for rec in records:
        measured = "none" if rec["measured"] is None else f"{rec['measured']:.3e}"
        print(f"[{rec['status']}] {rec['name']}: measured {measured} "
              f"tolerance {rec['tolerance']:.3e}")
    print(f"{len(records)} checks, {n_failed} failed")
    return 0 if n_failed == 0 else 1


_MODES = {"simulate": _run_simulate, "ensemble": _run_ensemble,
          "invariant": _run_invariant, "verify": _run_verify}


def _run(args) -> int:
    """One CLI run; an input it rejects raises ConfigurationError, a failed run RuntimeError."""
    config_path = args.config
    if config_path is None:
        if args.mode != "verify":
            raise ConfigurationError("--config is required for this mode")
        config_path = _default_config_path()
    try:
        data = config_path.read_bytes()
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read config {config_path}: {exc}") from exc
    cfg = parse_config(text)
    # replace() re-runs SdeConfig's validation on the overridden values
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.paths is not None:
        cfg = replace(cfg, paths=args.paths)
    constants = compute_constants(cfg)
    checksum = config_checksum(data)
    out = args.out if args.out is not None else Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"cannot create output directory {out}: {exc}") from exc

    # rows of the engine batches each mode runs: an ensemble's full chunks and
    # its last one; verify runs batches of its own
    batches = {"simulate": (1,), "invariant": (_FAMILY_SIZE,),
               "ensemble": (min(cfg.paths, _ENSEMBLE_CHUNK),
                            cfg.paths % _ENSEMBLE_CHUNK or _ENSEMBLE_CHUNK)}.get(args.mode, ())
    manifest = RunManifest(mode=args.mode, out_dir=str(out), tool_version=__version__,
                           config_checksum=checksum, cfg=cfg, constants=constants,
                           engine=engine_info(batches, constants.grid_shape))
    _write(out / "run_manifest.json", [manifest.to_json()])
    for line in constants.lines():
        print(line)
    return _MODES[args.mode](cfg, out, checksum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # the package logs only warnings; without a handler they reach stderr bare
    logging.basicConfig(format="warning: %(name)s: %(message)s")
    parser = argparse.ArgumentParser(
        prog="snls",
        description="Spectral Galerkin simulator for the damped stochastic "
                    "nonlinear Schrodinger equation.")
    parser.add_argument("mode", choices=_MODES)
    parser.add_argument("--config", type=Path, default=None,
                        help="flat key=value config file (verify defaults to the "
                             "packaged default.cfg)")
    parser.add_argument("--out", type=Path, default=None,
                        help="output directory (created if missing)")
    parser.add_argument("--seed", type=int, default=None, help="override seed")
    parser.add_argument("--paths", type=int, default=None,
                        help="override ensemble.paths")
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except (ConfigurationError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1


if __name__ == "__main__":
    sys.exit(main())
