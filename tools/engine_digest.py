"""Byte-identity digest of the integration engine.

Prints one SHA-256 over what `snls.dynamics.integrate_paths` returns, the
times, the observable tables, the collected states and the final batch,
each hashed by `tobytes()` after its case's and its own name, on this grid:

    6 kinds x 2 schemes x 4 G variants x B off/on
    x {1 row, 6 distinct keys, 6 shared keys, a threaded batch,
       1 row and 5 rows at snapshot stride 1},

plus a second threaded batch on the 2-D kinds, of 404 rows, and on torus1d,
of 1562 rows. The runs take 270 steps at stride 9, so that every run crosses
an RNG block, and the stride-1 runs 300 steps, so that a row slice's
snapshots are observed in groups that cross snapshots and the block. The
threaded batch has 3000 rows on
1-D kinds and 400 on 2-D kinds, which splits it over the engine's row
threads wherever the machine has two cores or more. Split in two, the 404
rows are slices of 202, which the grid-pointwise stages of a step run over in
row chunks of at most 128 KiB of grid values: a slice ends in a shorter
chunk on dirichlet2d (81, 81, 40 rows) and torus2d (5 x 36, then 22), and
in a lone row that joins the chunk before it on neumann2d (67, 67, 68); rows
p and p + 202 share a key. The 1562 rows are slices of 781, which end in
such a lone row on torus1d's 21-point grid (390, 391), and rows p and p + 781
share a key; there the chunks are those of `f_pointwise` in `ito_exp_em` and
of the nonlinear phase in `strat_split`. The digest
also covers the `BlowUpError` fields of a serial and a threaded runaway,
each once tripping in block 0 and once in block 1, and of a threaded
runaway with shared keys and linear-diagonal noise (3000 rows, keys
p % 1000) that trips in block 1, so its replay reads gathered increments
of keys that two row slices share. Two more runaways, each at 6 and at
3000 rows, overflow at step 1 inside the guard's own V-norm: `ito_exp_em`
with a `B` amplitude of 1e154 and `strat_split` with beta = -700, dt = 1.

A change that claims bit-identical trajectories prints the same digest as
its parent. Run it on each tree:

    PYTHONPATH=<tree>/src python3 tools/engine_digest.py

A change that moves round-off in some cases shows which ones and by how
much: dump each tree's arrays, one DIR/<case>.npz per case, then compare
the dumps, which prints per case and array "identical" or the largest
absolute and relative difference, and exits 1 when any array differs:

    PYTHONPATH=<tree>/src python3 tools/engine_digest.py --dump DIR
    PYTHONPATH=src python3 tools/engine_digest.py --compare DIR_A DIR_B

It reads only public API, so it runs against older checkouts too. It takes
about 110 s on a 2-core VM. The digest depends on numpy's kernels and the
CPU, so compare two trees only on the same machine and environment.
"""

import argparse
import hashlib
from dataclasses import replace
from pathlib import Path

import numpy as np

from snls import (BASIS_KINDS, G_VARIANTS, SCHEMES, BlowUpError, SdeConfig, build_operators,
                  default_initial)
from snls.dynamics import integrate_paths

STEPS = 270                  # past the first RNG block of 256 steps
STRIDE_ONE_STEPS = 300       # the stride-1 runs: every step a snapshot
THREADED_ROWS = {1: 3000, 2: 400}
CHUNKED_ROWS = {"dirichlet2d": 404, "neumann2d": 404, "torus2d": 404, "torus1d": 1562}
# ito_exp_em at beta = -30, dt = 1e-2 multiplies the state by 1.3 per step
RUNAWAY = dict(domain_kind="torus1d", modes_per_axis=16, scheme="ito_exp_em", beta=-30.0,
               dt=1e-2, t_final=STEPS * 1e-2, snapshot_stride=9, nonlinearity_enabled=False)


def _batches(kind: str, dim: int):
    """(label, row amplitudes, noise keys) of the batches of a kind of dimension dim."""
    rows = THREADED_ROWS[dim]
    batches = [("1row", [1.0], [0]),
               ("6keys", 1.0 + 0.1 * np.arange(6), list(range(6))),
               ("6shared", 1.0 + 0.1 * np.arange(6), [0, 1, 2] * 2),
               (f"threaded{rows}", 1.0 + 1e-4 * np.arange(rows),
                [p % (rows // 3) for p in range(rows)])]
    chunked = CHUNKED_ROWS.get(kind)
    if chunked is not None:
        batches.append((f"chunked{chunked}", 1.0 + 1e-4 * np.arange(chunked),
                        [p % (chunked // 2) for p in range(chunked)]))
    return batches


def _run(cfg: SdeConfig, amplitudes, keys) -> dict:
    """What integrate_paths returns, by name: times, tables, states, final batch."""
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    times, tables, u, states = integrate_paths(cfg, ops, np.outer(amplitudes, u0), keys,
                                               collect_states=True)
    return {"times": times, **{name: tables[name] for name in sorted(tables)},
            "states": states, "final": u}


def _runaway(rows: int, amplitudes, keys=None, **knobs) -> dict:
    """The BlowUpError fields (step, t, v_norm, path_index) of the RUNAWAY config
    with knobs replaced, or NaNs when it does not blow up; row p has noise key
    keys[p], p by default."""
    cfg = SdeConfig(**{**RUNAWAY, **knobs})
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level).coeffs
    batch = np.zeros((rows, ops.basis.n_modes), dtype=np.complex128)
    for row, a in amplitudes.items():
        batch[row] = a * u0
    try:
        integrate_paths(cfg, ops, batch, range(rows) if keys is None else keys)
    except BlowUpError as e:
        return {"error": np.array([e.step, e.t, e.v_norm, e.path_index], dtype=float)}
    return {"error": np.full(4, np.nan)}


def cases():
    """(name, arrays) of every case, in digest order."""
    for kind in BASIS_KINDS:
        dim = 2 if kind.endswith("2d") else 1
        for scheme in SCHEMES:
            for g_variant in G_VARIANTS:
                for b_on in (False, True):
                    cfg = SdeConfig(
                        domain_kind=kind, modes_per_axis=8 if dim == 2 else 16,
                        scheme=scheme, beta=0.5, dt=1e-3, t_final=STEPS * 1e-3,
                        snapshot_stride=9, seed=11,
                        b_profiles=("0.1/(1+lambda)", "0.05") if b_on else (),
                        g_variant=g_variant,
                        g_params=(0.3, 0.1) if g_variant != "none" else ())
                    name = f"{kind}.{scheme}.{g_variant}.B{int(b_on)}"
                    for label, amplitudes, keys in _batches(kind, dim):
                        yield f"{name}.{label}", _run(cfg, amplitudes, keys)
                    # stride 1: the snapshots of a slice are observed in groups
                    # that cross snapshots and the RNG block
                    every = replace(cfg, t_final=STRIDE_ONE_STEPS * 1e-3, snapshot_stride=1)
                    yield f"{name}.stride1_1row", _run(every, [1.0], [0])
                    yield f"{name}.stride1_5rows", _run(every, 1.0 + 0.1 * np.arange(5),
                                                        [0, 1, 2, 0, 1])
    # trips in block 0 (step 96) and in block 1 (step 263)
    for j, (rows, amplitudes) in enumerate(((6, {1: 1e-3, 4: 1e-4}), (6, {2: 1e-22}),
                                            (3000, {2500: 1e-3, 100: 1e-4}),
                                            (3000, {2500: 1e-22}))):
        yield f"runaway{j}.{rows}rows", _runaway(rows, amplitudes)
    # shared keys: rows 500 and 2500 see key 500 from different slices; trips at step 260
    yield "runaway_shared.3000rows", _runaway(
        3000, {500: 1e-22, 1700: 1e-22, 2500: 1e-22}, [p % 1000 for p in range(3000)],
        g_variant="linear_diagonal", g_params=(1.0,))
    # overflow at step 1 in the guard's V-norm
    for rows in (6, 3000):
        yield f"overflow_b.{rows}rows", _runaway(rows, {1: 1.0}, b_profiles=("1e154",),
                                                 dt=1e-3, t_final=STEPS * 1e-3)
        yield f"overflow_beta.{rows}rows", _runaway(rows, {1: 1.0}, scheme="strat_split",
                                                    beta=-700.0, dt=1.0, t_final=STEPS * 1.0)


def digest(dump=None) -> str:
    """The SHA-256 over every case's names and array bytes; with dump, also
    write each case to dump/<case>.npz."""
    h = hashlib.sha256()
    for name, arrays in cases():
        h.update(name.encode())
        for key, array in arrays.items():
            h.update(key.encode())
            h.update(array.tobytes())
        if dump is not None:
            np.savez(Path(dump) / f"{name}.npz", **arrays)
    return h.hexdigest()


def _difference(a: np.ndarray, b: np.ndarray) -> str:
    """'identical', or the largest absolute and relative difference of a and b."""
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"shape {a.shape} {a.dtype} against {b.shape} {b.dtype}"
    if a.tobytes() == b.tobytes():
        return "identical"
    with np.errstate(all="ignore"):
        diff = np.abs(a - b)
        scale = np.maximum(np.abs(a), np.abs(b))
        same = (a == b) | (np.isnan(a) & np.isnan(b))
        diff[same] = 0.0
        rel = np.where(diff > 0.0, diff / scale, 0.0)
    return f"max_abs {np.max(diff):.3e} max_rel {np.max(rel):.3e}"


def compare(a_dir, b_dir) -> int:
    """Print, per case of a_dir and array, how b_dir's differs; returns the
    count of arrays that are not identical or missing."""
    differ = total = 0
    for path in sorted(Path(a_dir).glob("*.npz")):
        other = Path(b_dir) / path.name
        if not other.exists():
            print(f"{path.stem} missing in {b_dir}")
            differ += 1
            continue
        with np.load(path) as a, np.load(other) as b:
            for key in a.files:
                verdict = _difference(a[key], b[key]) if key in b.files else "missing"
                print(f"{path.stem} {key} {verdict}")
                total += 1
                differ += verdict != "identical"
    print(f"{total - differ} of {total} arrays identical")
    return differ


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dump", metavar="DIR", help="also write each case's arrays to DIR")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two dumps instead of running the engine")
    args = parser.parse_args()
    if args.compare:
        raise SystemExit(1 if compare(*args.compare) else 0)
    if args.dump:
        Path(args.dump).mkdir(parents=True, exist_ok=True)
    print(digest(args.dump))


if __name__ == "__main__":
    main()
