"""Byte-identity digest of the integration engine.

Prints one SHA-256 over what `snls.dynamics.integrate_paths` returns, the
times, the observable tables, the collected states and the final batch,
each hashed by `tobytes()`, on this grid:

    6 kinds x 2 schemes x 4 G variants x B off/on
    x {1 row, 6 distinct keys, 6 shared keys, a threaded batch},

plus a second threaded batch on the 2-D kinds, of 404 rows, and on torus1d,
of 1562 rows, with 270 steps, so that every run crosses an RNG block. The threaded batch has 3000 rows on
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

It reads only public API, so it runs against older checkouts too. It takes
about 100–120 s on a 2-core VM. The digest depends on numpy's kernels and the
CPU, so compare two trees only on the same machine and environment.
"""

import hashlib

import numpy as np

from snls import (BASIS_KINDS, G_VARIANTS, SCHEMES, BlowUpError, SdeConfig, build_operators,
                  default_initial)
from snls.dynamics import integrate_paths

STEPS = 270                  # past the first RNG block of 256 steps
THREADED_ROWS = {1: 3000, 2: 400}
CHUNKED_ROWS = {"dirichlet2d": 404, "neumann2d": 404, "torus2d": 404, "torus1d": 1562}
# ito_exp_em at beta = -30, dt = 1e-2 multiplies the state by 1.3 per step
RUNAWAY = dict(domain_kind="torus1d", modes_per_axis=16, scheme="ito_exp_em", beta=-30.0,
               dt=1e-2, t_final=STEPS * 1e-2, snapshot_stride=9, nonlinearity_enabled=False)


def _batches(kind: str, dim: int):
    """(row amplitudes, noise keys) of the batches of a kind of dimension dim."""
    rows = THREADED_ROWS[dim]
    batches = [([1.0], [0]),
               (1.0 + 0.1 * np.arange(6), list(range(6))),
               (1.0 + 0.1 * np.arange(6), [0, 1, 2] * 2),
               (1.0 + 1e-4 * np.arange(rows), [p % (rows // 3) for p in range(rows)])]
    chunked = CHUNKED_ROWS.get(kind)
    if chunked is not None:
        batches.append((1.0 + 1e-4 * np.arange(chunked),
                        [p % (chunked // 2) for p in range(chunked)]))
    return batches


def _hash_run(h, cfg: SdeConfig, amplitudes, keys) -> None:
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
    times, tables, u, states = integrate_paths(cfg, ops, np.outer(amplitudes, u0), keys,
                                               collect_states=True)
    h.update(times.tobytes())
    for name in sorted(tables):
        h.update(name.encode())
        h.update(tables[name].tobytes())
    h.update(states.tobytes())
    h.update(u.tobytes())


def _hash_runaway(h, rows: int, amplitudes, keys=None, **knobs) -> None:
    """The RUNAWAY config with knobs replaced; row p has noise key keys[p], p by default."""
    cfg = SdeConfig(**{**RUNAWAY, **knobs})
    ops = build_operators(cfg)
    u0 = default_initial(ops.basis, cfg.galerkin_level).coeffs
    batch = np.zeros((rows, ops.basis.n_modes), dtype=np.complex128)
    for row, a in amplitudes.items():
        batch[row] = a * u0
    try:
        integrate_paths(cfg, ops, batch, range(rows) if keys is None else keys)
    except BlowUpError as e:
        h.update(repr((e.step, e.t, e.v_norm, e.path_index, str(e))).encode())
    else:
        h.update(b"no blow-up")


def main() -> None:
    h = hashlib.sha256()
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
                    for amplitudes, keys in _batches(kind, dim):
                        _hash_run(h, cfg, amplitudes, keys)
    # trips in block 0 (step 96) and in block 1 (step 263)
    for rows, amplitudes in ((6, {1: 1e-3, 4: 1e-4}), (6, {2: 1e-22}),
                             (3000, {2500: 1e-3, 100: 1e-4}), (3000, {2500: 1e-22})):
        _hash_runaway(h, rows, amplitudes)
    # shared keys: rows 500 and 2500 see key 500 from different slices; trips at step 260
    _hash_runaway(h, 3000, {500: 1e-22, 1700: 1e-22, 2500: 1e-22},
                  [p % 1000 for p in range(3000)],
                  g_variant="linear_diagonal", g_params=(1.0,))
    # overflow at step 1 in the guard's V-norm
    for rows in (6, 3000):
        _hash_runaway(h, rows, {1: 1.0}, b_profiles=("1e154",), dt=1e-3, t_final=STEPS * 1e-3)
        _hash_runaway(h, rows, {1: 1.0}, scheme="strat_split", beta=-700.0, dt=1.0,
                      t_final=STEPS * 1.0)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
