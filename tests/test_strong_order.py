"""Strong order in the time step: runs at successive dt on one Brownian path.

A run at dt = T / 2^k is driven by the fine increments of the finest run,
summed in groups of 2^(finest - k): a subclass of BrownianDriver draws the
fine (r n, n_B + n_G) block from the path's own key and returns the sums of
each group of r rows, so every level sees the same Brownian path.  The gap
between successive levels, sqrt(E ||u_dt(T) - u_{dt/2}(T)||_H^2) over the
paths, falls like dt^p for a scheme of strong order p, and the test fits p
by least squares in log-log.

Setup: torus1d, M = 32, the whole stored band, beta = 0.5, F on (alpha = 3),
the default datum at mass 3 on every path, T = 0.25, dt = T/4 ... T/256 (six
halvings), 64 paths, seeds 1 and 2.  One case runs 7 levels, 508 steps of 64
rows in all, about 0.2 s per seed on a 2-core VM.

Both schemes treat G by an Ito-Euler increment, and ito_exp_em treats B so
too, so with multiplicative noise their asymptotic strong order is 1/2;
what the fit sees on this range is the pre-asymptotic mix of that term and
the order-one drift and splitting errors.  The slopes of both seeds, with
the two-seed spread in brackets:

    additive G, B off           strat_split 1.009-1.015 (0.006)   ito_exp_em 1.024-1.029 (0.005)
    linear-diagonal G, B on     strat_split 0.649-0.670 (0.021)   ito_exp_em 0.645-0.680 (0.035)
    Nemytskii G, B on           strat_split 0.939-0.943 (0.004)   ito_exp_em 0.751-0.783 (0.032)

against 1.06-1.09, 0.60-0.68, 0.97-1.03 and 0.69-0.73 in ROADMAP.md.  The
floors, 0.9 where about one is measured and 0.5 elsewhere, clear the lower
slope of every case by at least the spread of its two seeds.
"""

import dataclasses
import math

import numpy as np
import pytest

from snls import dynamics
from snls.dynamics import (BrownianDriver, SdeConfig, build_operators, default_initial,
                           integrate_paths)

T_FINAL = 0.25
LEVELS = range(2, 9)          # dt = T / 2^k
PATHS = 64
TWO_B = ("0.2", "0.1/(1+lambda)")

CASES = {
    "additive G, B off": (dict(g_variant="additive", g_params=(0.3, 0.1)),
                          {"strat_split": 0.9, "ito_exp_em": 0.9}),
    "linear-diagonal G, B on": (dict(g_variant="linear_diagonal", g_params=(0.2, 0.1),
                                     b_profiles=TWO_B),
                                {"strat_split": 0.5, "ito_exp_em": 0.5}),
    "Nemytskii G, B on": (dict(g_variant="bounded_nemytskii", g_params=(0.3, 0.1),
                               b_profiles=TWO_B),
                          {"strat_split": 0.9, "ito_exp_em": 0.5}),
}


def _summing_driver(r: int):
    """A BrownianDriver whose increments over dt are the sums of r increments
    over dt / r drawn from the same key."""
    class Summed(BrownianDriver):
        def __init__(self, master_seed, path_index, n_B, n_G, dt):
            super().__init__(master_seed, path_index, n_B, n_G, dt / r)

        def increments(self, n_steps):
            fine = super().increments(r * n_steps)
            return fine.reshape(n_steps, r, -1).sum(axis=1)

    return Summed


def _slope(scheme, seed, knobs, monkeypatch, mutate=None):
    """The least-squares slope of log(gap) against log(dt) over LEVELS."""
    finals = []
    for k in LEVELS:
        cfg = SdeConfig(domain_kind="torus1d", modes_per_axis=32, galerkin_level=9,
                        alpha=3.0, beta=0.5, scheme=scheme, dt=T_FINAL / 2 ** k,
                        t_final=T_FINAL, seed=seed, snapshot_stride=2 ** LEVELS[-1],
                        nonlinearity_enabled=True, **knobs)
        ops = build_operators(cfg)
        if mutate is not None:
            ops = mutate(cfg, ops)
        u0 = default_initial(ops.basis, cfg.galerkin_level, mass=3.0).coeffs
        monkeypatch.setattr(dynamics, "BrownianDriver", _summing_driver(2 ** (LEVELS[-1] - k)))
        finals.append(integrate_paths(cfg, ops, np.repeat(u0[None], PATHS, 0), range(PATHS))[2])
    monkeypatch.undo()
    gaps = [math.sqrt(np.mean(np.sum(np.abs(a - b) ** 2, axis=-1)))
            for a, b in zip(finals, finals[1:])]
    dts = [T_FINAL / 2 ** k for k in LEVELS[:-1]]
    return float(np.polyfit(np.log(dts), np.log(gaps), 1)[0])


def test_the_summing_driver_gives_the_path_of_the_fine_one():
    fine = BrownianDriver(3, 5, 2, 1, 1e-3).increments(512)
    coarse = _summing_driver(4)(3, 5, 2, 1, 4e-3)
    got = np.concatenate([coarse.increments(100), coarse.increments(28)])
    assert np.array_equal(got, fine.reshape(128, 4, 3).sum(axis=1))


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("scheme", dynamics.SCHEMES)
def test_each_scheme_converges_at_its_strong_order(case, scheme, monkeypatch):
    knobs, floors = CASES[case]
    slopes = [_slope(scheme, seed, knobs, monkeypatch) for seed in (1, 2)]
    assert min(slopes) >= floors[scheme], slopes


@pytest.mark.parametrize("scheme", dynamics.SCHEMES)
def test_a_drift_term_without_its_dt_fails_the_order_check(scheme, monkeypatch):
    # the exact linear flow e^{-iA} in place of e^{-iA dt}: each level then
    # rotates by a different multiple of A, and the gaps stop falling (slope
    # 0.06 on both schemes)
    def drop_dt(cfg, ops):
        return dataclasses.replace(ops, rot=np.exp(-1j * ops.basis.a_eigs))
    knobs, floors = CASES["additive G, B off"]
    assert _slope(scheme, 1, knobs, monkeypatch, mutate=drop_dt) < floors[scheme]
