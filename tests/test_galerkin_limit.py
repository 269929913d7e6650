"""The Galerkin limit: runs at successive levels n on one Brownian path.

A stream key does not depend on the level, so runs at levels 2 ... 10 from one
datum in the level-2 band see the same increments, and the gaps between
successive levels' final states, ||u_n(T) - u_{n+1}(T)||_H / ||u_10(T)||_H,
measure the limit of the modified Faedo-Galerkin scheme (Brzezniak-Hornung-
Weis) path by path.  A noise that depends on the level leaves them on a
plateau (the mutation test below); a grid one point short does not (the top
gaps read 2.8e-14 and 7.5e-14 on torus1d), so it is not the mutation here.

Setup: F on (alpha = 3), beta = 0.5, additive G (0.3, 0.2), dt = 1e-3,
T = 0.25, seed 3, one path from the default datum at mass 3; torus1d
M = 64 with B off, dirichlet2d M = 24 with B 0.2.  Measured gaps, levels
2-3 ... 9-10:

    torus1d      strat_split  5.6e-2 1.5e-2 3.5e-4 1.1e-5 8.3e-9 1.3e-11 4.9e-14 2.5e-14
                 ito_exp_em   5.7e-2 1.5e-2 3.5e-4 1.1e-5 8.5e-9 1.3e-11 2.0e-16 1.8e-16
    dirichlet2d  strat_split  4.8e-2 2.7e-2 1.7e-3 3.9e-5 2.9e-7 9.3e-10 7.9e-13 7.4e-15
                 ito_exp_em   4.8e-2 2.7e-2 1.7e-3 3.9e-5 2.9e-7 9.4e-10 7.9e-13 4.7e-18

Once the truncation gap is gone, two levels run one map in exact arithmetic
and part by round-off only.  The floor is that round-off: at most FLOOR_OPS
= 24 roundings per step at which two runs of a step can part, the count of
the fold bound in test_dynamics.py, each at most sqrt(5) eps / 2 < 1.2 eps
relative, over the N = 250 steps: 24 x 1.2 eps x 250 = 1.6e-12.  It leaves
out the stretch of a difference over the run, which that bound carries; the
measured floors lie 60 times or more below it.  One sweep takes about 0.1 s.
"""

import dataclasses

import numpy as np
import pytest

from snls import dynamics
from snls.dynamics import SdeConfig, build_operators, default_initial, integrate_paths
from snls.spectral import h_norm_sq

LEVELS = range(2, 11)
FLOOR_OPS = 24
CASES = {"torus1d": (64, ()), "dirichlet2d": (24, ("0.2",))}


def _gaps(kind, scheme, mutate=None):
    """The relative gaps between the final states of successive LEVELS, and
    the round-off floor of the run's step count."""
    modes, b_profiles = CASES[kind]
    finals = []
    for n in LEVELS:
        cfg = SdeConfig(domain_kind=kind, modes_per_axis=modes, galerkin_level=n, alpha=3.0,
                        beta=0.5, scheme=scheme, dt=1e-3, t_final=0.25, seed=3,
                        snapshot_stride=250, nonlinearity_enabled=True, b_profiles=b_profiles,
                        g_variant="additive", g_params=(0.3, 0.2))
        if mutate is not None:
            cfg = mutate(cfg, n)
        ops = build_operators(cfg)
        u0 = default_initial(ops.basis, LEVELS[0], mass=3.0).coeffs
        finals.append(integrate_paths(cfg, ops, u0[None], [0])[2][0])
    top = np.sqrt(h_norm_sq(finals[-1]))
    gaps = [float(np.sqrt(h_norm_sq(a - b)) / top) for a, b in zip(finals, finals[1:])]
    return gaps, FLOOR_OPS * 1.2 * np.finfo(float).eps * cfg.n_steps


def _falls_to_the_floor(gaps, floor):
    """The gaps fall strictly until one lies at the floor, and the last one does."""
    first = next((i for i, g in enumerate(gaps) if g <= floor), None)
    return (first is not None and gaps[-1] <= floor
            and all(a > b for a, b in zip(gaps[:first], gaps[1:first + 1])))


@pytest.mark.parametrize("kind", CASES)
@pytest.mark.parametrize("scheme", dynamics.SCHEMES)
def test_successive_levels_close_on_one_path_down_to_round_off(kind, scheme):
    gaps, floor = _gaps(kind, scheme)
    assert _falls_to_the_floor(gaps, floor), gaps
    assert gaps[0] > 1e-2        # the low levels are apart: the limit is seen


def test_a_noise_that_depends_on_the_level_fails_the_limit_check():
    # the additive amplitudes scaled by 1 + 0.01 n: the gaps stop at 2.4e-4
    def scaled(cfg, n):
        return dataclasses.replace(cfg, g_params=tuple(p * (1 + 0.01 * n) for p in cfg.g_params))
    gaps, floor = _gaps("torus1d", "strat_split", mutate=scaled)
    assert not _falls_to_the_floor(gaps, floor), gaps
    assert min(gaps) > 1e-4
