"""Galerkin projection machinery, the defocusing nonlinearity, and the noise pair (B, G).

Projectors act as diagonal multipliers of the S-spectrum: the sharp projector
P_n keeps the dyadic band s_k < 2^{n+1}, the smoothed projector S_n applies
the multiplier

    s_n(lam) = 1 on (0, 2^n),  rho(2^{-n} lam) on [2^n, 2^{n+1}),  0 beyond,

where rho is a smooth bump supported in [1/2, 2] normalized so that
sum_j rho(2^{-j} t) = 1 for every t > 0 (at most two terms of that sum are
ever nonzero).  Both operators are self-adjoint, commute with A and S, and
have operator norm at most 1 on H and on V.

The nonlinearity is F(u) = |u|^{alpha-1} u with alpha > 1, evaluated
pseudospectrally on the basis's quadrature grid, with antiderivative
F_hat(u) = ||u||_{L^{alpha+1}}^{alpha+1} / (alpha + 1).

B is a finite family of real diagonal spectral multipliers (self-adjoint,
commuting with A and S_n, with exact unitary exponential).  G comes in three
variants: additive, linear_diagonal, and bounded_nemytskii; each carries the
growth and Lipschitz constants used by the damping-threshold report.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .spectral import (ConfigurationError, EigenBasis, SpectralField, check_level,
                       h_norm_sq, lp_power, rejection, v_norm_sq)

G_VARIANTS = ("none", "additive", "linear_diagonal", "bounded_nemytskii")
ALPHA_RULE = "a finite real exceeding 1"
B_PROFILE_RULE = ("an expression in numbers, lambda, + - * / ** ^, parentheses, sqrt and "
                  "exp, with finite multipliers, squared noise constants and damping terms")
G_VARIANT_RULE = f"one of {G_VARIANTS}"
G_PARAMS_RULE = ("comma-separated reals, none for G variant 'none' and at least one for the "
                 "others (at most one per stored mode for additive and bounded_nemytskii), "
                 "with finite squared noise constants and damping terms")


class OperatorError(ConfigurationError):
    pass


# ---------------------------------------------------------------------------
# dyadic multiplier

def _bump(t: np.ndarray) -> np.ndarray:
    """Smooth bump supported in [1/2, 2]: exp(-1/((t - 1/2)(2 - t))) inside."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t > 0.5) & (t < 2.0)
    ti = t[inside]
    out[inside] = np.exp(-1.0 / ((ti - 0.5) * (2.0 - ti)))
    return out


def rho(t) -> np.ndarray:
    """Normalized dyadic bump: rho(t) = h(t) / sum_j h(2^-j t), supp in [1/2, 2].

    For t in (1/2, 2) the denominator has at most two nonzero terms
    (h(t) plus one dyadic neighbor), so the sum is evaluated directly.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    num = _bump(t)
    den = _bump(t) + _bump(t / 2.0) + _bump(2.0 * t)
    out = np.zeros_like(t)
    nz = num > 0.0
    out[nz] = num[nz] / den[nz]
    return out


def sharp_projector(n: int, basis: EigenBasis) -> np.ndarray:
    """Boolean mask of the band s_k < 2^{n+1}."""
    check_level(n)
    return basis.s_eigs < 2.0 ** (n + 1)


def smoothed_projector(n: int, basis: EigenBasis) -> np.ndarray:
    """Weights s_n(s_k) in [0, 1] of S_n, aligned with mode_index_set."""
    check_level(n)
    s = basis.s_eigs
    w = np.zeros_like(s)
    lo, hi = 2.0 ** n, 2.0 ** (n + 1)
    w[s < lo] = 1.0
    band = (s >= lo) & (s < hi)
    w[band] = rho(s[band] / lo)
    return w


# ---------------------------------------------------------------------------
# nonlinearity F(u) = |u|^{alpha-1} u

def _check_alpha(alpha: float) -> None:
    if not (alpha > 1.0 and np.isfinite(alpha)):
        raise OperatorError(rejection("alpha", ALPHA_RULE, alpha))


def modulus_power(values: np.ndarray, alpha: float) -> np.ndarray:
    """|values|^(alpha-1) pointwise; re^2 + im^2 at alpha = 3."""
    if alpha == 3.0:
        return values.real ** 2 + values.imag ** 2
    return np.abs(values) ** (alpha - 1.0)


def f_pointwise(values: np.ndarray, alpha: float) -> np.ndarray:
    return values * modulus_power(values, alpha)


def apply_F(u: SpectralField, alpha: float) -> SpectralField:
    """Pseudospectral F: synthesize, apply z|z|^{alpha-1}, analyze back.

    The result is truncated to the ambient mode set but NOT projected to any
    Galerkin band; callers compose with P_n.
    """
    _check_alpha(alpha)
    grid = u.basis.synthesize(u.coeffs)
    return SpectralField(u.basis.analyze(f_pointwise(grid, alpha)), u.basis)


def antiderivative_F(u: SpectralField, alpha: float) -> float:
    """F_hat(u) = ||u||_{L^{alpha+1}}^{alpha+1} / (alpha+1), by grid quadrature."""
    _check_alpha(alpha)
    return float(lp_power(u.coeffs, u.basis, alpha + 1.0) / (alpha + 1.0))


# ---------------------------------------------------------------------------
# linear noise B: diagonal spectral multipliers b_{m,k} = profile_m(s_k)

_ALLOWED_FUNCS = {"sqrt": np.sqrt, "exp": np.exp}
# `lambda` is a Python keyword: a profile is parsed with each whole word
# `lambda` rewritten to this name, which the text itself may not spell
_LAMBDA = "lambda_"


def _eval_profile(expr: str, lam: np.ndarray) -> np.ndarray:
    """Evaluate a multiplier profile such as `0.2/(1+lambda)` on the S-spectrum.

    Tiny arithmetic grammar: numbers, lambda, + - * / ** (or ^), parentheses,
    sqrt and exp. Anything else raises an OperatorError naming the offending
    construct; make_noise_B quotes it with the key and the profile as written.
    """
    src = re.sub(r"\blambda\b", _LAMBDA, expr).replace("^", "**")
    written = set(re.findall(r"\w+", expr))
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise OperatorError(f"unparsable: {e.msg}") from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):   # not bool
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id == _LAMBDA and _LAMBDA not in written:
                return lam
            raise OperatorError(f"unknown name {node.id!r}")
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                   ast.Div: np.divide, ast.Pow: np.power}
            fn = ops.get(type(node.op))
            if fn is None:
                raise OperatorError("unsupported operator")
            return fn(ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _ALLOWED_FUNCS and len(node.args) == 1 and not node.keywords:
                return _ALLOWED_FUNCS[node.func.id](ev(node.args[0]))
            raise OperatorError(f"unsupported call {node.func.id!r}")
        raise OperatorError("unsupported construct")

    # Division by zero and overflow are allowed to flow through: the caller
    # rejects non-finite multipliers.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.asarray(ev(tree), dtype=float) * np.ones_like(lam)


@dataclass(frozen=True)
class LinearNoiseB:
    """Finite family of self-adjoint diagonal multipliers B_m."""

    multipliers: np.ndarray                 # shape (M, n_modes), real
    h_opnorm_sq_sum: float                  # sum_m ||B_m||_{L(H)}^2 = sum_m max_k b^2
    lp_opnorm_sq_sum_bound: float           # upper bound for the L^{alpha+1} gamma-norm

    @property
    def n_modes(self) -> int:
        return self.multipliers.shape[0]


def make_noise_B(basis: EigenBasis, profiles: Sequence[str]) -> LinearNoiseB:
    lam = basis.s_eigs
    mults = []
    lp_bound_sq = 0.0
    # Schur/Young kernel constant: 1 on the torus, 2^{d/2} on the boxes
    kappa = 1.0 if basis.kind.startswith("torus") else 2.0 ** (basis.dim / 2.0)
    for m, p in enumerate(profiles, start=1):
        try:
            b = _eval_profile(p, lam)
            # the bound is at least every b^2: finite only when they and the multipliers are
            with np.errstate(over="ignore", invalid="ignore"):
                if np.ptp(b) == 0.0:
                    lp_bound_sq += float(b[0] ** 2)          # constant symbol: exact norm |c|
                else:
                    lp_bound_sq += float(kappa ** 2 * np.sum(b ** 2))
            if not math.isfinite(lp_bound_sq):
                raise OperatorError("a non-finite multiplier or constant")
        except OperatorError as exc:
            raise OperatorError(f"{rejection(f'noise.B.{m}.profile', B_PROFILE_RULE, p)} "
                                f"({exc})") from None
        mults.append(b)
    mult = np.array(mults).reshape(len(profiles), basis.n_modes)
    return LinearNoiseB(
        multipliers=mult,
        h_opnorm_sq_sum=float(np.sum(np.max(mult ** 2, axis=1))),
        lp_opnorm_sq_sum_bound=lp_bound_sq,
    )


def stratonovich_correction(B: LinearNoiseB, w: Optional[np.ndarray] = None) -> np.ndarray:
    """Diagonal of b = -1/2 sum_m B_m^2, or b_n = -1/2 sum_m (S_n B_m S_n)^2.

    w holds the weights of S_n.  S_n B_m S_n is diagonal with entry
    w_k^2 b_{m,k}, so the corrected entry is -1/2 sum_m w_k^4 b_{m,k}^2.
    """
    bsq = B.multipliers ** 2
    if w is not None:
        bsq = bsq * w ** 4
    return -0.5 * np.sum(bsq, axis=0)


# ---------------------------------------------------------------------------
# state noise G

def sigma_saturating(z: np.ndarray) -> np.ndarray:
    """Bounded Lipschitz scalar nonlinearity z / sqrt(1 + |z|^2).  Its roundings
    sum to at most 4.5 units of 2^-53, and _SIGMA_PAD raises the root by 6, so
    |sigma| <= SIGMA_BOUND holds as computed, also for |z| above about 1e8."""
    d = np.sqrt(1.0 + (z.real ** 2 + z.imag ** 2))
    return z / np.multiply(d, _SIGMA_PAD, out=d)


SIGMA_BOUND = 1.0
_SIGMA_PAD = 1.0 + 3.0 * np.finfo(float).eps     # 1 + 6 units of 2^-53
SIGMA_LIP = float((1.0 + 2.0 * 0.5) / (1.0 + 0.5) ** 1.5)   # sup_r (1+2r)/(1+r)^{3/2} at r = 1/2


@dataclass(frozen=True)
class StateNoiseG:
    """G with growth constants ||G(u)|| <= C_i + C~_i ||u|| on H, V, L^{alpha+1}."""

    variant: str
    g_coeffs: Optional[np.ndarray]     # (M~, n_modes) for additive / bounded_nemytskii
    gammas: Optional[np.ndarray]       # (M~,) for linear_diagonal
    C1: float
    C1t: float
    C2: float
    C2t: float
    C3: float
    C3t: float
    L_G: float
    g_grids: Optional[np.ndarray] = None   # bounded_nemytskii's g_coeffs on the grid, (M~,) + grid

    @property
    def n_modes(self) -> int:
        if self.variant == "none":
            return 0
        if self.variant == "linear_diagonal":
            return len(self.gammas)
        return self.g_coeffs.shape[0]


def _lowest_modes(basis: EigenBasis, params: Tuple[float, ...]) -> np.ndarray:
    """Indices of the lowest modes by (s_k, position), one per parameter; deterministic."""
    if len(params) > basis.n_modes:
        raise OperatorError(rejection("noise.G.params", G_PARAMS_RULE, params))
    order = np.lexsort((np.arange(basis.n_modes), basis.s_eigs))
    return order[:len(params)]


def _eigenmode_sup(basis: EigenBasis, j: int) -> float:
    """sup_x |h_k(x)| of stored mode j: per axis 1/sqrt(L) for an exponential
    or the constant cosine, sqrt(2/L) for a sine or any other cosine."""
    periodic = basis.kind.startswith("torus")
    return math.prod(math.sqrt((1.0 if periodic or k == 0 else 2.0) / ax.measure)
                     for k, ax in zip(basis.mode_index_set[j], basis.axes))


def check_g(variant: str, params: Sequence[float]) -> None:
    """The G rules of make_noise_G and the config: a known variant, params iff it takes any."""
    if variant not in G_VARIANTS:
        raise OperatorError(rejection("noise.G.variant", G_VARIANT_RULE, variant))
    if (variant == "none") != (len(params) == 0):
        raise OperatorError(rejection("noise.G.params", G_PARAMS_RULE, tuple(params)))


def make_noise_G(basis: EigenBasis, variant: str, params: Sequence[float],
                 alpha: float) -> StateNoiseG:
    """Build a G variant with its constants.

    additive:          params = amplitudes; g_m = amp_m * (m-th lowest eigenmode)
    linear_diagonal:   params = scalar gammas, G(u)e_m = gamma_m * u
    bounded_nemytskii: params = amplitudes; G(u)e_m = g_m * sigma(u) pointwise
    """
    check_g(variant, params)
    if variant == "none":
        return StateNoiseG("none", None, None, 0, 0, 0, 0, 0, 0, 0)
    params = tuple(float(p) for p in params)
    g = gam = g_grids = None
    # an overflow runs through to a non-finite constant, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        if variant == "linear_diagonal":
            gam = np.array(params)
            c1t = float(np.sqrt(np.sum(gam ** 2)))
            consts = dict(C1=0.0, C1t=c1t, C2=0.0, C2t=c1t, C3=0.0, C3t=c1t, L_G=c1t)
        else:
            idx = _lowest_modes(basis, params)
            g = np.zeros((len(params), basis.n_modes), dtype=np.complex128)
            g[np.arange(len(params)), idx] = params
            lp = lp_power(g, basis, alpha + 1.0) ** (1.0 / (alpha + 1.0))
            # additive: G(u)e_m = g_m.  bounded_nemytskii: |sigma| <= SIGMA_BOUND gives
            # the bounded assignment, and the V growth splits into
            # sigma(u) grad g + g sigma'(u) grad u
            bound, lip = 1.0, 0.0
            if variant == "bounded_nemytskii":
                g_grids = basis.synthesize(g)
                # exact: the crest of a mode can fall between grid nodes
                linf = np.abs(params) * np.array([_eigenmode_sup(basis, j) for j in idx])
                bound, lip = SIGMA_BOUND, float(SIGMA_LIP * np.sqrt(np.sum(linf ** 2)))
            consts = dict(C1=float(bound * np.sqrt(np.sum(h_norm_sq(g)))), C1t=0.0,
                          C2=float(bound * np.sqrt(np.sum(v_norm_sq(g, basis)))), C2t=lip,
                          C3=float(bound * np.sqrt(np.sum(lp ** 2))), C3t=0.0, L_G=lip)
        finite = np.all(np.isfinite(np.square(list(consts.values()))))
    if not finite:
        raise OperatorError(rejection("noise.G.params", G_PARAMS_RULE, params))
    return StateNoiseG(variant, g, gam, g_grids=g_grids, **consts)


def hs_norm_sq_batch(coeffs: np.ndarray, G: StateNoiseG, basis: EigenBasis,
                     dress: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched sum_m ||D G(D u) e_m||^2_H where D is an optional diagonal dressing.

    One field G(D u) e_m at a time is made and its squared norm added, in mode
    order at every batch size: no temporary outgrows the rows' grid values."""
    total = np.zeros(coeffs.shape[:-1])
    v = coeffs if dress is None else coeffs * dress
    if G.variant == "bounded_nemytskii":
        sig = sigma_saturating(basis.synthesize(v))
    for m in range(G.n_modes):
        field = (G.g_coeffs[m] if G.variant == "additive" else
                 G.gammas[m] * v if G.variant == "linear_diagonal" else
                 basis.analyze(sig * G.g_grids[m]))
        total += h_norm_sq(field if dress is None else field * dress)
    return total
