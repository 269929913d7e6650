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
pseudospectrally on the oversampled quadrature grid, with antiderivative
F_hat(u) = ||u||_{L^{alpha+1}}^{alpha+1} / (alpha + 1).

B is a finite family of real diagonal spectral multipliers (self-adjoint,
commuting with A and S_n, with exact unitary exponential).  G comes in three
variants: additive, linear_diagonal, and bounded_nemytskii; each carries the
growth and Lipschitz constants used by the damping-threshold report.
"""

from __future__ import annotations

import ast
import logging
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .spectral import EigenBasis, SpectralField

logger = logging.getLogger(__name__)

G_VARIANTS = ("none", "additive", "linear_diagonal", "bounded_nemytskii")


class OperatorError(ValueError):
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
    if n < 0:
        raise OperatorError("projector level must be non-negative")
    return basis.s_eigs < 2.0 ** (n + 1)


def smoothed_projector(n: int, basis: EigenBasis) -> np.ndarray:
    """Weights s_n(s_k) in [0, 1] of S_n, aligned with mode_index_set."""
    if n < 0:
        raise OperatorError("projector level must be non-negative")
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
        raise OperatorError(f"alpha must exceed 1, got {alpha}")


def f_pointwise(values: np.ndarray, alpha: float) -> np.ndarray:
    if alpha == 3.0:
        return values * (values.real ** 2 + values.imag ** 2)
    return values * np.abs(values) ** (alpha - 1.0)


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
    grid = u.basis.synthesize(u.coeffs)
    return float(u.basis.quad_weight * np.sum(np.abs(grid) ** (alpha + 1.0)) / (alpha + 1.0))


# ---------------------------------------------------------------------------
# linear noise B: diagonal spectral multipliers b_{m,k} = profile_m(s_k)

_ALLOWED_FUNCS = {"sqrt": np.sqrt, "exp": np.exp}


def _eval_profile(expr: str, lam: np.ndarray) -> np.ndarray:
    """Evaluate a multiplier profile such as `0.2/(1+lambda)` on the S-spectrum.

    Tiny arithmetic grammar: numbers, lambda, + - * / ** (or ^), parentheses,
    sqrt and exp. Anything else is rejected with the offending construct named.
    """
    src = expr.replace("^", "**")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as e:
        raise OperatorError(f"unparsable B profile {expr!r}: {e.msg}") from None

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id in ("lambda_", "lam", "s"):
                return lam
            raise OperatorError(f"unknown name {node.id!r} in B profile {expr!r}")
        if isinstance(node, ast.BinOp):
            ops = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
                   ast.Div: np.divide, ast.Pow: np.power}
            fn = ops.get(type(node.op))
            if fn is None:
                raise OperatorError(f"unsupported operator in B profile {expr!r}")
            return fn(ev(node.left), ev(node.right))
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in _ALLOWED_FUNCS and len(node.args) == 1 and not node.keywords:
                return _ALLOWED_FUNCS[node.func.id](ev(node.args[0]))
            raise OperatorError(f"unsupported call {node.func.id!r} in B profile {expr!r}")
        raise OperatorError(f"unsupported construct in B profile {expr!r}")

    # `lambda` is a Python keyword; accept it by rewriting before parsing.
    # Division by zero is allowed to flow through: the caller rejects
    # non-finite multipliers with a named error.
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.asarray(ev(tree), dtype=float) * np.ones_like(lam)


def _rewrite_lambda(expr: str) -> str:
    return expr.replace("lambda", "lambda_")


@dataclass(frozen=True)
class LinearNoiseB:
    """Finite family of self-adjoint diagonal multipliers B_m."""

    profiles: Tuple[str, ...]
    multipliers: np.ndarray                 # shape (M, n_modes), real
    h_opnorm_sq_sum: float                  # sum_m ||B_m||_{L(H)}^2 = sum_m max_k b^2
    v_opnorm_sq_sum: float                  # equal for diagonal multipliers
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
    for p in profiles:
        b = _eval_profile(_rewrite_lambda(p), lam)
        if not np.all(np.isfinite(b)):
            raise OperatorError(f"B profile {p!r} produced a non-finite multiplier")
        mults.append(b)
        if np.ptp(b) == 0.0:
            lp_bound_sq += float(b[0] ** 2)          # constant symbol: exact norm |c|
        else:
            lp_bound_sq += float(kappa ** 2 * np.sum(b ** 2))
    mult = np.array(mults).reshape(len(profiles), basis.n_modes)
    maxsq = float(np.sum(np.max(mult ** 2, axis=1))) if len(profiles) else 0.0
    return LinearNoiseB(
        profiles=tuple(profiles),
        multipliers=mult,
        h_opnorm_sq_sum=maxsq,
        v_opnorm_sq_sum=maxsq,
        lp_opnorm_sq_sum_bound=lp_bound_sq if len(profiles) else 0.0,
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
    """Bounded Lipschitz scalar nonlinearity z / sqrt(1 + |z|^2)."""
    return z / np.sqrt(1.0 + np.abs(z) ** 2)


SIGMA_BOUND = 1.0
SIGMA_LIP = float((1.0 + 2.0 * 0.5) / (1.0 + 0.5) ** 1.5)   # sup_r (1+2r)/(1+r)^{3/2} at r = 1/2


@dataclass(frozen=True)
class StateNoiseG:
    """G with growth constants ||G(u)|| <= C_i + C~_i ||u|| on H, V, L^{alpha+1}."""

    variant: str
    params: Tuple[float, ...]
    g_coeffs: Optional[np.ndarray]     # (M~, n_modes) for additive / bounded_nemytskii
    gammas: Optional[np.ndarray]       # (M~,) for linear_diagonal
    C1: float
    C1t: float
    C2: float
    C2t: float
    C3: float
    C3t: float
    L_G: float
    g_grids: Optional[np.ndarray] = None   # g_coeffs synthesized on the grid, (M~,) + grid

    @property
    def n_modes(self) -> int:
        if self.variant == "none":
            return 0
        if self.variant == "linear_diagonal":
            return len(self.gammas)
        return self.g_coeffs.shape[0]

    @property
    def enabled(self) -> bool:
        return self.variant != "none" and self.n_modes > 0


def _lowest_modes(basis: EigenBasis, count: int) -> np.ndarray:
    """Indices of the count lowest modes by (s_k, position); deterministic."""
    if count > basis.n_modes:
        raise OperatorError(f"{count} noise modes requested but the basis has "
                            f"only {basis.n_modes}")
    order = np.lexsort((np.arange(basis.n_modes), basis.s_eigs))
    return order[:count]


def _eigenmode_fields(basis: EigenBasis, amps: Sequence[float]) -> np.ndarray:
    idx = _lowest_modes(basis, len(amps))
    g = np.zeros((len(amps), basis.n_modes), dtype=np.complex128)
    for m, (a, j) in enumerate(zip(amps, idx)):
        g[m, j] = a
    return g


def make_noise_G(basis: EigenBasis, variant: str, params: Sequence[float],
                 alpha: float) -> StateNoiseG:
    """Build a G variant with its constants.

    additive:          params = amplitudes; g_m = amp_m * (m-th lowest eigenmode)
    linear_diagonal:   params = scalar gammas, G(u)e_m = gamma_m * u
    bounded_nemytskii: params = amplitudes; G(u)e_m = g_m * sigma(u) pointwise
    """
    if variant not in G_VARIANTS:
        raise OperatorError(f"unknown G variant {variant!r}; expected one of {G_VARIANTS}")
    if variant == "none":
        return StateNoiseG("none", (), None, None, 0, 0, 0, 0, 0, 0, 0)
    if len(params) == 0:
        raise OperatorError(f"G variant {variant!r} needs at least one parameter")
    params = tuple(float(p) for p in params)

    if variant == "linear_diagonal":
        gam = np.array(params)
        c1t = float(np.sqrt(np.sum(gam ** 2)))
        return StateNoiseG(variant, params, None, gam,
                           C1=0.0, C1t=c1t, C2=0.0, C2t=c1t, C3=0.0, C3t=c1t, L_G=c1t)

    g = _eigenmode_fields(basis, params)
    g_grids = basis.synthesize(g)
    absq = np.abs(g) ** 2
    h_sq = np.sum(absq, axis=1)
    v_sq = np.sum((1.0 + basis.a_eigs) * absq, axis=1)
    grid_axes = tuple(range(1, g_grids.ndim))
    lp = (basis.quad_weight * np.sum(np.abs(g_grids) ** (alpha + 1.0), axis=grid_axes)) \
        ** (1.0 / (alpha + 1.0))
    linf = np.max(np.abs(g_grids), axis=grid_axes)

    if variant == "additive":
        return StateNoiseG(variant, params, g, None,
                           C1=float(np.sqrt(np.sum(h_sq))),
                           C1t=0.0,
                           C2=float(np.sqrt(np.sum(v_sq))),
                           C2t=0.0,
                           C3=float(np.sqrt(np.sum(lp ** 2))),
                           C3t=0.0,
                           L_G=0.0,
                           g_grids=g_grids)

    # bounded_nemytskii: |sigma| <= 1 gives the bounded assignment;
    # the V growth splits into sigma(u) grad g + g sigma'(u) grad u.
    return StateNoiseG(variant, params, g, None,
                       C1=float(SIGMA_BOUND * np.sqrt(np.sum(h_sq))),
                       C1t=0.0,
                       C2=float(SIGMA_BOUND * np.sqrt(np.sum(v_sq))),
                       C2t=float(SIGMA_LIP * np.sqrt(np.sum(linf ** 2))),
                       C3=float(SIGMA_BOUND * np.sqrt(np.sum(lp ** 2))),
                       C3t=0.0,
                       L_G=float(SIGMA_LIP * np.sqrt(np.sum(linf ** 2))),
                       g_grids=g_grids)


def g_fields_batch(coeffs: np.ndarray, G: StateNoiseG, basis: EigenBasis) -> np.ndarray:
    """G(u)e_m for a batch of states: returns shape (M~,) + coeffs.shape."""
    if not G.enabled:
        return np.zeros((0,) + coeffs.shape, dtype=np.complex128)
    if G.variant == "additive":
        shape = (G.n_modes,) + (1,) * (coeffs.ndim - 1) + (basis.n_modes,)
        return np.broadcast_to(G.g_coeffs.reshape(shape),
                               (G.n_modes,) + coeffs.shape)
    if G.variant == "linear_diagonal":
        return G.gammas.reshape((-1,) + (1,) * coeffs.ndim) * coeffs[None, ...]
    sig = sigma_saturating(basis.synthesize(coeffs))
    out = np.empty((G.n_modes,) + coeffs.shape, dtype=np.complex128)
    for m in range(G.n_modes):
        out[m] = basis.analyze(sig * G.g_grids[m])
    return out


def apply_G(u: SpectralField, G: StateNoiseG) -> Tuple[List[SpectralField], float]:
    """Fields G(u)e_m and the squared Hilbert-Schmidt intensity sum_m ||G(u)e_m||^2_H.

    The growth audit ||G(u)||_{gamma} <= C1 + C1t ||u||_H is checked on every
    call; a violation means the stored constants are wrong, not the state.
    """
    stack = g_fields_batch(u.coeffs[None, :], G, u.basis)
    fields = [SpectralField(stack[m, 0], u.basis) for m in range(stack.shape[0])]
    hs = float(sum(np.sum(np.abs(f.coeffs) ** 2) for f in fields))
    bound = G.C1 + G.C1t * float(np.sqrt(np.sum(np.abs(u.coeffs) ** 2)))
    if np.sqrt(hs) > bound * (1.0 + 1e-10) + 1e-12:
        raise OperatorError(
            f"G growth audit failed: ||G(u)|| = {np.sqrt(hs):.6e} exceeds "
            f"C1 + C1t*||u|| = {bound:.6e}")
    return fields, hs


def hs_norm_sq_batch(coeffs: np.ndarray, G: StateNoiseG, basis: EigenBasis,
                     dress: Optional[np.ndarray] = None) -> np.ndarray:
    """Batched sum_m ||D G(D u) e_m||^2_H where D is an optional diagonal dressing."""
    if not G.enabled:
        return np.zeros(coeffs.shape[:-1])
    v = coeffs if dress is None else coeffs * dress
    stack = g_fields_batch(v, G, basis)
    if dress is not None:
        stack = stack * dress
    return np.sum(np.abs(stack) ** 2, axis=(0, -1))
