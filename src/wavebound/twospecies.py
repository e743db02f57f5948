"""Speed bounds for an invader coupled to a degrading substance.

The system

    u1_t = (D(u1, u2) u1_x)_x + f(u1, u2),      u2_t = -kappa u1 u2,

admits travelling waves in which the substance profile is slaved to the
invader: along a wave of speed c, u2 becomes a function of u1 obeying

    du2/du1 = -(kappa beta / c^2) u2 D(u1, u2) / (1 - u1)

once the control ansatz v*(u1) = c u1 (1 - u1) / (beta D) is inserted.
Evaluating the single-species bound along that slaved profile yields

    c^2 / 2  >=  G(beta; c) = beta M(beta; c) / B(2-beta, 2+beta),
    M(beta; c) = integral_0^1 D f u1^(-beta) (1-u1)^beta du1
                 (D, f evaluated at (u1, u2(u1))),

an *implicit* inequality because the right side depends on c through the
profile.  ``solve_implicit_speed`` finds the self-consistent speed; the
weak-coupling parameter epsilon = kappa nu / c measures how far the
slaving approximation is trusted, and the adjoint diagnostics quantify
the neglected term in the underlying optimality system.

Every slaved profile, whichever way u2(u1) is obtained, is a
``WaveProfile2`` built by ``_closed_profile`` from a map w -> u2 on
w = -ln(1 - u1) and the exponent of its power-law tail.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import expm1, log, sqrt
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ._ode import dop853
from ._quad import beta_weighted_integral, quad
from ._search import golden_max
from .errors import (
    ConfigError,
    DegenerateDiffusionError,
    NonConvergenceError,
)
from .model import TwoSpeciesModel
from .varbound import _beta, _log_gamma

__all__ = [
    "WaveProfile2",
    "SpeedSolve",
    "WeakCouplingReport",
    "v_star",
    "solve_u2_profile",
    "M_of_beta",
    "G_of_beta",
    "landman_G_closed",
    "linear_speed_two_species",
    "solve_implicit_speed",
    "adjoint_product",
    "pontryagin_residual",
    "weak_coupling_report",
]

# The profile ODE is integrated in w = -ln(1 - u1) up to u1 = 1 - 1e-8;
# beyond that the analytic power-law tail takes over.
_U1_CUT = 1e-8
_W_MAX = -log(_U1_CUT)
# the u1 grid of a closed-form profile, and w on its points below the cut
_CLOSED_U1 = np.append(np.linspace(0.0, 1.0 - _U1_CUT, 160), 1.0)
_CLOSED_W = -np.log1p(-_CLOSED_U1[:-1])
_CLOSED_W.flags.writeable = False


@dataclass(frozen=True, eq=False)
class WaveProfile2:
    """The slaved substance profile u2(u1) for one (beta, c) pair."""

    u1_grid: np.ndarray
    beta: float
    c: float
    nu: float
    tail_exponent: float
    _interp: Callable[[np.ndarray], np.ndarray]
    _u2_cut: float

    def u2_at(self, u1: np.ndarray) -> np.ndarray:
        """Evaluate u2 at arbitrary u1 in [0, 1] (vectorised).

        Up to u1 = 1 - 1e-8 the profile's own map w -> u2 is used (the
        closed form, the substance curve, or the ODE solver's dense
        output); past it the analytic tail
        u2 = u2(cut) ((1-u1)/1e-8)^p with p = kappa beta D(1,0) / c^2.
        """
        u1 = np.asarray(u1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -np.log1p(-u1)
            inside = w <= _W_MAX
            vals = self._interp(np.minimum(w, _W_MAX))
            # tail in log space; the exponent is clipped at 0 because the
            # inside branch is discarded by the where() anyway, and fmin
            # maps the NaN of 0 * inf (p = 0 at u1 = 1) to 0
            log_arg = np.fmin(self.tail_exponent * (_W_MAX - w), 0.0)
        tail = self._u2_cut * np.exp(log_arg)
        out = np.where(inside, vals, tail)
        return np.clip(out, 0.0, self.nu)


@dataclass(frozen=True)
class SpeedSolve:
    """Result of the self-consistent speed determination."""

    c: float
    iterations: int
    residual: float
    epsilon: float
    converged: bool
    beta_star: float
    c_linear: float
    # G_evals: G(beta; c) evaluations (one slaved profile each below
    # beta = 2); sup_G_calls: maximisations over beta
    stats: Dict[str, int]

    def to_dict(self) -> Dict[str, object]:
        return {
            "c": self.c,
            "iterations": self.iterations,
            "residual": self.residual,
            "epsilon": self.epsilon,
            "converged": self.converged,
            "beta_star": self.beta_star,
            "c_linear": self.c_linear,
            "stats": dict(self.stats),
        }


def v_star(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    u1: np.ndarray,
    u2: np.ndarray,
) -> np.ndarray:
    """The optimising control v* = c u1 (1 - u1) / (beta D(u1, u2)).

    Raises DegenerateDiffusionError when D drops to (or below) 1e-14
    anywhere on the requested points.
    """
    if not c > 0.0:
        raise ConfigError(f"c must be > 0, got {c}")
    if not 0.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (0, 2], got {beta}")
    u1 = np.asarray(u1, dtype=float)
    D = _nondegenerate_D(model, u1, u2)
    return c * u1 * (1.0 - u1) / (beta * D)


def _nondegenerate_D(
    model: TwoSpeciesModel, u1: np.ndarray, u2: np.ndarray
) -> np.ndarray:
    """D(u1, u2) on the points; DegenerateDiffusionError if it drops to
    1e-14 anywhere, where the control ansatz v* has no meaning."""
    D = np.asarray(model.D_fn(u1, np.asarray(u2, dtype=float)), dtype=float)
    if float(np.min(D)) <= 1e-14:
        raise DegenerateDiffusionError(
            "D(u1, u2) vanishes along the profile; the control ansatz "
            "v* = c u1 (1-u1) / (beta D) is undefined there"
        )
    return D


class _SubstanceCurve:
    """The slaved substance curve U(t) of a model whose D depends on u2 only.

    For D = D(u2) the profile ODE du2/dw = -eta u2 D(u2), eta = kappa
    beta / c^2, is autonomous, so every (beta, c) profile is one curve
    read at a different rate: u2(w) = U(eta w), where

        dU/dt = -U D(U),    U(0) = nu.

    U is integrated once with ``_ode.dop853`` (rtol 1e-12) up to the
    first step that ends at or below 1e-12 nu, read through its dense output
    up to there and continued past it by the exponential tail at rate D(0).
    """

    _TINY = 1e-12
    # if U has not decayed by this time, D(u2) vanishes somewhere in (0, nu]
    _T_CAP = 1e6

    def __init__(self, model: TwoSpeciesModel) -> None:
        D_fn, nu = model.D_fn, model.nu
        self.rate = float(D_fn(0.0, 0.0))
        if self.rate <= 1e-14:
            raise DegenerateDiffusionError(
                "D(u1, 0) vanishes: the slaved substance has no decay rate "
                "far behind the front"
            )

        def rhs(t: float, y: float) -> float:
            return -y * float(D_fn(0.0, 0.0 if y < 0.0 else nu if y > nu else y))

        stop = self._TINY * nu
        self._sol = dop853(rhs, self._T_CAP, nu, 1e-12, 1e-3 * stop, y_stop=stop)
        self._t_end = float(self._sol.t[-1])
        self._U_end = float(self._sol.y[-1])
        if self._U_end > stop:
            raise DegenerateDiffusionError(
                "D(u2) vanishes between 0 and nu: the slaved substance "
                "never decays"
            )

    def __call__(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        inside = self._sol(np.minimum(t, self._t_end))
        tail = self._U_end * np.exp(-self.rate * np.maximum(t - self._t_end, 0.0))
        return np.where(t <= self._t_end, inside, tail)


def _substance_curve(model: TwoSpeciesModel) -> _SubstanceCurve:
    """The model's substance curve, built on first use and kept on the model."""
    curve = model.__dict__.get("_substance_curve")
    if curve is None:
        curve = _SubstanceCurve(model)
        object.__setattr__(model, "_substance_curve", curve)
    return curve


def _closed_profile(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    interp: Callable[[np.ndarray], np.ndarray],
    rate: float,
) -> WaveProfile2:
    """The profile u2 = interp(w) up to the cut, with tail exponent rate.

    D is probed on a fixed 161-point u1 grid, with u2 at u1 = 1 the far
    field nu when nothing degrades the substance (kappa = 0) and 0
    otherwise: a profile along which D vanishes is refused.
    """
    u2 = np.append(interp(_CLOSED_W), model.nu if model.kappa == 0.0 else 0.0)
    _nondegenerate_D(model, _CLOSED_U1, u2)
    return WaveProfile2(
        u1_grid=_CLOSED_U1.copy(),
        beta=beta,
        c=c,
        nu=model.nu,
        tail_exponent=rate,
        _interp=interp,
        _u2_cut=float(interp(np.array(_W_MAX))),
    )


def solve_u2_profile(model: TwoSpeciesModel, beta: float, c: float) -> WaveProfile2:
    """The slaved substance profile u2(u1) from (u1, u2) = (0, nu) to u1 = 1.

    The equation du2/du1 = -(kappa beta / c^2) u2 D / (1 - u1) is stiff in
    u1 near the far edge; substituting w = -ln(1 - u1) removes the 1/(1-u1)
    factor entirely, leaving du2/dw = -eta u2 D(u1(w), u2) with eta =
    kappa beta / c^2, carried to u1 = 1 - 1e-8 and closed with the
    analytic tail u2 ~ (1 - u1)^p, p = eta D(1, 0).  Four routes, each
    handing its map w -> u2 and p to ``_closed_profile``:

    * decoupled (kappa = 0 or nu = 0): u2 = nu throughout, p = 0;
    * constant D: the exact power law u2 = nu (1 - u1)^(eta D);
    * D = D(u2): u2(w) = U(eta w) on the model's substance curve U, which
      is solved once per model and shared by every (beta, c);
    * general D: one integration per (beta, c), rtol 1e-10, on the scalar
      DOP853 of ``_ode``, which takes solve_ivp's steps in plain floats
      and is read through its dense output.
    """
    if not c > 0.0:
        raise ConfigError(f"c must be > 0, got {c}")
    if not 0.0 < beta < 2.0:
        raise ConfigError(f"beta must lie in (0, 2), got {beta}")
    kappa, nu = model.kappa, model.nu
    coef = kappa * beta / (c * c)

    if kappa == 0.0 or nu == 0.0:
        return _closed_profile(
            model, beta, c, lambda w: np.full(np.shape(w), nu), 0.0
        )

    if not model.D_vars:
        # constant diffusivity: the slaved ODE is linear with constant
        # rate, u2 = nu (1 - u1)^(coef D), exact everywhere -- no need to
        # pay for an adaptive integration
        rate = coef * float(model.D_fn(0.0, nu))
        return _closed_profile(
            model, beta, c, lambda w: nu * np.exp(-rate * w), rate
        )

    if model.D_vars == {"u2"}:
        curve = _substance_curve(model)
        return _closed_profile(
            model, beta, c, lambda w: curve(coef * w), coef * curve.rate
        )

    D_fn = model.D_fn

    def rhs(w: float, y: float) -> float:
        u2 = 0.0 if y < 0.0 else nu if y > nu else y
        return -coef * y * float(D_fn(-expm1(-w), u2))

    sol = dop853(rhs, _W_MAX, nu, 1e-10, 1e-14 * max(nu, 1e-6))
    return _closed_profile(
        model,
        beta,
        c,
        lambda w: np.clip(sol(w), 0.0, nu),
        coef * float(D_fn(1.0, 0.0)),
    )


def _slaved_density(
    model: TwoSpeciesModel, profile: WaveProfile2
) -> Callable[[np.ndarray], np.ndarray]:
    """g(u1) = D f / u1 along the slaved profile, finite at u1 = 0."""
    D_fn, f_fn = model.D_fn, model.f_fn
    front = model.dfdu1_at_front

    def g(u1: np.ndarray) -> np.ndarray:
        u1 = np.asarray(u1, dtype=float)
        u2 = profile.u2_at(u1)
        tiny = u1 < 1e-300
        safe = np.where(tiny, 1.0, u1)
        ratio = np.where(tiny, front, f_fn(safe, u2) / safe)
        return np.asarray(D_fn(u1, u2), dtype=float) * ratio

    return g


def M_of_beta(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    profile: Optional[WaveProfile2] = None,
) -> float:
    """M(beta; c) = integral_0^1 D f u1^(-beta) (1-u1)^beta du1 along u2(u1)."""
    if profile is None or profile.beta != beta or profile.c != c:
        profile = solve_u2_profile(model, beta, c)
    g = _slaved_density(model, profile)
    # f(0, u2) = 0 is enforced at model construction, so g is bounded at
    # u1 = 0 and the divergence probe would be redundant work here.
    return beta_weighted_integral(g, beta, probe=False)


def G_of_beta(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    profile: Optional[WaveProfile2] = None,
) -> float:
    """G(beta; c) = beta M / B(2-beta, 2+beta); at beta = 2, its limit.

    As beta -> 2 the weight concentrates at u1 = 0, where u2 = nu, so the
    limit is the linearised-front value 2 D(0, nu) df/du1(0, nu) exactly
    as in the single-species case.
    """
    beta = float(beta)
    if beta == 2.0:
        return 2.0 * model.D_at_front * model.dfdu1_at_front
    M = M_of_beta(model, beta, c, profile)
    return beta * M / _beta(2.0 - beta, 2.0 + beta)


def landman_G_closed(beta: float, lam: float, kappa: float, c: float) -> float:
    """Closed form of G for the crowding model D = 1, f = u1(1-u1-lam*u2),
    far-field u2 = 1: with eta = kappa beta / c^2,

        G(beta) = beta [1 - 6 lam Gamma(1+beta+eta)
                         / (Gamma(3+eta) Gamma(2+beta))].

    At beta = 2 this collapses to 2(1 - lam) for every eta.  Used as an
    independent oracle for the quadrature path.
    """
    beta = float(beta)
    if not 0.0 < beta <= 2.0:
        raise ConfigError(f"beta must lie in (0, 2], got {beta}")
    if not c > 0.0:
        raise ConfigError(f"c must be > 0, got {c}")
    eta = kappa * beta / (c * c)
    lg = _log_gamma
    ratio = np.exp(lg(1.0 + beta + eta) - lg(3.0 + eta) - lg(2.0 + beta))
    return beta * (1.0 - 6.0 * lam * ratio)


def linear_speed_two_species(model: TwoSpeciesModel) -> float:
    """c_L = 2 sqrt(D(0, nu) df/du1(0, nu)), the leading-edge linearisation."""
    return 2.0 * sqrt(max(0.0, model.D_at_front * model.dfdu1_at_front))


# ----------------------------------------------------------------------
# Implicit speed
# ----------------------------------------------------------------------

_IMPLICIT_TOL = 1e-8
_MAX_ITER = 200
_DAMPED_BUDGET = 60


def _sup_G(
    model: TwoSpeciesModel,
    c: float,
    xtol: float,
    hint: Optional[float] = None,
) -> Tuple[float, float, int]:
    """sup over beta in (0, 2] of G(beta; c), boundary limit included.

    Returns (beta_star, G_star, n) with n the number of G evaluations.
    ``hint`` warm-starts the search with a local bracket around the
    previous maximiser; if the local bracket's edge wins, the full grid is
    rescanned (the maximiser moved).
    """
    G2 = G_of_beta(model, 2.0, c)
    # golden_max reads its bracket edges and mid, which the grid scan
    # solved; the cache makes those reads free
    seen: Dict[float, float] = {}

    def G(beta: float) -> float:
        beta = float(beta)
        if beta not in seen:
            seen[beta] = G_of_beta(model, beta, c)
        return seen[beta]

    def interior(lo: float, hi: float, n: int) -> Tuple[float, float]:
        betas = np.linspace(lo, hi, n)
        vals = np.array([G(b) for b in betas])
        i = int(np.argmax(vals))
        b_lo = float(betas[max(i - 1, 0)])
        b_hi = float(betas[min(i + 1, n - 1)])
        return golden_max(G, b_lo, b_hi, xtol=xtol, mid=float(betas[i]))

    full = (1e-3, 2.0 - 1e-3)
    local = None
    if hint is not None and hint < 2.0:
        lo = max(full[0], hint - 0.12)
        hi = min(full[1], hint + 0.12)
        local = interior(lo, hi, 5)
        # a maximiser pinned to the local bracket edge means the hint went
        # stale; fall through to the full scan
        if not lo + 1e-9 < local[0] < hi - 1e-9:
            local = None
    beta_i, G_i = local or interior(full[0], full[1], 24)
    if G2 >= G_i:
        beta_i, G_i = 2.0, G2
    return beta_i, G_i, len(seen) + 1


def solve_implicit_speed(model: TwoSpeciesModel) -> SpeedSolve:
    """Self-consistent speed: the smallest c with c^2 = 2 sup_beta G(beta; c).

    Damped fixed-point iteration c <- sqrt(2 sup G(c)) starting from the
    linear speed (floored at 0.2), with halving applied when successive
    updates alternate in sign; if 60 damped iterations fail to settle,
    bisection on h(c) = c^2 - 2 sup G(c) over [c0, 4 c0] takes over
    (h is increasing for degradation-type coupling: larger c weakens the
    slaved substance's drag).  Raises NonConvergenceError with the last
    bracket after 200 total iterations.  The settled c is re-maximised at
    xtol 1e-6; after the damped iteration up to three steps c <- sqrt(2
    sup G) polish it, after bisection none do.  ``stats`` counts the G
    evaluations and the maximisations over beta.
    """
    c_lin = linear_speed_two_species(model)
    c0 = max(c_lin, 0.2)
    c = c0
    prev_update = 0.0
    hint: Optional[float] = None
    iterations = 0
    converged = False
    stats = {"G_evals": 0, "sup_G_calls": 0}

    def sup_G(
        cc: float, xtol: float, hint: Optional[float] = None
    ) -> Tuple[float, float]:
        beta, G_val, n = _sup_G(model, cc, xtol, hint)
        stats["sup_G_calls"] += 1
        stats["G_evals"] += n
        return beta, G_val

    for _ in range(_DAMPED_BUDGET):
        iterations += 1
        beta_s, G_s = sup_G(c, xtol=1e-4, hint=hint)
        hint = beta_s
        target = sqrt(2.0 * max(G_s, 0.0))
        update = target - c
        if abs(update) < _IMPLICIT_TOL:
            c = target
            converged = True
            break
        if update * prev_update < 0.0:
            c = c + 0.5 * update
        else:
            c = target
        prev_update = update

    bisected = not converged
    if bisected:
        lo, hi = c0, 4.0 * c0

        def h(cc: float) -> float:
            _, G_s = sup_G(cc, xtol=1e-4)
            return cc * cc - 2.0 * max(G_s, 0.0)

        iterations += 2
        h_lo, h_hi = h(lo), h(hi)
        if h_lo > 0.0 or h_hi < 0.0:
            raise NonConvergenceError(
                "implicit speed iteration failed to bracket a root of "
                "c^2 - 2 sup G",
                bracket=(lo, hi),
            )
        while hi - lo > _IMPLICIT_TOL * max(1.0, lo):
            iterations += 1
            if iterations >= _MAX_ITER:
                raise NonConvergenceError(
                    "implicit speed iteration exceeded 200 iterations",
                    bracket=(lo, hi),
                )
            mid = 0.5 * (lo + hi)
            if h(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        c = 0.5 * (lo + hi)
        converged = True

    # tight final pass: re-maximise carefully at the settled speed and,
    # after the damped iteration, polish the fixed point until the reported
    # residual is honest.  Not after bisection: there the map c -> sqrt(2G)
    # is expanding, so each polish step would move c away from the root.
    beta_s, G_s = sup_G(c, xtol=1e-6)
    for _ in range(0 if bisected else 3):
        target = sqrt(2.0 * max(G_s, 0.0))
        if abs(target - c) < 1e-12:
            break
        c = target
        iterations += 1
        beta_s, G_s = sup_G(c, xtol=1e-6, hint=beta_s)
    residual = abs(c * c - 2.0 * max(G_s, 0.0))

    return SpeedSolve(
        c=c,
        iterations=iterations,
        residual=residual,
        epsilon=model.kappa * model.nu / c if c > 0 else float("inf"),
        converged=converged,
        beta_star=beta_s,
        c_linear=c_lin,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Optimality diagnostics
# ----------------------------------------------------------------------


def _phi(u: np.ndarray, beta: float) -> np.ndarray:
    return ((1.0 - u) / u) ** beta


def _d_du2(
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    u1: np.ndarray,
    u2: np.ndarray,
    nu: float,
    h: float = 1e-6,
) -> np.ndarray:
    """Central difference in u2, clamped so u2 + h never exceeds nu.

    Where the profile sits at the ceiling u2 = nu (the far field), a
    one-sided second-order backward difference is used instead.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    can_center = u2 + h <= nu
    up = np.where(can_center, u2 + h, u2)
    central = (
        np.asarray(fn(u1, up), dtype=float)
        - np.asarray(fn(u1, u2 - h), dtype=float)
    ) / (up - (u2 - h))
    one_sided = (
        3.0 * np.asarray(fn(u1, u2), dtype=float)
        - 4.0 * np.asarray(fn(u1, u2 - h), dtype=float)
        + np.asarray(fn(u1, u2 - 2.0 * h), dtype=float)
    ) / (2.0 * h)
    return np.where(can_center, central, one_sided)


def adjoint_product(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    profile: WaveProfile2,
) -> Callable[[float], float]:
    """The co-state combination u2*omega as a function of u1.

    Along the slaved profile the multiplier enforcing the substance ODE
    satisfies the quadrature representation

        u2(u1) omega(u1) = - integral_{u1}^1 [ u2 (phi' D v^2 - c v phi) dD/du2
                                               + u2 d(D f)/du2 phi ] dq

    evaluated at v = v*(q).  The first bracket vanishes identically at
    v = v* (it is the stationarity combination); it is kept so that the
    formula stays faithful for perturbed controls.  The u2-derivatives
    are central differences clamped at the far-field ceiling.
    """
    D_fn, f_fn = model.D_fn, model.f_fn
    nu = model.nu

    def Df(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
        return np.asarray(D_fn(u1, u2), dtype=float) * np.asarray(
            f_fn(u1, u2), dtype=float
        )

    def integrand(q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        u2 = profile.u2_at(q)
        D = np.asarray(D_fn(q, u2), dtype=float)
        phi = _phi(q, beta)
        # phi'(q) for phi = ((1-q)/q)^beta
        dphi = -beta * phi / (q * (1.0 - q))
        v = c * q * (1.0 - q) / (beta * D)
        stationarity = dphi * D * v * v - c * v * phi
        dD = _d_du2(D_fn, q, u2, nu)
        dDf = _d_du2(Df, q, u2, nu)
        return u2 * stationarity * dD + u2 * dDf * phi

    def u2_omega(u1: float) -> float:
        u1 = float(u1)
        if not 0.0 <= u1 < 1.0:
            if u1 == 1.0:
                return 0.0
            raise ConfigError(f"u1 must lie in [0, 1], got {u1}")
        lo = max(u1, 1e-12)
        val, _ = quad(integrand, lo, 1.0 - 1e-12, epsabs=1e-8, epsrel=1e-8)
        return -val

    return u2_omega


def pontryagin_residual(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    profile: WaveProfile2,
) -> float:
    """Size of the neglected co-state term in the control stationarity.

    At v = v* the cubic's first two terms cancel exactly, so what is left
    of  -phi' D^2 v^3 + c D phi v^2 + (kappa/c) omega u1 u2  is the
    adjoint piece alone.  Returned is

        max_q |(kappa/c) u2 omega q|  /  max_q |c D phi v*^2|,

    both maxima over the interior of the profile grid.  Scales like the
    weak-coupling parameter epsilon = kappa nu / c.
    """
    if model.kappa == 0.0 or model.nu == 0.0:
        return 0.0
    u2w = adjoint_product(model, beta, c, profile)
    grid = profile.u1_grid
    interior = grid[(grid > 1e-6) & (grid < 1.0 - 1e-9)]
    if len(interior) > 48:
        idx = np.unique(
            np.round(np.linspace(0, len(interior) - 1, 48)).astype(int)
        )
        interior = interior[idx]
    numer = max(
        abs(model.kappa / c * u2w(q) * q) for q in interior
    )
    u2_i = profile.u2_at(interior)
    D_i = np.asarray(model.D_fn(interior, u2_i), dtype=float)
    phi_i = _phi(interior, beta)
    v_i = c * interior * (1.0 - interior) / (beta * D_i)
    denom = float(np.max(np.abs(c * D_i * phi_i * v_i * v_i)))
    return numer / denom


@dataclass(frozen=True)
class WeakCouplingReport:
    """Validity indicators for the slaved-profile approximation."""

    epsilon: float
    crowding_ratio: float  # lam * kappa / c for crowding-coupled reactions
    valid: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "epsilon": self.epsilon,
            "crowding_ratio": self.crowding_ratio,
            "valid": self.valid,
        }


def weak_coupling_report(
    model: TwoSpeciesModel, solve: SpeedSolve
) -> WeakCouplingReport:
    """Judge whether the slaving approximation is trustworthy at this solve.

    epsilon = kappa nu / c must be small for the leading-order reduction;
    models whose reaction is u2-crowded (a ``lambda`` parameter) also need
    lam kappa / c < 1, the threshold beyond which the crowding term can no
    longer be treated perturbatively.
    """
    lam = float(model.params.get("lambda", 0.0))
    ratio = lam * model.kappa / solve.c if solve.c > 0 else float("inf")
    return WeakCouplingReport(
        epsilon=solve.epsilon,
        crowding_ratio=ratio,
        valid=bool(solve.epsilon < 1.0 and ratio < 1.0),
    )
