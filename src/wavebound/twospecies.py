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
``WaveProfile2`` built by ``_closed_profile`` from one map w -> u2 on
w = -ln(1 - u1), valid on all of [0, inf].  Both profiles built by an ODE
come from ``_stopped_dop853``: one DOP853 run that stops once u2 is at or
below 1e-12 nu, or at its end, and one exponential tail past its last step.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import expm1, inf, log, sqrt
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ._ode import dop853
from ._quad import beta_weighted_integral, quad
from ._search import golden_max
from .errors import (
    ConfigError,
    DegenerateDiffusionError,
    ModelError,
    NonConvergenceError,
)
from .model import TwoSpeciesModel
from .varbound import _BETA_HI, _BETA_LO, _beta, _log_gamma

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

# the u1 grid on which every profile's D is probed
_CLOSED_U1 = np.append(np.linspace(0.0, 1.0 - 1e-8, 160), 1.0)
# the general-D profile ODE is integrated in w = -ln(1 - u1) up to at most
# this cut, u1 = 1 - 1e-8
_W_MAX = -log(1e-8)


@dataclass(frozen=True, eq=False)
class WaveProfile2:
    """The slaved substance profile u2(u1) for one (beta, c) pair."""

    beta: float
    c: float
    nu: float
    _u2_of_w: Callable[[np.ndarray], np.ndarray]

    def u2_at(self, u1: np.ndarray) -> np.ndarray:
        """Evaluate u2 at arbitrary u1 in [0, 1] (vectorised), through the
        profile's map w -> u2 at w = -ln(1 - u1): a closed form, or a
        ``_stopped_dop853`` map (the substance curve or the general-D ODE).

        A huge kappa overflows the map's rate to inf (and 0 * inf is NaN);
        the quadrature then reports the non-finite integrand.
        """
        u1 = np.asarray(u1, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return np.clip(self._u2_of_w(-np.log1p(-u1)), 0.0, self.nu)


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
        return asdict(self)


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


def _stopped_dop853(
    rhs: Callable, t_end: float, nu: float, rtol: float, atol: float, rate: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The map t -> y of y' = rhs(t, y), y(0) = nu, on all of [0, inf].

    ``_ode.dop853`` integrates up to t_end, or up to the first step that
    ends at or below 1e-12 nu.  The map reads its dense output up to that
    last step (t_last, y_last) and the exponential tail
    y_last e^(-rate (t - t_last)) past it.
    """
    sol = dop853(rhs, t_end, nu, rtol, atol, y_stop=1e-12 * nu)
    t_last, y_last = float(sol.t[-1]), float(sol.y[-1])

    def y_of_t(t: np.ndarray) -> np.ndarray:
        inside = sol(np.minimum(t, t_last))
        tail = y_last * np.exp(-rate * np.maximum(t - t_last, 0.0))
        return np.where(t <= t_last, inside, tail)

    return y_of_t


def _substance_curve(model: TwoSpeciesModel) -> Callable[[np.ndarray], np.ndarray]:
    """The slaved substance curve U(t) of a model whose D depends on u2 only,
    built on first use and kept on the model.

    For D = D(u2) the profile ODE du2/dw = -eta u2 D(u2), eta = kappa
    beta / c^2, is autonomous, so every (beta, c) profile is one curve
    read at a different rate: u2(w) = U(eta w), where

        dU/dt = -U D(U),    U(0) = nu,

    solved by ``_stopped_dop853`` at rtol 1e-12 up to t = 1e6, with its
    tail at rate D(0).
    """
    curve = model.__dict__.get("_substance_curve")
    if curve is not None:
        return curve
    D_fn, nu = model.D_fn, model.nu
    rate = float(D_fn(0.0, 0.0))
    if rate <= 1e-14:
        raise DegenerateDiffusionError(
            "D(u1, 0) vanishes: the slaved substance has no decay rate "
            "far behind the front"
        )

    def rhs(t: float, y: float) -> float:
        return -y * float(D_fn(0.0, 0.0 if y < 0.0 else nu if y > nu else y))

    # atol: 1e-3 of the stop level 1e-12 nu
    curve = _stopped_dop853(rhs, 1e6, nu, 1e-12, 1e-3 * (1e-12 * nu), rate)
    # if U has not decayed by t = 1e6, D(u2) vanishes somewhere in (0, nu]
    if curve(1e6) > 1e-12 * nu:
        raise DegenerateDiffusionError(
            "D(u2) vanishes between 0 and nu: the slaved substance "
            "never decays"
        )
    object.__setattr__(model, "_substance_curve", curve)
    return curve


def _closed_profile(
    model: TwoSpeciesModel,
    beta: float,
    c: float,
    u2_of_w: Callable[[np.ndarray], np.ndarray],
) -> WaveProfile2:
    """The profile u2 = u2_of_w(w), w = -ln(1 - u1).

    D is probed on a fixed 161-point u1 grid, with u2 at u1 = 1 the far
    field nu when nothing degrades the substance (kappa = 0) and 0
    otherwise: a profile along which D vanishes is refused.
    """
    profile = WaveProfile2(beta, c, model.nu, u2_of_w)
    u2 = np.append(
        profile.u2_at(_CLOSED_U1[:-1]), model.nu if model.kappa == 0.0 else 0.0
    )
    _nondegenerate_D(model, _CLOSED_U1, u2)
    return profile


def solve_u2_profile(model: TwoSpeciesModel, beta: float, c: float) -> WaveProfile2:
    """The slaved substance profile u2(u1) from (u1, u2) = (0, nu) to u1 = 1.

    The equation du2/du1 = -(kappa beta / c^2) u2 D / (1 - u1) is stiff in
    u1 near the far edge; substituting w = -ln(1 - u1) removes the 1/(1-u1)
    factor entirely, leaving du2/dw = -eta u2 D(u1(w), u2) with eta =
    kappa beta / c^2.  Four routes, each handing one map w -> u2, valid on
    all of [0, inf], to ``_closed_profile``:

    * decoupled (kappa = 0 or nu = 0): u2 = nu throughout;
    * constant D: the exact power law u2 = nu (1 - u1)^(eta D);
    * D = D(u2): u2(w) = U(eta w) on the model's substance curve U, which
      is solved once per model and shared by every (beta, c);
    * general D: one integration in w per (beta, c), rtol 1e-10.

    The last two are ``_stopped_dop853`` maps: the scalar DOP853 of
    ``_ode`` runs until u2 is at or below 1e-12 nu, or to its end (t = 1e6
    on the curve, the cut u1 = 1 - 1e-8 in w), and an exponential tail
    takes over past its last step, at rate D(0) on the curve and
    eta D(1, 0) in w.  So a stiff profile at large kappa stops as soon as it
    has decayed, instead of taking steps near 3/eta all the way to the cut.
    """
    if not c > 0.0:
        raise ConfigError(f"c must be > 0, got {c}")
    if not 0.0 < beta < 2.0:
        raise ConfigError(f"beta must lie in (0, 2), got {beta}")
    kappa, nu = model.kappa, model.nu
    coef = kappa * beta / (c * c)

    if kappa == 0.0 or nu == 0.0:
        return _closed_profile(model, beta, c, lambda w: np.full(np.shape(w), nu))

    if not model.D_vars:
        # constant diffusivity: the slaved ODE is linear with constant
        # rate, u2 = nu (1 - u1)^(coef D), exact everywhere -- no need to
        # pay for an adaptive integration
        rate = coef * float(model.D_fn(0.0, nu))
        return _closed_profile(model, beta, c, lambda w: nu * np.exp(-rate * w))

    if model.D_vars == {"u2"}:
        curve = _substance_curve(model)
        return _closed_profile(model, beta, c, lambda w: curve(coef * w))

    D_fn = model.D_fn

    def rhs(w: float, y: float) -> float:
        u2 = 0.0 if y < 0.0 else nu if y > nu else y
        return -coef * y * float(D_fn(-expm1(-w), u2))

    rate = coef * float(D_fn(1.0, 0.0))
    u2_of_w = _stopped_dop853(rhs, _W_MAX, nu, 1e-10, 1e-14 * max(nu, 1e-6), rate)
    return _closed_profile(model, beta, c, u2_of_w)


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


def M_of_beta(model: TwoSpeciesModel, beta: float, c: float) -> float:
    """M(beta; c) = integral_0^1 D f u1^(-beta) (1-u1)^beta du1 along u2(u1)."""
    g = _slaved_density(model, solve_u2_profile(model, beta, c))
    # f(0, u2) = 0 is enforced at model construction, so g is bounded at
    # u1 = 0 and needs no divergence probe
    return beta_weighted_integral(g, beta)


def G_of_beta(model: TwoSpeciesModel, beta: float, c: float) -> float:
    """G(beta; c) = beta M / B(2-beta, 2+beta); at beta = 2, its limit.

    As beta -> 2 the weight concentrates at u1 = 0, where u2 = nu, so the
    limit is the linearised-front value 2 D(0, nu) df/du1(0, nu) exactly
    as in the single-species case.
    """
    beta = float(beta)
    if beta == 2.0:
        return 2.0 * model.D_at_front * model.dfdu1_at_front
    M = M_of_beta(model, beta, c)
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

    local = None
    if hint is not None and hint < 2.0:
        lo = max(_BETA_LO, hint - 0.12)
        hi = min(_BETA_HI, hint + 0.12)
        local = interior(lo, hi, 5)
        # a maximiser pinned to the local bracket edge means the hint went
        # stale; fall through to the full scan
        if not lo + 1e-9 < local[0] < hi - 1e-9:
            local = None
    beta_i, G_i = local or interior(_BETA_LO, _BETA_HI, 24)
    if G2 >= G_i:
        beta_i, G_i = 2.0, G2
    return beta_i, G_i, len(seen) + 1


def solve_implicit_speed(model: TwoSpeciesModel) -> SpeedSolve:
    """Self-consistent speed: the smallest c with c^2 = 2 sup_beta G(beta; c).

    One loop from the linear speed (floored at 0.2).  Each iteration
    maximises G at c and proposes the damped fixed-point step c <- sqrt(2
    sup G), halved when successive updates alternate in sign.  Each update
    also narrows a bracket (lo, hi), first (0, inf), on the root of h(c) =
    c^2 - 2 sup G(c): h is increasing for degradation-type coupling (larger
    c weakens the slaved substance's drag), so a positive update raises lo
    and a negative one lowers hi.  The step is taken if it lies strictly
    inside the bracket, during the first 60 iterations or while hi is
    unbounded; otherwise c moves to the bracket's midpoint.  The loop stops
    when the update drops below 1e-8 (c takes the fixed-point value) or the
    bracket of a midpoint step is narrower than 1e-8 max(1, lo), and raises
    NonConvergenceError with the last bracket after 200 iterations.  A model
    whose sup G is <= 0 at every c tried (no positive update, so lo stays
    0) has no positive speed and raises ModelError.

    The settled c is re-maximised at xtol 1e-6, then polished by up to three
    steps c <- sqrt(2 sup G), each kept only if its update is smaller than
    the one before.  ``stats`` counts the G evaluations and the
    maximisations over beta.
    """
    c_lin = linear_speed_two_species(model)
    c = max(c_lin, 0.2)
    lo, hi = 0.0, inf
    prev_update = 0.0
    hint: Optional[float] = None
    stats = {"G_evals": 0, "sup_G_calls": 0}

    def sup_G(
        cc: float, xtol: float, hint: Optional[float] = None
    ) -> Tuple[float, float, float]:
        # (beta*, sup G, the fixed-point target sqrt(2 sup G)) at cc
        beta, G_val, n = _sup_G(model, cc, xtol, hint)
        stats["sup_G_calls"] += 1
        stats["G_evals"] += n
        return beta, G_val, sqrt(2.0 * max(G_val, 0.0))

    for iterations in range(1, _MAX_ITER + 1):
        hint, _, target = sup_G(c, xtol=1e-4, hint=hint)
        update = target - c
        if abs(update) < _IMPLICIT_TOL:
            c = target
            break
        if update > 0.0:
            lo = c
        else:
            hi = c
        step = c + 0.5 * update if update * prev_update < 0.0 else target
        prev_update = update
        if lo < step < hi and (iterations < _DAMPED_BUDGET or hi == inf):
            c = step
        else:
            c = 0.5 * (lo + hi)
            if hi - lo < _IMPLICIT_TOL * max(1.0, lo):
                break
    else:
        raise NonConvergenceError(
            "implicit speed iteration exceeded 200 iterations", bracket=(lo, hi)
        )
    if lo == 0.0 and target == 0.0:
        raise ModelError(
            "the model has no positive self-consistent speed: sup over beta "
            "of G(beta; c) is <= 0 at every c tried"
        )

    # tight final pass: re-maximise carefully at the settled speed, then
    # polish while the fixed-point steps contract; a step whose update grows
    # (the map c -> sqrt(2G) is expanding there) would move c off the root
    beta_s, G_s, target = sup_G(c, xtol=1e-6)
    for _ in range(3):
        update = target - c
        if abs(update) < 1e-12:
            break
        iterations += 1
        trial = sup_G(target, xtol=1e-6, hint=beta_s)
        if abs(trial[2] - target) >= abs(update):
            break
        c = target
        beta_s, G_s, target = trial
    residual = abs(c * c - 2.0 * max(G_s, 0.0))

    return SpeedSolve(
        c=c,
        iterations=iterations,
        residual=residual,
        epsilon=model.kappa * model.nu / c if c > 0 else float("inf"),
        converged=True,
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

        u2(u1) omega(u1) = - integral_{u1}^1 u2 d(D f)/du2 phi dq.

    The pointwise Hamiltonian c phi D v + phi' D^2 v^2 / 2 also depends on
    u2 through D, but its derivative (c phi v + phi' D v^2) dD/du2 vanishes
    at the control v* = c q (1-q) / (beta D), where c phi + phi' D v* = 0.
    d(D f)/du2 is a central difference clamped at the far-field ceiling.
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
        return u2 * _d_du2(Df, q, u2, nu) * _phi(q, beta)

    def u2_omega(u1: float) -> float:
        u1 = float(u1)
        if not 0.0 <= u1 < 1.0:
            if u1 == 1.0:
                return 0.0
            raise ConfigError(f"u1 must lie in [0, 1], got {u1}")
        lo = max(u1, 1e-12)
        val, _ = quad(integrand, lo, 1.0 - 1e-12, eps=1e-8)
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
    of  phi' D^2 v^3 + c D phi v^2 + (kappa/c) omega u1 u2  is the
    adjoint piece alone.  Returned is

        max_q |(kappa/c) u2 omega q|  /  max_q |c D phi v*^2|,

    both maxima over 48 interior points of the 161-point u1 grid that
    ``_closed_profile`` probes D on.  Scales like the
    weak-coupling parameter epsilon = kappa nu / c.
    """
    if model.kappa == 0.0 or model.nu == 0.0:
        return 0.0
    u2w = adjoint_product(model, beta, c, profile)
    grid = _CLOSED_U1[(_CLOSED_U1 > 1e-6) & (_CLOSED_U1 < 1.0 - 1e-9)]
    interior = grid[np.round(np.linspace(0, len(grid) - 1, 48)).astype(int)]
    numer = max(
        abs(model.kappa / c * u2w(q) * q) for q in interior
    )
    u2_i = profile.u2_at(interior)
    D_i = np.asarray(model.D_fn(interior, u2_i), dtype=float)
    phi_i = _phi(interior, beta)
    v_i = v_star(model, beta, c, interior, u2_i)
    denom = float(np.max(np.abs(c * D_i * phi_i * v_i * v_i)))
    return numer / denom


@dataclass(frozen=True)
class WeakCouplingReport:
    """Validity indicators for the slaved-profile approximation."""

    epsilon: float
    crowding_ratio: float  # lam * kappa / c for crowding-coupled reactions
    valid: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


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
