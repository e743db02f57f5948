"""Variational lower bounds on travelling-wave speeds (single species).

For rho_t = (D(rho) rho_x)_x + f(rho) with f(0) = f(1) = 0, testing the
wave against the decreasing profile family phi_beta(u) = ((1-u)/u)**beta
turns the speed-selection problem into a one-parameter maximisation:

    c**2 / 2  >=  F(beta) = beta * N(beta) / B(2-beta, 2+beta),
    N(beta)   =  integral_0^1 D(u) f(u) u**(-beta) (1-u)**beta du,

for beta in (0, 2), where B is the Euler beta function.  The family
degenerates as beta -> 2 into the sharp linearised-front value

    lim_{beta->2} F(beta) = 2 D(0) f'(0),

so sup F never undercuts the classical pulled speed
c_linear = 2 sqrt(D(0) f'(0)) and strictly exceeds it exactly when the
front is pushed (driven by the nonlinear bulk rather than the leading
edge).  ``sup_F`` packages the maximisation; ``selection_criterion``
gives an independent pushed/pulled classification from a weighted
integral of the growth density; ``fisher_stefan_bound`` treats the
moving-boundary (Stefan-type) variant where the front obeys
ds/dt = -kappa rho_x.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import exp, isfinite, lgamma, sqrt
from typing import Callable, Dict, Tuple

import numpy as np

from ._quad import (
    _probe_divergence,
    _q_for,
    beta_weighted_integral,
    beta_weighted_on_mesh,
    frozen_beta_mesh,
    frozen_beta_meshes,
    quad,
)
from ._search import golden_max
from .errors import ConfigError
from .model import ScalarModel, _fd_derivative

__all__ = [
    "BoundResult",
    "CriterionReport",
    "F_of_beta",
    "F_limit_beta2",
    "linear_speed",
    "sup_F",
    "closed_form_F",
    "selection_criterion",
    "fisher_stefan_bound",
]

# beta grid edges: the objective vanishes linearly at 0 and approaches its
# boundary limit at 2, so the interior scan stops 1e-3 short of both.
_BETA_LO = 1e-3
_BETA_HI = 2.0 - 1e-3
_GRID_SIZE = 64

# The interior maximum must clear the boundary value by this much before
# the front is called pushed; ties within the band are indeterminate.
_SELECTION_TOL = 1e-7

# The derivative polish bisects F'(beta) = 0 down to a bracket this wide.
_POLISH_STOP = 1e-9 * 1e-2


@dataclass(frozen=True)
class BoundResult:
    """Outcome of the speed-bound maximisation for one model."""

    beta_star: float
    F_star: float
    c_lb: float
    c_linear: float
    selection: str  # "pulled" | "pushed" | "indeterminate"
    attained_at_boundary: bool

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0; ``math.lgamma`` alone also accepts negative
    non-integers, where the closed forms below have no meaning."""
    if not x > 0.0:
        raise ValueError(f"log Gamma requires x > 0, got {x!r}")
    return lgamma(x)


def _beta(a: float, b: float) -> float:
    """Euler Beta B(a, b), a, b > 0, in log space so large arguments stay finite."""
    return exp(_log_gamma(a) + _log_gamma(b) - _log_gamma(a + b))


def F_of_beta(model: ScalarModel, beta: float) -> float:
    """The bound objective F(beta) = beta N(beta) / B(2-beta, 2+beta);
    0 at beta = 0 and ``F_limit_beta2`` at beta = 2."""
    beta = float(beta)
    if not 0.0 <= beta <= 2.0:
        raise ConfigError(f"beta must lie in [0, 2], got {beta}")
    if beta == 0.0:
        return 0.0
    if beta == 2.0:
        return F_limit_beta2(model)
    g = model.DR_fn()
    _probe_divergence(g, beta)
    N = beta_weighted_integral(g, beta)
    return beta * N / _beta(2.0 - beta, 2.0 + beta)


def F_limit_beta2(model: ScalarModel) -> float:
    """lim_{beta->2} F(beta) = 2 D(0) f'(0), the linearised-front value."""
    return 2.0 * model.D0 * model.fprime0


def linear_speed(model: ScalarModel) -> float:
    """c_linear = 2 sqrt(D(0) f'(0)), clamped to 0 for degenerate fronts."""
    return 2.0 * sqrt(max(0.0, model.D0 * model.fprime0))


# The beta grid never changes, so neither do its substitution-exponent
# groups (15 consecutive runs of one q = ceil(2 / (2 - beta))) nor its
# denominators B(2 - beta, 2 + beta).
_GRID_BETAS = np.linspace(_BETA_LO, _BETA_HI, _GRID_SIZE)
_GRID_QS = [_q_for(b) for b in _GRID_BETAS]
_GRID_CUTS = [0, *(np.flatnonzero(np.diff(_GRID_QS)) + 1), _GRID_SIZE]
_GRID_GROUPS = tuple(slice(a, b) for a, b in zip(_GRID_CUTS, _GRID_CUTS[1:]))
_GRID_B = np.array([_beta(2.0 - b, 2.0 + b) for b in _GRID_BETAS])


def _grid_values(
    g: Callable[[np.ndarray], np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """F on the beta grid, by q group: one mesh frozen at each group's
    largest beta (all 15 adapted in lockstep), one array call each."""
    meshes = frozen_beta_meshes(g, [_GRID_BETAS[s.stop - 1] for s in _GRID_GROUPS])
    values = np.empty(_GRID_SIZE)
    for group, mesh in zip(_GRID_GROUPS, meshes):
        betas = _GRID_BETAS[group]
        N = beta_weighted_on_mesh(betas, mesh)
        values[group] = betas * N / _GRID_B[group]
    return _GRID_BETAS, values


def _interior_max(g: Callable[[np.ndarray], np.ndarray]) -> Tuple[float, float]:
    """Maximise F over the open interval for the density g = D f / u:
    grid scan, Brent's search from the grid argmax, then a derivative
    root-polish.  Returns (beta*, F(beta*)), with F(beta*) computed as
    ``F_of_beta`` does, on a partition adapted afresh.

    Two numerical obstacles shape this routine.  Re-adapting the
    quadrature partition at every beta makes F noisy at the 1e-10 level,
    so the refinement works on a frozen substitution mesh, on which F is
    smooth in beta (observed mesh-induced argmax displacement ~2e-11).
    And near the maximum F varies only quadratically, so *values* of F
    cannot distinguish betas closer than ~sqrt(eps/|F''|) ~ 1e-8;
    the search therefore stops at 1e-6 and the final localisation
    bisects the Richardson-extrapolated central difference F'(beta) to
    a ~1e-11 bracket, which value noise does not limit.
    """
    betas, values = _grid_values(g)
    i = int(np.argmax(values))
    lo = float(betas[max(i - 1, 0)])
    hi = float(betas[min(i + 1, len(betas) - 1)])

    mesh = frozen_beta_mesh(g, hi, eps=1e-13)

    def F_frozen(b: float) -> float:
        return b * beta_weighted_on_mesh(b, mesh) / _beta(2.0 - b, 2.0 + b)

    beta_star, _ = golden_max(F_frozen, lo, hi, xtol=1e-6, mid=float(betas[i]))

    h = 1e-4
    p_lo = max(beta_star - 3e-5, lo, _BETA_LO)
    p_hi = min(beta_star + 3e-5, hi, _BETA_HI - 2.0 * h)
    if p_lo < p_hi:

        def dF(b: float) -> float:
            # the four stencil points in one array call, which equals
            # four scalar F_frozen calls bit for bit
            stencil = (b + h, b - h, b + h / 2.0, b - h / 2.0)
            N = beta_weighted_on_mesh(np.array(stencil), mesh).tolist()
            F_pp, F_mm, F_p, F_m = (
                x * n / _beta(2.0 - x, 2.0 + x) for x, n in zip(stencil, N)
            )
            wide = (F_pp - F_mm) / (2.0 * h)
            narrow = (F_p - F_m) / h
            return (4.0 * narrow - wide) / 3.0

        d_lo, d_hi = dF(p_lo), dF(p_hi)
        if d_lo > 0.0 > d_hi:  # interior max strictly inside; bisect F' = 0
            while p_hi - p_lo > _POLISH_STOP:
                mid = 0.5 * (p_lo + p_hi)
                if dF(mid) > 0.0:
                    p_lo = mid
                else:
                    p_hi = mid
            beta_star = 0.5 * (p_lo + p_hi)
    N = beta_weighted_integral(g, beta_star)
    return beta_star, beta_star * N / _beta(2.0 - beta_star, 2.0 + beta_star)


def sup_F(model: ScalarModel) -> BoundResult:
    """Maximise the bound over the test family, boundary limit included.

    The reported bound is c_lb = sqrt(2 F_star) with
    F_star = max(interior max of F, lim_{beta->2} F, 0).  Selection is
    "pushed" when the interior maximum clears the boundary limit by more
    than 1e-7, "pulled" when the boundary wins by the same margin, and
    "indeterminate" inside the band (with attained_at_boundary = True
    whenever the boundary value is within 1e-9 of the winner).
    """
    g = model.DR_fn()
    _probe_divergence(g, _BETA_HI)
    beta_int, F_int = _interior_max(g)
    F_bnd = F_limit_beta2(model)
    if F_int > F_bnd + _SELECTION_TOL:
        selection, attained = "pushed", False
    elif F_bnd > F_int + _SELECTION_TOL:
        selection, attained = "pulled", True
    else:
        selection = "indeterminate"
        attained = F_bnd >= F_int - 1e-9
    if attained:
        beta_star, F_star = 2.0, F_bnd
    else:
        beta_star, F_star = beta_int, F_int
    F_star = max(F_star, 0.0)
    return BoundResult(
        beta_star=beta_star,
        F_star=F_star,
        c_lb=sqrt(2.0 * F_star),
        c_linear=linear_speed(model),
        selection=selection,
        attained_at_boundary=attained,
    )


# ----------------------------------------------------------------------
# Closed forms for specific families (independent cross-checks)
# ----------------------------------------------------------------------


def closed_form_F(kind: str, beta: float, **params: float) -> float:
    """F(beta) in closed form for families where N(beta) reduces to Gammas.

    kinds:
      * ``wound``  (m >= 0, n > 0): the cell-motility family D = u^m,
        f = u(1 - u^n), where N is a difference of two beta functions;
      * ``porous_n1`` (m >= 0): the n = 1 case in fully reduced form;
      * ``allee`` (alpha, a): D = alpha u + u^2, f = u(1 - u)(u - a),
        where F is a polynomial in beta, valid on all of [0, 2].

    These exist to cross-validate the quadrature path, not to replace it.
    Raises ValueError when a Gamma argument falls outside its domain.
    """
    beta = float(beta)
    lg = _log_gamma
    if kind == "wound":
        m, n = float(params.pop("m")), float(params.pop("n"))
        _no_extras(kind, params)
        _check_beta_open(beta)
        if beta == 0.0:
            return 0.0
        lead = lg(m + 2.0 - beta) - lg(2.0 - beta) - lg(m + 3.0)
        trail = lg(m + n + 2.0 - beta) - lg(2.0 - beta) - lg(m + n + 3.0)
        return 6.0 * beta / (1.0 + beta) * (exp(lead) - exp(trail))
    if kind == "porous_n1":
        m = float(params.pop("m"))
        _no_extras(kind, params)
        _check_beta_open(beta)
        if beta == 0.0:
            return 0.0
        return 6.0 * beta * exp(lg(m + 2.0 - beta) - lg(m + 4.0) - lg(2.0 - beta))
    if kind == "allee":
        alpha, a = float(params.pop("alpha")), float(params.pop("a"))
        _no_extras(kind, params)
        if not 0.0 <= beta <= 2.0:
            raise ConfigError(f"beta must lie in [0, 2], got {beta}")
        bracket = (3.0 - beta) * (4.0 - beta + 6.0 * (alpha - a)) - 30.0 * alpha * a
        return beta * (2.0 - beta) / 120.0 * bracket
    raise ConfigError(
        f"unknown closed form {kind!r}; available: wound, porous_n1, allee"
    )


def _check_beta_open(beta: float) -> None:
    if not 0.0 <= beta < 2.0:
        raise ConfigError(f"beta must lie in [0, 2), got {beta}")


def _no_extras(kind: str, params: Dict[str, float]) -> None:
    if params:
        raise ConfigError(
            f"closed form {kind!r} got unexpected parameter(s): "
            f"{', '.join(sorted(params))}"
        )


# ----------------------------------------------------------------------
# Pushed/pulled classification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of the pushed/pulled integral criterion."""

    classification: str  # "pushed" | "pulled_candidate" | "degenerate_pushed"
    lhs: float
    rhs: float
    c_linear: float

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def selection_criterion(model: ScalarModel) -> CriterionReport:
    """Classify the front without running the full maximisation.

    With g(u) = D(u) f(u) / u (extended by g(0) = D(0) f'(0)), the wave
    is pushed whenever

        integral_0^1 (g(u) - g(0)) / u * (1 - u)**2 du  >  g(0) / 6;

    otherwise only the necessary condition fails and the front is a
    "pulled_candidate" (pushedness by a test function outside the family
    is not excluded).  Fronts with g(0) = 0 and a non-negative reaction
    are degenerate: the linearised speed is 0, so any positive bound is
    nonlinearly selected ("degenerate_pushed").

    The integrand's removable 0/0 at u = 0 is handled by splitting off
    [0, 1e-5] analytically: there (g(u)-g(0))/u = g'(0) + O(u), so the
    head contributes g'(0) (a - a^2 + a^3/3) + O(a^2), keeping the total
    accurate to ~1e-9.
    """
    g = model.DR_fn()
    g0 = float(g(0.0))
    f_grid = model.f_fn(np.linspace(0.0, 1.0, 201))
    degenerate = abs(model.D0 * model.fprime0) <= 1e-14 and float(
        np.min(f_grid)
    ) >= -1e-12

    a = 1e-5
    gp0 = _fd_derivative(lambda u: float(g(u)))
    head = gp0 * (a - a * a + a**3 / 3.0)

    def integrand(u: np.ndarray) -> np.ndarray:
        return (g(u) - g0) / u * (1.0 - u) ** 2

    tail, _ = quad(integrand, a, 1.0, eps=1e-12)
    lhs = head + tail
    rhs = g0 / 6.0

    if degenerate:
        classification = "degenerate_pushed"
    elif lhs > rhs:
        classification = "pushed"
    else:
        classification = "pulled_candidate"
    return CriterionReport(
        classification=classification, lhs=lhs, rhs=rhs, c_linear=linear_speed(model)
    )


# ----------------------------------------------------------------------
# Moving-boundary (Stefan-type) invasion
# ----------------------------------------------------------------------


def fisher_stefan_bound(kappa: float) -> float:
    """Lower bound on the invasion speed for logistic growth behind a
    moving boundary with Stefan condition  ds/dt = -kappa rho_x  at the
    front.

    The exponential test profile phi(u) = e^(-kappa u), whose boundary
    weight is compatible with the Stefan condition (boundary value =
    bulk value / kappa), gives

        c_lb(kappa) = sqrt( 2 [kappa - 2 + e^(-kappa) (2 + kappa)]
                            / [kappa (2 - e^(-kappa))] ).

    The numerator cancels to O(kappa^3), so for kappa <= 0.01 it is
    evaluated by its series kappa^3 (1/6 - kappa/12 + kappa^2/40 -
    kappa^3/180 + ...), which reproduces the small-kappa behaviour
    c_lb ~ kappa / sqrt(3) without loss of significance.  The bound
    increases towards 1 as kappa -> infinity.
    """
    kappa = float(kappa)
    if not (isfinite(kappa) and kappa > 0.0):
        raise ConfigError(f"kappa must be finite and > 0, got {kappa}")
    if kappa <= 0.01:
        num = kappa**3 * (
            1.0 / 6.0 - kappa / 12.0 + kappa**2 / 40.0 - kappa**3 / 180.0
        )
    else:
        num = kappa - 2.0 + exp(-kappa) * (2.0 + kappa)
    den = kappa * (2.0 - exp(-kappa))
    return sqrt(2.0 * num / den)
