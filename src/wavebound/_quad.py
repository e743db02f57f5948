"""Adaptive Gauss--Kronrod quadrature and beta-weighted integrals.

Two layers live here:

* a generic vectorised adaptive G7/K15 integrator (``quad``), plus a
  frozen-partition evaluator (``quad_on_mesh``) for objectives that must
  be *smooth* in an outer parameter -- re-adapting the partition for every
  parameter value injects noise at the 1e-10 level, which is poison for
  an outer maximiser chasing 1e-8 brackets;

* ``beta_weighted_integral`` and friends, which compute

      integral_0^1  g(u) * u**(1 - beta) * (1 - u)**beta  du

  for beta in [0, 2).  Here ``g`` plays the role of D(u) * f(u) / u and is
  expected to be finite at u = 0.  The weight is integrable but steep: for
  beta close to 2 almost all of the mass sits at exponentially small u.
  We substitute u = s**q with q = ceil(2 / (2 - beta)), which turns the
  integrand into

      q * s**(q*(2 - beta) - 1) * g(u) * (1 - u)**beta,

  whose s-exponent lies in [1, 3) -- benign.  The catch is that u itself
  underflows (u = s**q is 0.0 in double precision over much of the s-range
  when q ~ 1000), so u and 1 - u are formed from q*log(s) with exp/expm1
  and ``g`` must tolerate u == 0.0 exactly.

A ``FrozenBetaMesh`` caches g, log(s) and 1 - u on its GK15 nodes, so
``beta_weighted_on_mesh`` only forms the weights, for one beta or an array.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DivergentIntegralError, QuadratureError

__all__ = [
    "quad",
    "quad_on_mesh",
    "adaptive_mesh",
    "beta_weighted_integral",
    "frozen_beta_mesh",
    "beta_weighted_on_mesh",
    "FrozenBetaMesh",
]

DEFAULT_EPS = 1e-10

# QUADPACK 15-point Kronrod extension of 7-point Gauss, abscissae in (0, 1].
_XGK = np.array(
    [
        0.9914553711208126,
        0.9491079123427585,
        0.8648644233597691,
        0.7415311855993944,
        0.5860872354676911,
        0.4058451513773972,
        0.2077849550078985,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.0229353220105292,
        0.0630920926299786,
        0.1047900103222502,
        0.1406532597155259,
        0.1690047266392679,
        0.1903505780647854,
        0.2044329400752989,
        0.2094821410847278,
    ]
)
_WG = np.array(
    [
        0.1294849661688697,
        0.2797053914892767,
        0.3818300505051189,
        0.4179591836734694,
    ]
)

_K15_NODES = np.concatenate((-_XGK[:7], [0.0], _XGK[6::-1]))
_K15_WEIGHTS = np.concatenate((_WGK[:7], [_WGK[7]], _WGK[6::-1]))
_G7_WEIGHTS = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])


def _nodes(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """GK15 abscissae, one row per panel [a_i, b_i], and the half-widths."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[:, None] + half[:, None] * _K15_NODES[None, :], half


def _eval_panels(
    f: Callable[[np.ndarray], np.ndarray], a: np.ndarray, b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Kronrod value and |K15 - G7| error estimate for each panel [a_i, b_i]."""
    x, half = _nodes(a, b)
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        bad = x.ravel()[~np.isfinite(y.ravel())][0]
        raise QuadratureError(f"integrand is not finite at x = {bad!r}")
    vals = half * (y @ _K15_WEIGHTS)
    gauss = half * (y[:, 1::2] @ _G7_WEIGHTS)
    return vals, np.abs(vals - gauss)


def _adapt(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> Tuple[float, float, np.ndarray, np.ndarray]:
    vals, errs = _eval_panels(f, a, b)
    while True:
        total = float(vals.sum())
        err = float(errs.sum())
        tol = max(epsabs, epsrel * abs(total))
        if err <= tol:
            return total, err, a, b
        if len(a) >= limit:
            raise QuadratureError(
                f"quadrature did not reach tolerance {tol:.3e} with {limit} "
                f"panels (error estimate {err:.3e})"
            )
        # Split the worst panels: the shortest prefix (by decreasing error)
        # carrying at least half the total error estimate.
        order = np.argsort(errs)[::-1]
        cum = np.cumsum(errs[order])
        k = int(np.searchsorted(cum, 0.5 * err)) + 1
        k = min(k, limit - len(a))
        idx = order[:k]
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        lo, hi = a[idx], b[idx]
        mid = 0.5 * (lo + hi)
        new_a = np.concatenate((lo, mid))
        new_b = np.concatenate((mid, hi))
        new_vals, new_errs = _eval_panels(f, new_a, new_b)
        a = np.concatenate((a[keep], new_a))
        b = np.concatenate((b[keep], new_b))
        vals = np.concatenate((vals[keep], new_vals))
        errs = np.concatenate((errs[keep], new_errs))


def _breakpoints(a: float, b: float, points: Optional[Sequence[float]]) -> np.ndarray:
    """a, b and the ``points`` strictly between them, sorted; raises
    QuadratureError unless a < b (a NaN end included)."""
    if not b > a:
        raise QuadratureError(f"empty integration range [{a}, {b}]")
    brk = [float(a), float(b)]
    if points is not None:
        brk.extend(float(p) for p in points if a < p < b)
    return np.array(sorted(set(brk)))


def quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    epsabs: float = DEFAULT_EPS,
    epsrel: float = DEFAULT_EPS,
    limit: int = 4096,
    points: Optional[Sequence[float]] = None,
) -> Tuple[float, float]:
    """Adaptively integrate a vectorised integrand over [a, b].

    ``f`` must map an ndarray of abscissae to an ndarray of values.  Returns
    (value, error_estimate).  ``points`` seeds the initial partition with
    known awkward locations.  Raises QuadratureError when the panel budget
    is exhausted before the tolerance is met.
    """
    brk = _breakpoints(a, b, points)
    value, err, _, _ = _adapt(f, brk[:-1], brk[1:], epsabs, epsrel, limit)
    return value, err


def adaptive_mesh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    epsabs: float = DEFAULT_EPS,
    epsrel: float = DEFAULT_EPS,
    limit: int = 4096,
    points: Optional[Sequence[float]] = None,
) -> np.ndarray:
    """Run the adaptive pass and return the sorted breakpoints it settled on."""
    brk = _breakpoints(a, b, points)
    _, _, pa, pb = _adapt(f, brk[:-1], brk[1:], epsabs, epsrel, limit)
    order = np.argsort(pa)
    return np.concatenate((pa[order], [float(b)]))


def quad_on_mesh(
    f: Callable[[np.ndarray], np.ndarray], mesh: np.ndarray
) -> Tuple[float, float]:
    """Single G7/K15 sweep over a frozen partition (no adaptation)."""
    mesh = np.asarray(mesh, dtype=float)
    if mesh.ndim != 1 or len(mesh) < 2:
        raise QuadratureError("mesh must contain at least two breakpoints")
    vals, errs = _eval_panels(f, mesh[:-1], mesh[1:])
    return float(vals.sum()), float(errs.sum())


# ----------------------------------------------------------------------
# beta-weighted integrals
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FrozenBetaMesh:
    """A substitution exponent q and an s-partition, reusable across beta.

    Freezing both makes the integral a smooth function of beta on a
    bracket, at the cost of the error estimate being tied to the beta the
    mesh was adapted for.  g(u), log(s) and 1 - u are cached on the GK15
    nodes (one row per panel, ``half`` the half-widths) when it is built.
    """

    q: int
    breakpoints: np.ndarray
    half: np.ndarray
    log_s: np.ndarray
    g: np.ndarray
    one_minus_u: np.ndarray


def _q_for(beta: float) -> int:
    return max(1, ceil(2.0 / (2.0 - beta)))


def _check_beta(beta: float) -> float:
    beta = float(beta)
    if not 0.0 <= beta < 2.0:
        raise QuadratureError(f"beta must lie in [0, 2), got {beta}")
    return beta


@lru_cache(maxsize=256)
def _seed_points(q: int) -> tuple[float, ...]:
    """Initial s-breakpoints resolving the structure of u = s**q.

    For large q the whole u in (0, 1) transition is compressed into a
    layer of width ~1/q at s = 1; a coarse first panel can miss it
    entirely (the error estimator only sees the nodes it has).  Seeding
    breakpoints at the preimages of characteristic u values guarantees
    the layer is straddled before adaptation starts.
    """
    u_marks = (
        1e-300, 1e-200, 1e-130, 1e-80, 1e-50, 1e-30, 1e-18, 1e-10,
        1e-6, 1e-3, 0.05, 0.3, 0.7, 0.95, 0.999,
    )
    return tuple(float(np.exp(np.log(u) / q)) for u in u_marks)


def _substituted(
    g: Callable[[np.ndarray], np.ndarray], beta: float, q: int
) -> Callable[[np.ndarray], np.ndarray]:
    """The s-space integrand q * s**(q*(2-beta)-1) * g(u) * (1-u)**beta."""
    s_exp = q * (2.0 - beta) - 1.0

    def integrand(s: np.ndarray) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        log_s = np.log(s)
        log_u = q * log_s
        u = np.exp(log_u)  # underflows to 0.0 for tiny s; g must cope
        one_minus_u = -np.expm1(log_u)
        out = q * np.exp(s_exp * log_s) * np.asarray(g(u), dtype=float)
        out *= one_minus_u**beta
        return out

    return integrand


def _probe_divergence(g: Callable[[np.ndarray], np.ndarray], beta: float) -> None:
    """Reject integrands whose u->0 growth defeats the u**(1-beta) weight.

    Fits a log-log slope sigma of |g| on u in [1e-10, 1e-4]; the full
    integrand then scales as u**(1 - beta + sigma) near zero, which must
    stay integrable (exponent > -1).  Only integrands that genuinely blow
    up at u = 0 (sigma clearly negative) are rejected -- the weight alone
    legitimately pushes the exponent towards -1 as beta -> 2, and a fitted
    sigma carries ~1e-10 noise that must not trip the check for bounded g.
    """
    uu = np.logspace(-10, -4, 13)
    vals = np.abs(np.broadcast_to(np.asarray(g(uu), dtype=float), uu.shape))
    if not np.all(np.isfinite(vals)):
        raise DivergentIntegralError(
            "integrand is not finite on the u -> 0 probe points"
        )
    if np.any(vals == 0.0):
        return
    sigma = float(np.polyfit(np.log(uu), np.log(vals), 1)[0])
    exponent = 1.0 - beta + sigma
    if sigma < -1e-3 and exponent <= -1.0 + 1e-6:
        raise DivergentIntegralError(
            f"integrand scales like u**{sigma:+.3f} near u = 0, so the "
            f"beta-weighted integrand goes as u**{exponent:.3f}: not "
            f"integrable against the weight at beta = {beta:.6g}"
        )


def beta_weighted_integral(
    g: Callable[[np.ndarray], np.ndarray],
    beta: float,
    *,
    epsabs: float = DEFAULT_EPS,
    epsrel: float = DEFAULT_EPS,
    limit: int = 4096,
    probe: bool = True,
) -> float:
    """integral_0^1 g(u) u**(1-beta) (1-u)**beta du, adaptively.

    ``g`` must be vectorised and finite at u = 0.0 (it receives exact
    zeros when the substitution underflows).
    """
    beta = _check_beta(beta)
    if probe:
        _probe_divergence(g, beta)
    q = _q_for(beta)
    value, _ = quad(
        _substituted(g, beta, q),
        0.0,
        1.0,
        epsabs=epsabs,
        epsrel=epsrel,
        limit=limit,
        points=_seed_points(q),
    )
    return value


def frozen_beta_mesh(
    g: Callable[[np.ndarray], np.ndarray],
    beta: float,
    *,
    q: Optional[int] = None,
    epsabs: float = DEFAULT_EPS,
    epsrel: float = DEFAULT_EPS,
    limit: int = 4096,
) -> FrozenBetaMesh:
    """Adapt a partition for the substituted integrand at one beta, then freeze it.

    Pass the largest beta of the intended bracket (or an explicit ``q``)
    so the frozen exponent regularises the whole bracket.
    """
    beta = _check_beta(beta)
    if q is None:
        q = _q_for(beta)
    mesh = adaptive_mesh(
        _substituted(g, beta, q),
        0.0,
        1.0,
        epsabs=epsabs,
        epsrel=epsrel,
        limit=limit,
        points=_seed_points(q),
    )
    x, half = _nodes(mesh[:-1], mesh[1:])
    log_s = np.log(x)
    log_u = q * log_s
    g_u = np.broadcast_to(np.asarray(g(np.exp(log_u)), dtype=float), x.shape)
    return FrozenBetaMesh(q, mesh, half, log_s, g_u, -np.expm1(log_u))


def beta_weighted_on_mesh(
    g: Callable[[np.ndarray], np.ndarray],
    beta: Union[float, np.ndarray],
    mesh: FrozenBetaMesh,
) -> Union[float, np.ndarray]:
    """The beta-weighted integral on a frozen mesh, from its cached g (the
    ``g`` it was built from).  A scalar beta repeats the operations of
    ``_substituted`` and ``_eval_panels``, so it equals ``quad_on_mesh``
    bit for bit; a 1-D array gives one value per beta in one broadcast."""
    scalar = np.ndim(beta) == 0
    if scalar:
        b = _check_beta(beta)
    else:
        b = np.array([_check_beta(x) for x in beta])[:, None, None]
    q = mesh.q
    y = q * np.exp((q * (2.0 - b) - 1.0) * mesh.log_s) * mesh.g
    y *= mesh.one_minus_u**b
    vals = (mesh.half * (y @ _K15_WEIGHTS)).sum(axis=-1)
    return float(vals) if scalar else vals
