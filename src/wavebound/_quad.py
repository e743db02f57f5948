"""Adaptive Gauss--Kronrod quadrature and beta-weighted integrals.

Two layers live here:

* a generic vectorised adaptive G7/K15 integrator, ``quad``;

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

Objectives that must be *smooth* in beta -- an outer maximiser chasing
1e-8 brackets -- cannot re-adapt the partition at every beta, which
injects noise at the 1e-10 level.  A ``FrozenBetaMesh`` fixes q and the
s-partition and caches g, log(s) and 1 - u on its GK15 nodes, so
``beta_weighted_on_mesh`` only forms the weights, for one beta or an
array.  ``frozen_beta_meshes`` adapts the meshes of many betas in
lockstep, and ``quad`` and ``beta_weighted_integral`` are its
one-partition case: one adaptive loop, ``_adapt``, serves all three.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DivergentIntegralError, QuadratureError

__all__ = [
    "quad",
    "beta_weighted_integral",
    "frozen_beta_mesh",
    "frozen_beta_meshes",
    "beta_weighted_on_mesh",
    "FrozenBetaMesh",
]

DEFAULT_EPS = 1e-10
# panels one partition may hold before the tolerance counts as unreachable
_LIMIT = 4096

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
    if not np.isfinite(y).all():
        bad = float(x.ravel()[~np.isfinite(y.ravel())][0])
        raise QuadratureError(f"integrand is not finite at x = {bad!r}")
    vals = half * (y @ _K15_WEIGHTS)
    gauss = half * (y[:, 1::2] @ _G7_WEIGHTS)
    return vals, np.abs(vals - gauss)


def _adapt(
    integrand: Callable[[List[int], List[int]], Callable[[np.ndarray], np.ndarray]],
    parts: Sequence[Tuple[np.ndarray, np.ndarray]],
    eps: float,
) -> List[Tuple[float, float, np.ndarray]]:
    """Refine several partitions in lockstep; for each, its value, error
    estimate and the left ends of its adapted panels.  A partition is done
    once its error estimate is within ``eps`` absolute or relative.

    Partition j starts as the panels [a_i, b_i] of ``parts[j]``.  Each
    round evaluates the new panels of every unfinished partition with one
    ``_eval_panels`` call on ``integrand(active, counts)``: the round's
    panels come in order, ``counts[k]`` of them from partition
    ``active[k]``.  Each partition then applies the split rule to its own
    panels alone.  A panel's value can differ in the last bit from a
    one-partition round (BLAS rounds a row of ``y @ w`` by its place in
    the call), so only a split decision resting on that bit would move.
    """
    done: List[Tuple[float, float, np.ndarray]] = [None] * len(parts)
    kept: List[Optional[Tuple[np.ndarray, ...]]] = [None] * len(parts)
    active = list(range(len(parts)))
    round_a = [a for a, _ in parts]
    round_b = [b for _, b in parts]
    while active:
        counts = [len(a) for a in round_a]
        round_vals, round_errs = _eval_panels(
            integrand(active, counts), _concat(round_a), _concat(round_b)
        )
        unfinished, next_a, next_b = [], [], []
        stop = 0
        for j, a, b, count in zip(active, round_a, round_b, counts):
            start, stop = stop, stop + count
            vals, errs = round_vals[start:stop], round_errs[start:stop]
            if kept[j] is not None:
                ka, kb, kvals, kerrs = kept[j]
                a, b = np.concatenate((ka, a)), np.concatenate((kb, b))
                vals = np.concatenate((kvals, vals))
                errs = np.concatenate((kerrs, errs))
            total = float(vals.sum())
            err = float(errs.sum())
            tol = max(eps, eps * abs(total))
            if err <= tol:
                done[j] = (total, err, a)
                continue
            if len(a) >= _LIMIT:
                raise QuadratureError(
                    f"quadrature did not reach tolerance {tol:.3e} with {_LIMIT} "
                    f"panels (error estimate {err:.3e})"
                )
            # Split the worst panels: the shortest prefix (by decreasing
            # error) carrying at least half the total error estimate.
            order = np.argsort(errs)[::-1]
            cum = np.cumsum(errs[order])
            k = int(np.searchsorted(cum, 0.5 * err)) + 1
            k = min(k, _LIMIT - len(a))
            idx = order[:k]
            keep = np.ones(len(a), dtype=bool)
            keep[idx] = False
            lo, hi = a[idx], b[idx]
            mid = 0.5 * (lo + hi)
            kept[j] = (a[keep], b[keep], vals[keep], errs[keep])
            unfinished.append(j)
            next_a.append(np.concatenate((lo, mid)))
            next_b.append(np.concatenate((mid, hi)))
        active, round_a, round_b = unfinished, next_a, next_b
    return done


def _concat(arrays: List[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _adapt_one(
    f: Callable[[np.ndarray], np.ndarray],
    brk: np.ndarray,
    eps: float,
) -> Tuple[float, float, np.ndarray]:
    """``_adapt`` on the one partition with breakpoints ``brk``: value,
    error estimate and the adapted panels' left ends."""
    (result,) = _adapt(lambda *_: f, [(brk[:-1], brk[1:])], eps)
    return result


def quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    eps: float = DEFAULT_EPS,
) -> Tuple[float, float]:
    """Adaptively integrate a vectorised integrand over [a, b].

    ``f`` must map an ndarray of abscissae to an ndarray of values.  Returns
    (value, error_estimate).  Raises QuadratureError unless a < b (a NaN
    end included), or when the panel budget is exhausted before the
    tolerance is met.
    """
    if not b > a:
        raise QuadratureError(f"empty integration range [{a}, {b}]")
    value, err, _ = _adapt_one(f, np.array([float(a), float(b)]), eps)
    return value, err


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
def _seed_breakpoints(q: int) -> np.ndarray:
    """Initial s-breakpoints in [0, 1] resolving the structure of u = s**q
    (cached and shared, so read-only).

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
    marks = (float(np.exp(np.log(u) / q)) for u in u_marks)
    brk = np.array(sorted({0.0, 1.0, *marks}))
    brk.flags.writeable = False
    return brk


def _substituted(
    g: Callable[[np.ndarray], np.ndarray],
    beta: Union[float, np.ndarray],
    q: Union[int, np.ndarray],
) -> Callable[[np.ndarray], np.ndarray]:
    """The s-space integrand q * s**(q*(2-beta)-1) * g(u) * (1-u)**beta.

    ``beta`` and ``q`` may also be arrays with one entry per abscissa.
    The operations are the same either way, except that NumPy forms
    (1-u)**0.5 by sqrt for a scalar exponent and by pow for an array, so
    at beta = 0.5 the two can differ in the last bit.
    """
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
) -> float:
    """integral_0^1 g(u) u**(1-beta) (1-u)**beta du, adaptively.

    ``g`` must be vectorised and finite at u = 0.0 (it receives exact
    zeros when the substitution underflows).  A g that may blow up at
    u = 0 should pass ``_probe_divergence`` first.
    """
    beta = _check_beta(beta)
    q = _q_for(beta)
    value, _, _ = _adapt_one(_substituted(g, beta, q), _seed_breakpoints(q), DEFAULT_EPS)
    return value


def frozen_beta_meshes(
    g: Callable[[np.ndarray], np.ndarray],
    betas: Sequence[float],
    *,
    eps: float = DEFAULT_EPS,
) -> List[FrozenBetaMesh]:
    """Adapt a partition for the substituted integrand at each beta, then
    freeze them all: one mesh per beta, in order.

    The partitions adapt in lockstep, one integrand call per round with
    per-node q and beta, and the node caches of all meshes take one ``g``
    call.  Pass the largest beta of each intended bracket so the frozen
    exponent regularises the whole bracket.
    """
    betas = np.array([_check_beta(beta) for beta in betas])
    qs = np.array([_q_for(beta) for beta in betas])

    def integrand(active: List[int], counts: List[int]):
        nodes = [len(_K15_NODES) * count for count in counts]
        return _substituted(
            g, np.repeat(betas[active], nodes), np.repeat(qs[active], nodes)
        )

    parts = [(brk[:-1], brk[1:]) for brk in map(_seed_breakpoints, qs)]
    adapted = _adapt(integrand, parts, eps)
    meshes = [np.concatenate((np.sort(pa), [1.0])) for _, _, pa in adapted]
    x, half = _nodes(
        np.concatenate([mesh[:-1] for mesh in meshes]),
        np.concatenate([mesh[1:] for mesh in meshes]),
    )
    log_s = np.log(x)
    log_u = np.repeat(qs, [len(mesh) - 1 for mesh in meshes])[:, None] * log_s
    g_u = np.broadcast_to(np.asarray(g(np.exp(log_u)), dtype=float), x.shape)
    one_minus_u = -np.expm1(log_u)
    frozen = []
    stop = 0
    for q, mesh in zip(qs, meshes):
        rows = slice(stop, stop + len(mesh) - 1)
        stop = rows.stop
        frozen.append(
            FrozenBetaMesh(
                int(q), mesh, half[rows], log_s[rows], g_u[rows], one_minus_u[rows]
            )
        )
    return frozen


def frozen_beta_mesh(
    g: Callable[[np.ndarray], np.ndarray],
    beta: float,
    *,
    eps: float = DEFAULT_EPS,
) -> FrozenBetaMesh:
    """``frozen_beta_meshes`` for one beta."""
    (mesh,) = frozen_beta_meshes(g, [beta], eps=eps)
    return mesh


def beta_weighted_on_mesh(
    beta: Union[float, np.ndarray], mesh: FrozenBetaMesh
) -> Union[float, np.ndarray]:
    """The beta-weighted integral on a frozen mesh, from the g cached on
    its nodes.  A scalar beta repeats the operations of ``_substituted``
    and ``_eval_panels``, so it equals one ``_eval_panels`` sweep over
    ``mesh.breakpoints``, summed, bit for bit; a 1-D array gives one
    value per beta in one broadcast."""
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
