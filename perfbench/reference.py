"""Independent reference speeds for the per-op correctness checks.

None of these use the package's quadrature, search or special functions:
integrals go through QUADPACK's algebraic-weight rule (``weight="alg"``),
maxima through scipy's bounded Brent search, and Gamma functions through
``scipy.special.gammaln``.  The porous-Fisher and Allee objectives are the
package's public ``closed_form_F``, which shares no code with ``sup_F``.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy import integrate, optimize, special

_LO, _HI = 1e-3, 2.0 - 1e-3


def _sup(F: Callable[[float], float], lo: float = _LO, hi: float = _HI) -> float:
    """max of F on [lo, hi]: 81-point scan, then bounded Brent on the bracket."""
    grid = np.linspace(lo, hi, 81)
    vals = [F(b) for b in grid]
    i = int(np.argmax(vals))
    a, b = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]
    res = optimize.minimize_scalar(
        lambda x: -F(x), bounds=(a, b), method="bounded", options={"xatol": 1e-12}
    )
    return max(-float(res.fun), vals[i])


def _speed(F_interior: float, F_limit: float) -> float:
    return math.sqrt(2.0 * max(F_interior, F_limit, 0.0))


@lru_cache(maxsize=None)
def porous_fisher_c(m: float, n: float) -> float:
    """D = u^m, f = u(1 - u^n); the beta -> 2 limit 2 D(0) f'(0) is 0 for m > 0."""
    import wavebound as wb

    F = lambda b: wb.closed_form_F("wound", b, m=m, n=n)  # noqa: E731
    return _speed(_sup(F), 2.0 * 0.0**m)  # D(0) = 0^m, f'(0) = 1


@lru_cache(maxsize=None)
def allee_c(alpha: float, a: float) -> float:
    """D = alpha u + u^2, f = u(1-u)(u-a): D(0) = 0, so the limit is 0."""
    import wavebound as wb

    F = lambda b: wb.closed_form_F("allee", b, alpha=alpha, a=a)  # noqa: E731
    return _speed(_sup(F), 0.0)


@lru_cache(maxsize=None)
def custom_c(m: float, d: float, r: float) -> float:
    """D = u^m + d, f = u(1-u)(1+r u), by direct QUADPACK integration of

        N(beta) = int_0^1 g(u) u^(1-beta) (1-u)^beta du,  g = D f / u,

    with the algebraic endpoint weight handled exactly by ``weight="alg"``.
    """

    def g(u: float) -> float:
        return (u**m + d) * (1.0 - u) * (1.0 + r * u)

    def F(b: float) -> float:
        N, _ = integrate.quad(
            g, 0.0, 1.0, weight="alg", wvar=(1.0 - b, b), epsabs=1e-15, epsrel=1e-13, limit=200
        )
        return b * N / special.beta(2.0 - b, 2.0 + b)

    return _speed(_sup(F), 2.0 * d * 1.0)  # D(0) = d, f'(0) = 1


@lru_cache(maxsize=None)
def landman_c(lam: float, kappa: float) -> float:
    """Fixed point c^2 = 2 sup_beta G(beta; c) of the crowding model's Gamma
    closed form G = beta [1 - 6 lam Gamma(1+beta+eta) / (Gamma(3+eta) Gamma(2+beta))],
    eta = kappa beta / c^2, iterated from the linear speed 2 sqrt(1 - lam)."""

    def G(b: float, c: float) -> float:
        eta = kappa * b / (c * c)
        lg = special.gammaln
        return b * (1.0 - 6.0 * lam * math.exp(lg(1 + b + eta) - lg(3 + eta) - lg(2 + b)))

    c = max(2.0 * math.sqrt(1.0 - lam), 0.2)
    for _ in range(200):
        new = _speed(_sup(lambda b: G(b, c)), G(2.0, c))
        if abs(new - c) < 1e-14 * c:
            return new
        c = new
    return c
