"""Brent's bounded maximisation on a bracket.

Used to refine the beta maximiser of the bound objectives after a coarse
grid scan.  Golden-section interval shrinking, accelerated by a parabolic
step through the three best points whenever that step is safe (Brent,
*Algorithms for Minimization without Derivatives*, 1973, ch. 5; the rules
of scipy's ``fminbound``): as robust as golden section for the smooth,
unimodal (on the bracket) objectives it is applied to, and far quicker
once the parabola fits.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

_INV_PHI2 = 0.3819660112501051  # 1 - (sqrt(5) - 1) / 2
_SQRT_EPS = 1.4901161193847656e-08  # sqrt(2**-52)


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float = 1e-8,
    mid: Optional[float] = None,
) -> Tuple[float, float]:
    """Return (x, f(x)) approximately maximising f on [lo, hi].

    ``mid`` (in [lo, hi]) is the bracket's best known interior point, such
    as a grid argmax; it defaults to the golden point lo + 0.382 (hi - lo).
    f is read at lo, hi and mid first, so a maximiser on a bracket edge is
    not lost and the first step is already parabolic.  No x is evaluated
    twice: each new point lies strictly inside the current bracket, where
    the only point evaluated before is the best one.

    The search stops once the best point x lies within 2 tol of both ends
    of the bracket, tol = 1.49e-8 |x| + xtol / 3.  For f unimodal on
    [lo, hi], x is then within 2 tol of the maximiser, which is below
    ``xtol`` for |x| <= 2 and xtol >= 1e-6.
    """
    a, b = float(lo), float(hi)
    if not b > a:
        raise ValueError(f"empty bracket [{a}, {b}]")
    x = a + _INV_PHI2 * (b - a) if mid is None else float(mid)
    if not a <= x <= b:
        raise ValueError(f"mid = {x} lies outside [{a}, {b}]")
    fa, fb = f(a), f(b)
    fx = fa if x == a else fb if x == b else f(x)
    # w, v: the second and third best points, here the two edges
    (fw, w), (fv, v) = sorted(((fa, a), (fb, b)), reverse=True)
    if fw > fx:
        # an edge beats mid: the maximiser lies between them
        if w == a:
            b = x
        else:
            a = x
        x, fx, w, fw = w, fw, x, fx
    d = e = b - a  # the last step, and the one before it
    while True:
        xm = 0.5 * (a + b)
        tol = _SQRT_EPS * abs(x) + xtol / 3.0
        tol2 = 2.0 * tol
        if abs(x - xm) <= tol2 - 0.5 * (b - a):
            break
        golden = True
        if abs(e) > tol:
            # parabola through (x, w, v); its vertex is x + p / q
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # accept a step inside (a, b) shorter than half the step before last
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                u = x + d
                if u - a < tol2 or b - u < tol2:
                    d = tol if xm >= x else -tol
        if golden:
            e = (a if x >= xm else b) - x
            d = _INV_PHI2 * e
        # never step by less than tol
        u = x + (d if abs(d) >= tol else tol if d >= 0.0 else -tol)
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
    return x, fx
