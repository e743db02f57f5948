"""A scalar DOP853 integrator in plain floats.

The 8(5,3) Dormand--Prince pair with its 7th-order dense output (Hairer,
Norsett & Wanner, *Solving Ordinary Differential Equations I*, Sec. II.10)
for one scalar ODE.  It mirrors ``solve_ivp(method="DOP853")`` rule for
rule -- scipy's tableau, initial step, error norm, step control and minimum
step -- on Python floats, because on a length-1 state ``solve_ivp`` spends
most of its time on array bookkeeping.  Stage sums are sequential, so the
steps match ``solve_ivp``'s up to round-off in the cancelling error sum.
"""

from __future__ import annotations

from functools import cache
from math import inf, nextafter, sqrt
from operator import mul
from typing import Callable

import numpy as np

from .errors import StepFailureError


@cache
def _tableau() -> tuple:
    """(A rows of the 12 stages, A rows of the 3 dense stages, C, B, E5, E3, D)."""
    from scipy.integrate._ivp import dop853_coefficients as co  # deferred: slow

    n = co.N_STAGES
    A = [row[:s] for s, row in enumerate(co.A.tolist())]
    rest = (co.C, co.B, co.E5, co.E3, co.D)
    return (A[1:n], A[n + 1 :]) + tuple(v.tolist() for v in rest)


class DenseSolution:
    """Step times ``t``, step values ``y`` and the dense interpolant between
    them; ``coef[:, k]`` holds step k's 7 coefficients, as scipy's
    ``Dop853DenseOutput`` forms them."""

    def __init__(self, t: list, y: list, coef: list) -> None:
        self.t, self.y = np.array(t), np.array(y)
        self.coef = np.array(coef).T
        self._h = np.diff(self.t)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        # side "left": a breakpoint belongs to the step that ends there
        i = np.clip(np.searchsorted(self.t, t, side="left") - 1, 0, len(self._h) - 1)
        x = (t - self.t[i]) / self._h[i]
        F = self.coef[:, i]
        out = F[6] * x
        for k in range(5, -1, -1):
            out = (out + F[k]) * (x if k % 2 == 0 else 1.0 - x)
        return out + self.y[i]


def dop853(fun: Callable, t_end: float, y0: float, rtol: float, atol: float) -> DenseSolution:
    """Integrate y' = fun(t, y) from (0, y0) to t_end > 0.

    Raises StepFailureError where ``solve_ivp`` would report failure: the
    step size fell below ten times the float spacing at t.
    """
    A, A_dense, C, B, E5, E3, D = _tableau()
    t, y = 0.0, float(y0)
    f = fun(t, y)
    # select_initial_step for order 7; the RMS norm of one value is |value|
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = abs(fun(h0, y + h0 * f) - f) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = min(100 * h0, max(1e-6, h0 * 1e-3), t_end)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** 0.125, t_end)
    ts, ys, coef = [t], [y], []

    def stages(K: list, rows: list, cs: list) -> None:
        for row, c in zip(rows, cs):
            K.append(fun(t + c * h, y + sum(map(mul, K, row), 0.0) * h))

    while t < t_end:
        min_step = 10.0 * (nextafter(t, inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepFailureError(
                    "substance-profile integration failed: required step size "
                    f"is less than spacing between numbers at t = {t}"
                )
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K = [f]
            stages(K, A, C[1:])
            y_new = y + h * sum(map(mul, K, B), 0.0)
            K.append(fun(t_new, y_new))
            scale = atol + max(abs(y), abs(y_new)) * rtol
            e5 = sum(map(mul, K, E5), 0.0) / scale
            e3 = sum(map(mul, K, E3), 0.0) / scale
            # 0 when both estimates vanish, as solve_ivp's norm returns
            err = h * (e5 * e5) / (sqrt(e5 * e5 + 0.01 * (e3 * e3)) or 1.0)
            if err < 1.0:
                factor = min(10.0, 0.9 * err**-0.125) if err else 10.0
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.125)
            rejected = True
        stages(K, A_dense, C[len(K) :])
        dy = y_new - y
        dense = [dy, h * f - dy, 2.0 * dy - h * (K[12] + f)]
        coef.append(dense + [h * sum(map(mul, K, d), 0.0) for d in D])
        t, y, f = t_new, y_new, K[12]
        ts.append(t)
        ys.append(y)
    return DenseSolution(ts, ys, coef)
