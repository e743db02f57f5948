"""A scalar DOP853 integrator in plain floats.

The 8(5,3) Dormand--Prince pair with its 7th-order dense output (Hairer,
Norsett & Wanner, *Solving Ordinary Differential Equations I*, Sec. II.10)
for one scalar ODE.  It mirrors ``solve_ivp(method="DOP853")`` rule for
rule -- scipy's tableau, initial step, error norm, step control and minimum
step -- on Python floats, because on a length-1 state ``solve_ivp`` spends
most of its time on array bookkeeping.  Stage sums are sequential, so the
steps match ``solve_ivp``'s up to round-off in the cancelling error sum.
The stage code is generated once from the tableau as straight-line float
arithmetic, each sum written out term by term from 0.0 in tableau order.
"""

from __future__ import annotations

from functools import cache
from math import inf, nextafter, sqrt
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


@cache
def _kernels() -> tuple:
    """The step's stage code, generated from ``_tableau()`` on first use.

    * ``stages(fun, t, y, h, K0)`` -> (K, y_new): K = (K0, ..., K11), the
      slopes of the 12 main stages, K0 = f(t, y), and the 8th-order update;
    * ``errors(K, K12)`` -> the E5 and E3 sums, K12 = f(t_new, y_new);
    * ``dense(fun, t, y, h, K, K12)`` -> h times the 4 ``D`` sums, after the
      3 extra stages of the dense output.

    Each sum over slopes is written out as (((0.0 + K0*a0) + K1*a1) + ...),
    left to right in tableau order, with the repr of every coefficient and
    the zero ones kept: a loop over the rows adding from 0.0 gives the same
    bits, without the per-term calls.
    """
    A, A_dense, C, B, E5, E3, D = _tableau()

    def dot(row: list) -> str:
        src = "0.0"
        for k, a in enumerate(row):
            src = f"({src} + K{k}*{a!r})"
        return src

    def stage(s: int, row: list) -> str:
        return f"    K{s} = fun(t + {C[s]!r}*h, y + {dot(row)}*h)\n"

    n = len(B)
    slopes = ", ".join(f"K{k}" for k in range(n))
    src = (
        "def stages(fun, t, y, h, K0):\n"
        + "".join(stage(s, row) for s, row in enumerate(A, 1))
        + f"    return ({slopes}), y + h*{dot(B)}\n"
        "def errors(K, K12):\n"
        f"    {slopes}, = K\n"
        f"    return {dot(E5)}, {dot(E3)}\n"
        "def dense(fun, t, y, h, K, K12):\n"
        f"    {slopes}, = K\n"
        + "".join(stage(s, row) for s, row in enumerate(A_dense, n + 1))
        + f"    return [{', '.join(f'h*{dot(d)}' for d in D)}]\n"
    )
    namespace: dict = {}
    exec(src, {"__builtins__": {}}, namespace)  # noqa: S102 - own codegen
    return namespace["stages"], namespace["errors"], namespace["dense"]


class DenseSolution:
    """Step times ``t``, step values ``y`` and the dense interpolant between
    them; ``coef[k]`` holds step k's 7 coefficients, as scipy's
    ``Dop853DenseOutput`` forms them."""

    def __init__(self, t: list, y: list, coef: list) -> None:
        self.t, self.y = np.array(t), np.array(y)
        self.coef = np.array(coef)
        self._h = np.diff(self.t)

    def __call__(self, t: np.ndarray) -> np.ndarray:
        # side "left": a breakpoint belongs to the step that ends there
        i = np.searchsorted(self.t, t, side="left") - 1
        i = np.minimum(np.maximum(i, 0), len(self._h) - 1)
        x = (t - self.t[i]) / self._h[i]
        F = self.coef[i].T
        out = F[6] * x
        for k in range(5, -1, -1):
            out = (out + F[k]) * (x if k % 2 == 0 else 1.0 - x)
        return out + self.y[i]


def dop853(
    fun: Callable, t_end: float, y0: float, rtol: float, atol: float, y_stop: float = -inf
) -> DenseSolution:
    """Integrate y' = fun(t, y) from (0, y0) to t_end > 0, or up to the first
    step that ends at or below ``y_stop`` (the default never stops early).

    Raises StepFailureError where ``solve_ivp`` would report failure: the
    step size fell below ten times the float spacing at t, or the initial
    step underflowed to 0 (or is NaN) on an overflowing slope.
    """
    stages, errors, dense = _kernels()
    t, y = 0.0, float(y0)
    f = fun(t, y)
    # select_initial_step for order 7; the RMS norm of one value is |value|
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    if not h0 > 0.0:
        raise StepFailureError(
            f"substance-profile integration failed: no usable initial step (h0 = {h0})"
        )
    d2 = abs(fun(h0, y + h0 * f) - f) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = min(100 * h0, max(1e-6, h0 * 1e-3), t_end)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** 0.125, t_end)
    ts, ys, coef = [t], [y], []
    while t < t_end and y > y_stop:
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
            K, y_new = stages(fun, t, y, h, f)
            f_new = fun(t_new, y_new)
            scale = atol + max(abs(y), abs(y_new)) * rtol
            e5, e3 = errors(K, f_new)
            e5, e3 = e5 / scale, e3 / scale
            # 0 when both estimates vanish, as solve_ivp's norm returns
            err = h * (e5 * e5) / (sqrt(e5 * e5 + 0.01 * (e3 * e3)) or 1.0)
            if err < 1.0:
                factor = min(10.0, 0.9 * err**-0.125) if err else 10.0
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err**-0.125)
            rejected = True
        dy = y_new - y
        coef.append(
            [dy, h * f - dy, 2.0 * dy - h * (f_new + f)] + dense(fun, t, y, h, K, f_new)
        )
        t, y, f = t_new, y_new, f_new
        ts.append(t)
        ys.append(y)
    return DenseSolution(ts, ys, coef)
