"""The scalar DOP853 of ``wavebound._ode`` against ``solve_ivp``.

Proves:
  1.  On the general-D slaved-profile equation at three (beta, c) points
      and on y' = -y, ``dop853`` takes the steps ``solve_ivp(method=
      "DOP853")`` takes: the same number give or take one, at step times
      within 1e-4 relative (the error estimate cancels heavily, so the
      summation order of its stage sum moves the step-size factor by
      round-off), and its dense output matches ``solve_ivp``'s on 2,000
      points plus every breakpoint of the port to 1% of rtol |y0|: two
      runs whose steps differ by round-off differ by a fraction of the
      local error, which scales with rtol
  2.  The dense output evaluates scipy's DOP853 interpolant exactly: built
      from the port's own steps and coefficients, scipy's
      ``Dop853DenseOutput`` pieces in an ``OdeSolution`` give the same
      bits, breakpoints included (side "left": a breakpoint reads the
      step that ends there)
  3.  A right-hand side that turns NaN past t = 1 raises StepFailureError
      where ``solve_ivp`` reports failure
  4.  The generated stage kernels do the arithmetic of the stage loop they
      replaced: on every case above and three more (beta, c) profiles
      (each profile rejects 3 to 6 steps), ``dop853``'s step times, step
      values and dense coefficients equal, bit for bit, those of that
      loop, kept here as the reference
  5.  ``y_stop`` ends the run at the first step whose value is at or below
      it, and every step up to there equals the unstopped run's bit for bit
"""

from functools import reduce
from math import expm1, inf, log, nextafter, sqrt
from operator import add, mul

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from wavebound._ode import _tableau, dop853
from wavebound.errors import StepFailureError
from wavebound.model import TwoSpeciesModel

W_MAX = -log(1e-8)  # the profile's integration end, u1 = 1 - 1e-8


def _profile_rhs(beta, c):
    m = TwoSpeciesModel("1 + 0.5*u1 - u2", "u1*(1 - u1 - u2)", kappa=1.05, nu=0.5)
    coef = m.kappa * beta / (c * c)

    def rhs(w, y):
        return -coef * y * float(m.D_fn(-expm1(-w), min(max(y, 0.0), m.nu)))

    return rhs, m.nu


CASES = [
    pytest.param(*_profile_rhs(1.8, 1.0), W_MAX, 1e-10, 5e-15, id="profile-1.8-1.0"),
    pytest.param(*_profile_rhs(0.3, 0.7), W_MAX, 1e-10, 5e-15, id="profile-0.3-0.7"),
    pytest.param(*_profile_rhs(1.2, 2.5), W_MAX, 1e-10, 5e-15, id="profile-1.2-2.5"),
    pytest.param(lambda t, y: -y, 1.0, 10.0, 1e-8, 1e-12, id="decay"),
]


@pytest.mark.parametrize("fun, y0, t_end, rtol, atol", CASES)
def test_dop853_follows_solve_ivp(fun, y0, t_end, rtol, atol):
    ours = dop853(fun, t_end, y0, rtol, atol)
    ref = solve_ivp(
        lambda t, y: np.array([fun(t, float(y[0]))]),
        (0.0, t_end),
        np.array([y0]),
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    assert ref.success
    assert ours.t[0] == 0.0 and ours.t[-1] == t_end and ours.y[0] == y0
    assert abs(len(ours.t) - len(ref.t)) <= 1
    n = min(len(ours.t), len(ref.t)) - 1
    np.testing.assert_allclose(ours.t[:n], ref.t[:n], rtol=1e-4, atol=0.0)
    t = np.concatenate([np.linspace(0.0, t_end, 2000), ours.t])
    np.testing.assert_allclose(ours(t), ref.sol(t)[0], rtol=0.0, atol=1e-2 * rtol * y0)


@pytest.mark.parametrize("fun, y0, t_end, rtol, atol", CASES)
def test_dense_output_is_scipys_interpolant(fun, y0, t_end, rtol, atol):
    ours = dop853(fun, t_end, y0, rtol, atol)
    pieces = [
        Dop853DenseOutput(ours.t[k], ours.t[k + 1], ours.y[k : k + 1], ours.coef[:, k : k + 1])
        for k in range(len(ours.t) - 1)
    ]
    t = np.concatenate([np.linspace(0.0, t_end, 2000), ours.t])
    np.testing.assert_array_equal(ours(t), OdeSolution(ours.t, pieces)(t)[0])
    np.testing.assert_allclose(ours(ours.t), ours.y, rtol=1e-15, atol=0.0)


def test_dop853_step_failure_on_nan():
    def fun(t, y):
        return float("nan") if t > 1.0 else -y

    ref = solve_ivp(lambda t, y: np.array([fun(t, y[0])]), (0.0, 2.0), [1.0], method="DOP853")
    assert not ref.success
    with pytest.raises(StepFailureError, match="substance-profile integration failed"):
        dop853(fun, 2.0, 1.0, 1e-10, 1e-14)


def _dot(K, row):
    # sum(map(mul, K, row), 0.0) as CPython up to 3.11 adds floats: left to
    # right from 0.0 (3.12's sum compensates, so the fold is spelled out)
    return reduce(add, map(mul, K, row), 0.0)


def _loop_dop853(fun, t_end, y0, rtol, atol):
    """``dop853`` with its stage sums looped over the tableau rows, as it
    was written before the kernels were generated; (t, y, coef) lists."""
    A, A_dense, C, B, E5, E3, D = _tableau()
    t, y = 0.0, float(y0)
    f = fun(t, y)
    scale = atol + abs(y) * rtol
    d0, d1 = abs(y) / scale, abs(f) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end)
    d2 = abs(fun(h0, y + h0 * f) - f) / scale / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h_abs = min(100 * h0, max(1e-6, h0 * 1e-3), t_end)
    else:
        h_abs = min(100 * h0, (0.01 / max(d1, d2)) ** 0.125, t_end)
    ts, ys, coef = [t], [y], []

    def stages(K, rows, cs):
        for row, c in zip(rows, cs):
            K.append(fun(t + c * h, y + _dot(K, row) * h))

    while t < t_end:
        min_step = 10.0 * (nextafter(t, inf) - t)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if h_abs < min_step:
                raise StepFailureError("substance-profile integration failed")
            t_new = min(t + h_abs, t_end)
            h = h_abs = t_new - t
            K = [f]
            stages(K, A, C[1:])
            y_new = y + h * _dot(K, B)
            K.append(fun(t_new, y_new))
            scale = atol + max(abs(y), abs(y_new)) * rtol
            e5 = _dot(K, E5) / scale
            e3 = _dot(K, E3) / scale
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
        coef.append(dense + [h * _dot(K, d) for d in D])
        t, y, f = t_new, y_new, K[12]
        ts.append(t)
        ys.append(y)
    return ts, ys, coef


@pytest.mark.parametrize(
    "fun, y0, t_end, rtol, atol",
    CASES
    + [
        pytest.param(*_profile_rhs(1.95, 1.0), W_MAX, 1e-10, 5e-15, id="profile-1.95-1.0"),
        pytest.param(*_profile_rhs(0.05, 0.4), W_MAX, 1e-10, 5e-15, id="profile-0.05-0.4"),
        pytest.param(*_profile_rhs(1.6, 1.3), W_MAX, 1e-10, 5e-15, id="profile-1.6-1.3"),
    ],
)
def test_generated_kernels_match_the_stage_loop(fun, y0, t_end, rtol, atol):
    ours = dop853(fun, t_end, y0, rtol, atol)
    t, y, coef = _loop_dop853(fun, t_end, y0, rtol, atol)
    np.testing.assert_array_equal(ours.t, t)
    np.testing.assert_array_equal(ours.y, y)
    np.testing.assert_array_equal(ours.coef, np.array(coef).T)


def test_y_stop_ends_at_the_first_step_at_or_below_it():
    fun, y_stop = (lambda t, y: -y), 1e-3
    full = dop853(fun, 10.0, 1.0, 1e-8, 1e-12)
    stopped = dop853(fun, 10.0, 1.0, 1e-8, 1e-12, y_stop=y_stop)
    n = len(stopped.t)
    assert stopped.y[-1] <= y_stop < stopped.y[-2]
    assert n < len(full.t)
    np.testing.assert_array_equal(stopped.t, full.t[:n])
    np.testing.assert_array_equal(stopped.y, full.y[:n])
    np.testing.assert_array_equal(stopped.coef, full.coef[:, : n - 1])
