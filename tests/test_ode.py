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
"""

from math import expm1, log

import numpy as np
import pytest
from scipy.integrate import OdeSolution, solve_ivp
from scipy.integrate._ivp.rk import Dop853DenseOutput

from wavebound._ode import dop853
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
