"""Two-species (invader / degradable substance) bounds and diagnostics.

Proves:
  1.  v_star implements c u1 (1-u1) / (beta D) with domain checks, and
      refuses degenerate diffusivities
  2.  solve_u2_profile reproduces closed-form slaved profiles: the
      constant-D power law nu (1-u1)^(kappa beta D / c^2) (via the
      analytic shortcut, the substance curve and the per-(beta, c)
      solve, each forced by an inert term) and the
      logistic form for D = 1 - u2, across random (kappa, nu, beta, c)
  3.  WaveProfile2 invariants: u2 starts at nu, decays monotonically to
      0, stays inside [0, nu], and each route's map holds past
      u1 = 1 - 1e-8 up to u1 = 1; the general-D route's analytic tail
      u2(cut) ((1 - u1)/1e-8)^p, p = kappa beta D(1, 0) / c^2, takes over
      at that cut continuously and reaches 0 at u1 = 1; at kappa = 1e4 the
      general-D solve stops within 100 steps, once u2 <= 1e-12 nu, and
      stays there, non-increasing, past its stop; for D = D(u2)
      the profile read off the model's one substance curve matches a
      direct DOP853 solve, does not depend on which (beta, c) was asked
      first, and a D that vanishes at u2 = 0 or stalls the substance is
      refused
  4.  G(beta; c) by quadrature matches the Gamma-function closed form
      for the crowding model on a (lambda, kappa, beta) grid, including
      through the general ODE path, and G(2; c) = 2(1 - lambda) exactly
  5.  Decoupled limits: kappa = 0 reduces G to beta (1 - nu) and the
      implicit speed to the linear speed 2 sqrt(1 - nu) attained at the
      boundary
  6.  solve_implicit_speed converges with honest residuals, never
      undercuts the linear speed, reports epsilon = kappa nu / c, and
      reproduces pinned ecm_b, ecm_c and general-D speeds to 1e-8; three
      general-D speeds, beta* and the iteration count hold bit for bit;
      one sup-over-beta search evaluates G at each beta once and counts
      its evaluations, as SpeedSolve.stats does for a whole solve; on
      landman the search matches a fine maximisation of the closed-form
      G to 1e-9; a model whose sup G is <= 0 at every c has no positive
      speed and is refused; on crowded models with c_linear = 0, the
      damped steps that stall or overshoot to c = 0 among them, the
      reported speed is the root of c^2 - 2 sup G (bisected here on the
      closed form) to 1e-8
  7.  The adjoint quadrature matches the hand-derived co-state integrals
      lambda * integral q phi u2 dq for the crowding model and
      integral u2 q (1-q) phi dq for ecm_c (D = 1 - u2), whose Hamiltonian
      term through dD/du2 vanishes at v*
  8.  pontryagin_residual vanishes for decoupled models and stays within
      a few epsilon otherwise; weak_coupling_report applies both
      validity gates
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from wavebound._quad import quad
from wavebound.errors import ConfigError, DegenerateDiffusionError, ModelError
from wavebound.model import TwoSpeciesModel, make_preset
from wavebound.twospecies import (
    G_of_beta,
    M_of_beta,
    adjoint_product,
    landman_G_closed,
    linear_speed_two_species,
    pontryagin_residual,
    solve_implicit_speed,
    solve_u2_profile,
    v_star,
    weak_coupling_report,
)
from wavebound.twospecies import _sup_G as twospecies_sup_G


def crowding_model(lam, kappa, nu=1.0, force_ode=None):
    """D = 1, f = u1 (1 - u1 - lam u2).  force_ode names a variable ("u2"
    or "u1") whose structurally-present, numerically-inert term defeats
    the constant-D shortcut: "u2" takes the substance-curve route, "u1"
    the per-(beta, c) profile solve."""
    return TwoSpeciesModel(
        f"1 + 0*{force_ode}" if force_ode else "1",
        "u1*(1 - u1 - lambda*u2)",
        kappa=kappa,
        nu=nu,
        params={"lambda": lam},
    )


# -- 1. the control ------------------------------------------------------


def test_v_star_formula():
    m = make_preset("ecm_c", {"kappa": 1.0, "nu": 0.5})
    u1 = np.array([0.25, 0.5])
    u2 = np.array([0.1, 0.2])
    got = v_star(m, 1.25, 1.5, u1, u2)
    want = 1.5 * u1 * (1.0 - u1) / (1.25 * (1.0 - u2))
    np.testing.assert_allclose(got, want, rtol=1e-14)


def test_v_star_domain_checks():
    m = make_preset("ecm_c", {"kappa": 1.0, "nu": 0.5})
    with pytest.raises(ConfigError):
        v_star(m, 1.0, 0.0, [0.5], [0.1])
    with pytest.raises(ConfigError):
        v_star(m, 2.5, 1.0, [0.5], [0.1])
    degenerate = TwoSpeciesModel("u1", "u1*(1 - u1)", kappa=1.0, nu=0.5)
    with pytest.raises(DegenerateDiffusionError):
        v_star(degenerate, 1.0, 1.0, np.array([0.0, 0.5]), np.array([0.5, 0.2]))


def test_profile_domain_checks():
    m = crowding_model(0.5, 1.0)
    with pytest.raises(ConfigError):
        solve_u2_profile(m, 1.0, -1.0)
    with pytest.raises(ConfigError):
        solve_u2_profile(m, 2.0, 1.0)


# -- 2/3. slaved profiles vs closed forms --------------------------------


def exact_power_law(nu, eta, u1):
    return nu * (1.0 - u1) ** eta


def exact_logistic(nu, eta, u1):
    gamma = nu / (1.0 - nu)
    z = gamma * (1.0 - u1) ** eta
    return z / (1.0 + z)


def test_constant_D_profile_is_power_law():
    rng = np.random.default_rng(7)
    probe = np.append(np.linspace(0.0, 1.0, 401), [1.0 - 1e-9, 1.0 - 1e-12, 1.0])
    for _ in range(6):
        kappa = float(rng.uniform(0.1, 5.0))
        beta = float(rng.uniform(0.2, 1.8))
        c = float(rng.uniform(0.3, 3.0))
        m = crowding_model(0.5, kappa)
        prof = solve_u2_profile(m, beta, c)
        eta = kappa * beta / (c * c)
        np.testing.assert_allclose(
            prof.u2_at(probe), exact_power_law(1.0, eta, probe), atol=1e-10
        )


def test_forced_ode_path_matches_power_law():
    probe = np.append(np.linspace(0.0, 1.0, 201), [1.0 - 1e-9, 1.0 - 1e-12, 1.0])
    for var in ("u2", "u1"):
        for kappa, beta, c in [(0.7, 0.9, 1.1), (2.5, 1.4, 0.8)]:
            m = crowding_model(0.5, kappa, force_ode=var)
            assert m.D_vars == {var}  # confirms which route is exercised
            prof = solve_u2_profile(m, beta, c)
            eta = kappa * beta / (c * c)
            np.testing.assert_allclose(
                prof.u2_at(probe), exact_power_law(1.0, eta, probe), atol=1e-8
            )


def test_ecm_profile_is_logistic():
    rng = np.random.default_rng(11)
    probe = np.append(np.linspace(0.0, 1.0, 301), [1.0 - 1e-9, 1.0 - 1e-12, 1.0])
    for _ in range(6):
        kappa = float(rng.uniform(0.1, 4.0))
        nu = float(rng.uniform(0.05, 0.9))
        beta = float(rng.uniform(0.2, 1.8))
        c = float(rng.uniform(0.3, 3.0))
        m = make_preset("ecm_c", {"kappa": kappa, "nu": nu})
        prof = solve_u2_profile(m, beta, c)
        eta = kappa * beta / (c * c)
        np.testing.assert_allclose(
            prof.u2_at(probe), exact_logistic(nu, eta, probe), atol=1e-8
        )


def test_profile_invariants():
    m = make_preset("ecm_b", {"kappa": 2.0, "nu": 0.6})
    prof = solve_u2_profile(m, 1.1, 0.9)
    probe = np.linspace(0.0, 1.0, 500)
    vals = prof.u2_at(probe)
    assert vals[0] == pytest.approx(0.6, abs=1e-12)
    assert vals[-1] == 0.0
    assert np.all(np.diff(vals) <= 1e-12)
    assert np.all((vals >= 0.0) & (vals <= 0.6))
    # tail is negligible for a strongly-degraded substance
    assert prof.u2_at(np.array([1.0 - 1e-9]))[0] <= 1e-6 * 0.6


def test_profile_tail_seam_continuity():
    m = make_preset("ecm_c", {"kappa": 1.0, "nu": 0.5})
    prof = solve_u2_profile(m, 1.0, 1.0)
    just_inside = prof.u2_at(np.array([1.0 - 1.0000001e-8]))[0]
    just_outside = prof.u2_at(np.array([1.0 - 0.9999999e-8]))[0]
    assert just_outside == pytest.approx(just_inside, abs=1e-9)


def test_general_D_tail_past_the_cut():
    model = TwoSpeciesModel("1 + 0.5*u1 - u2", "u1*(1 - u1 - u2)", kappa=1.05, nu=0.5)
    beta, c = 0.3, 1.5
    prof = solve_u2_profile(model, beta, c)
    p = model.kappa * beta / (c * c) * float(model.D_fn(1.0, 0.0))
    u2_cut = prof.u2_at(np.array([1.0 - 1e-8]))[0]
    assert 0.0 < u2_cut < 0.5
    # rtol: the float 1 - 1e-8 sits off the cut by about 1e-8 relative in
    # 1 - u1, which moves u2_cut by about p times that
    u1 = 1.0 - np.array([9.999e-9, 1e-9, 1e-10, 1e-12, 1e-15])
    np.testing.assert_allclose(
        prof.u2_at(u1), u2_cut * ((1.0 - u1) / 1e-8) ** p, rtol=1e-8, atol=0
    )
    assert prof.u2_at(np.array([1.0]))[0] == 0.0
    # the dense output and the tail meet at the seam
    inside, outside = prof.u2_at(np.array([1.0 - 1.0000001e-8, 1.0 - 0.9999999e-8]))
    assert outside == pytest.approx(inside, rel=1e-6)


def test_general_D_profile_stops_once_decayed(monkeypatch):
    # the stiff profile ODE holds DOP853's steps near 3/eta; at kappa = 1e4
    # that would be over 10^4 steps to the cut, but the run stops as soon
    # as u2 is at or below 1e-12 nu
    from wavebound import twospecies

    sols = []
    real = twospecies.dop853

    def counted(*args, **kwargs):
        sols.append(real(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(twospecies, "dop853", counted)
    nu = 0.5
    model = TwoSpeciesModel("1 + u1*u2", "u1*(1 - u1 - u2)", kappa=1e4, nu=nu)
    prof = solve_u2_profile(model, 1.5, 1.8)
    (sol,) = sols
    assert len(sol.t) - 1 < 100
    w_stop = sol.t[-1]
    assert w_stop < twospecies._W_MAX
    # past its stop the profile stays at or below 1e-12 nu and never grows
    u1 = 1.0 - np.exp(-w_stop) * np.logspace(0.0, -16.0, 400)
    vals = prof.u2_at(np.append(u1, 1.0))
    assert np.all(vals <= 1e-12 * nu)
    assert np.all(np.diff(vals) <= 0.0)


def _reference_ecm_b_profile(kappa, nu, beta, c, u1):
    """du2/dw = -eta u2 (1 - u2) in w = -ln(1 - u1), solved directly."""
    eta = kappa * beta / (c * c)
    w = -np.log1p(-u1)
    sol = solve_ivp(
        lambda _, y: -eta * y * (1.0 - y),
        (0.0, w[-1]),
        [nu],
        method="DOP853",
        t_eval=w,
        rtol=1e-12,
        atol=1e-16,
    )
    return sol.y[0]


def test_substance_curve_matches_direct_solve():
    # D = 1 - u2 depends on u2 only, so every (beta, c) is read off one
    # substance curve per model
    kappa, nu = 10.0, 0.5
    m = make_preset("ecm_b", {"kappa": kappa, "nu": nu})
    u1 = np.linspace(0.0, 1.0 - 1e-8, 801)
    for beta, c in [(0.2, 1.4), (1.1, 1.25), (1.9, 0.9)]:
        prof = solve_u2_profile(m, beta, c)
        want = _reference_ecm_b_profile(kappa, nu, beta, c, u1)
        np.testing.assert_allclose(prof.u2_at(u1), want, rtol=0, atol=1e-9)


def test_substance_curve_is_order_independent():
    probe = np.linspace(0.0, 1.0, 513)
    first, second = (1.3, 1.2), (0.4, 2.1)
    fresh = make_preset("ecm_b", {"kappa": 10.0, "nu": 0.5})
    want = solve_u2_profile(fresh, *first).u2_at(probe)
    used = make_preset("ecm_b", {"kappa": 10.0, "nu": 0.5})
    solve_u2_profile(used, *second).u2_at(probe)
    got = solve_u2_profile(used, *first).u2_at(probe)
    np.testing.assert_array_equal(got, want)


def test_substance_curve_rejects_degenerate_diffusivity():
    # no decay rate far behind the front: D(u2 = 0) = 0
    no_rate = TwoSpeciesModel("u2", "u1*(1 - u1)", kappa=1.0, nu=0.5)
    # D(nu) = 0 holds the substance at nu for ever
    stalled = TwoSpeciesModel("0.5 - u2", "u1*(1 - u1)", kappa=1.0, nu=0.5)
    for m in (no_rate, stalled):
        with pytest.raises(DegenerateDiffusionError):
            solve_u2_profile(m, 1.0, 1.0)


def test_decoupled_profile_is_flat():
    m = make_preset("ecm_c", {"kappa": 0.0, "nu": 0.5})
    prof = solve_u2_profile(m, 1.0, 1.0)
    probe = np.linspace(0.0, 0.999, 50)
    np.testing.assert_allclose(prof.u2_at(probe), 0.5, rtol=0, atol=0)


# -- 4. G vs the Gamma closed form ---------------------------------------


def test_G_matches_closed_form_on_grid():
    c = 1.3
    for lam in (0.1, 0.5, 0.9):
        for kappa in (0.1, 1.0, 10.0):
            m = crowding_model(lam, kappa)
            for beta in (0.3, 0.9, 1.5, 1.9):
                want = landman_G_closed(beta, lam, kappa, c)
                got = G_of_beta(m, beta, c)
                assert got == pytest.approx(want, rel=1e-7, abs=1e-10), (
                    lam,
                    kappa,
                    beta,
                )


def test_G_closed_form_through_ode_path():
    lam, kappa, c = 0.4, 1.5, 1.2
    for var in ("u2", "u1"):
        m = crowding_model(lam, kappa, force_ode=var)
        for beta in (0.5, 1.2, 1.8):
            want = landman_G_closed(beta, lam, kappa, c)
            assert G_of_beta(m, beta, c) == pytest.approx(want, rel=1e-7), var


def test_G_boundary_value_is_exact():
    for lam in (0.1, 0.5, 0.9):
        m = crowding_model(lam, 1.0)
        assert G_of_beta(m, 2.0, 0.7) == pytest.approx(
            2.0 * (1.0 - lam), abs=1e-10
        )
        assert landman_G_closed(2.0, lam, 1.0, 0.7) == pytest.approx(
            2.0 * (1.0 - lam), abs=1e-10
        )


def test_G_closed_form_domain_checks():
    with pytest.raises(ConfigError):
        landman_G_closed(0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ConfigError):
        landman_G_closed(1.0, 0.5, 1.0, 0.0)


# -- 5. decoupled limits --------------------------------------------------


def test_decoupled_G_and_speed():
    nu = 0.4
    m = make_preset("ecm_c", {"kappa": 0.0, "nu": nu})
    for beta in (0.5, 1.3):
        assert G_of_beta(m, beta, 1.0) == pytest.approx(beta * (1.0 - nu), rel=1e-9)
    res = solve_implicit_speed(m)
    assert res.converged
    assert res.beta_star == 2.0
    assert res.c == pytest.approx(2.0 * math.sqrt(1.0 - nu), abs=1e-9)
    assert res.c == pytest.approx(res.c_linear, abs=1e-9)
    assert res.epsilon == 0.0


# -- 6. implicit solve invariants ----------------------------------------


def test_implicit_solve_invariants():
    cases = [
        crowding_model(0.25, 0.5),  # lam K = 0.5
        crowding_model(0.75, 1.5),
        make_preset("ecm_c", {"kappa": 0.3, "nu": 0.3}),
    ]
    for m in cases:
        res = solve_implicit_speed(m)
        assert res.converged
        assert res.residual <= 1e-7
        assert res.c >= res.c_linear - 1e-9
        assert res.c_linear == pytest.approx(linear_speed_two_species(m), rel=1e-14)
        assert res.epsilon == pytest.approx(m.kappa * m.nu / res.c, rel=1e-14)
        assert 0.0 < res.beta_star <= 2.0


# speeds from the per-(beta, c) RK45 profile solves this replaced; the
# substance curve and DOP853 must reproduce them
@pytest.mark.parametrize(
    "model, want",
    [
        (make_preset("ecm_b", {"kappa": 10.0, "nu": 0.5}), 1.2482489223272415),
        (make_preset("ecm_c", {"kappa": 10.0, "nu": 0.5}), 1.4528080093876643),
        (
            TwoSpeciesModel(
                "1 + 0.5*u1 - u2", "u1*(1 - u1 - u2)", kappa=1.05, nu=0.5
            ),
            1.0076673569649341,
        ),
    ],
    ids=["ecm_b", "ecm_c", "general_D"],
)
def test_implicit_speed_regression_pins(model, want):
    res = solve_implicit_speed(model)
    assert res.converged
    assert res.c == pytest.approx(want, rel=1e-8)


# general-D speeds, bit for bit (float.hex), since golden_max took Brent's
# parabolic steps; against the pure golden section c moved by at most
# 4.5e-14 relative and beta* by 1e-7, with the same iteration counts
@pytest.mark.parametrize(
    "D, f, kappa, nu, want, beta_star, iterations",
    [
        ("1 + 0.5*u1 - u2", "u1*(1 - u1 - u2)", 1.05, 0.5,
         1.007667356925154, 1.833927520599523, 13),
        ("1 + u1*u2", "u1*(1 - u1)*(1 + 2*u1)", 3.0, 0.4,
         2.0075376029594136, 1.8390907494449202, 5),
        ("1 + u1 - 0.5*u2", "u1*(1 - u1 - 0.5*u2)", 5.0, 0.6,
         1.4691589991323615, 1.614339267177952, 15),
    ],
)
def test_general_D_speed_pins_tight(D, f, kappa, nu, want, beta_star, iterations):
    res = solve_implicit_speed(TwoSpeciesModel(D, f, kappa=kappa, nu=nu))
    assert res.c.hex() == want.hex()
    assert res.beta_star == beta_star
    assert res.iterations == iterations


@pytest.mark.parametrize("hint", [None, 1.7])
def test_sup_G_evaluates_each_beta_once(monkeypatch, hint):
    from wavebound import twospecies

    betas = []
    real = twospecies.G_of_beta

    def counted(model, beta, c):
        betas.append(float(beta))
        return real(model, beta, c)

    monkeypatch.setattr(twospecies, "G_of_beta", counted)
    model = make_preset("ecm_b", {"kappa": 10.0, "nu": 0.5})
    _, _, n = twospecies._sup_G(model, 1.25, 1e-4, hint)
    assert len(betas) > 24
    assert len(betas) == len(set(betas))
    assert n == len(betas)


def test_speed_solve_stats_count_G_evals(monkeypatch):
    from wavebound import twospecies

    calls = []
    real = twospecies.G_of_beta

    def counted(model, beta, c):
        calls.append(float(beta))
        return real(model, beta, c)

    monkeypatch.setattr(twospecies, "G_of_beta", counted)
    res = solve_implicit_speed(make_preset("ecm_b", {"kappa": 10.0, "nu": 0.5}))
    assert res.stats["G_evals"] == len(calls)
    # one beta = 2 boundary value per maximisation
    assert res.stats["sup_G_calls"] == calls.count(2.0)
    assert res.stats["sup_G_calls"] >= res.iterations


def test_sup_G_matches_landman_closed_form():
    model = make_preset("landman", {"lambda": 0.7, "K": 3.0})
    for c in (1.0, 1.2):
        beta_s, G_s, _ = twospecies_sup_G(model, c, 1e-6)
        fine = minimize_scalar(
            lambda b: -landman_G_closed(b, 0.7, model.kappa, c),
            bounds=(1e-3, 2.0), method="bounded", options={"xatol": 1e-12},
        )
        assert 1.5 < beta_s < 2.0
        assert abs(beta_s - fine.x) <= 1e-6
        assert G_s == pytest.approx(-fine.fun, rel=1e-9)


def test_no_positive_speed_is_a_model_error():
    # f < 0 on (0, 1): G(beta; c) < 0 for every beta and c
    m = TwoSpeciesModel("1", "0 - u1*(1 - u1)", kappa=1.0, nu=0.5)
    with pytest.raises(ModelError, match="no positive self-consistent speed"):
        solve_implicit_speed(m)


# crowded D = 1 models with f'(0, nu) = 1 - lam < 0, so c_linear = 0: on
# the (2.5, 3) row the damped steps never settle and the bracket's
# midpoints find the root; on (1.5, 1) and (3, 1) the first damped step
# is c = 0, outside the bracket; on (2, 3) a polish step would grow
@pytest.mark.parametrize("lam, kappa", [(2.5, 3.0), (1.5, 1.0), (3.0, 1.0), (2.0, 3.0)])
def test_bisection_fallback_reports_the_root(lam, kappa):
    # With D = 1 and f = u1 (1 - u1 - (lam / nu) u2) the slaved u2 / nu is
    # landman's, so the root is bisected here on the closed form.
    nu = 0.5
    res = solve_implicit_speed(
        TwoSpeciesModel("1", f"u1*(1 - u1 - {lam / nu!r}*u2)", kappa=kappa, nu=nu)
    )
    if (lam, kappa) == (2.5, 3.0):
        assert res.iterations > 60  # the bracket's midpoints ran
        assert res.stats["G_evals"] < 1500

    def h(c):
        fine = minimize_scalar(
            lambda b: -landman_G_closed(b, lam, kappa, c),
            bounds=(1e-3, 2.0), method="bounded", options={"xatol": 1e-12},
        )
        sup = max(-fine.fun, landman_G_closed(2.0, lam, kappa, c))
        return c * c - 2.0 * max(sup, 0.0)

    lo, hi = 0.2, 0.8
    assert h(lo) < 0.0 < h(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if h(mid) > 0.0 else (mid, hi)
    assert abs(res.c - lo) <= 1e-8
    assert res.residual < 1e-7


def test_speed_solve_to_dict():
    res = solve_implicit_speed(crowding_model(0.2, 0.4))
    d = res.to_dict()
    assert set(d) == {
        "c",
        "iterations",
        "residual",
        "epsilon",
        "converged",
        "beta_star",
        "c_linear",
        "stats",
    }
    assert set(d["stats"]) == {"G_evals", "sup_G_calls"}


# -- 7. adjoint oracle ----------------------------------------------------


def test_adjoint_matches_crowding_integral():
    # For D = 1, f = u1 (1 - u1 - lam u2): dD/du2 = 0 and d(Df)/du2 =
    # -lam u1, so u2 omega(u1) = lam * integral_u1^1 q phi(q) u2(q) dq
    # with u2 the exact power law.
    lam, kappa, beta, c = 0.5, 1.0, 1.2, 1.1
    eta = kappa * beta / (c * c)
    m = crowding_model(lam, kappa)
    prof = solve_u2_profile(m, beta, c)
    u2w = adjoint_product(m, beta, c, prof)

    def oracle(u1):
        val, _ = quad(
            lambda q: lam * q * ((1.0 - q) / q) ** beta * (1.0 - q) ** eta,
            u1,
            1.0 - 1e-12,
            epsabs=1e-11,
            epsrel=1e-11,
        )
        return val

    for u1 in (0.05, 0.3, 0.7):
        assert u2w(u1) == pytest.approx(oracle(u1), rel=1e-7, abs=1e-10)


def test_adjoint_matches_ecm_c_integral():
    # For D = 1 - u2, f = u1 (1 - u1): d(D f)/du2 = -u1 (1 - u1), so
    # u2 omega(u1) = integral_u1^1 u2(q) q (1-q) phi(q) dq with u2 the
    # exact logistic; the term through dD/du2 vanishes at v*.
    kappa, nu, beta, c = 2.0, 0.4, 1.1, 1.3
    eta = kappa * beta / (c * c)
    m = make_preset("ecm_c", {"kappa": kappa, "nu": nu})
    prof = solve_u2_profile(m, beta, c)
    u2w = adjoint_product(m, beta, c, prof)

    def oracle(u1):
        val, _ = quad(
            lambda q: exact_logistic(nu, eta, q) * q * (1.0 - q)
            * ((1.0 - q) / q) ** beta,
            u1,
            1.0 - 1e-12,
            epsabs=1e-13,
            epsrel=1e-12,
        )
        return val

    for u1 in (0.05, 0.3, 0.7):
        assert u2w(u1) == pytest.approx(oracle(u1), rel=1e-8)


def test_adjoint_edge_cases():
    m = crowding_model(0.5, 1.0)
    prof = solve_u2_profile(m, 1.0, 1.0)
    u2w = adjoint_product(m, 1.0, 1.0, prof)
    assert u2w(1.0) == 0.0
    with pytest.raises(ConfigError):
        u2w(-0.1)
    with pytest.raises(ConfigError):
        u2w(1.5)


# -- 8. optimality diagnostics -------------------------------------------


def test_pontryagin_residual_decoupled_is_zero():
    m = make_preset("ecm_c", {"kappa": 0.0, "nu": 0.5})
    prof = solve_u2_profile(m, 1.0, 1.0)
    assert pontryagin_residual(m, 1.0, 1.0, prof) == 0.0


def test_pontryagin_residual_scales_with_epsilon():
    m = crowding_model(0.5, 0.5)
    res = solve_implicit_speed(m)
    beta = res.beta_star if res.beta_star < 2.0 else 1.2
    prof = solve_u2_profile(m, beta, res.c)
    r = pontryagin_residual(m, beta, res.c, prof)
    assert 0.0 < r <= 5.0 * res.epsilon


def test_weak_coupling_report():
    m = crowding_model(0.5, 0.5)
    res = solve_implicit_speed(m)
    rep = weak_coupling_report(m, res)
    assert rep.epsilon == res.epsilon
    assert rep.crowding_ratio == pytest.approx(0.5 * 0.5 / res.c, rel=1e-14)
    assert rep.valid == (rep.epsilon < 1.0 and rep.crowding_ratio < 1.0)
    assert set(rep.to_dict()) == {"epsilon", "crowding_ratio", "valid"}

    decoupled = make_preset("ecm_c", {"kappa": 0.0, "nu": 0.5})
    rep0 = weak_coupling_report(decoupled, solve_implicit_speed(decoupled))
    assert rep0.crowding_ratio == 0.0
    assert rep0.valid
