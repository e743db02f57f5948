"""Single-species speed bounds: objective, maximisation, classification.

Proves:
  1.  F(beta) computed by quadrature matches closed Gamma-function forms
      for the power-law family D = u^m, f = u(1 - u^n) (fixed points and
      a property test over random m, n, beta) and for the Allee family
  2.  sup_F reproduces hand maxima: logistic growth attains the
      boundary value 2 D(0) f'(0) (c_lb = 2), degenerate m = 1 gives
      beta* = 1, F* = 1/4 (c_lb = 1/sqrt 2), and m = 2 lands at
      beta* = (5 - sqrt 7)/3, F* = (10 + 7 sqrt 7)/270, all against
      independently-derived radicals
  3.  Structural invariants: c_lb**2 = 2 F_star, F_star is clamped at 0
      for decay-only reactions, sup F >= every interior sample, and the
      near-boundary objective approaches the beta -> 2 limit
  4.  The pushed/pulled integral criterion evaluates its two sides to the
      analytic values for shifted-linear diffusivity, flips at
      delta = 1/2, and labels degenerate fronts
  5.  The moving-boundary bound: frozen spot values, monotonicity,
      c < 1, the small-kappa slope 1/sqrt 3, series/direct continuity
      at the switchover, and rejection of kappa <= 0 or non-finite
  6.  Integrands that defeat the endpoint weight raise
      DivergentIntegralError rather than returning garbage
  7.  Bound dominance: c_lb >= c_linear - 1e-8 over 100 seeded random
      parameter draws cycling the single-species presets
  8.  The grid scan grouped by substitution exponent: sup_F's beta_star,
      F_star and c_lb are pinned exactly on every scalar preset and custom
      draws, and on every pushed pin F_star is F_of_beta at beta_star bit
      for bit; the grouped scan picks the same grid point as a per-beta
      adaptive F_of_beta loop over the presets and 50 seeded draws; the
      15 group meshes adapted in lockstep give the grid values of a loop
      that builds each group's mesh on its own, bit for bit
  9.  Argument checks: F_of_beta returns the limit at beta = 2 and raises
      ConfigError outside [0, 2]
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import beta as beta_fn

from wavebound.errors import ConfigError, DivergentIntegralError
from wavebound.model import ScalarModel, make_preset
from wavebound.varbound import (
    BoundResult,
    F_limit_beta2,
    F_of_beta,
    closed_form_F,
    fisher_stefan_bound,
    linear_speed,
    selection_criterion,
    sup_F,
)
from wavebound._quad import _q_for, beta_weighted_on_mesh, frozen_beta_mesh
from wavebound.varbound import _beta, _grid_values

# -- 1. quadrature vs closed forms --------------------------------------


def test_wound_closed_form_fixed_points():
    for m, n in [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (1.5, 2.0), (0.5, 3.0)]:
        model = make_preset("porous_fisher", {"m": m, "n": n})
        for b in (0.2, 0.8, 1.3, 1.9):
            want = closed_form_F("wound", b, m=m, n=n)
            got = F_of_beta(model, b)
            assert got == pytest.approx(want, rel=1e-10), (m, n, b)


def test_porous_n1_equals_wound():
    for m in (0.0, 0.7, 2.3):
        for b in (0.4, 1.1, 1.8):
            assert closed_form_F("porous_n1", b, m=m) == pytest.approx(
                closed_form_F("wound", b, m=m, n=1.0), rel=1e-12
            )


def test_allee_closed_form():
    alpha, a = 0.8, 0.2
    model = make_preset("allee", {"alpha": alpha, "a": a})
    for b in (0.3, 1.0, 1.7):
        want = closed_form_F("allee", b, alpha=alpha, a=a)
        got = F_of_beta(model, b)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12), b


@settings(max_examples=25, deadline=None)
@given(
    m=st.floats(min_value=0.0, max_value=3.0),
    n=st.floats(min_value=0.5, max_value=3.0),
    b=st.floats(min_value=0.05, max_value=1.95),
)
def test_wound_closed_form_property(m, n, b):
    model = make_preset("porous_fisher", {"m": m, "n": n})
    want = closed_form_F("wound", b, m=m, n=n)
    assert F_of_beta(model, b) == pytest.approx(want, rel=1e-8, abs=1e-13)


def test_closed_form_rejects_bad_input():
    with pytest.raises(ConfigError, match="unknown closed form"):
        closed_form_F("nope", 1.0)
    with pytest.raises(ConfigError, match="beta"):
        closed_form_F("wound", 2.0, m=1.0, n=1.0)
    with pytest.raises(ConfigError, match="unexpected parameter"):
        closed_form_F("porous_n1", 1.0, m=1.0, n=2.0)
    # a negative non-integer Gamma argument has a finite lgamma, but no
    # meaning in these closed forms
    with pytest.raises(ValueError, match="Gamma"):
        closed_form_F("wound", 1.0, m=-3.5, n=1.0)


def test_F_at_zero_is_zero():
    assert F_of_beta(make_preset("fisher_kpp"), 0.0) == 0.0


# -- 2. maxima against hand radicals ------------------------------------


def test_logistic_attains_boundary():
    res = sup_F(make_preset("fisher_kpp"))
    assert res.attained_at_boundary
    assert res.beta_star == 2.0
    assert res.F_star == pytest.approx(2.0, abs=1e-9)
    assert res.c_lb == pytest.approx(2.0, abs=1e-6)
    assert res.c_linear == pytest.approx(2.0, rel=1e-9)
    assert res.selection == "pulled"


def test_degenerate_m1_maximum():
    # F(beta) = beta (2 - beta) / 4: max 1/4 at beta = 1
    res = sup_F(make_preset("porous_fisher", {"m": 1.0, "n": 1.0}))
    assert res.selection == "pushed"
    assert not res.attained_at_boundary
    assert res.beta_star == pytest.approx(1.0, abs=1e-8)
    assert res.F_star == pytest.approx(0.25, rel=1e-10)
    assert res.c_lb == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
    assert res.c_linear == 0.0


def test_degenerate_m2_maximum():
    # F(beta) = beta (3 - beta)(2 - beta) / 20; F'(beta*) = 0 at
    # beta* = (5 - sqrt 7)/3, where F* = (10 + 7 sqrt 7)/270
    res = sup_F(make_preset("porous_fisher", {"m": 2.0, "n": 1.0}))
    beta_want = (5.0 - math.sqrt(7.0)) / 3.0
    F_want = (10.0 + 7.0 * math.sqrt(7.0)) / 270.0
    assert res.beta_star == pytest.approx(beta_want, abs=1e-8)
    assert res.F_star == pytest.approx(F_want, abs=1e-8)
    assert res.c_lb == pytest.approx(math.sqrt(2.0 * F_want), rel=1e-8)


# -- 3. structural invariants -------------------------------------------


def test_c_lb_squared_is_twice_F_star():
    for name, params in [
        ("fisher_kpp", {}),
        ("porous_fisher", {"m": 0.5, "n": 2.0}),
        ("allee", {"alpha": 0.3, "a": 0.1}),
        ("linear_shift", {"delta": 0.8}),
    ]:
        res = sup_F(make_preset(name, params))
        assert res.c_lb**2 == pytest.approx(2.0 * res.F_star, rel=1e-12, abs=1e-300)


def test_decay_only_reaction_clamps_to_zero():
    res = sup_F(ScalarModel("1", "u*(u - 1)"))
    assert res.F_star == 0.0
    assert res.c_lb == 0.0
    assert res.c_linear == 0.0


def test_sup_dominates_interior_samples():
    model = make_preset("allee", {"alpha": 0.25, "a": 0.0})
    res = sup_F(model)
    for b in np.linspace(0.01, 1.99, 40):
        assert res.F_star >= F_of_beta(model, float(b)) - 1e-9


def test_near_boundary_approaches_limit():
    for model in (make_preset("fisher_kpp"), make_preset("linear_shift", {"delta": 0.3})):
        lim = F_limit_beta2(model)
        assert abs(F_of_beta(model, 1.999) - lim) <= 0.02
        assert lim == pytest.approx(2.0 * model.D0 * model.fprime0, rel=1e-9)


def test_linear_speed_values():
    assert linear_speed(make_preset("fisher_kpp")) == pytest.approx(2.0, rel=1e-9)
    assert linear_speed(make_preset("linear_shift", {"delta": 0.25})) == pytest.approx(
        1.0, rel=1e-9
    )
    assert linear_speed(make_preset("porous_fisher", {"m": 1.0, "n": 1.0})) == 0.0


def test_bound_result_to_dict():
    d = sup_F(make_preset("fisher_kpp")).to_dict()
    assert list(d) == [
        "beta_star",
        "F_star",
        "c_lb",
        "c_linear",
        "selection",
        "attained_at_boundary",
    ]


# -- 4. pushed/pulled criterion -----------------------------------------


def test_criterion_analytic_sides():
    # D = u + delta, f = u(1 - u): lhs = 1/4 - delta/3, rhs = delta/6
    for delta in (0.2, 0.45, 0.7):
        rep = selection_criterion(make_preset("linear_shift", {"delta": delta}))
        assert rep.lhs == pytest.approx(0.25 - delta / 3.0, abs=1e-9)
        assert rep.rhs == pytest.approx(delta / 6.0, rel=1e-12)


def test_criterion_flip_at_half():
    pushed = selection_criterion(make_preset("linear_shift", {"delta": 0.4999}))
    pulled = selection_criterion(make_preset("linear_shift", {"delta": 0.5001}))
    assert pushed.classification == "pushed"
    assert pulled.classification == "pulled_candidate"


def test_criterion_labels():
    assert selection_criterion(make_preset("fisher_kpp")).classification == (
        "pulled_candidate"
    )
    rep = selection_criterion(make_preset("porous_fisher", {"m": 1.0, "n": 1.0}))
    assert rep.classification == "degenerate_pushed"
    assert rep.c_linear == 0.0


def test_criterion_logistic_lhs():
    # g = 1 - u gives lhs = -1/3 exactly
    rep = selection_criterion(make_preset("fisher_kpp"))
    assert rep.lhs == pytest.approx(-1.0 / 3.0, abs=1e-9)
    assert rep.rhs == pytest.approx(1.0 / 6.0, rel=1e-12)


# -- 5. moving-boundary bound -------------------------------------------


def test_stefan_bound_spot_values():
    assert fisher_stefan_bound(1.0) == pytest.approx(0.35636830358888605, rel=1e-12)
    assert fisher_stefan_bound(50.0) == pytest.approx(math.sqrt(0.96), rel=1e-12)


def test_stefan_bound_small_kappa_slope():
    k = 1e-3
    assert fisher_stefan_bound(k) / (k / math.sqrt(3.0)) == pytest.approx(1.0, abs=1e-3)


def test_stefan_bound_series_junction():
    lo = fisher_stefan_bound(0.01)
    hi = fisher_stefan_bound(0.010000001)
    assert hi == pytest.approx(lo, rel=1e-7)


def test_stefan_bound_monotone_below_one():
    grid = np.logspace(-3, 2, 60)
    vals = np.array([fisher_stefan_bound(float(k)) for k in grid])
    assert np.all(np.diff(vals) > 0.0)
    assert np.all(vals < 1.0)


def test_stefan_bound_rejects_nonpositive():
    with pytest.raises(ConfigError):
        fisher_stefan_bound(0.0)
    with pytest.raises(ConfigError):
        fisher_stefan_bound(-2.0)


@pytest.mark.parametrize("kappa", [math.inf, math.nan])
def test_stefan_bound_rejects_non_finite(kappa):
    with pytest.raises(ConfigError, match="finite"):
        fisher_stefan_bound(kappa)


# -- 6. divergence handling ---------------------------------------------


def test_divergent_objective_raises():
    model = ScalarModel("1", "u^0.001*(1 - u)")
    with pytest.raises(DivergentIntegralError):
        F_of_beta(model, 1.5)
    # at beta = 0.5 the weight keeps the integral finite:
    # N = B(0.501, 2.5), so F = 0.5 B(0.501, 2.5) / B(1.5, 2.5)
    want = 0.5 * beta_fn(0.501, 2.5) / beta_fn(1.5, 2.5)
    assert F_of_beta(model, 0.5) == pytest.approx(want, rel=1e-6)


# -- 7. bound dominance over the preset catalogue -----------------------


def test_bound_dominates_linear_speed_over_random_draws():
    rng = np.random.default_rng(3)
    for i in range(100):
        which = i % 4
        if which == 0:
            model = make_preset("fisher_kpp", {})
        elif which == 1:
            model = make_preset(
                "porous_fisher",
                {"m": rng.uniform(0.0, 3.0), "n": rng.uniform(0.5, 3.0)},
            )
        elif which == 2:
            model = make_preset(
                "allee",
                {"alpha": rng.uniform(0.25, 2.0), "a": rng.uniform(0.0, 0.5)},
            )
        else:
            model = make_preset("linear_shift", {"delta": rng.uniform(0.0, 2.0)})
        res = sup_F(model)
        assert res.c_lb >= linear_speed(model) - 1e-8, model.describe()


# -- 8. grouped grid scan -----------------------------------------------

_CUSTOM_D, _CUSTOM_F = "u^m + d", "u*(1 - u)*(1 + r*u)"


def _scalar_model(name, params):
    if name == "custom":
        return ScalarModel(_CUSTOM_D, _CUSTOM_F, params)
    return make_preset(name, params)


# (model, params, beta_star, F_star, c_lb) since golden_max took Brent's
# parabolic steps: beta_star moved by at most 1.4e-11 from the pure golden
# section's, F_star by 1.1e-15 and c_lb by 4.8e-16 relative
_SUP_F_PINS = [
    ("fisher_kpp", {}, 2.0, 2.0000000000000004, 2.0),
    ("porous_fisher", {}, 0.9999999999964133, 0.2500000000000003, 0.7071067811865479),
    ("porous_fisher", {"m": 2.0},
     0.784749562978172, 0.10563058954624949, 0.45963156885977596),
    ("allee", {}, 0.6138487788566487, 0.080249652339297, 0.40062364468238015),
    ("allee", {"alpha": 0.3, "a": 0.4},
     0.4765431290493536, 0.022851941482549088, 0.21378466494371895),
    ("linear_shift", {}, 0.9999999999964133, 0.2500000000000003, 0.7071067811865479),
    ("linear_shift", {"delta": 1.0}, 2.0, 2.0000000000000004, 2.0),
    ("custom", {"m": 1.5, "d": 0.3, "r": 2.0},
     1.206554833074068, 0.7571543910238658, 1.2305725423751872),
    ("custom", {"m": 1.2, "d": 0.1, "r": 4.5},
     0.899782231262922, 0.8092553317153062, 1.2722070049447975),
    ("custom", {"m": 1.8, "d": 0.0, "r": 1.0},
     0.7696914190194386, 0.18548931146022565, 0.6090801449074262),
]


@pytest.mark.parametrize(
    "name,params,beta_star,F_star,c_lb",
    _SUP_F_PINS,
    ids=[f"{pin[0]}-{i}" for i, pin in enumerate(_SUP_F_PINS)],
)
def test_sup_F_pinned_exactly(name, params, beta_star, F_star, c_lb):
    res = sup_F(_scalar_model(name, params))
    assert (res.beta_star, res.F_star, res.c_lb) == (beta_star, F_star, c_lb)


_PUSHED_PINS = [(i, pin) for i, pin in enumerate(_SUP_F_PINS) if pin[2] < 2.0]


@pytest.mark.parametrize(
    "name,params",
    [pin[:2] for _, pin in _PUSHED_PINS],
    ids=[f"{pin[0]}-{i}" for i, pin in _PUSHED_PINS],
)
def test_sup_F_interior_value_is_F_of_beta(name, params):
    # sup_F forms F* from the density g alone; it must stay the public F
    model = _scalar_model(name, params)
    res = sup_F(model)
    assert res.selection == "pushed"
    assert res.F_star == F_of_beta(model, res.beta_star)


_DRAWS = {
    "porous_fisher": lambda rng: {"m": rng.uniform(1.0, 3.0), "n": rng.uniform(1.0, 3.0)},
    "allee": lambda rng: {"alpha": rng.uniform(0.25, 2.0), "a": rng.uniform(0.0, 0.5)},
    "linear_shift": lambda rng: {"delta": rng.uniform(0.0, 1.5)},
    "custom": lambda rng: {
        "m": rng.uniform(1.0, 2.0), "d": rng.uniform(0.0, 1.0), "r": rng.uniform(0.0, 6.0)
    },
}


def test_grouped_scan_picks_the_adaptive_argmax():
    # the oracle is the scan as it was: one adaptive F_of_beta per grid beta
    rng = np.random.default_rng(11)
    families = list(_DRAWS)
    cases = [(name, {}) for name in ("fisher_kpp", *families[:3])]
    cases += [(families[i % 4], _DRAWS[families[i % 4]](rng)) for i in range(50)]
    for name, params in cases:
        model = _scalar_model(name, params)
        betas, values = _grid_values(model.DR_fn())
        oracle = [F_of_beta(model, float(b)) for b in betas]
        assert np.argmax(values) == np.argmax(oracle), (name, params)
        np.testing.assert_allclose(values, oracle, rtol=1e-7, atol=1e-12)


def test_lockstep_grid_equals_per_group_loop():
    # the reference builds each q group's mesh on its own, as the scan
    # did before the 15 meshes adapted in lockstep
    rng = np.random.default_rng(5)
    families = list(_DRAWS)
    cases = [(name, {}) for name in ("fisher_kpp", *families[:3])]
    cases += [(families[i % 4], _DRAWS[families[i % 4]](rng)) for i in range(12)]
    for name, params in cases:
        g = _scalar_model(name, params).DR_fn()
        betas = np.linspace(1e-3, 2.0 - 1e-3, 64)
        qs = np.array([_q_for(b) for b in betas])
        want = np.empty_like(betas)
        for q in np.unique(qs):
            group = betas[qs == q]
            N = beta_weighted_on_mesh(group, frozen_beta_mesh(g, group[-1]))
            want[qs == q] = group * N / [_beta(2.0 - b, 2.0 + b) for b in group]
        got_betas, got = _grid_values(g)
        np.testing.assert_array_equal(got_betas, betas)
        np.testing.assert_array_equal(got, want, err_msg=f"{name} {params}")


# -- 9. argument checks -------------------------------------------------


def test_F_of_beta_at_two_is_the_limit():
    for model in (make_preset("fisher_kpp"), make_preset("allee")):
        assert F_of_beta(model, 2.0) == F_limit_beta2(model)


@pytest.mark.parametrize("beta", [-0.1, 2.0 + 1e-12, 3.0, math.nan, math.inf])
def test_F_of_beta_outside_range_is_config_error(beta):
    with pytest.raises(ConfigError, match="beta"):
        F_of_beta(make_preset("fisher_kpp"), beta)
