"""Model construction, validation, presets, and model files.

Proves:
  1.  The preset registry builds every named model with the documented
      defaults, parameter ranges are enforced (ConfigError; a landman K
      that is inf or NaN is named as K, not as the kappa derived from it),
      and unknown presets/parameters are rejected with the available names
  2.  ScalarModel validation: reaction must vanish at both ends, D and f
      must be finite on [0, 1], D must be non-negative, every
      parameter used by an expression must be supplied, every parameter
      supplied must be used by one (a model file's ``param.<name>`` too),
      and no parameter value may be NaN or infinite
  3.  TwoSpeciesModel validation: f(0, u2) = 0 on the far-field range,
      f(1, 0) = 0, kappa finite and >= 0, nu in [0, 1], finite parameters
  4.  Derived quantities: fprime0 and dfdu1_at_front match hand
      derivatives, D0/D_at_front evaluate the diffusivity, and D_vars
      reports the variables the (parameter-bound) diffusivity uses; the
      compiled D_fn/f_fn and D_vars are frozen like the fields, but are
      not fields
  5.  DR_fn is finite at exact and denormal u = 0, patched there to
      D(0) f'(0), and equals D(u) f(u)/u beyond it
  6.  Model files round-trip through dump/load, and malformed files
      raise ConfigError with the offending path/line
"""

import dataclasses

import numpy as np
import pytest

from wavebound.errors import ConfigError, ModelError
from wavebound.model import (
    ScalarModel,
    TwoSpeciesModel,
    dump_model_file,
    load_model_file,
    make_preset,
    preset_names,
)

# -- 1. presets ---------------------------------------------------------


def test_preset_names():
    assert preset_names() == sorted(
        ["fisher_kpp", "porous_fisher", "allee", "linear_shift", "ecm_c", "ecm_b", "landman"]
    )


def test_fisher_kpp_preset():
    m = make_preset("fisher_kpp")
    assert isinstance(m, ScalarModel)
    assert m.D0 == 1.0
    assert m.fprime0 == pytest.approx(1.0, rel=1e-9)
    assert float(m.f_fn(0.25)) == pytest.approx(0.1875)


def test_porous_fisher_preset():
    m = make_preset("porous_fisher", {"m": 2.0, "n": 3.0})
    assert float(m.D_fn(0.5)) == pytest.approx(0.25)
    assert float(m.f_fn(0.5)) == pytest.approx(0.5 * (1 - 0.125))
    assert m.D0 == 0.0


def test_allee_preset():
    m = make_preset("allee", {"alpha": 0.5, "a": 0.25})
    assert float(m.D_fn(1.0)) == pytest.approx(1.5)
    # f = u (1 - u)(u - a)  =>  f'(0) = -a
    assert m.fprime0 == pytest.approx(-0.25, rel=1e-8)


def test_linear_shift_preset():
    m = make_preset("linear_shift", {"delta": 0.3})
    assert m.D0 == pytest.approx(0.3)
    assert float(m.D_fn(1.0)) == pytest.approx(1.3)


def test_ecm_presets():
    mc = make_preset("ecm_c", {"kappa": 2.0, "nu": 0.5})
    assert isinstance(mc, TwoSpeciesModel)
    assert mc.kappa == 2.0 and mc.nu == 0.5
    assert mc.D_at_front == pytest.approx(0.5)
    assert mc.dfdu1_at_front == pytest.approx(1.0, rel=1e-9)

    mb = make_preset("ecm_b", {"kappa": 2.0, "nu": 0.5})
    # crowding by u2 shifts the edge linearisation to 1 - nu
    assert mb.dfdu1_at_front == pytest.approx(0.5, rel=1e-9)


def test_landman_preset():
    m = make_preset("landman", {"lambda": 0.25, "K": 2.0})
    assert m.nu == 1.0
    assert m.kappa == pytest.approx(0.5)  # lambda * K
    assert m.dfdu1_at_front == pytest.approx(0.75, rel=1e-9)
    assert m.D_at_front == 1.0


@pytest.mark.parametrize(
    "name,params",
    [
        ("porous_fisher", {"m": -1.0}),
        ("porous_fisher", {"n": 0.0}),
        ("allee", {"alpha": 0.0}),
        ("allee", {"a": 0.6}),
        ("linear_shift", {"delta": -0.1}),
        ("ecm_c", {"nu": 1.0}),
        ("ecm_b", {"kappa": -2.0}),
        ("landman", {"lambda": 1.0}),
        ("landman", {"K": 0.0}),
    ],
)
def test_preset_range_errors(name, params):
    with pytest.raises(ConfigError):
        make_preset(name, params)


@pytest.mark.parametrize(
    "params", [{"K": np.inf}, {"K": np.nan}, {"lambda": 0.0, "K": np.inf}]
)
def test_landman_non_finite_K_names_K(params):
    # K = inf would otherwise surface as a non-finite kappa = lambda K
    with pytest.raises(ConfigError, match="landman needs a finite K > 0"):
        make_preset("landman", params)


def test_unknown_preset_lists_names():
    with pytest.raises(ConfigError, match="fisher_kpp"):
        make_preset("nope")


def test_unknown_preset_parameter():
    with pytest.raises(ConfigError, match="does not take"):
        make_preset("fisher_kpp", {"m": 1.0})


# -- 2/3. validation ----------------------------------------------------


def test_scalar_reaction_must_vanish():
    with pytest.raises(ModelError, match="vanish at u = 0"):
        ScalarModel("1", "1 - u")
    with pytest.raises(ModelError, match="vanish at u = 1"):
        ScalarModel("1", "u")


def test_scalar_negative_diffusivity():
    with pytest.raises(ModelError, match="must be >= 0"):
        ScalarModel("-1", "u*(1 - u)")


def test_scalar_non_finite():
    with pytest.raises(ModelError, match="D.*not finite"):
        ScalarModel("1/u", "u*(1 - u)")
    # interior pole: finite at the checked endpoints, infinite on the grid
    with pytest.raises(ModelError, match="f.*not finite"):
        ScalarModel("1", "u*(1 - u)/(0.5 - u)")


def test_scalar_eval_failure_is_model_error():
    # scalar evaluation at u = 1 divides by zero in pure-python floats
    with pytest.raises(ModelError, match="fail to evaluate"):
        ScalarModel("1", "u*(1 - u)/(1 - u)")


def test_scalar_missing_parameter():
    with pytest.raises(ModelError, match="missing parameter values: m"):
        ScalarModel("u^m", "u*(1 - u)")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_parameter_is_model_error(value):
    with pytest.raises(ModelError, match="m = "):
        ScalarModel("u^m", "u*(1 - u)", params={"m": value})
    with pytest.raises(ModelError, match="lam = "):
        TwoSpeciesModel(
            "1", "u1*(1 - u1 - lam*u2)", kappa=1.0, nu=0.5, params={"lam": value}
        )
    with pytest.raises(ModelError, match="finite"):
        make_preset("porous_fisher", {"m": abs(value)})


def test_unused_parameter_is_model_error():
    with pytest.raises(ModelError, match="unused parameters .*: x$"):
        ScalarModel("u", "u*(1 - u)", params={"x": 1.0})
    with pytest.raises(ModelError, match="unused parameters .*: lam, z$"):
        TwoSpeciesModel(
            "1", "u1*(1 - u1)", kappa=1.0, nu=0.5, params={"z": 0.0, "lam": 0.5}
        )


def test_two_species_eval_failure_is_model_error():
    # f(1, 0) divides by zero in pure-python floats
    with pytest.raises(ModelError, match=r"fail to evaluate on \[0, 1\] x \[0, nu\]"):
        TwoSpeciesModel("1", "u1*(1 - u1)/(1 - u1)", kappa=1.0, nu=0.5)


def test_two_species_validation():
    ok = dict(kappa=1.0, nu=0.5)
    with pytest.raises(ModelError, match="kappa"):
        TwoSpeciesModel("1", "u1*(1 - u1)", kappa=-1.0, nu=0.5)
    with pytest.raises(ModelError, match="kappa must be finite"):
        TwoSpeciesModel("1", "u1*(1 - u1)", kappa=np.inf, nu=0.5)
    with pytest.raises(ModelError, match="nu"):
        TwoSpeciesModel("1", "u1*(1 - u1)", kappa=1.0, nu=1.5)
    with pytest.raises(ModelError, match=r"f\(0, u2\)"):
        TwoSpeciesModel("1", "u2*(1 - u1)", **ok)
    with pytest.raises(ModelError, match=r"f\(1, 0\)"):
        TwoSpeciesModel("1", "u1*(1 - u2)", **ok)


# -- 4. derived quantities ----------------------------------------------


def test_d_vars_tracks_bound_diffusivity():
    ok = dict(kappa=1.0, nu=0.5)
    assert TwoSpeciesModel("1 - u2", "u1*(1 - u1)", **ok).D_vars == {"u2"}
    assert TwoSpeciesModel("1", "u1*(1 - u1)", **ok).D_vars == frozenset()
    # a structurally-present but numerically-inert variable still counts:
    # constant folding only collapses fully-constant subtrees
    assert TwoSpeciesModel("1 + 0*u2", "u1*(1 - u1)", **ok).D_vars == {"u2"}
    assert TwoSpeciesModel("u1", "u1*(1 - u1)", **ok).D_vars == {"u1"}


def test_d_vars_after_parameter_binding():
    m = TwoSpeciesModel(
        "c0 + 0*u2", "u1*(1 - u1)", kappa=1.0, nu=0.5, params={"c0": 2.0}
    )
    assert m.D_vars == {"u2"}


@pytest.mark.parametrize(
    "preset, attr",
    [("fisher_kpp", "D_fn"), ("fisher_kpp", "f_fn"),
     ("ecm_b", "D_fn"), ("ecm_b", "f_fn"), ("ecm_b", "D_vars")],
)
def test_compiled_attributes_are_frozen(preset, attr):
    m = make_preset(preset)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(m, attr, None)
    assert attr not in {f.name for f in dataclasses.fields(m)}
    assert attr not in m.describe()


# -- 5. safe growth-rate ratio ------------------------------------------


def test_growth_rate_patched_at_zero():
    m = make_preset("fisher_kpp")
    g = m.DR_fn()  # fisher_kpp has D = 1, so g is the growth rate f(u)/u
    u = np.array([0.0, 1e-310, 0.25, 0.5, 1.0])
    out = g(u)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(1.0, rel=1e-9)  # f'(0)
    assert out[2] == pytest.approx(0.75)
    assert out[4] == pytest.approx(0.0, abs=1e-12)


def test_dr_fn_is_bound_integrand():
    m = make_preset("porous_fisher", {"m": 1.0, "n": 1.0})
    g = m.DR_fn()
    u = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(g(u), u * (1.0 - u), rtol=1e-9, atol=1e-12)


# -- 6. model files -----------------------------------------------------


def test_model_file_round_trip_scalar(tmp_path):
    path = str(tmp_path / "scalar.model")
    m = make_preset("porous_fisher", {"m": 1.5, "n": 2.0})
    dump_model_file(m, path)
    back = load_model_file(path)
    assert isinstance(back, ScalarModel)
    assert back.describe() == m.describe()


def test_model_file_round_trip_two_species(tmp_path):
    path = str(tmp_path / "two.model")
    m = make_preset("landman", {"lambda": 0.3, "K": 1.5})
    dump_model_file(m, path)
    back = load_model_file(path)
    assert isinstance(back, TwoSpeciesModel)
    assert back.describe() == m.describe()


def test_model_file_comments_and_blanks(tmp_path):
    path = tmp_path / "c.model"
    path.write_text(
        "# a scalar model\n\nD = 1   # constant diffusivity\nf = u*(1 - u)\n"
    )
    m = load_model_file(str(path))
    assert m.D.strip() == "1"


def test_model_file_unused_parameter(tmp_path):
    path = tmp_path / "unused.model"
    path.write_text("D = u\nf = u*(1 - u)\nparam.x = 1\n")
    with pytest.raises(ModelError, match="unused parameters .*: x$"):
        load_model_file(str(path))


@pytest.mark.parametrize(
    "body,needle",
    [
        ("D = 1\n", "missing required key 'f'"),
        ("D = 1\nD = 2\nf = u*(1 - u)\n", "duplicate key"),
        ("D = 1\nf = u*(1 - u)\nbogus = 3\n", "unknown key"),
        ("D = 1\nf = u*(1 - u)\nparam. = 3\n", "empty parameter name"),
        ("D = 1\nf = u*(1 - u)\nparam.a = x\n", "must be a number"),
        ("D = 1\nf = u1*(1 - u1)\nkappa = 1\n", "must set 'nu'"),
        ("D = 1\nf = u1*(1 - u1)\nkappa = abc\nnu = 0.5\n", "could not convert"),
        ("just some text\n", "expected 'key = value'"),
    ],
)
def test_model_file_errors(tmp_path, body, needle):
    path = tmp_path / "bad.model"
    path.write_text(body)
    with pytest.raises(ConfigError, match=needle):
        load_model_file(str(path))
