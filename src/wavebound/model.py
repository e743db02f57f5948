"""Reaction-diffusion model definitions, validation, presets, model files.

A model is a diffusivity/reaction pair given as expression strings (see
``expr``), plus numeric parameters.  Two flavours exist:

* ``ScalarModel``: one species,  rho_t = (D(rho) rho_x)_x + f(rho),
  with f(0) = f(1) = 0 and D >= 0 on [0, 1];

* ``TwoSpeciesModel``: a density u1 invading a static substance u2 that
  is degraded at rate kappa where u1 is present,

      u1_t = (D(u1, u2) u1_x)_x + f(u1, u2),      u2_t = -kappa u1 u2,

  with far-field level u2 -> nu ahead of the front, f(0, .) = 0 and
  f(1, 0) = 0.

Construction validates the model (cheap grid checks, exact expectations
to 1e-12) so that downstream numerics can assume well-posed input.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from functools import cached_property
from typing import Callable, Dict, Mapping, Optional, Union

import numpy as np

from .errors import ConfigError, ModelError
from .expr import (
    SCALAR_VARS,
    TWO_SPECIES_VARS,
    Expr,
    compile_fn,
    params_of,
    parse,
    substitute,
    variables_of,
)

__all__ = [
    "ScalarModel",
    "TwoSpeciesModel",
    "Model",
    "make_preset",
    "preset_names",
    "load_model_file",
    "dump_model_file",
]

_ZTOL = 1e-12
_VAL_GRID = np.linspace(0.0, 1.0, 201)


def _fd_derivative(g: Callable[[float], float], x0: float = 0.0) -> float:
    """One-sided second-order derivative with one Richardson pass.

    (-3 g(x0) + 4 g(x0+h) - g(x0+2h)) / (2h) at h and h/2, extrapolated.
    Exact for cubics; ~1e-10 relative rounding noise in double precision.
    """

    def fd3(h: float) -> float:
        return (-3.0 * g(x0) + 4.0 * g(x0 + h) - g(x0 + 2.0 * h)) / (2.0 * h)

    h = 1e-6
    return (4.0 * fd3(h / 2.0) - fd3(h)) / 3.0


def _require_finite(params: Mapping[str, float]) -> None:
    """Refuse NaN and infinite parameter values: they have no literal in
    the compiled source, and no model is defined by them."""
    bad = [name for name in sorted(params) if not math.isfinite(float(params[name]))]
    if bad:
        raise ModelError(
            "parameter values must be finite: "
            + ", ".join(f"{name} = {params[name]}" for name in bad)
        )


def _compile_pair(
    D: str, f: str, variables: tuple[str, ...], params: Mapping[str, float]
) -> tuple[Expr, Callable, Callable]:
    """Parse D and f in ``variables``, check that ``params`` holds a finite
    value for every parameter they name and no other, and compile both:
    (D's syntax tree, D_fn, f_fn)."""
    _require_finite(params)
    D_ast = parse(D, variables)
    f_ast = parse(f, variables)
    named = params_of(D_ast) | params_of(f_ast)
    missing = named - set(params)
    if missing:
        raise ModelError(f"missing parameter values: {', '.join(sorted(missing))}")
    unused = set(params) - named
    if unused:
        raise ModelError(f"unused parameters (neither D nor f names them): "
                         f"{', '.join(sorted(unused))}")
    return (
        D_ast,
        compile_fn(D_ast, variables, params),
        compile_fn(f_ast, variables, params),
    )


def _evaluate(domain: str, *calls: tuple) -> list:
    """Each ``(fn, *args)`` call as a float array, with floating-point
    warnings off.  A call that raises ``ArithmeticError`` (a Python-float
    call such as u^-1 at u = 0 divides by zero) fails on ``domain``."""
    with np.errstate(all="ignore"):
        try:
            return [np.asarray(fn(*args), dtype=float) for fn, *args in calls]
        except ArithmeticError as exc:
            raise ModelError(
                f"model expressions fail to evaluate on {domain}: {exc}"
            ) from None


@dataclass(frozen=True)
class ScalarModel:
    """Single-species model. D and f are expressions in ``u``."""

    D: str
    f: str
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        _, D_fn, f_fn = _compile_pair(self.D, self.f, SCALAR_VARS, self.params)

        f0, f1, D_vals, f_vals = _evaluate(
            "[0, 1]", (f_fn, 0.0), (f_fn, 1.0), (D_fn, _VAL_GRID), (f_fn, _VAL_GRID)
        )
        if abs(f0) > _ZTOL:
            raise ModelError(f"f(0) = {f0:.3e}; the reaction must vanish at u = 0")
        if abs(f1) > _ZTOL:
            raise ModelError(f"f(1) = {f1:.3e}; the reaction must vanish at u = 1")
        if not np.all(np.isfinite(D_vals)):
            raise ModelError("D(u) is not finite everywhere on [0, 1]")
        if float(np.min(D_vals)) < -_ZTOL:
            at = float(_VAL_GRID[int(np.argmin(D_vals))])
            raise ModelError(f"D(u) < 0 at u = {at:g}; diffusivity must be >= 0")
        if not np.all(np.isfinite(f_vals)):
            raise ModelError("f(u) is not finite everywhere on [0, 1]")

        object.__setattr__(self, "D_fn", D_fn)
        object.__setattr__(self, "f_fn", f_fn)

    @cached_property
    def fprime0(self) -> float:
        """f'(0) by one-sided finite differences (f need not be polynomial)."""
        f_fn = self.f_fn
        return _fd_derivative(lambda u: float(f_fn(u)))

    @property
    def D0(self) -> float:
        return float(self.D_fn(0.0))

    def DR_fn(self) -> Callable[[np.ndarray], np.ndarray]:
        """g(u) = D(u) f(u)/u, finite at u = 0 (the bound's density).

        Safe for exact zeros and denormals: below 1e-300 the ratio f(u)/u
        is replaced by its limit f'(0).
        """
        D_fn = self.D_fn
        f_fn = self.f_fn
        fp0 = self.fprime0

        def g(u: np.ndarray) -> np.ndarray:
            u = np.asarray(u, dtype=float)
            tiny = u < 1e-300
            safe = np.where(tiny, 1.0, u)
            return D_fn(u) * np.where(tiny, fp0, f_fn(safe) / safe)

        return g

    def describe(self) -> Dict[str, object]:
        return {"species": 1, **asdict(self)}


@dataclass(frozen=True)
class TwoSpeciesModel:
    """Invader/substance model. D and f are expressions in ``u1``, ``u2``."""

    D: str
    f: str
    kappa: float
    nu: float
    params: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "nu", float(self.nu))
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ModelError(f"kappa must be finite and >= 0, got {self.kappa}")
        if not 0.0 <= self.nu <= 1.0:
            raise ModelError(f"nu must lie in [0, 1], got {self.nu}")
        D_ast, D_fn, f_fn = _compile_pair(self.D, self.f, TWO_SPECIES_VARS, self.params)

        u2_line = np.linspace(0.0, self.nu, 21)
        g1, g2 = (g.ravel() for g in np.meshgrid(np.linspace(0.0, 1.0, 41), u2_line))
        f_at_0, f_10, D_vals, f_vals = _evaluate(
            "[0, 1] x [0, nu]",
            (f_fn, np.zeros_like(u2_line), u2_line),
            (f_fn, 1.0, 0.0),
            (D_fn, g1, g2),
            (f_fn, g1, g2),
        )
        if float(np.max(np.abs(f_at_0))) > _ZTOL:
            raise ModelError("f(0, u2) must vanish for all u2 in [0, nu]")
        if abs(f_10) > _ZTOL:
            raise ModelError(f"f(1, 0) = {f_10:.3e}; expected 0")
        if not np.all(np.isfinite(D_vals)):
            raise ModelError("D(u1, u2) is not finite on [0, 1] x [0, nu]")
        if float(np.min(D_vals)) < -_ZTOL:
            raise ModelError("D(u1, u2) < 0 somewhere on [0, 1] x [0, nu]")
        if not np.all(np.isfinite(f_vals)):
            raise ModelError("f(u1, u2) is not finite on [0, 1] x [0, nu]")

        object.__setattr__(self, "D_fn", D_fn)
        object.__setattr__(self, "f_fn", f_fn)
        # the variable names the diffusivity actually depends on
        object.__setattr__(
            self, "D_vars", frozenset(variables_of(substitute(D_ast, self.params)))
        )

    @cached_property
    def dfdu1_at_front(self) -> float:
        """d f / d u1 at (0, nu): the linearisation seen by the leading edge."""
        f_fn = self.f_fn
        nu = self.nu
        return _fd_derivative(lambda u1: float(f_fn(u1, nu)))

    @property
    def D_at_front(self) -> float:
        return float(self.D_fn(0.0, self.nu))

    def describe(self) -> Dict[str, object]:
        return {"species": 2, **asdict(self)}


Model = Union[ScalarModel, TwoSpeciesModel]


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------


def _get(params: Mapping[str, float], key: str, default: float) -> float:
    v = params.get(key, default)
    try:
        return float(v)
    except (TypeError, ValueError):
        raise ConfigError(f"parameter {key!r} must be a number, got {v!r}") from None


def _mk_fisher_kpp(p: Mapping[str, float]) -> ScalarModel:
    return ScalarModel("1", "u*(1 - u)")


def _mk_porous_fisher(p: Mapping[str, float]) -> ScalarModel:
    m = _get(p, "m", 1.0)
    n = _get(p, "n", 1.0)
    if m < 0:
        raise ConfigError(f"porous_fisher needs m >= 0, got m = {m}")
    if n <= 0:
        raise ConfigError(f"porous_fisher needs n > 0, got n = {n}")
    return ScalarModel("u^m", "u*(1 - u^n)", {"m": m, "n": n})


def _mk_allee(p: Mapping[str, float]) -> ScalarModel:
    alpha = _get(p, "alpha", 1.0)
    a = _get(p, "a", 0.25)
    if alpha <= 0:
        raise ConfigError(f"allee needs alpha > 0, got alpha = {alpha}")
    if not 0.0 <= a <= 0.5:
        raise ConfigError(f"allee needs a in [0, 0.5], got a = {a}")
    return ScalarModel("alpha*u + u^2", "u*(1 - u)*(u - a)", {"alpha": alpha, "a": a})


def _mk_linear_shift(p: Mapping[str, float]) -> ScalarModel:
    delta = _get(p, "delta", 0.0)
    if delta < 0:
        raise ConfigError(f"linear_shift needs delta >= 0, got delta = {delta}")
    return ScalarModel("u + delta", "u*(1 - u)", {"delta": delta})


def _require_ecm(p: Mapping[str, float]) -> tuple[float, float]:
    kappa = _get(p, "kappa", 1.0)
    nu = _get(p, "nu", 0.5)
    if kappa < 0:
        raise ConfigError(f"kappa must be >= 0, got {kappa}")
    if not 0.0 <= nu < 1.0:
        raise ConfigError(f"nu must lie in [0, 1) for this preset, got {nu}")
    return kappa, nu


def _mk_ecm_c(p: Mapping[str, float]) -> TwoSpeciesModel:
    kappa, nu = _require_ecm(p)
    return TwoSpeciesModel("1 - u2", "u1*(1 - u1)", kappa=kappa, nu=nu)


def _mk_ecm_b(p: Mapping[str, float]) -> TwoSpeciesModel:
    kappa, nu = _require_ecm(p)
    return TwoSpeciesModel("1 - u2", "u1*(1 - u1 - u2)", kappa=kappa, nu=nu)


def _mk_landman(p: Mapping[str, float]) -> TwoSpeciesModel:
    lam = _get(p, "lambda", 0.5)
    K = _get(p, "K", 1.0)
    if not 0.0 <= lam < 1.0:
        raise ConfigError(f"landman needs lambda in [0, 1), got {lam}")
    if not (math.isfinite(K) and K > 0):
        raise ConfigError(f"landman needs a finite K > 0, got {K}")
    # u2 is consumed at rate (lambda K) u1 u2 and sits at level 1 far ahead;
    # the reaction feels it through the -lambda*u2 crowding term.
    return TwoSpeciesModel(
        "1",
        "u1*(1 - u1 - lambda*u2)",
        kappa=lam * K,
        nu=1.0,
        params={"lambda": lam},
    )


# name -> (builder, parameter names), one table per model flavour; the
# CLI offers each table's names, in this order, to its own subcommands
_Presets = Dict[str, tuple[Callable[[Mapping[str, float]], Model], tuple[str, ...]]]
_SCALAR_PRESETS: _Presets = {
    "fisher_kpp": (_mk_fisher_kpp, ()),
    "porous_fisher": (_mk_porous_fisher, ("m", "n")),
    "allee": (_mk_allee, ("alpha", "a")),
    "linear_shift": (_mk_linear_shift, ("delta",)),
}
_TWO_PRESETS: _Presets = {
    "ecm_c": (_mk_ecm_c, ("kappa", "nu")),
    "ecm_b": (_mk_ecm_b, ("kappa", "nu")),
    "landman": (_mk_landman, ("lambda", "K")),
}
_PRESETS: _Presets = {**_SCALAR_PRESETS, **_TWO_PRESETS}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def make_preset(name: str, params: Optional[Mapping[str, float]] = None) -> Model:
    """Instantiate a named preset, validating parameter names and ranges."""
    if name not in _PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    builder, allowed = _PRESETS[name]
    params = dict(params or {})
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(
            f"preset {name!r} does not take parameter(s) "
            f"{', '.join(sorted(unknown))}; allowed: {', '.join(allowed) or 'none'}"
        )
    return builder(params)


# ----------------------------------------------------------------------
# Model files: flat "key = value" text
# ----------------------------------------------------------------------

_SCALAR_KEYS = {"D", "f"}
_TWO_KEYS = {"D", "f", "kappa", "nu"}


def load_model_file(path: str) -> Model:
    """Read a model from a flat key = value file.

    Recognised keys: ``D``, ``f``, expression strings; ``kappa``, ``nu``
    (their presence selects the two-species flavour); ``param.<name>``
    for numeric parameters.  ``#`` starts a comment.
    """
    entries: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in entries:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            entries[key] = value

    params: Dict[str, float] = {}
    plain: Dict[str, str] = {}
    for key, value in entries.items():
        if key.startswith("param."):
            name = key[len("param."):]
            if not name:
                raise ConfigError(f"{path}: empty parameter name in {key!r}")
            try:
                params[name] = float(value)
            except ValueError:
                raise ConfigError(
                    f"{path}: parameter {name!r} must be a number, got {value!r}"
                ) from None
        else:
            plain[key] = value

    two_species = "kappa" in plain or "nu" in plain
    allowed = _TWO_KEYS if two_species else _SCALAR_KEYS
    unknown = set(plain) - allowed
    if unknown:
        raise ConfigError(
            f"{path}: unknown key(s): {', '.join(sorted(unknown))}"
        )
    for req in ("D", "f"):
        if req not in plain:
            raise ConfigError(f"{path}: missing required key {req!r}")

    if two_species:
        for req in ("kappa", "nu"):
            if req not in plain:
                raise ConfigError(
                    f"{path}: two-species model files must set {req!r}"
                )
        try:
            kappa = float(plain["kappa"])
            nu = float(plain["nu"])
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        return TwoSpeciesModel(plain["D"], plain["f"], kappa=kappa, nu=nu, params=params)
    return ScalarModel(plain["D"], plain["f"], params=params)


def dump_model_file(model: Model, path: str) -> None:
    """Write a model back out in the flat key = value format."""
    lines = [f"D = {model.D}", f"f = {model.f}"]
    if isinstance(model, TwoSpeciesModel):
        lines.append(f"kappa = {model.kappa!r}")
        lines.append(f"nu = {model.nu!r}")
    for name in sorted(model.params):
        lines.append(f"param.{name} = {model.params[name]!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
