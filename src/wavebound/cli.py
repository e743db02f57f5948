"""Command-line front end.

Four commands:

* ``wavebound bound {scalar,two-species,fisher-stefan}`` -- compute a
  speed bound (or the self-consistent coupled speed) and print it as JSON.
* ``wavebound criterion`` -- classify a scalar model as pushed /
  pulled_candidate / degenerate_pushed and print the criterion integrals.
* ``wavebound simulate {scalar,two-species,stefan}`` -- run a
  finite-difference simulation, write profile/front CSVs, print the
  fitted speed.
* ``wavebound figure {1..5}`` -- run the parameter sweep behind one of
  the five standard data figures and write one CSV per curve (bound,
  linear, and simulated speeds side by side).  Each figure is one row of
  the ``_FIGURES`` table, run by ``_run_figure``.  Before any point runs
  it refuses a grid flag the figure does not sweep and
  ``--sim-L/--sim-dx/--sim-T`` under ``--no-sim`` rather than ignore
  them, and a ``--sim-*`` value that is not finite and > 0.  Rows are
  written in the order the grid gives them.

Every handler returns ``(payload, resolved_config, outputs, exit_code)``.
``main`` alone writes the run manifest (command line, resolved
configuration, package versions, output paths, wall-clock time) into the
output directory, then prints the payload as JSON, and maps every package
error to an exit code through one table, ``_EXIT_CODES``: 2 model, usage
or domain error (divergent weighted integral, degenerate diffusivity) or
an ``--out`` that cannot be created or written,
3 solver failure (implicit-speed non-convergence with its last bracket,
quadrature, profile-ODE step), 4 numerical instability, 5 front-tracking
failure.  A sweep that finishes with some failed points exits 6.

Sweep points run one after another on the calling thread: the NumPy
work in a point is too fine-grained to gain from threads under the GIL.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
import scipy

from . import __version__
from .errors import (
    ConfigError,
    DegenerateDiffusionError,
    DivergentIntegralError,
    ExprSyntaxError,
    FrontTrackingError,
    InstabilityError,
    ModelError,
    NonConvergenceError,
    QuadratureError,
    StepFailureError,
    WaveboundError,
)
from .model import (
    _SCALAR_PRESETS,
    _TWO_PRESETS,
    Model,
    ScalarModel,
    TwoSpeciesModel,
    make_preset,
)
from .pde import (
    _IC_FIELDS,
    SimConfig,
    SimResult,
    simulate_fisher_stefan,
    simulate_scalar,
    simulate_two_species,
)
from .twospecies import solve_implicit_speed, weak_coupling_report
from .varbound import fisher_stefan_bound, selection_criterion, sup_F

EXIT_OK = 0
EXIT_MODEL = 2
EXIT_NONCONV = 3
EXIT_INSTABILITY = 4
EXIT_FRONT = 5
EXIT_PARTIAL = 6

# Looked up along the exception's MRO, so the most specific entry wins
# (DivergentIntegralError is a QuadratureError but exits 2).
_EXIT_CODES: Dict[type, int] = {
    ModelError: EXIT_MODEL,
    ConfigError: EXIT_MODEL,
    ExprSyntaxError: EXIT_MODEL,
    DivergentIntegralError: EXIT_MODEL,
    DegenerateDiffusionError: EXIT_MODEL,
    NonConvergenceError: EXIT_NONCONV,
    QuadratureError: EXIT_NONCONV,
    StepFailureError: EXIT_NONCONV,
    InstabilityError: EXIT_INSTABILITY,
    FrontTrackingError: EXIT_FRONT,
}

# (JSON payload, resolved config, output paths, exit code)
_Result = Tuple[Dict[str, object], Dict[str, object], List[str], int]


# ----------------------------------------------------------------------
# plumbing
# ----------------------------------------------------------------------


def _parse_params(pairs: Sequence[str]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ConfigError(f"--param expects NAME=VALUE, got {pair!r}")
        if name in out:
            raise ConfigError(f"--param {name} given twice")
        try:
            out[name] = float(value)
        except ValueError:
            raise ConfigError(f"--param {name}: {value!r} is not a number")
    return out


def _add_model_flags(p: argparse.ArgumentParser, two_species: bool) -> None:
    """--preset (of this flavour only), --D/--f, --kappa/--nu for two
    species, and --param; ``_build_model`` reads them."""
    variables = "u1, u2" if two_species else "u"
    presets = _TWO_PRESETS if two_species else _SCALAR_PRESETS
    p.add_argument("--preset", choices=tuple(presets))
    p.add_argument("--D", help=f"diffusivity expression in {variables}")
    p.add_argument("--f", help=f"reaction expression in {variables}")
    if two_species:
        p.add_argument("--kappa", type=float, help="degradation rate (with --D/--f)")
        p.add_argument("--nu", type=float, help="far-field substance level (with --D/--f)")
    p.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    p.set_defaults(two_species=two_species)


def _reject_with_preset(args: argparse.Namespace, flags: Sequence[str]) -> None:
    given = [f"--{name}" for name in flags if getattr(args, name) is not None]
    if args.preset and given:
        raise ConfigError(
            f"--preset {args.preset} cannot be combined with {', '.join(given)}; "
            "set preset parameters with --param NAME=VALUE"
        )


def _build_model(args: argparse.Namespace) -> Model:
    """The model named by ``_add_model_flags``'s flags.  argparse offers
    only presets of the subcommand's own flavour."""
    params = _parse_params(args.param)
    _reject_with_preset(args, ("D", "f", "kappa", "nu") if args.two_species else ("D", "f"))
    if args.preset:
        return make_preset(args.preset, params)
    if args.D is None or args.f is None:
        raise ConfigError("provide --preset, or both --D and --f")
    if not args.two_species:
        return ScalarModel(args.D, args.f, params=params)
    if args.kappa is None or args.nu is None:
        raise ConfigError("--D/--f models need --kappa and --nu")
    return TwoSpeciesModel(args.D, args.f, kappa=args.kappa, nu=args.nu, params=params)


def _manifest_name(args: argparse.Namespace) -> str:
    """bound-scalar_manifest.json, criterion_manifest.json, figure3_manifest.json, ..."""
    if args.command == "figure":
        return f"figure{args.n}_manifest.json"
    stem = "-".join(filter(None, (args.command, getattr(args, "target", None))))
    return f"{stem}_manifest.json"


def _write_manifest(
    out_dir: str,
    name: str,
    argv: Sequence[str],
    config: Dict[str, object],
    outputs: Sequence[str],
    t0: float,
) -> str:
    manifest = {
        "command_line": list(argv),
        "resolved_config": config,
        "versions": {
            "wavebound": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "outputs": sorted(outputs),
        "wall_clock_seconds": round(time.monotonic() - t0, 3),
    }
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, default=float)
        fh.write("\n")
    return path


def _fmt_cell(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _write_csv(path: str, header: Sequence[str], rows: List[Tuple]) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt_cell(v) for v in row) + "\n")


def _float_list(text: str) -> List[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise ConfigError(f"expected at least one number, got {text!r}")
    return values


def _pool_size(n_items: int) -> int:
    # no pool any more: kept only as the benchmark tracer's hook until the
    # next benchmark change drops its lookup (ROADMAP item 9)
    return 1


def _sweep(
    points: List[Tuple],
    worker: Callable[[Tuple], Tuple],
) -> Tuple[List[Tuple], List[Dict[str, str]]]:
    """Run ``worker`` over the points in order; a point that raises a
    package error becomes a failure row and the sweep goes on."""
    rows: List[Tuple] = []
    failures: List[Dict[str, str]] = []
    for point in points:
        try:
            rows.append(worker(point))
        except WaveboundError as exc:
            failures.append({"point": repr(point), "error": str(exc)})
    return rows, failures


# ----------------------------------------------------------------------
# bound / criterion
# ----------------------------------------------------------------------


def _cmd_bound_scalar(args: argparse.Namespace) -> _Result:
    model = _build_model(args)
    return sup_F(model).to_dict(), {"model": model.describe()}, [], EXIT_OK


def _cmd_bound_two(args: argparse.Namespace) -> _Result:
    model = _build_model(args)
    solve = solve_implicit_speed(model)
    payload = solve.to_dict()
    payload["weak_coupling"] = weak_coupling_report(model, solve).to_dict()
    return payload, {"model": model.describe()}, [], EXIT_OK


def _cmd_bound_fs(args: argparse.Namespace) -> _Result:
    value = fisher_stefan_bound(args.kappa)
    return {"kappa": args.kappa, "c_lb": value}, {"kappa": args.kappa}, [], EXIT_OK


def _cmd_criterion(args: argparse.Namespace) -> _Result:
    model = _build_model(args)
    report = selection_criterion(model)
    return report.to_dict(), {"model": model.describe()}, [], EXIT_OK


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def _sim_config(args: argparse.Namespace) -> SimConfig:
    snaps = tuple(args.snapshot) if args.snapshot else (args.T / 2.0, args.T)
    # the stefan parser offers no IC flags, and --ic-width/--ic-value are
    # None unless given: refuse them for an initial condition that never
    # reads them, and pass SimConfig only the values given
    for attr, kind in (("ic_width", "smoothed_step"), ("ic_value", "uniform")):
        if getattr(args, attr, None) is not None and args.ic_kind != kind:
            raise ConfigError(
                f"{_flag(attr)} is used only with --ic {kind}, got --ic {args.ic_kind}"
            )
    ic = {k: getattr(args, k) for k in _IC_FIELDS if getattr(args, k, None) is not None}
    return SimConfig(
        L=args.L, dx=args.dx, T=args.T, dt=args.dt, snapshot_times=snaps, **ic
    )


def _finish_sim(
    result: SimResult, args: argparse.Namespace, model_config: Dict[str, object]
) -> _Result:
    if math.isnan(result.fitted_speed):
        raise FrontTrackingError(
            "no trackable front: the profile never crossed the level inside "
            "the usable window, or its crossing moved less than one cell over "
            "the fit window"
        )
    os.makedirs(args.out, exist_ok=True)
    profiles = os.path.join(args.out, "profiles.csv")
    front = os.path.join(args.out, "front.csv")
    result.write_profiles_csv(profiles)
    result.write_front_csv(front)
    payload = {
        "fitted_speed": result.fitted_speed,
        "fit_residual": result.fit_residual,
        "stability_report": result.stability_report,
        "min_density": result.min_density,
        "max_density": result.max_density,
        "stats": result.stats,
    }
    # the dt the run used, which an automatic-dt config leaves as None
    sim = {**result.config.to_dict(), "dt": result.stats["dt"]}
    config = {"model": model_config, "sim": sim}
    return payload, config, [profiles, front], EXIT_OK


def _cmd_simulate_model(args: argparse.Namespace) -> _Result:
    model = _build_model(args)
    simulate = simulate_two_species if args.two_species else simulate_scalar
    result = simulate(model, _sim_config(args))
    return _finish_sim(result, args, model.describe())


def _cmd_simulate_stefan(args: argparse.Namespace) -> _Result:
    result = simulate_fisher_stefan(args.kappa, _sim_config(args))
    return _finish_sim(result, args, {"kappa": args.kappa})


# ----------------------------------------------------------------------
# figures
# ----------------------------------------------------------------------

class _Figure(NamedTuple):
    """One figure sweep.

    Each combination of the ``outer`` axes is one CSV, named by
    ``csv_name.format(*outer_values)``; the ``inner`` axis gives its
    rows.  An axis is ``(args attribute or None, default grid)``.
    ``point(*outer_values, inner_value)`` returns the bound columns and
    a thunk that simulates the same model; ``sim(inner_value)`` is the
    default ``(L, dx, T)`` for that thunk.  The functions look library
    names up when called, so patching them on this module takes effect.
    """

    outer: Tuple[Tuple[Optional[str], Tuple], ...]
    inner: Tuple[str, Tuple[float, ...]]
    csv_name: str
    header: Tuple[str, ...]
    point: Callable[..., Tuple[Tuple, Callable[[SimConfig], SimResult]]]
    sim: Callable[[float], Tuple[float, float, float]]


def _scalar_point(preset: str, params: Dict[str, float], classify: bool):
    model = make_preset(preset, params)
    res = sup_F(model)
    cols: Tuple = (res.c_lb, res.c_linear)
    if classify:
        cols += (selection_criterion(model).classification,)
    return cols, lambda cfg: simulate_scalar(model, cfg)


def _coupled_point(preset: str, params: Dict[str, float]):
    model = make_preset(preset, params)
    solve = solve_implicit_speed(model)
    report = weak_coupling_report(model, solve)
    cols = (solve.c, solve.c_linear, solve.epsilon, report.valid)
    return cols, lambda cfg: simulate_two_species(model, cfg)


def _stefan_point(kappa: float):
    cols = (fisher_stefan_bound(kappa), 2.0)
    return cols, lambda cfg: simulate_fisher_stefan(kappa, cfg)


_COUPLED_HEADER = ("c_lb", "c_linear", "epsilon", "valid")

_FIGURES: Dict[int, _Figure] = {
    1: _Figure(
        outer=(("m_list", (1.0, 2.0, 3.0)),),
        inner=("n_list", (1.0, 2.0, 3.0)),
        csv_name="figure1_m{0:g}.csv",
        header=("n", "c_lb", "c_linear"),
        point=lambda m, n: _scalar_point("porous_fisher", {"m": m, "n": n}, False),
        sim=lambda n: (200.0, 0.05, 150.0),
    ),
    2: _Figure(
        outer=(("alpha_list", (0.25, 0.5, 1.0, 2.0)),),
        inner=("a_list", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
        csv_name="figure2_alpha{0:g}.csv",
        header=("a", "c_lb", "c_linear", "classification"),
        point=lambda alpha, a: _scalar_point("allee", {"alpha": alpha, "a": a}, True),
        sim=lambda a: (200.0, 0.1, 150.0),
    ),
    3: _Figure(
        outer=(),
        inner=("kappa_list", (0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 20.0, 50.0)),
        csv_name="figure3.csv",
        header=("kappa", "c_lb", "c_linear"),
        point=_stefan_point,
        sim=lambda kappa: (60.0, 0.1, 400.0 if kappa < 0.25 else 150.0),
    ),
    4: _Figure(
        outer=((None, ("ecm_c", "ecm_b")), ("nu_list", (0.25, 0.5, 0.75))),
        inner=("kappa_list", (0.1, 0.3, 1.0, 3.0, 10.0)),
        csv_name="figure4_{0}_nu{1:g}.csv",
        header=("kappa",) + _COUPLED_HEADER,
        point=lambda preset, nu, kappa: _coupled_point(preset, {"kappa": kappa, "nu": nu}),
        sim=lambda kappa: (360.0, 0.1, 150.0),
    ),
    5: _Figure(
        outer=(("K_list", (0.5, 2.0, 8.0)),),
        inner=("lambda_list", (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)),
        csv_name="figure5_K{0:g}.csv",
        header=("lambda",) + _COUPLED_HEADER,
        point=lambda K, lam: _coupled_point("landman", {"lambda": lam, "K": K}),
        sim=lambda lam: (360.0, 0.1, 150.0),
    ),
}


def _axes(fig: _Figure) -> List[str]:
    """The args attributes of the figure's grid flags."""
    return [attr for attr, _ in fig.outer + (fig.inner,) if attr]


# every figure's grid flags in table order, and the simulation flags
# --no-sim leaves unused
_GRID_ATTRS = list(dict.fromkeys(attr for fig in _FIGURES.values() for attr in _axes(fig)))
_SIM_ATTRS = ("sim_L", "sim_dx", "sim_T")


def _flag(attr: str) -> str:
    return "--" + attr.replace("_", "-")


def _reject_unhonoured(args: argparse.Namespace, fig: _Figure) -> None:
    """Refuse, instead of ignoring, a grid flag that is not one of the
    figure's axes and any simulation flag given with --no-sim; refuse a
    simulation flag that is not finite and > 0."""
    axes = _axes(fig)
    stray = [
        _flag(a) for a in sorted(_GRID_ATTRS) if a not in axes and getattr(args, a) is not None
    ]
    if stray:
        raise ConfigError(
            f"figure {args.n} does not sweep {', '.join(stray)} "
            f"(its grid flags: {', '.join(map(_flag, axes))})"
        )
    if args.no_sim:
        unused = [_flag(a) for a in _SIM_ATTRS if getattr(args, a) is not None]
        if unused:
            raise ConfigError(f"{', '.join(unused)} cannot be combined with --no-sim")
    for attr in _SIM_ATTRS:
        value = getattr(args, attr)
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{_flag(attr)} must be finite and > 0, got {value}")


def _grid(args: argparse.Namespace, attr: Optional[str], default: Tuple) -> Sequence:
    text = getattr(args, attr) if attr else None
    return _float_list(text) if text else default


def _run_figure(args: argparse.Namespace) -> _Result:
    fig = _FIGURES[args.n]
    _reject_unhonoured(args, fig)
    outer = [_grid(args, attr, default) for attr, default in fig.outer]
    inner = _grid(args, *fig.inner)
    os.makedirs(args.out, exist_ok=True)
    header = fig.header + ("simulated", "fit_residual")

    def worker(point: Tuple) -> Tuple:
        cols, simulate = fig.point(*point)
        if args.no_sim:
            sim, resid = float("nan"), float("nan")
        else:
            L, dx, T = fig.sim(point[-1])
            res = simulate(
                SimConfig(
                    L=args.sim_L if args.sim_L is not None else L,
                    dx=args.sim_dx if args.sim_dx is not None else dx,
                    T=args.sim_T if args.sim_T is not None else T,
                )
            )
            sim, resid = res.fitted_speed, res.fit_residual
        return (point[-1],) + cols + (sim, resid)

    csvs: List[str] = []
    failures: List[Dict[str, str]] = []
    for key in itertools.product(*outer):
        rows, failed = _sweep([key + (x,) for x in inner], worker)
        path = os.path.join(args.out, fig.csv_name.format(*key))
        _write_csv(path, header, rows)
        csvs.append(path)
        failures.extend(failed)
    code = EXIT_PARTIAL if failures else EXIT_OK
    return {"csvs": csvs, "failures": failures}, {"figure": args.n}, csvs, code


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------


def _add_sim_flags(
    p: argparse.ArgumentParser, L: float, dx: float, T: float
) -> None:
    p.add_argument("--L", type=float, default=L)
    p.add_argument("--dx", type=float, default=dx)
    p.add_argument("--T", type=float, default=T)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument(
        "--snapshot", action="append", type=float, metavar="TIME",
        help="profile snapshot time (repeatable; default T/2 and T)",
    )


def _add_ic_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--level", type=float, default=0.1)
    p.add_argument("--ic", choices=("step", "smoothed_step", "uniform"),
                   default="step", dest="ic_kind")
    p.add_argument("--ic-width", type=float, default=None, dest="ic_width")
    p.add_argument("--ic-value", type=float, default=None, dest="ic_value")


class _Parser(argparse.ArgumentParser):
    """Rejects unrecognised arguments with its own usage line.

    Plain argparse hands a subcommand's leftovers up to the root parser,
    whose usage line names no subcommand.  Subparsers inherit this class.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wavebound",
        description="Travelling-wave speed bounds and validating simulations.",
    )
    parser.add_argument(
        "--version", action="version", version=f"wavebound {__version__}"
    )
    top = parser.add_subparsers(dest="command", required=True)

    bound = top.add_parser("bound", help="compute speed bounds")
    bsub = bound.add_subparsers(dest="target", required=True)
    b_scalar = bsub.add_parser("scalar", help="single-species variational bound")
    _add_model_flags(b_scalar, two_species=False)
    b_scalar.add_argument("--out", default=".")
    b_scalar.set_defaults(handler=_cmd_bound_scalar)
    b_two = bsub.add_parser("two-species", help="coupled self-consistent speed")
    _add_model_flags(b_two, two_species=True)
    b_two.add_argument("--out", default=".")
    b_two.set_defaults(handler=_cmd_bound_two)
    b_fs = bsub.add_parser("fisher-stefan", help="moving-boundary bound")
    b_fs.add_argument("--kappa", type=float, required=True)
    b_fs.add_argument("--out", default=".")
    b_fs.set_defaults(handler=_cmd_bound_fs)

    crit = top.add_parser("criterion", help="pushed/pulled classification")
    _add_model_flags(crit, two_species=False)
    crit.add_argument("--out", default=".")
    crit.set_defaults(handler=_cmd_criterion)

    sim = top.add_parser("simulate", help="finite-difference runs")
    ssub = sim.add_subparsers(dest="target", required=True)
    s_scalar = ssub.add_parser("scalar")
    _add_model_flags(s_scalar, two_species=False)
    _add_sim_flags(s_scalar, L=400.0, dx=0.1, T=150.0)
    _add_ic_flags(s_scalar)
    s_scalar.add_argument("--out", default=".")
    s_scalar.set_defaults(handler=_cmd_simulate_model)
    s_two = ssub.add_parser("two-species")
    _add_model_flags(s_two, two_species=True)
    _add_sim_flags(s_two, L=360.0, dx=0.1, T=150.0)
    _add_ic_flags(s_two)
    s_two.add_argument("--out", default=".")
    s_two.set_defaults(handler=_cmd_simulate_model)
    s_fs = ssub.add_parser("stefan")
    s_fs.add_argument("--kappa", type=float, required=True)
    _add_sim_flags(s_fs, L=60.0, dx=0.1, T=150.0)
    s_fs.add_argument("--out", default=".")
    s_fs.set_defaults(handler=_cmd_simulate_stefan)

    fig = top.add_parser("figure", help="standard sweep data (CSV per curve)")
    fig.add_argument("n", type=int, choices=(1, 2, 3, 4, 5))
    fig.add_argument("--out", default=".")
    fig.add_argument("--no-sim", action="store_true", dest="no_sim",
                     help="skip simulations; write bound columns only")
    for attr in _GRID_ATTRS:
        swept = [str(n) for n, f in _FIGURES.items() if attr in _axes(f)]
        fig.add_argument(_flag(attr), help=f"comma-separated grid of figure"
                         f"{'s' * (len(swept) > 1)} {' and '.join(swept)}")
    fig.add_argument("--sim-T", dest="sim_T", type=float, default=None)
    fig.add_argument("--sim-L", dest="sim_L", type=float, default=None)
    fig.add_argument("--sim-dx", dest="sim_dx", type=float, default=None)
    fig.set_defaults(handler=_run_figure)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        # an --out naming a file fails before any work; the directory
        # itself is made only once there is something to write into it
        if os.path.exists(args.out) and not os.path.isdir(args.out):
            raise NotADirectoryError(f"{args.out} is not a directory")
        payload, config, outputs, code = args.handler(args)
        os.makedirs(args.out, exist_ok=True)
        _write_manifest(args.out, _manifest_name(args), argv, config, outputs, t0)
    except WaveboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(_EXIT_CODES[c] for c in type(exc).__mro__ if c in _EXIT_CODES)
    except OSError as exc:
        print(f"error: cannot write to --out: {exc}", file=sys.stderr)
        return EXIT_MODEL
    print(json.dumps(payload, indent=2, default=float))
    return code


if __name__ == "__main__":
    sys.exit(main())
