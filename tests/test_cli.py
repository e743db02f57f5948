"""End-to-end checks of the ``wavebound`` command-line interface.

Every test drives ``cli.main`` in-process and inspects stdout/stderr plus
whatever lands in ``--out``.

Proves:
 1. ``bound scalar`` prints the variational result as JSON, exits 0, and
    drops a manifest recording the command line, resolved model, library
    versions, output files, and wall clock.
 2. ``bound fisher-stefan`` and ``bound two-species`` print their payloads;
    the two-species payload embeds the weak-coupling report and the
    solve's G-evaluation counts; a coupled model with no linear speed
    (c_linear = 0) still solves and exits 0.
 3. ``criterion`` classifies models on the correct side of the
    pushed/pulled boundary.
 4. Model, config, and expression-syntax errors exit 2 with an ``error:``
    line on stderr (the parse position survives into the message); a
    model outside the method's domain exits 2 and a solver failure exits
    3, each with one ``error:`` line and no traceback (a kappa so large
    that the profile overflows exits 3 with no NumPy warning before the
    line); every package
    error has an exit code; an ``--out`` that is (or lies under) a
    regular file exits 2 with one ``error:`` line and nothing on stdout;
    an unknown flag prints the subcommand's usage line, not the root's;
    ``--preset`` given with ``--D``, ``--f``, ``--kappa`` or ``--nu`` exits 2
    and points to ``--param``; every ``--preset`` choice of a subcommand
    builds a model of that subcommand's flavour, and a preset of the
    other flavour is an invalid choice (exit 2); a ``--param`` given twice, or one that
    neither ``--D`` nor ``--f`` names, exits 2; a NaN or infinite parameter or kappa, or a
    literal that parses or folds to inf, exits 2 with one ``error:`` line,
    not a traceback or a NaN in the JSON.
 5. ``simulate scalar`` writes profiles.csv and front.csv and reports the
    fitted speed, and its manifest records the model as ``describe()``
    gives it and the dt the run used, automatic or not; ``simulate
    stefan`` at kappa 50 and dx 0.2 runs on its automatic dt with nothing
    on stderr; a run whose profile never crosses the tracking level
    exits 5 without creating the output directory; a T / dt that
    overflows or exceeds 1e8 steps or a grid too fine to allocate exits 2, and times too small
    to fit a line or a run too short for its front to move one cell exit
    5, each with one ``error:`` line and nothing on stdout; ``simulate
    stefan`` rejects the initial-condition and level flags it has no use
    for; ``--ic-width`` without ``--ic smoothed_step``, ``--ic-value``
    without ``--ic uniform``, and an ``--ic-value`` outside [0, 1] (NaN
    and inf included) exit 2 before any run, and the manifest records
    the width and value the run used.
 6. ``figure`` sweeps write one CSV per curve with the documented header,
    rerun byte-identically, exit 6 when some points fail (listing each
    failure in the JSON payload, a non-finite grid value included), and
    exit 0 otherwise; rows are written in the order of the grid flag; a
    grid that holds no number, a grid flag the figure does not sweep, a
    simulation flag given with ``--no-sim`` and a simulation flag that is
    not finite and > 0 each exit 2 naming the flag, before any point runs
    or any output is written; every grid flag a figure axis names is a
    ``figure`` parser flag.
 7. Figure CSVs agree with the library: the decoupled two-species column
    solves to c = 2, and a small porous-Fisher sweep lands the simulated
    speed on top of the bound; the ``--no-sim`` CSVs of all five figures,
    and one figure 3 sweep with simulations, match frozen text byte for
    byte.
 8. Sweeps run serially on the calling thread, in point order; a failing
    point is listed and the points after it still run.
 9. Importing the package, its CLI and its ODE integrator leaves
    ``scipy.integrate`` and ``concurrent.futures`` unloaded and generates
    no DOP853 stage code: only a coupled op that solves an ODE pays for
    them.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import threading

import pytest

from wavebound import cli, errors
from wavebound.errors import ModelError, NonConvergenceError
from wavebound.model import ScalarModel, TwoSpeciesModel
from wavebound.varbound import fisher_stefan_bound


def _run(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _manifest(out_dir, name):
    path = os.path.join(str(out_dir), name)
    assert os.path.isfile(path), f"missing manifest {name}"
    with open(path) as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# bound / criterion
# ----------------------------------------------------------------------


def test_bound_scalar_porous_json_and_manifest(tmp_path, capsys):
    args = [
        "bound", "scalar", "--preset", "porous_fisher",
        "--param", "m=1", "--param", "n=1", "--out", str(tmp_path),
    ]
    code, out, err = _run(capsys, args)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["c_lb"] == pytest.approx(2.0 ** -0.5, rel=1e-9)
    assert payload["beta_star"] == pytest.approx(1.0, abs=1e-6)
    assert payload["c_linear"] == 0.0
    assert payload["selection"] == "pushed"
    assert payload["attained_at_boundary"] is False

    manifest = _manifest(tmp_path, "bound-scalar_manifest.json")
    assert set(manifest) == {
        "command_line", "resolved_config", "versions", "outputs",
        "wall_clock_seconds",
    }
    assert manifest["command_line"] == args
    assert manifest["resolved_config"]["model"]["params"] == {"m": 1.0, "n": 1.0}
    assert set(manifest["versions"]) == {"wavebound", "numpy", "scipy", "python"}
    assert manifest["outputs"] == []
    assert manifest["wall_clock_seconds"] >= 0.0


def test_bound_scalar_custom_expressions(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "bound", "scalar", "--D", "1", "--f", "u*(1 - u)", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["c_lb"] == pytest.approx(2.0, abs=1e-6)
    assert payload["c_linear"] == pytest.approx(2.0, rel=1e-12)
    assert payload["selection"] == "pulled"
    assert payload["attained_at_boundary"] is True


def test_bound_fisher_stefan_value(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "bound", "fisher-stefan", "--kappa", "50", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["kappa"] == 50.0
    assert payload["c_lb"] == pytest.approx(math.sqrt(0.96), rel=1e-12)
    manifest = _manifest(tmp_path, "bound-fisher-stefan_manifest.json")
    assert manifest["resolved_config"] == {"kappa": 50.0}


def test_bound_two_species_payload(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "bound", "two-species", "--preset", "landman",
        "--param", "lambda=0.25", "--param", "K=2.0", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["converged"] is True
    assert payload["c_linear"] == pytest.approx(2.0 * math.sqrt(0.75), rel=1e-12)
    assert payload["c"] >= payload["c_linear"] - 1e-9
    # kappa = lambda K = 0.5 and nu = 1 for this preset
    assert payload["epsilon"] == pytest.approx(0.5 / payload["c"], rel=1e-12)
    stats = payload["stats"]
    assert stats["sup_G_calls"] >= payload["iterations"]
    assert stats["G_evals"] >= stats["sup_G_calls"]
    report = payload["weak_coupling"]
    assert set(report) == {"epsilon", "crowding_ratio", "valid"}
    assert report["valid"] is True
    _manifest(tmp_path, "bound-two-species_manifest.json")


def test_bound_two_species_without_linear_speed(tmp_path, capsys):
    # f'(0, nu) = 1 - 6 nu < 0, so c_linear = 0: the speed comes from the
    # bracket on c^2 - 2 sup G, never from a step to c = 0
    code, out, err = _run(capsys, [
        "bound", "two-species", "--D", "1", "--f", "u1*(1 - u1 - 6*u2)",
        "--kappa", "1", "--nu", "0.5", "--out", str(tmp_path),
    ])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["c_linear"] == 0.0
    assert payload["c"] > 0.0
    assert payload["residual"] < 1e-7


@pytest.mark.parametrize(
    "delta, want",
    [(0.2, "pushed"), (0.8, "pulled_candidate")],
)
def test_criterion_classification_sides(tmp_path, capsys, delta, want):
    code, out, _ = _run(capsys, [
        "criterion", "--preset", "linear_shift",
        "--param", f"delta={delta}", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == want
    assert payload["lhs"] == pytest.approx(0.25 - delta / 3.0, abs=1e-9)
    assert payload["rhs"] == pytest.approx(delta / 6.0, abs=1e-12)
    _manifest(tmp_path, "criterion_manifest.json")


# ----------------------------------------------------------------------
# error exits
# ----------------------------------------------------------------------


def test_missing_model_flags_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, ["bound", "scalar", "--out", str(tmp_path)])
    assert code == 2
    assert err.startswith("error:")
    assert "--preset" in err


def test_bad_preset_parameter_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "bound", "scalar", "--preset", "porous_fisher",
        "--param", "m=-1", "--out", str(tmp_path),
    ])
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["bound", "scalar", "--preset", "porous_fisher", "--param", "m=nan"],
    ["bound", "scalar", "--preset", "porous_fisher", "--param", "m=inf"],
    ["bound", "scalar", "--D", "1", "--f", "u*(1 - u)*(u + k)", "--param", "k=-inf"],
    ["bound", "fisher-stefan", "--kappa", "inf"],
    ["bound", "fisher-stefan", "--kappa", "nan"],
    ["simulate", "stefan", "--kappa", "inf", "--T", "2"],
], ids=["m_nan", "m_inf", "custom_k_minus_inf", "kappa_inf", "kappa_nan", "sim_kappa_inf"])
def test_non_finite_parameter_exit_2(tmp_path, capsys, argv):
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("D, f", [
    ("1e308*10+u", "u*(1-u)"),
    ("1+u", "u*(1-u)*1e400"),
], ids=["folded", "parsed"])
def test_non_finite_literal_exit_2(tmp_path, capsys, D, f):
    code, out, err = _run(capsys, [
        "bound", "scalar", "--D", D, "--f", f, "--out", str(tmp_path / "o"),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error: constant inf is not finite") and err.count("\n") == 1


def test_unused_param_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, [
        "bound", "scalar", "--D", "u", "--f", "u*(1-u)", "--param", "x=1",
        "--out", str(out_dir),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error: unused parameters") and err.endswith(": x\n")
    assert not out_dir.exists()


def test_param_not_a_number_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "bound", "scalar", "--preset", "porous_fisher",
        "--param", "m=abc", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "not a number" in err


def test_syntax_error_position_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "bound", "scalar", "--D", "1", "--f", "u*(1 -", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "syntax error at position" in err


def test_two_species_needs_kappa_and_nu(tmp_path, capsys):
    code, _, err = _run(capsys, [
        "bound", "two-species", "--D", "1", "--f", "u1*(1 - u1)",
        "--out", str(tmp_path),
    ])
    assert code == 2
    assert "--kappa" in err and "--nu" in err


@pytest.mark.parametrize(
    "argv, flags",
    [
        (["bound", "scalar", "--preset", "porous_fisher", "--D", "u", "--f", "u*(1-u)"],
         "--D, --f"),
        (["criterion", "--preset", "porous_fisher", "--f", "u*(1-u)"], "--f"),
        (["simulate", "scalar", "--preset", "fisher_kpp", "--D", "2"], "--D"),
        (["bound", "two-species", "--preset", "ecm_b", "--kappa", "5", "--nu", "0.3"],
         "--kappa, --nu"),
        (["simulate", "two-species", "--preset", "ecm_c", "--D", "1", "--nu", "0.3"],
         "--D, --nu"),
    ],
)
def test_preset_with_model_flags_exit_2(tmp_path, capsys, argv, flags):
    # a preset takes its parameters through --param only
    code, out, err = _run(capsys, argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert flags in err and "--param" in err
    assert not (tmp_path / "o").exists()


def _preset_choices(*path):
    parser = cli.build_parser()
    for name in path:
        subparsers = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        )
        parser = subparsers.choices[name]
    return next(a for a in parser._actions if a.dest == "preset").choices


@pytest.mark.parametrize("path, cls", [
    (("bound", "scalar"), ScalarModel),
    (("criterion",), ScalarModel),
    (("simulate", "scalar"), ScalarModel),
    (("bound", "two-species"), TwoSpeciesModel),
    (("simulate", "two-species"), TwoSpeciesModel),
])
def test_every_preset_choice_builds_its_flavour(path, cls):
    choices = _preset_choices(*path)
    assert choices
    for name in choices:
        args = cli.build_parser().parse_args([*path, "--preset", name])
        assert type(cli._build_model(args)) is cls, name


@pytest.mark.parametrize("argv, preset", [
    (["bound", "scalar"], "ecm_b"),
    (["criterion"], "landman"),
    (["simulate", "two-species"], "fisher_kpp"),
])
def test_preset_of_the_other_flavour_is_an_invalid_choice(tmp_path, capsys, argv, preset):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*argv, "--preset", preset, "--out", str(tmp_path)])
    assert excinfo.value.code == 2
    assert f"invalid choice: '{preset}'" in capsys.readouterr().err


def test_degenerate_diffusion_exit_2(tmp_path, capsys):
    # D = 1 - u2 vanishes at the far field u2 = nu = 1
    code, out, err = _run(capsys, [
        "bound", "two-species", "--D", "1 - u2", "--f", "u1*(1-u1)",
        "--kappa", "1", "--nu", "1", "--out", str(tmp_path),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_convergence_exit_3_bracket_once(tmp_path, capsys, monkeypatch):
    def no_root(model):
        raise NonConvergenceError("implicit speed did not converge", bracket=(1.25, 1.5))

    monkeypatch.setattr(cli, "solve_implicit_speed", no_root)
    code, _, err = _run(capsys, [
        "bound", "two-species", "--preset", "landman",
        "--param", "lambda=0.5", "--param", "K=2", "--out", str(tmp_path),
    ])
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1
    assert err.count("last bracket") == 1
    assert "[1.25, 1.5]" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_kappa_exit_3_without_warnings(tmp_path, capsys):
    # kappa beta / c^2 overflows; the quadrature refuses the non-finite
    # integrand, and no NumPy overflow warning precedes the error line
    code, out, err = _run(capsys, [
        "bound", "two-species", "--preset", "ecm_b", "--param", "kappa=1e308",
        "--out", str(tmp_path),
    ])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "not finite" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_kappa_general_D_exit_3(tmp_path, capsys):
    # the profile ODE's slope at w = 0 overflows, so DOP853's initial step
    # underflows to 0: a step failure, not a ZeroDivisionError traceback
    code, out, err = _run(capsys, [
        "bound", "two-species", "--D", "1+u1*u2", "--f", "u1*(1-u1-u2)",
        "--kappa", "1e308", "--nu", "0.5", "--out", str(tmp_path),
    ])
    assert code == 3
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "initial step" in err


def test_no_positive_speed_exit_2(tmp_path, capsys):
    code, out, err = _run(capsys, [
        "bound", "two-species", "--D", "1", "--f=0 - u1*(1-u1)",
        "--kappa", "1", "--nu", "0.5", "--out", str(tmp_path),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "no positive self-consistent speed" in err


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
def test_out_not_a_directory_exit_2(tmp_path, capsys, sub):
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    out = blocker / sub if sub else blocker
    code, stdout, err = _run(capsys, [
        "bound", "fisher-stefan", "--kappa", "1", "--out", str(out),
    ])
    assert code == 2
    assert stdout == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert str(blocker) in err
    assert blocker.read_text() == "keep\n"


def test_every_package_error_has_an_exit_code():
    for obj in vars(errors).values():
        if isinstance(obj, type) and issubclass(obj, errors.WaveboundError):
            if obj is errors.WaveboundError:
                continue
            assert any(c in cli._EXIT_CODES for c in obj.__mro__), obj.__name__


def test_cli_import_leaves_scipy_integrate_unloaded():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        "import sys, wavebound, wavebound.cli, wavebound._ode; "
        "print('scipy.integrate' in sys.modules, 'concurrent.futures' in sys.modules, "
        "wavebound._ode._kernels.cache_info().currsize)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False False 0"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0
    assert "wavebound" in capsys.readouterr().out


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------


def test_simulate_scalar_writes_outputs(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "simulate", "scalar", "--preset", "fisher_kpp",
        "--L", "80", "--dx", "0.2", "--T", "25", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads(out)
    # short horizon: the front is still accelerating toward 2
    assert 1.7 <= payload["fitted_speed"] <= 2.1
    assert payload["fit_residual"] >= 0.0
    assert payload["stability_report"] <= 0.2 + 1e-12
    assert payload["min_density"] >= 0.0
    assert payload["max_density"] <= 1.0 + 1e-9
    stats = payload["stats"]
    assert stats["dt"] * stats["n_steps"] == pytest.approx(25.0, rel=1e-12)
    assert 0 < stats["cell_updates"] <= 401 * stats["n_steps"]

    profiles = tmp_path / "profiles.csv"
    front = tmp_path / "front.csv"
    assert profiles.is_file() and front.is_file()
    assert profiles.read_text().splitlines()[0].startswith("x,rho_t")
    assert front.read_text().splitlines()[0] == "t,X"

    manifest = _manifest(tmp_path, "simulate-scalar_manifest.json")
    assert manifest["outputs"] == sorted([str(profiles), str(front)])
    assert manifest["resolved_config"]["sim"]["L"] == 80.0
    assert manifest["resolved_config"]["sim"]["dt"] == stats["dt"]
    assert manifest["resolved_config"]["model"] == {
        "species": 1, "D": "1", "f": "u*(1 - u)", "params": {},
    }


def test_simulate_stefan_large_kappa_automatic_dt(tmp_path, capsys):
    # the first sdot is about kappa, so the automatic dt must also bound
    # the central advection step: dt <= 2 / kappa^2
    code, out, err = _run(capsys, [
        "simulate", "stefan", "--kappa", "50", "--L", "40", "--dx", "0.2",
        "--T", "60", "--out", str(tmp_path),
    ])
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["stats"]["dt"] <= 2.0 / 50.0**2
    assert payload["fitted_speed"] == pytest.approx(1.37048, abs=1e-4)
    manifest = _manifest(tmp_path, "simulate-stefan_manifest.json")
    assert manifest["resolved_config"]["sim"]["dt"] == payload["stats"]["dt"]


@pytest.mark.parametrize("flag", ["--L", "--T", "--dt"])
def test_simulate_non_finite_length_exit_2(tmp_path, capsys, flag):
    argv = {"--L": "80", "--T": "5", "--dt": "0.002"}
    argv[flag] = "inf"
    code, _, err = _run(capsys, [
        "simulate", "scalar", "--preset", "fisher_kpp", "--dx", "0.2",
        *[a for kv in argv.items() for a in kv], "--out", str(tmp_path),
    ])
    assert code == 2
    assert err.startswith("error:") and "must be finite" in err


def test_simulate_without_front_exits_5(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, _, err = _run(capsys, [
        "simulate", "scalar", "--preset", "fisher_kpp",
        "--ic", "uniform", "--ic-value", "0.4",
        "--L", "40", "--dx", "0.2", "--T", "5", "--out", str(out_dir),
    ])
    assert code == 5
    assert "no trackable front" in err
    # the failure is detected before any file is written
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, flag", [
    (["scalar", "--preset", "fisher_kpp", "--ic-width", "7"], "--ic-width"),
    (["scalar", "--preset", "fisher_kpp", "--ic", "uniform", "--ic-width", "7"],
     "--ic-width"),
    (["scalar", "--preset", "fisher_kpp", "--ic-value", "0.4"], "--ic-value"),
    (["two-species", "--preset", "ecm_b", "--ic", "smoothed_step", "--ic-value", "0.4"],
     "--ic-value"),
    (["scalar", "--preset", "fisher_kpp", "--ic", "uniform", "--ic-value", "nan"],
     "ic_value"),
    (["scalar", "--preset", "fisher_kpp", "--ic", "uniform", "--ic-value", "inf"],
     "ic_value"),
    (["two-species", "--preset", "ecm_b", "--ic", "uniform", "--ic-value", "1.5"],
     "ic_value"),
])
def test_simulate_unused_or_invalid_ic_flag_exit_2(tmp_path, capsys, argv, flag):
    # the run would ignore the flag yet record it in the manifest, or
    # fail as an unstable step
    out_dir = tmp_path / "run"
    code, out, err = _run(capsys, [
        "simulate", *argv, "--L", "40", "--dx", "0.2", "--T", "5", "--out", str(out_dir),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and flag in err
    assert not out_dir.exists()


def test_simulate_manifest_records_the_ic_used(tmp_path, capsys):
    code, _, _ = _run(capsys, [
        "simulate", "scalar", "--preset", "fisher_kpp", "--ic", "smoothed_step",
        "--ic-width", "2", "--L", "40", "--dx", "0.2", "--T", "5", "--out", str(tmp_path),
    ])
    assert code == 0
    sim = _manifest(tmp_path, "simulate-scalar_manifest.json")["resolved_config"]["sim"]
    assert (sim["ic_kind"], sim["ic_width"], sim["ic_value"]) == ("smoothed_step", 2.0, 0.5)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("argv, want_code, want", [
    (["scalar", "--preset", "fisher_kpp", "--dt", "1e-320", "--T", "1"], 2, "T / dt"),
    (["two-species", "--preset", "ecm_b", "--param", "kappa=1e308"], 2, "T / dt"),
    (["two-species", "--preset", "ecm_b", "--param", "kappa=1e300"], 2, "T / dt"),
    (["stefan", "--kappa", "1e100"], 2, "T / dt"),
    (["scalar", "--preset", "fisher_kpp", "--dx", "1e-300", "--T", "1"], 2, "grid too fine"),
    (["scalar", "--preset", "fisher_kpp", "--T", "1e-300"], 5, "no trackable front"),
    (["scalar", "--preset", "fisher_kpp", "--T", "1e-20"], 5, "less than one cell"),
    (["scalar", "--preset", "fisher_kpp", "--T", "0.01"], 5, "less than one cell"),
    (["two-species", "--preset", "ecm_b", "--T", "0.01"], 5, "less than one cell"),
], ids=["dt", "kappa", "kappa_steps", "stefan_kappa_steps", "dx", "T", "T_one_step",
        "T_sub_cell", "two_species_T_sub_cell"])
def test_simulate_overflowing_input_exits_with_a_code(tmp_path, capfd, argv, want_code, want):
    # T / dt overflows or asks for more than 1e8 steps (a kappa of 1e300
    # ran for days), L / dx cells cannot be allocated, the fitted times
    # are too small for a least-squares line, or the run is too short for
    # its front to move one cell (one step fitted -60230.67 at T = 1e-20,
    # five steps 11.90 at T = 0.01): one error line each, and nothing (not
    # even a LAPACK message) on stdout
    code, out, err = _run(capfd, ["simulate", *argv, "--L", "50", "--out", str(tmp_path)])
    assert code == want_code
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert want in err


@pytest.mark.parametrize(
    "flag", [["--ic", "uniform"], ["--ic-width", "2"], ["--ic-value", "0.4"], ["--level", "0.9"]]
)
def test_simulate_stefan_rejects_unused_flags(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "stefan", "--kappa", "0.5", "--out", str(tmp_path)] + flag)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, usage",
    [
        (["simulate", "stefan", "--kappa", "0.5", "--level", "0.9"],
         "usage: wavebound simulate stefan "),
        (["bound", "fisher-stefan", "--kappa", "1", "--bogus"],
         "usage: wavebound bound fisher-stefan "),
        (["figure", "3", "--nu-lst", "1"], "usage: wavebound figure "),
    ],
)
def test_unknown_flag_prints_subcommand_usage(capsys, argv, usage):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(usage)
    assert "unrecognized arguments" in err


# ----------------------------------------------------------------------
# figure sweeps
# ----------------------------------------------------------------------

# --no-sim CSVs frozen from the five separate figure drivers that the
# _FIGURES table replaced; (figure, grid flags, exit code, {csv: text}) with
# the CSVs listed in the order the payload reports them.
_GOLDEN = [
    (1, ["--m-list", "1,2", "--n-list", "1,3"], 0, {
        "figure1_m1.csv": "n,c_lb,c_linear,simulated,fit_residual\n"
                          "1,0.7071067812,0,nan,nan\n"
                          "3,0.9002484284,0,nan,nan\n",
        "figure1_m2.csv": "n,c_lb,c_linear,simulated,fit_residual\n"
                          "1,0.4596315689,0,nan,nan\n"
                          "3,0.628683938,0,nan,nan\n",
    }),
    (2, ["--alpha-list", "0.5,2", "--a-list", "0.1,0.3"], 0, {
        "figure2_alpha0.5.csv": "a,c_lb,c_linear,classification,simulated,fit_residual\n"
                                "0.1,0.4196562367,0,pushed,nan,nan\n"
                                "0.3,0.302839704,0,pulled_candidate,nan,nan\n",
        "figure2_alpha2.csv": "a,c_lb,c_linear,classification,simulated,fit_residual\n"
                              "0.1,0.6495786168,0,pushed,nan,nan\n"
                              "0.3,0.4532312159,0,pulled_candidate,nan,nan\n",
    }),
    (3, ["--kappa-list", "0.5,2,-1"], 6, {
        "figure3.csv": "kappa,c_lb,c_linear,simulated,fit_residual\n"
                       "0.5,0.2164860013,2,nan,nan\n"
                       "2,0.538809367,2,nan,nan\n",
    }),
    (4, ["--nu-list", "0.5", "--kappa-list", "0.3"], 0, {
        "figure4_ecm_c_nu0.5.csv": "kappa,c_lb,c_linear,epsilon,valid,simulated,fit_residual\n"
                                   "0.3,1.414213562,1.414213562,0.1060660172,True,nan,nan\n",
        "figure4_ecm_b_nu0.5.csv": "kappa,c_lb,c_linear,epsilon,valid,simulated,fit_residual\n"
                                   "0.3,1,1,0.15,True,nan,nan\n",
    }),
    (5, ["--K-list", "0.5", "--lambda-list", "0,0.4"], 0, {
        "figure5_K0.5.csv": "lambda,c_lb,c_linear,epsilon,valid,simulated,fit_residual\n"
                            "0,2,2,0,True,nan,nan\n"
                            "0.4,1.549193338,1.549193338,0.1290994449,True,nan,nan\n",
    }),
]


@pytest.mark.parametrize(
    "n, grid, want_code, want", _GOLDEN, ids=[f"figure{g[0]}" for g in _GOLDEN]
)
def test_figure_no_sim_golden(tmp_path, capsys, n, grid, want_code, want):
    code, out, _ = _run(capsys, ["figure", str(n), "--no-sim", "--out", str(tmp_path)] + grid)
    assert code == want_code
    assert json.loads(out)["csvs"] == [str(tmp_path / name) for name in want]
    for name, text in want.items():
        assert (tmp_path / name).read_text() == text, name
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(list(want) + [f"figure{n}_manifest.json"])


def test_figure3_with_simulation_golden(tmp_path, capsys):
    # frozen before the Stefan step stopped at its float fixed point; both
    # runs reach it, and the fitted boundary speed keeps every bit
    code, _, _ = _run(capsys, [
        "figure", "3", "--kappa-list", "0.5,5",
        "--sim-L", "40", "--sim-dx", "0.2", "--sim-T", "60", "--out", str(tmp_path),
    ])
    assert code == 0
    assert (tmp_path / "figure3.csv").read_text() == (
        "kappa,c_lb,c_linear,simulated,fit_residual\n"
        "0.5,0.2164860013,2,0.2240726231,1.066694638e-13\n"
        "5,0.781980326,2,0.8200985486,2.157495372e-13\n"
    )


_FIG5_HEADER = "lambda,c_lb,c_linear,epsilon,valid,simulated,fit_residual"


def _read_csv(path):
    lines = path.read_text().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_figure5_no_sim_decoupled_row(tmp_path, capsys):
    out_dir = tmp_path / "a"
    code, out, _ = _run(capsys, [
        "figure", "5", "--no-sim", "--K-list", "0.5",
        "--lambda-list", "0,0.4", "--out", str(out_dir),
    ])
    assert code == 0
    payload = json.loads(out)
    assert payload["failures"] == []
    assert payload["csvs"] == [str(out_dir / "figure5_K0.5.csv")]

    header, rows = _read_csv(out_dir / "figure5_K0.5.csv")
    assert header == _FIG5_HEADER
    assert len(rows) == 2
    by_lambda = {float(r[0]): r for r in rows}
    # lambda = 0 decouples the system entirely: c = c_linear = 2, eps = 0
    decoupled = by_lambda[0.0]
    assert float(decoupled[1]) == pytest.approx(2.0, abs=1e-6)
    assert float(decoupled[2]) == pytest.approx(2.0, rel=1e-12)
    assert float(decoupled[3]) == 0.0
    assert decoupled[4] == "True"
    assert decoupled[5] == "nan" and decoupled[6] == "nan"
    coupled = by_lambda[0.4]
    assert float(coupled[1]) >= float(coupled[2]) - 1e-9

    manifest = _manifest(out_dir, "figure5_manifest.json")
    assert manifest["outputs"] == payload["csvs"]

    # identical invocation reruns byte-for-byte
    out_dir2 = tmp_path / "b"
    code2, _, _ = _run(capsys, [
        "figure", "5", "--no-sim", "--K-list", "0.5",
        "--lambda-list", "0,0.4", "--out", str(out_dir2),
    ])
    assert code2 == 0
    assert (out_dir / "figure5_K0.5.csv").read_bytes() == (
        out_dir2 / "figure5_K0.5.csv"
    ).read_bytes()


def test_figure3_partial_failure_exits_6(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "figure", "3", "--no-sim", "--kappa-list", "1,-1",
        "--out", str(tmp_path),
    ])
    assert code == 6
    payload = json.loads(out)
    assert len(payload["failures"]) == 1
    assert "-1" in payload["failures"][0]["point"]
    assert payload["failures"][0]["error"]

    header, rows = _read_csv(tmp_path / "figure3.csv")
    assert header == "kappa,c_lb,c_linear,simulated,fit_residual"
    assert len(rows) == 1
    assert float(rows[0][0]) == 1.0
    assert float(rows[0][1]) == pytest.approx(fisher_stefan_bound(1.0), rel=1e-9)
    assert float(rows[0][2]) == 2.0


def test_figure2_non_finite_grid_value_is_a_point_failure(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "figure", "2", "--no-sim", "--alpha-list", "nan", "--a-list", "0.1",
        "--out", str(tmp_path),
    ])
    assert code == 6
    failures = json.loads(out)["failures"]
    assert failures == [{
        "point": "(nan, 0.1)",
        "error": "parameter values must be finite: alpha = nan",
    }]


@pytest.mark.parametrize("grid", [",", " , ,"])
def test_figure_empty_grid_exit_2(tmp_path, capsys, grid):
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, [
        "figure", "3", "--no-sim", "--kappa-list", grid, "--out", str(out_dir),
    ])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "at least one number" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, flag",
    [
        # a grid flag that is not one of the figure's axes
        (["figure", "2", "--no-sim", "--alpha-list", "1", "--a-list", "0.1",
          "--m-list", "1"], "--m-list"),
        (["figure", "2", "--no-sim", "--alpha-list", "1", "--a-list", "0.1",
          "--kappa-list", "3"], "--kappa-list"),
        # a simulation flag that --no-sim leaves unused
        (["figure", "1", "--no-sim", "--m-list", "1", "--n-list", "1",
          "--sim-T", "5"], "--sim-T"),
        # a simulation flag that is not finite and > 0, caught before any
        # point computes its bound
        (["figure", "3", "--kappa-list", "1", "--sim-dx", "-1"], "--sim-dx"),
        (["figure", "3", "--kappa-list", "1", "--sim-dx", "0"], "--sim-dx"),
        (["figure", "3", "--kappa-list", "1", "--sim-T", "nan"], "--sim-T"),
        (["figure", "3", "--kappa-list", "1", "--sim-L", "inf"], "--sim-L"),
    ],
)
def test_figure_unhonoured_flag_exit_2(tmp_path, capsys, argv, flag):
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, argv + ["--out", str(out_dir)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert flag in err
    assert not out_dir.exists()


def test_figure_rows_in_grid_order(tmp_path, capsys):
    code, _, _ = _run(capsys, [
        "figure", "3", "--no-sim", "--kappa-list", "2.5,10", "--out", str(tmp_path),
    ])
    assert code == 0
    _, rows = _read_csv(tmp_path / "figure3.csv")
    assert [row[0] for row in rows] == ["2.5", "10"]


def test_figure_grid_attrs_are_parser_flags():
    # a figure axis without its flag would leave _reject_unhonoured an
    # AttributeError, and the CLI a traceback
    assert cli._GRID_ATTRS
    for attr in cli._GRID_ATTRS:
        args = cli.build_parser().parse_args(["figure", "1", cli._flag(attr), "7"])
        assert getattr(args, attr) == "7", attr


def test_repeated_param_exit_2(tmp_path, capsys):
    out_dir = tmp_path / "o"
    code, out, err = _run(capsys, [
        "bound", "scalar", "--preset", "porous_fisher",
        "--param", "m=2", "--param", "m=3", "--out", str(out_dir),
    ])
    assert code == 2
    assert out == ""
    assert err == "error: --param m given twice\n"
    assert not out_dir.exists()


def test_figure1_small_sweep_with_simulation(tmp_path, capsys):
    code, out, _ = _run(capsys, [
        "figure", "1", "--m-list", "1", "--n-list", "1",
        "--sim-L", "50", "--sim-dx", "0.2", "--sim-T", "30",
        "--out", str(tmp_path),
    ])
    assert code == 0
    assert json.loads(out)["failures"] == []
    header, rows = _read_csv(tmp_path / "figure1_m1.csv")
    assert header == "n,c_lb,c_linear,simulated,fit_residual"
    assert len(rows) == 1
    n, c_lb, c_linear, simulated, _resid = (float(v) for v in rows[0])
    assert n == 1.0
    assert c_lb == pytest.approx(2.0 ** -0.5, rel=1e-9)
    assert c_linear == 0.0
    assert simulated == pytest.approx(2.0 ** -0.5, abs=0.03)
    assert simulated >= c_lb - 0.03


# ----------------------------------------------------------------------
# serial sweep
# ----------------------------------------------------------------------


def test_sweep_runs_on_the_calling_thread():
    calls = []

    def worker(point):
        calls.append((threading.get_ident(), point))
        if point == (2,):
            raise ModelError("no model at 2")
        return point + (10 * point[0],)

    points = [(k,) for k in range(5)]
    rows, failures = cli._sweep(points, worker)
    assert calls == [(threading.main_thread().ident, p) for p in points]
    assert rows == [(0, 0), (1, 10), (3, 30), (4, 40)]
    assert failures == [{"point": "(2,)", "error": "no model at 2"}]
