"""Finite-difference simulators and level-set front tracking.

Proves:
  1.  estimate_speed recovers an exactly-translating front's speed,
      reports zero for a stationary one, and raises FrontTrackingError
      for profiles with no crossing or multiple descending crossings
  2.  SimConfig validates its fields (an ic_value outside [0, 1], NaN
      included, too); grids below 200 cells are refused
  3.  A reaction-free uniform state stays exactly constant (conservation
      + no spurious source), and yields NaN fitted speed with an empty
      front series
  4.  The logistic run respects the maximum principle (densities stay in
      [0, 1] to rounding), runs at the intended explicit-step ratio, and
      its front fit is tight; the degenerate-diffusivity run stays
      non-negative
  5.  The fitted logistic speed is grid-converged to within 1% between
      dx = 0.2 and dx = 0.1
  6.  Two-species runs: the substance field decays monotonically in time
      and stays inside [0, nu]
  7.  An oversized explicit step trips InstabilityError rather than
      returning numbers, in every simulator
  8.  The moving-boundary run matches its independent references: speed
      within half a percent of the benchmark at kappa = 0.5, the
      small-kappa run lands within 10% of kappa/sqrt(3) while staying
      above the variational bound, a too-short run warns that the
      boundary speed has not plateaued, kappa must be finite and > 0,
      and a config that sets the initial condition or level it does not
      use is refused
  9.  Snapshot and CSV output: requested times are captured (t = 0 and
      t = T in every simulator, and times that fall on one step) and the
      writers produce parseable files with the documented headers
 10.  One short run per simulator reproduces its pinned speed, residual,
      density range and step ratio to 1e-12, and an uncoupled two-species
      run is bit-for-bit the scalar run
 11.  The active window is exact: the flux simulators equal a plain
      full-grid explicit loop bit for bit (snapshots, front series, speed,
      residual, step ratio, density range), report the dt and step count
      they used, and step fewer cells than the grid on a degenerate front;
      the in-place moving-boundary step equals the plain expression loop
      bit for bit (snapshots, boundary track, speed, residual), also on
      runs past the float fixed point, where it stops stepping the grid
"""

import math

import numpy as np
import pytest

from wavebound import (
    ConfigError,
    FrontTrackingError,
    InstabilityError,
    ScalarModel,
    SimConfig,
    TwoSpeciesModel,
    estimate_speed,
    fisher_stefan_bound,
    make_preset,
    simulate_fisher_stefan,
    simulate_scalar,
    simulate_two_species,
)

_ECM_C = make_preset("ecm_c", {"kappa": 1.0, "nu": 0.5})

# one constructor per simulator, for the tests every simulator must pass
_SIMULATORS = {
    "scalar": lambda cfg: simulate_scalar(make_preset("fisher_kpp"), cfg),
    "two_species": lambda cfg: simulate_two_species(_ECM_C, cfg),
    "stefan": lambda cfg: simulate_fisher_stefan(0.5, cfg),
}

# -- 1. front tracking on synthetic data ---------------------------------


def _front(x, pos):
    return 0.5 * (1.0 - np.tanh((x - pos) / 2.0))


def test_estimate_speed_translating_front():
    x = np.linspace(0.0, 100.0, 1001)
    times = np.arange(0.0, 21.0)
    profiles = [_front(x, 20.0 + 1.3 * t) for t in times]
    series, fitted, resid = estimate_speed(times, x, profiles)
    assert fitted == pytest.approx(1.3, abs=1e-3)
    assert resid < 1e-3
    assert series.shape[1] == 2


def test_estimate_speed_stationary():
    x = np.linspace(0.0, 50.0, 501)
    times = np.arange(0.0, 11.0)
    profiles = [_front(x, 25.0) for _ in times]
    _, fitted, resid = estimate_speed(times, x, profiles)
    assert fitted == pytest.approx(0.0, abs=1e-12)
    assert resid == pytest.approx(0.0, abs=1e-12)


def test_estimate_speed_no_crossing():
    x = np.linspace(0.0, 50.0, 501)
    with pytest.raises(FrontTrackingError, match="does not cross"):
        estimate_speed([0.0], x, [np.full_like(x, 0.05)])


def test_estimate_speed_multiple_crossings():
    x = np.linspace(0.0, 12.0, 601)
    rho = np.where(x < 3.0, 0.5, np.where(x < 6.0, 0.05, np.where(x < 9.0, 0.5, 0.0)))
    with pytest.raises(FrontTrackingError, match="more than once"):
        estimate_speed([0.0], x, [rho])


# -- 2. configuration validation -----------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(L=0.0, dx=0.1, T=1.0),
        dict(L=10.0, dx=-0.1, T=1.0),
        dict(L=10.0, dx=0.1, T=0.0),
        dict(L=10.0, dx=0.1, T=1.0, dt=-0.001),
        dict(L=10.0, dx=0.1, T=1.0, ic_kind="ramp"),
        dict(L=10.0, dx=0.1, T=1.0, level=1.0),
        dict(L=10.0, dx=0.1, T=1.0, snapshot_times=(2.0,)),
        dict(L=10.0, dx=0.1, T=1.0, ic_kind="smoothed_step", ic_width=0.0),
        dict(L=10.0, dx=0.1, T=1.0, ic_kind="smoothed_step", ic_width=math.inf),
        dict(L=math.inf, dx=0.1, T=1.0),
        dict(L=10.0, dx=0.1, T=math.inf),
        dict(L=10.0, dx=0.1, T=1.0, dt=math.inf),
        dict(L=10.0, dx=0.1, T=math.nan),
        dict(L=10.0, dx=0.1, T=1.0, ic_kind="uniform", ic_value=math.nan),
        dict(L=10.0, dx=0.1, T=1.0, ic_kind="uniform", ic_value=math.inf),
        dict(L=10.0, dx=0.1, T=1.0, ic_kind="uniform", ic_value=-0.1),
        dict(L=10.0, dx=0.1, T=1.0, ic_value=1.5),
    ],
)
def test_sim_config_rejects(kwargs):
    with pytest.raises(ConfigError):
        SimConfig(**kwargs)


def test_sim_config_to_dict():
    cfg = SimConfig(L=40.0, dx=0.2, T=5.0, snapshot_times=(1.0, 5.0))
    d = cfg.to_dict()
    assert d["L"] == 40.0 and d["snapshot_times"] == [1.0, 5.0]


def test_grid_too_coarse():
    with pytest.raises(ConfigError, match="too coarse"):
        simulate_scalar(make_preset("fisher_kpp"), SimConfig(L=10.0, dx=0.1, T=1.0))


# -- 3. quiescent exactness ----------------------------------------------


def test_reaction_free_uniform_state_is_constant():
    model = ScalarModel("1", "0*u")
    cfg = SimConfig(L=40.0, dx=0.2, T=5.0, ic_kind="uniform", ic_value=0.37)
    res = simulate_scalar(model, cfg)
    assert res.min_density == pytest.approx(0.37, abs=1e-14)
    assert res.max_density == pytest.approx(0.37, abs=1e-14)
    assert math.isnan(res.fitted_speed)
    assert res.front_series.size == 0


# -- 4. canonical runs ----------------------------------------------------


def test_logistic_maximum_principle(fkpp_sim):
    assert fkpp_sim.min_density >= -1e-9
    assert fkpp_sim.max_density <= 1.0 + 1e-9
    assert 0.15 < fkpp_sim.stability_report <= 0.2 + 1e-12
    assert fkpp_sim.fit_residual < 0.5 * fkpp_sim.config.dx
    assert 1.9 < fkpp_sim.fitted_speed < 2.05


def test_degenerate_run_stays_nonnegative(porous_sim):
    assert porous_sim.min_density >= -1e-9
    assert porous_sim.max_density <= 1.0 + 1e-9
    assert 0.65 < porous_sim.fitted_speed < 0.75
    # ahead of the front D(0) = f(0) = 0, so most cells are never stepped
    stats = porous_sim.stats
    assert stats["cell_updates"] < porous_sim.x_grid.size * stats["n_steps"]


# -- 5. grid convergence ---------------------------------------------------


def test_logistic_speed_grid_converged():
    model = make_preset("fisher_kpp")
    coarse = simulate_scalar(model, SimConfig(L=120.0, dx=0.2, T=40.0))
    fine = simulate_scalar(model, SimConfig(L=120.0, dx=0.1, T=40.0))
    assert abs(coarse.fitted_speed - fine.fitted_speed) / fine.fitted_speed < 0.01


# -- 6. two-species fields --------------------------------------------------


def test_substance_decays_monotonically():
    cfg = SimConfig(L=60.0, dx=0.25, T=15.0, snapshot_times=(5.0, 10.0, 15.0))
    res = simulate_two_species(_ECM_C, cfg)
    snaps = [res.snapshots[t] for t in (5.0, 10.0, 15.0)]
    for fields in snaps:
        rho1, rho2 = fields
        assert np.all(rho2 >= -1e-12)
        assert np.all(rho2 <= 0.5 + 1e-12)
        assert np.all(rho1 >= -1e-9)
    for early, late in zip(snaps, snaps[1:]):
        assert np.all(late[1] <= early[1] + 1e-12)


# -- 7. stability guard -----------------------------------------------------


@pytest.mark.parametrize(
    "name, dx, dt, at",
    [
        ("scalar", 0.2, 0.1, "0.2;"),
        ("two_species", 0.2, 0.1, "0.3;"),
        ("stefan", 0.1, 0.05, "0.2;"),
    ],
    ids=["scalar", "two_species", "stefan"],
)
def test_oversized_step_raises(name, dx, dt, at):
    cfg = SimConfig(L=40.0, dx=dx, T=5.0, dt=dt)
    with pytest.raises(InstabilityError, match=f"at t = {at}"):
        _SIMULATORS[name](cfg)


# -- 8. moving-boundary runs ------------------------------------------------


def test_stefan_speed_benchmark():
    res = simulate_fisher_stefan(0.5, SimConfig(L=60.0, dx=0.1, T=150.0))
    # independent shooting benchmark for kappa = 0.5: c = 0.221471
    assert res.fitted_speed == pytest.approx(0.221471, abs=0.002)
    assert res.fitted_speed >= fisher_stefan_bound(0.5)
    assert res.stability_report <= 0.2 + 1e-12


def test_stefan_small_kappa_slope():
    res = simulate_fisher_stefan(0.05, SimConfig(L=60.0, dx=0.1, T=400.0))
    want = 0.05 / math.sqrt(3.0)
    assert abs(res.fitted_speed - want) / want < 0.10
    assert res.fitted_speed >= fisher_stefan_bound(0.05)


def test_stefan_short_run_warns():
    # the front-fixed initial profile relaxes within a few time units, so
    # the run must be cut genuinely short to leave a >1% slope drift
    with pytest.warns(RuntimeWarning, match="plateaued"):
        simulate_fisher_stefan(0.5, SimConfig(L=60.0, dx=0.2, T=2.0))


def test_stefan_rejects_nonpositive_kappa():
    with pytest.raises(ConfigError):
        simulate_fisher_stefan(0.0, SimConfig(L=60.0, dx=0.2, T=8.0))


@pytest.mark.parametrize(
    "field, value",
    [("ic_kind", "uniform"), ("ic_kind", "smoothed_step"), ("ic_width", 2.0),
     ("ic_value", 0.9), ("level", 0.7)],
)
def test_stefan_rejects_config_it_does_not_use(field, value):
    # the run would ignore it and return the default run's speed
    with pytest.raises(ConfigError, match=field):
        simulate_fisher_stefan(0.5, SimConfig(L=40.0, dx=0.2, T=5.0, **{field: value}))


@pytest.mark.parametrize("kappa", [math.inf, math.nan])
def test_stefan_rejects_non_finite_kappa(kappa):
    with pytest.raises(ConfigError, match="finite"):
        simulate_fisher_stefan(kappa, SimConfig(L=60.0, dx=0.2, T=8.0))


# -- 9. snapshots and CSV output --------------------------------------------


def test_snapshots_and_csv_writers(tmp_path):
    model = make_preset("fisher_kpp")
    cfg = SimConfig(L=40.0, dx=0.2, T=4.0, snapshot_times=(2.0, 4.0))
    res = simulate_scalar(model, cfg)
    assert set(res.snapshots) == {2.0, 4.0}
    assert all(len(v) == 1 for v in res.snapshots.values())

    ppath = tmp_path / "profiles.csv"
    res.write_profiles_csv(str(ppath))
    header = ppath.read_text().splitlines()[0]
    assert header == "x,rho_t2,rho_t4"
    data = np.loadtxt(str(ppath), delimiter=",", skiprows=1)
    assert data.shape == (len(res.x_grid), 3)
    np.testing.assert_allclose(data[:, 0], res.x_grid)
    np.testing.assert_allclose(data[:, 2], res.snapshots[4.0][0], atol=1e-12)

    fpath = tmp_path / "front.csv"
    res.write_front_csv(str(fpath))
    lines = fpath.read_text().splitlines()
    assert lines[0] == "t,X"
    front = np.loadtxt(str(fpath), delimiter=",", skiprows=1)
    assert front.reshape(-1, 2).shape[0] == res.front_series.shape[0]


def test_two_species_profiles_csv(tmp_path):
    cfg = SimConfig(L=50.0, dx=0.25, T=3.0, snapshot_times=(3.0,))
    res = simulate_two_species(_ECM_C, cfg)
    path = tmp_path / "two.csv"
    res.write_profiles_csv(str(path))
    header = path.read_text().splitlines()[0]
    assert header == "x,rho_s1_t3,rho_s2_t3"


@pytest.mark.parametrize("name", sorted(_SIMULATORS))
def test_snapshots_at_start_and_end(name):
    cfg = SimConfig(L=40.0, dx=0.2, T=2.0, snapshot_times=(0.0, 1.0, 2.0))
    if name == "stefan":
        # T = 2 is too short for the boundary speed to plateau
        with pytest.warns(RuntimeWarning, match="plateaued"):
            res = _SIMULATORS[name](cfg)
    else:
        res = _SIMULATORS[name](cfg)
    assert set(res.snapshots) == set(cfg.snapshot_times)
    assert res.stats["dt"] * res.stats["n_steps"] == pytest.approx(cfg.T, rel=1e-12)


def test_snapshot_times_on_one_step_all_kept():
    # dt = 0.002 here, so both times round to step 250
    cfg = SimConfig(L=30.0, dx=0.1, T=1.0, snapshot_times=(0.5, 0.5001))
    res = simulate_scalar(make_preset("fisher_kpp"), cfg)
    assert set(res.snapshots) == {0.5, 0.5001}
    np.testing.assert_array_equal(res.snapshots[0.5][0], res.snapshots[0.5001][0])


# -- 10. pinned runs and cross-simulator agreement ---------------------------


# (fitted_speed, fit_residual, min_density, max_density, stability_report)
# of one short run per simulator; a refactor of the time loop must keep them
@pytest.mark.parametrize(
    "name, T, want",
    [
        ("scalar", 6.0,
         (1.7214037643386106, 0.012992451702329587, 0.0, 1.0, 0.19999999999999996)),
        ("two_species", 6.0,
         (1.2524770352977213, 0.007068926046690839, 0.0, 1.0, 0.1997508797245883)),
        ("stefan", 8.0,
         (0.22430493438127944, 0.00012427029727396293, 0.0, 1.0, 0.19999999999999996)),
    ],
    ids=["scalar", "two_species", "stefan"],
)
def test_short_run_pinned(name, T, want):
    res = _SIMULATORS[name](SimConfig(L=40.0, dx=0.2, T=T))
    got = (res.fitted_speed, res.fit_residual, res.min_density,
           res.max_density, res.stability_report)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    # the Stefan profile starts as -expm1(0) = -0.0 at the boundary
    assert math.copysign(1.0, res.min_density) == 1.0


def test_uncoupled_two_species_is_the_scalar_run():
    cfg = SimConfig(L=40.0, dx=0.2, T=6.0, snapshot_times=(3.0,))
    two = simulate_two_species(
        TwoSpeciesModel("1", "u1*(1 - u1)", kappa=0.0, nu=0.5), cfg
    )
    one = simulate_scalar(make_preset("fisher_kpp"), cfg)
    np.testing.assert_array_equal(two.front_series, one.front_series)
    np.testing.assert_array_equal(two.snapshots[3.0][0], one.snapshots[3.0][0])
    for attr in ("fitted_speed", "fit_residual", "min_density",
                 "max_density", "stability_report"):
        assert getattr(two, attr) == getattr(one, attr), attr


# -- 11. the active window is exact ------------------------------------------


def _full_grid_reference(model, fields, cfg, n_steps):
    """The plain explicit scheme stepping every cell: the fields at each
    sampled step (every n_steps // 240-th and the last) and the largest
    step ratio dt max(D)/dx^2."""
    dt, dx2 = cfg.T / n_steps, cfg.dx * cfg.dx
    every = max(1, n_steps // 240)
    kept, ratio = {0: fields}, 0.0
    for k in range(1, n_steps + 1):
        u = fields[0]
        Dc = model.D_fn(*fields)
        flux = 0.5 * (Dc[1:] + Dc[:-1]) * (u[1:] - u[:-1])
        div = np.concatenate(([flux[0]], flux[1:] - flux[:-1], [-flux[-1]])) / dx2
        new = (u + dt * (div + model.f_fn(*fields)),)
        if len(fields) > 1:
            new += (fields[1] - dt * model.kappa * u * fields[1],)
        ratio = max(ratio, dt * float(np.max(Dc)) / dx2)
        fields = new
        if k % every == 0 or k == n_steps:
            kept[k] = fields
    return kept, ratio


_ECM_B = make_preset("ecm_b", {"kappa": 4.0, "nu": 0.5})


@pytest.mark.parametrize(
    "simulate, model, ic",
    [
        (simulate_scalar, make_preset("porous_fisher", {"m": 2.0}), {}),
        (simulate_scalar, make_preset("fisher_kpp"), {"ic_kind": "smoothed_step"}),
        (simulate_two_species, _ECM_B, {}),
        (simulate_two_species, _ECM_B, {"ic_kind": "uniform", "ic_value": 0.3}),
    ],
    ids=["porous_fisher_m2_step", "fisher_kpp_smoothed", "ecm_b_step", "ecm_b_uniform"],
)
def test_active_window_matches_full_grid(simulate, model, ic):
    n = 1200
    cfg = SimConfig(L=40.0, dx=0.2, T=6.0, dt=0.005, snapshot_times=(0.0, 3.0, 6.0), **ic)
    res = simulate(model, cfg)
    dt = cfg.T / n
    assert (res.stats["dt"], res.stats["n_steps"]) == (dt, n)
    kept, ratio = _full_grid_reference(model, res.snapshots[0.0], cfg, n)
    for t, k in ((3.0, n // 2), (6.0, n)):
        assert len(res.snapshots[t]) == len(kept[k])
        for got, want in zip(res.snapshots[t], kept[k]):
            np.testing.assert_array_equal(got, want)
    steps = sorted(kept)
    firsts = [kept[k][0] for k in steps]
    assert res.stability_report == ratio
    assert res.min_density == min(float(np.min(u)) for u in firsts)
    assert res.max_density == max(float(np.max(u)) for u in firsts)
    if ic.get("ic_kind") == "uniform":
        assert res.front_series.size == 0 and math.isnan(res.fitted_speed)
        return
    series, speed, resid = estimate_speed([k * dt for k in steps], res.x_grid, firsts, cfg.level)
    np.testing.assert_array_equal(res.front_series, series)
    assert (res.fitted_speed, res.fit_residual) == (speed, resid)


# T = 60 runs past the float fixed point of rho (after 57-65% of the
# steps), where the step stops updating the grid and only moves s
@pytest.mark.parametrize(
    "kappa, T",
    [(0.7, 6.0), (3.0, 6.0), (13.2, 6.0), (0.7, 60.0), (3.0, 60.0), (13.2, 60.0)],
    ids=["0.7", "3.0", "13.2", "0.7-T60", "3.0-T60", "13.2-T60"],
)
def test_stefan_in_place_step_matches_plain_loop(kappa, T):
    cfg = SimConfig(L=40.0, dx=0.2, T=T, snapshot_times=(0.0, T / 2, T))
    res = simulate_fisher_stefan(kappa, cfg)
    dx, dx2 = cfg.dx, cfg.dx * cfg.dx
    n = int(math.ceil(cfg.T / (0.2 * dx2) - 1e-12))
    dt = cfg.T / n
    assert (res.stats["dt"], res.stats["n_steps"]) == (dt, n)
    if T == 60.0:
        assert res.stats["cell_updates"] < 0.7 * 199 * n

    x = np.linspace(0.0, cfg.L, 201) - cfg.L
    np.testing.assert_array_equal(res.x_grid, x)
    rho = -np.expm1(x)
    rho[-1] = 0.0
    s = 0.0
    every = max(1, n // 240)
    snap_steps = {int(round(t / dt)): t for t in cfg.snapshot_times}
    kept, series = {0.0: rho.copy()}, [(0.0, s)]
    for k in range(1, n + 1):
        sdot = -kappa * (-4.0 * rho[-2] + rho[-3]) / (2.0 * dx)
        rhs = (
            (rho[2:] - 2.0 * rho[1:-1] + rho[:-2]) / dx2
            + sdot * (rho[2:] - rho[:-2]) / (2.0 * dx)
            + rho[1:-1] * (1.0 - rho[1:-1])
        )
        rho[1:-1] += dt * rhs
        rho[0] = 1.0
        rho[-1] = 0.0
        s += dt * sdot
        if k in snap_steps:
            kept[snap_steps[k]] = rho.copy()
        if k % every == 0 or k == n:
            series.append((k * dt, s))

    for t in cfg.snapshot_times:
        np.testing.assert_array_equal(res.snapshots[t][0], kept[t])
    np.testing.assert_array_equal(res.front_series, np.array(series))
    late = [(t, X) for t, X in series if 0.5 * cfg.T - 1e-12 <= t <= cfg.T + 1e-12]
    t, X = np.array(late).T
    slope, intercept = np.polyfit(t, X, 1)
    resid = float(np.sqrt(np.mean((X - (slope * t + intercept)) ** 2)))
    assert (res.fitted_speed, res.fit_residual) == (float(slope), resid)
