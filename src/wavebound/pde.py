"""Finite-difference travelling-wave simulators.

Three explicit method-of-lines integrators produce wave-speed
measurements that are independent of the variational machinery:

* ``simulate_scalar``      -- rho_t = (D(rho) rho_x)_x + f(rho) on [0, L],
* ``simulate_two_species`` -- the same flux form for rho1 coupled to the
                              pointwise degradation rho2_t = -kappa rho1 rho2,
* ``simulate_fisher_stefan`` -- the moving-boundary logistic problem in
                              front-fixed coordinates y = x - s(t).

Speeds are measured by tracing the level crossing X(t) where the profile
passes a fixed density (0.1 by default) and fitting a line over the
second half of the run; for the moving-boundary problem the boundary
s(t) itself is fitted.  The scheme is conservative-flux with
arithmetic-mean face diffusivities and an explicit step at one fifth of
the diffusive limit, which keeps degenerate-diffusivity fronts sharp
without a nonlinear solver.

All three run one time loop, ``_march``: it picks the step, samples about
240 times (snapshots, blow-up guard, density range, front series), and
fits the speed.  Each simulator supplies only its physics: a dt limit,
the initial fields, one explicit in-place ``step`` and a front locator.

The two flux simulators step only an active window of cells, ``_flux_step``,
and give the same bits as a full-grid step.  A cell's update reads only its
three-cell stencil and dt is fixed for the run, so a cell whose stencil did
not change in one step recomputes its own value in the next.  The window for
the next step therefore needs only the hull of the cells whose bits changed,
widened by one cell per side; ahead of a degenerate front (D(0) = f(0) = 0)
and behind it, where values sit at their last rounding, nothing changes.
The first step covers the whole grid, the hull is re-measured every
``_REMEASURE`` steps, and in between the window just widens by one cell per
side, which is always safe.  The step ratio dt max(D)/dx^2 is taken over the
window: a cell's new D enters the next window, so the running maximum is
the full grid's.  The moving-boundary step feeds sdot into every cell, so
it steps the whole grid, until the grid stops changing: every
``_REMEASURE`` steps it compares the bits of rho before and after, and once
a step changed none the run sits at a fixed point of the float map.  That
step reads only rho, dt and constants, so every later step repeats it; the
step then only advances the boundary, s += dt sdot, in the same order.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, FrontTrackingError, InstabilityError
from .model import ScalarModel, TwoSpeciesModel

__all__ = [
    "SimConfig",
    "SimResult",
    "estimate_speed",
    "simulate_scalar",
    "simulate_two_species",
    "simulate_fisher_stefan",
]

_IC_KINDS = ("step", "smoothed_step", "uniform")
# the SimConfig fields that pick the initial condition and the tracked
# level; the moving-boundary simulator fixes both, so it takes only defaults
_IC_FIELDS = ("ic_kind", "ic_width", "ic_value", "level")
_MIN_CELLS = 200
_CFL = 0.2
_TARGET_SAMPLES = 240
_BLOWUP = 10.0
_REMEASURE = 16  # steps between measurements of the changed-cell hull
# a run asking for more steps than this is refused rather than left to
# run for days (at about 15 us a step, 1e8 steps take 25 minutes)
_MAX_STEPS = 1e8
# likewise a grid of more cells than this (over 1,000 times the largest
# any figure uses) is refused before any array is made
_MAX_CELLS = 1e7

# the per-species profiles one simulator advances; the first is tracked
Fields = Tuple[np.ndarray, ...]


@dataclass(frozen=True)
class SimConfig:
    """Domain, grid, and measurement settings for one simulation.

    ``dt`` is chosen automatically (one fifth of the explicit diffusive
    limit, capped further by each simulator's own terms) when left as
    None.  ``ic_kind`` selects the initial condition:
    a sharp step at L/10, the same step smoothed over ``ic_width``, or a
    spatially uniform state at ``ic_value`` in [0, 1] (useful for
    quiescence checks; it admits no front, so no speed is fitted).
    """

    L: float
    dx: float
    T: float
    dt: Optional[float] = None
    snapshot_times: Tuple[float, ...] = ()
    ic_kind: str = "step"
    ic_width: float = 1.0
    ic_value: float = 0.5
    level: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "snapshot_times", tuple(float(t) for t in self.snapshot_times)
        )
        positive = {"L": self.L, "dx": self.dx, "T": self.T}
        if self.dt is not None:
            positive["dt"] = self.dt
        if self.ic_kind == "smoothed_step":
            positive["ic_width"] = self.ic_width
        for name, value in positive.items():
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.ic_kind not in _IC_KINDS:
            raise ConfigError(
                f"ic_kind must be one of {_IC_KINDS}, got {self.ic_kind!r}"
            )
        # the range on which models are validated; NaN fails it too
        if not 0.0 <= self.ic_value <= 1.0:
            raise ConfigError(f"ic_value must be finite and in [0, 1], got {self.ic_value}")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level must lie in (0, 1), got {self.level}")
        for t in self.snapshot_times:
            if not 0.0 <= t <= self.T:
                raise ConfigError(
                    f"snapshot time {t} outside [0, {self.T}]"
                )

    def to_dict(self) -> Dict[str, object]:
        return {**asdict(self), "snapshot_times": list(self.snapshot_times)}


@dataclass(frozen=True, eq=False)
class SimResult:
    """One finished run: grid, snapshots, front track, and fitted speed.

    ``snapshots`` maps each requested time to a tuple of per-species
    profiles (one array for scalar runs, two for coupled runs).
    ``front_series`` holds (t, X(t)) rows for every sample where the
    level crossing exists and sits at least ten cells from the far
    boundary.  ``fitted_speed``/``fit_residual`` come from the
    least-squares line through the second half of the front track, and
    are NaN when no front was trackable.  ``stability_report`` is the
    largest explicit-diffusion ratio dt max(D)/dx^2 observed.  ``stats``
    says how the run was computed: the ``dt`` and ``n_steps`` used and
    ``cell_updates``, the cells stepped summed over all steps (the active
    windows of the flux simulators; for the moving boundary, the interior
    until its float fixed point, none after).
    """

    x_grid: np.ndarray
    snapshots: Dict[float, Tuple[np.ndarray, ...]]
    front_series: np.ndarray
    fitted_speed: float
    fit_residual: float
    stability_report: float
    min_density: float
    max_density: float
    config: SimConfig
    stats: Dict[str, object]

    def write_profiles_csv(self, path: str) -> None:
        """x plus one column per (snapshot, species), header included."""
        cols = [self.x_grid]
        names = ["x"]
        for t in sorted(self.snapshots):
            for k, prof in enumerate(self.snapshots[t]):
                cols.append(prof)
                suffix = f"_s{k + 1}" if len(self.snapshots[t]) > 1 else ""
                names.append(f"rho{suffix}_t{t:g}")
        data = np.column_stack(cols)
        np.savetxt(path, data, delimiter=",", header=",".join(names), comments="")

    def write_front_csv(self, path: str) -> None:
        data = self.front_series if self.front_series.size else np.empty((0, 2))
        np.savetxt(path, data, delimiter=",", header="t,X", comments="")


def _level_crossing(x: np.ndarray, rho: np.ndarray, level: float) -> float:
    """Position where a rightward-decreasing profile crosses ``level``.

    Raises FrontTrackingError when the profile never crosses, or crosses
    more than once (non-monotone front).
    """
    above = rho >= level
    down = np.nonzero(above[:-1] & ~above[1:])[0]
    if len(down) == 0:
        raise FrontTrackingError("profile does not cross the tracking level")
    if len(down) > 1:
        raise FrontTrackingError(
            "profile crosses the tracking level more than once "
            "(non-monotone front)"
        )
    i = int(down[0])
    frac = (rho[i] - level) / (rho[i] - rho[i + 1])
    return float(x[i] + frac * (x[i + 1] - x[i]))


def _fit_front(
    series: Sequence[Tuple[float, float]],
    t_lo: float,
    t_hi: float,
    min_move: float = 0.0,
) -> Tuple[float, float]:
    """Least-squares slope and RMS residual of X(t) over [t_lo, t_hi].

    NaN when X moved less than ``min_move`` over the window: a level
    crossing that moved less than one cell is not resolved by its grid,
    and a run cut after a step or two fits round-off.
    """
    pts = [(t, X) for t, X in series if t_lo - 1e-12 <= t <= t_hi + 1e-12]
    if len(pts) < 2:
        return float("nan"), float("nan")
    t = np.array([p[0] for p in pts])
    X = np.array([p[1] for p in pts])
    if not t @ t > 0.0:  # polyfit would divide t by a norm that underflowed
        return float("nan"), float("nan")
    if float(np.ptp(X)) < min_move:
        return float("nan"), float("nan")
    slope, intercept = np.polyfit(t, X, 1)
    resid = float(np.sqrt(np.mean((X - (slope * t + intercept)) ** 2)))
    return float(slope), resid


def estimate_speed(
    times: Sequence[float],
    x_grid: np.ndarray,
    profiles: Sequence[np.ndarray],
    level: float = 0.1,
) -> Tuple[np.ndarray, float, float]:
    """Front positions and fitted speed from a stack of sampled profiles.

    Each profile must cross ``level`` exactly once going right.  Returns
    (front_series, fitted_speed, fit_residual) where the fit covers the
    second half of the sampled interval.
    """
    times = [float(t) for t in times]
    x_grid = np.asarray(x_grid, dtype=float)
    L = float(x_grid[-1])
    dx = float(x_grid[1] - x_grid[0])
    series: List[Tuple[float, float]] = []
    for t, rho in zip(times, profiles):
        X = _level_crossing(x_grid, np.asarray(rho, dtype=float), level)
        if X < L - 10.0 * dx:
            series.append((t, X))
    t_hi = max(times)
    fitted, resid = _fit_front(series, 0.5 * t_hi, t_hi)
    return np.array(series).reshape(-1, 2), fitted, resid


def _initial_profile(cfg: SimConfig, x: np.ndarray) -> np.ndarray:
    x0 = cfg.L / 10.0
    if cfg.ic_kind == "step":
        return np.where(x <= x0, 1.0, 0.0)
    if cfg.ic_kind == "smoothed_step":
        return 0.5 * (1.0 - np.tanh((x - x0) / cfg.ic_width))
    return np.full_like(x, cfg.ic_value)


def _grid(cfg: SimConfig) -> np.ndarray:
    cells = cfg.L / cfg.dx  # inf when the ratio overflows
    if not cells <= _MAX_CELLS:
        raise ConfigError(f"grid too fine: L / dx = {cells:.3g} cells > {_MAX_CELLS:g}")
    n_cells = int(round(cells))
    if n_cells < _MIN_CELLS:
        raise ConfigError(
            f"grid too coarse: {n_cells} cells < {_MIN_CELLS}; "
            "reduce dx or enlarge L"
        )
    return np.linspace(0.0, cfg.L, n_cells + 1)


def _steps(cfg: SimConfig, dt_limit: float) -> Tuple[float, int]:
    """Time step and count: honour cfg.dt, else take the stability limit,
    then shave dt so the run lands on T exactly."""
    dt = cfg.dt if cfg.dt is not None else dt_limit
    if not cfg.T / dt <= _MAX_STEPS:
        raise ConfigError(f"T / dt = {cfg.T:g} / {dt:g}: more than {_MAX_STEPS:g} steps")
    n_steps = max(1, int(math.ceil(cfg.T / dt - 1e-12)))
    return cfg.T / n_steps, n_steps


def _march(
    cfg: SimConfig,
    x: np.ndarray,
    dt_limit: float,
    fields: Fields,
    step: Callable[[Fields, float], Tuple[float, int]],
    front: Callable[[Fields], Optional[float]],
    min_move: float = 0.0,
) -> SimResult:
    """The one time loop: ``step(fields, dt)`` advances the fields in place
    and returns its ratio dt max(D)/dx^2 and the number of cells it
    stepped.  Step 0, every ``n_steps // 240``-th step and the last are
    sampled: blow-up guard and range on the first field, and
    ``front(fields)`` into the front series unless it is None.  Each
    snapshot copies every field at the step nearest its time.  The speed
    is fitted over [T/2, T], NaN if the front moved less than
    ``min_move`` there (see ``_fit_front``)."""
    dt, n_steps = _steps(cfg, dt_limit)
    every = max(1, n_steps // _TARGET_SAMPLES)
    snap_steps: Dict[int, List[float]] = {}
    for t in cfg.snapshot_times:
        snap_steps.setdefault(min(n_steps, int(round(t / dt))), []).append(t)
    snapshots: Dict[float, Fields] = {}
    series: List[Tuple[float, float]] = []
    min_density, max_density, max_cfl = math.inf, -math.inf, 0.0
    cell_updates = 0

    for k in range(n_steps + 1):
        if k:
            ratio, cells = step(fields, dt)
            max_cfl = max(max_cfl, ratio)
            cell_updates += cells
        if k in snap_steps:
            copies = tuple(f.copy() for f in fields)
            snapshots.update(dict.fromkeys(snap_steps[k], copies))
        if k % every and k != n_steps:
            continue
        rho = fields[0]
        lo = float(np.min(rho))
        hi = float(np.max(rho))
        if not (np.isfinite(lo) and np.isfinite(hi)) or max(abs(lo), abs(hi)) > _BLOWUP:
            raise InstabilityError(
                f"density left [-{_BLOWUP}, {_BLOWUP}] at t = {k * dt:.4g}; "
                "the explicit step is unstable for this configuration"
            )
        min_density = min(min_density, lo)
        max_density = max(max_density, hi)
        X = front(fields)
        if X is not None:
            series.append((k * dt, X))

    fitted, resid = _fit_front(series, 0.5 * cfg.T, cfg.T, min_move)
    return SimResult(
        x_grid=x,
        snapshots=snapshots,
        front_series=np.array(series).reshape(-1, 2),
        fitted_speed=fitted,
        fit_residual=resid,
        stability_report=max_cfl,
        min_density=min_density,
        max_density=max_density,
        config=cfg,
        stats={"dt": dt, "n_steps": n_steps, "cell_updates": cell_updates},
    )


def _level_front(cfg: SimConfig, x: np.ndarray, fields: Fields) -> Optional[float]:
    """Where the first field crosses ``cfg.level``; None when it does not
    cross exactly once or lies within ten cells of x = L."""
    try:
        X = _level_crossing(x, fields[0], cfg.level)
    except FrontTrackingError:
        return None
    return X if X < cfg.L - 10.0 * cfg.dx else None


def _changed_bits(old: np.ndarray, now: np.ndarray) -> np.ndarray:
    """Where ``now`` differs from ``old`` in any bit (signed zeros and NaN
    payloads included)."""
    return old.view(np.int64) != now.view(np.int64)


def _flux_step(
    D_fn: Callable[..., np.ndarray],
    f_fn: Callable[..., np.ndarray],
    n: int,
    dx2: float,
    kappa: Optional[float] = None,
) -> Callable[[Fields, float], Tuple[float, int]]:
    """The explicit step of the flux simulators, on the active window.

    The first field advances by (D u_x)_x + f with arithmetic-mean face
    diffusivities and zero-flux ends; given ``kappa``, a second field
    decays pointwise by -kappa u1 u2.  ``D_fn`` and ``f_fn`` take every
    field.  Only cells [lo, hi) are stepped (see the module docstring), in
    place, each operation in numpy's order of the plain full-grid
    expressions ``rho + dt * (div + f)`` and
    ``rho2 - dt * kappa * rho1 * rho2``, so the bits are the same.
    """
    # face j sits between cells j - 1 and j; the end faces carry no flux,
    # and their signs make the end cells' differences +flux, -flux exactly
    face = np.empty(n + 1)
    face[0], face[n] = 0.0, -0.0
    grad = np.empty(n + 1)
    rate = np.empty(n)
    decay = np.empty(n)
    lo, hi, countdown = 0, n, 0  # the first, full-grid step is measured

    def step(fields: Fields, dt: float) -> Tuple[float, int]:
        nonlocal lo, hi, countdown
        if lo >= hi:
            return 0.0, 0
        a, b = max(lo - 1, 0), min(hi + 1, n)
        u = fields[0]
        Dc = D_fn(*[v[a:b] for v in fields])
        fw, gw = face[a + 1:b], grad[a + 1:b]
        np.add(Dc[1:], Dc[:-1], out=fw)
        np.multiply(0.5, fw, out=fw)
        np.subtract(u[a + 1:b], u[a:b - 1], out=gw)
        np.multiply(fw, gw, out=fw)
        cur = [v[lo:hi] for v in fields]
        w = rate[lo:hi]
        np.subtract(face[lo + 1:hi + 1], face[lo:hi], out=w)
        np.divide(w, dx2, out=w)
        np.add(w, f_fn(*cur), out=w)
        np.multiply(dt, w, out=w)
        if kappa is not None:
            d = decay[lo:hi]
            np.multiply(dt * kappa, cur[0], out=d)
            np.multiply(d, cur[1], out=d)
        before = [c.copy() for c in cur] if countdown == 0 else None
        np.add(cur[0], w, out=cur[0])
        if kappa is not None:
            np.subtract(cur[1], d, out=cur[1])

        stepped = hi - lo
        if before is None:
            lo, hi, countdown = max(lo - 1, 0), min(hi + 1, n), countdown - 1
        else:
            changed = np.zeros(stepped, dtype=bool)
            for old, now in zip(before, cur):
                changed |= _changed_bits(old, now)
            moved = np.flatnonzero(changed)
            if moved.size:
                lo, hi = max(lo + int(moved[0]) - 1, 0), min(lo + int(moved[-1]) + 2, n)
            else:
                lo = hi
            countdown = _REMEASURE - 1
        return dt * float(Dc.max()) / dx2, stepped

    return step


def simulate_scalar(model: ScalarModel, cfg: SimConfig) -> SimResult:
    """Explicit conservative-flux run of rho_t = (D(rho) rho_x)_x + f(rho).

    Zero-flux boundaries; sharp (or smoothed) step initial condition at
    L/10; dt defaults to 0.2 dx^2 / max D with the diffusivity maximum
    taken over the density range [0, 1].
    """
    x = _grid(cfg)
    dx2 = cfg.dx * cfg.dx
    probe = np.linspace(0.0, 1.0, 257)
    D_max = float(np.max(model.D_fn(probe)))
    return _march(
        cfg, x, _CFL * dx2 / max(1e-12, D_max), (_initial_profile(cfg, x),),
        _flux_step(model.D_fn, model.f_fn, x.size, dx2),
        partial(_level_front, cfg, x), cfg.dx,
    )


def simulate_two_species(model: TwoSpeciesModel, cfg: SimConfig) -> SimResult:
    """Coupled run: flux form for rho1, pointwise decay for rho2.

    rho1 starts as the step, rho2 uniformly at nu; the front is tracked
    on rho1.  The automatic dt also respects the degradation rate so the
    explicit decay update stays positive.
    """
    x = _grid(cfg)
    dx2 = cfg.dx * cfg.dx
    kappa, nu = model.kappa, model.nu

    g1, g2 = np.meshgrid(np.linspace(0.0, 1.0, 65), np.linspace(0.0, nu, 33))
    D_max = float(np.max(model.D_fn(g1.ravel(), g2.ravel())))
    dt_limit = _CFL * dx2 / max(1e-12, D_max)
    if kappa > 0.0:
        dt_limit = min(dt_limit, _CFL / kappa)

    return _march(
        cfg, x, dt_limit, (_initial_profile(cfg, x), np.full_like(x, nu)),
        _flux_step(model.D_fn, model.f_fn, x.size, dx2, kappa),
        partial(_level_front, cfg, x), cfg.dx,
    )


def simulate_fisher_stefan(kappa: float, cfg: SimConfig) -> SimResult:
    """Moving-boundary logistic growth in front-fixed coordinates.

    On y = x - s(t) in [-L, 0]:  rho_t = rho_yy + sdot rho_y + rho(1-rho)
    with rho(-L) = 1, rho(0) = 0, and the boundary driven by
    sdot = -kappa rho_y(0)  (one-sided second-order gradient).  The
    automatic dt also caps the advection step at 2 / kappa^2.  The
    fitted speed is the long-time slope of s(t); a warning is emitted if
    that slope is still drifting by more than 1% over the last quarter.
    The initial state and the tracked front are fixed, so a config whose
    ``ic_kind``, ``ic_width``, ``ic_value`` or ``level`` is not the
    default is refused rather than ignored.
    """
    if not (math.isfinite(kappa) and kappa > 0.0):
        raise ConfigError(f"kappa must be finite and > 0, got {kappa}")
    unused = [k for k in _IC_FIELDS if getattr(cfg, k) != getattr(SimConfig, k)]
    if unused:
        raise ConfigError(
            f"the moving-boundary run fixes its initial state and tracks the "
            f"boundary itself; leave {', '.join(unused)} at the default"
        )
    x = _grid(cfg) - cfg.L  # y in [-L, 0]
    dx = cfg.dx
    dx2 = dx * dx

    rho = -np.expm1(x)  # 1 - e^y: 1 far behind, 0 at the boundary
    rho[-1] = 0.0  # the boundary condition; expm1 gives -0.0 here
    s = 0.0
    left, mid, right = rho[:-2], rho[1:-1], rho[2:]
    rhs = np.empty(mid.size)
    tmp = np.empty(mid.size)
    sdot, countdown, fixed = 0.0, 0, False

    def step(fields: Fields, dt: float) -> Tuple[float, int]:
        # a step that changed no bit of rho is a fixed point of the float
        # map: it reads only rho, dt and constants, so every later step
        # repeats it and only the boundary moves on
        nonlocal s, sdot, countdown, fixed
        if fixed:
            s += dt * sdot
            return dt / dx2, 0
        sdot = -kappa * (-4.0 * rho[-2] + rho[-3]) / (2.0 * dx)
        # rhs = (right - 2 mid + left) / dx2 + sdot (right - left) / (2 dx)
        #       + mid (1 - mid), in place and in that expression's order
        np.multiply(2.0, mid, out=rhs)
        np.subtract(right, rhs, out=rhs)
        np.add(rhs, left, out=rhs)
        np.divide(rhs, dx2, out=rhs)
        np.subtract(right, left, out=tmp)
        np.multiply(sdot, tmp, out=tmp)
        np.divide(tmp, 2.0 * dx, out=tmp)
        np.add(rhs, tmp, out=rhs)
        np.subtract(1.0, mid, out=tmp)
        np.multiply(mid, tmp, out=tmp)
        np.add(rhs, tmp, out=rhs)
        np.multiply(dt, rhs, out=rhs)
        if countdown == 0:
            np.add(mid, rhs, out=tmp)
            fixed = not _changed_bits(mid, tmp).any()
            countdown = _REMEASURE
        countdown -= 1
        np.add(mid, rhs, out=mid)
        rho[0] = 1.0
        rho[-1] = 0.0
        s += dt * sdot
        return dt / dx2, mid.size

    # forward Euler on the central advection term needs dt sdot^2 <= 2,
    # and the first sdot is about kappa
    dt_limit = min(_CFL * dx2, 2.0 / (kappa * kappa))
    res = _march(cfg, x, dt_limit, (rho,), step, lambda fields: s)

    fitted = res.fitted_speed
    late, _ = _fit_front(res.front_series, 0.75 * cfg.T, cfg.T)
    if math.isfinite(fitted) and abs(fitted) > 1e-12:
        if abs(late - fitted) / abs(fitted) > 0.01:
            warnings.warn(
                "boundary speed has not plateaued: slope drift "
                f"{abs(late - fitted) / abs(fitted):.2%} over the last "
                "quarter of the run; extend T",
                RuntimeWarning,
                stacklevel=2,
            )
    return res
