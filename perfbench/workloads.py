"""Seeded workloads: inputs, the timed op, and per-op correctness checks.

Every workload is a fixed cycle of op categories (a "round"); the seed
draws each op's parameters inside its category's range.  A run executes
whole rounds, so the mix of categories is the same for every seed and on
every commit, however fast the ops become.  The program receives only the
generated models, configurations or command lines.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import random
import shutil
import tempfile
from typing import Callable, Dict, List, Optional

import reference

DEFAULT_SEED = 0
_HERE = os.path.dirname(os.path.abspath(__file__))


@dataclasses.dataclass
class Op:
    """One timed call into the public API plus what is needed to check it."""

    category: str
    params: Dict[str, float]
    make: Callable[[], object]  # builds the inputs (models) from params
    inputs: object = None


class Workload:
    name = ""
    pool_rounds = 16  # rounds built during set-up; a run cycles through them
    trace_ops = 0  # leading ops of round 0 that a traced run executes

    def __init__(self, wb, seed: int, scratch: str) -> None:
        self.wb = wb
        self.seed = seed
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.rounds: List[List[Op]] = []

    def build(self) -> None:
        """Draw the pool of rounds and build every op's inputs (set-up)."""
        self.rounds = [self.draw_round() for _ in range(self.pool_rounds)]
        for ops in self.rounds:
            for op in ops:
                op.inputs = op.make()

    def round(self, i: int) -> List[Op]:
        return self.rounds[i % len(self.rounds)]

    def u(self, lo: float, hi: float) -> float:
        # 6 digits survive a trip through JSON and the CLI's argv unchanged
        return round(self.rng.uniform(lo, hi), 6)

    # subclasses provide these
    def draw_round(self) -> List[Op]:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, op: Op) -> object:
        raise NotImplementedError

    def check(self, op: Op, result: object) -> List[str]:
        raise NotImplementedError

    def labels(self, op: Op, result: object) -> List[str]:
        return [op.category]

    def perturbed(self, op: Op, result: object) -> Optional[object]:
        """``result`` with its checked value moved by 1e-6 relative."""
        return None

    def cleanup(self, result: object) -> None:
        """Release what an op left behind, once its checks are done."""


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


# ----------------------------------------------------------------------
# scalar-bounds
# ----------------------------------------------------------------------


class ScalarBounds(Workload):
    name = "scalar-bounds"
    pool_rounds = 200
    trace_ops = 96

    CUSTOM_D = "u^m + d"
    CUSTOM_F = "u*(1 - u)*(1 + r*u)"

    def draw_round(self) -> List[Op]:
        wb, u = self.wb, self.u
        cats = [
            ("fisher_kpp", {}),
            ("porous_fisher", {"m": u(1.0, 3.0), "n": u(1.0, 3.0)}),
            ("allee", {"alpha": u(0.25, 2.0), "a": u(0.0, 0.5)}),
            ("linear_shift_pushed", {"delta": u(0.0, 0.4)}),
            ("linear_shift_pulled", {"delta": u(0.6, 1.5)}),
            ("custom", {"m": u(1.0, 2.0), "d": u(0.05, 1.0), "r": u(0.0, 5.0)}),
            ("custom_degenerate", {"m": u(1.0, 2.0), "d": 0.0, "r": u(0.0, 5.0)}),
            ("custom_pushed", {"m": u(1.0, 2.0), "d": u(0.05, 0.3), "r": u(3.0, 6.0)}),
        ]
        # inputs are model factories: the op itself builds its model
        ops = []
        for cat, p in cats:
            if cat.startswith("custom"):
                make = (lambda p=p: (lambda: wb.ScalarModel(self.CUSTOM_D, self.CUSTOM_F, p)))
            else:
                name = cat.replace("_pushed", "").replace("_pulled", "")
                make = (lambda name=name, p=p: (lambda: wb.make_preset(name, p)))
            ops.append(Op(cat, p, make))
        return ops

    def warmup(self) -> None:
        model = self.wb.make_preset("porous_fisher", {"m": 2.0, "n": 1.0})
        self.wb.sup_F(model)
        self.wb.selection_criterion(model)

    def run(self, op: Op):
        model = op.inputs()  # the op builds its model fresh
        return model, self.wb.sup_F(model), self.wb.selection_criterion(model)

    def check(self, op: Op, result) -> List[str]:
        model, res, crit = result
        p, cat = op.params, op.category
        bad = []
        if not (math.isfinite(res.c_lb) and res.c_lb >= res.c_linear - 1e-12):
            bad.append(f"c_lb {res.c_lb!r} below c_linear {res.c_linear!r}")
        if cat == "fisher_kpp":
            ref = 2.0
        elif cat == "porous_fisher":
            ref = reference.porous_fisher_c(p["m"], p["n"])
        elif cat == "allee":
            ref = reference.allee_c(p["alpha"], p["a"])
        elif cat.startswith("custom"):
            ref = reference.custom_c(p["m"], p["d"], p["r"])
        else:
            ref = None
            want = "pushed" if p["delta"] < 0.5 else "pulled"
            if res.selection != want:
                bad.append(f"selection {res.selection} for delta={p['delta']}, want {want}")
        if ref is not None and _rel(res.c_lb, ref) > 1e-8:
            # inside the documented 1e-7 tie band either candidate is right
            if not (res.selection == "indeterminate" and abs(res.F_star - ref * ref / 2) <= 2e-7):
                bad.append(f"c_lb {res.c_lb!r} vs reference {ref!r}")
        if cat == "custom_degenerate" and crit.classification != "degenerate_pushed":
            bad.append(f"criterion {crit.classification} for a degenerate front")
        return bad

    def labels(self, op: Op, result) -> List[str]:
        _, res, _ = result
        front = "degenerate" if res.c_linear == 0.0 else res.selection
        family = "custom" if op.category.startswith("custom") else "preset"
        return [f"front.{front}", f"family.{family}"]

    def perturbed(self, op: Op, result):
        model, res, crit = result
        return model, dataclasses.replace(res, c_lb=res.c_lb * (1 + 1e-6)), crit


# ----------------------------------------------------------------------
# coupled-speed
# ----------------------------------------------------------------------


class CoupledSpeed(Workload):
    name = "coupled-speed"
    pool_rounds = 16
    trace_ops = 4  # round 0: ecm_b nonlinear, landman, pulled ECM, general D

    GENERAL_D = "1 + 0.5*u1 - u2"
    GENERAL_F = "u1*(1 - u1 - u2)"

    def __init__(self, wb, seed: int, scratch: str) -> None:
        super().__init__(wb, seed, scratch)
        # speeds of the default seed's first rounds, pinned to 1e-8
        self.pinned: Dict[tuple, float] = {}
        if seed == DEFAULT_SEED:
            with open(os.path.join(_HERE, "pinned_speeds.json")) as fh:
                for row in json.load(fh)["speeds"]:
                    key = (row["category"], json.dumps(row["params"], sort_keys=True))
                    self.pinned[key] = row["c"]

    def draw_round(self) -> List[Op]:
        wb, u = self.wb, self.u
        cats = [
            ("ecm_b_nonlinear", "ecm_b", {"kappa": u(3.0, 10.0), "nu": 0.5}),
            ("landman", "landman", {"lambda": u(0.1, 0.8), "K": u(0.5, 8.0)}),
            ("ecm_pulled", "ecm_b", {"kappa": u(0.3, 1.0), "nu": u(0.4, 0.6)}),
            ("general_D", None, {"kappa": u(1.0, 1.1), "nu": 0.5}),
        ]
        ops = []
        for cat, preset, p in cats:
            if preset is None:
                make = (lambda p=p: wb.TwoSpeciesModel(
                    self.GENERAL_D, self.GENERAL_F, kappa=p["kappa"], nu=p["nu"]))
            else:
                make = (lambda preset=preset, p=p: wb.make_preset(preset, p))
            ops.append(Op(cat, p, make))
        return ops

    def warmup(self) -> None:
        model = self.wb.make_preset("landman", {"lambda": 0.5, "K": 1.0})
        self.wb.weak_coupling_report(model, self.wb.solve_implicit_speed(model))

    def run(self, op: Op):
        model = op.inputs
        solve = self.wb.solve_implicit_speed(model)
        return solve, self.wb.weak_coupling_report(model, solve)

    def c_linear(self, op: Op) -> float:
        p = op.params
        if op.category == "landman":
            return 2.0 * math.sqrt(1.0 - p["lambda"])
        return 2.0 * (1.0 - p["nu"])  # D(0, nu) = 1 - nu = df/du1(0, nu)

    def check(self, op: Op, result) -> List[str]:
        solve, report = result
        c_lin = self.c_linear(op)
        bad = []
        if not solve.converged:
            bad.append("not converged")
        if _rel(solve.c_linear, c_lin) > 1e-8:
            bad.append(f"c_linear {solve.c_linear!r} vs {c_lin!r}")
        if not solve.c >= c_lin - 1e-9:
            bad.append(f"c {solve.c!r} below c_linear {c_lin!r}")
        model = op.inputs
        if _rel(report.epsilon, model.kappa * model.nu / solve.c) > 1e-12 and model.kappa > 0:
            bad.append(f"epsilon {report.epsilon!r} is not kappa nu / c")
        if op.category == "landman":
            p = op.params
            ref = reference.landman_c(p["lambda"], p["lambda"] * p["K"])
            if _rel(solve.c, ref) > 1e-8:
                bad.append(f"c {solve.c!r} vs Gamma closed form {ref!r}")
        pinned = self.pinned.get((op.category, json.dumps(op.params, sort_keys=True)))
        if pinned is not None and _rel(solve.c, pinned) > 1e-8:
            bad.append(f"c {solve.c!r} moved from the pinned value {pinned!r}")
        return bad

    def labels(self, op: Op, result) -> List[str]:
        solve, _ = result
        if op.category == "landman":
            kind = "constant_D_shortcut"
        elif op.category == "general_D":
            kind = "general_D"
        else:
            kind = "ecm"
        selection = "nonlinear" if solve.beta_star < 2.0 else "linear"
        return [f"kind.{kind}", f"selection.{selection}"]

    def perturbed(self, op: Op, result):
        # only the landman speed has a closed-form reference at every seed
        if op.category != "landman":
            return None
        solve, report = result
        return dataclasses.replace(solve, c=solve.c * (1 + 1e-6)), report


# ----------------------------------------------------------------------
# validate-sims
# ----------------------------------------------------------------------


class ValidateSims(Workload):
    name = "validate-sims"
    pool_rounds = 8
    trace_ops = 5

    @staticmethod
    def domain(c_ref: float, T: float) -> float:
        return max(150.0, 1.39 * c_ref * T + 23.0)

    def draw_round(self) -> List[Op]:
        u = self.u
        cats = [
            ("fisher_kpp_pulled", {"T": u(150.0, 160.0)}),
            ("porous_fisher_pushed", {"m": u(0.5, 1.0), "n": u(1.0, 2.0), "T": u(100.0, 105.0)}),
            ("porous_fisher_degenerate", {"m": u(2.0, 3.0), "n": u(1.0, 2.0), "T": u(100.0, 105.0)}),
            ("two_species", {"kappa": u(3.0, 5.0), "nu": 0.5, "T": u(100.0, 105.0)}),
            ("stefan", {"kappa": u(0.5, 10.0), "T": u(100.0, 105.0)}),
        ]
        return [Op(cat, p, (lambda cat=cat, p=p: self._inputs(cat, p))) for cat, p in cats]

    def _inputs(self, cat: str, p: Dict[str, float]):
        wb = self.wb
        if cat == "fisher_kpp_pulled":
            model, c_ref = wb.make_preset("fisher_kpp"), 2.0
        elif cat.startswith("porous_fisher"):
            model = wb.make_preset("porous_fisher", {"m": p["m"], "n": p["n"]})
            c_ref = reference.porous_fisher_c(p["m"], p["n"])
        elif cat == "two_species":
            model = wb.make_preset("ecm_b", {"kappa": p["kappa"], "nu": p["nu"]})
            c_ref = wb.linear_speed_two_species(model)
        else:
            model, c_ref = p["kappa"], wb.fisher_stefan_bound(p["kappa"])
        cfg = wb.SimConfig(L=self.domain(c_ref, p["T"]), dx=0.1, T=p["T"])
        return model, cfg, c_ref

    def warmup(self) -> None:
        cfg = self.wb.SimConfig(L=20.0, dx=0.1, T=0.5)
        self.wb.simulate_scalar(self.wb.make_preset("fisher_kpp"), cfg)

    def run(self, op: Op):
        model, cfg, _ = op.inputs
        if op.category == "stefan":
            return self.wb.simulate_fisher_stefan(model, cfg)
        if op.category == "two_species":
            return self.wb.simulate_two_species(model, cfg)
        return self.wb.simulate_scalar(model, cfg)

    def tolerance(self, op: Op, result) -> float:
        return max(0.02, 2.0 * result.fit_residual / op.inputs[1].T)

    def check(self, op: Op, result) -> List[str]:
        c_ref = op.inputs[2]
        tol = self.tolerance(op, result)
        if not result.fitted_speed >= c_ref - tol:
            return [f"fitted {result.fitted_speed!r} < c_ref {c_ref!r} - {tol:.4g}"]
        return []

    def labels(self, op: Op, result) -> List[str]:
        kind = {"two_species": "two_species", "stefan": "stefan"}.get(op.category, "scalar")
        return [f"kind.{kind}"]

    def perturbed(self, op: Op, result):
        # the check is a one-sided bound: move the fit to 1e-6 below it
        c_ref = op.inputs[2]
        return dataclasses.replace(
            result, fitted_speed=(c_ref - self.tolerance(op, result)) * (1 - 1e-6)
        )


# ----------------------------------------------------------------------
# cli-sweep
# ----------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{v:.10g}"  # the CLI's CSV cell format


class CliSweep(Workload):
    name = "cli-sweep"
    pool_rounds = 32
    trace_ops = 3

    def draw_round(self) -> List[Op]:
        u = self.u

        def lst(n, lo, hi):
            return sorted({u(lo, hi) for _ in range(n)})

        cats = [
            ("figure3_sim", {"kappa": [round(math.exp(self.rng.uniform(math.log(0.5), math.log(20.0))), 6)
                                       for _ in range(4)]}),
            ("figure2_nosim", {"alpha": lst(2, 0.25, 2.0), "a": lst(4, 0.0, 0.5)}),
            # landman stays linearly selected (one iteration per solve) here
            ("figure5_nosim", {"K": lst(2, 0.5, 2.0), "lambda": lst(4, 0.1, 0.6)}),
        ]
        return [Op(cat, p, (lambda: None)) for cat, p in cats]

    @staticmethod
    def argv(op: Op, out: str) -> List[str]:
        p = op.params

        def join(xs):
            return ",".join(repr(x) for x in xs)

        if op.category == "figure3_sim":
            return ["figure", "3", "--out", out, "--kappa-list", join(p["kappa"]), "--sim-T", "60"]
        if op.category == "figure2_nosim":
            return ["figure", "2", "--out", out, "--no-sim",
                    "--alpha-list", join(p["alpha"]), "--a-list", join(p["a"])]
        return ["figure", "5", "--out", out, "--no-sim",
                "--K-list", join(p["K"]), "--lambda-list", join(p["lambda"])]

    def warmup(self) -> None:
        out = tempfile.mkdtemp(dir=self.scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                self.wb.cli.main(["figure", "3", "--out", out, "--no-sim", "--kappa-list", "1"])
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def run(self, op: Op):
        out = tempfile.mkdtemp(dir=self.scratch)
        with contextlib.redirect_stdout(io.StringIO()):
            code = self.wb.cli.main(self.argv(op, out))
        return code, out

    def _read(self, out: str) -> Dict[str, List[dict]]:
        tables = {}
        for name in os.listdir(out):
            if name.endswith(".csv"):
                with open(os.path.join(out, name)) as fh:
                    tables[name] = list(csv.DictReader(fh))
        return tables

    def expected(self, op: Op) -> Dict[str, Dict[str, str]]:
        """CSV name -> {key cell: c_lb cell} from direct API calls."""
        wb, p = self.wb, op.params
        if op.category == "figure3_sim":
            return {"figure3.csv": {_fmt(k): _fmt(wb.fisher_stefan_bound(k)) for k in p["kappa"]}}
        if op.category == "figure2_nosim":
            return {
                f"figure2_alpha{al:g}.csv": {
                    _fmt(a): _fmt(wb.sup_F(wb.make_preset("allee", {"alpha": al, "a": a})).c_lb)
                    for a in p["a"]
                }
                for al in p["alpha"]
            }
        return {
            f"figure5_K{K:g}.csv": {
                _fmt(lam): _fmt(wb.solve_implicit_speed(
                    wb.make_preset("landman", {"lambda": lam, "K": K})).c)
                for lam in p["lambda"]
            }
            for K in p["K"]
        }

    def check(self, op: Op, result) -> List[str]:
        code, out = result
        bad = [] if code == 0 else [f"exit code {code}"]
        tables = self._read(out)
        key = {"figure3_sim": "kappa", "figure2_nosim": "a", "figure5_nosim": "lambda"}[op.category]
        for name, want in self.expected(op).items():
            got = {row[key]: row["c_lb"] for row in tables.get(name, [])}
            if got != want:
                bad.append(f"{name}: c_lb cells {got} != API {want}")
        if op.category == "figure3_sim":
            rows = tables.get("figure3.csv", [])
            if not all(math.isfinite(float(r["simulated"])) for r in rows):
                bad.append("figure3.csv: a simulated speed is not finite")
        if not any(n.endswith("_manifest.json") for n in os.listdir(out)):
            bad.append("no run manifest written")
        return bad

    def cleanup(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)

    def labels(self, op: Op, result) -> List[str]:
        p = op.params
        if op.category == "figure3_sim":
            return ["points.with_sim"] * len(p["kappa"])
        n = len(p.get("alpha", p.get("K"))) * len(p.get("a", p.get("lambda")))
        return ["points.without_sim"] * n

    def perturbed(self, op: Op, result):
        code, out = result
        for name in os.listdir(out):
            if name.endswith(".csv"):
                path = os.path.join(out, name)
                with open(path) as fh:
                    rows = list(csv.DictReader(fh))
                rows[0]["c_lb"] = _fmt(float(rows[0]["c_lb"]) * (1 + 1e-6))
                with open(path, "w", newline="") as fh:
                    writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
                    writer.writeheader()
                    writer.writerows(rows)
                break
        return code, out


WORKLOADS = {w.name: w for w in (ScalarBounds, CoupledSpeed, ValidateSims, CliSweep)}
