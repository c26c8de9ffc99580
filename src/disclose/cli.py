"""Command-line interface: JSON config in, JSON report + CSV tables out.

Every command reads one JSON config file and writes ``report.json`` (plus
command-specific CSVs) into ``--out``.  Outputs are byte-stable: keys are
sorted, line endings fixed, and nothing time- or path-dependent is written,
so reruns on the same config diff clean.

Exit codes: 0 success; 1 configuration problem; 2 model-assumption failure
(including a failed verification); 3 solver breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional

from . import euler, insurance
from .deadline import optimize_deadline, t_underline
from .distribution import BreakthroughDist, discretize, from_atoms, order_checks
from .errors import (ConfigError, DiscloseError, ModelAssumptionError,
                     NotSimple, NothingToImprove, SolverError)
from .discrete import (DiscreteMechanism, ic_discrete, improve_slack,
                       payoff_vector, undominated_scan)
from .frontier import (PiecewiseFrontier, TechnologyPair, affine_gap,
                       is_neg_inf, validate_model)
from .mechanism import (Mechanism, front_load, ic_check, mechanism_rows,
                        payoff)

COMMANDS = ("analyze", "solve-deadline", "solve-euler", "verify",
            "compare-statics", "ui-schedule", "ui-sweep", "oracle")


# ---------------------------------------------------------------- config ---

def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def _require(cfg: dict, key: str):
    if not isinstance(cfg, dict):
        raise ConfigError(f"expected a JSON object holding '{key}', got {cfg!r}")
    if key not in cfg:
        raise ConfigError(f"config is missing required key '{key}'")
    return cfg[key]


def _num(value, what: str, *, integer: bool = False):
    """A JSON number field as a float, or as an int when ``integer``.
    Anything else, or a fraction where a whole number is needed, is a
    ConfigError naming the field."""
    is_num = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not is_num or integer and isinstance(value, float) and not value.is_integer():
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"'{what}' must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _pairs(value, what: str) -> list:
    """``value`` unchanged (integer breakpoints stay integers) if it is a
    list of ``[x, y]`` number pairs; anything else is a ConfigError."""
    if not isinstance(value, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in value):
        raise ConfigError(f"'{what}' must be a list of [x, y] pairs, got {value!r}")
    for x, y in value:
        _num(x, what)
        _num(y, what)
    return value


def _piecewise(tech: dict, key: str) -> PiecewiseFrontier:
    return PiecewiseFrontier(_pairs(_require(tech, key), key))


def _pair_from(cfg: dict) -> TechnologyPair:
    tech = _require(cfg, "technology")
    r = _num(cfg.get("r", 1.0), "r")
    kind = _require(tech, "kind")
    if kind == "piecewise":
        return TechnologyPair.build(_piecewise(tech, "f0"), _piecewise(tech, "f1"), r)
    if kind == "insurance":
        prims = _ui_from(tech)
        return insurance.build_frontiers(prims, r)
    raise ConfigError(f"unknown technology kind '{kind}'")


def _ui_from(tech: dict) -> insurance.UiPrimitives:
    return insurance.UiPrimitives(
        **{k: _num(_require(tech, k), k) for k in ("a", "b", "w", "shadow")})


def _dist_from(entry: dict) -> BreakthroughDist:
    kind = _require(entry, "kind")
    if kind == "atoms":
        return from_atoms(_pairs(_require(entry, "atoms"), "atoms"))
    if kind in ("exponential", "weibull", "point"):
        params = {k: _num(v, k) for k, v in entry.items() if k not in ("kind", "m")}
        return discretize(kind, _num(entry.get("m", 64), "m", integer=True), **params)
    raise ConfigError(f"unknown distribution kind '{kind}'")


def _mech_from(entry: dict) -> Mechanism:
    reward = entry.get("reward")
    return Mechanism(grid=tuple(_require(entry, "grid")),
                     levels=tuple(_require(entry, "levels")),
                     reward=None if reward is None else tuple(reward))


# --------------------------------------------------------------- outputs ---

def _jsonable(v):
    if is_neg_inf(v):
        return "-infinity"
    if isinstance(v, float):
        if math.isinf(v):
            return "infinity" if v > 0 else "-infinity"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def _write_report(out_dir: str, obj: dict) -> None:
    path = os.path.join(out_dir, "report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonable(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_csv(out_dir: str, name: str, header, rows) -> None:
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


def _mechanism_csv(out_dir: str, m: Mechanism, r: float, extra=()) -> None:
    _write_csv(out_dir, "mechanism.csv",
               ("t", "flow_u", "continuation_u", "reward_u"),
               mechanism_rows(m, r, extra_times=extra))


# -------------------------------------------------------------- commands ---

def _cmd_analyze(cfg: dict, out_dir: str, tols: dict) -> int:
    pair = _pair_from(cfg)
    report = validate_model(pair)
    reasons = euler.simple_reasons(pair)
    band_gap = affine_gap(pair.f0, float(pair.u_star), float(pair.u0))
    obj = {
        "command": "analyze",
        "tolerances": tols,
        "constants": {
            "r": pair.r,
            "u0": float(pair.u0),
            "u1": float(pair.u1),
            "u_star": float(pair.u_star),
            "f0_peak_value": float(pair.f0_peak_value),
            "f1_peak_value": float(pair.f1_peak_value),
            "affine_gap": band_gap,
        },
        "model_checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness,
             "detail": c.detail} for c in report.checks],
        "classification": ("reward path (strictly concave case)"
                           if not reasons else "deadline, T >= T_underline"),
        "not_simple_reasons": list(reasons),
    }
    try:
        obj["constants"]["t_underline"] = t_underline(pair)
    except ModelAssumptionError as e:
        obj["constants"]["t_underline"] = None
        obj["t_underline_error"] = str(e)
    _write_report(out_dir, obj)
    if not report.ok:
        for c in report.failed():
            print(f"model check failed: {c.name} ({c.detail})", file=sys.stderr)
        return 2
    return 0


def _cmd_solve_deadline(cfg: dict, out_dir: str, tols: dict) -> int:
    pair = _pair_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    best = optimize_deadline(pair, dist, tol=tols["root"])
    _mechanism_csv(out_dir, best.mechanism, pair.r, extra=dist.times)
    _write_report(out_dir, {
        "command": "solve-deadline",
        "tolerances": tols,
        "T": best.T,
        "t_underline": best.t_underline,
        "payoff": best.payoff,
        "foc": {"pi_plus": best.foc.pi_plus, "pi_minus": best.foc.pi_minus,
                "alpha": best.foc.alpha, "satisfied": best.foc.satisfied,
                "tol": best.foc.tol},
        "warnings": list(best.warnings),
    })
    return 0


def _cmd_solve_euler(cfg: dict, out_dir: str, tols: dict) -> int:
    pair = _pair_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    shift = _num(cfg.get("shift", 0.0), "shift")
    solve_pair = pair.shifted(shift) if shift else pair
    sol = euler.solve(solve_pair, dist, tol_psi=tols["root"])
    res = euler.euler_residuals(solve_pair, dist, sol.levels, sol.conts)
    mech_out = insurance.shift_mechanism(sol.mechanism, -shift) if shift else sol.mechanism
    _mechanism_csv(out_dir, mech_out, pair.r)
    _write_csv(out_dir, "residuals.csv",
               ("k", "t", "flow_u", "continuation_u", "residual"),
               [(k, t, lv - shift, cv - shift, rv)
                for k, (t, lv, cv, rv) in enumerate(
                    zip(sol.times, sol.levels, sol.conts, res), start=1)])
    _write_report(out_dir, {
        "command": "solve-euler",
        "tolerances": tols,
        "terminal_level": sol.lam - shift,
        "terminal_residual": sol.psi,
        "max_abs_residual": max(abs(v) for v in res),
        "payoff": sol.payoff,
        "shift": shift,
        "extra_roots": [v - shift for v in sol.extra_roots],
    })
    return 0


def _cmd_verify(cfg: dict, out_dir: str, tols: dict) -> int:
    pair = _pair_from(cfg)
    model = validate_model(pair)
    obj = {
        "command": "verify",
        "tolerances": tols,
        "model_checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness,
             "detail": c.detail} for c in model.checks],
    }
    ok = model.ok

    if "mechanism" in cfg:
        m = _mech_from(cfg["mechanism"])
        ic = ic_check(m, pair.r)
        obj["mechanism_ic"] = {"ok": ic.ok, "time": ic.time, "clause": ic.clause}
        ok = ok and ic.ok
        if "distribution" in cfg:
            dist = _dist_from(cfg["distribution"])
            value = payoff(m, pair, dist)
            obj["payoff"] = value.total
            fl = front_load(m, pair)
            fl_value = payoff(fl.mechanism, pair, dist)
            obj["front_load"] = {"T": fl.T, "payoff": fl_value.total}
            if isinstance(value.total, float) and isinstance(fl_value.total, float):
                dominated = fl_value.total >= value.total - tols["root"]
                obj["front_load"]["dominates"] = dominated
                ok = ok and dominated
    else:
        dist = _dist_from(_require(cfg, "distribution"))
        reasons = euler.simple_reasons(pair)
        if reasons:
            best = optimize_deadline(pair, dist, tol=tols["root"])
            obj["classification"] = "deadline, T >= T_underline"
            obj["T"] = best.T
            obj["t_underline"] = best.t_underline
            obj["payoff"] = best.payoff
            obj["foc_satisfied"] = best.foc.satisfied
            obj["not_simple_reasons"] = list(reasons)
            ok = ok and best.foc.satisfied and best.T >= best.t_underline - 1e-12
        else:
            sol = euler.solve(pair, dist, tol_psi=tols["root"])
            res = euler.euler_residuals(pair, dist, sol.levels, sol.conts)
            worst = max(abs(v) for v in res)
            obj["classification"] = "reward path (strictly concave case)"
            obj["payoff"] = sol.payoff
            obj["terminal_level"] = sol.lam
            obj["max_abs_residual"] = worst
            ok = ok and worst <= tols["residual"]

    obj["ok"] = ok
    _write_report(out_dir, obj)
    if not ok:
        print("verification failed; see report.json", file=sys.stderr)
        return 2
    return 0


def _cmd_compare_statics(cfg: dict, out_dir: str, tols: dict) -> int:
    pair = _pair_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    dist_dag = _dist_from(_require(cfg, "distribution_dag"))
    obj = {"command": "compare-statics", "tolerances": tols}

    order = order_checks(dist, dist_dag)
    obj["order"] = {"fosd": order.fosd, "mlr": order.mlr,
                    "equal_support": order.equal_support, "detail": order.detail}

    if euler.simple_reasons(pair):
        best = optimize_deadline(pair, dist, tol=tols["root"])
        best_dag = optimize_deadline(pair, dist_dag, tol=tols["root"])
        obj["T"] = best.T
        obj["T_dag"] = best_dag.T
        obj["monotone"] = best.T >= best_dag.T - tols["root"]
        ok = obj["monotone"]
    else:
        cs = euler.comparative_statics_check(pair, dist, dist_dag)
        obj["pointwise_dominance"] = cs.ok
        obj["max_violation"] = cs.max_violation
        obj["witness_t"] = cs.witness
        ok = cs.ok

    obj["ok"] = ok
    _write_report(out_dir, obj)
    return 0 if ok else 2


def _cmd_ui_schedule(cfg: dict, out_dir: str, tols: dict) -> int:
    tech = _require(cfg, "technology")
    if tech.get("kind") != "insurance":
        raise ConfigError("ui-schedule needs an insurance technology")
    prims = _ui_from(tech)
    r = _num(cfg.get("r", 1.0), "r")
    pair = insurance.build_frontiers(prims, r)
    dist = _dist_from(_require(cfg, "distribution"))
    solver = cfg.get("solver", "deadline")
    consts = insurance.ui_constants(prims)

    if solver == "deadline":
        best = optimize_deadline(pair, dist, tol=tols["root"])
        mech, extra = best.mechanism, dist.times
        head = {"T": best.T, "payoff": best.payoff}
    elif solver == "path":
        shift = _num(cfg.get("shift_frac", 0.05), "shift_frac") * consts.u0
        sol = euler.solve(pair.shifted(shift), dist, tol_psi=tols["root"])
        mech, extra = insurance.shift_mechanism(sol.mechanism, -shift), ()
        head = {"terminal_level": sol.lam - shift, "payoff": sol.payoff,
                "shift": shift}
    else:
        raise ConfigError(f"unknown solver '{solver}' (use 'deadline' or 'path')")

    times = sorted(set(mech.grid) | set(dist.times) | set(extra))
    rows = insurance.schedule(prims, pair, mech, times)
    _write_csv(out_dir, "schedule.csv",
               ("t", "flow_u", "promise_u", "benefit", "consumption",
                "labor", "net_output"),
               [(w.t, w.flow_u, w.promise_u, w.benefit, w.consumption,
                 w.labor, w.net_output) for w in rows])
    _mechanism_csv(out_dir, mech, r, extra=dist.times)
    _write_report(out_dir, {
        "command": "ui-schedule", "tolerances": tols, "solver": solver,
        "constants": {"u0": consts.u0, "c0": consts.c0, "v0": consts.v0,
                      "eps_linear": consts.eps_linear},
        "max_identity_err": max(abs(w.identity_err) for w in rows),
        **head,
    })
    return 0


def _cmd_ui_sweep(cfg: dict, out_dir: str, tols: dict) -> int:
    tech = _require(cfg, "technology")
    if tech.get("kind") != "insurance":
        raise ConfigError("ui-sweep needs an insurance technology")
    prims = _ui_from(tech)
    r = _num(cfg.get("r", 1.0), "r")
    dist = _dist_from(_require(cfg, "distribution"))
    shadows = [_num(s, "shadows") for s in _require(cfg, "shadows")]
    shift_frac = _num(cfg.get("shift_frac", 0.05), "shift_frac")
    rows = insurance.welfare_sweep(prims, shadows, dist, r, shift_frac=shift_frac)
    _write_csv(out_dir, "sweep.csv",
               ("shadow", "u0", "t_deadline", "pi_deadline", "pi_path",
                "gain", "ratio", "gap_bound", "eps_linear"),
               [(w.shadow, w.u0, w.t_deadline, w.pi_deadline, w.pi_path,
                 w.gain, w.ratio, w.gap_bound, w.eps_linear) for w in rows])
    _write_report(out_dir, {
        "command": "ui-sweep", "tolerances": tols,
        "rows": [{"shadow": w.shadow, "pi_deadline": w.pi_deadline,
                  "pi_path": w.pi_path, "gain": w.gain, "ratio": w.ratio,
                  "gap_bound": w.gap_bound} for w in rows],
        "gain_within_bound": all(w.gain <= w.gap_bound + 1e-8 for w in rows),
    })
    return 0


def _cmd_oracle(cfg: dict, out_dir: str, tols: dict) -> int:
    tech = _require(cfg, "technology")
    if tech.get("kind") != "piecewise":
        raise ConfigError("oracle needs a piecewise technology")
    f0, f1 = _piecewise(tech, "f0"), _piecewise(tech, "f1")
    beta = _num(_require(cfg, "beta"), "beta")
    obj = {"command": "oracle", "tolerances": tols, "beta": beta}

    if "mechanism" in cfg:
        entry = cfg["mechanism"]
        m = DiscreteMechanism(beta, tuple(_require(entry, "x")),
                              tuple(_require(entry, "x1")))
        ic = ic_discrete(m)
        obj["ic"] = {"ok": ic.ok, "period": ic.period, "clause": ic.clause}
        obj["payoffs"] = list(payoff_vector(m, f0, f1))
        if ic.ok:
            u1 = f1.peak[0]
            try:
                step = improve_slack(m, u1)
                obj["improvement"] = {
                    "case": step.case, "period": step.period,
                    "delta": float(step.delta), "improves_at": step.improves_at,
                    "x": list(step.mechanism.x), "x1": list(step.mechanism.x1)}
            except NothingToImprove:
                obj["improvement"] = None
        _write_report(out_dir, obj)
        return 0

    horizon = _num(_require(cfg, "horizon"), "horizon", integer=True)
    x_grid = list(_require(cfg, "x_grid"))
    reward_grid = list(_require(cfg, "reward_grid"))
    entries = undominated_scan(f0, f1, beta, horizon, x_grid, reward_grid)
    _write_csv(out_dir, "undominated.csv",
               tuple(f"x{s}" for s in range(horizon))
               + tuple(f"x1_{s}" for s in range(horizon))
               + tuple(f"payoff_{s}" for s in range(horizon)) + ("payoff_never",),
               [tuple(e.x) + tuple(e.x1) + tuple(e.payoffs) for e in entries])
    obj["undominated_count"] = len(entries)
    _write_report(out_dir, obj)
    return 0


_DISPATCH = {
    "analyze": _cmd_analyze,
    "solve-deadline": _cmd_solve_deadline,
    "solve-euler": _cmd_solve_euler,
    "verify": _cmd_verify,
    "compare-statics": _cmd_compare_statics,
    "ui-schedule": _cmd_ui_schedule,
    "ui-sweep": _cmd_ui_sweep,
    "oracle": _cmd_oracle,
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="disclose",
        description="Solvers for optimal breakthrough-disclosure mechanisms.")
    parser.add_argument("command", nargs="?", default=None,
                        help=f"one of: {', '.join(COMMANDS)} "
                             "(defaults to the config's 'command' entry)")
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--tol-root", type=float, default=1e-9,
                        help="first-order / root-residual tolerance")
    parser.add_argument("--tol-residual", type=float, default=1e-8,
                        help="stationarity-residual tolerance for verify")
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        command = args.command or cfg.get("command")
        if command not in _DISPATCH:
            raise ConfigError(
                f"unknown or missing command '{command}'; expected one of "
                f"{', '.join(COMMANDS)}")
        os.makedirs(args.out, exist_ok=True)
        tols = {"root": args.tol_root, "residual": args.tol_residual}
        return _DISPATCH[command](cfg, args.out, tols)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except NotSimple as e:
        print(f"model outside the solver's class: {e}", file=sys.stderr)
        return 2
    except ModelAssumptionError as e:
        print(f"model assumption violated: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    except DiscloseError as e:  # pragma: no cover - future error classes
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
