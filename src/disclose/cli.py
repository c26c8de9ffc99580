"""Command-line interface: JSON config in, JSON report + CSV tables out.

Every command reads one JSON config file and writes ``report.json`` (plus
command-specific CSVs) into ``--out``.  Outputs are byte-stable: keys are
sorted, line endings fixed, and nothing time- or path-dependent is written,
so reruns on the same config diff clean.

Exit codes: 0 success; 1 configuration problem (a bad command line
included); 2 model-assumption failure (including a failed verification);
3 solver breakdown.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import Optional

from . import euler, insurance
from .deadline import front_load, optimize_deadline, t_underline
from .distribution import BreakthroughDist, discretize, from_atoms, order_checks
from .errors import (ConfigError, DiscloseError, ModelAssumptionError,
                     NotSimple, NothingToImprove, SolverError)
from .discrete import (DiscreteMechanism, ic_discrete, improve_slack,
                       payoff_vector, undominated_scan)
from .frontier import (PiecewiseFrontier, TechnologyPair, affine_gap,
                       is_neg_inf, validate_model)
from .mechanism import Mechanism, ic_check, mechanism_rows, payoff


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
    """A finite JSON number field as a float, or as an int when ``integer``.
    Anything else (NaN, Infinity and integers beyond the float range
    included), or a fraction where a whole number is needed, is a
    ConfigError naming the field."""
    is_num = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and abs(value) <= sys.float_info.max)
    if not is_num or integer and isinstance(value, float) and not value.is_integer():
        kind = "an integer" if integer else "a finite number"
        raise ConfigError(f"'{what}' must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _numbers(cfg: dict, key: str) -> list:
    """``cfg[key]`` unchanged (integer levels stay integers) if it is a list
    of finite numbers; anything else is a ConfigError."""
    value = _require(cfg, key)
    if not isinstance(value, list):
        raise ConfigError(f"'{key}' must be a list of numbers, got {value!r}")
    for v in value:
        _num(v, key)
    return value


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


def _technology(cfg: dict, kind: str) -> dict:
    """``cfg['technology']``, which must be of the given kind."""
    tech = _require(cfg, "technology")
    found = _require(tech, "kind")
    if found != kind:
        raise ConfigError(f"this command needs technology kind '{kind}', got '{found}'")
    return tech


def _piecewise_from(cfg: dict) -> tuple:
    """``(f0, f1)`` of a piecewise technology."""
    tech = _technology(cfg, "piecewise")
    return tuple(PiecewiseFrontier(_pairs(_require(tech, k), k)) for k in ("f0", "f1"))


def _insurance_from(cfg: dict) -> tuple:
    """``(primitives, r)`` of an insurance technology."""
    tech = _technology(cfg, "insurance")
    prims = insurance.UiPrimitives(
        **{k: _num(_require(tech, k), k) for k in ("a", "b", "w", "shadow")})
    return prims, _num(cfg.get("r", 1.0), "r")


def _pair_from(cfg: dict) -> TechnologyPair:
    kind = _require(_require(cfg, "technology"), "kind")
    if kind == "piecewise":
        return TechnologyPair.build(*_piecewise_from(cfg), _num(cfg.get("r", 1.0), "r"))
    if kind == "insurance":
        return insurance.build_frontiers(*_insurance_from(cfg))
    raise ConfigError(f"unknown technology kind '{kind}'")


def _dist_from(entry: dict) -> BreakthroughDist:
    kind = _require(entry, "kind")
    if kind == "atoms":
        return from_atoms(_pairs(_require(entry, "atoms"), "atoms"))
    if kind in ("exponential", "weibull", "point"):
        params = {k: _num(v, k) for k, v in entry.items() if k not in ("kind", "m")}
        return discretize(kind, _num(entry.get("m", 64), "m", integer=True), **params)
    raise ConfigError(f"unknown distribution kind '{kind}'")


def _mech_from(entry: dict) -> Mechanism:
    grid, levels = _numbers(entry, "grid"), _numbers(entry, "levels")
    reward = None if entry.get("reward") is None else _numbers(entry, "reward")
    return Mechanism(grid=grid, levels=levels, reward=reward)


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
        writer.writerows(rows)


def _mechanism_csv(out_dir: str, m: Mechanism, r: float, extra=()) -> None:
    """mechanism.csv: the rows of :func:`mechanism_rows`, byte for byte as
    ``csv.writer`` writes them (a float as its ``repr``, which needs no
    quoting), built as one text and written in one call.  Each float is
    formatted once: a row's flow level or explicit reward reuses the text
    of the previous row's when it is the same object (a cell's rows share
    the cell's), and a derived reward, or a last-cell continuation value,
    reuses the text of the object it is.  Texts are matched by object
    identity, never by value, which would merge ``0.0`` and ``-0.0``."""
    lines = ["t,flow_u,continuation_u,reward_u\n"]
    flow = reward = None     # the objects whose texts are held
    for t, fl, x, rw in mechanism_rows(m, r, extra_times=extra):
        if fl is not flow:
            flow, flow_text = fl, repr(fl)
        x_text = flow_text if x is flow else repr(x)
        if rw is not reward:
            reward, reward_text = rw, x_text if rw is x else repr(rw)
        lines.append(f"{t!r},{flow_text},{x_text},{reward_text}\n")
    path = os.path.join(out_dir, "mechanism.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("".join(lines))


# -------------------------------------------------------------- commands ---
# Each command writes its CSVs into ``out_dir`` and returns ``(report,
# exit code)``; ``main`` adds the command name and tolerances to the report
# and writes report.json.

DEADLINE_CLASS = "deadline, T >= T_underline"
PATH_CLASS = "reward path (strictly concave case)"


def _cmd_analyze(cfg: dict, out_dir: str, tols: dict):
    pair = _pair_from(cfg)
    checks = validate_model(pair)
    reasons = euler.simple_reasons(pair)
    report = {
        "constants": {
            "r": pair.r,
            "u0": pair.u0,
            "u1": pair.u1,
            "u_star": pair.u_star,
            "f0_peak_value": float(pair.f0.value(pair.u0)),
            "f1_peak_value": float(pair.f1.value(pair.u1)),
            "affine_gap": affine_gap(pair.f0, pair.u_star, pair.u0),
        },
        "model_checks": [asdict(c) for c in checks],
        "classification": DEADLINE_CLASS if reasons else PATH_CLASS,
        "not_simple_reasons": list(reasons),
    }
    try:
        report["constants"]["t_underline"] = t_underline(pair)
    except ModelAssumptionError as e:
        report["constants"]["t_underline"] = None
        report["t_underline_error"] = str(e)
    failed = "; ".join(f"{c.name} ({c.detail})" for c in checks if not c.passed)
    if failed:
        print(f"model check failed: {failed}", file=sys.stderr)
    return report, 2 if failed else 0


def _cmd_solve_deadline(cfg: dict, out_dir: str, tols: dict):
    pair = _pair_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    best = optimize_deadline(pair, dist, tol=tols["root"])
    if not best.foc.satisfied:
        raise SolverError(
            f"best deadline T={best.T:.6g} fails the first-order conditions "
            f"(pi_plus={best.foc.pi_plus:.6g}, pi_minus={best.foc.pi_minus:.6g}, "
            f"tol={best.foc.tol:g})")
    _mechanism_csv(out_dir, best.mechanism, pair.r, extra=dist.times)
    return {
        "T": best.T,
        "t_underline": best.t_underline,
        "payoff": best.payoff,
        "foc": asdict(best.foc),
        "warnings": list(best.warnings),
    }, 0


def _cmd_solve_euler(cfg: dict, out_dir: str, tols: dict):
    pair = _pair_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    sol = euler.solve(pair, dist)
    res = euler.euler_residuals(pair, dist, sol.levels, sol.conts)
    _mechanism_csv(out_dir, sol.mechanism, pair.r)
    _write_csv(out_dir, "residuals.csv",
               ("k", "t", "flow_u", "continuation_u", "residual"),
               [(k, t, lv, cv, rv)
                for k, (t, lv, cv, rv) in enumerate(
                    zip(sol.times, sol.levels, sol.conts, res), start=1)])
    return {
        "terminal_level": sol.lam,
        "terminal_residual": sol.psi,
        "max_abs_residual": max(abs(v) for v in res),
        "payoff": sol.payoff,
        "extra_roots": list(sol.extra_roots),
    }, 0


def _cmd_verify(cfg: dict, out_dir: str, tols: dict):
    pair = _pair_from(cfg)
    checks = validate_model(pair)
    report = {"model_checks": [asdict(c) for c in checks]}
    ok = all(c.passed for c in checks)

    if "mechanism" in cfg:
        m = _mech_from(cfg["mechanism"])
        ic = ic_check(m, pair.r)
        report["mechanism_ic"] = asdict(ic)
        ok = ok and ic.ok
        if "distribution" in cfg:
            dist = _dist_from(cfg["distribution"])
            value = payoff(m, pair, dist)
            report["payoff"] = value
            fl = front_load(m, pair)
            fl_value = payoff(fl.mechanism, pair, dist)
            report["front_load"] = {"T": fl.T, "payoff": fl_value}
            if isinstance(value, float) and isinstance(fl_value, float):
                dominated = fl_value >= value - tols["root"]
                report["front_load"]["dominates"] = dominated
                ok = ok and dominated
    else:
        dist = _dist_from(_require(cfg, "distribution"))
        reasons = euler.simple_reasons(pair)
        if reasons:
            best = optimize_deadline(pair, dist, tol=tols["root"])
            report["classification"] = DEADLINE_CLASS
            report["T"] = best.T
            report["t_underline"] = best.t_underline
            report["payoff"] = best.payoff
            report["foc_satisfied"] = best.foc.satisfied
            report["not_simple_reasons"] = list(reasons)
            ok = ok and best.foc.satisfied and best.T >= best.t_underline - 1e-12
        else:
            sol = euler.solve(pair, dist)
            res = euler.euler_residuals(pair, dist, sol.levels, sol.conts)
            worst = max(abs(v) for v in res)
            report["classification"] = PATH_CLASS
            report["payoff"] = sol.payoff
            report["terminal_level"] = sol.lam
            report["max_abs_residual"] = worst
            ok = ok and worst <= tols["residual"]

    report["ok"] = ok
    if not ok:
        print("verification failed; see report.json", file=sys.stderr)
    return report, 0 if ok else 2


def _cmd_compare_statics(cfg: dict, out_dir: str, tols: dict):
    pair = _pair_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    dist_dag = _dist_from(_require(cfg, "distribution_dag"))
    report = {"order": asdict(order_checks(dist, dist_dag))}

    if euler.simple_reasons(pair):
        best = optimize_deadline(pair, dist, tol=tols["root"])
        best_dag = optimize_deadline(pair, dist_dag, tol=tols["root"])
        report["T"] = best.T
        report["T_dag"] = best_dag.T
        report["monotone"] = ok = best.T >= best_dag.T - tols["root"]
    else:
        cs = euler.comparative_statics_check(pair, dist, dist_dag)
        report["pointwise_dominance"] = ok = cs.ok
        report["max_violation"] = cs.max_violation
        report["witness_t"] = cs.witness

    report["ok"] = ok
    return report, 0 if ok else 2


def _cmd_ui_schedule(cfg: dict, out_dir: str, tols: dict):
    prims, r = _insurance_from(cfg)
    pair = insurance.build_frontiers(prims, r)
    dist = _dist_from(_require(cfg, "distribution"))
    solver = cfg.get("solver", "deadline")
    consts = insurance.ui_constants(prims)

    if solver == "deadline":
        best = optimize_deadline(pair, dist, tol=tols["root"])
        mech = best.mechanism
        head = {"T": best.T, "payoff": best.payoff}
    elif solver == "path":
        sol = euler.solve(pair, dist)
        mech = sol.mechanism
        head = {"terminal_level": sol.lam, "payoff": sol.payoff}
    else:
        raise ConfigError(f"unknown solver '{solver}' (use 'deadline' or 'path')")

    rows = insurance.schedule(prims, pair, mech, dist.times)
    _write_csv(out_dir, "schedule.csv",
               ("t", "flow_u", "promise_u", "benefit", "consumption",
                "labor", "net_output"),
               [(w.t, w.flow_u, w.promise_u, w.benefit, w.consumption,
                 w.labor, w.net_output) for w in rows])
    _mechanism_csv(out_dir, mech, r, extra=dist.times)
    return {
        "solver": solver,
        "constants": asdict(consts),
        "max_identity_err": max(abs(w.identity_err) for w in rows),
        **head,
    }, 0


def _cmd_ui_sweep(cfg: dict, out_dir: str, tols: dict):
    prims, r = _insurance_from(cfg)
    dist = _dist_from(_require(cfg, "distribution"))
    shadows = _numbers(cfg, "shadows")
    if not shadows:  # no rows would hold the gain bound vacuously
        raise ConfigError("'shadows' must be a non-empty list of numbers, got []")
    rows = insurance.welfare_sweep(prims, shadows, dist, r)
    _write_csv(out_dir, "sweep.csv", [f.name for f in fields(insurance.SweepRow)],
               map(astuple, rows))
    return {
        "rows": [{"shadow": w.shadow, "pi_deadline": w.pi_deadline,
                  "pi_path": w.pi_path, "gain": w.gain, "ratio": w.ratio,
                  "gap_bound": w.gap_bound} for w in rows],
        "gain_within_bound": all(w.gain <= w.gap_bound + 1e-8 for w in rows),
    }, 0


def _cmd_oracle(cfg: dict, out_dir: str, tols: dict):
    f0, f1 = _piecewise_from(cfg)
    beta = _num(_require(cfg, "beta"), "beta")
    report = {"beta": beta}

    if "mechanism" in cfg:
        entry = cfg["mechanism"]
        m = DiscreteMechanism(beta, _numbers(entry, "x"), _numbers(entry, "x1"))
        ic = ic_discrete(m)
        report["ic"] = asdict(ic)
        report["payoffs"] = list(payoff_vector(m, f0, f1))
        if ic.ok:
            u1 = f1.peak[0]
            try:
                step = improve_slack(m, u1)
                report["improvement"] = {
                    "case": step.case, "period": step.period,
                    "delta": float(step.delta), "improves_at": step.improves_at,
                    "x": list(step.mechanism.x), "x1": list(step.mechanism.x1)}
            except NothingToImprove:
                report["improvement"] = None
        return report, 0

    horizon = _num(_require(cfg, "horizon"), "horizon", integer=True)
    entries = undominated_scan(f0, f1, beta, horizon, _numbers(cfg, "x_grid"),
                               _numbers(cfg, "reward_grid"))
    _write_csv(out_dir, "undominated.csv",
               tuple(f"x{s}" for s in range(horizon))
               + tuple(f"x1_{s}" for s in range(horizon))
               + tuple(f"payoff_{s}" for s in range(horizon)) + ("payoff_never",),
               [tuple(e.x) + tuple(e.x1) + tuple(e.payoffs) for e in entries])
    report["undominated_count"] = len(entries)
    return report, 0


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
COMMANDS = tuple(_DISPATCH)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 with one line, not argparse's usage and 2
        raise ConfigError(message)


# built once: parse_args leaves the parser unchanged
_PARSER = _Parser(
    prog="disclose",
    description="Solvers for optimal breakthrough-disclosure mechanisms.")
_PARSER.add_argument("command", nargs="?", default=None,
                     help=f"one of: {', '.join(COMMANDS)} "
                          "(defaults to the config's 'command' entry)")
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", default=".", help="output directory")
_PARSER.add_argument("--tol-root", type=float, default=1e-9,
                     help="first-order tolerance of the deadline solver (ui-sweep "
                          "solves at the library default) and slack of the "
                          "verify and compare-statics deadline checks")
_PARSER.add_argument("--tol-residual", type=float, default=1e-8,
                     help="stationarity-residual tolerance for verify")


def main(argv: Optional[list] = None) -> int:
    try:
        try:
            args = _PARSER.parse_args(argv)
        except SystemExit as e:  # --help printed the usage
            return e.code
        tols = {"root": args.tol_root, "residual": args.tol_residual}
        for name, tol in tols.items():
            if not 0.0 <= tol < math.inf:
                raise ConfigError(f"--tol-{name} must be a finite number >= 0, got {tol}")
        cfg = _load_config(args.config)
        command = args.command or cfg.get("command")
        if command not in COMMANDS:  # a tuple: an unhashable value is no error
            raise ConfigError(
                f"unknown or missing command '{command}'; expected one of "
                f"{', '.join(COMMANDS)}")
        os.makedirs(args.out, exist_ok=True)
        report, code = _DISPATCH[command](cfg, args.out, tols)
        _write_report(args.out, {"command": command, "tolerances": tols, **report})
        return code
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
