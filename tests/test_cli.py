"""CLI behaviour: config parsing, reports, CSVs, exit codes, byte stability.

All invocations go through ``main(argv)`` directly; one smoke test runs the
module as a subprocess to cover the installed entry point.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import disclose
from disclose import SolverError, UiPrimitives, insurance
from disclose.cli import main
from disclose.distribution import MAX_ATOMS

from test_golden import DENSE_B_TECH, WITNESS_ATOMS, WITNESS_TECH
from test_hotpaths import LABOR_ULPS, inner_max_reference, labor_error

A_TECH = {
    "kind": "piecewise",
    "f0": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
    "f1": [[0.0, 0.6], [0.3, 1.2], [0.8, 1.4], [1.8, 0.6]],
}
UI_TECH = {"kind": "insurance", "a": 0.5, "b": 2.0, "w": 1.0, "shadow": 0.5}
POINT_1 = {"kind": "atoms", "atoms": [[1.0, 1.0]]}


def write_cfg(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ----------------------------------------------------------------- analyze ---

def test_analyze_piecewise(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH, "r": 1.0})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    consts = rep["constants"]
    assert consts["u0"] == 1.0
    assert consts["u1"] == 0.8
    assert consts["u_star"] == 0.3
    assert consts["t_underline"] == pytest.approx(math.log(3.5), abs=1e-12)
    assert rep["classification"] == "deadline, T >= T_underline"
    assert rep["not_simple_reasons"]
    assert all(c["passed"] for c in rep["model_checks"])


def test_analyze_insurance_classified_simple(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": UI_TECH, "r": 1.0})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["constants"]["u_star"] == 0.0
    # strictly concave on [u_star, u0]; u_star at the domain bottom is no bar
    assert rep["classification"] == "reward path (strictly concave case)"
    assert rep["not_simple_reasons"] == []


def test_analyze_reports_broken_model(tmp_path, capsys):
    tech = {"kind": "piecewise",
            "f0": [[0.0, 0.0], [0.5, 0.5], [2.0, 0.2]],
            "f1": A_TECH["f1"]}
    cfg = write_cfg(tmp_path, {"technology": tech})
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    rep = read_report(out)
    failed = [c["name"] for c in rep["model_checks"] if not c["passed"]]
    assert failed == ["conflict_of_interest", "u_star_strict_local_max"]
    # every failed check on one line, as every other command ends
    err = capsys.readouterr().err
    assert err.startswith("model check failed: conflict_of_interest (")
    assert "; u_star_strict_local_max (" in err
    assert err.count("\n") == 1 and err.endswith("\n")


def test_reports_are_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["analyze", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["analyze", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


# ---------------------------------------------------------- solve-deadline ---

def test_solve_deadline_point_mass(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH,
                               "distribution": POINT_1})
    out = tmp_path / "out"
    assert main(["solve-deadline", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["T"] == pytest.approx(1.0 + math.log(3.5), abs=1e-8)
    assert rep["payoff"] == pytest.approx(1.147151776468577, abs=1e-9)
    assert rep["foc"]["satisfied"] is True
    assert rep["warnings"] == []
    rows = read_csv(out / "mechanism.csv")
    assert rows[0] == ["t", "flow_u", "continuation_u", "reward_u"]
    assert len(rows) == 4  # header + grid(2) + atom time
    assert float(rows[1][0]) == 0.0 and float(rows[1][1]) == 1.0


def test_solve_deadline_finds_the_late_stationary_point(tmp_path):
    # the right bracket turns negative at T ~ 2.14 and rises again at the
    # atoms 2.55-2.632; the stationary point after them pays more
    cfg = write_cfg(tmp_path, {"technology": WITNESS_TECH, "r": 1.38,
                               "distribution": {"kind": "atoms",
                                                "atoms": WITNESS_ATOMS}})
    out = tmp_path / "out"
    assert main(["solve-deadline", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["T"] == pytest.approx(2.72876, abs=1e-5)
    assert rep["payoff"] >= 1.0153165
    assert rep["foc"]["satisfied"] is True


def test_command_from_config_and_tol_passthrough(tmp_path):
    cfg = write_cfg(tmp_path, {"command": "solve-deadline",
                               "technology": A_TECH,
                               "distribution": POINT_1})
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out),
                 "--tol-root", "5e-10"]) == 0
    rep = read_report(out)
    assert rep["tolerances"]["root"] == 5e-10


# ------------------------------------------------------------- solve-euler ---

def test_solve_euler_insurance(tmp_path):
    cfg = write_cfg(tmp_path, {
        "technology": UI_TECH, "r": 1.0,
        "distribution": {"kind": "atoms", "atoms": [[0.5, 0.5], [1.5, 0.5]]}})
    out = tmp_path / "out"
    assert main(["solve-euler", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["max_abs_residual"] <= 1e-8
    assert rep["extra_roots"] == []
    rows = read_csv(out / "residuals.csv")
    assert rows[0] == ["k", "t", "flow_u", "continuation_u", "residual"]
    assert len(rows) == 3
    # the path starts at the f0 peak u0 = 1
    mech = read_csv(out / "mechanism.csv")
    assert float(mech[1][1]) == pytest.approx(1.0, abs=1e-9)


def test_tol_root_moves_no_reward_path_output(tmp_path):
    # the terminal level of a piecewise pair is bisected to |psi| <= PSI_TOL
    # whatever --tol-root says
    cfg = write_cfg(tmp_path, {
        "technology": DENSE_B_TECH, "r": 1.0,
        "distribution": {"kind": "exponential", "m": 16, "rate": 1.0}})
    runs = []
    for name, extra in (("default", []), ("loose", ["--tol-root", "0.01"])):
        out = tmp_path / name
        assert main(["solve-euler", "--config", cfg, "--out", str(out)] + extra) == 0
        runs.append(out)
    default, loose = runs
    for name in ("mechanism.csv", "residuals.csv"):
        assert (default / name).read_bytes() == (loose / name).read_bytes()
    rep, rep_loose = read_report(default), read_report(loose)
    assert rep_loose.pop("tolerances")["root"] == 0.01
    rep.pop("tolerances")
    assert rep_loose == rep


def test_solve_euler_rejects_kinked_pair(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"technology": A_TECH,
                               "distribution": POINT_1})
    out = tmp_path / "out"
    assert main(["solve-euler", "--config", cfg, "--out", str(out)]) == 2
    assert "outside the solver's class" in capsys.readouterr().err


# ------------------------------------------------------------------ verify ---

def test_verify_accepts_deadline_mechanism(tmp_path):
    cfg = write_cfg(tmp_path, {
        "technology": A_TECH, "distribution": POINT_1,
        "mechanism": {"grid": [0.0, 2.0], "levels": [1.0, 0.3]}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["ok"] is True
    assert rep["mechanism_ic"]["ok"] is True
    assert rep["front_load"]["dominates"] is True
    assert rep["front_load"]["T"] == pytest.approx(2.0, abs=1e-9)


def test_verify_rejects_stingy_reward(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "technology": A_TECH,
        "mechanism": {"grid": [0.0], "levels": [1.0], "reward": [0.8]}})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
    rep = read_report(out)
    assert rep["ok"] is False
    assert rep["mechanism_ic"]["clause"] == "non_disclosure"
    assert "verification failed" in capsys.readouterr().err


def test_verify_classifies_and_solves(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH,
                               "distribution": POINT_1})
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["classification"] == "deadline, T >= T_underline"
    assert rep["foc_satisfied"] is True
    assert rep["T"] >= rep["t_underline"]


# --------------------------------------------------------- compare-statics ---

def test_compare_statics_deadline_monotone(tmp_path):
    later, earlier = POINT_1, {"kind": "atoms", "atoms": [[0.5, 1.0]]}
    cfg = write_cfg(tmp_path, {"technology": A_TECH,
                               "distribution": later,
                               "distribution_dag": earlier})
    out = tmp_path / "out"
    assert main(["compare-statics", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["order"]["fosd"] is True
    assert rep["monotone"] is True
    assert rep["T"] > rep["T_dag"]

    cfg_rev = write_cfg(tmp_path, {"technology": A_TECH,
                                   "distribution": earlier,
                                   "distribution_dag": later}, "rev.json")
    out_rev = tmp_path / "rev"
    assert main(["compare-statics", "--config", cfg_rev,
                 "--out", str(out_rev)]) == 2
    assert read_report(out_rev)["ok"] is False


# -------------------------------------------------------------- ui commands ---

def test_ui_schedule_deadline(tmp_path):
    cfg = write_cfg(tmp_path, {
        "technology": UI_TECH, "r": 1.0,
        "distribution": {"kind": "exponential", "rate": 1.0, "m": 8}})
    out = tmp_path / "out"
    assert main(["ui-schedule", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["solver"] == "deadline"
    assert rep["constants"]["u0"] == pytest.approx(1.0, abs=1e-12)
    assert rep["max_identity_err"] <= 1e-9
    rows = read_csv(out / "schedule.csv")
    assert rows[0][:3] == ["t", "flow_u", "promise_u"]
    assert len(rows) > 2


def test_ui_schedule_path_solver(tmp_path):
    cfg = write_cfg(tmp_path, {
        "technology": UI_TECH, "r": 1.0, "solver": "path",
        "distribution": {"kind": "atoms", "atoms": [[0.5, 0.5], [1.5, 0.5]]}})
    out = tmp_path / "out"
    assert main(["ui-schedule", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["solver"] == "path"
    assert rep["payoff"] > 0.0


def test_ui_schedule_unknown_solver(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"technology": UI_TECH, "solver": "magic",
                               "distribution": POINT_1})
    assert main(["ui-schedule", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 1
    assert "config error" in capsys.readouterr().err


def test_ui_sweep(tmp_path):
    cfg = write_cfg(tmp_path, {
        "technology": UI_TECH, "r": 1.0, "shadows": [0.5, 0.2],
        "distribution": {"kind": "exponential", "rate": 1.0, "m": 8}})
    out = tmp_path / "out"
    assert main(["ui-sweep", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["gain_within_bound"] is True
    assert rep["rows"][1]["ratio"] > rep["rows"][0]["ratio"]
    rows = read_csv(out / "sweep.csv")
    assert len(rows) == 3
    assert rows[0][0] == "shadow"


# ------------------------------------------------------------------ oracle ---

def test_oracle_improves_mechanism(tmp_path):
    cfg = write_cfg(tmp_path, {
        "technology": A_TECH, "beta": 0.5,
        "mechanism": {"x": [0.8, 0.8, 0.8], "x1": [0.95, 0.95, 0.95]}})
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["ic"]["ok"] is True
    assert rep["improvement"]["case"] == "lower_reward"
    assert rep["improvement"]["delta"] == pytest.approx(0.075, abs=1e-12)
    assert rep["improvement"]["x1"][0] == pytest.approx(0.875, abs=1e-12)
    assert len(rep["payoffs"]) == 4


def test_oracle_nothing_to_improve(tmp_path):
    # an IC mechanism with no delay slack anywhere: the report says so
    cfg = write_cfg(tmp_path, {
        "technology": A_TECH, "beta": 0.5,
        "mechanism": {"x": [1.0], "x1": [1.0]}})
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    assert rep["ic"]["ok"] is True
    assert rep["improvement"] is None


def test_oracle_scan(tmp_path):
    grid = [round(0.3 + 0.1 * i, 1) for i in range(8)]
    cfg = write_cfg(tmp_path, {
        "technology": A_TECH, "beta": 0.5, "horizon": 1,
        "x_grid": grid, "reward_grid": grid})
    out = tmp_path / "out"
    assert main(["oracle", "--config", cfg, "--out", str(out)]) == 0
    rep = read_report(out)
    rows = read_csv(out / "undominated.csv")
    assert rows[0] == ["x0", "x1_0", "payoff_0", "payoff_never"]
    assert rep["undominated_count"] == len(rows) - 1
    kept = {(row[0], row[1]) for row in rows[1:]}
    assert kept == {("0.8", "0.8"), ("0.9", "0.9"), ("1.0", "1.0")}


# -------------------------------------------------------------- exit codes ---

def test_exit_1_on_config_problems(tmp_path, capsys):
    missing = write_cfg(tmp_path, {"r": 1.0}, "missing.json")
    assert main(["analyze", "--config", missing,
                 "--out", str(tmp_path / "o1")]) == 1

    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["analyze", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 1

    assert main(["--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "o3")]) == 1

    cfg = write_cfg(tmp_path, {"technology": A_TECH}, "cmd.json")
    assert main(["frobnicate", "--config", cfg,
                 "--out", str(tmp_path / "o4")]) == 1

    listed = write_cfg(tmp_path, {"command": ["analyze"]}, "listed.json")
    assert main(["--config", listed, "--out", str(tmp_path / "o5")]) == 1
    assert "config error" in capsys.readouterr().err


def test_exit_2_on_model_violation(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH, "r": -1.0})
    assert main(["analyze", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 2


def test_exit_3_on_solver_breakdown(tmp_path, monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise SolverError("bracket lost")

    monkeypatch.setattr("disclose.cli.optimize_deadline", explode)
    cfg = write_cfg(tmp_path, {"technology": A_TECH,
                               "distribution": POINT_1})
    assert main(["solve-deadline", "--config", cfg,
                 "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


EXP_8 = {"kind": "exponential", "rate": 1.0, "m": 8}
NO_CONFLICT = "model assumption violated: no conflict of interest: u1 >= u0"
RESOLVE = "model assumption violated: discount rate r="
MECH = {"grid": [0.0, 1.0], "levels": [1.0, 0.3]}
SHORT_F1_POINTS = [[0.0, 0.6], [0.3, 1.2], [0.8, 1.4], [0.9, 1.3]]
SHORT_F1 = "model assumption violated: f1 domain ends at 0.9, below the f0 peak u0=1.0"
UI_OVERFLOW = "config error: the f0 peak utility or its consumption overflows"
UI_UNDERFLOW = "config error: the f0 peak utility (a/shadow)**(a/(1-a)) underflows to 0"
CONSUMPTION_OVERFLOW = "config error: compensating consumption overflows a float"
MASS_SUM = "config error: atom masses must sum to 1"

# configs that must fail cleanly: (command, exit code, stderr start, config)
BAD_CONFIGS = {
    # u1 >= u0 puts u_star at the f0 peak, where the chord slope divides by 0
    "no-conflict-piecewise": ("solve-deadline", 2, NO_CONFLICT, {
        "technology": {"kind": "piecewise",
                       "f0": [[0, 0], [1, 1], [2, 0]],
                       "f1": [[0, 0.6], [1.2, 1.4], [1.8, 0.6]]},
        "distribution": POINT_1}),
    # the deadline rewards reach u0 = 1, past the end of this f1 at 0.9
    "f1-domain-below-f0-peak": ("solve-deadline", 2, SHORT_F1, {
        "technology": dict(A_TECH, f1=SHORT_F1_POINTS), "distribution": EXP_8}),
    "f1-domain-below-f0-peak-verify": ("verify", 2, SHORT_F1, {
        "technology": dict(A_TECH, f1=SHORT_F1_POINTS), "distribution": EXP_8}),
    "no-conflict-insurance": ("solve-deadline", 2, NO_CONFLICT, {
        "technology": dict(UI_TECH, shadow=1e-9), "distribution": EXP_8}),
    "missing-rate": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": {"kind": "exponential", "m": 8}}),
    "missing-shape": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": {"kind": "weibull", "scale": 1.0}}),
    "missing-scale": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": {"kind": "weibull", "shape": 1.0}}),
    "missing-t": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": {"kind": "point"}}),
    "r-not-a-number": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "r": "x", "distribution": POINT_1}),
    "rate-not-a-number": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": dict(EXP_8, rate="x")}),
    "short-atom": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": {"kind": "atoms", "atoms": [[1.0]]}}),
    "short-breakpoint": ("solve-deadline", 1, "config error", {
        "technology": dict(A_TECH, f0=[[0.0, 0.0], [1], [2.0, 0.0]]),
        "distribution": POINT_1}),
    "technology-not-an-object": ("solve-deadline", 1, "config error", {
        "technology": 5, "distribution": POINT_1}),
    "fractional-m": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": dict(EXP_8, m=8.7)}),
    # rejected before any of the atoms is built
    "m-above-limit": ("solve-deadline", 1, "config error: discretization size", {
        "technology": A_TECH, "distribution": dict(EXP_8, m=MAX_ATOMS + 1)}),
    "nan-atom-time": ("solve-deadline", 1, "config error", {
        "technology": A_TECH,
        "distribution": {"kind": "atoms", "atoms": [[math.nan, 1.0]]}}),
    "infinite-atom-time": ("solve-deadline", 1, "config error", {
        "technology": A_TECH,
        "distribution": {"kind": "atoms", "atoms": [[1.0, 0.5], [math.inf, 0.5]]}}),
    # the Weibull quantile's power overflows a float at a tiny shape
    "weibull-tiny-shape": ("solve-deadline", 1, "config error: atom times must be finite", {
        "technology": A_TECH,
        "distribution": {"kind": "weibull", "shape": 0.001, "scale": 1, "m": 8}}),
    "infinite-point-time": ("solve-deadline", 1, "config error", {
        "technology": A_TECH, "distribution": {"kind": "point", "t": math.inf}}),
    # malformed list fields
    "grid-entry-not-a-number": ("verify", 1, "config error: 'grid'", {
        "technology": A_TECH, "mechanism": dict(MECH, grid=[0.0, "x"])}),
    "grid-not-a-list": ("verify", 1, "config error: 'grid'", {
        "technology": A_TECH, "mechanism": dict(MECH, grid=5)}),
    "reward-not-a-list": ("verify", 1, "config error: 'reward'", {
        "technology": A_TECH, "mechanism": dict(MECH, reward=0.9)}),
    "shadows-not-a-list": ("ui-sweep", 1, "config error: 'shadows'", {
        "technology": UI_TECH, "shadows": 0.5, "distribution": EXP_8}),
    # zero rows held the gain bound vacuously: exit 0, "gain_within_bound": true
    "shadows-empty": ("ui-sweep", 1,
                      "config error: 'shadows' must be a non-empty list of numbers", {
        "technology": UI_TECH, "shadows": [], "distribution": EXP_8}),
    "oracle-x-not-a-number": ("oracle", 1, "config error: 'x'", {
        "technology": A_TECH, "beta": 0.5,
        "mechanism": {"x": ["a"], "x1": [0.9]}}),
    "oracle-x-grid-not-a-list": ("oracle", 1, "config error: 'x_grid'", {
        "technology": A_TECH, "beta": 0.5, "horizon": 1,
        "x_grid": 3, "reward_grid": [0.9]}),
    "negative-horizon": ("oracle", 1, "config error: horizon", {
        "technology": A_TECH, "beta": 0.5, "horizon": -1,
        "x_grid": [0.9], "reward_grid": [0.9]}),
    # an empty grid builds no mechanism, so the scan checks beta itself
    "oracle-beta-empty-grid": ("oracle", 1, "config error: discount factor", {
        "technology": A_TECH, "beta": 2.0, "horizon": 2,
        "x_grid": [], "reward_grid": [0.9]}),
    # one mechanism, but the horizon is charged too, before any enumeration
    "oracle-horizon-1e300": ("oracle", 1, "config error: scan over budget", {
        "technology": A_TECH, "beta": 0.5, "horizon": 1e300,
        "x_grid": [0.9], "reward_grid": [0.9]}),
    "oracle-horizon-1e9": ("oracle", 1, "config error: scan over budget", {
        "technology": A_TECH, "beta": 0.5, "horizon": 10 ** 9,
        "x_grid": [0.9], "reward_grid": [0.9]}),
    # finite breakpoints, but the first slope overflows: the scan wrote a
    # nan payoff row and exited 0
    "oracle-infinite-slope": ("oracle", 2,
                              "model assumption violated: segment slopes must be finite, "
                              "got inf", {
        "technology": dict(A_TECH, f1=[[0, 0.6], [5e-324, 1.2], [0.8, 1.4], [1.8, 0.6]]),
        "beta": 0.5, "horizon": 1, "x_grid": [0.0], "reward_grid": [0.0, 0.9, 1.0]}),
    "config-root-a-list": ("solve-deadline", 1,
                           "config error: config root must be a JSON object", []),
    "unknown-technology-kind": ("solve-deadline", 1,
                                "config error: unknown technology kind 'foo'", {
        "technology": {"kind": "foo"}, "distribution": POINT_1}),
    "unknown-distribution-kind": ("solve-deadline", 1,
                                  "config error: unknown distribution kind 'gamma'", {
        "technology": A_TECH, "distribution": {"kind": "gamma"}}),
    # the oracle reads piecewise frontiers only
    "oracle-insurance-technology": ("oracle", 1,
                                    "config error: this command needs technology kind", {
        "technology": UI_TECH, "beta": 0.5,
        "mechanism": {"x": [1.0], "x1": [1.0]}}),
    "ui-technology-not-an-object": ("ui-schedule", 1, "config error", {
        "technology": 5, "distribution": EXP_8}),
    "mechanism-not-an-object": ("verify", 1, "config error", {
        "technology": A_TECH, "mechanism": 5}),
    # a discount rate off the breakthrough times' scale: exp(-r t) rounds to
    # 1 at every atom (this solved to T = 1.25e300), or underflows at all
    "r-1e-300": ("solve-deadline", 2, RESOLVE, {
        "technology": A_TECH, "r": 1e-300, "distribution": EXP_8}),
    "r-1e300": ("solve-deadline", 2, RESOLVE, {
        "technology": A_TECH, "r": 1e300, "distribution": EXP_8}),
    # non-finite numbers
    "r-infinite": ("solve-deadline", 1, "config error: 'r'", {
        "technology": A_TECH, "r": math.inf, "distribution": POINT_1}),
    "r-nan": ("solve-deadline", 1, "config error: 'r'", {
        "technology": A_TECH, "r": math.nan, "distribution": POINT_1}),
    "w-infinite": ("solve-deadline", 1, "config error: 'w'", {
        "technology": dict(UI_TECH, w=math.inf), "distribution": EXP_8}),
    # a NaN level used to reach front_load and come out as a NaN deadline
    "nan-level": ("verify", 1, "config error: 'levels'", {
        "technology": A_TECH, "mechanism": dict(MECH, levels=[1.0, math.nan]),
        "distribution": POINT_1}),
    # insurance constants that overflow a float used to end in OverflowError
    "ui-peak-overflow": ("solve-deadline", 1, UI_OVERFLOW, {
        "technology": dict(UI_TECH, a=0.999, shadow=0.001), "distribution": EXP_8}),
    "ui-tiny-shadow": ("solve-deadline", 1, UI_OVERFLOW, {
        "technology": dict(UI_TECH, shadow=1e-200), "distribution": EXP_8}),
    "ui-sweep-tiny-shadow": ("ui-sweep", 1, UI_OVERFLOW, {
        "technology": UI_TECH, "shadows": [0.5, 1e-200], "distribution": EXP_8}),
    # a peak utility that underflows to 0 left an empty frontier domain, exit 2
    "ui-peak-underflow": ("solve-deadline", 1, UI_UNDERFLOW, {
        "technology": dict(UI_TECH, a=0.9, b=2, w=1, shadow=1e300),
        "distribution": EXP_8}),
    "ui-sweep-huge-shadow": ("ui-sweep", 1, UI_UNDERFLOW, {
        "technology": dict(UI_TECH, a=0.9), "shadows": [0.5, 1e300],
        "distribution": EXP_8}),
    # f0 = u - shadow u**(1/a) overflows at the domain top 2 u0 once a < ~9.8e-4
    "ui-tiny-a": ("solve-deadline", 1, UI_OVERFLOW, {
        "technology": dict(UI_TECH, a=0.0005), "distribution": EXP_8}),
    # a huge wage puts L* where its consumption (u + L*^b)^(1/a) overflows
    "ui-huge-wage": ("solve-deadline", 1, CONSUMPTION_OVERFLOW, {
        "technology": dict(UI_TECH, w=1e300), "distribution": EXP_8}),
    "ui-wage-overflow": ("solve-deadline", 1, CONSUMPTION_OVERFLOW, {
        "technology": dict(UI_TECH, a=0.99, b=10, w=1e300), "distribution": EXP_8}),
    # L* is about 1e-183 at the domain top; a linear-space labor search read
    # an overflowing slope at L = 1 and exited 1
    "ui-tiny-a-no-conflict": ("solve-deadline", 2, NO_CONFLICT, {
        "technology": dict(UI_TECH, a=0.001, shadow=1e-10),
        "distribution": {"kind": "exponential", "rate": 1.0, "m": 4}}),
    # L* is found, but its consumption (u + L*^b)^(1/a) overflows a float
    "ui-inner-max-value-overflow": ("solve-deadline", 1, CONSUMPTION_OVERFLOW, {
        "technology": dict(UI_TECH, a=0.3, b=2, w=1e300, shadow=0.1),
        "distribution": EXP_8}),
    # finite masses whose sum overflows a float used to end in fsum's OverflowError
    "atom-mass-sum-overflow": ("solve-deadline", 1, MASS_SUM, {
        "technology": A_TECH,
        "distribution": {"kind": "atoms", "atoms": [[1, 1e308], [2, 1e308]]}}),
    # candidate payoffs near 2.5e299 tie at float resolution, and the best
    # one, at T = 0, fails its first-order conditions: that is no solve
    "deadline-foc-unsatisfied": ("solve-deadline", 3,
                                 "solver failure: best deadline T=0 fails", {
        "technology": dict(UI_TECH, b=1e10, w=1e300),
        "distribution": {"kind": "exponential", "rate": 1.0, "m": 4}}),
    # f0 and f1 share no slope on [0, u0]; verify classifies the pair as
    # strictly concave and the path's bracket fails at the domain bottom
    "ui-verify-path-bracket": ("verify", 3, "solver failure: psi(u_star)=-1.109e-01 < 0", {
        "technology": {"kind": "insurance", "a": 0.38, "b": 2.75, "w": 1.91,
                       "shadow": 0.58},
        "r": 2.14, "distribution": EXP_8}),
}


@pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
def test_bad_configs_exit_with_one_line(tmp_path, capsys, name):
    command, code, message, obj = BAD_CONFIGS[name]
    cfg = write_cfg(tmp_path, obj)  # NaN and Infinity written as json.load reads them
    assert main([command, "--config", cfg,
                 "--out", str(tmp_path / "o")]) == code
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


def test_ui_tiny_a_solves(tmp_path):
    # (u + L**b) ** ((1 - a) / a) overflows at L = 1 once u + 1 > ~2.03, but
    # the labor search in log labor never reads there: the solve succeeds
    tech = dict(UI_TECH, a=0.001)
    cfg = write_cfg(tmp_path, {"technology": tech, "distribution": EXP_8})
    out = tmp_path / "o"
    assert main(["solve-deadline", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["foc"]["satisfied"]
    assert report["T"] == pytest.approx(3.5744, abs=1e-4)
    # the reward levels, and the domain top, where L = 1 overflowed
    p = UiPrimitives(a=tech["a"], b=tech["b"], w=tech["w"], shadow=tech["shadow"])
    a, b, w = p.a, p.b, p.w
    with open(out / "mechanism.csv", newline="") as fh:
        levels = [float(row["reward_u"]) for row in csv.DictReader(fh)]
    for u in levels + [2.0 * insurance.ui_constants(p).u0]:
        l_ref = inner_max_reference(a, b, w, u)[0]
        assert labor_error(insurance._inner_max(a, b, w, u)[0], l_ref) <= LABOR_ULPS, u


# ------------------------------------------------------------------ fuzzer ---

# numbers at the edges of what a config can hold, put into numeric fields
EXTREMES = (0, -1, 5e-324, 1e-300, 1e-12, 2, 1e300, 1e308)
FUZZ_SEED = 20261019
FUZZ_DRAWS = 600
FUZZ_ALARM_S = 5
TWO_ATOMS = {"kind": "atoms", "atoms": [[0.5, 0.3], [1.5, 0.7]]}
# one valid config per command and branch; every number in them is
# a fuzz target except the f0 breakpoints
FUZZ_BASES = (
    ("analyze", {"technology": A_TECH, "r": 1.0}),
    # f0 peaking at 0.5 under fixture A's f1 fails two model checks at once
    ("analyze", {"technology": dict(A_TECH, f0=[[0.0, 0.0], [0.5, 0.5], [2.0, 0.2]]),
                 "r": 1.0}),
    ("solve-deadline", {"technology": A_TECH, "r": 1.0, "distribution": EXP_8}),
    ("solve-deadline", {"technology": UI_TECH, "r": 1.0,
                        "distribution": {"kind": "weibull", "shape": 2.0,
                                         "scale": 1.0, "m": 8}}),
    ("solve-euler", {"technology": UI_TECH, "r": 1.0, "distribution": TWO_ATOMS}),
    ("solve-euler", {"technology": dict(UI_TECH, a=0.3, shadow=0.1), "r": 1.0,
                     "distribution": {"kind": "exponential", "rate": 1.0, "m": 4}}),
    ("verify", {"technology": A_TECH, "r": 1.0, "distribution": POINT_1,
                "mechanism": {"grid": [0.0, 0.5, 1.5], "levels": [1.0, 0.9, 0.3],
                              "reward": [0.95, 0.9, 0.8]}}),
    ("verify", {"technology": UI_TECH, "r": 1.0, "distribution": TWO_ATOMS}),
    ("compare-statics", {"technology": UI_TECH, "r": 1.0, "distribution": TWO_ATOMS,
                         "distribution_dag": {"kind": "atoms",
                                              "atoms": [[0.5, 0.7], [1.5, 0.3]]}}),
    ("compare-statics", {"technology": A_TECH, "r": 1.0, "distribution": POINT_1,
                         "distribution_dag": {"kind": "point", "t": 0.5}}),
    ("ui-schedule", {"technology": UI_TECH, "r": 1.0, "solver": "path",
                     "distribution": EXP_8}),
    ("ui-schedule", {"technology": UI_TECH, "r": 1.0, "distribution": EXP_8}),
    ("ui-sweep", {"technology": UI_TECH, "r": 1.0, "shadows": [0.5, 0.2],
                  "distribution": EXP_8}),
    ("oracle", {"technology": A_TECH, "beta": 0.5,
                "mechanism": {"x": [0.8, 0.8, 1], "x1": [1, 0.95, 1]}}),
    ("oracle", {"technology": A_TECH, "beta": 0.5, "horizon": 2,
                "x_grid": [0.8, 0.9, 1.0], "reward_grid": [0.8, 1.0]}),
)


def number_paths(obj, path=()):
    """Key paths of every number in a JSON config, except ``f0``'s."""
    if isinstance(obj, dict):
        items = ((k, v) for k, v in obj.items() if k != "f0")
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if isinstance(obj, (int, float)) else []
    return [p for k, v in items for p in number_paths(v, path + (k,))]


def fuzz_slots(cfg):
    """What one extreme may replace: each number on its own, and each
    column of a list of pairs (all atom masses, say) at once."""
    paths = number_paths(cfg)
    columns = {}
    for p in paths:
        if len(p) >= 2 and isinstance(p[-2], int):
            columns.setdefault(p[:-2] + (p[-1],), []).append(p)
    return [[p] for p in paths] + [c for c in columns.values() if len(c) > 1]


def fuzz_config(rng):
    """``(command, config)``: a base config with one extreme number put
    into each of one to three slots."""
    command, base = rng.choice(FUZZ_BASES)
    cfg = json.loads(json.dumps(base))
    for slot in rng.sample(fuzz_slots(cfg), rng.randint(1, 3)):
        value = rng.choice(EXTREMES)
        for *head, last in slot:
            node = cfg
            for k in head:
                node = node[k]
            node[last] = value
    return command, cfg


def run_fuzzed(tmp_path, capsys, command, cfg):
    """A problem with one run, or None: an exception out of ``main``, a
    run past the alarm, an exit code outside {0, 1, 2, 3}, or stderr
    beyond one line."""
    def alarm(signum, frame):
        raise TimeoutError(f"still running after {FUZZ_ALARM_S} s")

    path = write_cfg(tmp_path, cfg)
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.alarm(FUZZ_ALARM_S)
    try:
        code = main([command, "--config", path, "--out", str(tmp_path / "o")])
    except Exception as e:  # an escaping exception is a traceback on the command line
        return f"{type(e).__name__}: {e}"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
        err = capsys.readouterr().err
    if code not in (0, 1, 2, 3):
        return f"exit code {code}"
    if err.count("\n") > 1 or "Traceback" in err:
        return f"stderr {err!r}"
    return None


def test_fuzzed_configs_end_cleanly(tmp_path, capsys):
    rng = random.Random(FUZZ_SEED)
    problems = []
    for _ in range(FUZZ_DRAWS):
        command, cfg = fuzz_config(rng)
        problem = run_fuzzed(tmp_path, capsys, command, cfg)
        if problem:
            problems.append((command, json.dumps(cfg), problem))
    assert problems == []


# bad command lines: exit 1 with one line, never argparse's exit 2
BAD_FLAGS = {
    "tol-root-not-a-number": ["--tol-root", "abc"],
    "tol-root-nan": ["--tol-root", "nan"],
    "tol-root-negative": ["--tol-root", "-1"],
    "tol-root-infinite": ["--tol-root", "inf"],
    "tol-residual-nan": ["--tol-residual", "nan"],
    "tol-residual-negative": ["--tol-residual", "-1e-8"],
    "unknown-flag": ["--frobnicate"],
}


@pytest.mark.parametrize("name", sorted(BAD_FLAGS))
def test_bad_flags_exit_1_with_one_line(tmp_path, capsys, name):
    cfg = write_cfg(tmp_path, {"technology": A_TECH, "distribution": POINT_1})
    out = tmp_path / "o"
    assert main(["solve-deadline", "--config", cfg, "--out", str(out)]
                + BAD_FLAGS[name]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


def test_missing_config_flag_exits_1(tmp_path, capsys):
    assert main(["analyze", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == "config error: the following arguments are required: --config\n"


def test_zero_tolerance_accepted(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH, "distribution": POINT_1})
    out = tmp_path / "o"
    assert main(["solve-deadline", "--config", cfg, "--out", str(out),
                 "--tol-root", "0", "--tol-residual", "0"]) == 0
    assert read_report(out)["tolerances"] == {"root": 0.0, "residual": 0.0}


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: disclose")


# -------------------------------------------------------------- entry point ---

def test_module_entry_point(tmp_path):
    cfg = write_cfg(tmp_path, {"technology": A_TECH})
    out = tmp_path / "out"
    # the subprocess imports the package this test imported, installed or not
    package_parent = str(Path(disclose.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "disclose.cli", "analyze",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert (out / "report.json").exists()
