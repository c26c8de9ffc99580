"""Unemployment-insurance layer: closed-form anchors and schedule identities.

With curvature a=1/2, cost convexity b=2, wage 1 and shadow price 1/2 the
primitives collapse to exact values: the pre-breakthrough peak sits at
promised utility 1 (consumption 1, value 1/2), the post-breakthrough peak
solves 4L(u + L^2) = 1 jointly with u + L^2 = 1, so L = 1/4 and u = 15/16.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter

import pytest

from disclose import (ConfigError, Mechanism, UiPrimitives, frontier, insurance,
                      welfare_sweep)
from disclose.cli import main
from disclose.insurance import schedule, ui_constants

IDENTITY_TOL = 1e-9
SEED = 20261019


# -------------------------------------------------------------- primitives ---

def test_primitives_validation():
    with pytest.raises(ConfigError):
        UiPrimitives(a=1.2, b=2.0, w=1.0, shadow=0.5)
    with pytest.raises(ConfigError):
        UiPrimitives(a=0.5, b=1.0, w=1.0, shadow=0.5)
    with pytest.raises(ConfigError):
        UiPrimitives(a=0.5, b=2.0, w=0.0, shadow=0.5)
    with pytest.raises(ConfigError):
        UiPrimitives(a=0.5, b=2.0, w=1.0, shadow=-0.1)
    # an infinite b or w would take the labor search to L* = inf
    with pytest.raises(ConfigError, match="b=inf"):
        UiPrimitives(a=0.5, b=math.inf, w=1.0, shadow=0.5)
    with pytest.raises(ConfigError, match="w=inf"):
        UiPrimitives(a=0.5, b=2.0, w=math.inf, shadow=0.5)
    # the f0 peak (a/shadow)**(a/(1-a)) or its consumption overflows a
    # float, or f0 = u - shadow u**(1/a) does at the domain top 2 u0
    for a, shadow in ((0.999, 0.001), (0.5, 1e-200), (0.5, 1e-320), (0.0005, 0.5)):
        with pytest.raises(ConfigError, match="overflows"):
            UiPrimitives(a=a, b=2.0, w=1.0, shadow=shadow)


def test_constants_closed_form(ui_prims):
    c = ui_constants(ui_prims)
    assert c.u0 == pytest.approx(1.0, abs=1e-14)
    assert c.c0 == pytest.approx(1.0, abs=1e-14)
    assert c.v0 == pytest.approx(0.5, abs=1e-14)
    assert c.eps_linear == c.v0


def test_frontier_peaks(ui_prims, pair_ui):
    assert pair_ui.u0 == pytest.approx(1.0, abs=1e-10)
    assert pair_ui.u1 == pytest.approx(0.9375, abs=1e-9)
    assert float(pair_ui.f1.value(pair_ui.u1)) == pytest.approx(0.5625, abs=1e-9)
    # the labor that delivers a constant promise u from time 0
    def labor(u):
        return schedule(ui_prims, pair_ui, Mechanism((0.0,), (u,)), ())[0].labor

    assert labor(0.9375) == pytest.approx(0.25, abs=1e-10)
    # promising nothing still makes work worthwhile: 4 L^3 = 1
    assert labor(0.0) == pytest.approx(0.25 ** (1 / 3), abs=1e-10)
    assert pair_ui.u_star == 0.0
    assert pair_ui.f0.u_hi == pytest.approx(2.0, abs=1e-12)


def test_u_star_is_the_domain_bottom_across_primitives():
    # f0' - f1' = (shadow/a) [(u + L*^b)^((1-a)/a) - u^((1-a)/a)] > 0 since
    # L* > 0: the slopes never meet, so u_star is the corner u = 0, which
    # build_frontiers stores without a scan; the scan itself finds it too
    rng = random.Random(SEED)
    for _ in range(15):
        a, b, w = rng.uniform(0.3, 0.8), rng.uniform(1.3, 3.0), rng.uniform(0.5, 3.0)
        for shadow in (0.05, 0.2, 0.5, 0.9):
            pair = insurance.build_frontiers(UiPrimitives(a, b, w, shadow), 1.0)
            assert pair.u_star == 0.0, (a, b, w, shadow)
            assert frontier.u_star(pair.f0, pair.f1) == pair.u_star, (a, b, w, shadow)
            for u in (0.0, 0.25 * pair.u0, pair.u0):
                assert pair.f0.dfn(u) > pair.f1.dfn(u), (a, b, w, shadow, u)


# --------------------------------------------------------------- schedules ---

def test_schedule_identities(ui_prims, pair_ui, dist_exp8):
    from disclose import optimize_deadline
    best = optimize_deadline(pair_ui, dist_exp8)
    rows = schedule(ui_prims, pair_ui, best.mechanism,
                    times=(0.0, best.T / 2, best.T, best.T + 1.0))
    assert len(rows) == 4
    for row in rows:
        assert abs(row.identity_err) <= IDENTITY_TOL
        assert row.benefit == pytest.approx(row.flow_u ** 2, abs=1e-12)
        assert row.net_output == pytest.approx(
            row.labor - row.consumption, abs=1e-12)
    assert rows[0].flow_u == pytest.approx(1.0, abs=1e-12)
    assert rows[0].benefit == pytest.approx(1.0, abs=1e-12)
    # past the deadline the promise collapses to the shared-slope level 0
    assert rows[-1].promise_u == pytest.approx(0.0, abs=1e-12)
    assert rows[-1].labor == pytest.approx(0.25 ** (1 / 3), abs=1e-9)
    # the promise decays, so benefits and consumption fall over time
    assert rows[0].promise_u > rows[1].promise_u > rows[2].promise_u


# ------------------------------------------------------------------ sweep ---

def test_welfare_sweep_direction(ui_prims, dist_exp8):
    rows = welfare_sweep(ui_prims, (0.5, 0.2), dist_exp8, 1.0)
    assert len(rows) == 2
    for row in rows:
        assert row.gain >= -1e-9
        assert row.ratio <= 1.0 + 1e-12
        assert row.gain <= row.gap_bound + 1e-8
        assert row.t_deadline > 0.0
    # a cheaper shadow price flattens f0, so deadlines lose less
    assert rows[1].ratio > rows[0].ratio
    assert rows[0].pi_deadline == pytest.approx(0.530813, abs=1e-5)
    # richer program at shadow 0.2: the peak promise rises to (0.5/0.2)^1
    assert rows[1].u0 == pytest.approx(2.5, abs=1e-12)


def test_sweep_at_a_huge_f0_peak_reads_f0_a_bounded_number_of_times(tmp_path,
                                                                  monkeypatch):
    # u0 = 2.56e6: a chord check on a 1e-4 grid would read f0 ~2.6e10 times
    calls = Counter()
    f0_fns = insurance._f0_fns

    def counted(a, lam):
        fns = f0_fns(a, lam)

        def counter(name, fn):
            def fn_counted(u):
                calls[name] += 1
                return fn(u)
            return fn_counted
        return tuple(map(counter, ("fn", "dfn", "inv_dfn"), fns))

    monkeypatch.setattr(insurance, "_f0_fns", counted)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "technology": {"kind": "insurance", "a": 0.8, "b": 2.0, "w": 1.0,
                       "shadow": 0.02},
        "r": 1.0, "shadows": [0.02],
        "distribution": {"kind": "exponential", "rate": 1.0, "m": 4}}))
    assert main(["ui-sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    # the reward path reads each level off the closed-form f0' inverse, one
    # call per unclamped level, where Brent's method read dfn 602 more times
    assert calls == {"fn": 224, "dfn": 228, "inv_dfn": 20}
