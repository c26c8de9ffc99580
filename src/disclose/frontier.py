"""Concave utility-possibility frontiers and the pair the solvers consume.

A frontier maps the agent's (per-unit-time) utility ``u`` to the best flow
value the principal can attain while delivering ``u``.  The model works with
two of them: ``f0`` before a breakthrough has been disclosed and ``f1``
after.  Both are concave with a unique peak, the peaks are in conflict
(``u1 < u0``), and ``f1 >= f0`` pointwise.

Two representations are supported:

* piecewise-linear frontiers given by breakpoints, evaluated with plain
  arithmetic so exact types (``fractions.Fraction``) pass through untouched;
* parametric frontiers given by a callable and its analytic derivative over
  a stated interval, optionally with that derivative's inverse, used by the
  insurance application.

Evaluation outside the effective domain returns the distinguished ``NEG_INF``
sentinel.  ``NEG_INF`` deliberately supports neither arithmetic nor ordering:
a payoff or a ranking that silently absorbed an off-domain value would be a
bug, so the attempt raises ``TypeError``.  One-sided slopes at the domain
boundary use ordinary float infinities (those participate in interval
intersections only, never in sums).
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from functools import cached_property, partial
from operator import neg
from typing import Callable, Optional, Tuple

from .errors import ModelAssumptionError, NotSimple, SolverError
from .numerics import bisect_up, brent_down

INF = float("inf")

# tolerance for treating a query as sitting exactly on a piecewise
# breakpoint when selecting one-sided slopes; breakpoints are assumed to be
# separated by far more than this
KINK_SNAP = 1e-9
# bracket width at which the smooth-pair u_star bisection stops, as a
# fraction of the span it scans, so the search scales with the pair
U_STAR_TOL = 1e-10
# validate_model: grid points of the dominance check, offset of the probes
# beside u_star, and the slack in their strict-maximum comparison
VALIDATE_GRID = 400
GAP_PROBE = 1e-4
GAP_TOL = 1e-12


class _NegInf:
    """Off-domain sentinel.  No arithmetic and no ordering."""

    __slots__ = ()

    def __repr__(self):
        return "NEG_INF"


NEG_INF = _NegInf()


def is_neg_inf(v) -> bool:
    return isinstance(v, _NegInf)


@dataclass(frozen=True)
class PiecewiseFrontier:
    """Concave piecewise-linear frontier defined by its breakpoints.

    Breakpoint coordinates and segment slopes must be finite, abscissae
    strictly increasing and slopes strictly decreasing (strict concavity).
    A zero-slope segment would make the peak non-unique and is rejected.
    """

    points: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        pts = tuple((u, v) for u, v in self.points)
        if len(pts) < 2:
            raise ModelAssumptionError("a frontier needs at least two breakpoints")
        for p in pts:
            if not all(-INF < c < INF for c in p):
                raise ModelAssumptionError(f"breakpoints must be finite, got {p}")
        for (u0, _), (u1, _) in zip(pts, pts[1:]):
            if not u1 > u0:
                raise ModelAssumptionError(
                    f"breakpoint abscissae must be strictly increasing, got {u0} then {u1}")
        slopes = tuple((v1 - v0) / (u1 - u0) for (u0, v0), (u1, v1) in zip(pts, pts[1:]))
        for s in slopes:
            if not -INF < s < INF:
                raise ModelAssumptionError(f"segment slopes must be finite, got {s}")
        for s0, s1 in zip(slopes, slopes[1:]):
            if not s1 < s0:
                raise ModelAssumptionError(
                    f"segment slopes must be strictly decreasing (concavity), got {s0} then {s1}")
        for s in slopes:
            if s == 0:
                raise ModelAssumptionError(
                    "flat segment would make the peak non-unique")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_slopes", slopes)
        object.__setattr__(self, "_us", tuple(u for u, _ in pts))

    @property
    def u_lo(self):
        return self.points[0][0]

    @property
    def u_hi(self):
        return self.points[-1][0]

    def value(self, u):
        us = self._us
        if u < us[0] or u > us[-1]:
            return NEG_INF
        # the segment [u_i, u_{i+1}] holding u: the last one for u_hi (and NaN)
        i = min(_bisect.bisect_right(us, u) - 1, len(us) - 2)
        u_i, v_i = self.points[i]
        return v_i + self._slopes[i] * (u - u_i)

    def derivs(self, u):
        """``(d_plus, d_minus)`` at ``u``: the right and the left slope.

        At the left domain endpoint ``d_minus`` is +inf and at the right
        endpoint ``d_plus`` is -inf, so ``[d_plus, d_minus]`` is the
        supporting-slope interval everywhere.  Off-domain: ``(None, None)``.

        Queries within ``KINK_SNAP`` of a breakpoint are treated as sitting
        on it, so both one-sided slopes of a kink are reported even when the
        query carries roundoff from an upstream solve.  Read off
        :attr:`rank_sides` at :meth:`rank`.
        """
        return self.rank_sides[self.rank(u) + 1]

    def rank(self, u) -> int:
        """Where ``u`` sits, as a rank that never falls as ``u`` rises
        through queries of one type: ``2k`` on (or within ``KINK_SNAP`` of)
        breakpoint ``k``, the lower one winning a tie, ``2k + 1`` strictly
        inside segment ``k``, -1 below the domain and ``2n - 1`` above it
        (``n`` breakpoints), and NaN on the last segment, ``2n - 3``.  The
        breakpoints are compared exactly, whatever their type."""
        us = self._us
        j = _bisect.bisect_left(us, u)
        # on (or within KINK_SNAP of) a breakpoint; the lower one wins a tie
        for k in (j - 1, j):
            if 0 <= k < len(us) and abs(u - us[k]) <= KINK_SNAP:
                return 2 * k
        if u != u:
            return 2 * len(us) - 3
        return 2 * j - 1

    @cached_property
    def rank_sides(self) -> Tuple[Tuple[Optional[object], Optional[object]], ...]:
        """``(d_plus, d_minus)`` at each :meth:`rank` + 1, in the slopes' own
        type: off the domain ``(None, None)``, at a breakpoint the slopes of
        its two segments (``-inf`` right of the last, ``+inf`` left of the
        first), inside a segment its slope twice."""
        s = self._slopes
        sides = [(None, None)]
        for right, left in zip(s, (INF,) + s):  # breakpoint k, then segment k
            sides += [(right, left), (right, right)]
        return (*sides, (-INF, s[-1]), (None, None))

    def level_at_slope(self, y, lo, hi, d_lo, d_hi):
        """The level in ``[lo, hi]`` where the slope falls through ``y``,
        given the right slope ``d_lo`` at ``lo`` and the left slope ``d_hi``
        at ``hi``: ``lo`` when ``y >= d_lo``, ``hi`` when ``y <= d_hi``,
        else the breakpoint where the slope steps from ``>= y`` to ``< y``
        (a target equal to a segment slope goes to that segment's right
        end), read off the slope table by one ``bisect`` with no root
        finder and returned in the breakpoints' own type."""
        if y >= d_lo:
            return lo
        if y <= d_hi:
            return hi
        return self._us[_bisect.bisect_right(self._slopes, -y, key=neg)]

    @cached_property
    def peak(self):
        """``(u, value)`` of the unique maximum (always at a breakpoint)."""
        best = max(self.points, key=lambda p: p[1])
        return (best[0], best[1])


@dataclass(frozen=True)
class ParametricFrontier:
    """Frontier given by a callable ``fn`` and its derivative ``dfn`` on a
    closed interval, finite ``u_lo < u_hi``.  ``inv_dfn``, if given, is the
    inverse of ``dfn`` in closed form (both insurance frontiers carry one).
    :meth:`level_at_slope` is the one place that inverts the slope, and so
    the one reader of ``inv_dfn``: the peak, ``affine_gap``'s chord
    tangency and :func:`euler.inv_deriv_f0` all go through it, as they go
    through :meth:`PiecewiseFrontier.level_at_slope` for a piecewise one."""

    fn: Callable[[float], float]
    u_lo: float
    u_hi: float
    dfn: Callable[[float], float]
    inv_dfn: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not -INF < self.u_lo < self.u_hi < INF:
            raise ModelAssumptionError(
                f"a frontier domain needs finite u_lo < u_hi, got [{self.u_lo}, {self.u_hi}]")

    def value(self, u):
        if u < self.u_lo or u > self.u_hi:
            return NEG_INF
        return self.fn(u)

    def derivs(self, u):
        """``(d_plus, d_minus)`` at ``u``, as :meth:`PiecewiseFrontier.derivs`;
        ``dfn`` gives both sides in the interior and ``fn`` is not called."""
        if u < self.u_lo or u > self.u_hi:
            return (None, None)
        d = self.dfn(u)
        if u == self.u_lo:
            return (d, INF)
        if u == self.u_hi:
            return (-INF, d)
        return (d, d)

    def level_at_slope(self, y, lo, hi, d_lo, d_hi):
        """The level in ``[lo, hi]`` where the slope is ``y``, given the
        slopes ``d_lo = dfn(lo)`` and ``d_hi = dfn(hi)``: ``lo`` when
        ``y >= d_lo``, ``hi`` when ``y <= d_hi``, else ``inv_dfn(y)``
        clamped into ``[lo, hi]`` when the frontier carries it, or the root
        of ``dfn - y`` by :func:`brent_down` to ``1e-13 (hi - lo)``.  So
        ``inv_dfn`` is read only strictly between the end slopes, and the
        search scales with the bracket."""
        if y >= d_lo:
            return lo
        if y <= d_hi:
            return hi
        if self.inv_dfn is not None:
            return min(max(self.inv_dfn(y), lo), hi)
        dfn = self.dfn
        return brent_down(lambda u: dfn(u) - y, lo, hi, f_lo=d_lo - y,
                          f_hi=d_hi - y, tol_x=1e-13 * (hi - lo))

    @cached_property
    def peak(self):
        """``(u, value)`` of the maximum: ``u_lo`` if the slope there is <= 0,
        else the level of slope 0 on the domain (:meth:`level_at_slope`,
        which gives ``u_hi`` if the slope there is >= 0)."""
        lo, hi, dfn = self.u_lo, self.u_hi, self.dfn
        d_lo = dfn(lo)
        if d_lo <= 0.0:
            return (lo, self.fn(lo))
        u = self.level_at_slope(0.0, lo, hi, d_lo, dfn(hi))
        return (u, self.fn(u))


def slope(f, u) -> float:
    """Frontier slope at ``u``, finite side preferred (the two sides agree in
    the smooth interior; only the domain endpoints differ).  Raises
    :class:`NotSimple` when neither side is finite or ``u`` is off-domain
    or NaN.  The NaN check comes first: a piecewise ``derivs`` would place
    a NaN on its last segment, and a parametric ``dfn`` may reject it with
    an error of its own."""
    if u != u:
        raise NotSimple([f"no slope at u={u}"])
    d_plus, d_minus = f.derivs(u)
    if d_plus is not None and math.isfinite(d_plus):
        return d_plus
    if d_minus is not None and math.isfinite(d_minus):
        return d_minus
    raise NotSimple([f"no finite slope at u={u}"])


def slope_reader(f) -> Callable[[float], float]:
    """``u -> slope(f, u)``, without its detours where it can: for a
    parametric ``f``, a level in the domain whose ``dfn`` is finite reads
    ``dfn`` directly (:func:`slope` returns exactly that there), and any
    other level goes through :func:`slope`, so it raises as that does."""
    if not isinstance(f, ParametricFrontier):
        return partial(slope, f)
    lo, hi, dfn = f.u_lo, f.u_hi, f.dfn

    def read(u):
        if lo <= u <= hi:
            d = dfn(u)
            if -INF < d < INF:
                return d
        return slope(f, u)

    return read


def u_star(f0, f1) -> float:
    """Rightmost local maximiser of the gap ``f1 - f0`` on ``[lo, u0]``,
    ``lo`` the bottom of the shared domain: the rightmost ``u`` there where
    ``f0`` and ``f1`` share a non-negative supporting slope, a domain edge
    counting as a supporting slope.

    Inside the domain the two frontiers share a supporting slope at
    ``u_star``.  At an edge they need not: an insurance pair's slopes never meet, as
    ``f0' > f1'`` at every level (see :mod:`insurance`), so its gap falls
    from the bottom of the domain and ``u_star = lo`` is a corner.
    :func:`insurance.build_frontiers` therefore sets that corner itself and
    never runs this scan.

    The non-negativity requirement is what makes the definition match the
    intended object (the local peak of the gap ``f1 - f0``): left of the
    ``f0`` peak all supporting slopes of ``f0`` are non-negative anyway, and
    at the peak itself it discards the spurious intersection that the kink
    of a piecewise-linear ``f0`` would otherwise create where the gap is
    locally *minimal*.

    Only one-sided slopes are read.  Piecewise pairs are scanned
    breakpoint-by-breakpoint right to left (exact; preserves Fraction
    inputs).  Smooth pairs scan a 512-step grid of ``slope(f0) - slope(f1)``
    (read through :func:`slope_reader`) right to left for the first point
    where it is <= 0, then bisect that cell to ``U_STAR_TOL`` times the span
    scanned, so the answer scales with the pair; if the slopes never cross,
    the bottom of the domain is returned.  The bisection returns the end of
    its final bracket where ``f0' - f1' <= 0``, at most half that width from
    its midpoint, because a reward path held at ``u_star`` then has ``f1``
    slopes at or above ``f0'(u_star)``: the backward pass at
    ``lam = u_star`` clamps every level to ``u_star`` with no inversion.
    """
    u0 = f0.peak[0]
    lo = max(f0.u_lo, f1.u_lo)
    cap = min(u0, f0.u_hi, f1.u_hi)
    if cap < lo:
        raise ModelAssumptionError("frontier domains do not overlap below the f0 peak")

    if isinstance(f0, PiecewiseFrontier) and isinstance(f1, PiecewiseFrontier):
        cands = {lo, cap}
        for f in (f0, f1):
            for u, _ in f.points:
                if lo < u < cap:
                    cands.add(u)
        for u in sorted(cands, reverse=True):
            dp0, dm0 = f0.derivs(u)
            dp1, dm1 = f1.derivs(u)
            lo_b = max(dp0, dp1, 0)
            hi_b = min(dm0, dm1)
            if lo_b <= hi_b:
                return u
        raise ModelAssumptionError("no shared supporting slope found")  # pragma: no cover

    d0, d1 = slope_reader(f0), slope_reader(f1)

    def psi(u: float) -> float:
        return d0(u) - d1(u)

    if psi(cap) < 0.0:
        raise ModelAssumptionError(
            "frontiers still diverging at the f0 peak; check the conflict of interest")
    n = 512
    for i in range(n - 1, -1, -1):  # right to left: the first psi <= 0 wins
        a = lo + (cap - lo) * i / n
        if psi(a) <= 0.0:
            return bisect_up(psi, a, lo + (cap - lo) * (i + 1) / n,
                             tol_x=U_STAR_TOL * (cap - lo))
    return lo


def affine_gap(f0, lo, hi) -> float:
    """Largest deviation of ``f0`` above its chord over ``[lo, hi]``.

    The chord connects ``(lo, f0(lo))`` and ``(hi, f0(hi))``.  ``f0`` is
    concave, so its deviation from the chord is concave too, and peaks where
    the slope of ``f0`` falls through the chord's: at the level
    :meth:`level_at_slope` gives for the chord slope, between the right
    slope at ``lo`` and the left slope at ``hi`` (a breakpoint of a
    piecewise ``f0``, the tangency of a parametric one).  The maximum is
    exact: the deviation there when that level is inside the interval, and
    0 when it is an end or ``f0' - chord`` has no sign change.  Zero for an
    affine piece; the value bounds how much the best deadline scheme can
    lose relative to the unrestricted optimum.  A NaN chord or ``f0`` slope
    raises :class:`SolverError`.
    """
    lo = float(lo)
    hi = float(hi)
    if hi <= lo:
        return 0.0
    v_lo = float(f0.value(lo))
    slope = (float(f0.value(hi)) - v_lo) / (hi - lo)
    d_lo, d_hi = f0.derivs(lo)[0], f0.derivs(hi)[1]
    t_lo, t_hi = d_lo - slope, d_hi - slope
    if t_lo != t_lo or t_hi != t_hi:
        raise SolverError(f"affine_gap: NaN slope on [{lo}, {hi}] "
                          f"(chord {slope}, f0' - chord {t_lo} and {t_hi})")
    if not t_lo >= 0.0 >= t_hi:
        return 0.0
    u = f0.level_at_slope(slope, lo, hi, d_lo, d_hi)
    if not lo < u < hi:
        return 0.0
    return max(0.0, float(f0.value(u)) - (v_lo + slope * (u - lo)))


@dataclass(frozen=True)
class TechnologyPair:
    """The two frontiers plus the constants every solver needs.

    ``u0``/``u1`` are the peak agent-utility levels of ``f0``/``f1`` and
    ``u_star`` is the rightmost shared-slope level (see :func:`u_star`).
    Build through :meth:`build` so the derived fields stay consistent; it
    stores them as floats, whatever exact type the breakpoints carry (the
    frontiers themselves stay exact for the discrete oracle).  A caller that
    knows ``u_star`` in closed form constructs the pair directly, as
    :func:`insurance.build_frontiers` does.  Either way a discount rate
    that is not positive and finite raises :class:`ModelAssumptionError`.
    """

    f0: object
    f1: object
    r: float
    u0: float
    u1: float
    u_star: float

    def __post_init__(self):
        if not 0 < self.r < INF:
            raise ModelAssumptionError(
                f"discount rate must be positive and finite, got {self.r}")

    @classmethod
    def build(cls, f0, f1, r) -> "TechnologyPair":
        return cls(f0=f0, f1=f1, r=r, u0=float(f0.peak[0]),
                   u1=float(f1.peak[0]), u_star=float(u_star(f0, f1)))

    @cached_property
    def f0_band(self) -> Tuple[Callable, float, float, float, float]:
        """``(f0.level_at_slope, u_star, u0, slope(f0, u_star),
        slope(f0, u0))``: the bound inversion, the band ``[u_star, u0]`` and
        the ``f0`` slopes at its ends, read once per pair on first use
        (raises :class:`NotSimple` if either slope is infinite), so an
        inversion on the band reads one tuple."""
        return (self.f0.level_at_slope, self.u_star, self.u0,
                slope(self.f0, self.u_star), slope(self.f0, self.u0))


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    witness: Optional[float]
    detail: str


def validate_model(pair: TechnologyPair) -> Tuple[Check, ...]:
    """Grid-check the pair-level model assumptions.

    Returns the checks rather than raising: a saddle or a dominance failure
    is something callers may want to surface verbatim (the CLI turns a
    failed check into exit code 2).
    """
    checks = []
    checks.append(Check(
        "conflict_of_interest", pair.u1 < pair.u0,
        witness=pair.u1, detail=f"u1={pair.u1}, u0={pair.u0}"))

    lo = max(pair.f0.u_lo, pair.f1.u_lo)
    hi = min(pair.f0.u_hi, pair.f1.u_hi)
    dom_ok = True
    dom_witness = None
    lo_f, hi_f = float(lo), float(hi)
    for i in range(VALIDATE_GRID + 1):
        u = lo_f + (hi_f - lo_f) * i / VALIDATE_GRID
        v0 = pair.f0.value(u)
        v1 = pair.f1.value(u)
        if is_neg_inf(v0) or is_neg_inf(v1):
            continue
        if not float(v1) >= float(v0) - 1e-9:
            dom_ok = False
            dom_witness = u
            break
    checks.append(Check("f1_dominates_f0", dom_ok, witness=dom_witness,
                        detail="grid-sampled pointwise dominance"))

    us = pair.u_star
    checks.append(Check(
        "u_star_in_range", lo_f <= us <= pair.u1 + 1e-12,
        witness=us, detail=f"u_star={us}, u1={pair.u1}"))

    # strict local max of the gap at u_star: strictly decreasing just right,
    # not increasing just left (left probe skipped at a domain edge)
    def gap(u):
        v0 = pair.f0.value(u)
        v1 = pair.f1.value(u)
        if is_neg_inf(v0) or is_neg_inf(v1):
            return None
        return float(v1) - float(v0)

    g0 = gap(us)
    g_right = gap(min(us + GAP_PROBE, hi_f))
    g_left = gap(max(us - GAP_PROBE, lo_f)) if us - GAP_PROBE > lo_f else None
    strict_ok = g0 is not None and g_right is not None and g_right < g0 - GAP_TOL
    left_ok = g_left is None or g_left <= g0 + GAP_TOL
    checks.append(Check(
        "u_star_strict_local_max", bool(strict_ok and left_ok), witness=us,
        detail="saddle or flat gap at the shared-slope level" if not (strict_ok and left_ok)
        else "gap strictly falls to the right, does not rise from the left"))

    return tuple(checks)
