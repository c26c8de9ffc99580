"""Root location: sign-change bisection and Brent's method.

Every root found here stays bracketed by a sign change, and every search
looks for a down-crossing, f(lo) >= 0 > f(hi); no method here needs a
derivative (several of the functions we solve have kinks or one-sided
derivatives).  :func:`brent_down` (Brent 1973, *Algorithms for
Minimization without Derivatives*, ch. 4) serves the solves of smooth
functions: ``frontier.ParametricFrontier.level_at_slope``, the level of a
given slope on a frontier without a closed-form inverse ``inv_dfn`` (its
peak, the point where ``f0`` is parallel to its chord in
``frontier.affine_gap``, and the reward path's ``f0`` levels; the
insurance frontiers invert their slopes in closed form), searched to
``1e-13`` of the bracket it is given, so no caller passes a tolerance;
the ``psi`` root (the terminal level of a reward path) of a parametric
pair; and the crossing piece of a deadline search with a parametric
``f1``.  There its interpolation steps converge superlinearly; on a step
function it has no such step to take, so the ``psi`` root of a piecewise
pair keeps bisection (:func:`bisect_down`), as does the smooth-pair cell
of ``frontier.u_star`` (:func:`bisect_up`, to a width relative to the
span scanned).  Newton's method is used once,
outside this module: the insurance labor maximization
(``insurance._inner_max``) solves a first-order condition that is
increasing and convex in log labor, so Newton's iterates from a
closed-form start at or above the root fall to it without overshooting it.
:func:`bisect_down` is the one bisection loop and returns the midpoint of
its final bracket; :func:`bisect_up` mirrors it.  (A deadline search with
a piecewise ``f1`` and ``PiecewiseFrontier.level_at_slope`` need neither:
each answer is a kink, read off a sorted table.)  The caller passes
``f_lo = f(lo)`` and ``f_hi = f(hi)``: each has read both ends already, to
test for a sign change (``level_at_slope``, the ``psi`` root) or to split
its span (the deadline pieces);
:func:`bisect_up` alone reads ``-f`` at both ends itself.  Ends that do not
straddle zero, a NaN end included, and a NaN from ``f`` raise
:class:`SolverError`.
"""

from __future__ import annotations

import sys

from .errors import SolverError

# steps after which a bisection, Brent or Newton search stops and returns
# its estimate
MAX_ITER = 200
EPS = sys.float_info.epsilon
EPS2 = 2.0 * EPS


def bisect_down(f, lo, hi, *, f_lo, f_hi, tol_x, tol_f=None):
    """Root of ``f`` on [lo, hi] assuming a down-crossing: f(lo) >= 0 >= f(hi).

    Halves the bracket, moving ``lo`` to midpoints with f >= 0 and ``hi`` to
    the others, until it is narrower than ``tol_x`` or ``MAX_ITER`` halvings
    are done, and returns the midpoint of the final bracket.  If ``tol_f``
    is given and some midpoint has |f| <= tol_f, returns that midpoint.
    ``f_lo`` and ``f_hi`` are ``f(lo)`` and ``f(hi)``; a NaN among them, or
    from ``f`` at a midpoint, raises :class:`SolverError`.
    """
    if not (f_lo >= 0.0 and f_hi <= 0.0):
        raise SolverError(
            f"bisection: no down-crossing bracket on [{lo}, {hi}] "
            f"(f(lo)={f_lo}, f(hi)={f_hi})")
    for _ in range(MAX_ITER):
        if hi - lo <= tol_x:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if tol_f is not None and abs(f_mid) <= tol_f:
            return mid
        if f_mid >= 0.0:
            lo = mid
        elif f_mid < 0.0:
            hi = mid
        else:
            raise SolverError(f"bisection: f({mid}) is NaN")
    return 0.5 * (lo + hi)


def brent_down(f, lo, hi, *, f_lo, f_hi, tol_x):
    """Root of ``f`` on [lo, hi] by Brent's method, assuming a down-crossing:
    f(lo) >= 0 >= f(hi).

    Returns ``lo`` or ``hi`` when ``f`` is exactly 0 there, and otherwise
    the end ``b`` of a shrinking sign-change bracket ``[b, c]`` once
    ``|c - b| / 2 <= 2 * EPS * |b| + tol_x / 2`` (or after ``MAX_ITER``
    steps).  Each step takes the inverse quadratic or secant estimate when it
    lands well inside the bracket and shrinks it fast enough, and a bisection
    step otherwise.  A NaN from ``f`` raises :class:`SolverError`.
    """
    if not (f_lo >= 0.0 and f_hi <= 0.0):
        raise SolverError(
            f"brent: no down-crossing bracket on [{lo}, {hi}] "
            f"(f(lo)={f_lo}, f(hi)={f_hi})")
    # b: best estimate; a: previous b; c: the bracket's other end,
    # f(b) and f(c) of opposite signs
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    half_tol_x = 0.5 * tol_x
    for _ in range(MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):  # the sign change moved to [a, b]
            c, fc = a, fa
            d = e = b - a
        afb, afc = abs(fb), abs(fc)
        if afc < afb:  # keep b the end with the smaller |f|
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
            afb = afc
        tol = EPS2 * abs(b) + half_tol_x
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > afb:
            s = fb / fa
            if a == c:  # secant
                p, q = 2.0 * m * s, 1.0 - s
            else:  # inverse quadratic interpolation
                q, t = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - t) - (b - a) * (t - 1.0))
                q = (q - 1.0) * (t - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            # min(3 m q - |tol q|, |e q|), NaN handling included
            bound = 3.0 * m * q - abs(tol * q)
            alt = abs(e * q)
            if alt < bound:
                bound = alt
            if 2.0 * p < bound:
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0.0 else -tol)
        fb = f(b)
        if fb != fb:
            raise SolverError(f"brent: f({b}) is NaN")
    return b


def bisect_up(f, lo, hi, *, tol_x):
    """Root of ``f`` on [lo, hi] assuming an up-crossing: f(lo) <= 0 <= f(hi)."""
    return bisect_down(lambda x: -f(x), lo, hi, f_lo=-f(lo), f_hi=-f(hi),
                       tol_x=tol_x)
