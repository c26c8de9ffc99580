"""Root location: sign-change bisection, Brent's method, and an end clamp.

Every root found here stays bracketed by a sign change, and every search
looks for a down-crossing, f(lo) >= 0 > f(hi); no method here needs a
derivative (never Newton: several of the functions we solve have kinks or
one-sided derivatives).  Bisection is the default.  :func:`brent_down`
(Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4)
serves the three solves of smooth functions: the ``f0`` slope inversion
and the ``psi`` root (the terminal level of a reward path) of a parametric
pair, and the insurance labor maximization.  There its interpolation steps
converge superlinearly; on a step function it has no such step to take,
so piecewise frontiers keep bisection for both reward-path solves.
:func:`bisect_bracket` closes each atom-free piece of the deadline search,
whose endpoint choice reads the values at the ends of the final bracket.
:func:`clamped_root` returns an end of the interval when ``f`` has no sign
change on it; ``ParametricFrontier.peak`` uses it.  The reward path's
``f0`` slope inversion applies the same two clamps itself, from band-end
slopes it reads once per pair, and then calls a root finder directly.
"""

from __future__ import annotations

import sys

from .errors import SolverError

# steps after which a bisection or Brent search stops and returns its estimate
MAX_ITER = 200
EPS = sys.float_info.epsilon
EPS2 = 2.0 * EPS


def bisect_bracket(f, lo, hi, *, f_lo=None, f_hi=None, tol_x, tol_f=None):
    """Final bracket ``(lo, f(lo), hi, f(hi))`` of a down-crossing:
    f(lo) >= 0 >= f(hi).

    Halves the bracket, moving ``lo`` to midpoints with f >= 0 and ``hi`` to
    the others, until it is narrower than ``tol_x`` or ``MAX_ITER`` halvings
    are done.  If ``tol_f`` is given and some midpoint has |f| <= tol_f,
    returns ``(mid, f(mid), mid, f(mid))``.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
    if f_lo < 0.0 or f_hi > 0.0:
        raise SolverError(
            f"bisection: no down-crossing bracket on [{lo}, {hi}] "
            f"(f(lo)={f_lo}, f(hi)={f_hi})")
    for _ in range(MAX_ITER):
        if hi - lo <= tol_x:
            break
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if tol_f is not None and abs(f_mid) <= tol_f:
            return mid, f_mid, mid, f_mid
        if f_mid >= 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo, f_lo, hi, f_hi


def bisect_down(f, lo, hi, *, f_lo=None, f_hi=None, tol_x, tol_f=None):
    """Root of ``f`` on [lo, hi] assuming a down-crossing: f(lo) >= 0 >= f(hi).

    Stops when the bracket is narrower than ``tol_x`` or (if ``tol_f`` is
    given) when |f(mid)| <= tol_f.  Returns the midpoint of the final bracket.
    """
    lo, _, hi, _ = bisect_bracket(f, lo, hi, f_lo=f_lo, f_hi=f_hi, tol_x=tol_x,
                                  tol_f=tol_f)
    return 0.5 * (lo + hi)


def brent_down(f, lo, hi, *, f_lo=None, f_hi=None, tol_x):
    """Root of ``f`` on [lo, hi] by Brent's method, assuming a down-crossing:
    f(lo) >= 0 >= f(hi).

    Returns ``lo`` or ``hi`` when ``f`` is exactly 0 there, and otherwise
    the end ``b`` of a shrinking sign-change bracket ``[b, c]`` once
    ``|c - b| / 2 <= 2 * EPS * |b| + tol_x / 2`` (or after ``MAX_ITER``
    steps).  Each step takes the inverse quadratic or secant estimate when it
    lands well inside the bracket and shrinks it fast enough, and a bisection
    step otherwise.  A NaN from ``f`` raises :class:`SolverError`.
    """
    if f_lo is None:
        f_lo = f(lo)
    if f_hi is None:
        f_hi = f(hi)
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
    return bisect_down(lambda x: -f(x), lo, hi, tol_x=tol_x)


def clamped_root(f, lo, hi, *, f_lo=None, f_hi=None, tol_x, root=bisect_down):
    """Root of a non-increasing ``f`` on [lo, hi], clamped to the interval:
    ``lo`` if f(lo) <= 0, else ``hi`` if f(hi) >= 0, else the root that
    ``root`` (:func:`bisect_down` or :func:`brent_down`) finds between.
    ``f_lo``/``f_hi``, when given, stand for f(lo)/f(hi)."""
    if f_lo is None:
        f_lo = f(lo)
    if f_lo <= 0.0:
        return lo
    if f_hi is None:
        f_hi = f(hi)
    return hi if f_hi >= 0.0 else root(f, lo, hi, f_lo=f_lo, f_hi=f_hi, tol_x=tol_x)
