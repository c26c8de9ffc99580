"""Root location: sign-change bisection, Brent's method, and the grid search
and end clamp the solvers put in front of them.

Every root found here stays bracketed by a sign change, and every search
looks for a down-crossing, f(lo) >= 0 > f(hi); no method here needs a
derivative (never Newton: several of the functions we solve have kinks or
one-sided derivatives).  Bisection is the default.  :func:`brent_down`
(Brent 1973, *Algorithms for Minimization without Derivatives*, ch. 4)
serves the two inner solves of smooth functions, the ``f0`` slope
inversion of a parametric pair and the insurance labor maximization, where
its interpolation steps converge superlinearly; on a step-function slope
it has no such step to take, so piecewise frontiers keep bisection.

:func:`crossing_cells` finds the down-crossing cells of a grid for a
function that is non-increasing between known points where it may jump up
(the breakthrough atoms of a deadline bracket, which is non-increasing
between atoms because ``f1`` is concave, just as the bracket of an affine
``f0`` is non-increasing outright).  It binary-searches each run of grid
cells free of such points, so the cost follows the number of runs, not the
grid size.
"""

from __future__ import annotations

import bisect as _bisect
import sys

from .errors import SolverError

# steps after which a bisection or Brent search stops and returns its estimate
MAX_ITER = 200
EPS = sys.float_info.epsilon


def bisect_bracket(f, lo, hi, *, f_lo=None, f_hi=None, tol_x, tol_f=None):
    """Final bracket ``(lo, hi)`` of a down-crossing: f(lo) >= 0 >= f(hi).

    Halves the bracket, moving ``lo`` to midpoints with f >= 0 and ``hi`` to
    the others, until it is narrower than ``tol_x`` or ``MAX_ITER`` halvings
    are done.  If ``tol_f`` is given and some midpoint has |f| <= tol_f,
    returns ``(mid, mid)``.
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
            return mid, mid
        if f_mid >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo, hi


def bisect_down(f, lo, hi, *, f_lo=None, f_hi=None, tol_x, tol_f=None):
    """Root of ``f`` on [lo, hi] assuming a down-crossing: f(lo) >= 0 >= f(hi).

    Stops when the bracket is narrower than ``tol_x`` or (if ``tol_f`` is
    given) when |f(mid)| <= tol_f.  Returns the midpoint of the final bracket.
    """
    lo, hi = bisect_bracket(f, lo, hi, f_lo=f_lo, f_hi=f_hi, tol_x=tol_x,
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
    for _ in range(MAX_ITER):
        if (fb > 0.0) == (fc > 0.0):  # the sign change moved to [a, b]
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):  # keep b the end with the smaller |f|
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol = 2.0 * EPS * abs(b) + 0.5 * tol_x
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) >= tol and abs(fa) > abs(fb):
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
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
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


def crossing_cells(f, lo, hi, n, *, rises=()):
    """``(f(x_0), f(x_n), cells)`` on the grid ``x_i = lo + (hi - lo) * i / n``:
    every cell ``(a, f(a), b, f(b))`` of two neighbouring grid points with
    ``f(a) >= 0.0 > f(b)``.

    ``f`` must be non-increasing except that it may jump up at the points
    in ``rises``.  A cell ``(x_i, x_{i+1}]`` holding a rise is tested at both
    ends; each run of rise-free cells has at most one crossing, which is
    binary-searched when the run's ends straddle zero.  Every grid point is
    evaluated at most once, so a search costs at most ``n + 1`` evaluations:
    about ``2 + log2 n`` with no rise, and all of them in increasing order
    (the full scan) with a rise at every grid point.  The deadline optimizer
    passes no rise for an affine ``f0`` and the breakthrough atoms for a
    curved one; both rely on ``f1`` being concave.
    """
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    cuts = {0, n}
    for x in rises:
        j = _bisect.bisect_left(xs, x)  # x_{j-1} < x <= x_j
        if 0 < j <= n:
            cuts.update((j - 1, j))
    f_first = fi = f(xs[0])
    i, cells = 0, []
    for j in sorted(cuts)[1:]:
        fj = f(xs[j])
        if fi >= 0.0 > fj:
            a, fa, b, fb = i, fi, j, fj
            while b - a > 1:  # halve the index range, keeping fa >= 0 > fb
                k = (a + b) // 2
                fk = f(xs[k])
                if fk >= 0.0:
                    a, fa = k, fk
                else:
                    b, fb = k, fk
            cells.append((xs[a], fa, xs[b], fb))
        i, fi = j, fj
    return f_first, fi, cells


def clamped_root(f, lo, hi, *, tol_x, root=bisect_down):
    """Root of a non-increasing ``f`` on [lo, hi], clamped to the interval:
    ``lo`` if f(lo) <= 0, else ``hi`` if f(hi) >= 0, else the root that
    ``root`` (:func:`bisect_down` or :func:`brent_down`) finds between."""
    f_lo = f(lo)
    if f_lo <= 0.0:
        return lo
    f_hi = f(hi)
    return hi if f_hi >= 0.0 else root(f, lo, hi, f_lo=f_lo, f_hi=f_hi, tol_x=tol_x)
