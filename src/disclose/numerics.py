"""Root location: sign-change bisection, the package's one bracketed root
finder, and the grid search and end clamp the solvers put in front of it.

Bisection is used everywhere a root is needed (never Newton: several of the
functions we solve have kinks or one-sided derivatives, and bisection keeps
every result deterministic and bracketed).  Every search here looks for a
down-crossing, f(lo) >= 0 > f(hi).
"""

from __future__ import annotations

from .errors import SolverError

# halvings after which a bisection stops and returns its bracket
MAX_ITER = 200


def bisect_bracket(f, lo, hi, *, f_lo=None, f_hi=None, tol_x=1e-12, tol_f=None):
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


def bisect_down(f, lo, hi, *, f_lo=None, f_hi=None, tol_x=1e-12, tol_f=None):
    """Root of ``f`` on [lo, hi] assuming a down-crossing: f(lo) >= 0 >= f(hi).

    Stops when the bracket is narrower than ``tol_x`` or (if ``tol_f`` is
    given) when |f(mid)| <= tol_f.  Returns the midpoint of the final bracket.
    """
    lo, hi = bisect_bracket(f, lo, hi, f_lo=f_lo, f_hi=f_hi, tol_x=tol_x,
                            tol_f=tol_f)
    return 0.5 * (lo + hi)


def bisect_up(f, lo, hi, *, tol_x=1e-12):
    """Root of ``f`` on [lo, hi] assuming an up-crossing: f(lo) <= 0 <= f(hi)."""
    return bisect_down(lambda x: -f(x), lo, hi, tol_x=tol_x)


def crossing_cells(f, lo, hi, n, *, once):
    """``(f(x_0), f(x_n), cells)`` on the grid ``x_i = lo + (hi - lo) * i / n``,
    each cell ``(a, f(a), b, f(b))`` two neighbouring grid points with
    ``f(a) >= 0.0 > f(b)``.  ``once=False`` evaluates every grid point and
    returns every such cell; ``once=True`` assumes ``f`` is non-increasing
    and binary-searches for its one cell in O(log n) evaluations."""
    xs = [lo + (hi - lo) * i / n for i in range(n + 1)]
    if not once:
        fs = [f(x) for x in xs]
        return fs[0], fs[-1], [(a, fa, b, fb) for a, fa, b, fb
                               in zip(xs, fs, xs[1:], fs[1:]) if fa >= 0.0 > fb]
    f_first, f_last = f(xs[0]), f(xs[n])
    if not f_first >= 0.0 > f_last:
        return f_first, f_last, []
    i, fa, j, fb = 0, f_first, n, f_last
    while j - i > 1:  # halve the index range, keeping fa >= 0 > fb
        k = (i + j) // 2
        fk = f(xs[k])
        if fk >= 0.0:
            i, fa = k, fk
        else:
            j, fb = k, fk
    return f_first, f_last, [(xs[i], fa, xs[j], fb)]


def clamped_root(f, lo, hi, *, tol_x):
    """Root of a non-increasing ``f`` on [lo, hi], clamped to the interval:
    ``lo`` if f(lo) <= 0, else ``hi`` if f(hi) >= 0, else the
    :func:`bisect_down` root."""
    f_lo = f(lo)
    if f_lo <= 0.0:
        return lo
    f_hi = f(hi)
    return hi if f_hi >= 0.0 else bisect_down(f, lo, hi, f_lo=f_lo, f_hi=f_hi, tol_x=tol_x)
