"""Sign-change bisection, the package's one bracketed root finder.

Bisection is used everywhere a root is needed (never Newton: several of the
functions we solve have kinks or one-sided derivatives, and bisection keeps
every result deterministic and bracketed).
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
