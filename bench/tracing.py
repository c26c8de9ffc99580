"""Layer-boundary tracing from outside the package.

The tracer replaces public functions of ``disclose`` with timing wrappers
while a traced request runs and puts the originals back afterwards, so
untraced requests run the unmodified code.  A name is replaced in every
``disclose`` module that holds it (``from .mechanism import payoff`` copies
the function into ``deadline``, ``euler`` and ``cli``), and methods are
replaced on their class.

Three kinds of wrapper:

* span: one record per call ``(id, name, start, end, parent, request,
  counted_s)``; ``parent`` is the enclosing span and ``counted_s`` the time
  of counted calls made directly under it, so self time is derived from the
  records alone (duration minus child spans minus ``counted_s``);
* counted: calls too frequent for a record each (frontier ``derivs``,
  ``cdf``, ``inv_deriv_f0``...) add to a per-request call count and summed
  time;
* root: ``bisect_down``/``bisect_up`` count root finds and evaluations of
  the callable handed to them, and time nothing (their time belongs to the
  callable).  In this code base no span is ever entered below a counted
  call, so counted time and child spans never overlap.

Everything stays in memory; :meth:`Tracer.dump` writes the spans out once
the run ends.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "disclose"
SPAN, COUNTED, ROOT = "span", "counted", "root"

# (module, attribute, key, kind); attribute "Class.method" patches a method
BOUNDARIES = (
    ("cli", "main", "cli.main", SPAN),
    ("deadline", "optimize_deadline", "deadline.optimize_deadline", SPAN),
    ("deadline", "pi_and_derivs", "deadline.pi_and_derivs", SPAN),
    ("deadline", "deadline_payoff", "deadline.deadline_payoff", SPAN),
    ("deadline", "foc_check", "deadline.foc_check", SPAN),
    ("mechanism", "payoff", "mechanism.payoff", SPAN),
    ("mechanism", "continuation_value", "mechanism.continuation_value", COUNTED),
    ("distribution", "BreakthroughDist.cdf", "distribution.cdf", COUNTED),
    ("distribution", "BreakthroughDist.cdf_left", "distribution.cdf", COUNTED),
    ("euler", "solve", "euler.solve", SPAN),
    ("euler", "psi", "euler.psi", SPAN),
    ("euler", "backward_pass", "euler.backward_pass", SPAN),
    ("euler", "inv_deriv_f0", "euler.inv_deriv_f0", COUNTED),
    ("euler", "euler_residuals", "euler.euler_residuals", SPAN),
    ("numerics", "bisect_down", "numerics.root", ROOT),
    ("numerics", "bisect_up", "numerics.root", ROOT),
    ("frontier", "PiecewiseFrontier.value", "frontier.value", COUNTED),
    ("frontier", "PiecewiseFrontier.derivs", "frontier.derivs", COUNTED),
    ("frontier", "ParametricFrontier.value", "frontier.value", COUNTED),
    ("frontier", "ParametricFrontier.derivs", "frontier.derivs", COUNTED),
    ("frontier", "affine_gap", "frontier.affine_gap", SPAN),
    ("frontier", "u_star", "frontier.u_star", SPAN),
    ("insurance", "build_frontiers", "insurance.build_frontiers", SPAN),
    ("insurance", "welfare_sweep", "insurance.welfare_sweep", SPAN),
    ("discrete", "ic_discrete", "discrete.ic_discrete", COUNTED),
    ("discrete", "payoff_vector", "discrete.payoff_vector", COUNTED),
    ("discrete", "undominated_scan", "discrete.undominated_scan", SPAN),
)

# per-layer metrics: name -> unit, in report order
LAYER_METRICS = {
    "cli.self_ms": "ms",
    "deadline.optimize_ms": "ms",
    "deadline.pi_and_derivs_calls": "count",
    "deadline.pi_and_derivs_self_ms": "ms",
    "deadline.payoff_useful_ratio": "ratio",
    "mechanism.payoff_calls": "count",
    "mechanism.payoff_ms": "ms",
    "mechanism.continuation_value_calls": "count",
    "distribution.cdf_calls": "count",
    "distribution.cdf_ms": "ms",
    "euler.solve_ms": "ms",
    "euler.psi_calls": "count",
    "euler.backward_pass_self_ms": "ms",
    "euler.inv_deriv_f0_calls": "count",
    "euler.inv_deriv_f0_ms": "ms",
    "euler.residuals_ms": "ms",
    "numerics.root_calls": "count",
    "numerics.root_evals": "count",
    "numerics.evals_per_root": "ratio",
    "frontier.value_calls": "count",
    "frontier.derivs_calls": "count",
    "frontier.eval_ms": "ms",
    "frontier.affine_gap_ms": "ms",
    "frontier.u_star_ms": "ms",
    "insurance.build_frontiers_ms": "ms",
    "insurance.sweep_self_ms": "ms",
    "discrete.scan_ms": "ms",
    "discrete.ic_calls": "count",
    "discrete.feasible_ratio": "ratio",
    "discrete.payoff_vector_ms": "ms",
    "discrete.prune_self_ms": "ms",
}


class _Frame:
    """An open span: its record id and the time of counted calls made
    directly under it."""

    __slots__ = ("sid", "counted_s")

    def __init__(self, sid):
        self.sid = sid
        self.counted_s = 0.0


class Tracer:
    """Span and counter recorder for one benchmark process.

    ``begin(request)`` installs the wrappers and ``end()`` removes them and
    returns that request's counters: ``{key: [calls, seconds]}``, plus
    ``payoff.computed``/``payoff.useful`` for payoffs computed under
    ``optimize_deadline`` (a payoff counts as useful unless a
    ``pi_and_derivs`` call that is not a ``foc_check`` computed it, because
    the optimizer's bracket search reads only the derivatives).
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self.counters = None
        self._stack = []
        self._depth = defaultdict(int)
        self._open_counted = 0
        self._next_id = 0
        self._skip_root = False
        self._patches = self._plan()

    # ------------------------------------------------------------ patching

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _plan(self):
        """``(owner, attribute, original, wrapper)`` for every place a
        boundary function is reachable under a public name."""
        modules = self._modules()
        by_name = {m.__name__: m for m in modules}
        plan = []
        for mod_name, attr, key, kind in BOUNDARIES:
            owner = by_name[f"{PACKAGE}.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = vars(cls)[meth]
                plan.append((cls, meth, orig, self._wrap(orig, key, kind)))
                continue
            orig = getattr(owner, attr)
            wrapper = self._wrap(orig, key, kind)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if not name.startswith("_") and value is orig:
                        plan.append((m, name, orig, wrapper))
        return plan

    def _install(self, use_wrapper: bool):
        for owner, name, orig, wrapper in self._patches:
            setattr(owner, name, wrapper if use_wrapper else orig)

    def begin(self, request: int):
        self.request = request
        self.counters = defaultdict(lambda: [0, 0.0])
        self._install(True)

    def end(self):
        self._install(False)
        counters, self.counters, self.request = dict(self.counters), None, None
        return counters

    # ------------------------------------------------------------ wrappers

    def _wrap(self, orig, key, kind):
        if kind == SPAN:
            return self._span(orig, key)
        if kind == COUNTED:
            return self._counted(orig, key)
        return self._root(orig, key, up=orig.__name__ == "bisect_up")

    def _span(self, orig, key):
        tr = self
        is_payoff = key == "mechanism.payoff"

        def wrapped(*args, **kwargs):
            stack, depth = tr._stack, tr._depth
            parent = stack[-1].sid if stack else None
            frame = _Frame(tr._next_id)
            tr._next_id += 1
            if is_payoff and depth["deadline.optimize_deadline"]:
                tr.counters["payoff.computed"][0] += 1
                if not depth["deadline.pi_and_derivs"] or depth["deadline.foc_check"]:
                    tr.counters["payoff.useful"][0] += 1
            stack.append(frame)
            depth[key] += 1
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[key] -= 1
                stack.pop()
                tr.spans.append((frame.sid, key, start, end, parent,
                                 tr.request, frame.counted_s))

        return wrapped

    def _counted(self, orig, key):
        tr = self

        def wrapped(*args, **kwargs):
            tr._open_counted += 1
            start = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                tr._open_counted -= 1
                c = tr.counters[key]
                c[0] += 1
                c[1] += elapsed
                # a counted call nested in another is already inside its time
                if not tr._open_counted and tr._stack:
                    tr._stack[-1].counted_s += elapsed

        return wrapped

    def _root(self, orig, key, *, up: bool):
        tr = self

        def wrapped(f, *args, **kwargs):
            if tr._skip_root:
                # bisect_up delegating to bisect_down: one root, not two
                tr._skip_root = False
                return orig(f, *args, **kwargs)
            tr.counters[key][0] += 1
            evals = tr.counters["numerics.evals"]

            def counted(x):
                evals[0] += 1
                return f(x)

            tr._skip_root = up
            try:
                return orig(counted, *args, **kwargs)
            finally:
                tr._skip_root = False

        return wrapped

    # -------------------------------------------------------------- output

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, key, start, end, parent, request, counted_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": key, "start": start,
                                     "end": end, "parent": parent,
                                     "request": request,
                                     "counted_s": counted_s}) + "\n")


def layer_metrics(spans, counters) -> dict:
    """Per-layer metrics of one request from its span records and counters."""
    dur = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    child = defaultdict(float)
    for sid, key, start, end, parent, _, _ in spans:
        child[parent] += end - start
    for sid, key, start, end, parent, _, counted_s in spans:
        calls[key] += 1
        dur[key] += end - start
        self_s[key] += (end - start) - child[sid] - counted_s

    def n(key):
        return counters.get(key, (0, 0.0))[0]

    def ms(key):
        return counters.get(key, (0, 0.0))[1] * 1e3

    def ratio(num, den):
        return num / den if den else 0.0

    roots = n("numerics.root")
    evals = n("numerics.evals")
    return {
        "cli.self_ms": self_s["cli.main"] * 1e3,
        "deadline.optimize_ms": dur["deadline.optimize_deadline"] * 1e3,
        "deadline.pi_and_derivs_calls": calls["deadline.pi_and_derivs"],
        "deadline.pi_and_derivs_self_ms": self_s["deadline.pi_and_derivs"] * 1e3,
        "deadline.payoff_useful_ratio": ratio(n("payoff.useful"), n("payoff.computed")),
        "mechanism.payoff_calls": calls["mechanism.payoff"],
        "mechanism.payoff_ms": dur["mechanism.payoff"] * 1e3,
        "mechanism.continuation_value_calls": n("mechanism.continuation_value"),
        "distribution.cdf_calls": n("distribution.cdf"),
        "distribution.cdf_ms": ms("distribution.cdf"),
        "euler.solve_ms": dur["euler.solve"] * 1e3,
        "euler.psi_calls": calls["euler.psi"],
        "euler.backward_pass_self_ms": self_s["euler.backward_pass"] * 1e3,
        "euler.inv_deriv_f0_calls": n("euler.inv_deriv_f0"),
        "euler.inv_deriv_f0_ms": ms("euler.inv_deriv_f0"),
        "euler.residuals_ms": dur["euler.euler_residuals"] * 1e3,
        "numerics.root_calls": roots,
        "numerics.root_evals": evals,
        "numerics.evals_per_root": ratio(evals, roots),
        "frontier.value_calls": n("frontier.value"),
        "frontier.derivs_calls": n("frontier.derivs"),
        "frontier.eval_ms": ms("frontier.value") + ms("frontier.derivs"),
        "frontier.affine_gap_ms": dur["frontier.affine_gap"] * 1e3,
        "frontier.u_star_ms": dur["frontier.u_star"] * 1e3,
        "insurance.build_frontiers_ms": dur["insurance.build_frontiers"] * 1e3,
        "insurance.sweep_self_ms": self_s["insurance.welfare_sweep"] * 1e3,
        "discrete.scan_ms": dur["discrete.undominated_scan"] * 1e3,
        "discrete.ic_calls": n("discrete.ic_discrete"),
        "discrete.feasible_ratio": ratio(n("discrete.payoff_vector"), n("discrete.ic_discrete")),
        "discrete.payoff_vector_ms": ms("discrete.payoff_vector"),
        "discrete.prune_self_ms": self_s["discrete.undominated_scan"] * 1e3,
    }
