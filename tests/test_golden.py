"""Golden CLI outputs: every report and CSV must stay byte-identical.

Each case runs one CLI command on a fixed config and compares the sha256 of
``report.json`` and of every CSV written next to it against recorded
digests: the first ten from before the deadline, payoff and cdf fast paths
went in, the rest (every command and branch not covered by the first ten)
from before the CLI moved to a single report path.  The four insurance
cases (``solve-euler-ui64``, ``ui-schedule-deadline16``,
``ui-schedule-path16``, ``ui-sweep-m8``) were recorded again when the
labor maximization and the parametric ``f0`` slope inversion moved from
bisection to Brent's method; no output field moved by more than 6.9e-14.
Five were recorded again when the reward path stopped being solved on a
copy of the insurance pair moved up by ``0.05 * u0``: ``analyze-insurance``
(the pair now classifies as a reward path, with no reasons),
``solve-euler-dense16`` and ``solve-euler-ui64`` (no ``shift`` field; the
dense case's CSVs stayed byte-identical), ``ui-schedule-path16`` and
``ui-sweep-m8``; no float moved by more than 8.9e-16.  Three were recorded
again when the terminal level of a smooth pair moved from a bisection that
stopped at ``|psi| <= 1e-9`` to Brent's method run to ``LAM_TOL``:
``solve-euler-ui64`` (levels 1.4e-9, ``terminal_residual`` -9.3e-10 to
3.6e-16), ``ui-schedule-path16`` (levels 5.3e-10, schedule columns at most
1.0e-9) and ``ui-sweep-m8`` (at most 2.2e-16).  The new terminal levels
agree to 1 ulp with a full-resolution bisection of ``psi``.
Four were recorded again when the terminal level came from one search on
``[u_star, u0]`` instead of a 32-step grid and a search in its crossing
cell: ``solve-euler-dense16`` (the piecewise pair's bisection now halves
the band from its ends, not from grid points; levels at most 1.1e-16),
``solve-euler-ui64`` (levels at most 1.0e-15, ``terminal_residual``
6.2e-16), ``ui-schedule-path16`` (schedule columns at most 3.3e-16) and
``ui-sweep-m8`` (at most 2.2e-16).
Seven were recorded again when the deadline search moved from a 256-step
bracket grid to a branch and bound over the breakthrough atoms, and
``solve-deadline-late-cluster`` was added: the grid search returned a
local optimum there (T = 2.13684, payoff 1.0146188), the atom search the
global one (T = 2.72876, payoff 1.0153166).  T moved by at most 5.4e-14 in
``solve-deadline-exp256`` (mechanism columns at most 5.4e-14, ``foc`` at
most 2.5e-17), ``compare-statics-deadline`` (``T`` 4.2e-14, ``T_dag``
5.6e-15), ``ui-sweep-m8`` (``t_deadline`` 3.1e-14, payoff columns at most
2.2e-16), ``verify-classify`` (1.6e-14) and ``ui-schedule-deadline16``
(every field at most 8.9e-16).  In ``solve-deadline-kinked64`` and
``solve-deadline-weibull256`` the right bracket jumps down across zero at
an atom, and T is now that atom's time instead of a bisection end 5.4e-14
(2.0e-14) past it.  The payoff is the same float; ``foc.pi_minus`` moved by
1.7e-3 (3.1e-4), since the left derivative at the atom itself carries the
atom's survival weight, where the old T read the ``f1`` slope left of
``u_star`` that ``KINK_SNAP`` gave the atom's reward; and ``mechanism.csv``
lost the row of the atom 5e-14 before the deadline.  Every other case
stayed byte-identical.
Two were recorded again when the crossing piece of a deadline search with
a parametric ``f1`` moved from bisection with an endpoint rule to Brent's
method: ``ui-schedule-deadline16`` (``T`` and the ``t`` columns 3.1e-15,
every other field at most 1.1e-15) and ``ui-sweep-m8`` (``t_deadline``
6.0e-14; ``report.json`` stayed byte-identical).  ``affine_gap`` became
exact in the same change and moved no output: at ``a = 0.5`` the old grid
held the maximizer.
``verify-explicit-reward`` was recorded again when ``ic_check`` stopped
sampling each cell and decided its tests at the grid points:
``mechanism_ic.time`` went from 0.0625 to 0.0.  The reward 0.95 sits below
the flow 1.0 from t = 0, so the delay incentive starts there; 0.0625 was
the first of eight samples in the cell.  Every other case stayed
byte-identical, ``compare-statics-path`` included.
Three were recorded again when the crossing piece of a deadline search
with a piecewise ``f1`` moved from bisection with an endpoint rule to the
kink event where the bracket turns negative: the bisection stopped where
``KINK_SNAP`` starts, up to 5e-9 before the event.
``compare-statics-deadline`` (``T`` and ``T_dag`` 5.0e-9),
``solve-deadline-exp256`` (``T`` and the ``t`` column 5.0e-9,
``continuation_u`` and ``reward_u`` 3.4e-9, ``payoff`` up 2.3e-12,
``foc.pi_minus`` 2.3e-12, ``foc.pi_plus`` 4.6e-13) and
``solve-deadline-late-cluster`` (``T`` and the ``t`` column 1.04e-9,
``continuation_u`` and ``reward_u`` 1.0e-9, ``payoff`` up 1.2e-13,
``foc.pi_plus`` 1.1e-12, ``foc.pi_minus`` 1.2e-13); the FOC still holds in
each.  Every other case stayed byte-identical.
A change that moves any float in any output by one ulp fails here.

``PYTHONPATH=src python tests/test_golden.py OUT`` writes every case's
config, outputs and exit code to ``OUT/<case>/``.  ``python
tests/test_golden.py --diff OLD NEW`` compares two such trees (say, of two
checkouts) and prints, per case and output file, the largest absolute
difference of each field that moved.  It exits 1 when a field moved by more
than ``MAX_MOVE = 1e-12`` or is ``"changed"`` (a file on one side only, a
new exit code, a non-numeric change), and 0 otherwise.  Any other call (no
argument, ``--help``, another flag) prints a one-line usage, writes
nothing and exits 2.  The bound is fixed, as a larger move in an output is
a bug.  To re-record a case after a change that moves its outputs on
purpose, write both trees, read the ``--diff``, note the moved fields
here, and paste the new digests (``run_case``) into ``GOLDEN``.

The digests were recorded with CPython 3.11 on x86-64 Linux (glibc 2.36
libm).  Another libm may round ``exp``/``log`` differently and so print other
floats from correct code; there the comparison is skipped, and
``tests/test_hotpaths.py`` still checks the fast paths against in-process
references (bit for bit, or within 1e-12 for the Brent inner solves).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import platform
import subprocess
import sys

import pytest

A_TECH = {
    "kind": "piecewise",
    "f0": [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]],
    "f1": [[0.0, 0.6], [0.3, 1.2], [0.8, 1.4], [1.8, 0.6]],
}
# f0 kinked inside the working band [0.3, 1]: the optimizer takes its
# stationary-point scan with a warning
KINKED_TECH = {
    "kind": "piecewise",
    "f0": [[0.0, 0.0], [0.5, 0.6], [1.0, 1.0], [2.0, 0.0]],
    "f1": A_TECH["f1"],
}
UI_TECH = {"kind": "insurance", "a": 0.5, "b": 2.0, "w": 1.0, "shadow": 0.5}
# instance B sampled at 241 breakpoints: a kink inside every triple of the
# 201-point concavity grid, so the pair classifies as strictly concave and
# the CLI takes its reward-path branches
_H = 1.2 / 240
DENSE_B_TECH = {
    "kind": "piecewise",
    "f0": [[i * _H, 2.0 * i * _H - (i * _H) ** 2] for i in range(241)],
    "f1": [[i * _H, 1.45 - 1.5 * (i * _H - 0.7) ** 2] for i in range(241)],
}
# f0 = 2u - u^2 and a steep f1 peaking at 0.54, sampled at u = 0, 0.05,
# ..., 1.2: with these atoms the right bracket turns negative after the
# first atom and rises again at the late cluster, whose stationary point
# pays more than the first
WITNESS_TECH = {
    "kind": "piecewise",
    "f0": [[i / 20, round(2.0 * (i / 20) - (i / 20) ** 2, 6)] for i in range(25)],
    "f1": [[i / 20, round(1.45 - 2.23 * (i / 20 - 0.54) ** 2, 6)] for i in range(25)],
}
WITNESS_ATOMS = [[0.63, 0.32], [2.55, 0.32], [2.63, 0.16], [2.632, 0.2]]
LATE = {"kind": "atoms", "atoms": [[1.0, 0.3], [2.0, 0.7]]}
EARLY = {"kind": "atoms", "atoms": [[1.0, 0.7], [2.0, 0.3]]}
ORACLE_GRID = [0.3, 0.5, 0.8, 0.9, 1]

CASES = {
    "solve-deadline-exp256": ("solve-deadline", {
        "technology": A_TECH, "r": 1.0,
        "distribution": {"kind": "exponential", "m": 256, "rate": 1.0}}),
    "solve-deadline-weibull256": ("solve-deadline", {
        "technology": A_TECH, "r": 0.7,
        "distribution": {"kind": "weibull", "m": 256, "shape": 1.5, "scale": 2.0}}),
    "solve-deadline-kinked64": ("solve-deadline", {
        "technology": KINKED_TECH, "r": 1.0,
        "distribution": {"kind": "exponential", "m": 64, "rate": 0.8}}),
    "solve-deadline-late-cluster": ("solve-deadline", {
        "technology": WITNESS_TECH, "r": 1.38,
        "distribution": {"kind": "atoms", "atoms": WITNESS_ATOMS}}),
    "solve-euler-ui64": ("solve-euler", {
        "technology": UI_TECH, "r": 1.0,
        "distribution": {"kind": "exponential", "m": 64, "rate": 1.0}}),
    "ui-sweep-m8": ("ui-sweep", {
        "technology": UI_TECH, "r": 1.0, "shadows": [0.5, 0.2],
        "distribution": {"kind": "exponential", "m": 8, "rate": 1.0}}),
    "ui-schedule-deadline16": ("ui-schedule", {
        "technology": UI_TECH, "r": 1.0, "solver": "deadline",
        "distribution": {"kind": "weibull", "m": 16, "shape": 2.0, "scale": 1.0}}),
    "verify-classify": ("verify", {
        "technology": A_TECH, "r": 1.0,
        "distribution": {"kind": "weibull", "m": 64, "shape": 0.8, "scale": 1.5}}),
    "verify-derived-mechanism": ("verify", {
        "technology": A_TECH, "r": 1.0,
        "mechanism": {"grid": [0.0, 0.7, 1.9, 3.0], "levels": [1.0, 0.8, 0.5, 0.3]},
        "distribution": {"kind": "exponential", "m": 32, "rate": 1.3}}),
    "verify-explicit-reward": ("verify", {
        "technology": A_TECH, "r": 1.0,
        "mechanism": {"grid": [0.0, 0.5, 1.5], "levels": [1.0, 0.9, 0.3],
                      "reward": [0.95, 0.9, 0.8]},
        "distribution": {"kind": "exponential", "m": 32, "rate": 1.0}}),
    # reward above the f1 domain: the payoff is reported as -infinity
    "verify-off-domain-reward": ("verify", {
        "technology": A_TECH, "r": 1.0,
        "mechanism": {"grid": [0.0, 1.0], "levels": [1.0, 0.3],
                      "reward": [1.9, 0.8]},
        "distribution": {"kind": "exponential", "m": 16, "rate": 1.0}}),
    "analyze-piecewise": ("analyze", {"technology": A_TECH, "r": 1.0}),
    "analyze-insurance": ("analyze", {"technology": UI_TECH, "r": 1.0}),
    # u1 >= u0: failed model checks and a t_underline error in the report
    "analyze-broken": ("analyze", {"technology": {
        "kind": "piecewise", "f0": [[0.0, 0.0], [0.5, 0.5], [2.0, 0.2]],
        "f1": A_TECH["f1"]}}),
    "analyze-dense": ("analyze", {"technology": DENSE_B_TECH, "r": 1.0}),
    "compare-statics-deadline": ("compare-statics", {
        "technology": A_TECH, "r": 1.0,
        "distribution": {"kind": "weibull", "m": 32, "shape": 1.5, "scale": 2.0},
        "distribution_dag": {"kind": "exponential", "m": 32, "rate": 1.0}}),
    # the early law first: the dominance fails and the witness is reported
    "compare-statics-path": ("compare-statics", {
        "technology": DENSE_B_TECH, "r": 1.0,
        "distribution": EARLY, "distribution_dag": LATE}),
    "verify-path": ("verify", {
        "technology": DENSE_B_TECH, "r": 1.0, "distribution": LATE}),
    "oracle-mechanism": ("oracle", {
        "technology": A_TECH, "beta": 0.5,
        "mechanism": {"x": [0.8, 0.8, 1], "x1": [1, 0.95, 1]}}),
    "oracle-scan": ("oracle", {
        "technology": A_TECH, "beta": 0.5, "horizon": 2,
        "x_grid": ORACLE_GRID, "reward_grid": ORACLE_GRID}),
    "ui-schedule-path16": ("ui-schedule", {
        "technology": UI_TECH, "r": 1.0, "solver": "path",
        "distribution": {"kind": "weibull", "m": 16, "shape": 2.0, "scale": 1.0}}),
    "solve-euler-dense16": ("solve-euler", {
        "technology": DENSE_B_TECH, "r": 1.0,
        "distribution": {"kind": "exponential", "m": 16, "rate": 1.0}}),
}

# case -> (exit code, {output file: sha256})
GOLDEN = {
    'solve-deadline-exp256': (0, {
        'mechanism.csv':
            'e04fa3ae1f2197511e3b6a705a5cb5b5188e7af75bdac07bdcea1c5ed3f66186',
        'report.json':
            'e7c5f92b69b8d97d1fc95fdb15f4ec31b6da1f4ea9bb6d04762d4e25754d4b3d',
    }),
    'solve-deadline-kinked64': (0, {
        'mechanism.csv':
            '8a6cdceed03ab3fc0e98c291fe388ee71cda207cbb5b188fab4d942f93e23f10',
        'report.json':
            '63dca6ba9cff7cc8b97858e9b121a09ad030501fac4e123d93081b8c4037f54b',
    }),
    'solve-deadline-late-cluster': (0, {
        'mechanism.csv':
            'ed70535b06ea573e210de6271a9159e47c8642fb4dead5df586e9f70025aa61c',
        'report.json':
            '49d8d928e17a047debf7d71af0aaf2a043ce380ca26bff399e5d1c4a64fe1bf0',
    }),
    'solve-deadline-weibull256': (0, {
        'mechanism.csv':
            'c99e338d79eea2682b75b6c4a36428ce90054b811a766188b0678645a52b3057',
        'report.json':
            '91510f5cd97b3dbdc566c28db4ab6c9407304dc1a7998de77ad4f1510fabaa4b',
    }),
    'solve-euler-ui64': (0, {
        'mechanism.csv':
            '7dc73e8d7f4fd1b1fb63d950c7a1ff24fbca390cf370aa6781ca9314dc60369c',
        'report.json':
            'dd6062e4124afc406634af58b2f711582647044960ae1edd33efeeb4ed5a31d8',
        'residuals.csv':
            'd0e1a897ed87e950f9c05cfd174eabb57ac3230e80ae32cbc687894be57bd6b6',
    }),
    'ui-schedule-deadline16': (0, {
        'mechanism.csv':
            'ce86d69c779c1af88a70be76ac16db98e5075bf5ecbf67d49937526bb8bea521',
        'report.json':
            '34d85a4bf50d9c7b5f454dc0de9b6f4153a3c0f50183fb5e625ae9ff60ca065b',
        'schedule.csv':
            'eb709d0461de875e114d6d8c5835ecc731e08226ae158d181a75583522fb2703',
    }),
    'ui-sweep-m8': (0, {
        'report.json':
            '68d96c7f5fc2a12c2b65ecde1cb77cdd7c81dea07e73c87340e7b6813c0ce75f',
        'sweep.csv':
            '9d296fabbc2de051a9ed6d3f6c64b2149dfe39a70386c44b97927134a4dd90cf',
    }),
    'verify-classify': (0, {
        'report.json':
            '4547b5ac0885412a2e6ab4ee983e7d00ef8c374e39960370d35e5156bc0afc9c',
    }),
    'verify-derived-mechanism': (0, {
        'report.json':
            '3b0e7c21b6611d9b97a0143c23fe2be19415fba128ad5d86f488bc4c80be7cb2',
    }),
    'verify-explicit-reward': (2, {
        'report.json':
            'dadce471a2a880ebb6295e403a5ef8d8b425b19274096efaccb5e8d6bb52da98',
    }),
    'verify-off-domain-reward': (0, {
        'report.json':
            '5850613eb6d6236ec3ae18842394ba560a83ae5056fa6a8b390a44fe06e76704',
    }),
    'analyze-broken': (2, {
        'report.json':
            '32feec7d87164a101559bc0b5d07535d4b3361834fbf7aa20ae04438b11ddb0c',
    }),
    'analyze-dense': (2, {
        'report.json':
            'd62350d63a19a807eb73043245d3995896f6595bce6d9967a8cab2097c6c4a5e',
    }),
    'analyze-insurance': (0, {
        'report.json':
            'c2accb7507fcd5551fc019367546aa6596786dee7ec40cee881557aef461e91d',
    }),
    'analyze-piecewise': (0, {
        'report.json':
            '65366ed26f75f99b6037794c888b7d051407415cd1d9c4545391aec85fe325eb',
    }),
    'compare-statics-deadline': (0, {
        'report.json':
            'bc6d894228092744995377391df70a90a0baa19800519d6be02d05769925b602',
    }),
    'compare-statics-path': (2, {
        'report.json':
            '63f016cc2434054af310f0bfbd5dd964773125e3915679629cd99435e23f1624',
    }),
    'oracle-mechanism': (0, {
        'report.json':
            '1c4c162a3f4585cd149acfb03a3876b2f73f939dfe61f8285cd815443374c0d2',
    }),
    'oracle-scan': (0, {
        'report.json':
            '0120cca34eaf4171dfcaf970aedd1ba2d23e93709b6ea4fc33ef9c699f25f463',
        'undominated.csv':
            'b80fc8bcfffc4f72ef1622e4445a98059ae123fe03c648df31275126142abb0c',
    }),
    'solve-euler-dense16': (0, {
        'mechanism.csv':
            '974ef6f66903cdf9e99fdacbbd4359206b99945a0cd186dec8d167568bcaa1aa',
        'report.json':
            'b6d754c491c33cb59e2584804886b0af7ba7f8e11bea2e5a7828dbec55b58688',
        'residuals.csv':
            '86e28065a3123236e6f9e3a37b29813305c8574fe91c831887226bfcd60a5760',
    }),
    'ui-schedule-path16': (0, {
        'mechanism.csv':
            'e0901a334f7467dbf97756d6aa6c8e9639f084204e1d6b91e18fb85fa2a596f0',
        'report.json':
            'dfc4f17df42db00403918446b263b5f664c05a67c19694978b5cd49a795b9e21',
        'schedule.csv':
            '221167b3f0c871d5b0b8e4b7fa662bdd817966f3a887219eaa4e5fe800001f17',
    }),
    'verify-path': (2, {
        'report.json':
            'dc17eb09138d55eb46227e1efce87734ce058674a896608ada11734eb40f94b8',
    }),
}


def run_case(name: str, tmp_path) -> tuple:
    """Run one case; return its exit code and the digest of every output."""
    from disclose.cli import main  # imported here so --diff needs no package

    command, cfg = CASES[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    return code, digests


RECORDED_ON = ("x86_64", ("glibc", "2.36"))
# largest move of an output field that --diff lets pass
MAX_MOVE = 1e-12


@pytest.mark.skipif((platform.machine(), platform.libc_ver()) != RECORDED_ON,
                    reason="digests recorded on x86-64 glibc 2.36; "
                           "another libm may round exp/log differently")
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_byte_identical(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("args", [[], ["--help"], ["-h"], ["--bogus"],
                                  ["--diff", "OLD"]],
                         ids=["none", "help", "h", "unknown-flag", "diff-one-tree"])
def test_main_without_an_out_dir_prints_usage(args, tmp_path):
    # a flag is never taken for the output directory: one usage line on
    # stderr, exit 2, and nothing written
    proc = subprocess.run([sys.executable, __file__, *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == "" and proc.stderr.startswith("usage: ")
    assert len(proc.stderr.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def output_fields(path) -> dict:
    """``{field: [values]}`` of one output file: a CSV's columns, or the
    leaves of a JSON report under their key path (list indices dropped, so
    the entries of one list field pool together)."""
    text = path.read_text(encoding="utf-8")
    out = {}
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        for row in rows:
            for name, cell in zip(header, row):
                out.setdefault(name, []).append(cell)
        return out

    def walk(v, key):
        if isinstance(v, dict):
            for k, x in v.items():
                walk(x, f"{key}.{k}" if key else k)
        elif isinstance(v, list):
            for x in v:
                walk(x, key)
        else:
            out.setdefault(key, []).append(v)

    walk(json.loads(text), "")
    return out


def moved_fields(old: dict, new: dict) -> dict:
    """Largest absolute difference of each field whose values differ, or
    ``"changed"`` where they are not numbers or their counts differ."""
    moved = {}
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, []), new.get(name, [])
        if a == b:
            continue
        try:
            if len(a) != len(b):
                raise ValueError(name)
            moved[name] = max(abs(float(x) - float(y)) for x, y in zip(a, b))
        except (TypeError, ValueError):
            moved[name] = "changed"
    return moved


def diff_outputs(old_root, new_root) -> list:
    """``(case, file, field, largest move)`` for every field that differs
    between two trees written by this module's ``OUT`` mode; a file on one
    side only, or a different exit code, is a ``"changed"`` field."""
    lines = []
    for case in sorted(CASES):
        old_dir, new_dir = old_root / case, new_root / case
        files = {p.name for d in (old_dir / "out", new_dir / "out")
                 if d.is_dir() for p in d.iterdir()}
        for name in sorted(files | {"code"}):
            paths = [d / name if name == "code" else d / "out" / name
                     for d in (old_dir, new_dir)]
            if not all(p.is_file() for p in paths):
                lines.append((case, name, "(file)", "changed"))
            elif paths[0].read_bytes() != paths[1].read_bytes():
                if name == "code":
                    lines.append((case, name, "(exit code)", "changed"))
                    continue
                old, new = (output_fields(p) for p in paths)
                lines += [(case, name, field, d)
                          for field, d in moved_fields(old, new).items()]
    return lines


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py OUT writes every case to
    # OUT/<case>/ (cfg.json, out/, code); then
    # python tests/test_golden.py --diff OLD NEW prints, per case and file,
    # the largest absolute move of each field that differs between two such
    # trees, and exits 1 if one moved by more than MAX_MOVE or changed
    from pathlib import Path

    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--diff":
        moved = diff_outputs(Path(args[1]), Path(args[2]))
        for case, name, field, d in moved:
            print(f"{case}\t{name}\t{field}\t{d if isinstance(d, str) else f'{d:.2e}'}")
        sys.exit(any(isinstance(d, str) or d > MAX_MOVE for *_, d in moved))
    elif len(args) == 1 and not args[0].startswith("-"):
        for case in sorted(CASES):
            case_dir = Path(args[0]) / case
            case_dir.mkdir(parents=True)
            code, _ = run_case(case, case_dir)
            (case_dir / "code").write_text(f"{code}\n", encoding="utf-8")
    else:  # no argument, --help or any other flag: nothing is written
        print("usage: python tests/test_golden.py OUT | --diff OLD NEW", file=sys.stderr)
        sys.exit(2)
