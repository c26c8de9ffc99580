"""Golden CLI outputs: every report and CSV must stay byte-identical.

Each case runs one CLI command on a fixed config and compares the sha256 of
``report.json`` and of every CSV written next to it against recorded
digests.  A change that moves any float in any output by one ulp fails
here.  ``CHANGES.md`` says when each case was re-recorded and which fields
moved, by how much.

``PYTHONPATH=src python tests/test_golden.py OUT`` writes every case's
config, outputs and exit code to ``OUT/<case>/``.  ``python
tests/test_golden.py --diff OLD NEW`` compares two such trees (say, of two
checkouts) and prints, per case and output file, the largest absolute
difference of each field that moved, its entries compared pair by pair.  It
exits 1 when a field moved by more than ``MAX_MOVE = 1e-12`` or is
``"changed"`` (a file on one side only, a new exit code, a non-numeric
change), and 0 otherwise.  Any other call (no
argument, ``--help``, another flag) prints a one-line usage, writes
nothing and exits 2.  The bound is fixed, as a larger move in an output is
a bug.  To re-record a case after a change that moves its outputs on
purpose, write both trees, read the ``--diff``, note the moved fields
in ``CHANGES.md``, and paste the new digests (``run_case``) into
``GOLDEN``.

The digests were recorded with CPython 3.11 on x86-64 Linux (glibc 2.36
libm).  Another libm may round ``exp``/``log`` differently and so print other
floats from correct code; there the comparison is skipped, and
``tests/test_hotpaths.py`` still checks the fast paths against in-process
references (bit for bit, or within 1e-12 for the Brent inner solves and
a few ulps of log labor for the Newton labor search).
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
            'b852cb1187dca89e341ee768f02741f0b08ecbbe6443759e2a848f6ee07200f2',
    }),
    'solve-deadline-kinked64': (0, {
        'mechanism.csv':
            '8a6cdceed03ab3fc0e98c291fe388ee71cda207cbb5b188fab4d942f93e23f10',
        'report.json':
            '47644cbb9cf25027b98e3b7e44ad6d22f05d525c2c4a9af406ac763ba2b84304',
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
            'ddc3269ac2b9f3edff918303271ba2d3aa13c8c857e011556266879d22fec4ef',
    }),
    'solve-euler-ui64': (0, {
        'mechanism.csv':
            '2d044a26590daf90416d2a8c85f177e0f4454574d96456c31ec8f4e8c5cbf7bf',
        'report.json':
            '1963a7c1affb8afe978d825716a57d3ce62553d6dc5232077933f93e5a81cc34',
        'residuals.csv':
            'e64664598e1867b5d7166628cdc52182c19df745911c05ab7ab41d69ca32f29d',
    }),
    'ui-schedule-deadline16': (0, {
        'mechanism.csv':
            'a1b9ae77e6d3dd39f854c878389792b7a1e2881cbb68f586a2c154200d84149b',
        'report.json':
            'bb60378139d441ec7908755a4ec6241827b93b311ca689b84db11e4467c93221',
        'schedule.csv':
            '385887350d84d9e0e3c103e610a6e3a806eced233c737b6b5946be63d643f2fa',
    }),
    'ui-sweep-m8': (0, {
        'report.json':
            'b1af4f440b399d6ede7712f82e715c2b6812d15aed2c0c0d9fa36e2f3ddec883',
        'sweep.csv':
            'a5510a75e694b2ed00f5af9586f5b987de6916c92997b8c04c51a9ec1eab88e8',
    }),
    'verify-classify': (0, {
        'report.json':
            '2b4811601880830f40036d83a2f2d30d051307abbaa4d9df1b1f6d663d543411',
    }),
    'verify-derived-mechanism': (0, {
        'report.json':
            '581ebfe888d3b00970ffa470a78f45677577e5a61923af5bb276d658f6370005',
    }),
    'verify-explicit-reward': (2, {
        'report.json':
            '4b18759d13553a4af6031ae5c9803aff668d02a79a5db8820f7d6c6259187674',
    }),
    'verify-off-domain-reward': (0, {
        'report.json':
            'a06765d959c8293b01bcac55ab19d00687df2c6d9ab19959c2537189506853db',
    }),
    'analyze-broken': (2, {
        'report.json':
            'f88f0c05389697d96128dd5d864f54075a81189efc3c365e1b35875ae69079cb',
    }),
    'analyze-dense': (2, {
        'report.json':
            '87d201c54a7270d172aa500ad37ed8986444ad9d5ddcefd0772b6ab88af26adc',
    }),
    'analyze-insurance': (0, {
        'report.json':
            'e16599b27798658a0b0e95d19c6dffb951e01b739fd90de0bc26c55ded349b23',
    }),
    'analyze-piecewise': (0, {
        'report.json':
            '5e69377a22ad22e5f1421fd8afd8300dd2ded6974cb0e106bc867a5e6113e858',
    }),
    'compare-statics-deadline': (0, {
        'report.json':
            'bc6d894228092744995377391df70a90a0baa19800519d6be02d05769925b602',
    }),
    'compare-statics-path': (2, {
        'report.json':
            'c1bd0ed6d381f05dc2b22a5bf264caa35687ab8913853e462d6e8abaa81514d8',
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
            '027279109cf1f1d7af6a6ee154f8c3759e45aa2b3982988a4f1d9c7a5d841bde',
        'report.json':
            '5350f129838488361bb763b5d129442e2f4175c64b6aa4ec34a7297acce72716',
        'residuals.csv':
            '06059eab30f88b4df16b736e77a865b56fb3c4777f9a5381267d7e77c6a75cca',
    }),
    'ui-schedule-path16': (0, {
        'mechanism.csv':
            '6cbef706d4a3dcd72b8c7850575b291525c31ad5a638473a28a4d0ec19a93b5d',
        'report.json':
            '2d9089ed15d943b73b5f2f8f29f6d8ebe336f9c730ed4bf8e138d16babd12c15',
        'schedule.csv':
            '0748d2a98926c42c69053065d301beb44b5db67f11175affdf720f35e1e4ab1f',
    }),
    'verify-path': (2, {
        'report.json':
            'b81b8240ac6886fab2b2b65225672b1eee4183225768c65b9723e08377a21d6c',
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
    """Largest absolute difference of each field whose values differ, over
    the pairs of entries that differ, or ``"changed"`` where such a pair is
    not two numbers or the counts differ."""
    moved = {}
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name, []), new.get(name, [])
        if a == b:
            continue
        try:
            if len(a) != len(b):
                raise ValueError(name)
            moved[name] = max(abs(float(x) - float(y))
                              for x, y in zip(a, b) if x != y)
        except (TypeError, ValueError):
            moved[name] = "changed"
    return moved


def test_moved_fields_compares_pooled_entries_pair_by_pair():
    # equal entries that are not numbers (the Nones pooled into a report
    # field) leave a float move a float move; unequal ones still change
    old = {"witness": [None, 0.9374999999999716, None], "detail": ["u1=0.93"],
           "flags": [None, 1.0], "rows": [1.0, 2.0]}
    new = {"witness": [None, 0.9375000000000284, None], "detail": ["u1=0.94"],
           "flags": [1.0, None], "rows": [1.0]}
    assert moved_fields(old, new) == {
        "witness": 0.9375000000000284 - 0.9374999999999716,
        "detail": "changed", "flags": "changed", "rows": "changed"}


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
