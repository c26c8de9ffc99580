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
``ui-sweep-m8``; no float moved by more than 8.9e-16.
A change that moves any float in any output by one ulp fails here.

``PYTHONPATH=src python tests/test_golden.py OUT`` writes every case's
config, outputs and exit code to ``OUT/<case>/``, so the outputs of two
checkouts can be compared with ``diff -r``.

The digests were recorded with CPython 3.11 on x86-64 Linux (glibc 2.36
libm).  Another libm may round ``exp``/``log`` differently and so print other
floats from correct code; there the comparison is skipped, and
``tests/test_hotpaths.py`` still checks the fast paths against in-process
references (bit for bit, or within 1e-12 for the Brent inner solves).
"""

from __future__ import annotations

import hashlib
import json
import platform

import pytest

from disclose.cli import main

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
            '3499cbe6e67e15394e4d640d0faeca9a454c87f305bbd60bb8c05f030cf5704e',
        'report.json':
            'a6d51d269fb78593cff1e63a1f50a767516d10e7f0e979a32c9a795555bc0d7e',
    }),
    'solve-deadline-kinked64': (0, {
        'mechanism.csv':
            '1c4ac71caeca56ab263abfdf85ddca7e7bfe40e9ac0299f9bcda472a5077df76',
        'report.json':
            'acfe8425534f688b7b22b2c4d4b8ff3e0079f86e67a77821f1174448fef7bac0',
    }),
    'solve-deadline-weibull256': (0, {
        'mechanism.csv':
            'a964077c689a33709310d43e436aef2f06fd0c0c37b23b8082fdbfc2f887d1c8',
        'report.json':
            '11ab18ea3a069f7186e455d48f6ff8c70870de1ed890206ac778fa50772ed859',
    }),
    'solve-euler-ui64': (0, {
        'mechanism.csv':
            '9ba9abf2dce0dc03d2333f3dd9c35574af6a62ee2a66d5f302c9a40b824eefa3',
        'report.json':
            '29ecb4eb48faef013503d81366bc0aaec49904597147af0f999d279079850104',
        'residuals.csv':
            '843be7eddd44f5368c814ba5966632a15e4001cc9773cc7c7f4189afa599ad08',
    }),
    'ui-schedule-deadline16': (0, {
        'mechanism.csv':
            'd249b41ba759ad77fb5379b0218a63ff10bc3cb9dbf97752ef722b9063cd34f3',
        'report.json':
            '95abe02c7cdfdc6cbaa9f5f1f8d8ebc8ed95937a1887fae929d85b9ce2c36a23',
        'schedule.csv':
            'fd67131bd3ac053907e42ebf600762a3d144aa1b2f5e36e467115fa481906b0c',
    }),
    'ui-sweep-m8': (0, {
        'report.json':
            'c3369cca5d7536ada3ee78145c6f1bb2030b767119ded1b0679d401ced731742',
        'sweep.csv':
            'e211ff347c2b956e605501d1c72533ac664e48a12012efd6438f13bffc66181e',
    }),
    'verify-classify': (0, {
        'report.json':
            '733471c86846f5e5eaf3f2936d3ae0466f02771d8701ca37ffb7e2d1aed74be9',
    }),
    'verify-derived-mechanism': (0, {
        'report.json':
            '3b0e7c21b6611d9b97a0143c23fe2be19415fba128ad5d86f488bc4c80be7cb2',
    }),
    'verify-explicit-reward': (2, {
        'report.json':
            'af0ecd9065b6901cff99184de3d3dc240c68b923124ca2f2cbd5043c76d147fc',
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
            'f3bdaf4145b0c594bf87f4ff92c0cf87a6eb0d8247021f3f03269832a65ab666',
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
            'ffe62f331f73112ddad95ffdecb588f5ae49a1cfef3cd094df3aa0dcf8eccbcb',
        'report.json':
            '0e686e37293477e6ac6f152251aae67f9fb290040a5d60697e84ffe1353551be',
        'residuals.csv':
            'c79dea64793b4b8d834ce661c40af645babf32382fff76a86b70546cb963ec1a',
    }),
    'ui-schedule-path16': (0, {
        'mechanism.csv':
            '3e0ace869d719cfae81ec0451c352c55e4362d2bee03e3ac10009954e30e6137',
        'report.json':
            '546925a689b6f84ef59e3b55ac743fd29ddc0f031c835d2b11527fa5aed3eb89',
        'schedule.csv':
            '594ade1f6e3d5e865b6f159bd6746425fed595665776ffcba48172ce7f914a36',
    }),
    'verify-path': (2, {
        'report.json':
            'dc17eb09138d55eb46227e1efce87734ce058674a896608ada11734eb40f94b8',
    }),
}


def run_case(name: str, tmp_path) -> tuple:
    """Run one case; return its exit code and the digest of every output."""
    command, cfg = CASES[name]
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(out.iterdir())}
    return code, digests


RECORDED_ON = ("x86_64", ("glibc", "2.36"))


@pytest.mark.skipif((platform.machine(), platform.libc_ver()) != RECORDED_ON,
                    reason="digests recorded on x86-64 glibc 2.36; "
                           "another libm may round exp/log differently")
@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_outputs_byte_identical(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    # PYTHONPATH=src python tests/test_golden.py OUT writes every case to
    # OUT/<case>/ (cfg.json, out/, code); compare two checkouts with diff -r
    import sys
    from pathlib import Path

    if len(sys.argv) != 2:
        sys.exit("usage: python tests/test_golden.py OUT")
    for case in sorted(CASES):
        case_dir = Path(sys.argv[1]) / case
        case_dir.mkdir(parents=True)
        code, _ = run_case(case, case_dir)
        (case_dir / "code").write_text(f"{code}\n", encoding="utf-8")
