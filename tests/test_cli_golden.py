"""Golden CLI reports: the exact stdout of every command, JSON and CSV.

Each case runs `main` from a fixed working directory on hand-written input
files named relatively, so the `inputs.path` fields and digests are stable,
and compares stdout byte for byte with `tests/golden/<case>.<format>`.
When a report changes on purpose, regenerate the files with
`PYTHONPATH=src python tests/test_cli_golden.py` and review the diff.
"""

import contextlib
import io
import json
import math
import os
import pathlib
import sys
import tempfile

import pytest

from abl_engine.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_R3 = 1.0 / math.sqrt(3.0)
_R2 = 1.0 / math.sqrt(2.0)
_R6 = 1.0 / math.sqrt(6.0)


def _state(*amplitudes):
    return {"dim": len(amplitudes), "amplitudes": [[x, 0.0] for x in amplitudes]}


def _observable(**outcomes):
    dim = len(next(iter(outcomes.values()))[0])
    return {
        "dim": dim,
        "outcomes": [
            {"label": label, "span": [_state(*vec) for vec in span]}
            for label, span in outcomes.items()
        ],
    }


_E = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

INPUT_FILES = {
    "a.json": _state(_R3, _R3, _R3),
    "b.json": _state(_R3, _R3, -_R3),
    "q.json": _observable(A=[_E[0]], B=[_E[1]], C=[_E[2]]),
    "qa.json": _observable(**{"A": [_E[0]], "B∪C": [_E[1], _E[2]]}),
    "qb.json": _observable(**{"B": [_E[1]], "A∪C": [_E[0], _E[2]]}),
    "basis.json": _observable(
        b0=[(_R3, _R3, _R3)], b1=[(_R2, -_R2, 0.0)], b2=[(_R6, _R6, -2 * _R6)]
    ),
}

_AB = ["--pre", "a.json", "--post", "b.json"]

CASES = {
    "abl": ["abl", *_AB, "--observable", "q.json"],
    "kastner": ["kastner", *_AB, "--observable", "q.json"],
    "decomposition": [
        "decomposition", "--pre", "a.json", "--observable", "q.json", "--observable", "basis.json",
    ],
    "inequality": ["inequality", *_AB, "--observable", "q.json"],
    "product-rule": [
        "product-rule", *_AB, "--observable", "qa.json", "--observable", "qb.json",
    ],
    "mc": ["mc", *_AB, "--observable", "q.json", "--trials", "20000", "--seed", "5"],
    "scenario-three-box": ["scenario", "three-box"],
    "scenario-three-box-QA": ["scenario", "three-box", "--variant", "QA"],
    "scenario-three-hole": ["scenario", "three-hole"],
    "scenario-spin-half": ["scenario", "spin-half"],
    "scenario-three-box-mc-seed0": ["scenario", "three-box", "--mc", "--seed", "0"],
    "scenario-three-box-mc-seed7": ["scenario", "three-box", "--mc", "--seed", "7"],
    "scenario-three-box-mc-seed12345": ["scenario", "three-box", "--mc", "--seed", "12345"],
    "scenario-three-box-QA-mc": [
        "scenario", "three-box", "--variant", "QA", "--mc", "--trials", "30000", "--seed", "7",
    ],
}

_ANALYTIC = {"abl", "marginal_with_Q"}
_MC = {
    "trials", "accepted", "acceptance_rate", "seed", "frequencies", "std_errors",
    "analytic", "z_scores",
}
_PRE_POST_OBS = {"pre", "post", "observables"}

# exact key sets of `inputs` and `results`, per command and mode
RESULT_KEYS = {
    "abl": (_PRE_POST_OBS, _ANALYTIC),
    "kastner": (_PRE_POST_OBS, {"weights", "total", "direct_prob", "marginal_with_Q"}),
    "decomposition": (
        {"pre", "observables"},
        {"which_condition", "conditions_hold", "max_residual", "outcomes"},
    ),
    "inequality": (_PRE_POST_OBS, {"p_direct", "p_with_Q", "difference"}),
    "product-rule": (
        _PRE_POST_OBS,
        {
            "x_label", "y_label", "x_probability", "y_probability",
            "product_norm", "product_is_zero", "violation",
        },
    ),
    "mc": (_PRE_POST_OBS, _MC),
    "scenario": ({"scenario"}, _ANALYTIC),
    "scenario --mc": ({"scenario"}, _MC),
}
REPORT_KEYS = {"tool", "version", "command", "inputs", "seed", "trials", "results"}


def _write_inputs(directory: pathlib.Path) -> None:
    for name, payload in INPUT_FILES.items():
        (directory / name).write_text(json.dumps(payload), encoding="utf-8")


def _stdout(capsys, argv) -> str:
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0 and captured.err == "", captured.err
    return captured.out


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_golden(case, fmt, tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    out = _stdout(capsys, CASES[case] + ["--format", fmt])
    golden = (GOLDEN_DIR / f"{case}.{fmt}").read_text(encoding="utf-8")
    assert out == golden


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_key_sets_are_pinned(case, tmp_path, monkeypatch, capsys):
    _write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    argv = CASES[case]
    report = json.loads(_stdout(capsys, argv))
    assert set(report) == REPORT_KEYS
    mode = f"{argv[0]} --mc" if "--mc" in argv else argv[0]
    input_keys, result_keys = RESULT_KEYS[mode]
    assert set(report["inputs"]) == input_keys
    assert set(report["results"]) == result_keys
    for meta in [report["inputs"].get(k) for k in ("pre", "post")] + report["inputs"].get(
        "observables", []
    ):
        assert meta is None or set(meta) == {"path", "sha256"}


def _write_goldens() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        _write_inputs(pathlib.Path(scratch))
        os.chdir(scratch)
        try:
            for case, argv in CASES.items():
                for fmt in ("json", "csv"):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(argv + ["--format", fmt])
                    if code != 0:
                        sys.exit(f"{case} {fmt} exited {code}")
                    target = GOLDEN_DIR / f"{case}.{fmt}"
                    target.write_text(out.getvalue(), encoding="utf-8", newline="")
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    _write_goldens()
