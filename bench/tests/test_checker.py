"""Self-test of the benchmark's checker: wrong results must count as failed ops.

Run from the repository root with `python3 -m pytest bench/tests -q`.
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import OFF  # noqa: E402


def perturb_marginal(got):
    got["marginal"] += 1e-6


def perturb_abl(got):
    label, value = got["abl"][0]
    got["abl"][0] = (label, value + 1e-6)


def rename_outcome(got):
    _, value = got["abl"][-1]
    got["abl"][-1] = ("q9", value)


class Tampered(workloads.Sweep):
    """A small sweep whose results are altered after the engine returns them."""

    def __init__(self, tamper):
        super().__init__(seed=3, counts={"d3": 2, "d16": 1, "d64": 0})
        self.tamper = tamper

    def check(self, i, specs, results):
        broken = []
        for spec, res in zip(specs, results):
            got = workloads.plain_context(res)
            self.tamper(got)
            broken += workloads.check_context(spec, got)
        return broken


@pytest.fixture(scope="module")
def context():
    spec = workloads.random_context(np.random.default_rng(2024), "d16", 16, 5)
    return spec, workloads.plain_context(workloads.run_context(OFF, spec))


def test_genuine_results_pass(context):
    spec, got = context
    assert workloads.check_context(spec, got) == []


@pytest.mark.parametrize("tamper", [perturb_marginal, perturb_abl, rename_outcome])
def test_altered_result_breaks_an_invariant(context, tamper):
    spec, got = context
    bad = copy.deepcopy(got)
    tamper(bad)
    assert workloads.check_context(spec, bad)


@pytest.mark.parametrize("tamper", [perturb_abl, rename_outcome])
def test_altered_results_raise_the_error_rate(tamper):
    ops, _ = run.measure(Tampered(tamper), seconds=0.01, tracer=None)
    metrics, details = run.end_to_end(Tampered(tamper), ops, [], [0.1])
    assert all(op.broken for op in ops)
    assert details["error_rate"] == 1.0 and metrics["success_rate"] == 0.0


def test_untampered_sweep_has_no_failures():
    ops, _ = run.measure(Tampered(lambda got: None), seconds=0.01, tracer=None)
    assert not any(op.broken for op in ops)


def test_counted_zero_probability_branch_fails():
    check = oracle.Check()
    check.counts("mc", [("A", 5), ("B", 5), ("C", 1)], 11, 33, "ABC", [0.5, 0.5, 0.0], 1 / 3)
    assert check.broken == ["mc[C]: 1 of 11 at p=0.0"]


def test_binomial_check_flags_shifted_counts_only():
    n, p = 1 << 20, 1 / 3
    mean = round(n * p)
    assert oracle.binomial_ok(mean + 4 * int((n * p * (1 - p)) ** 0.5), n, p)
    assert not oracle.binomial_ok(mean + 10 * int((n * p * (1 - p)) ** 0.5), n, p)


class SmallCliMc(workloads.CliMc):
    """cli-mc at 2^16 trials, so that one invocation is quick."""

    mc_trials = 1 << 16


def _retouch_csv(text, row, column, edit):
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[column] = edit(cells[column])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def cli_report():
    w = SmallCliMc(seed=5, root=BENCH.parent, env=run.child_env())
    w.setup()
    proc = w.invoke(w.argv(0))
    assert proc.returncode == 0, proc.stderr
    return w, proc


def test_genuine_cli_report_passes(cli_report):
    w, proc = cli_report
    w.first.clear()
    assert w.check(0, w.argv(0), proc) == []


@pytest.mark.parametrize("row, column, edit", [
    (2, 0, lambda label: "D"),
    (2, 3, lambda analytic: repr(float(analytic) + 1e-6)),
])
def test_altered_cli_report_breaks_an_invariant(cli_report, row, column, edit):
    w, proc = cli_report
    text = _retouch_csv(proc.stdout.decode(), row, column, edit)
    bad = copy.copy(proc)
    bad.stdout = text.encode()
    w.first.clear()  # judge the altered report on its content, not only as a changed repeat
    assert w.check(0, w.argv(0), bad)
