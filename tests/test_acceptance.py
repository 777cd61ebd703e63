"""Acceptance suite: one test per promised behavior, at the stated tolerance.

Each test is self-contained and prints a single pass/fail line under
pytest -v. Statistical checks use analytic standard errors at five sigma
with fixed seeds, so they are deterministic.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import born_chain, random_context, random_observable, random_state, unit

import abl_engine
from abl_engine import (
    Observable,
    Projector,
    SelectionContext,
    StateVector,
    ZERO_PROB_TOL,
    abl,
    abl_trivial_reduction,
    basis_state,
    decomposition_check,
    decomposition_counterexample,
    estimate_abl,
    interposition_inequality,
    kastner,
    marginal_with_Q,
    product_rule_check,
    projector_from_span,
    spin_half,
    three_box,
)


def test_three_box_abl_values_are_exact():
    bundle = three_box()
    full = abl(SelectionContext(bundle.pre, bundle.post, bundle.variants["fullQ"]))
    for label in "ABC":
        assert abs(full[label] - 1.0 / 3.0) <= 1e-12
    probe_a = abl(SelectionContext(bundle.pre, bundle.post, bundle.variants["QA"]))
    assert abs(probe_a["A"] - 1.0) <= 1e-12
    assert abs(probe_a["B∪C"]) <= 1e-12


def test_three_box_post_selection_marginals_are_exact():
    bundle = three_box()
    full = SelectionContext(bundle.pre, bundle.post, bundle.variants["fullQ"])
    probe_a = SelectionContext(bundle.pre, bundle.post, bundle.variants["QA"])
    assert abs(marginal_with_Q(full) - 1.0 / 3.0) <= 1e-12
    assert abs(marginal_with_Q(probe_a) - 1.0 / 9.0) <= 1e-12


def _frequencies_match(ctx: SelectionContext, trials: int, seed: int) -> None:
    stats = estimate_abl(ctx, trials, seed)
    analytic = abl(ctx)
    rate = marginal_with_Q(ctx)
    sigma = math.sqrt(rate * (1.0 - rate) / trials)
    assert abs(stats.acceptance_rate - rate) <= 5.0 * sigma + 1e-15
    frequencies = dict(stats.frequencies)
    for label in analytic.labels:
        value = analytic[label]
        err = math.sqrt(value * (1.0 - value) / stats.accepted)
        if err == 0.0:
            assert frequencies[label] == value
        else:
            assert abs(frequencies[label] - value) <= 5.0 * err


def _mc_worthy_context(rng: np.random.Generator, dim: int) -> SelectionContext:
    # keep expected per-outcome counts comfortably above the five sigma
    # Poisson floor: acceptance rate >= 2e-2 and no tiny nonzero branch
    for _ in range(200):
        ctx = random_context(rng, dim, min_marginal=2e-2)
        if all(value == 0.0 or value >= 1e-3 for _, value in abl(ctx).entries):
            return ctx
    raise AssertionError("could not draw a Monte Carlo test context")


def test_monte_carlo_frequencies_match_analytic_values():
    started = time.perf_counter()
    trials = 1_000_000
    bundle = three_box()
    for variant, seed in (("fullQ", 101), ("QA", 102)):
        ctx = SelectionContext(bundle.pre, bundle.post, bundle.variants[variant])
        _frequencies_match(ctx, trials, seed=seed)
    _frequencies_match(spin_half().context, trials, seed=103)
    rng = np.random.default_rng(20260816)
    for index in range(20):
        dim = 2 + (index % 5)
        _frequencies_match(_mc_worthy_context(rng, dim), trials, seed=1000 + index)
    assert time.perf_counter() - started < 60.0


def test_trivial_interposition_reduces_to_born_rule():
    rng = np.random.default_rng(4)
    for index in range(1000):
        dim = 2 + (index % 5)
        state = random_state(rng, dim)
        observable = random_observable(rng, dim)
        reduced = abl_trivial_reduction(state, observable)
        assert reduced.labels == observable.labels
        for label, p in zip(reduced.labels, observable.outcomes):
            direct = born_chain(state.amplitudes, [p.matrix])
            assert abs(reduced[label] - direct) <= 1e-9


def test_interposition_never_lowers_post_selection_probability():
    rng = np.random.default_rng(12)
    violations = 0
    worst_gap = 0.0
    for index in range(10_000):
        dim = 2 + (index % 7)
        pre = random_state(rng, dim)
        post = random_state(rng, dim)
        observable = random_observable(rng, dim)
        p_direct, p_with_q = interposition_inequality(pre, observable, post)
        gap = p_direct - p_with_q
        if gap > 1e-12:
            violations += 1
            worst_gap = max(worst_gap, gap)
    plus_x = unit([1.0, 1.0])
    sigma_z = Observable(
        (
            projector_from_span([basis_state(2, 0)], "up"),
            projector_from_span([basis_state(2, 1)], "down"),
        )
    )
    direct_x, with_z = interposition_inequality(plus_x, sigma_z, plus_x)
    assert violations == 0, (
        f"{violations} of 10000 random draws lowered the post-selection "
        f"probability (worst gap {worst_gap:.6f}); the claimed direction is "
        f"not a theorem. Minimal case: pre and post both +x with sigma_z "
        f"interposed gives direct {direct_x} but with-observable {with_z}."
    )


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(gauss)
    return unitary


def _basis_observable(columns: np.ndarray, labels=None) -> Observable:
    dim = columns.shape[1]
    labels = labels or [f"b{idx}" for idx in range(dim)]
    return Observable(
        tuple(
            projector_from_span([StateVector(columns[:, idx])], labels[idx])
            for idx in range(dim)
        )
    )


def _assert_residual_bound(pre, q, b_obs):
    """decomposition_check's report, its residuals checked against the bound
    README states. Each rhs_j - lhs_j is a sum over the final kets b_i of a
    share of at most 1 of direct_i - with_q_i, the sum of b_i's cross terms
    Re(conj(<b_i|P_j|a>) <b_i|P_k|a>), j != k. So each residual is at most the
    sum of their sizes, plus what the snap removes: (K s_i + 1) 1e-12 per b_i,
    with s_i <= K snapped joint weights."""
    report = decomposition_check(pre, q, b_obs)
    # each b_i up to a phase, which cancels in every cross term
    kets = np.array([np.linalg.eigh(p.matrix)[1][:, -1] for p in b_obs.outcomes]).T
    amp = kets.conj().T @ np.array([p.matrix @ pre.amplitudes for p in q.outcomes]).T
    cross = np.abs((amp.conj()[:, :, None] * amp[:, None, :]).real)
    k = len(q.outcomes)
    snapped = len(b_obs.outcomes) * (k * k + 1) * ZERO_PROB_TOL
    assert report.max_residual <= cross.sum() - np.einsum("ijj->", cross) + snapped
    return report


def test_decomposition_exact_under_conditions_and_fails_in_general():
    rng = np.random.default_rng(6)
    for _ in range(40):
        dim = int(rng.integers(2, 7))
        pre = random_state(rng, dim)
        own = projector_from_span([pre], "same")
        q = Observable((own, Projector(np.eye(dim, dtype=complex) - own.matrix, "else")))
        report = _assert_residual_bound(pre, q, _basis_observable(_random_unitary(rng, dim)))
        assert report.which_condition == "Q_equals_A"
        assert report.max_residual < 1e-9
    for _ in range(40):
        dim = int(rng.integers(3, 7))
        unitary = _random_unitary(rng, dim)
        cut = int(rng.integers(1, dim))
        q = Observable(
            (
                projector_from_span([StateVector(unitary[:, i]) for i in range(cut)], "low"),
                projector_from_span([StateVector(unitary[:, i]) for i in range(cut, dim)], "high"),
            )
        )
        report = _assert_residual_bound(random_state(rng, dim), q, _basis_observable(unitary))
        assert report.which_condition == "Q_equals_B"
        assert report.max_residual < 1e-9
    plus_y = unit([1.0, 1.0j])
    sigma_z = _basis_observable(np.eye(2, dtype=complex), ["up", "down"])
    sigma_x = _basis_observable(
        np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0),
        ["plus", "minus"],
    )
    report = _assert_residual_bound(plus_y, sigma_z, sigma_x)
    assert report.which_condition == "interference_term_zero"
    assert report.max_residual < 1e-9
    case = decomposition_counterexample()
    report = _assert_residual_bound(case.pre, case.q, case.b_obs)
    assert report.which_condition == "none"
    assert not report.conditions_hold
    assert report.max_residual > 0.01
    assert abs(report.max_residual - case.expected_max_residual) <= 1e-12


def test_kastner_weights_rescale_direct_rate_but_are_unnormalized():
    rng = np.random.default_rng(7)
    for index in range(1000):
        dim = 2 + (index % 5)
        ctx = random_context(rng, dim, min_direct=1e-6)
        direct = abs(np.vdot(ctx.pre.amplitudes, ctx.post.amplitudes)) ** 2
        assert abs(kastner(ctx).total() * direct - marginal_with_Q(ctx)) <= 1e-9
    weights = kastner(three_box().context)
    assert abs(weights.total() - 3.0) <= 1e-12


def test_certain_single_probes_violate_the_product_rule():
    bundle = three_box()
    report = product_rule_check(
        bundle.context.pre,
        bundle.context.post,
        bundle.variant("QA"),
        bundle.variant("QB"),
    )
    assert report.x_probability == report.y_probability == 1.0
    assert report.product_norm <= 1e-12
    assert report.product_is_zero
    assert report.violation


def test_abl_is_time_symmetric_and_globally_phase_invariant():
    rng = np.random.default_rng(9)
    for index in range(1000):
        dim = 2 + (index % 5)
        ctx = random_context(rng, dim)
        forward = abl(ctx)
        backward = abl(SelectionContext(ctx.post, ctx.pre, ctx.intervening))
        phased = abl(
            SelectionContext(
                StateVector(ctx.pre.amplitudes * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))),
                StateVector(ctx.post.amplitudes * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))),
                ctx.intervening,
            )
        )
        for label in forward.labels:
            assert abs(forward[label] - backward[label]) <= 1e-9
            assert abs(forward[label] - phased[label]) <= 1e-9


def test_seeded_monte_carlo_reports_are_byte_identical():
    argv = [
        sys.executable,
        "-m",
        "abl_engine",
        "scenario",
        "three-box",
        "--variant",
        "fullQ",
        "--mc",
        "--trials",
        "1000000",
        "--seed",
        "42",
    ]
    # the child imports the same package as this process, from a plain checkout too
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(abl_engine.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    first = subprocess.run(argv, capture_output=True, timeout=300, env=env)
    second = subprocess.run(argv, capture_output=True, timeout=300, env=env)
    assert first.returncode == 0, first.stderr.decode()
    assert second.returncode == 0, second.stderr.decode()
    assert first.stdout
    assert first.stdout == second.stdout
    assert first.stderr == second.stderr == b""
