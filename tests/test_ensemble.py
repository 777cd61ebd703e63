"""Monte Carlo verifier: determinism, loop/vector equivalence, statistics."""

import math
import os
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abl_engine import (
    DimensionMismatch,
    EnsembleStats,
    NoAcceptedTrials,
    Observable,
    Projector,
    SelectionContext,
    StateVector,
    ValidationError,
    abl,
    abl_trivial_reduction,
    basis_state,
    born_prob_pure,
    decomposition_check,
    estimate_abl,
    estimate_interposition_effect,
    inner,
    interposition_inequality,
    marginal_with_Q,
    projector_from_span,
    run_trial,
    spin_half,
    three_box,
    trial_stream,
    trivial_observable,
)
from abl_engine import ensemble
from abl_engine.core import _snap
from abl_engine.ensemble import (
    SUB_BATCH_TRIALS,
    TRIALS_PER_WORKER,
    _branch_index,
    _branch_tables,
    _closed_cumulative,
    _range_counts,
    _raw_bound,
    _worker_count,
)
from abl_engine.rules import _transition_weights
from conftest import (
    random_context,
    random_observable,
    random_state,
    snapped_born_context,
    snapped_weight_context,
)


def test_trial_stream_is_deterministic_and_distinct():
    a = trial_stream(9, 4).random(4)
    b = trial_stream(9, 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, trial_stream(9, 5).random(4))
    assert not np.array_equal(a, trial_stream(10, 4).random(4))
    assert not np.array_equal(a, trial_stream(9, 4, stream=1).random(4))


def test_seeds_above_2_63_get_their_own_streams():
    # the generator key must be exact for every valid seed: through float64,
    # neighbouring seeds of 2**63 and above would share one stream
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (2**63, 2**64 - 2):
            assert trial_stream(seed, 0).random() != trial_stream(seed + 1, 0).random()
    # seeds below 2**63 keep their streams
    assert trial_stream(0, 0).random(4).tolist() == [
        0.011546754286331562, 0.24154919656271812, 0.11142585551493822, 0.5644146216071337
    ]
    assert trial_stream(12345, 3, stream=1).random(4).tolist() == [
        0.24527703336328477, 0.6601520760047788, 0.4137238103928904, 0.4219373422775481
    ]


def test_seed_validation():
    with pytest.raises(ValidationError):
        trial_stream(-1, 0)
    with pytest.raises(ValidationError):
        trial_stream(2**64, 0)
    with pytest.raises(ValidationError):
        trial_stream(True, 0)
    with pytest.raises(ValidationError):
        trial_stream(3, -1)
    for kwargs in (
        {"n_observables": -5},
        {"n_observables": 1.5},
        {"trial_index": 1.5},
        {"trial_index": 2**256},  # the counter would wrap onto trial 0's blocks
        {"n_observables": 2**260},
        {"stream": -1},
        {"stream": 2**64},
        {"stream": True},
    ):
        with pytest.raises(ValidationError):
            trial_stream(**{"seed": 0, "trial_index": 3, **kwargs})
    assert trial_stream(0, 0, stream=2**64 - 1).random() != trial_stream(0, 0).random()


def test_closed_cumulative_snaps_and_closes():
    # probabilities are snapped where they are made, as _projections does for
    # the table, and the cumulative keeps the snapped zeros
    c = _closed_cumulative(_snap(np.array([0.0, 0.5, 1e-15, 0.5])))
    assert c[0] == 0.0
    assert c[-1] == 1.0
    assert c[2] == c[1]  # snapped branch adds nothing


def test_accept_bounds_close_the_binary_filter(monkeypatch):
    # each acceptance bound of the table is the raw-draw bound of the first
    # entry of the closed cumulative of {t, 1 - t}, for a branch that passes
    # with t; with no observable the one branch has p = 1, so t is its weight
    rng = np.random.default_rng(5)
    ulp = 2.0**-52
    special = [0.0, 1.0, 1.0 - ulp / 2, 1.0 + ulp, 1.0 - 1e-12, 1.0 - 2e-12, 1e-12, 2e-12, 2.0**-53]
    psi = basis_state(2, 0).amplitudes
    for t in [*special, *rng.random(20)]:
        monkeypatch.setattr(ensemble, "_transition_weights", lambda *args: (t,))
        (bound,) = _branch_tables(psi, None, psi)[3]
        assert bound == _raw_bound(_closed_cumulative(_snap(np.array([t, 1.0 - t])))[0]), t


def test_zero_branches_never_drawn():
    cumulative = _closed_cumulative(_snap(np.array([0.0, 1.0, 0.0])))
    rng = trial_stream(1, 0)
    draws = rng.random(1000)
    picked = np.searchsorted(cumulative, 1.0 - draws, side="left")
    assert np.all(picked == 1)


def test_run_trial_eigenket_is_certain():
    obs = Observable(
        (
            projector_from_span([basis_state(2, 0)], "first"),
            projector_from_span([basis_state(2, 1)], "second"),
        )
    )
    for i in range(200):
        outcome = run_trial(basis_state(2, 0), [obs], basis_state(2, 0), trial_stream(3, i))
        assert outcome.intermediate_labels == ("first",)
        assert outcome.post_selected


def test_run_trial_no_observables_matches_direct_born():
    pre = StateVector.normalized([1.0, 1.0])
    post = basis_state(2, 0)
    hits = sum(
        run_trial(pre, [], post, trial_stream(11, i, n_observables=0)).post_selected
        for i in range(20000)
    )
    rate = hits / 20000
    se = math.sqrt(0.5 * 0.5 / 20000)
    assert abs(rate - 0.5) < 5 * se


def test_run_trial_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        run_trial(basis_state(2, 0), [], basis_state(3, 0), trial_stream(0, 0))


def test_run_trial_never_draws_vanishing_branch():
    bundle = three_box()
    ctx = bundle.context_for("QA")
    labels = set()
    for i in range(500):
        outcome = run_trial(ctx.pre, [ctx.intervening], ctx.post, trial_stream(2, i))
        if outcome.post_selected:
            labels.add(outcome.intermediate_labels[0])
    assert labels == {"A"}


LOOP_TRIALS = 4097
EDGE_WINDOW = 16


def _check_against_trial_loop(monkeypatch, trial_counts, estimate_counts):
    """A loop over the first trials pins the stream layout from its start.
    Each trial within EDGE_WINDOW of three edges is pinned on its own, as the
    difference of two estimates one trial apart: a sub-batch edge; the count
    at which one worker becomes two (on two CPUs or more); and twice that,
    where the boundary between two workers' ranges crosses the first
    worker's sub-batch edge."""
    prefix = np.cumsum([trial_counts(i) for i in range(LOOP_TRIALS)], axis=0)
    windows = [
        range(edge - EDGE_WINDOW, edge + EDGE_WINDOW)
        for edge in (SUB_BATCH_TRIALS, TRIALS_PER_WORKER, 2 * TRIALS_PER_WORKER)
    ]
    expected = [[trial_counts(i) for i in window] for window in windows]
    for threads in ("1", "3"):
        monkeypatch.setenv("ABL_ENGINE_THREADS", threads)
        for trials in (1, LOOP_TRIALS - 2, LOOP_TRIALS - 1, LOOP_TRIALS):
            assert np.array_equal(estimate_counts(trials), prefix[trials - 1])
        for window, outcomes in zip(windows, expected):
            totals = [estimate_counts(n) for n in range(window.start, window.stop + 1)]
            assert np.array_equal(np.diff(totals, axis=0), outcomes)


def _abl_counts(ctx, seed):
    """Per-trial run_trial counts and estimate_abl counts, per outcome label."""
    labels = ctx.intervening.labels

    def trial_counts(i):
        outcome = run_trial(ctx.pre, [ctx.intervening], ctx.post, trial_stream(seed, i))
        hit = outcome.intermediate_labels if outcome.post_selected else ()
        return np.array([label in hit for label in labels], dtype=int)

    def estimate_counts(trials):
        try:
            stats = estimate_abl(ctx, trials, seed)
        except NoAcceptedTrials:
            return np.zeros(len(labels), dtype=int)
        return np.array([count for _, count in stats.counts])

    return trial_counts, estimate_counts


def test_estimate_matches_trial_loop_bit_exactly(monkeypatch):
    # spin-half's table entries, cos^2(pi/8) and sin^2(pi/8), depend on how
    # the amplitude arithmetic rounds in the last bit
    for ctx in (three_box().context, three_box().context_for("QA"), spin_half().context):
        _check_against_trial_loop(monkeypatch, *_abl_counts(ctx, 21))


def test_run_trial_matches_estimate_at_largest_dimension():
    # d = 64 with 47 outcomes: the largest band the benchmark sweeps
    rng = np.random.default_rng(64)
    pre, post = random_state(rng, 64), random_state(rng, 64)
    ctx = SelectionContext(pre, post, random_observable(rng, 64, 47))
    trial_counts, estimate_counts = _abl_counts(ctx, 3)
    expected = [trial_counts(i) for i in range(64)]
    totals = [np.zeros(47, dtype=int)] + [estimate_counts(n) for n in range(1, 65)]
    assert np.array_equal(np.diff(totals, axis=0), expected)


def test_interposition_effect_matches_trial_loop_bit_exactly(monkeypatch):
    ctx = three_box().context
    seed = 19

    def trial_counts(i):
        without = run_trial(ctx.pre, [], ctx.post, trial_stream(seed, i, 0, stream=0))
        with_q = run_trial(ctx.pre, [ctx.intervening], ctx.post, trial_stream(seed, i, 1, stream=1))
        return np.array([without.post_selected, with_q.post_selected], dtype=int)

    def estimate_counts(trials):
        rates = estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, seed)
        return np.array([round(rate * trials) for rate in rates])

    _check_against_trial_loop(monkeypatch, trial_counts, estimate_counts)


def _draws_near(values):
    """Raw draws x = m * 2**-53 for every m within 4 of where u = 1 - x
    crosses one of the values, from either side."""
    scale = 2**53
    centers = set()
    for v in values:
        floor = int(np.floor(v * scale))
        centers.update((floor, scale - floor))
    m = sorted({c + d for c in centers for d in range(-4, 5) if 0 <= c + d < scale})
    x = np.array(m, dtype=np.int64).astype(float) / scale
    assert np.array_equal(x * scale, m)  # exact
    return x


@pytest.mark.parametrize("k", [1, 2, 3, 9, 20])
def test_kernels_reproduce_searchsorted_on_u(k, monkeypatch):
    # k = 20 exceeds MAX_COMPARED_BOUNDS, so both branch searches are covered
    rng = np.random.default_rng(k)
    probs = rng.random(k) * (rng.random(k) < 0.8)
    probs[rng.integers(k)] = 1.0
    cumulative = _closed_cumulative(_snap(probs))
    special = [0.0, 1.0, np.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 2.0**-53, 2.0**-54, 1e-300]
    thresholds = np.where(rng.random(k) < 0.5, rng.choice(special, k), rng.random(k))
    rising, accept_from = _raw_bound(cumulative[:-1][::-1]), _raw_bound(thresholds)

    x, y = _draws_near(cumulative), _draws_near(thresholds)
    picked = np.searchsorted(cumulative, 1.0 - x, side="left")
    assert np.array_equal(np.broadcast_to(_branch_index(x, rising), x.shape), picked)

    # every (x, y) pair as one trial's draws, fed through the counting kernel
    draws = np.zeros((len(x) * len(y), 4))
    draws[:, 0] = np.repeat(x, len(y))
    draws[:, 1] = np.tile(y, len(x))
    picked = np.repeat(picked, len(y))
    accepted = 1.0 - draws[:, 1] <= thresholds[picked]
    expected = np.bincount(picked[accepted], minlength=k)
    monkeypatch.setattr(ensemble, "_range_draws", lambda *args: iter([draws]))
    counts = _range_counts(0, 0, 1, rising, accept_from, 0, len(draws))
    assert np.array_equal(counts, expected)

    # no observable: no branch bounds, and column 0 decides the post-selection
    for t in [*special, *thresholds]:
        column = _draws_near([t])
        direct = np.zeros((len(column), 4))
        direct[:, 0] = column
        monkeypatch.setattr(ensemble, "_range_draws", lambda *args: iter([direct]))
        hits = _range_counts(0, 0, 0, np.empty(0), _raw_bound([t]), 0, len(column))
        assert np.array_equal(hits, [np.count_nonzero(1.0 - column <= t)])


class _Draws:
    """Stands in for a generator: random() returns the given draws in order."""

    def __init__(self, *draws):
        self.draws = iter(draws)

    def random(self):
        return next(self.draws)


@pytest.mark.parametrize("ctx", [three_box().context, spin_half().context])
def test_run_trial_reproduces_searchsorted_on_u(ctx):
    pre, post = ctx.pre.amplitudes, ctx.post.amplitudes
    _, probs, _, _ = _branch_tables(pre, ctx.intervening, post)
    cumulative = _closed_cumulative(probs)
    weights = _transition_weights(pre, ctx.intervening, post)
    thresholds = [
        _closed_cumulative(_snap(np.array([w / p, 1.0 - w / p])))[0] for w, p in zip(weights, probs)
    ]
    for x in _draws_near(cumulative):
        k = np.searchsorted(cumulative, 1.0 - x, side="left")
        for y in _draws_near(thresholds):
            outcome = run_trial(ctx.pre, [ctx.intervening], ctx.post, _Draws(x, y))
            assert outcome.intermediate_labels == (ctx.intervening.labels[k],)
            assert outcome.post_selected == (1.0 - y <= thresholds[k])


# The exact law of the sampler. A draw is x = m * 2**-53 with m uniform on
# [0, 2**53), and every bound the kernels compare it with is a multiple of
# 2**-53, so P(x < bound) = bound exactly: the chance that a trial takes
# branch k and passes the post-selection is a dyadic rational read off the
# tables without a single draw.

# |law_k - abl_k * sum(law)| in units of 2**-53: the branch's two bounds and
# its acceptance bound each lose less than one unit to their floors, plus the
# rounding of the cumulative sum. Dividing by sum(law), the acceptance rate,
# scales the same bound up for law_k / sum(law).
LAW_ULPS = 4


def _exact_law(ctx):
    _, _, rising, accept_from = _branch_tables(
        ctx.pre.amplitudes, ctx.intervening, ctx.post.amplitudes
    )
    rising = [Fraction(b) for b in rising]
    accept_from = [Fraction(b) for b in accept_from]
    assert all((b * 2**53).denominator == 1 for b in rising + accept_from)
    # the branch is the number of rising bounds above x, so branch j owns
    # [edges[k - 1 - j], edges[k - j]); acceptance needs x >= its bound
    edges = [Fraction(0), *rising, Fraction(1)]
    k = len(accept_from)
    return [(edges[k - j] - edges[k - 1 - j]) * (1 - a) for j, a in enumerate(accept_from)]


def _assert_law_is_abl(ctx):
    law = _exact_law(ctx)
    total = sum(law)
    for weight, (label, value) in zip(law, abl(ctx).entries):
        assert (weight == 0) == (value == 0.0), label
        assert abs(weight / total - Fraction(value)) <= LAW_ULPS * Fraction(1, 2**53) / total, label


LAW_CONTEXTS = {
    **{f"three-box-{name}": three_box().context_for(name) for name in three_box().variant_names},
    "spin-half": spin_half().context,
    "snapped-weight": snapped_weight_context(),
    "snapped-born": snapped_born_context(),
}


@pytest.mark.parametrize("name", LAW_CONTEXTS)
def test_sampler_law_is_abl(name):
    _assert_law_is_abl(LAW_CONTEXTS[name])


@pytest.mark.parametrize("name", ["snapped-weight", "snapped-born"])
def test_born_values_are_zero_exactly_where_the_table_never_draws(name):
    # Born weights are snapped where they are made, so the one-time values
    # agree with the branch probabilities the sampler draws from
    ctx = LAW_CONTEXTS[name]
    pre, z = ctx.pre, ctx.intervening  # the basis observable of d = 2
    _, probs, _, _ = _branch_tables(pre.amplitudes, z, ctx.post.amplitudes)
    never_drawn = [p == 0.0 for p in probs]
    assert never_drawn == [name == "snapped-born", False]
    kets = [basis_state(2, k) for k in range(2)]
    assert [born_prob_pure(ket, pre) == 0.0 for ket in kets] == never_drawn
    assert [interposition_inequality(ket, trivial_observable(2), pre)[0] for ket in kets] == [
        born_prob_pure(ket, pre) for ket in kets
    ]
    assert [value == 0.0 for _, value in abl_trivial_reduction(pre, z).entries] == never_drawn
    x_basis = Observable(
        tuple(projector_from_span([StateVector.normalized([1.0, s])], f"x{s}") for s in (1, -1))
    )
    lhs = [row.lhs for row in decomposition_check(pre, z, x_basis).outcomes]
    assert [value == 0.0 for value in lhs] == never_drawn


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_sampler_law_is_abl_on_random_contexts(seed, dim):
    _assert_law_is_abl(random_context(np.random.default_rng(seed), dim))


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    # computes the count only; never starts the threads
    cpus = os.cpu_count() or 1
    monkeypatch.setenv("ABL_ENGINE_THREADS", "100000")
    assert _worker_count(10**9) == cpus
    assert _worker_count(1) == 1
    assert _worker_count(TRIALS_PER_WORKER) == 1
    assert _worker_count(TRIALS_PER_WORKER + 1) == min(cpus, 2)
    monkeypatch.setenv("ABL_ENGINE_THREADS", "1")
    assert _worker_count(10**9) == 1
    monkeypatch.setenv("ABL_ENGINE_THREADS", "0")
    assert _worker_count(10**9) == min(cpus, 8)


def test_estimate_memory_does_not_grow_with_trials(monkeypatch):
    # drawing 2**16 trials' draws at once peaks near 4 MiB of draws and
    # temporaries. The warm-up call takes the one-time costs out of the
    # measurement: numpy's lazy random-module import and this thread's
    # 512 KiB draw buffer.
    monkeypatch.setenv("ABL_ENGINE_THREADS", "1")
    ctx = three_box().context
    estimate_abl(ctx, 2**10, 6)
    tracemalloc.start()
    try:
        estimate_abl(ctx, 2**20, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two workers")
def test_two_worker_estimate_reuses_the_calling_threads_buffer(monkeypatch):
    # the calling thread counts worker 0's range with the draw buffer the
    # warm-up left it, so only worker 1 makes a 512 KiB buffer; when the pool
    # ran both workers, each made one and the peak was 1.76 MiB
    monkeypatch.setenv("ABL_ENGINE_THREADS", "2")
    ctx = three_box().context
    estimate_abl(ctx, 2**20, 6)
    tracemalloc.start()
    try:
        estimate_abl(ctx, 2**20, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20


def test_estimate_is_reproducible():
    ctx = three_box().context
    first = estimate_abl(ctx, 30000, 99)
    second = estimate_abl(ctx, 30000, 99)
    assert first.frequencies == second.frequencies
    assert first.accepted == second.accepted
    third = estimate_abl(ctx, 30000, 100)
    assert third.frequencies != first.frequencies


def test_estimate_independent_of_thread_count():
    ctx = three_box().context
    previous = os.environ.get("ABL_ENGINE_THREADS")
    try:
        os.environ["ABL_ENGINE_THREADS"] = "1"
        serial = estimate_abl(ctx, 150001, 5)
        os.environ["ABL_ENGINE_THREADS"] = "5"
        threaded = estimate_abl(ctx, 150001, 5)
    finally:
        if previous is None:
            os.environ.pop("ABL_ENGINE_THREADS", None)
        else:
            os.environ["ABL_ENGINE_THREADS"] = previous
    assert serial.frequencies == threaded.frequencies
    assert serial.accepted == threaded.accepted


def test_thread_env_var_validation():
    previous = os.environ.get("ABL_ENGINE_THREADS")
    try:
        for value in ("many", "1.5", "-2", str(ensemble.MAX_TRIALS + 1)):
            os.environ["ABL_ENGINE_THREADS"] = value
            with pytest.raises(ValidationError, match="^ABL_ENGINE_THREADS must be"):
                estimate_abl(three_box().context, 10, 0)
    finally:
        if previous is None:
            os.environ.pop("ABL_ENGINE_THREADS", None)
        else:
            os.environ["ABL_ENGINE_THREADS"] = previous


def test_estimate_converges_to_abl():
    ctx = three_box().context
    stats = estimate_abl(ctx, 10**5, 8)
    analytic = abl(ctx)
    for label in analytic.labels:
        assert abs(stats.frequency(label) - analytic[label]) <= 5 * stats.std_error(label)
    marginal = marginal_with_Q(ctx)
    se = math.sqrt(marginal * (1 - marginal) / stats.trials)
    assert abs(stats.acceptance_rate - marginal) <= 5 * se


def test_estimate_certainty_is_exact():
    stats = estimate_abl(three_box().context_for("QA"), 10**5, 13)
    assert stats.frequency("A") == 1.0
    assert stats.frequency("B∪C") == 0.0
    assert abs(stats.acceptance_rate - 1.0 / 9.0) < 5 * math.sqrt((1 / 9) * (8 / 9) / 10**5)


def test_estimate_q_equals_a_gives_frequency_one():
    rng = np.random.default_rng(67)
    from conftest import random_state

    a = random_state(rng, 3)
    pa = projector_from_span([a], "mine")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "other")
    post = random_state(rng, 3)
    ctx = SelectionContext(a, post, Observable((pa, rest)))
    stats = estimate_abl(ctx, 20000, 3)
    assert stats.frequency("mine") == 1.0


def test_no_accepted_trials():
    # post-selection rate is about 2.5e-5 here; 100 trials almost surely miss
    # it, and the seed is fixed, so the outcome is frozen
    tiny = 1e-2
    up_c = StateVector([math.cos(tiny / 2), math.sin(tiny / 2)])
    down_c = StateVector([math.sin(tiny / 2), -math.cos(tiny / 2)])
    obs = Observable(
        (
            Projector(np.outer(up_c.amplitudes, up_c.amplitudes.conj()), "up"),
            Projector(np.outer(down_c.amplitudes, down_c.amplitudes.conj()), "down"),
        )
    )
    ctx = SelectionContext(basis_state(2, 0), basis_state(2, 1), obs)
    with pytest.raises(NoAcceptedTrials):
        estimate_abl(ctx, 100, 0)


def test_trial_count_is_checked_before_any_work(monkeypatch):
    class Started(Exception):
        pass

    def no_work(*args):
        raise Started

    monkeypatch.setattr(ensemble, "_map_ranges", no_work)
    ctx = three_box().context
    for trials in (10**20, ensemble.MAX_TRIALS + 1):
        with pytest.raises(ValidationError):
            estimate_abl(ctx, trials, 0)
        with pytest.raises(ValidationError):
            estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, 0)
    # the interposed pass's tables are checked before the direct pass samples
    with pytest.raises(DimensionMismatch):
        estimate_interposition_effect(
            ctx.pre, spin_half().context.intervening, ctx.post, 2**22, 1
        )
    with pytest.raises(Started):
        estimate_abl(ctx, ensemble.MAX_TRIALS, 0)


def test_estimate_validation():
    ctx = three_box().context
    with pytest.raises(ValidationError):
        estimate_abl(ctx, 0, 1)
    with pytest.raises(ValidationError):
        estimate_abl(ctx, 10, -1)
    for trials, seed in ((10.0, 1), (True, 1), (10, 1.5), (10, True), (10, 2**64)):
        with pytest.raises(ValidationError):
            estimate_abl(ctx, trials, seed)
        with pytest.raises(ValidationError):
            estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, seed)


def test_interposition_effect_three_box():
    bundle = three_box()
    ctx = bundle.context
    rate_without, rate_with = estimate_interposition_effect(
        ctx.pre, ctx.intervening, ctx.post, 10**6, 17
    )
    se = 5 * math.sqrt(0.25 / 10**6)
    assert abs(rate_without - 1.0 / 9.0) < 5 * math.sqrt((1 / 9) * (8 / 9) / 10**6)
    assert abs(rate_with - 1.0 / 3.0) < 5 * math.sqrt((1 / 3) * (2 / 3) / 10**6)
    assert rate_with > rate_without + se  # genuinely raised here


def test_interposition_effect_trivial_observable():
    rng = np.random.default_rng(71)
    from conftest import random_state

    pre, post = random_state(rng, 3), random_state(rng, 3)
    rate_without, rate_with = estimate_interposition_effect(
        pre, trivial_observable(3), post, 200000, 23
    )
    p = abs(inner(pre, post)) ** 2
    se = math.sqrt(p * (1 - p) / 200000)
    assert abs(rate_without - rate_with) < 7 * se


def test_interposition_effect_matches_analytic_random_instance():
    rng = np.random.default_rng(73)
    ctx = random_context(rng, 3, min_marginal=0.05, min_direct=0.05)
    rate_without, rate_with = estimate_interposition_effect(
        ctx.pre, ctx.intervening, ctx.post, 300000, 29
    )
    p_direct = abs(inner(ctx.pre, ctx.post)) ** 2
    p_with = marginal_with_Q(ctx)
    assert abs(rate_without - p_direct) < 5 * math.sqrt(p_direct * (1 - p_direct) / 300000)
    assert abs(rate_with - p_with) < 5 * math.sqrt(p_with * (1 - p_with) / 300000)


def test_chaining_two_observables_matches_path_enumeration():
    # a = +z, measure sigma_x then sigma_z, post-select +x; oracle is the
    # brute-force sum over all four outcome paths
    pre = basis_state(2, 0)
    post = StateVector.normalized([1.0, 1.0])
    sx = Observable(
        (
            projector_from_span([StateVector.normalized([1.0, 1.0])], "x+"),
            projector_from_span([StateVector.normalized([1.0, -1.0])], "x-"),
        )
    )
    sz = Observable(
        (
            projector_from_span([basis_state(2, 0)], "z+"),
            projector_from_span([basis_state(2, 1)], "z-"),
        )
    )

    trials, seed = 40000, 31
    joint: dict = {}
    accepted = 0
    for i in range(trials):
        outcome = run_trial(pre, [sx, sz], post, trial_stream(seed, i, n_observables=2))
        if outcome.post_selected:
            accepted += 1
            joint[outcome.intermediate_labels] = joint.get(outcome.intermediate_labels, 0) + 1

    # analytic path weights: |<x_i|a>|^2 |<z_j|x_i>|^2 |<b|z_j>|^2
    paths = {}
    for px in sx.outcomes:
        for pz in sz.outcomes:
            amp = (
                np.trace(px.matrix @ np.outer(pre.amplitudes, pre.amplitudes.conj())).real
                * np.trace(pz.matrix @ px.matrix).real
                * np.trace(np.outer(post.amplitudes, post.amplitudes.conj()) @ pz.matrix).real
            )
            paths[(px.label, pz.label)] = amp
    total = sum(paths.values())
    for path, weight in paths.items():
        expected = weight / total
        freq = joint.get(path, 0) / accepted
        se = math.sqrt(max(expected * (1 - expected), 1e-12) / accepted)
        assert abs(freq - expected) < 5 * se


def test_ensemble_stats_validation():
    # the record holds counts; every other value is derived from them
    stats = EnsembleStats(10, (("a", 3), ("b", 1), ("c", 0)), 1)
    assert stats.accepted == 4
    assert stats.acceptance_rate == 0.4
    assert stats.frequencies == (("a", 0.75), ("b", 0.25), ("c", 0.0))
    # sqrt(3/4 * 1/4 / 4) = sqrt(3) / 8, correctly rounded either way
    assert stats.std_errors == (("a", math.sqrt(3) / 8), ("b", math.sqrt(3) / 8), ("c", 0.0))
    assert stats.frequency("b") == 0.25
    assert stats.std_error("c") == 0.0
    certain = EnsembleStats(7, (("a", 7),), 2)
    assert (certain.frequencies, certain.std_errors) == ((("a", 1.0),), (("a", 0.0),))
    # no accepted trial: the same typed error as estimate_abl, not 0 / 0
    empty = EnsembleStats(10, (("a", 0),), 1)
    assert (empty.accepted, empty.acceptance_rate) == (0, 0.0)
    for derived in ("frequencies", "std_errors"):
        with pytest.raises(NoAcceptedTrials):
            getattr(empty, derived)

