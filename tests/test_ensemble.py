"""Monte Carlo verifier: determinism, loop/vector equivalence, statistics."""

import dataclasses
import hashlib
import json
import math
import os
import threading
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
    decomposition_counterexample,
    estimate_abl,
    estimate_interposition_effect,
    interposition_inequality,
    kastner,
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
    DRAWS_PER_BLOCK,
    MAX_COMPARED_BOUNDS,
    SUB_BATCH_TRIALS,
    TRIALS_PER_WORKER,
    _branch_index,
    _branch_tables,
    _closed_cumulative,
    _raw_bound,
    _sampling_pass,
    _worker_count,
)
from abl_engine.rules import _transition_weights
from conftest import (
    _assert_law_is_abl,
    _sylvester_hadamard,
    philox_block,
    philox_recount,
    random_context,
    random_observable,
    random_state,
    snapped_born_context,
    snapped_weight_context,
    unit,
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
        {"n_observables": DRAWS_PER_BLOCK},  # a trial owns one block of four draws
        {"stream": -1},
        {"stream": 2**64},
        {"stream": True},
    ):
        with pytest.raises(ValidationError):
            trial_stream(**{"seed": 0, "trial_index": 3, **kwargs})
    assert trial_stream(0, 0, stream=2**64 - 1).random() != trial_stream(0, 0).random()
    # trial i owns block i whatever the number of observables
    block = trial_stream(0, 3).random(DRAWS_PER_BLOCK)
    for n in range(DRAWS_PER_BLOCK):
        assert np.array_equal(trial_stream(0, 3, n).random(DRAWS_PER_BLOCK), block)


def test_closed_cumulative_snaps_and_closes():
    # probabilities are snapped where they are made, as _projections does for
    # the table, and the cumulative keeps the snapped zeros
    c = _closed_cumulative(_snap(np.array([0.0, 0.5, 1e-15, 0.5])))
    assert c[0] == 0.0
    assert c[-1] == 1.0
    assert c[2] == c[1]  # snapped branch adds nothing


def test_accept_bounds_close_the_binary_filter(monkeypatch):
    # each acceptance bound of the table is the _raw_bound of the first
    # entry of the closed cumulative of {t, 1 - t}, for a branch that passes
    # with t; with no observable the one branch has p = 1, so t is its weight.
    # The bound is the integer 2**53 - floor(v * 2**53), here from v exactly
    rng = np.random.default_rng(5)
    ulp = 2.0**-52
    special = [0.0, 1.0, 1.0 - ulp / 2, 1.0 + ulp, 1.0 - 1e-12, 1.0 - 2e-12, 1e-12, 2e-12, 2.0**-53]
    # 1 - t inexact, or t + (1 - t) near a rounding tie
    inexact = [0.1, 1.0 / 3.0, 0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)]
    inexact += [1.0 - 2.0**-53, 1.0 + 2.0**-51]
    uniform = rng.random(20)
    near_snap = 10.0 ** rng.uniform(-13.0, -11.0, 20)
    psi = basis_state(2, 0).amplitudes
    for t in [*special, *inexact, *near_snap, *uniform]:
        monkeypatch.setattr(ensemble, "_transition_weights", lambda *args: (t,))
        (bound,) = _branch_tables(psi, None, psi)[3]
        v = _closed_cumulative(_snap(np.array([t, 1.0 - t])))[0]
        assert bound == _raw_bound(v), t
        assert isinstance(bound, np.uint64), t
        assert bound == 2**53 - math.floor(Fraction(v) * 2**53), t


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
    pre = unit([1.0, 1.0])
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
    ctx = SelectionContext(bundle.pre, bundle.post, bundle.variants["QA"])
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
    box = three_box()
    probe_a = SelectionContext(box.pre, box.post, box.variants["QA"])
    for ctx in (box.context, probe_a, spin_half().context):
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
        # one block of stream 1 per trial: the interposed trial takes its
        # first two draws, and the direct trial the third
        draws = trial_stream(seed, i, 1, stream=1)
        with_q = run_trial(ctx.pre, [ctx.intervening], ctx.post, draws)
        without = run_trial(ctx.pre, [], ctx.post, draws)
        return np.array([without.post_selected, with_q.post_selected], dtype=int)

    def estimate_counts(trials):
        rates = estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, seed)
        return np.array([round(rate * trials) for rate in rates])

    _check_against_trial_loop(monkeypatch, trial_counts, estimate_counts)


def _draws_near(values):
    """Draws m, as uint64, for every m within 4 of where u = 1 - m * 2**-53
    crosses one of the values, from either side."""
    scale = 2**53
    centers = set()
    for v in values:
        floor = int(np.floor(v * scale))
        centers.update((floor, scale - floor))
    m = sorted({c + d for c in centers for d in range(-4, 5) if 0 <= c + d < scale})
    return np.array(m, dtype=np.uint64)


def _u(m):
    """u = 1 - m * 2**-53 for draws m, exact in doubles."""
    u = 1.0 - m.astype(float) / 2**53
    assert np.array_equal((1.0 - u) * 2**53, m)  # exact
    return u


class _Words:
    """Stands in for the Philox bit generator: random_raw(n) returns the next
    n of the given words, starting at the first block asked for."""

    def __init__(self, words, first_block):
        self.words, self.used = words, first_block * DRAWS_PER_BLOCK

    def random_raw(self, n):
        self.used += n
        return self.words[self.used - n : self.used].copy()


def _count_words(monkeypatch, filters, columns):
    """Post-selected counts of one sampling pass through the given integer
    tables, one (observable, column, rising, accept_from) per filter, over
    one trial per row of draws: the draws m in columns[c] are fed to word c
    of the trial's block as m << 11 with random nonzero low bits, and every
    other word is random."""
    n = len(next(iter(columns.values())))
    rng = np.random.default_rng(n)
    words = rng.integers(0, 2**64, (n, DRAWS_PER_BLOCK), dtype=np.uint64)
    for c, m in columns.items():
        words[:, c] = m << np.uint64(11) | rng.integers(1, 2**11, n, dtype=np.uint64)
    monkeypatch.setattr(ensemble, "_philox", lambda seed, stream, first: _Words(words.ravel(), first))
    tables = iter([(None, None, rising, accept_from) for _, _, rising, accept_from in filters])
    monkeypatch.setattr(ensemble, "_branch_tables", lambda *args: next(tables))
    ctx = three_box().context
    passes = [(observable, column) for observable, column, _, _ in filters]
    return _sampling_pass(ctx.pre, ctx.post, n, 0, 0, *passes)


@pytest.mark.parametrize("k", [1, 2, 3, 9, 20])
def test_kernels_reproduce_searchsorted_on_u(k, monkeypatch):
    # k = 20 exceeds MAX_COMPARED_BOUNDS, so the counting kernel's binary
    # search is covered beside the compare loop that run_trial shares
    rng = np.random.default_rng(k)
    probs = rng.random(k) * (rng.random(k) < 0.8)
    probs[rng.integers(k)] = 1.0
    cumulative = _closed_cumulative(_snap(probs))
    special = [0.0, 1.0, np.nextafter(1.0, 0.0), 1.0 - 2.0**-52, 2.0**-53, 2.0**-54, 1e-300]
    thresholds = np.where(rng.random(k) < 0.5, rng.choice(special, k), rng.random(k))
    rising, accept_from = _raw_bound(cumulative[:-1][::-1]), _raw_bound(thresholds)

    x, y = _draws_near(cumulative), _draws_near(thresholds)
    picked = np.searchsorted(cumulative, _u(x), side="left")
    assert np.array_equal(np.broadcast_to(_branch_index(x, rising), x.shape), picked)

    # every (x, y) pair as one trial's draws, fed through the counting kernel
    picked = np.repeat(picked, len(y))
    x, y = np.repeat(x, len(y)), np.tile(y, len(x))
    expected = np.bincount(picked[_u(y) <= thresholds[picked]], minlength=k)
    observable = three_box().context.intervening
    counts = _count_words(monkeypatch, [(observable, 1, rising, accept_from)], {0: x, 1: y})
    assert np.array_equal(counts, expected)

    # no observable: no branch bounds, and the filter's column alone decides
    none = np.empty(0, dtype=np.uint64)
    for t in [*special, *thresholds]:
        column = _draws_near([t])
        hits = _count_words(monkeypatch, [(None, 0, none, _raw_bound([t]))], {0: column})
        assert np.array_equal(hits, [np.count_nonzero(_u(column) <= t)])

    # two filters on one block, as estimate_interposition_effect counts them:
    # the observable's on words 0 and 1, a direct filter's on word 2
    t = thresholds[0]
    z = np.resize(_draws_near([t]), len(x))
    filters = [(None, 2, none, _raw_bound([t])), (observable, 1, rising, accept_from)]
    counts = _count_words(monkeypatch, filters, {0: x, 1: y, 2: z})
    assert np.array_equal(counts, [np.count_nonzero(_u(z) <= t), *expected])


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 1])
@pytest.mark.parametrize("first_block", [0, 2**40 + 3])
def test_raw_words_shifted_are_the_generators_doubles(seed, stream, first_block):
    # the estimators read m = word >> 11 where run_trial reads numpy's double
    # m * 2**-53; a numpy that converts words to doubles otherwise fails here
    def philox():
        bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
        bit_gen.advance(first_block)
        return bit_gen

    n = 4 * 1000 + 3
    m = philox().random_raw(n) >> np.uint64(11)
    x = np.random.Generator(philox()).random(n)
    assert np.array_equal(m.astype(float), x * 2**53)  # both sides exact


@pytest.mark.parametrize(
    "seed, stream, trial", [(0, 0, 0), (7, 0, 5), (2**64 - 1, 1, 12345), (3, 2**63, 2**40 - 1)]
)
def test_a_trials_words_are_philox_counter_trial_plus_one(seed, stream, trial):
    # the key is (seed, stream), and trial i's block is counter i + 1, as
    # numpy bumps the counter before it encrypts; the estimators read the
    # words, run_trial the doubles word >> 11 over 2**53
    words = philox_block(seed, stream, trial + 1)
    assert ensemble._philox(seed, stream, trial).random_raw(4).tolist() == words
    draws = trial_stream(seed, trial, stream=stream).random(4) * 2**53
    assert draws.tolist() == [word >> 11 for word in words]


RECOUNT_TRIALS, RECOUNT_SEED = 70001, 7


@pytest.fixture(scope="module")
def philox_recounts():
    """The plain Philox's counts of estimate_abl on three-box and spin-half,
    stream 0 with the filter on column 1, and of
    estimate_interposition_effect on three-box, stream 1 with the direct
    filter on column 2 and the interposed one on column 1."""
    box, spin = three_box().context, spin_half().context

    def table(ctx, observable, column):
        return (column, *_branch_tables(ctx.pre.amplitudes, observable, ctx.post.amplitudes)[2:])

    k = len(box.intervening.outcomes)
    filters = [table(box, box.intervening, 1), table(spin, spin.intervening, 1)]
    both = philox_recount(RECOUNT_SEED, 0, RECOUNT_TRIALS, filters)
    effect = philox_recount(
        RECOUNT_SEED, 1, RECOUNT_TRIALS, [table(box, None, 2), table(box, box.intervening, 1)]
    )
    return {"three-box": both[:k], "spin-half": both[k:], "interposition": effect}


@pytest.mark.parametrize("threads", ["1", "3"])
def test_estimators_count_what_a_plain_philox_recounts(threads, philox_recounts, monkeypatch):
    # above TRIALS_PER_WORKER, so two workers run on two or more CPUs, and
    # across four sub-batch edges
    assert RECOUNT_TRIALS > max(TRIALS_PER_WORKER, 4 * SUB_BATCH_TRIALS)
    monkeypatch.setenv("ABL_ENGINE_THREADS", threads)
    for name, ctx in (("three-box", three_box().context), ("spin-half", spin_half().context)):
        stats = estimate_abl(ctx, RECOUNT_TRIALS, RECOUNT_SEED)
        assert [count for _, count in stats.counts] == philox_recounts[name]
    box = three_box().context
    without, *with_q = philox_recounts["interposition"]
    rates = estimate_interposition_effect(
        box.pre, box.intervening, box.post, RECOUNT_TRIALS, RECOUNT_SEED
    )
    assert rates == (without / RECOUNT_TRIALS, sum(with_q) / RECOUNT_TRIALS)


class _Draws:
    """Stands in for a generator: random(n) returns the next n of the given
    draws."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, n):
        taken, self.draws = self.draws[:n], self.draws[n:]
        return np.array(taken)


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
        k = np.searchsorted(cumulative, _u(x), side="left")
        for y in _draws_near(thresholds):
            draws = _Draws(x / 2**53, y / 2**53)
            outcome = run_trial(ctx.pre, [ctx.intervening], ctx.post, draws)
            assert outcome.intermediate_labels == (ctx.intervening.labels[k],)
            assert outcome.post_selected == (_u(y) <= thresholds[k])


def test_run_trial_takes_at_most_one_block():
    # a trial's block holds one draw per observable and one for the filter;
    # a fifth draw would be the first word of the next trial's block
    ctx = three_box().context
    block = trial_stream(0, 0).random(DRAWS_PER_BLOCK)
    for n in range(DRAWS_PER_BLOCK):
        draws = _Draws(*block)
        run_trial(ctx.pre, [ctx.intervening] * n, ctx.post, draws)
        assert len(draws.draws) == DRAWS_PER_BLOCK - n - 1
    for n in (DRAWS_PER_BLOCK, DRAWS_PER_BLOCK + 1):
        draws = _Draws(*block)
        refusal = rf"^number of observables must be in 0\.\.3, got {n}$"
        with pytest.raises(ValidationError, match=refusal):
            run_trial(ctx.pre, [ctx.intervening] * n, ctx.post, draws)
        assert len(draws.draws) == DRAWS_PER_BLOCK  # refused before any draw


BOX = three_box()
LAW_CONTEXTS = {
    **{
        f"three-box-{name}": SelectionContext(BOX.pre, BOX.post, q)
        for name, q in BOX.variants.items()
    },
    "spin-half": spin_half().context,
    "snapped-weight": snapped_weight_context(),
    "snapped-born": snapped_born_context(),
}


@pytest.mark.parametrize("name", LAW_CONTEXTS)
def test_sampler_law_is_abl(name):
    _assert_law_is_abl(LAW_CONTEXTS[name])


def _spin_bases():
    """sigma_x and sigma_z of d = 2 as labeled observables."""
    sx = Observable(
        tuple(projector_from_span([unit([1.0, s])], f"x{s:+d}") for s in (1, -1))
    )
    return sx, Observable(tuple(projector_from_span([basis_state(2, i)], f"z{i}") for i in range(2)))


SX, SZ = _spin_bases()
TWO_STEP_LAWS = {
    # the chaining test's history: +z, sigma_x, sigma_z, then +x
    "chaining": (SelectionContext(basis_state(2, 0), unit([1.0, 1.0]), SX), SZ),
    "three-box-QA-QB": (LAW_CONTEXTS["three-box-QA"], BOX.variants["QB"]),
    "three-box-fullQ-QA": (BOX.context, BOX.variants["QA"]),
    "snapped-weight-sigma-x": (snapped_weight_context(), SX),
}


@pytest.mark.parametrize("name", TWO_STEP_LAWS)
def test_sampler_law_for_two_observables_is_path_enumeration(name):
    _assert_law_is_abl(*TWO_STEP_LAWS[name])


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_sampler_law_for_two_observables_on_random_contexts(seed, dim):
    rng = np.random.default_rng(seed)
    _assert_law_is_abl(random_context(rng, dim), random_observable(rng, dim))


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
        tuple(projector_from_span([unit([1.0, s])], f"x{s}") for s in (1, -1))
    )
    lhs = [row.lhs for row in decomposition_check(pre, z, x_basis).outcomes]
    assert [value == 0.0 for value in lhs] == never_drawn


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 16))
def test_sampler_law_is_abl_on_random_contexts(seed, dim):
    _assert_law_is_abl(random_context(np.random.default_rng(seed), dim))


def test_worker_count_is_capped_at_cpu_count(monkeypatch):
    # computes the count only; never starts the threads. The CPUs the
    # process may run on are pinned, so the caps below do not depend on the host
    cpus = 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setenv("ABL_ENGINE_THREADS", "100000")
    assert _worker_count(10**9) == cpus
    assert _worker_count(1) == 1
    assert _worker_count(TRIALS_PER_WORKER) == 1
    assert _worker_count(TRIALS_PER_WORKER + 1) == min(cpus, 2)
    monkeypatch.setenv("ABL_ENGINE_THREADS", "1")
    assert _worker_count(10**9) == 1
    monkeypatch.setenv("ABL_ENGINE_THREADS", "0")
    assert _worker_count(10**9) == min(cpus, 8)


def test_worker_count_is_capped_at_the_affinity_mask(monkeypatch):
    # under taskset or a cpuset the process may run on fewer CPUs than
    # os.cpu_count() reports; computes the count only, never starts threads
    monkeypatch.setenv("ABL_ENGINE_THREADS", "8")
    monkeypatch.setattr(os, "cpu_count", lambda: 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _worker_count(10**9) == 1
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    assert _worker_count(10**9) == 3
    # where there is no affinity call, the CPU count caps it, and an unknown
    # count allows one worker
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _worker_count(10**9) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(10**9) == 1


def test_a_pass_starts_one_thread_per_extra_worker(monkeypatch):
    # the calling thread counts the first range, so one worker starts none
    started = []
    start = threading.Thread.start

    def counted_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counted_start)
    ctx = three_box().context
    trials = 2 * TRIALS_PER_WORKER + 1
    for threads in ("1", "3"):
        monkeypatch.setenv("ABL_ENGINE_THREADS", threads)
        for run in (
            lambda: estimate_abl(ctx, trials, 0),
            lambda: estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, 0),
        ):
            started.clear()
            run()
            assert len(started) == _worker_count(trials) - 1, threads


def test_estimate_memory_does_not_grow_with_trials(monkeypatch):
    # drawing 2**16 trials' draws at once peaks near 4 MiB of draws and
    # temporaries; one 512 KiB sub-batch of words and its masks peak near
    # 0.6 MiB. The warm-up call takes numpy's lazy random-module import, a
    # one-time cost, out of the measurement.
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


def _square_context(k, seed):
    # k outcomes of rank 1 in dimension k, so k - 1 branch bounds
    rng = np.random.default_rng(seed)
    pre, post = random_state(rng, k), random_state(rng, k)
    return SelectionContext(pre, post, random_observable(rng, k, k))


def _interposition_pass(ctx, trials, seed):
    return estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, seed)


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs for two workers")
@pytest.mark.parametrize(
    "estimate, ctx",
    [
        (estimate_abl, three_box().context),
        # MAX_COMPARED_BOUNDS + 1 outcomes: the most branch bounds that the
        # kernel still compares one by one, so the longest list of masks
        (estimate_abl, _square_context(MAX_COMPARED_BOUNDS + 1, 8)),
        (_interposition_pass, three_box().context),
        # k = 20: the kernel's binary search
        (estimate_abl, _square_context(20, 20)),
    ],
    ids=["three-box", "widest-masks", "interposition", "search"],
)
def test_two_worker_estimate_holds_one_sub_batch_per_worker(estimate, ctx, monkeypatch):
    # each worker frees its 512 KiB sub-batch of words before it draws the
    # next, and each column copy before it copies the next, so two workers
    # peak under 1.5 MiB; a worker that drew the next sub-batch while it still
    # held the last would peak near 2.1 MiB, and a search over a whole
    # sub-batch at once near 1.8 MiB
    monkeypatch.setenv("ABL_ENGINE_THREADS", "2")
    estimate(ctx, 2**20, 6)
    tracemalloc.start()
    try:
        estimate(ctx, 2**20, 6)
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


def _fixed_tables(k):
    """Integer tables for k branches, from integer arithmetic alone: k - 1
    ascending branch bounds in (0, 2**53), and k acceptance bounds in
    [0, 2**53] that include 0 (always accept) and 2**53 (never) from k = 3."""
    step = 2**53 // k
    rising = [step * (j + 1) + j * 0x9E3779B1 % (step // 2) for j in range(k - 1)]
    accept_from = [(j + 1) * 0x9E3779B97F4A7C15 % (2**53 + 1) for j in range(k)]
    if k >= 3:
        accept_from[1:3] = [0, 2**53]
    return np.array(rising, dtype=np.uint64), np.array(accept_from, dtype=np.uint64)


def _dyadic_contexts():
    """Coordinate-basis Q at d = 4, 16 and 64, post the Sylvester-Hadamard row
    h_3 over sqrt(d), and pre either all ones over sqrt(d) (orthogonal to the
    post) or the sum of h_0..h_3, normalized (entries 2 / sqrt(d) or 0, and
    |<a|b>|^2 = 1/4). Every entry is dyadic, so every weight and table is
    exact, whatever BLAS computes it."""
    for dim in (4, 16, 64):
        rows = np.array(_sylvester_hadamard(dim), dtype=complex)
        q = Observable(
            tuple(Projector(np.diag(np.eye(dim)[i]).astype(complex), f"q{i}") for i in range(dim))
        )
        post = StateVector(rows[3] / math.sqrt(dim))
        for pre in (rows[0] / math.sqrt(dim), rows[:4].sum(axis=0) / (2 * math.sqrt(dim))):
            yield StateVector(pre), q, post


# SHA-256 of the seeded counts below. The sampler is bit-exact for a fixed
# (trials, seed), so a change that moves this digest moves seeded reports
SAMPLER_DIGEST = "3a38f7fc508e48d6d87d4ca77ea716001c87a9fe2a0de7d815cae89ee02e98b2"


@pytest.mark.parametrize("threads", ["1", "3"])
def test_sampler_counts_match_the_pinned_digest(threads, monkeypatch):
    # _range_counts on fixed integer tables, on the compare path (k - 1 <= 8
    # bounds) and the search path, then both estimators on dyadic contexts;
    # the trial counts straddle one sub-batch and one worker's share
    monkeypatch.setenv("ABL_ENGINE_THREADS", threads)
    none = np.empty(0, dtype=np.uint64)
    records = []
    for seed, stream in ((0, 0), (2**64 - 1, 1)):
        for trials in (1, SUB_BATCH_TRIALS - 1, SUB_BATCH_TRIALS + 1, 70001):
            start = 0 if seed == 0 else ensemble.MAX_TRIALS - trials
            for k in (1, 2, 3, 5, 8, 9, 12, 20, 33, 47, 64):
                rising, accept_from = _fixed_tables(k)
                filters = [(1, rising, accept_from), (2, none, accept_from[-1:])]
                counts = ensemble._range_counts(seed, stream, filters, start, trials)
                records.append(("range", seed, trials, k, counts.tolist()))
            for pre, q, post in _dyadic_contexts():
                try:
                    stats = estimate_abl(SelectionContext(pre, post, q), trials, seed)
                    records.append(("abl", seed, trials, q.dim, stats.counts))
                except NoAcceptedTrials:
                    records.append(("abl", seed, trials, q.dim, None))
                rates = estimate_interposition_effect(pre, q, post, trials, seed)
                records.append(("interposition", seed, trials, q.dim, rates))
    digest = hashlib.sha256(repr(records).encode()).hexdigest()
    assert digest == SAMPLER_DIGEST


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


def test_thread_count_is_checked_before_any_table_is_built(monkeypatch):
    def no_tables(*args):
        raise AssertionError("tables built")

    monkeypatch.setenv("ABL_ENGINE_THREADS", "many")
    monkeypatch.setattr(ensemble, "_branch_tables", no_tables)
    ctx = three_box().context
    with pytest.raises(ValidationError, match="^ABL_ENGINE_THREADS must be"):
        estimate_abl(ctx, 10, 0)
    with pytest.raises(ValidationError, match="^ABL_ENGINE_THREADS must be"):
        estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, 10, 0)


def test_estimate_converges_to_abl():
    ctx = three_box().context
    stats = estimate_abl(ctx, 10**5, 8)
    analytic = abl(ctx)
    frequencies, std_errors = dict(stats.frequencies), dict(stats.std_errors)
    for label in analytic.labels:
        assert abs(frequencies[label] - analytic[label]) <= 5 * std_errors[label]
    marginal = marginal_with_Q(ctx)
    se = math.sqrt(marginal * (1 - marginal) / stats.trials)
    assert abs(stats.acceptance_rate - marginal) <= 5 * se


def test_estimate_certainty_is_exact():
    box = three_box()
    stats = estimate_abl(SelectionContext(box.pre, box.post, box.variants["QA"]), 10**5, 13)
    frequencies = dict(stats.frequencies)
    assert frequencies["A"] == 1.0
    assert frequencies["B∪C"] == 0.0
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
    assert dict(stats.frequencies)["mine"] == 1.0


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

    monkeypatch.setattr(ensemble, "_range_counts", no_work)
    ctx = three_box().context
    for trials in (10**20, ensemble.MAX_TRIALS + 1):
        with pytest.raises(ValidationError):
            estimate_abl(ctx, trials, 0)
        with pytest.raises(ValidationError):
            estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, trials, 0)
    # the interposed filter's tables are checked before the pass samples
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
    p = abs(np.vdot(pre.amplitudes, post.amplitudes)) ** 2
    se = math.sqrt(p * (1 - p) / 200000)
    assert abs(rate_without - rate_with) < 7 * se


def test_interposition_effect_matches_analytic_random_instance():
    rng = np.random.default_rng(73)
    ctx = random_context(rng, 3, min_marginal=0.05, min_direct=0.05)
    rate_without, rate_with = estimate_interposition_effect(
        ctx.pre, ctx.intervening, ctx.post, 300000, 29
    )
    p_direct = abs(np.vdot(ctx.pre.amplitudes, ctx.post.amplitudes)) ** 2
    p_with = marginal_with_Q(ctx)
    assert abs(rate_without - p_direct) < 5 * math.sqrt(p_direct * (1 - p_direct) / 300000)
    assert abs(rate_with - p_with) < 5 * math.sqrt(p_with * (1 - p_with) / 300000)


# The sampler verifies the rules built from both estimators, in simulated
# ensembles that post-select by filtering: estimate_abl's count of branch q
# over its trials estimates p(q, b|a) on stream 0, and the direct rate of
# estimate_interposition_effect estimates p(b|a) on stream 1, so the two are
# independent. Ratios get delta-method standard errors.
VERIFY_TRIALS = 2**19


@pytest.mark.parametrize(
    "ctx",
    [three_box().context, random_context(np.random.default_rng(43), 4, min_direct=0.05)],
    ids=["three-box", "random"],
)
def test_sampler_verifies_kastner_weights(ctx):
    n = VERIFY_TRIALS
    stats = estimate_abl(ctx, n, 41)
    direct, _ = estimate_interposition_effect(ctx.pre, ctx.intervening, ctx.post, n, 41)
    weights = kastner(ctx)
    sampled = [(label, count, weights[label]) for label, count in stats.counts]
    for label, count, weight in [*sampled, ("total", stats.accepted, weights.total())]:
        # w = p(q, b|a) / p(b|a), each a binomial rate over the n trials
        w = count / n / direct
        se = w * math.sqrt((n - count) / (n * count) + (1.0 - direct) / (n * direct))
        assert abs(w - weight) < 5 * se, label
    if ctx.intervening.labels == ("A", "B", "C"):
        assert weights.total() == pytest.approx(3.0, abs=1e-12)


def _sampled_decomposition(pre, q, b_obs, seed):
    """Born lhs_j = sum_i p(q_j, b_i|a) and rhs_j = sum_i [p(q_j, b_i|a) /
    p(b_i|a, Q)] p(b_i|a), each with its standard error, from one
    estimate_abl and one estimate_interposition_effect per post ket b_i,
    each b_i on its own seed."""
    n, k = VERIFY_TRIALS, len(q.outcomes)
    lhs, lhs_var, rhs, rhs_var = np.zeros(k), np.zeros(k), np.zeros(k), np.zeros(k)
    for i, outcome in enumerate(b_obs.outcomes):
        b = StateVector(np.linalg.eigh(outcome.matrix)[1][:, -1])  # rank 1
        stats = estimate_abl(SelectionContext(pre, b, q), n, seed + i)
        direct, _ = estimate_interposition_effect(pre, q, b, n, seed + i)
        joint = np.array([count for _, count in stats.counts]) / n
        lhs, lhs_var = lhs + joint, lhs_var + joint * (1.0 - joint) / n
        f = joint * n / stats.accepted  # p(q_j, b_i|a) / p(b_i|a, Q)
        rhs = rhs + f * direct
        rhs_var += direct**2 * f * (1.0 - f) / stats.accepted + f**2 * direct * (1.0 - direct) / n
    return lhs, np.sqrt(lhs_var), rhs, np.sqrt(rhs_var)


def test_sampler_verifies_decomposition():
    case = decomposition_counterexample()
    plus_y = unit([1.0, 1.0j])
    for (pre, q, b_obs), holds in (
        ((case.pre, case.q, case.b_obs), False),  # residual about 0.118
        ((plus_y, SZ, SX), True),  # interference_term_zero
    ):
        report = decomposition_check(pre, q, b_obs)
        assert report.conditions_hold == holds
        lhs, lhs_se, rhs, rhs_se = _sampled_decomposition(pre, q, b_obs, 47)
        for row, *sampled in zip(report.outcomes, lhs, lhs_se, rhs, rhs_se):
            lhs_j, lhs_se_j, rhs_j, rhs_se_j = sampled
            assert abs(lhs_j - row.lhs) < 5 * lhs_se_j, row.label
            assert abs(rhs_j - row.rhs) < 5 * rhs_se_j, row.label
            # the residual against the Born value, in standard errors of rhs
            z = abs(row.lhs - rhs_j) / rhs_se_j
            assert z < 5 if holds else z > 20, (row.label, z)


CALIBRATION_SEEDS = 400
CALIBRATION_TRIALS = 2**14


def _ks_distance_to_normal(z):
    # Kolmogorov-Smirnov distance between the sample's empirical CDF and the
    # N(0, 1) CDF, checked on both sides of each step
    z = np.sort(z)
    cdf = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in z])
    n = len(z)
    return max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))


def _binomial_z(hits, n, p):
    return (hits - n * p) / np.sqrt(n * p * (1.0 - p))


def test_stream_calibration_over_many_seeds():
    # Each seed's z-scores should follow N(0, 1): counts that are right on
    # average but too regular, too spread or skewed from seed to seed would
    # move the whole sample (the TestU01 idea of testing the stream, not just
    # its mean). At 2^14 trials a binomial z moves in lattice steps of about
    # 0.02, which shifts the distance by under 0.01; the bound below is the
    # Kolmogorov law's 0.001 quantile, 1.95 / sqrt(N).
    ctx = three_box().context
    p_a = abl(ctx)["A"]
    p_with = marginal_with_Q(ctx)
    p_direct = abs(np.vdot(ctx.pre.amplitudes, ctx.post.amplitudes)) ** 2
    seeds = np.random.default_rng(2007).integers(0, 2**64, CALIBRATION_SEEDS, dtype=np.uint64)
    z_abl, z_accepted, z_with, z_direct = [], [], [], []
    for seed in map(int, seeds):
        stats = estimate_abl(ctx, CALIBRATION_TRIALS, seed)
        z_abl.append(_binomial_z(stats.counts[0][1], stats.accepted, p_a))
        z_accepted.append(_binomial_z(stats.accepted, CALIBRATION_TRIALS, p_with))
        direct, with_q = estimate_interposition_effect(
            ctx.pre, ctx.intervening, ctx.post, CALIBRATION_TRIALS, seed
        )
        z_direct.append(_binomial_z(direct * CALIBRATION_TRIALS, CALIBRATION_TRIALS, p_direct))
        z_with.append(_binomial_z(with_q * CALIBRATION_TRIALS, CALIBRATION_TRIALS, p_with))
    bound = 1.95 / math.sqrt(CALIBRATION_SEEDS)
    for name, z in (("abl", z_abl), ("with Q", z_with), ("direct", z_direct)):
        assert _ks_distance_to_normal(z) < bound, name
    # The direct and the interposed trial share each block, and the abl pass
    # runs the same trial indices on stream 0: with independent words,
    # sqrt(N) times a correlation of the z-scores is N(0, 1); 3.3 is its
    # two-sided 0.001 quantile
    for pair in ((z_direct, z_with), (z_accepted, z_with)):
        assert abs(np.corrcoef(pair)[0, 1]) * math.sqrt(CALIBRATION_SEEDS) < 3.3


def test_chaining_two_observables_matches_path_enumeration():
    # a = +z, measure sigma_x then sigma_z, post-select +x; oracle is the
    # brute-force sum over all four outcome paths
    pre = basis_state(2, 0)
    post = unit([1.0, 1.0])
    sx = Observable(
        (
            projector_from_span([unit([1.0, 1.0])], "x+"),
            projector_from_span([unit([1.0, -1.0])], "x-"),
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
    # the record holds counts; every other value is derived from them, so
    # counts that no sampler gives are refused before anything derives
    with pytest.raises(ValidationError, match="^count of outcome 'a' must be in 0..10, got -1"):
        EnsembleStats(10, (("a", -1), ("b", 3)), 0)
    for count in (1.5, True):
        with pytest.raises(ValidationError, match="^count of outcome 'a' must be an integer"):
            EnsembleStats(10, (("a", count),), 0)
    # no trial at all: refused, not a bare ZeroDivisionError from acceptance_rate
    with pytest.raises(ValidationError, match="^trials must be in 1.."):
        EnsembleStats(0, (("a", 0),), 0)
    for trials in (1.5, True):
        with pytest.raises(ValidationError, match="^trials must be an integer"):
            EnsembleStats(trials, (("a", 1),), 0)
    with pytest.raises(ValidationError, match="^outcome labels must be unique"):
        EnsembleStats(10, (("a", 1), ("a", 2)), 0)
    with pytest.raises(ValidationError, match="^11 accepted trials exceed 10 trials"):
        EnsembleStats(10, (("a", 7), ("b", 4)), 0)
    # the seed is one 64-bit word of the Philox key, and the CLI prints it
    for seed in (-1, 1.5, True, 2**64):
        with pytest.raises(ValidationError, match="^seed must be"):
            EnsembleStats(10, (("a", 1),), seed)
    assert EnsembleStats(10, (("a", 6), ("b", 4)), 0).acceptance_rate == 1.0
    stats = EnsembleStats(10, (("a", 3), ("b", 1), ("c", 0)), 1)
    assert stats.accepted == 4
    assert stats.acceptance_rate == 0.4
    assert stats.frequencies == (("a", 0.75), ("b", 0.25), ("c", 0.0))
    # sqrt(3/4 * 1/4 / 4) = sqrt(3) / 8, correctly rounded either way
    assert stats.std_errors == (("a", math.sqrt(3) / 8), ("b", math.sqrt(3) / 8), ("c", 0.0))
    assert dict(stats.frequencies)["b"] == 0.25
    assert dict(stats.std_errors)["c"] == 0.0
    certain = EnsembleStats(7, (("a", 7),), 2)
    assert (certain.frequencies, certain.std_errors) == ((("a", 1.0),), (("a", 0.0),))
    # no accepted trial: refused when built, with estimate_abl's error, so
    # every record has frequencies and never divides 0 by 0
    for counts in ((("a", 0),), ()):
        message = r"^no trial passed post-selection in 10 trials; raise the trial count$"
        with pytest.raises(NoAcceptedTrials, match=message):
            EnsembleStats(10, counts, 1)


@settings(deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from("abc"), st.integers(-1, 6)), max_size=4),
    st.integers(1, 12),
    st.booleans(),
)
def test_ensemble_stats_store_the_counts_they_checked(counts, trials, as_generator):
    # a generator is read once and a list is copied, so the record holds the
    # pairs it checked, whatever the caller does with its iterable afterwards
    given_counts = (pair for pair in counts) if as_generator else list(counts)
    labels = [label for label, _ in counts]
    accepted = sum(count for _, count in counts)
    valid = (
        len(set(labels)) == len(labels)
        and all(0 <= count <= trials for _, count in counts)
        and 0 < accepted <= trials
    )
    if not valid:
        with pytest.raises((ValidationError, NoAcceptedTrials)):
            EnsembleStats(trials, given_counts, 0)
        return
    stats = EnsembleStats(trials, given_counts, 0)
    if not as_generator:
        given_counts.append(("z", trials))
    assert stats.counts == tuple(counts)
    assert stats.accepted == accepted
    assert math.fsum(f for _, f in stats.frequencies) == pytest.approx(1.0)


def test_ensemble_stats_hold_python_ints():
    numpy_stats = EnsembleStats(np.int32(10), (("a", np.int64(3)),), np.int64(1))
    assert numpy_stats == EnsembleStats(10, (("a", 3),), 1)
    ctx = three_box().context
    sampled = estimate_abl(ctx, np.int64(20000), np.uint64(7))
    assert sampled == estimate_abl(ctx, 20000, 7)
    for stats in (numpy_stats, sampled):
        values = [stats.trials, stats.seed, *(count for _, count in stats.counts)]
        assert all(type(value) is int for value in values), values
        json.dumps(dataclasses.asdict(stats))

