"""Seeded Monte Carlo verifier for pre- and post-selected ensembles.

Simulates sequential ideal measurements on state vectors: outcome k of an
observable in state psi has probability ||P_k psi||^2 and leaves P_k psi,
normalized; a final binary measurement post-selects on |b>. Post-selection
is a genuine filter, not importance weighting, so the estimates stay
independent of the formulas they are checked against. `run_trial` and both
vectorized estimators take their tables from one builder, which encodes each
bound once as an exact integer on the draw m = word >> 11 of a Philox word,
and compare m against the same bounds, so they agree by construction.

Randomness comes from a counter-based generator (Philox) keyed by
(seed, stream) with one counter block per trial, so trials are
independent, reproducible bit-exactly, and parallelizable without shared
state. `ABL_ENGINE_THREADS` caps the worker count (0 or unset = auto), and
the CPU count caps it further; results depend on neither.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .core import Observable, StateVector, _checked_int, _same_dim, _snap
from .errors import NoAcceptedTrials, ValidationError
from .rules import SelectionContext, _projections, _transition_weights

DRAWS_PER_BLOCK = 4  # Philox-4x64: one counter block yields four doubles
# 2**40 trials take most of a day at about 1.6e7 trials/s on one core of a
# 2-core x86-64 host; a larger count is refused before any work starts.
MAX_TRIALS = 1 << 40
MAX_SEED = 2**64 - 1  # the seed is one 64-bit word of the Philox key


@dataclass(frozen=True)
class TrialOutcome:
    """One member of the ensemble: what each interposed measurement gave, and
    whether the final measurement matched the post-selection."""

    intermediate_labels: tuple[str, ...]
    post_selected: bool


@dataclass(frozen=True)
class EnsembleStats:
    """Post-selected trials counted per outcome label, with the relative
    frequencies and binomial standard errors they give."""

    trials: int
    counts: tuple[tuple[str, int], ...]
    seed: int

    def __post_init__(self) -> None:
        _checked_int("trials", self.trials, 1, MAX_TRIALS)
        _checked_int("seed", self.seed, 0, MAX_SEED)
        labels = [label for label, _ in self.counts]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"outcome labels must be unique, got {labels}")
        for label, count in self.counts:
            _checked_int(f"count of outcome {label!r}", count, 0, self.trials)
        if self.accepted > self.trials:
            raise ValidationError(f"{self.accepted} accepted trials exceed {self.trials} trials")

    @property
    def accepted(self) -> int:
        return sum(count for _, count in self.counts)

    @property
    def frequencies(self) -> tuple[tuple[str, float], ...]:
        accepted = self.accepted
        if not accepted:
            raise NoAcceptedTrials(f"no trial of {self.trials} passed post-selection")
        return tuple((label, count / accepted) for label, count in self.counts)

    @property
    def std_errors(self) -> tuple[tuple[str, float], ...]:
        accepted = self.accepted
        return tuple((label, math.sqrt(f * (1.0 - f) / accepted)) for label, f in self.frequencies)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials


# ---------------------------------------------------------------------------
# deterministic per-trial streams


def _philox(seed: int, stream: int, first_block: int) -> np.random.Philox:
    # an explicit uint64 key: a list of Python ints would pass seeds of 2**63
    # and above through float64, so neighbouring seeds would share a stream
    bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bit_gen.advance(first_block)
    return bit_gen


def trial_stream(
    seed: int, trial_index: int, n_observables: int = 1, stream: int = 0
) -> np.random.Generator:
    """Generator positioned at the one counter block that a trial owns.

    Trial i owns block i: its four draws serve up to DRAWS_PER_BLOCK - 1
    interposed observables and the final filter, so batched draws over many
    trials reproduce per-trial draws exactly.
    """
    seed = _checked_int("seed", seed, 0, MAX_SEED)
    stream = _checked_int("stream", stream, 0, 2**64 - 1)
    # below 2**40, a trial's block stays far below the 2**256 blocks of the
    # Philox counter, which would wrap onto trial 0's
    trial_index = _checked_int("trial_index", trial_index, 0, MAX_TRIALS - 1)
    _checked_int("n_observables", n_observables, 0, DRAWS_PER_BLOCK - 1)
    return np.random.Generator(_philox(seed, stream, trial_index))


# ---------------------------------------------------------------------------
# branch tables

# The cumulative array is "closed": the branch probabilities, snapped where
# _projections made them, are renormalized, then every entry from the last
# positive branch on is set to exactly 1.0. Drawing
# u in (0, 1] with searchsorted(side="left") then never selects a zero
# branch, always selects some branch, and resolves boundary ties to the
# lower-indexed outcome.
#
# Every sampler compares the draw m = word >> 11 of a Philox word with the
# integer bounds of _raw_bound, so with u = 1 - m * 2**-53 its branch picks
# equal searchsorted(cumulative, u, "left") and its acceptance u <= threshold.


def _closed_cumulative(probs: np.ndarray) -> np.ndarray:
    c = np.cumsum(probs / probs.sum())
    c[int(np.nonzero(probs)[0][-1]):] = 1.0
    return c


def _raw_bound(values) -> np.ndarray:
    """Exact uint64 bound on the draw m for each value v in [0, 1]: with
    u = 1 - m * 2**-53, u <= v iff m >= bound and v < u iff m < bound."""
    scale = 2.0**53
    return (scale - np.floor(np.asarray(values, dtype=float) * scale)).astype(np.uint64)


def _branch_tables(psi: np.ndarray, observable: Observable | None, post: np.ndarray):
    """One ideal measurement of the pure state psi before the post-selection
    on |post>: the projected vectors P_k psi, their snapped probabilities
    p_k = ||P_k psi||^2, the bounds on m that _branch_index takes, and
    each branch's acceptance bound. A branch passes the post-selection with
    t_k, its snapped transition weight over p_k (0 if never drawn); the
    bound is the _raw_bound of t_k snapped, or of 1 where 1 - t_k snaps: the
    closed cumulative of {t_k, 1 - t_k} starts there, as t_k + fl(1 - t_k)
    rounds to exactly 1. With no observable, psi is the one branch, p = 1."""
    if observable is None:
        projected, probs = [psi], np.ones(1)
    else:
        projected, probs = _projections(psi, observable)
    weights = np.array(_transition_weights(psi, observable, post))
    t = np.divide(weights, probs, out=np.zeros(len(probs)), where=probs > 0.0)
    accept_from = _raw_bound(np.where(_snap(1.0 - t) == 0.0, 1.0, _snap(t)))
    rising = _raw_bound(_closed_cumulative(probs)[:-1][::-1])
    return projected, probs, rising, accept_from


def _branch_index(m, rising: np.ndarray):
    # rising holds _raw_bound of the cumulative without its closing 1.0, in
    # ascending order; branch = number of bounds above m, one draw or an
    # array of them, compared bound by bound into one byte per draw:
    # MAX_DIM = 64 outcomes give at most 63 bounds
    picked = np.uint8(0)
    for bound in rising:
        picked += m < bound
    return picked


def run_trial(
    pre: StateVector,
    observables: Sequence[Observable],
    post: StateVector,
    rng_stream: np.random.Generator,
) -> TrialOutcome:
    """One simulated history: measure each observable in order, continuing
    from each outcome's projected state, then apply the final post-selection
    filter. A trial's block holds one draw per observable and one for the
    filter, so more than DRAWS_PER_BLOCK - 1 observables are refused before
    any draw. Each draw is read as m, exactly 2**53 times the generator's double."""
    _same_dim(pre, *observables, post)
    n = _checked_int("number of observables", len(observables), 0, DRAWS_PER_BLOCK - 1)
    draws = iter(rng_stream.random(n + 1) * 2.0**53)
    psi, k, labels = pre.amplitudes, 0, []
    for obs in observables or [None]:
        projected, probs, rising, accept_from = _branch_tables(psi, obs, post.amplitudes)
        if obs is not None:
            k = int(_branch_index(next(draws), rising))
            labels.append(obs.outcomes[k].label)
            # normalized, so the next step snaps conditional probabilities
            psi = projected[k] / np.sqrt(probs[k])
    accepted = next(draws) >= accept_from[k]
    return TrialOutcome(tuple(labels), bool(accepted))


# ---------------------------------------------------------------------------
# vectorized estimators

# Both estimators count one pass of _range_counts over a stream in which
# trial i owns block i, as in trial_stream. A pass counts filters, each on
# one _branch_tables call's tables: a trial's branch from column 0 of its
# words (none without bounds) and its post-selection from the filter's
# column. estimate_abl counts one filter on stream 0, columns 0 and 1: the
# draws run_trial takes from trial_stream. estimate_interposition_effect
# counts that filter on stream 1 and the direct trial's post-selection on
# column 2.
#
# With at most MAX_COMPARED_BOUNDS bounds, a trial's branch is the number of
# bounds above its m, summed one comparison per bound into one byte per
# trial, and each branch's post-selected trials are counted on the mask of
# that branch. More bounds take one binary search each, over half a
# sub-batch at a time: beside the words, a search holds two column copies,
# the int64 branches and the bounds gathered for them, and over a whole
# sub-batch two workers peaked near 1.8 MiB under tracemalloc, against
# 1.4 MiB over halves, as on the mask path. numpy compares a contiguous
# column about 3x faster than a strided one, so each filter copies and
# shifts the columns it reads.
#
# Worker w counts one contiguous range of trials. It regenerates the range's
# words from one Philox positioned at the range's first block, in sub-batches
# that continue the stream; each is freed before the next is drawn. Each
# trial's draws thus depend only on its index, and the counts are integer
# sums of per-trial decisions, so no split into workers or sub-batches changes
# them; and a sampler call holds one sub-batch per worker, whatever its trials.

# Both constants were measured at 2^22 trials on a 2-core x86-64 host with
# numpy 2.4. A 512 KiB sub-batch of words per worker stays in a core's L2
# cache. Each numpy call holds the interpreter lock while it dispatches, so a
# sub-batch must be long enough for workers to overlap: two workers ran about
# 1.1x faster than one at 2^12 trials per sub-batch, and 1.45x at 2^14.
SUB_BATCH_TRIALS = 1 << 14
# Above this many branch bounds, one binary search per draw beats one
# comparison per bound on two workers, whose many compares contend for the
# interpreter lock: at 2^21 trials the two tied at 9 and 10 bounds, and the
# search won from 11. One worker compares faster up to about 24 bounds.
MAX_COMPARED_BOUNDS = 8
# One worker per this many trials, rounded up, because a pool thread costs
# about half a millisecond to start: on 2 threads, 2^14 + 1 trials took
# 1.5-1.8 ms on two workers and 0.9-1.3 ms on one, and the two broke even
# near 2^15 trials.
TRIALS_PER_WORKER = 1 << 16


def _worker_count(trials: int) -> int:
    # more threads than cores only adds contention, and a large
    # ABL_ENGINE_THREADS must never start thousands of OS threads
    raw = os.environ.get("ABL_ENGINE_THREADS", "").strip() or "0"
    try:
        threads = int(raw)
    except ValueError:
        raise ValidationError(f"ABL_ENGINE_THREADS must be an integer, got {raw!r}") from None
    # a run never has more workers than trials, so MAX_TRIALS bounds it
    threads = _checked_int("ABL_ENGINE_THREADS", threads, 0, MAX_TRIALS)
    cpus = os.cpu_count() or 1
    return min(threads or 8, cpus, -(-trials // TRIALS_PER_WORKER))


def _column(words: np.ndarray, c: int) -> np.ndarray:
    m = words[:, c].copy()
    return np.right_shift(m, np.uint64(11), out=m)


def _range_counts(seed: int, stream: int, filters, start: int, count: int) -> np.ndarray:
    """Post-selected trials among [start, start + count), counted per branch
    of each filter (column, rising, accept_from) in turn, with rising and
    accept_from as integer bounds on m = word >> 11."""
    bit_gen = _philox(seed, stream, start)
    counts = [np.zeros(len(accept_from), dtype=np.int64) for _, _, accept_from in filters]
    for done in range(0, count, SUB_BATCH_TRIALS):
        n = min(SUB_BATCH_TRIALS, count - done)
        words = bit_gen.random_raw(n * DRAWS_PER_BLOCK).reshape(n, DRAWS_PER_BLOCK)
        for (column, rising, accept_from), counted in zip(filters, counts):
            if len(rising) > MAX_COMPARED_BOUNDS:
                for half in (slice(0, n // 2), slice(n // 2, n)):
                    picked = np.searchsorted(rising, _column(words[half], 0), side="right")
                    np.subtract(len(rising), picked, out=picked)
                    hit = _column(words[half], column) >= accept_from[picked]
                    counted += np.bincount(picked[hit], minlength=len(counted))
                del picked, hit
            else:
                picked = _branch_index(_column(words, 0), rising) if len(rising) else 0
                last = _column(words, column)
                for j, q in enumerate(accept_from):
                    counted[j] += np.count_nonzero((last >= q) & (picked == j))
                del picked, last
        del words
    return np.concatenate(counts)


def _sampling_pass(
    pre: StateVector, post: StateVector, trials: int, seed: int, stream: int, *filters
) -> np.ndarray:
    """Check the arguments and the thread count, build the tables of each
    (observable or None, column) filter, then count one pass over trials
    [0, trials) of the stream: post-selected trials per branch of each
    filter's observable in turn (one entry for a filter with none), worker
    0's range here and each further range on a pool thread of its own."""
    trials = _checked_int("trials", trials, 1, MAX_TRIALS)
    seed = _checked_int("seed", seed, 0, MAX_SEED)
    workers = _worker_count(trials)
    tables = []
    for observable, column in filters:
        _same_dim(pre, observable, post)
        tables.append((column, *_branch_tables(pre.amplitudes, observable, post.amplitudes)[2:]))
    count = partial(_range_counts, seed, stream, tables)
    edges = [trials * w // workers for w in range(workers + 1)]
    sizes = [stop - start for start, stop in zip(edges, edges[1:])]
    with ThreadPoolExecutor(max_workers=workers) as pool:  # map submits ranges 1.. first
        return sum(pool.map(count, edges[1:-1], sizes[1:]), count(0, sizes[0]))


def estimate_abl(ctx: SelectionContext, trials: int, seed: int) -> EnsembleStats:
    """Post-selected counts of the interposed outcomes and their relative
    frequencies; reproducible bit-exactly for a fixed (trials, seed)."""
    counts = _sampling_pass(ctx.pre, ctx.post, trials, seed, 0, (ctx.intervening, 1))
    if not counts.any():
        raise NoAcceptedTrials(
            f"no trial passed post-selection in {trials} trials; raise the trial count"
        )
    return EnsembleStats(trials, tuple(zip(ctx.intervening.labels, map(int, counts))), int(seed))


def estimate_interposition_effect(
    pre: StateVector, q: Observable, post: StateVector, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical post-selection rates without and with the observable
    interposed, from one pass over stream 1: words 0 and 1 of trial i's block
    decide its interposed trial, and word 2 its direct one."""
    without, *with_q = _sampling_pass(pre, post, trials, seed, 1, (None, 2), (q, 1))
    return int(without) / trials, int(sum(with_q)) / trials
