"""Seeded Monte Carlo verifier for pre- and post-selected ensembles.

Simulates sequential ideal measurements on state vectors: outcome k of an
observable in state psi has probability ||P_k psi||^2 and leaves P_k psi,
normalized; a final binary measurement post-selects on |b>. Post-selection
is a genuine filter, not importance weighting, so the estimates stay
independent of the formulas they are checked against. `run_trial` and both
vectorized estimators take their tables from one builder and compare draws
against them the same way, so they agree by construction.

Randomness comes from a counter-based generator (Philox) keyed by
(seed, stream) with a fixed counter block range per trial, so trials are
independent, reproducible bit-exactly, and parallelizable without shared
state. `ABL_ENGINE_THREADS` caps the worker count (0 or unset = auto), and
the CPU count caps it further; results depend on neither.
"""

from __future__ import annotations

import os
import threading
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

    @property
    def accepted(self) -> int:
        return sum(count for _, count in self.counts)

    @property
    def frequencies(self) -> tuple[tuple[str, float], ...]:
        if not self.accepted:
            raise NoAcceptedTrials(f"no trial of {self.trials} passed post-selection")
        labels, counts = zip(*self.counts)
        return tuple(zip(labels, map(float, np.array(counts) / self.accepted)))

    @property
    def std_errors(self) -> tuple[tuple[str, float], ...]:
        labels, freqs = zip(*self.frequencies)
        freqs = np.array(freqs)
        return tuple(zip(labels, map(float, np.sqrt(freqs * (1.0 - freqs) / self.accepted))))

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials

    def frequency(self, label: str) -> float:
        return dict(self.frequencies)[label]

    def std_error(self, label: str) -> float:
        return dict(self.std_errors)[label]


# ---------------------------------------------------------------------------
# deterministic per-trial streams


def _blocks_per_trial(n_observables: int) -> int:
    # one draw per interposed observable plus one for the final filter
    return (n_observables + 1 + DRAWS_PER_BLOCK - 1) // DRAWS_PER_BLOCK


def _philox(seed: int, stream: int, first_block: int) -> np.random.Generator:
    # an explicit uint64 key: a list of Python ints would pass seeds of 2**63
    # and above through float64, so neighbouring seeds would share a stream
    bit_gen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))
    bit_gen.advance(first_block)
    return np.random.Generator(bit_gen)


def trial_stream(
    seed: int, trial_index: int, n_observables: int = 1, stream: int = 0
) -> np.random.Generator:
    """Generator positioned at the counter block range owned by one trial.

    Trial i owns blocks [i*B, (i+1)*B) with B = ceil((n_observables+1)/4),
    so batched draws over many trials reproduce per-trial draws exactly.
    """
    seed = _checked_int("seed", seed, 0, MAX_SEED)
    stream = _checked_int("stream", stream, 0, 2**64 - 1)
    # below 2**40 each, a trial's first block stays far below the 2**256
    # blocks of the Philox counter, which would wrap onto trial 0's
    trial_index = _checked_int("trial_index", trial_index, 0, MAX_TRIALS - 1)
    n_observables = _checked_int("n_observables", n_observables, 0, MAX_TRIALS - 1)
    return _philox(seed, stream, trial_index * _blocks_per_trial(n_observables))


# ---------------------------------------------------------------------------
# branch tables

# The cumulative array is "closed": the branch probabilities, snapped where
# _projections made them, are renormalized, then every entry from the last
# positive branch on is set to exactly 1.0. Drawing
# u in (0, 1] with searchsorted(side="left") then never selects a zero
# branch, always selects some branch, and resolves boundary ties to the
# lower-indexed outcome.
#
# The samplers compare the raw draw x = m * 2**-53 (numpy's `random`)
# against bounds computed once per table, instead of forming u = 1 - x per
# draw. u is exact, so for any v, u <= v holds exactly when
# x >= _raw_bound(v), and v < u exactly when x < _raw_bound(v). Branch
# picks therefore equal searchsorted(cumulative, u, "left") and acceptance
# equals u <= threshold.


def _closed_cumulative(probs: np.ndarray) -> np.ndarray:
    c = np.cumsum(probs / probs.sum())
    c[int(np.nonzero(probs)[0][-1]):] = 1.0
    return c


def _raw_bound(values) -> np.ndarray:
    """Exact bound on the raw draw x for each value v: with u = 1 - x,
    u <= v iff x >= bound and v < u iff x < bound."""
    scale = 2.0**53
    return 1.0 - np.floor(np.asarray(values, dtype=float) * scale) / scale


def _branch_tables(psi: np.ndarray, observable: Observable | None, post: np.ndarray):
    """One ideal measurement of the pure state psi before the post-selection
    on |post>: the projected vectors P_k psi, their snapped probabilities
    p_k = ||P_k psi||^2, the raw-draw bounds that _branch_index takes, and
    each branch's acceptance bound. A branch passes the post-selection with
    t_k, its snapped transition weight over p_k (0 if never drawn); the
    bound is the raw-draw bound of the first entry of the closed cumulative
    of the binary filter {t_k, 1 - t_k}. With no observable, psi is the one
    branch, taken with p = 1."""
    if observable is None:
        projected, probs = [psi], np.ones(1)
    else:
        projected, probs = _projections(psi, observable)
    weights = np.array(_transition_weights(psi, observable, post))
    t = np.divide(weights, probs, out=np.zeros(len(probs)), where=probs > 0.0)
    passes, fails = _snap(t), _snap(1.0 - t)
    accept_from = _raw_bound(np.where(fails == 0.0, 1.0, passes / (passes + fails)))
    rising = _raw_bound(_closed_cumulative(probs)[:-1][::-1])
    return projected, probs, rising, accept_from


def _branch_index(x, rising: np.ndarray):
    # rising holds _raw_bound of the cumulative without its closing 1.0, in
    # ascending order; branch = number of bounds above x. x is one draw or an
    # array of draws; with no bounds the branch is the scalar 0.
    if len(rising) > MAX_COMPARED_BOUNDS:
        return len(rising) - np.searchsorted(rising, x, side="right")
    picked = 0
    for bound in rising:
        picked += x < bound
    return picked


def run_trial(
    pre: StateVector,
    observables: Sequence[Observable],
    post: StateVector,
    rng_stream: np.random.Generator,
) -> TrialOutcome:
    """One simulated history: measure each observable in order, continuing
    from each outcome's projected state, then apply the final post-selection
    filter. Takes one draw per observable and one for the filter."""
    _same_dim(pre, *observables, post)
    psi, k, labels = pre.amplitudes, 0, []
    for obs in observables or [None]:
        projected, probs, rising, accept_from = _branch_tables(psi, obs, post.amplitudes)
        if obs is not None:
            k = int(_branch_index(rng_stream.random(), rising))
            labels.append(obs.outcomes[k].label)
            # normalized, so the next step snaps conditional probabilities
            psi = projected[k] / np.sqrt(probs[k])
    accepted = rng_stream.random() >= accept_from[k]
    return TrialOutcome(tuple(labels), bool(accepted))


# ---------------------------------------------------------------------------
# vectorized estimators

# Both estimators count with _range_counts on the tables of one
# _branch_tables call, with one observable or none. Trial i takes its branch
# from column 0 of its draws and its post-selection from column n, the
# number of observables: the draws run_trial takes from trial_stream.
#
# Worker w counts one contiguous range of trials. It regenerates the range's
# draws from one Philox positioned at the range's first block, in sub-batches
# written into one buffer per worker thread: trial i's draws are the first
# columns of row i after reshaping the flat double stream by
# blocks-per-trial. A sub-batch continues the stream where the previous one
# stopped. Each trial's draws thus depend only on its index, and the counts
# are integer sums of per-trial decisions, so no split into workers or
# sub-batches changes them; and a sampler call allocates nothing in
# proportion to its trial count.

# Both constants were measured at 2^22 trials on a 2-core x86-64 host with
# numpy 2.4. A 512 KiB buffer of draws per worker stays in a core's L2 cache.
# Each numpy call holds the interpreter lock while it dispatches, so a
# sub-batch must be long enough for workers to overlap: two workers ran about
# 1.2x faster than one at 2^12 trials per sub-batch, and 1.5x at 2^14.
SUB_BATCH_TRIALS = 1 << 14
# Above this many branch bounds, one binary search per draw beats one
# comparison per bound; the two cost the same between 9 and 12 bounds.
MAX_COMPARED_BOUNDS = 8
# One worker per this many trials, rounded up, because a pool thread costs
# about half a millisecond to start: on 2 threads, 2^14 + 1 trials took
# 1.5-1.8 ms on two workers and 0.9-1.3 ms on one, and the two broke even
# near 2^15 trials.
TRIALS_PER_WORKER = 1 << 16

_worker_buffers = threading.local()


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
    return min(threads or min(cpus, 8), cpus, -(-trials // TRIALS_PER_WORKER))


def _range_draws(seed: int, stream: int, start: int, count: int, blocks: int):
    """Yield the draws of trials [start, start + count) as (n, blocks * 4)
    sub-batches. Each one is a view of this thread's reused buffer,
    overwritten by the next."""
    width = blocks * DRAWS_PER_BLOCK
    buffer = getattr(_worker_buffers, "draws", None)
    if buffer is None or buffer.size < SUB_BATCH_TRIALS * width:
        buffer = _worker_buffers.draws = np.empty(SUB_BATCH_TRIALS * width)
    generator = _philox(seed, stream, start * blocks)
    for done in range(0, count, SUB_BATCH_TRIALS):
        n = min(SUB_BATCH_TRIALS, count - done)
        flat = buffer[: n * width]
        generator.random(out=flat)
        yield flat.reshape(n, width)


def _range_counts(
    seed: int,
    stream: int,
    n_observables: int,
    rising: np.ndarray,
    accept_from: np.ndarray,
    start: int,
    count: int,
) -> np.ndarray:
    """Post-selected trials among [start, start + count), counted per branch."""
    k = len(accept_from)
    counts = np.zeros(2 * k, dtype=np.int64)
    for draws in _range_draws(seed, stream, start, count, _blocks_per_trial(n_observables)):
        picked = _branch_index(draws[:, 0], rising)
        accepted = draws[:, n_observables] >= accept_from[picked]
        counts += np.bincount(picked + k * accepted, minlength=2 * k)
    return counts[k:]


def _map_ranges(fn, trials: int) -> np.ndarray:
    """Sum of fn(start, count) over one contiguous range of the trials per
    worker. The calling thread is worker 0, so its draw buffer serves every
    call."""
    workers = _worker_count(trials)
    if workers == 1:
        return fn(0, trials)
    edges = [trials * w // workers for w in range(workers + 1)]
    counts = [stop - start for start, stop in zip(edges, edges[1:])]
    # map submits workers 1.. before worker 0 counts here
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        return sum(pool.map(fn, edges[1:-1], counts[1:]), fn(0, counts[0]))


def _sampling_pass(
    pre: StateVector,
    observable: Observable | None,
    post: StateVector,
    trials: int,
    seed: int,
    stream: int,
):
    """Check the arguments and build the tables of one pass over trials
    [0, trials) of the stream. The returned call samples the pass and gives
    its post-selected trials per branch of the observable (one entry when
    there is none)."""
    trials = _checked_int("trials", trials, 1, MAX_TRIALS)
    seed = _checked_int("seed", seed, 0, MAX_SEED)
    _same_dim(pre, observable, post)
    _, _, rising, accept_from = _branch_tables(pre.amplitudes, observable, post.amplitudes)
    n_observables = 0 if observable is None else 1
    range_counts = partial(_range_counts, seed, stream, n_observables, rising, accept_from)
    return partial(_map_ranges, range_counts, trials)


def estimate_abl(ctx: SelectionContext, trials: int, seed: int) -> EnsembleStats:
    """Post-selected counts of the interposed outcomes and their relative
    frequencies; reproducible bit-exactly for a fixed (trials, seed)."""
    counts = _sampling_pass(ctx.pre, ctx.intervening, ctx.post, trials, seed, 0)()
    if not counts.any():
        raise NoAcceptedTrials(
            f"no trial passed post-selection in {trials} trials; raise the trial count"
        )
    return EnsembleStats(trials, tuple(zip(ctx.intervening.labels, map(int, counts))), int(seed))


def estimate_interposition_effect(
    pre: StateVector, q: Observable, post: StateVector, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical post-selection rates without (stream 0) and with (stream 1)
    the observable interposed. Both passes are checked before either samples."""
    without = _sampling_pass(pre, None, post, trials, seed, 0)
    with_q = _sampling_pass(pre, q, post, trials, seed, 1)
    return int(without().sum()) / trials, int(with_q().sum()) / trials
