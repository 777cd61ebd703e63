"""Seeded Monte Carlo verifier for pre- and post-selected ensembles.

Simulates sequential ideal measurements trial by trial: sample an outcome
with its conditional Born probability, collapse, repeat, then post-select
with a final binary measurement. Post-selection is a genuine filter, not
importance weighting, so the estimates stay independent of the formulas
they are checked against.

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
from typing import Sequence

import numpy as np

from .core import (
    ZERO_PROB_TOL,
    DensityOperator,
    Observable,
    Projector,
    StateVector,
    born_prob,
    luders_update,
)
from .errors import DimensionMismatch, NoAcceptedTrials, ValidationError
from .rules import ProbabilityDistribution, SelectionContext

DRAWS_PER_BLOCK = 4  # Philox-4x64: one counter block yields four doubles
CHUNK_TRIALS = 1 << 16  # fixed chunking keeps results thread-count independent


@dataclass(frozen=True)
class TrialOutcome:
    """One member of the ensemble: what each interposed measurement gave, and
    whether the final measurement matched the post-selection."""

    intermediate_labels: tuple[str, ...]
    post_selected: bool


@dataclass(frozen=True)
class EnsembleStats:
    """Post-selected relative frequencies with binomial standard errors."""

    trials: int
    accepted: int
    frequencies: tuple[tuple[str, float], ...]
    std_errors: tuple[tuple[str, float], ...]
    seed: int

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValidationError("trials must be at least 1")
        if not 0 <= self.accepted <= self.trials:
            raise ValidationError("accepted count must lie in [0, trials]")
        freq_labels = tuple(label for label, _ in self.frequencies)
        err_labels = tuple(label for label, _ in self.std_errors)
        if freq_labels != err_labels:
            raise ValidationError("frequency and std_error labels must match")
        if self.accepted > 0:
            total = sum(value for _, value in self.frequencies)
            if abs(total - 1.0) > 1e-9:
                raise ValidationError(f"frequencies sum to {total}, not 1")
        for label, value in self.std_errors:
            if value < 0.0:
                raise ValidationError(f"std_error for {label!r} is negative")

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.trials

    def frequency(self, label: str) -> float:
        return dict(self.frequencies)[label]

    def std_error(self, label: str) -> float:
        return dict(self.std_errors)[label]


# ---------------------------------------------------------------------------
# deterministic per-trial streams


def _validate_seed(seed: int) -> int:
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise ValidationError("seed must be an integer")
    if not 0 <= int(seed) < 2**64:
        raise ValidationError("seed must fit in an unsigned 64-bit integer")
    return int(seed)


def _blocks_per_trial(n_observables: int) -> int:
    # one draw per interposed observable plus one for the final filter
    return (n_observables + 1 + DRAWS_PER_BLOCK - 1) // DRAWS_PER_BLOCK


def trial_stream(
    seed: int, trial_index: int, n_observables: int = 1, stream: int = 0
) -> np.random.Generator:
    """Generator positioned at the counter block range owned by one trial.

    Trial i owns blocks [i*B, (i+1)*B) with B = ceil((n_observables+1)/4),
    so batched draws over many trials reproduce per-trial draws exactly.
    """
    seed = _validate_seed(seed)
    if trial_index < 0:
        raise ValidationError("trial_index must be nonnegative")
    blocks = _blocks_per_trial(n_observables)
    bit_gen = np.random.Philox(key=[seed, stream])
    bit_gen.advance(trial_index * blocks)
    return np.random.Generator(bit_gen)


# ---------------------------------------------------------------------------
# sampling

# The cumulative array is "closed": branch probabilities at or below
# ZERO_PROB_TOL are snapped to zero and the rest renormalized, then every
# entry from the last positive branch on is set to exactly 1.0. Drawing
# u in (0, 1] with searchsorted(side="left") then never selects a zero
# branch, always selects some branch, and resolves boundary ties to the
# lower-indexed outcome.


def _closed_cumulative(probs: Sequence[float]) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    p = np.where(p <= ZERO_PROB_TOL, 0.0, p)
    total = p.sum()
    if total <= 0.0:
        raise RuntimeError("no branch has positive probability")
    c = np.cumsum(p / total)
    last_positive = int(np.nonzero(p)[0][-1])
    c[last_positive:] = 1.0
    return c


def _draw_index(cumulative: np.ndarray, rng: np.random.Generator) -> int:
    u = 1.0 - float(rng.random())
    return int(np.searchsorted(cumulative, u, side="left"))


def _accept_threshold(probability: float) -> float:
    # first entry of the closed cumulative for the binary filter {b, not-b}
    return float(_closed_cumulative([probability, 1.0 - probability])[0])


def _post_projector(post: StateVector) -> Projector:
    amps = post.amplitudes
    return Projector(np.outer(amps, amps.conj()), "post")


def run_trial(
    pre: StateVector,
    observables: Sequence[Observable],
    post: StateVector,
    rng_stream: np.random.Generator,
) -> TrialOutcome:
    """One simulated history: measure each observable in order, collapsing
    after each outcome, then apply the final post-selection filter."""
    if post.dim != pre.dim or any(obs.dim != pre.dim for obs in observables):
        raise DimensionMismatch("pre, post, and observables must share one dimension")
    state = DensityOperator.from_state(pre)
    labels = []
    for obs in observables:
        probs = [born_prob(state, p) for p in obs.outcomes]
        idx = _draw_index(_closed_cumulative(probs), rng_stream)
        labels.append(obs.labels[idx])
        state = luders_update(state, obs.outcomes[idx])
    p_accept = born_prob(state, _post_projector(post))
    u = 1.0 - float(rng_stream.random())
    return TrialOutcome(tuple(labels), bool(u <= _accept_threshold(p_accept)))


# ---------------------------------------------------------------------------
# vectorized estimators

# Each chunk regenerates its trials' draws from one Philox positioned at the
# chunk's first block, in sub-batches written into one buffer per worker
# thread: trial i's draws are the first columns of row i after reshaping
# the flat double stream by blocks-per-trial. A sub-batch continues the
# stream where the previous one stopped, so sub-batching never changes which
# draw a trial gets, and a sampler call allocates nothing in proportion to
# its trial count.
#
# The kernels compare the raw draw x = m * 2**-53 (numpy's `random`) against
# bounds computed once per call, instead of forming u = 1 - x per trial.
# u is exact, so for any v, u <= v holds exactly when x >= _raw_bound(v),
# and v < u exactly when x < _raw_bound(v). The kernels therefore pick the
# same branch as searchsorted(cumulative, u, "left") and accept the same
# trials as u <= threshold, and a serial loop over trial_stream and
# run_trial reproduces their counts bit for bit.

# Both constants were measured at 2^22 trials on a 2-core x86-64 host with
# numpy 2.4. A 512 KiB buffer of draws per worker stays in a core's L2 cache.
# Each numpy call holds the interpreter lock while it dispatches, so a
# sub-batch must be long enough for workers to overlap: two workers ran about
# 1.2x faster than one at 2^12 trials per sub-batch, and 1.5x at 2^14.
SUB_BATCH_TRIALS = 1 << 14
# Above this many branch bounds, one binary search per draw beats one
# comparison per bound; the two cost the same between 9 and 12 bounds.
MAX_COMPARED_BOUNDS = 8

_worker_buffers = threading.local()


def _thread_count() -> int:
    raw = os.environ.get("ABL_ENGINE_THREADS", "").strip()
    if raw == "":
        value = 0
    else:
        try:
            value = int(raw)
        except ValueError:
            raise ValidationError("ABL_ENGINE_THREADS must be an integer") from None
    if value < 0:
        raise ValidationError("ABL_ENGINE_THREADS must be nonnegative")
    if value == 0:
        return min(os.cpu_count() or 1, 8)
    return value


def _worker_count(chunks: int) -> int:
    # more threads than cores only adds contention, and a large
    # ABL_ENGINE_THREADS must never start thousands of OS threads
    return min(_thread_count(), chunks, os.cpu_count() or 1)


def _chunk_ranges(trials: int) -> list[tuple[int, int]]:
    return [
        (start, min(CHUNK_TRIALS, trials - start))
        for start in range(0, trials, CHUNK_TRIALS)
    ]


def _raw_bound(values) -> np.ndarray:
    """Exact bound on the raw draw x for each value v: with u = 1 - x,
    u <= v iff x >= bound and v < u iff x < bound."""
    scale = 2.0**53
    return 1.0 - np.floor(np.asarray(values, dtype=float) * scale) / scale


def _raw_tables(
    cumulative: np.ndarray, thresholds: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The interposed tables as raw-draw bounds: the ascending branch bounds
    that _branch_index takes, and the per-branch acceptance bounds."""
    return _raw_bound(cumulative[:-1][::-1]), _raw_bound(thresholds)


def _chunk_draws(seed: int, stream: int, start: int, count: int, blocks: int):
    """Yield the chunk's draws as (n, blocks * 4) sub-batches. Each one is a
    view of this thread's reused buffer, overwritten by the next."""
    width = blocks * DRAWS_PER_BLOCK
    buffer = getattr(_worker_buffers, "draws", None)
    if buffer is None or buffer.size < SUB_BATCH_TRIALS * width:
        buffer = _worker_buffers.draws = np.empty(SUB_BATCH_TRIALS * width)
    bit_gen = np.random.Philox(key=[seed, stream])
    bit_gen.advance(start * blocks)
    generator = np.random.Generator(bit_gen)
    for done in range(0, count, SUB_BATCH_TRIALS):
        n = min(SUB_BATCH_TRIALS, count - done)
        flat = buffer[: n * width]
        generator.random(out=flat)
        yield flat.reshape(n, width)


def _branch_index(x: np.ndarray, rising: np.ndarray) -> np.ndarray:
    # rising holds _raw_bound of the cumulative without its closing 1.0, in
    # ascending order; branch = number of bounds above x
    if len(rising) > MAX_COMPARED_BOUNDS:
        return len(rising) - np.searchsorted(rising, x, side="right")
    picked = np.zeros(len(x), dtype=np.intp)
    for bound in rising:
        picked += x < bound
    return picked


def _chunk_counts_interposed(
    seed: int,
    stream: int,
    start: int,
    count: int,
    rising: np.ndarray,
    accept_from: np.ndarray,
) -> np.ndarray:
    k = len(accept_from)
    counts = np.zeros(2 * k, dtype=np.int64)
    for draws in _chunk_draws(seed, stream, start, count, _blocks_per_trial(1)):
        picked = _branch_index(draws[:, 0], rising)
        accepted = draws[:, 1] >= accept_from[picked]
        counts += np.bincount(picked + k * accepted, minlength=2 * k)
    return counts[k:]


def _chunk_count_direct(
    seed: int, stream: int, start: int, count: int, accept_from: float
) -> int:
    return sum(
        int(np.count_nonzero(draws[:, 0] >= accept_from))
        for draws in _chunk_draws(seed, stream, start, count, _blocks_per_trial(0))
    )


def _map_chunks(fn, trials: int):
    chunks = _chunk_ranges(trials)
    workers = _worker_count(len(chunks))
    if workers <= 1:
        return [fn(start, count) for start, count in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(fn, start, count) for start, count in chunks]
        return [f.result() for f in futures]


def _interposed_tables(
    pre: StateVector, intervening: Observable, post: StateVector
) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative branch array and per-branch acceptance thresholds, computed
    through the same core calls run_trial makes."""
    state = DensityOperator.from_state(pre)
    post_proj = _post_projector(post)
    probs = [born_prob(state, p) for p in intervening.outcomes]
    cumulative = _closed_cumulative(probs)
    thresholds = np.zeros(len(probs))
    for k, p in enumerate(probs):
        if p > ZERO_PROB_TOL:
            collapsed = luders_update(state, intervening.outcomes[k])
            thresholds[k] = _accept_threshold(born_prob(collapsed, post_proj))
    return cumulative, thresholds


def estimate_abl(ctx: SelectionContext, trials: int, seed: int) -> EnsembleStats:
    """Relative frequencies of the interposed outcomes over post-selected
    trials; reproducible bit-exactly for a fixed (trials, seed)."""
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    seed = _validate_seed(seed)
    rising, accept_from = _raw_tables(
        *_interposed_tables(ctx.pre, ctx.intervening, ctx.post)
    )

    results = _map_chunks(
        lambda start, count: _chunk_counts_interposed(
            seed, 0, start, count, rising, accept_from
        ),
        trials,
    )
    counts = np.sum(results, axis=0)
    accepted = int(counts.sum())
    if accepted == 0:
        raise NoAcceptedTrials(
            f"no trial passed post-selection in {trials} trials; raise the trial count"
        )
    labels = ctx.intervening.labels
    freqs = counts / accepted
    errors = np.sqrt(freqs * (1.0 - freqs) / accepted)
    return EnsembleStats(
        trials=trials,
        accepted=accepted,
        frequencies=tuple(zip(labels, map(float, freqs))),
        std_errors=tuple(zip(labels, map(float, errors))),
        seed=seed,
    )


def estimate_interposition_effect(
    pre: StateVector, q: Observable, post: StateVector, trials: int, seed: int
) -> tuple[float, float]:
    """Empirical post-selection rates without (stream 0) and with (stream 1)
    the observable interposed."""
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    seed = _validate_seed(seed)
    if post.dim != pre.dim or q.dim != pre.dim:
        raise DimensionMismatch("pre, post, and observable must share one dimension")

    direct = born_prob(DensityOperator.from_state(pre), _post_projector(post))
    direct_from = float(_raw_bound(_accept_threshold(direct)))
    hits = _map_chunks(
        lambda start, count: _chunk_count_direct(seed, 0, start, count, direct_from),
        trials,
    )
    rate_without = int(np.sum(hits)) / trials

    rising, accept_from = _raw_tables(*_interposed_tables(pre, q, post))
    results = _map_chunks(
        lambda start, count: _chunk_counts_interposed(
            seed, 1, start, count, rising, accept_from
        ),
        trials,
    )
    rate_with = int(np.sum(results, axis=0).sum()) / trials
    return rate_without, rate_with


# ---------------------------------------------------------------------------
# serialization


def stats_to_json(stats: EnsembleStats) -> dict:
    return {
        "trials": stats.trials,
        "accepted": stats.accepted,
        "acceptance_rate": stats.acceptance_rate,
        "seed": stats.seed,
        "frequencies": dict(stats.frequencies),
        "std_errors": dict(stats.std_errors),
    }


def stats_csv_rows(
    stats: EnsembleStats, analytic: ProbabilityDistribution
) -> list[tuple[str, float, float, float, float]]:
    """Rows (label, frequency, std_error, analytic_abl, z_score); z is 0
    when the standard error vanishes."""
    rows = []
    for (label, freq), (_, err) in zip(stats.frequencies, stats.std_errors):
        expected = analytic[label]
        z = (freq - expected) / err if err > 0.0 else 0.0
        rows.append((label, freq, err, expected, z))
    return rows
