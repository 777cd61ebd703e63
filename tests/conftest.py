"""Shared random constructors for property tests, the Born-chain oracle, the
JSON writers for the CLI's input files, the sampler's exact law, and a
plain-Python Philox that recounts the sampler's seeded counts.

Everything is driven by an explicit numpy Generator so each test fixes its
own seed; nothing here touches global RNG state.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from abl_engine import (
    Observable,
    SelectionContext,
    StateVector,
    abl,
    basis_state,
    projector_from_span,
)
from abl_engine.ensemble import _branch_tables


def born_chain(pre: np.ndarray, projectors) -> float:
    """Probability that ideal measurements on the pure state `pre` give the
    outcomes with these projector matrices, in order. Plain numpy on density
    matrices, calling nothing from the engine: W = |pre><pre|, then for each
    P the trace rule Tr[W P] and the Lueders update P W P / Tr[P W P]."""
    w = np.outer(pre, np.conj(pre))
    joint = 1.0
    for p in projectors:
        probability = float(np.trace(w @ p).real)
        if probability <= 0.0:
            return 0.0
        joint *= probability
        projected = p @ w @ p
        w = projected / np.trace(projected).real
    return joint


def state_json(state) -> dict:
    """The input-file object of a StateVector or of a plain amplitude array:
    `dim` and one [re, im] per amplitude."""
    amplitudes = state.amplitudes if isinstance(state, StateVector) else np.asarray(state)
    return {
        "dim": int(amplitudes.size),
        "amplitudes": [[float(z.real), float(z.imag)] for z in amplitudes],
    }


def observable_json(observable: Observable) -> dict:
    """The input-file object of an observable: each outcome's label and an
    orthonormal basis of its range, the eigenvectors of eigenvalue 1."""
    outcomes = []
    for p in observable.outcomes:
        eigenvalues, eigenvectors = np.linalg.eigh(p.matrix)
        span = [eigenvectors[:, i] for i in np.flatnonzero(eigenvalues > 0.5)]
        if not span:
            raise ValueError(f"cannot encode rank-0 projector {p.label!r}")
        outcomes.append({"label": p.label, "span": [state_json(v) for v in span]})
    return {"dim": observable.dim, "outcomes": outcomes}


def _sylvester_hadamard(dim):
    """Rows of the dim x dim Sylvester-Hadamard matrix, entries +-1."""
    rows = np.ones((1, 1), dtype=int)
    while len(rows) < dim:
        rows = np.block([[rows, rows], [rows, -rows]])
    return rows.tolist()


def unit(vector) -> StateVector:
    """The state along a finite nonzero vector: the vector over its norm."""
    arr = np.asarray(vector, dtype=complex)
    return StateVector(arr / np.linalg.norm(arr))


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    return unit(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def random_observable(
    rng: np.random.Generator, dim: int, n_outcomes: int | None = None
) -> Observable:
    """Projective observable from a Haar-ish unitary with a random partition
    of the basis columns into outcome subspaces."""
    if n_outcomes is None:
        n_outcomes = int(rng.integers(2, dim + 1)) if dim > 1 else 1
    gauss = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    unitary, _ = np.linalg.qr(gauss)
    cuts = sorted(rng.choice(np.arange(1, dim), size=n_outcomes - 1, replace=False))
    bounds = [0, *cuts, dim]
    projectors = []
    for idx in range(n_outcomes):
        cols = [
            StateVector(unitary[:, j]) for j in range(bounds[idx], bounds[idx + 1])
        ]
        projectors.append(projector_from_span(cols, f"q{idx}"))
    return Observable(tuple(projectors))


def random_context(
    rng: np.random.Generator,
    dim: int,
    min_marginal: float = 1e-3,
    min_direct: float = 0.0,
) -> SelectionContext:
    """Random reachable context; redraws until the post-selection rate (and
    optionally the direct overlap) clears the requested floor."""
    from abl_engine import marginal_with_Q

    for _ in range(200):
        pre = random_state(rng, dim)
        post = random_state(rng, dim)
        obs = random_observable(rng, dim)
        if abs(np.vdot(pre.amplitudes, post.amplitudes)) ** 2 < min_direct:
            continue
        try:
            ctx = SelectionContext(pre, post, obs)
        except Exception:
            continue
        if marginal_with_Q(ctx) >= min_marginal:
            return ctx
    raise AssertionError("could not draw a usable random context")


def snapped_weight_context() -> SelectionContext:
    """d = 2 with the basis observable, a = (sqrt 0.1, sqrt 0.9) and
    b = (e, sqrt(1 - e^2)), e^2 = 5e-12. Outcome 0's transition weight
    0.1 e^2 = 5e-13 snaps to 0, while neither its branch probability 0.1 nor
    its conditional acceptance e^2 does."""
    e = math.sqrt(5e-12)
    a = StateVector(np.array([math.sqrt(0.1), math.sqrt(0.9)], dtype=complex))
    b = StateVector(np.array([e, math.sqrt(1.0 - e * e)], dtype=complex))
    basis = Observable(
        tuple(projector_from_span([basis_state(2, i)], f"z{i}") for i in range(2))
    )
    return SelectionContext(a, b, basis)


def snapped_born_context() -> SelectionContext:
    """d = 2 with the basis observable, a = (e, sqrt(1 - e^2)), e^2 = 5e-13,
    and b = (1, 1) / sqrt 2. Outcome 0's Born weight ||P_0 a||^2 = 5e-13
    snaps to 0, and so does its transition weight e^2 / 2."""
    e = math.sqrt(5e-13)
    a = StateVector(np.array([e, math.sqrt(1.0 - e * e)], dtype=complex))
    b = unit([1.0, 1.0])
    return SelectionContext(a, b, snapped_weight_context().intervening)


# The exact law of the sampler. A draw m is uniform on [0, 2**53), and every
# bound q the kernels compare it with is an integer, so P(m < q) = q * 2**-53
# exactly: the chance that a trial takes branch k and passes the
# post-selection is a dyadic rational read off the tables without a single
# draw.

# |law_k - abl_k * sum(law)| in units of 2**-53: the branch's two bounds and
# its acceptance bound each lose less than one unit to their floors, plus the
# rounding of the cumulative sum. Dividing by sum(law), the acceptance rate,
# scales the same bound up for law_k / sum(law). A path through two
# observables multiplies two branch widths, each below 1, and its
# acceptance; over 300 random contexts at d = 2..16 the worst path was off
# by 1.2 units.
LAW_ULPS = 4


def _exact_law(pre, observables, post):
    """{path: the chance that run_trial takes this path of branches and
    passes the post-selection}, for amplitude arrays pre and post, by
    run_trial's walk: the product of each branch's width between its rising
    bounds, from the normalized projected state the path has reached, times
    the last branch's acceptance. Paths through a branch never drawn are left
    out."""
    law = {}

    def walk(psi, path, taken):
        projected, probs, rising, accept_from = _branch_tables(psi, observables[len(path)], post)
        assert rising.dtype == accept_from.dtype == np.uint64
        rising = [Fraction(int(b), 2**53) for b in rising]
        accept_from = [Fraction(int(b), 2**53) for b in accept_from]
        # the branch is the number of rising bounds above m, so branch j owns
        # [edges[k - 1 - j], edges[k - j]) * 2**53; acceptance needs m >= its
        # bound
        edges = [Fraction(0), *rising, Fraction(1)]
        k = len(accept_from)
        for j, a in enumerate(accept_from):
            width = taken * (edges[k - j] - edges[k - 1 - j])
            if len(path) + 1 == len(observables):
                law[path + (j,)] = width * (1 - a)
            elif width:
                walk(projected[j] / np.sqrt(probs[j]), path + (j,), width)

    walk(pre, (), Fraction(1))
    return law


def _assert_law_is_abl(ctx, *later):
    """run_trial's exact law through ctx's observable, then each later one,
    normalized over the paths, is the ABL distribution of ctx for one
    observable, and for more the path weights |<b|P_kn ... P_k1|a>|^2 of
    path enumeration, normalized."""
    observables = [ctx.intervening, *later]
    law = _exact_law(ctx.pre.amplitudes, observables, ctx.post.amplitudes)
    expected = {(j,): value for j, (_, value) in enumerate(abl(ctx).entries)}
    if later:
        weights = {}
        for path in itertools.product(*(range(len(obs.outcomes)) for obs in observables)):
            v = ctx.pre.amplitudes
            for obs, j in zip(observables, path):
                v = obs.outcomes[j].matrix @ v
            weights[path] = abs(np.vdot(ctx.post.amplitudes, v)) ** 2
        expected = {path: w / sum(weights.values()) for path, w in weights.items()}
    total = sum(law.values())
    for path, value in expected.items():
        weight = law.get(path, 0)
        if value == 0.0 or not later:
            # a path the oracle rules out is never counted; for one observable
            # the snapped ABL zeros are exactly the paths never counted
            assert (weight == 0) == (value == 0.0), path
        assert abs(weight / total - Fraction(value)) <= LAW_ULPS * Fraction(1, 2**53) / total, path


# Philox4x64-10 (Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as
# easy as 1, 2, 3", SC '11) on Python ints, calling nothing from numpy: ten
# rounds of two 64 x 64 -> 128-bit multiplies, each followed by a Weyl bump of
# the key.
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
WORD = 2**64 - 1


def philox_block(key0: int, key1: int, counter: int) -> list[int]:
    """The four 64-bit words Philox4x64-10 makes from a 256-bit counter under
    the key (key0, key1)."""
    c0, c1, c2, c3 = (counter >> shift & WORD for shift in (0, 64, 128, 192))
    for _ in range(10):
        p0, p1 = PHILOX_M[0] * c0, PHILOX_M[1] * c2
        c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ key0, p1 & WORD, p0 >> 64 ^ c3 ^ key1, p0 & WORD
        key0, key1 = (key0 + PHILOX_W[0]) & WORD, (key1 + PHILOX_W[1]) & WORD
    return [c0, c1, c2, c3]


def philox_recount(seed: int, stream: int, trials: int, filters) -> list[int]:
    """Post-selected trials per branch of each filter (column, rising,
    accept_from) in turn, over trials [0, trials) of the stream, one trial at a
    time: trial i reads counter i + 1 under the key (seed, stream), its branch
    is the number of rising bounds above word 0 >> 11, and it passes when
    word column >> 11 is at least its branch's acceptance bound."""
    tables = [
        (column, [int(b) for b in rising], [int(b) for b in accept_from])
        for column, rising, accept_from in filters
    ]
    counts = [[0] * len(accept_from) for _, _, accept_from in tables]
    for i in range(trials):
        m = [word >> 11 for word in philox_block(seed, stream, i + 1)]
        for (column, rising, accept_from), counted in zip(tables, counts):
            branch = sum(m[0] < bound for bound in rising)
            counted[branch] += m[column] >= accept_from[branch]
    return [count for counted in counts for count in counted]
