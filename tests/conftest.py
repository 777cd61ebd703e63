"""Shared random constructors for property tests, the Born-chain oracle, the
JSON writers for the CLI's input files, and the sampler's exact law.

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


def random_state(rng: np.random.Generator, dim: int) -> StateVector:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(vec / np.linalg.norm(vec))


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
    from abl_engine import inner, marginal_with_Q

    for _ in range(200):
        pre = random_state(rng, dim)
        post = random_state(rng, dim)
        obs = random_observable(rng, dim)
        if abs(inner(pre, post)) ** 2 < min_direct:
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
    b = StateVector.normalized([1.0, 1.0])
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
