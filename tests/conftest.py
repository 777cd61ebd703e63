"""Shared random constructors for property tests, the Born-chain oracle, and
the JSON writers for the CLI's input files.

Everything is driven by an explicit numpy Generator so each test fixes its
own seed; nothing here touches global RNG state.
"""

import math

import numpy as np

from abl_engine import (
    Observable,
    SelectionContext,
    StateVector,
    basis_state,
    projector_from_span,
)


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
