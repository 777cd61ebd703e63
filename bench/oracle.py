"""Closed-form oracle for the benchmark's correctness checks.

Nothing here imports abl_engine: every expected value is computed from the
orthonormal bases that span each outcome. An observable is a list of
(label, E) pairs, where the columns of E span outcome k, so
<a|P_k|b> = (E^+ a)^+ (E^+ b), and the ABL, Kastner, marginal,
interposition, decomposition and product-rule values follow in closed form.

Monte Carlo counts are checked with a binomial test, and sampled histories
by replaying the documented Philox stream layout: trial i of stream s owns
counter blocks [i*B, (i+1)*B) of Philox(key=[seed, s]), B = ceil((n+1)/4)
for n interposed observables, and draw j of the trial is 1 - (j-th double).

The tolerances mirror the engine's documented ones where a value is
categorical (which decomposition condition holds, whether a product is
zero); random contexts sit far from those thresholds.
"""

from __future__ import annotations

import math

import numpy as np

VALUE_TOL = 1e-9  # relative to max(1, |expected|); reports carry ~15 digits
NEAR_ZERO_WEIGHT = 1e-11  # the engine may snap transition weights this small to 0
MC_SIGMAS = 5.0
# Beyond MC_SIGMAS standard errors a count fails only when the Chernoff bound
# on its tail probability is below 1e-9: a run makes ~1e4 comparisons, and at
# 5 sigma alone a correct engine would fail about one run in 150.
MC_LOG_TAIL = math.log(1e9)
BOUNDARY_TOL = 1e-9  # replayed draws this close to a branch boundary decide nothing
COND_TOL = 1e-9  # decomposition interference terms, product-rule certainty
OPERATOR_TOL = 1e-10  # zero product operator, eigenket tests
DRAWS_PER_BLOCK = 4


def amplitudes(a: np.ndarray, outcomes, b: np.ndarray) -> np.ndarray:
    """<a|P_k|b> for every outcome k."""
    return np.array([np.vdot(E.conj().T @ a, E.conj().T @ b) for _, E in outcomes])


def context_values(a: np.ndarray, outcomes, b: np.ndarray) -> dict:
    weights = np.abs(amplitudes(a, outcomes, b)) ** 2
    marginal = float(weights.sum())
    direct = float(abs(np.vdot(a, b)) ** 2)
    return {
        "labels": [label for label, _ in outcomes],
        "weights": weights,
        "abl": weights / marginal,
        "marginal": marginal,
        "direct": direct,
        "kastner": weights / direct,
    }


def decomposition(a: np.ndarray, q, basis) -> dict:
    """lhs_j = p(q_j|a) and rhs_j = sum_i p(q_j,b_i|a) / p(b_i|a,Q) * p(b_i|a)
    for a rank-1 final basis, with the condition that makes them equal."""
    kets = np.column_stack([E[:, 0] for _, E in basis])
    projected = np.column_stack([E @ (E.conj().T @ a) for _, E in q])  # P_j a
    c = kets.conj().T @ projected  # c[i, j] = <b_i|P_j|a>
    joint = np.abs(c) ** 2
    with_q = joint.sum(axis=1)
    direct = np.abs(kets.conj().T @ a) ** 2
    lhs = np.sum(np.abs(projected) ** 2, axis=0)
    rhs = (joint / with_q[:, None] * direct[:, None]).sum(axis=0)
    if any(np.linalg.norm(projected[:, j] - a) <= OPERATOR_TOL for j in range(len(q))):
        which = "Q_equals_A"
    elif all(
        any(1.0 - np.linalg.norm(E.conj().T @ kets[:, i]) ** 2 <= OPERATOR_TOL for _, E in q)
        for i in range(kets.shape[1])
    ):
        which = "Q_equals_B"
    else:
        cross = np.real(c.conj()[:, :, None] * c[:, None, :])  # [i, j, k]
        off_diagonal = ~np.eye(len(q), dtype=bool)
        which = "none" if np.abs(cross[:, off_diagonal]).max(initial=0.0) > COND_TOL else "interference_term_zero"
    return {
        "labels": [label for label, _ in q],
        "lhs": lhs,
        "rhs": rhs,
        "which": which,
        "max_residual": float(np.abs(lhs - rhs).max()),
    }


def product_rule(a: np.ndarray, b: np.ndarray, x, y) -> dict:
    """ABL certainty of the first outcome of x and of y, and their projector product."""
    x_prob = float(context_values(a, x, b)["abl"][0])
    y_prob = float(context_values(a, y, b)["abl"][0])
    (_, ex), (_, ey) = x[0], y[0]
    product = ex @ ex.conj().T @ ey @ ey.conj().T
    norm = float(np.abs(product).max())
    zero = norm <= OPERATOR_TOL
    return {
        "x_label": x[0][0],
        "y_label": y[0][0],
        "x_probability": x_prob,
        "y_probability": y_prob,
        "product_norm": norm,
        "product_is_zero": zero,
        "violation": x_prob >= 1.0 - COND_TOL and y_prob >= 1.0 - COND_TOL and zero,
    }


def replay(seed: int, stream: int, trial: int, a: np.ndarray, observables, b: np.ndarray):
    """(labels, accepted, ambiguous) of one sampled history. Ambiguous means a
    draw fell within BOUNDARY_TOL of a branch or acceptance boundary, where
    rounding may decide either way."""
    n = len(observables)
    blocks = -(-(n + 1) // DRAWS_PER_BLOCK)
    bit_gen = np.random.Philox(key=[seed, stream])
    bit_gen.advance(trial * blocks)
    u = 1.0 - np.random.Generator(bit_gen).random(n + 1)
    state = a
    labels = []
    ambiguous = False
    for draw, outcomes in zip(u, observables):
        coords = [E.conj().T @ state for _, E in outcomes]
        probs = np.array([np.vdot(c, c).real for c in coords])
        cumulative = np.cumsum(probs) / probs.sum()
        k = int(np.argmax(cumulative >= draw)) if cumulative[-1] >= draw else len(outcomes) - 1
        ambiguous |= bool(np.any(np.abs(cumulative[:-1] - draw) < BOUNDARY_TOL))
        labels.append(outcomes[k][0])
        state = outcomes[k][1] @ coords[k]
        state = state / np.linalg.norm(state)
    p_accept = abs(np.vdot(b, state)) ** 2
    ambiguous |= abs(u[n] - p_accept) < BOUNDARY_TOL
    return tuple(labels), bool(u[n] <= p_accept), ambiguous


def _xlogx(q: float, p: float) -> float:
    return 0.0 if q == 0.0 else q * math.log(q / p)


def binomial_ok(k: int, n: int, p: float) -> bool:
    """Is k successes in n trials consistent with probability p?"""
    if p <= 0.0:
        return k == 0
    if p >= 1.0:
        return k == n
    if abs(k - n * p) <= MC_SIGMAS * math.sqrt(n * p * (1.0 - p)):
        return True
    q = k / n
    return n * (_xlogx(q, p) + _xlogx(1.0 - q, 1.0 - p)) <= MC_LOG_TAIL


class Check:
    """Collects the invariants a result breaks, each named."""

    def __init__(self, prefix: str = ""):
        self.prefix = prefix
        self.broken: list[str] = []

    def _fail(self, name: str, detail: str) -> None:
        self.broken.append(f"{self.prefix}{name}: {detail}")

    def equal(self, name: str, got, want) -> None:
        if got != want:
            self._fail(name, f"got {got!r}, want {want!r}")

    def value(self, name: str, got, want, slack: float = 0.0) -> None:
        want = float(want)
        if not (
            isinstance(got, (int, float))
            and math.isfinite(got)
            and abs(got - want) <= VALUE_TOL * max(1.0, abs(want)) + slack
        ):
            self._fail(name, f"got {got!r}, want {want!r}")

    def entries(self, name: str, got, labels, want, slack=None) -> None:
        """got: [(label, value)] in outcome order."""
        got_labels = [label for label, _ in got]
        if got_labels != list(labels):
            self._fail(name + ".labels", f"got {got_labels}, want {list(labels)}")
            return
        for i, ((label, value), expected) in enumerate(zip(got, want)):
            self.value(f"{name}[{label}]", value, expected, 0.0 if slack is None else slack[i])

    def counts(self, name: str, counts, accepted: int, trials: int, labels, probs, marginal) -> None:
        """counts: [(label, count)] over accepted trials of `trials`."""
        got_labels = [label for label, _ in counts]
        if got_labels != list(labels):
            self._fail(name + ".labels", f"got {got_labels}, want {list(labels)}")
            return
        if sum(c for _, c in counts) != accepted:
            self._fail(name + ".total", f"counts sum to {sum(c for _, c in counts)}, accepted {accepted}")
        self.binomial(name + ".accepted", accepted, trials, marginal)
        for (label, count), p in zip(counts, probs):
            self.binomial(f"{name}[{label}]", count, accepted, p)

    def binomial(self, name: str, k: int, n: int, p) -> None:
        if not binomial_ok(k, n, float(p)):
            self._fail(name, f"{k} of {n} at p={float(p)!r}")


def near_zero_slack(values: dict, key: str) -> list[float]:
    """Tolerance for entries whose weight the engine may have snapped to zero."""
    return [
        ratio if weight <= NEAR_ZERO_WEIGHT else 0.0
        for weight, ratio in zip(values["weights"], values[key])
    ]
