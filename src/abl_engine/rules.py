"""Two-time probability rules for pre- and post-selected systems.

Covers the pure-state Born rule, the ABL rule and its Born reduction,
Kastner's rival rule, the decomposition identity with its validity
conditions, the interposition comparison, and the product-rule check.
Degenerate (rank > 1) projectors are first-class everywhere; the rank-1
forms are special cases.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .core import (
    NORM_TOL,
    ZERO_PROB_TOL,
    Observable,
    StateVector,
    _check_unique,
    _check_within,
    _is_real,
    _same_dim,
    _snap,
    _snapped_weights,
)
from .errors import (
    DegeneratePostObservable,
    ImpossiblePostSelection,
    NonCommutingObservables,
    OrthogonalPrePost,
    ValidationError,
)

WhichCondition = Literal["Q_equals_A", "Q_equals_B", "interference_term_zero", "none"]


def _transition_weights(
    pre: np.ndarray, observable: Observable | None, post: np.ndarray
) -> tuple[float, ...]:
    """Snapped |<a|P_k|b>|^2 for each outcome of the observable, or the one
    weight |<a|b>|^2 when there is none."""
    images = [post] if observable is None else [p.matrix @ post for p in observable.outcomes]
    return _snapped_weights([np.vdot(pre, v) for v in images])


def born_prob_pure(psi: StateVector, q: StateVector) -> float:
    """|<psi|q>|^2 for unit vectors, clamped and snapped as every weight is."""
    _same_dim(psi, q)
    return _transition_weights(psi.amplitudes, None, q.amplitudes)[0]


def _projections(psi: np.ndarray, observable: Observable) -> tuple[np.ndarray, np.ndarray]:
    """The projected vectors P_j psi, one row per outcome, and their snapped
    Born weights ||P_j psi||^2."""
    projected = np.array([p.matrix @ psi for p in observable.outcomes])
    return projected, _snap(np.array([np.vdot(v, v).real for v in projected]))


@dataclass(frozen=True, eq=False)
class SelectionContext:
    """Pre-selection |a>, post-selection |b>, and the observable interposed between them.

    Nothing evolves between the measurements. Construction fails if the
    pre/post pair is unreachable with the observable interposed, that is, if
    every transition weight snaps to zero; `abl` divides by the sum of those
    same weights.
    """

    pre: StateVector
    post: StateVector
    intervening: Observable
    # per-outcome |<a|P_k|b>|^2, snapped by _transition_weights
    transition_weights: tuple[float, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _same_dim(self.pre, self.post, self.intervening)
        weights = _transition_weights(self.pre.amplitudes, self.intervening, self.post.amplitudes)
        if not any(weights):
            raise ImpossiblePostSelection(
                "pre/post pair is unreachable with this observable interposed"
            )
        object.__setattr__(self, "transition_weights", weights)


@dataclass(frozen=True)
class _LabeledValues:
    """Values under unique labels; each subclass checks the values."""

    entries: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        _check_unique(self.labels)
        self._check_values()

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.entries)

    def __getitem__(self, label: str) -> float:
        return self.as_dict()[label]

    def as_dict(self) -> dict[str, float]:
        return dict(self.entries)


class ProbabilityDistribution(_LabeledValues):
    """Labeled probabilities that sum to one."""

    def _check_values(self) -> None:
        for label, value in self.entries:
            if not (_is_real(value) and 0.0 <= value <= 1.0):
                raise ValidationError(f"probability for {label!r} is outside [0, 1]")
        total = sum(value for _, value in self.entries)
        if abs(total - 1.0) > NORM_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")


class WeightAssignment(_LabeledValues):
    """Labeled nonnegative weights; no sum constraint."""

    def _check_values(self) -> None:
        for label, value in self.entries:
            if not (_is_real(value) and 0.0 <= value < np.inf):
                raise ValidationError(
                    f"weight for {label!r} must be a finite number >= 0, got {value}"
                )

    def total(self) -> float:
        return sum(value for _, value in self.entries)


@dataclass(frozen=True)
class OutcomeDecomposition:
    """One row of a decomposition report; residual = |lhs - rhs|."""

    label: str
    lhs: float
    rhs: float
    residual: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "residual", abs(self.lhs - self.rhs))


@dataclass(frozen=True)
class DecompositionReport:
    outcomes: tuple[OutcomeDecomposition, ...]
    which_condition: WhichCondition

    @property
    def conditions_hold(self) -> bool:
        return self.which_condition != "none"

    @property
    def max_residual(self) -> float:
        return max(entry.residual for entry in self.outcomes)


@dataclass(frozen=True)
class ProductRuleReport:
    """ABL certainties for two commuting observables versus their projector product."""

    x_label: str
    y_label: str
    x_probability: float
    y_probability: float
    product_norm: float
    product_is_zero: bool
    violation: bool


# ---------------------------------------------------------------------------
# operations


def marginal_with_Q(ctx: SelectionContext) -> float:
    """Probability of the post-selection given the observable is measured, any result."""
    return min(sum(ctx.transition_weights), 1.0)


def abl(ctx: SelectionContext) -> ProbabilityDistribution:
    """Two-time conditional distribution over the interposed outcomes.

    p(q|a,b) = |<a|P_q|b>|^2 / sum_j |<a|P_j|b>|^2. Outcomes whose
    transition amplitude vanishes get probability exactly zero. The context
    holds the snapped weights and was refused if they sum to zero, so the
    ABL rule succeeds on every context that can be built.
    """
    weights = ctx.transition_weights
    denominator = sum(weights)
    return ProbabilityDistribution(
        tuple(
            (label, value / denominator)
            for label, value in zip(ctx.intervening.labels, weights)
        )
    )


def abl_trivial_reduction(pre: StateVector, q_basis: Observable) -> ProbabilityDistribution:
    """ABL distribution with the trivial property in place of the post-selection.

    Computed through the two-time formula (numerators ||P_j |a>||^2, then
    normalized); agreement with the one-time Born values is a theorem, not
    an implementation shortcut.
    """
    _same_dim(pre, q_basis)
    _, numerators = _projections(pre.amplitudes, q_basis)
    values = numerators / sum(numerators)
    return ProbabilityDistribution(tuple(zip(q_basis.labels, map(float, values))))


def kastner(ctx: SelectionContext) -> WeightAssignment:
    """Rival rule |<a|P_q|b>|^2 / |<a|b>|^2; not a normalized distribution.

    The denominator adds amplitudes (no measurement made) while each
    numerator assumes one; the weights are exposed so that inconsistency
    is checkable rather than adjudicated.
    """
    denominator = born_prob_pure(ctx.pre, ctx.post)
    if denominator == 0.0:
        raise OrthogonalPrePost(
            f"the direct weight |<a|b>|^2 snapped to 0 (at or below {ZERO_PROB_TOL});"
            " rule undefined"
        )
    return WeightAssignment(
        tuple(
            (label, value / denominator)
            for label, value in zip(ctx.intervening.labels, ctx.transition_weights)
        )
    )


def decomposition_check(
    pre: StateVector, q: Observable, b_obs: Observable
) -> DecompositionReport:
    """Test the decomposition of prior outcome probabilities over final results.

    For each outcome q_j, compares lhs = p(q_j|a) with
    rhs = sum_i [p(q_j,b_i|a) / p(b_i|a,Q)] p(b_i|a), an identity only
    under specific conditions: the pre-state is an eigenket of the
    observable (Q_equals_A), every post ket is (Q_equals_B), or all
    interference cross-terms snap to 0 (interference_term_zero).
    """
    _same_dim(pre, q, b_obs)
    if len(b_obs.outcomes) < 2 or any(p.rank != 1 for p in b_obs.outcomes):
        raise DegeneratePostObservable(
            "post observable needs at least two rank-1 outcomes"
        )

    a = pre.amplitudes
    projected, born = _projections(a, q)  # rows u_j = P_j |a>, born_j = p(q_j|a)
    b_mats = [p.matrix for p in b_obs.outcomes]
    # <b_i|, up to a phase that cancels in every product below: the conjugate
    # of rank-1 B_i's column at its largest diagonal entry, normalized
    columns = [int(np.argmax(b.diagonal().real)) for b in b_mats]
    bras = np.array([b[:, c].conj() / np.sqrt(b[c, c].real) for b, c in zip(b_mats, columns)])
    amp = bras @ projected.T  # amp[i, j] = <b_i|P_j|a>

    joint = np.array([_snapped_weights(row) for row in amp])  # p(q_j, b_i | a)
    with_q = joint.sum(axis=1)  # p(b_i | a, Q)
    for label, value in zip(b_obs.labels, with_q):
        if value == 0.0:
            raise DegeneratePostObservable(
                f"outcome {label!r} is unreachable when the observable is measured"
            )
    direct = np.array(_snapped_weights(bras @ a))  # p(b_i | a)

    rhs = direct / with_q @ joint  # sum_i p(q_j, b_i|a) / p(b_i|a, Q) * p(b_i|a)
    rows = tuple(
        OutcomeDecomposition(label, min(float(lhs), 1.0), float(value))
        for label, lhs, value in zip(q.labels, born, rhs)
    )

    # structural cases first, so floating noise cannot misclassify them. The
    # largest entry of (P_j - I) B_i = (P_j b_i - b_i) b_i^dagger is
    # max|P_j b_i - b_i| max|b_i|, with |b_i> = conj(<b_i|)
    stacked = np.array([p.matrix for p in q.outcomes])  # P_j, shape (k, d, d)
    if any(np.linalg.norm(u - a) <= NORM_TOL for u in projected):
        which = "Q_equals_A"
    elif all(
        (np.abs(stacked @ b - b).max(axis=1) * np.abs(b).max() <= NORM_TOL).any()
        for b in bras.conj()
    ):
        which = "Q_equals_B"
    else:
        # interference terms Re <P_j a|B_i|P_k a> = Re(conj(amp_ij) amp_ik), snapped
        # as a probability is; the term for (k, j) equals the one for (j, k)
        j, k = np.triu_indices(len(projected), 1)
        cross = (amp[:, j].conj() * amp[:, k]).real
        which = "none" if _snap(np.abs(cross)).any() else "interference_term_zero"
    return DecompositionReport(rows, which)


def interposition_inequality(
    pre: StateVector, q: Observable, post: StateVector
) -> tuple[float, float]:
    """(p_direct, p_with_Q): post-selection probability without and with the observable.

    p_direct = |<a|b>|^2 and p_with_Q = sum_j |<a|P_j|b>|^2, from the snapped
    transition weights. Neither dominates the other in general, and as each
    weight snaps on its own, p_with_Q can be 0 while p_direct is not.
    """
    _same_dim(pre, q, post)
    p_direct = born_prob_pure(pre, post)
    p_with_q = sum(_transition_weights(pre.amplitudes, q, post.amplitudes))
    return p_direct, min(p_with_q, 1.0)


def product_rule_check(
    pre: StateVector, post: StateVector, x: Observable, y: Observable
) -> ProductRuleReport:
    """Check the product rule across two single-interposition contexts.

    Each observable's designated value, its first outcome, gets an ABL
    probability from its own context; the report flags a violation when both
    probabilities are exactly 1 (every other weight snapped to 0) yet the
    product of the designated projectors is zero.
    """
    _same_dim(pre, post, x, y)
    for p, q in itertools.product(x.outcomes, y.outcomes):
        what = f"projectors {p.label!r} and {q.label!r} must commute"
        commutator = p.matrix @ q.matrix - q.matrix @ p.matrix
        _check_within(what, "|PQ - QP|", commutator, NonCommutingObservables)
    px, py = x.outcomes[0], y.outcomes[0]
    x_prob = abl(SelectionContext(pre, post, x))[px.label]
    y_prob = abl(SelectionContext(pre, post, y))[py.label]
    product = px.matrix @ py.matrix
    product_norm = float(np.abs(product).max())
    product_is_zero = product_norm <= NORM_TOL
    violation = x_prob == 1.0 and y_prob == 1.0 and product_is_zero
    return ProductRuleReport(
        x_label=px.label,
        y_label=py.label,
        x_probability=x_prob,
        y_probability=y_prob,
        product_norm=product_norm,
        product_is_zero=product_is_zero,
        violation=violation,
    )
