"""Two-time rules: frozen analytic values plus algebraic properties."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abl_engine import (
    DegeneratePostObservable,
    DimensionMismatch,
    ImpossiblePostSelection,
    NonCommutingObservables,
    Observable,
    OrthogonalPrePost,
    ProbabilityDistribution,
    Projector,
    SelectionContext,
    StateVector,
    ValidationError,
    WeightAssignment,
    ZERO_PROB_TOL,
    abl,
    abl_trivial_reduction,
    basis_state,
    decomposition_check,
    inner,
    interposition_inequality,
    kastner,
    marginal_with_Q,
    product_rule_check,
    projector_from_span,
    sequential_prob,
    trivial_observable,
)
from conftest import (
    born_chain,
    random_context,
    random_observable,
    random_state,
    snapped_born_context,
    snapped_weight_context,
)


# hand-built three-box pieces, independent of the scenarios module
def _boxes():
    a = StateVector.normalized([1.0, 1.0, 1.0])
    b = StateVector.normalized([1.0, 1.0, -1.0])
    p = [projector_from_span([basis_state(3, i)], lbl) for i, lbl in enumerate("ABC")]
    full = Observable(tuple(p))
    qa = Observable((p[0], Projector(p[1].matrix + p[2].matrix, "B∪C")))
    qb = Observable((p[1], Projector(p[0].matrix + p[2].matrix, "A∪C")))
    return a, b, full, qa, qb


def _spin_projectors(theta, phi=0.0):
    up = np.array([math.cos(theta / 2), cmath.exp(1j * phi) * math.sin(theta / 2)])
    down = np.array([math.sin(theta / 2), -cmath.exp(1j * phi) * math.cos(theta / 2)])
    return Observable(
        (
            Projector(np.outer(up, up.conj()), "up"),
            Projector(np.outer(down, down.conj()), "down"),
        )
    )


def test_three_box_abl_values():
    a, b, full, qa, qb = _boxes()
    dist = abl(SelectionContext(a, b, full))
    for label in "ABC":
        assert abs(dist[label] - 1.0 / 3.0) < 1e-12
    dist_a = abl(SelectionContext(a, b, qa))
    assert dist_a["A"] == 1.0
    assert dist_a["B∪C"] == 0.0
    dist_b = abl(SelectionContext(a, b, qb))
    assert dist_b["B"] == 1.0
    assert dist_b["A∪C"] == 0.0


def test_three_box_sequential_and_marginals():
    a, b, full, qa, _ = _boxes()
    ctx = SelectionContext(a, b, full)
    for label in "ABC":
        assert abs(sequential_prob(ctx, label) - 1.0 / 9.0) < 1e-12
    assert abs(marginal_with_Q(ctx) - 1.0 / 3.0) < 1e-12
    ctx_a = SelectionContext(a, b, qa)
    assert sequential_prob(ctx_a, "B∪C") < 1e-12
    assert abs(marginal_with_Q(ctx_a) - 1.0 / 9.0) < 1e-12


def test_context_validation():
    a = basis_state(3, 0)
    b = basis_state(3, 1)
    pa = projector_from_span([a], "a")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "rest")
    # <a|P_a|b> = 0 and <a|P_rest|b> = <a|b> = 0: unreachable
    with pytest.raises(ImpossiblePostSelection):
        SelectionContext(a, b, Observable((pa, rest)))
    with pytest.raises(DimensionMismatch):
        SelectionContext(a, basis_state(2, 0), Observable((pa, rest)))


def _split_basis_context(e, group_of):
    """d = 8, a ∝ (1,1,1,1,e,e,e,e), b ∝ (e,e,e,e,1,1,1,1), and an observable
    whose outcome g projects on the basis vectors i with group_of[i] == g."""
    a = StateVector.normalized([1.0] * 4 + [e] * 4)
    b = StateVector.normalized([e] * 4 + [1.0] * 4)
    groups = sorted(set(group_of))
    obs = Observable(
        tuple(
            projector_from_span(
                [basis_state(8, i) for i, g in enumerate(group_of) if g == group], f"g{group}"
            )
            for group in groups
        )
    )
    # closed form: every basis vector contributes a_i b_i = e / (4 + 4 e^2)
    weights = [
        (group_of.count(group) * e / (4.0 + 4.0 * e * e)) ** 2 for group in groups
    ]
    return a, b, obs, weights


def test_context_refuses_pairs_whose_every_weight_snaps():
    # each of the eight weights is about 5e-13, below the 1e-12 snap, while
    # their sum is 4e-12; the context used to accept the pair that abl refused
    a, b, obs, weights = _split_basis_context(2.83e-6, list(range(8)))
    assert max(weights) < ZERO_PROB_TOL < sum(weights)
    with pytest.raises(ImpossiblePostSelection):
        SelectionContext(a, b, obs)


@settings(deadline=None)
@given(
    st.floats(1e-7, 1e-5),
    st.lists(st.integers(0, 7), min_size=8, max_size=8),
)
def test_context_builds_iff_abl_succeeds(e, group_of):
    a, b, obs, weights = _split_basis_context(e, group_of)
    snapped = [0.0 if w <= ZERO_PROB_TOL else w for w in weights]
    for value in weights + [sum(snapped)]:
        assume(abs(value - ZERO_PROB_TOL) > 1e-9 * ZERO_PROB_TOL)
    try:
        ctx = SelectionContext(a, b, obs)
    except ImpossiblePostSelection:
        assert sum(snapped) <= ZERO_PROB_TOL
        return
    assert sum(snapped) > ZERO_PROB_TOL
    dist = abl(ctx)
    for label, w in zip(obs.labels, snapped):
        assert (dist[label] == 0.0) == (w == 0.0)
        assert dist[label] == pytest.approx(w / sum(snapped), rel=1e-9)


def test_sequential_prob_unknown_label():
    a, b, full, _, _ = _boxes()
    ctx = SelectionContext(a, b, full)
    from abl_engine import UnknownOutcomeLabel

    with pytest.raises(UnknownOutcomeLabel):
        sequential_prob(ctx, "D")


def test_distribution_and_weight_validation():
    with pytest.raises(ValidationError):
        ProbabilityDistribution((("a", 0.5), ("b", 0.6)))
    with pytest.raises(ValidationError):
        ProbabilityDistribution((("a", -0.1), ("b", 1.1)))
    with pytest.raises(ValidationError):
        ProbabilityDistribution((("a", 0.5), ("a", 0.5)))
    dist = ProbabilityDistribution((("a", 0.25), ("b", 0.75)))
    assert dist.labels == ("a", "b")
    assert dist.as_dict() == {"a": 0.25, "b": 0.75}
    with pytest.raises(KeyError):
        dist["c"]
    with pytest.raises(ValidationError):
        WeightAssignment((("a", -0.5),))
    w = WeightAssignment((("a", 1.5), ("b", 2.0)))
    assert w.total() == 3.5
    assert w["b"] == 2.0


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_abl_sums_to_one(seed, dim):
    ctx = random_context(np.random.default_rng(seed), dim)
    assert sum(abl(ctx).as_dict().values()) == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_abl_time_symmetry(seed, dim):
    ctx = random_context(np.random.default_rng(seed), dim)
    swapped = SelectionContext(ctx.post, ctx.pre, ctx.intervening)
    forward = abl(ctx)
    backward = abl(swapped)
    for label in forward.labels:
        assert forward[label] == pytest.approx(backward[label], abs=1e-9)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.floats(0.0, 2.0 * math.pi))
def test_global_phase_invariance(seed, dim, phase):
    ctx = random_context(np.random.default_rng(seed), dim)
    rotated = SelectionContext(
        StateVector(ctx.pre.amplitudes * cmath.exp(1j * phase)),
        ctx.post,
        ctx.intervening,
    )
    base, spun = abl(ctx), abl(rotated)
    for label in base.labels:
        assert base[label] == pytest.approx(spun[label], abs=1e-9)
    assert kastner(ctx).total() == pytest.approx(kastner(rotated).total(), abs=1e-9)
    lbl = ctx.intervening.labels[0]
    assert sequential_prob(ctx, lbl) == pytest.approx(sequential_prob(rotated, lbl), abs=1e-9)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_sequential_sums_to_marginal(seed, dim):
    ctx = random_context(np.random.default_rng(seed), dim)
    total = sum(sequential_prob(ctx, label) for label in ctx.intervening.labels)
    assert abs(total - marginal_with_Q(ctx)) < 1e-12


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
def test_sequential_equals_born_chain(seed, dim):
    ctx = random_context(np.random.default_rng(seed), dim)
    a, b = ctx.pre.amplitudes, ctx.post.amplitudes
    post_proj = np.outer(b, b.conj())
    for p in ctx.intervening.outcomes:
        chained = born_chain(a, [p.matrix, post_proj])
        assert sequential_prob(ctx, p.label) == pytest.approx(chained, abs=1e-10)


def test_abl_with_trivial_observable():
    rng = np.random.default_rng(31)
    pre, post = random_state(rng, 4), random_state(rng, 4)
    ctx = SelectionContext(pre, post, trivial_observable(4))
    assert abl(ctx).as_dict() == {"any": 1.0}
    assert marginal_with_Q(ctx) == pytest.approx(abs(inner(pre, post)) ** 2, abs=1e-12)


def test_abl_exact_zero_for_impossible_outcomes():
    a, b, _, qa, _ = _boxes()
    # the B∪C branch has vanishing transition amplitude: exactly zero, not 1e-35;
    # z0's weight 5e-13 (2.5e-13 with its Born weight 5e-13) is below the
    # snap. Every rule reads the snapped weights.
    for ctx, label in (
        (SelectionContext(a, b, qa), "B∪C"),
        (snapped_weight_context(), "z0"),
        (snapped_born_context(), "z0"),
    ):
        assert abl(ctx)[label] == 0.0
        assert kastner(ctx)[label] == 0.0
        assert sequential_prob(ctx, label) == 0.0
        _, p_with_q = interposition_inequality(ctx.pre, ctx.intervening, ctx.post)
        assert p_with_q == marginal_with_Q(ctx) == sum(ctx.transition_weights)


def test_abl_eigenket_cases():
    # Q = A: intervening contains |a><a|
    rng = np.random.default_rng(37)
    a = random_state(rng, 3)
    pa = projector_from_span([a], "mine")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "other")
    post = random_state(rng, 3)
    ctx = SelectionContext(a, post, Observable((pa, rest)))
    dist = abl(ctx)
    assert dist["mine"] == pytest.approx(1.0, abs=1e-9)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_trivial_reduction_matches_born(seed, dim):
    rng = np.random.default_rng(seed)
    pre = random_state(rng, dim)
    obs = random_observable(rng, dim)
    dist = abl_trivial_reduction(pre, obs)
    for p in obs.outcomes:
        assert dist[p.label] == pytest.approx(born_chain(pre.amplitudes, [p.matrix]), abs=1e-9)


def test_trivial_reduction_three_box():
    a, _, full, _, _ = _boxes()
    dist = abl_trivial_reduction(a, full)
    for label in "ABC":
        assert dist[label] == pytest.approx(1.0 / 3.0, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        abl_trivial_reduction(basis_state(2, 0), full)


def test_kastner_three_box_weights():
    a, b, full, _, _ = _boxes()
    weights = kastner(SelectionContext(a, b, full))
    for label in "ABC":
        assert abs(weights[label] - 1.0) < 1e-12
    assert abs(weights.total() - 3.0) < 1e-12


def test_kastner_orthogonal_pre_post():
    up, down = basis_state(2, 0), basis_state(2, 1)
    sx = _spin_projectors(math.pi / 2)
    ctx = SelectionContext(up, down, sx)  # reachable through sigma_x
    with pytest.raises(OrthogonalPrePost):
        kastner(ctx)
    assert abl(ctx)["up"] == pytest.approx(0.5, abs=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_kastner_identity(seed, dim):
    ctx = random_context(np.random.default_rng(seed), dim, min_direct=1e-6)
    weights = kastner(ctx)
    direct = abs(inner(ctx.pre, ctx.post)) ** 2
    assert weights.total() * direct == pytest.approx(marginal_with_Q(ctx), abs=1e-9)


def test_kastner_total_is_unnormalized_in_both_directions():
    # the total is marginal/direct, which lands on either side of 1:
    # three boxes give 3, +x through sigma_z back to +x gives 1/2
    a, b, full, _, _ = _boxes()
    assert kastner(SelectionContext(a, b, full)).total() == pytest.approx(3.0, abs=1e-12)
    plus_x = StateVector.normalized([1.0, 1.0])
    sz = Observable(
        (
            projector_from_span([basis_state(2, 0)], "up"),
            projector_from_span([basis_state(2, 1)], "down"),
        )
    )
    total = kastner(SelectionContext(plus_x, plus_x, sz)).total()
    assert total == pytest.approx(0.5, abs=1e-12)


def test_kastner_trivial_observable():
    rng = np.random.default_rng(41)
    pre, post = random_state(rng, 3), random_state(rng, 3)
    ctx = SelectionContext(pre, post, trivial_observable(3))
    weights = kastner(ctx)
    assert weights["any"] == pytest.approx(1.0, abs=1e-9)


def test_kastner_matches_abl_when_q_equals_a():
    rng = np.random.default_rng(43)
    a = random_state(rng, 3)
    pa = projector_from_span([a], "mine")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "other")
    post = random_state(rng, 3)
    ctx = SelectionContext(a, post, Observable((pa, rest)))
    dist, weights = abl(ctx), kastner(ctx)
    for label in ("mine", "other"):
        assert weights[label] == pytest.approx(dist[label], abs=1e-9)


# decomposition


def _sigma_z():
    return Observable(
        (
            projector_from_span([basis_state(2, 0)], "z+"),
            projector_from_span([basis_state(2, 1)], "z-"),
        )
    )


def _sigma_x_basis():
    return Observable(
        (
            projector_from_span([StateVector.normalized([1.0, 1.0])], "x+"),
            projector_from_span([StateVector.normalized([1.0, -1.0])], "x-"),
        )
    )


def test_decomposition_q_equals_a():
    rng = np.random.default_rng(47)
    a = random_state(rng, 3)
    pa = projector_from_span([a], "mine")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "other")
    b_obs = random_observable(rng, 3, n_outcomes=3)
    report = decomposition_check(a, Observable((pa, rest)), b_obs)
    assert report.which_condition == "Q_equals_A"
    assert report.conditions_hold
    assert report.max_residual < 1e-9


def test_decomposition_q_equals_b():
    z_basis = Observable(
        (
            projector_from_span([basis_state(2, 0)], "b0"),
            projector_from_span([basis_state(2, 1)], "b1"),
        )
    )
    cases = [(StateVector.normalized([1.0, 1.0j]), _sigma_z(), z_basis)]
    # d = 64, Q groups the kets of a Haar basis: every ket is tried against
    # the outcomes until one contains it
    rng = np.random.default_rng(53)
    unitary, _ = np.linalg.qr(rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64)))
    kets = [StateVector(unitary[:, i]) for i in range(64)]
    groups = np.array_split(rng.permutation(64), 47)
    q = Observable(
        tuple(projector_from_span([kets[i] for i in g], f"q{j}") for j, g in enumerate(groups))
    )
    basis = Observable(tuple(projector_from_span([v], f"b{i}") for i, v in enumerate(kets)))
    cases.append((random_state(rng, 64), q, basis))
    for case in cases:
        report = decomposition_check(*case)
        assert report.which_condition == "Q_equals_B"
        assert report.max_residual < 1e-9


def test_decomposition_interference_terms_vanish():
    # pre along +y, Q = sigma_z, final basis sigma_x: cross terms are purely
    # imaginary, so the identity holds without Q matching either side
    a = StateVector.normalized([1.0, 1.0j])
    report = decomposition_check(a, _sigma_z(), _sigma_x_basis())
    assert report.which_condition == "interference_term_zero"
    assert report.max_residual < 1e-9


def test_decomposition_counterexample():
    # pre = +z, Q along the 45-degree axis in the x-z plane, final basis
    # sigma_x; no condition holds and the identity visibly fails
    q45 = _spin_projectors(math.pi / 4)
    report = decomposition_check(basis_state(2, 0), q45, _sigma_x_basis())
    assert report.which_condition == "none"
    assert not report.conditions_hold
    assert report.max_residual > 0.01
    c4 = math.cos(math.pi / 8) ** 4
    expected = abs(math.cos(math.pi / 8) ** 2 - (c4 / 0.75 * 0.5 + 0.25))
    assert report.max_residual == pytest.approx(expected, abs=1e-9)


def test_decomposition_residual_definition():
    report = decomposition_check(basis_state(2, 0), _spin_projectors(math.pi / 4), _sigma_x_basis())
    for row in report.outcomes:
        assert row.residual == abs(row.lhs - row.rhs)


def test_decomposition_rejects_bad_post_observable():
    a = StateVector.normalized([1.0, 1.0, 1.0])
    with pytest.raises(DegeneratePostObservable):
        decomposition_check(a, random_observable(np.random.default_rng(1), 3), trivial_observable(3))
    coarse = Observable(
        (
            projector_from_span([basis_state(3, 0)], "b0"),
            projector_from_span([basis_state(3, 1), basis_state(3, 2)], "b12"),
        )
    )
    with pytest.raises(DegeneratePostObservable):
        decomposition_check(a, random_observable(np.random.default_rng(2), 3), coarse)


def test_decomposition_rejects_unreachable_final_outcome():
    a = basis_state(3, 0)
    pa = projector_from_span([a], "mine")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "other")
    zbasis = Observable(
        tuple(projector_from_span([basis_state(3, i)], f"b{i}") for i in range(3))
    )
    # p(b1|a,Q) = 0 with Q = {|a><a|, rest} and a = e0
    with pytest.raises(DegeneratePostObservable):
        decomposition_check(a, Observable((pa, rest)), zbasis)


def _ket_basis(*kets):
    return Observable(
        tuple(projector_from_span([StateVector(k)], f"b{i}") for i, k in enumerate(kets))
    )


def test_decomposition_reads_the_snapped_joint_weights():
    # the d = 2 context whose (z0, b) transition weight 0.1 e^2 = 5e-13 snaps
    ctx = snapped_weight_context()
    a, b = ctx.pre.amplitudes, ctx.post.amplitudes
    b_perp = np.array([b[1], -b[0]])
    assert ctx.transition_weights[0] == 0.0
    # plain numpy: joint[i, j] = |<b_i|z_j><z_j|a>|^2, with the one term the
    # context snaps set to exactly 0
    kets = np.array([b, b_perp])
    joint = np.abs(kets.conj() * a) ** 2
    assert joint[0, 0] == pytest.approx(5e-13, rel=1e-9)
    joint[0, 0] = 0.0
    direct = np.abs(kets.conj() @ a) ** 2
    expected = (joint / joint.sum(axis=1, keepdims=True) * direct[:, None]).sum(axis=0)
    report = decomposition_check(ctx.pre, ctx.intervening, _ket_basis(b, b_perp))
    for row, rhs in zip(report.outcomes, expected):
        assert row.rhs == pytest.approx(rhs, abs=1e-14)


def test_decomposition_refuses_a_final_ket_whose_every_joint_weight_snaps():
    # a = (s, t, 0) with the z basis as Q; b's two nonzero joint terms
    # |b_j a_j|^2 are 0.8e-12 each, so each snaps, though their sum does not
    s = t = math.sqrt(0.5)
    e = math.sqrt(1.6e-12)
    c = math.sqrt(1.0 - 2.0 * e * e)
    a = StateVector(np.array([s, t, 0.0]))
    zbasis = Observable(
        tuple(projector_from_span([basis_state(3, i)], f"z{i}") for i in range(3))
    )
    b = np.array([e, e, c])
    with pytest.raises(ImpossiblePostSelection):
        SelectionContext(a, StateVector(b), zbasis)
    b_perp = np.array([[1.0, -1.0, 0.0], [c, c, -2.0 * e]]) / math.sqrt(2.0)
    basis = _ket_basis(b, *b_perp)
    with pytest.raises(DegeneratePostObservable, match="'b0' is unreachable"):
        decomposition_check(a, zbasis, basis)


# interposition comparison


def test_interposition_three_box_values():
    a, b, full, _, _ = _boxes()
    p_direct, p_with_q = interposition_inequality(a, full, b)
    assert p_direct == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert p_with_q == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_interposition_trivial_observable_is_equality():
    rng = np.random.default_rng(53)
    pre, post = random_state(rng, 4), random_state(rng, 4)
    p_direct, p_with_q = interposition_inequality(pre, trivial_observable(4), post)
    assert p_direct == pytest.approx(p_with_q, abs=1e-12)


def test_interposition_can_go_either_way():
    # interposing can also lower the rate: |x+> -> |x+> through sigma_z
    plus = StateVector.normalized([1.0, 1.0])
    p_direct, p_with_q = interposition_inequality(plus, _sigma_z(), plus)
    assert p_direct == pytest.approx(1.0, abs=1e-12)
    assert p_with_q == pytest.approx(0.5, abs=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_interposition_lower_bound(seed, dim):
    # Cauchy-Schwarz gives p_direct <= K * p_with_Q for K outcomes
    rng = np.random.default_rng(seed)
    pre, post = random_state(rng, dim), random_state(rng, dim)
    obs = random_observable(rng, dim)
    p_direct, p_with_q = interposition_inequality(pre, obs, post)
    assert p_direct <= len(obs.outcomes) * p_with_q + 1e-12


def test_interposition_positivity_transfer():
    # p_with_Q vanishes only when p_direct does
    rng = np.random.default_rng(59)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        pre, post = random_state(rng, dim), random_state(rng, dim)
        obs = random_observable(rng, dim)
        p_direct, p_with_q = interposition_inequality(pre, obs, post)
        if p_direct > 1e-9:
            assert p_with_q > 0.0


# product rule


def test_product_rule_three_box_violation():
    a, b, _, qa, qb = _boxes()
    report = product_rule_check(a, b, qa, qb)
    assert report.x_label == "A" and report.y_label == "B"
    assert abs(report.x_probability - 1.0) < 1e-12
    assert abs(report.y_probability - 1.0) < 1e-12
    assert report.product_is_zero
    assert report.product_norm == 0.0
    assert report.violation


def test_product_rule_same_observable_no_violation():
    a, b, _, qa, _ = _boxes()
    report = product_rule_check(a, b, qa, qa)
    assert not report.violation
    assert not report.product_is_zero


def test_product_rule_compatible_diagonal_case():
    # dim 4: x distinguishes {01}|{23}, y distinguishes {02}|{13}; both certain
    # on e0 and the designated product is |e0><e0|, not zero
    pre = basis_state(4, 0)
    x = Observable(
        (
            projector_from_span([basis_state(4, 0), basis_state(4, 1)], "x0"),
            projector_from_span([basis_state(4, 2), basis_state(4, 3)], "x1"),
        )
    )
    y = Observable(
        (
            projector_from_span([basis_state(4, 0), basis_state(4, 2)], "y0"),
            projector_from_span([basis_state(4, 1), basis_state(4, 3)], "y1"),
        )
    )
    report = product_rule_check(pre, pre, x, y)
    assert report.x_probability == pytest.approx(1.0, abs=1e-12)
    assert report.y_probability == pytest.approx(1.0, abs=1e-12)
    assert not report.product_is_zero
    assert not report.violation


def test_product_rule_rejects_noncommuting():
    plus = StateVector.normalized([1.0, 1.0])
    with pytest.raises(NonCommutingObservables):
        product_rule_check(plus, plus, _sigma_z(), _sigma_x_basis())


def test_product_rule_rejects_mixed_dimensions():
    a, b, _, qa, qb = _boxes()
    with pytest.raises(DimensionMismatch):
        product_rule_check(a, b, qa, _sigma_z())
    with pytest.raises(DimensionMismatch):
        product_rule_check(StateVector.normalized([1.0, 1.0]), b, qa, qb)


def test_product_rule_label_overrides():
    a, b, _, qa, qb = _boxes()
    report = product_rule_check(a, b, qa, qb, x_label="B∪C", y_label="A∪C")
    assert report.x_label == "B∪C"
    assert report.x_probability == pytest.approx(0.0, abs=1e-12)
    assert not report.violation
