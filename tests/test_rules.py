"""Two-time rules: frozen analytic values plus algebraic properties."""

import cmath
import math
import re
from fractions import Fraction

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
    UnknownOutcomeLabel,
    ValidationError,
    WeightAssignment,
    ZERO_PROB_TOL,
    abl,
    abl_trivial_reduction,
    basis_state,
    decomposition_check,
    estimate_interposition_effect,
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
    _assert_law_is_abl,
    _sylvester_hadamard,
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


# rational oracle: states with Gaussian-integer amplitudes and coordinate
# projectors have exact rational values, computed here from the integers alone


def _amplitude(b, a, indices):
    """<b|P|a> as a Gaussian integer (re, im), for Gaussian integers given as
    (re, im) pairs and P the coordinate projector onto the given indices."""
    re = sum(b[i][0] * a[i][0] + b[i][1] * a[i][1] for i in indices)
    im = sum(b[i][0] * a[i][1] - b[i][1] * a[i][0] for i in indices)
    return re, im


def _bra_ket(b, a, indices):
    """|<b|P|a>|^2 as an integer, in the same terms as _amplitude."""
    re, im = _amplitude(b, a, indices)
    return re * re + im * im


def _norm2(a, indices):
    """||P a||^2 as an integer, in the same terms as _bra_ket."""
    return sum(a[i][0] ** 2 + a[i][1] ** 2 for i in indices)


def _assert_matches(value, exact):
    if exact == 0:
        assert value == 0.0
    else:
        assert math.isclose(value, float(exact), rel_tol=1e-13), (value, exact)


def _gaussian_integers(rng, dim):
    """A vector of Gaussian integers in [-3, 3] + i[-3, 3], as (re, im) pairs."""
    return rng.integers(-3, 4, size=(dim, 2)).tolist()


def _ket(z):
    return StateVector.normalized([complex(*c) for c in z])


def _partition(rng, dim):
    """The parts of a random partition of range(dim), as index lists."""
    groups = rng.integers(0, dim, size=dim)
    return [np.flatnonzero(groups == g).tolist() for g in np.unique(groups)]


def _coordinate_observable(parts, dim, prefix):
    return Observable(
        tuple(
            Projector(np.diag(np.isin(range(dim), part)).astype(complex), f"{prefix}{k}")
            for k, part in enumerate(parts)
        )
    )


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_rules_match_the_rational_oracle(dim):
    rng = np.random.default_rng(1000 + dim)
    every = range(dim)
    zeros = 0
    for _ in range(600):
        a, b = _gaussian_integers(rng, dim), _gaussian_integers(rng, dim)
        norm_a, norm_b = _norm2(a, every), _norm2(b, every)
        if not norm_a or not norm_b:
            continue
        parts = _partition(rng, dim)
        w = [_bra_ket(b, a, part) for part in parts]  # |<b|P_q|a>|^2
        born = [_norm2(a, part) for part in parts]  # ||P_q a||^2
        direct = _bra_ket(b, a, every)  # |<b|a>|^2
        pre, post = _ket(a), _ket(b)
        q = _coordinate_observable(parts, dim, "q")
        # p(b|a, Q) as a Born chain: outcome q, then b from the collapsed state
        with_q = sum(
            Fraction(n, norm_a) * Fraction(wq, n * norm_b) for n, wq in zip(born, w) if n
        )
        p_direct = Fraction(direct, norm_a * norm_b)
        for value, exact in zip(interposition_inequality(pre, q, post), (p_direct, with_q)):
            _assert_matches(value, exact)
        if not any(w):
            with pytest.raises(ImpossiblePostSelection):
                SelectionContext(pre, post, q)
            continue
        ctx = SelectionContext(pre, post, q)
        _assert_matches(marginal_with_Q(ctx), with_q)
        for value, wq in zip(abl(ctx).as_dict().values(), w):
            _assert_matches(value, Fraction(wq, sum(w)))
        zeros += w.count(0)
        if not direct:
            with pytest.raises(OrthogonalPrePost):
                kastner(ctx)
            continue
        weights = kastner(ctx)
        exact = [Fraction(wq, direct) for wq in w]
        for value, kq in zip(weights.as_dict().values(), exact):
            _assert_matches(value, kq)
        # Kastner's weights times the direct rate give the rate with Q
        # measured: they sum to 1 exactly when interposing Q leaves it alone
        assert sum(exact) * p_direct == with_q
        _assert_matches(weights.total() * abs(inner(pre, post)) ** 2, with_q)
    assert zeros, "no outcome with an exact zero weight was drawn"


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_product_rule_matches_the_rational_oracle(dim):
    # coordinate partitions always commute; each designated value is the
    # first part, and the product of two coordinate projectors is the one
    # onto the indices the parts share
    rng = np.random.default_rng(2000 + dim)
    every = range(dim)
    for _ in range(80):
        a, b = _gaussian_integers(rng, dim), _gaussian_integers(rng, dim)
        if not _norm2(a, every) or not _norm2(b, every):
            continue
        x_parts, y_parts = _partition(rng, dim), _partition(rng, dim)
        x = _coordinate_observable(x_parts, dim, "x")
        y = _coordinate_observable(y_parts, dim, "y")
        wx = [_bra_ket(b, a, part) for part in x_parts]
        wy = [_bra_ket(b, a, part) for part in y_parts]
        pre, post = _ket(a), _ket(b)
        if not any(wx) or not any(wy):
            with pytest.raises(ImpossiblePostSelection):
                product_rule_check(pre, post, x, y)
            continue
        report = product_rule_check(pre, post, x, y)
        x_prob, y_prob = Fraction(wx[0], sum(wx)), Fraction(wy[0], sum(wy))
        _assert_matches(report.x_probability, x_prob)
        _assert_matches(report.y_probability, y_prob)
        disjoint = not set(x_parts[0]) & set(y_parts[0])
        assert report.product_is_zero == disjoint
        assert report.product_norm == (0.0 if disjoint else 1.0)
        assert report.violation == (x_prob == y_prob == 1 and disjoint)


def _hadamard_post(dim):
    """The post basis |b_i> = h_i / sqrt(dim) of the Sylvester-Hadamard rows,
    as an observable and as Gaussian-integer kets h_i. Its projector entries
    are +-1/dim, so with a coordinate-partition Q every value is an exact
    rational."""
    hadamard = _sylvester_hadamard(dim)
    b_obs = Observable(
        tuple(
            Projector(np.outer(h, h).astype(complex) / dim, f"b{i}")
            for i, h in enumerate(hadamard)
        )
    )
    return b_obs, [[(entry, 0) for entry in h] for h in hadamard]


def test_decomposition_matches_the_rational_oracle():
    rng = np.random.default_rng(3000)
    refused = zeros = 0
    conditions = set()
    for dim in (2, 4):
        b_obs, kets = _hadamard_post(dim)
        every = range(dim)
        for _ in range(250):
            a = _gaussian_integers(rng, dim)
            norm_a = _norm2(a, every)
            if not norm_a:
                continue
            parts = _partition(rng, dim)
            q = _coordinate_observable(parts, dim, "q")
            # p(q_j, b_i|a), p(b_i|a, Q) and p(b_i|a), each times dim * norm_a
            joint = [[_bra_ket(h, a, part) for part in parts] for h in kets]
            with_q = [sum(row) for row in joint]
            direct = [_bra_ket(h, a, every) for h in kets]
            pre = _ket(a)
            if not all(with_q):
                with pytest.raises(DegeneratePostObservable):
                    decomposition_check(pre, q, b_obs)
                refused += 1
                continue
            report = decomposition_check(pre, q, b_obs)
            for j, (row, part) in enumerate(zip(report.outcomes, parts)):
                lhs = Fraction(_norm2(a, part), norm_a)
                rhs = sum(
                    Fraction(d_i, w_i) * Fraction(joint_i[j], dim * norm_a)
                    for d_i, w_i, joint_i in zip(direct, with_q, joint)
                )
                _assert_matches(row.lhs, lhs)
                _assert_matches(row.rhs, rhs)
                zeros += (lhs == 0) + (rhs == 0)
            # the cross terms Re(conj(amp_ij) amp_ik), j != k, times
            # dim * norm_a are integers, so each is exactly 0 or at least
            # 1 / (dim * norm_a). Every Hadamard ket has full support, so
            # Q_equals_B needs a one-part Q, which Q_equals_A takes first
            amps = [[_amplitude(h, a, part) for part in parts] for h in kets]
            interfering = any(
                zj[0] * zk[0] + zj[1] * zk[1]
                for row in amps
                for j, zj in enumerate(row)
                for k, zk in enumerate(row)
                if j != k
            )
            support = {m for m in every if a[m] != [0, 0]}
            if any(support <= set(part) for part in parts):
                expected = "Q_equals_A"
            else:
                expected = "none" if interfering else "interference_term_zero"
            assert report.which_condition == expected
            conditions.add(expected)
    assert refused and zeros, (refused, zeros)
    assert conditions == {"Q_equals_A", "interference_term_zero", "none"}, conditions


# the snap audit: the rational oracle on draws whose exact weights land in
# [1e-13, 1e-10], around the snap at ZERO_PROB_TOL. The engine computes the
# exact formula of each value with every weight at or below ZERO_PROB_TOL set
# to 0, so an identity of the exact weights holds for its values up to what
# those zeros remove: at most ZERO_PROB_TOL for each snapped weight.

_TOL = Fraction(ZERO_PROB_TOL)
_ULP = 2.0**-53


def _snapped(w):
    """An exact weight as the engine snaps it."""
    return w if w > _TOL else Fraction(0)


def _float_error(w, dim):
    """Bound on |computed - exact| for a weight w = |<b|P|a>|^2 of unit
    vectors in dimension dim: normalizing, multiplying and summing leave the
    inner product off by at most 2 (dim + 3) units of 2**-53, which squaring
    turns into an error of order sqrt(w), not w; it dominates for small w."""
    amp = 2 * (dim + 3) * _ULP
    return 2 * amp * math.sqrt(w) + amp * amp + 4 * _ULP * w


def _orthogonal_within_parts(v, parts):
    """A Gaussian-integer vector c with <c|P|v> = 0 for the coordinate
    projector P of every part: each pair (i, j) of indices in a part gets
    c_i = conj(v_j) and c_j = -conj(v_i), and an unpaired index gets 0."""
    c = [[0, 0] for _ in v]
    for part in parts:
        for i, j in zip(part[::2], part[1::2]):
            c[i], c[j] = [v[j][0], -v[j][1]], [-v[i][0], v[i][1]]
    return c


def _near(rng, c, e, top, norm):
    """The Gaussian-integer vector n c + e, proportional to c + e / n, with n
    chosen so that the weight top / (n^2 norm) that e leaves lands at a
    log-uniform point of [1e-13, 1e-10]."""
    n = max(1, round(math.sqrt(top / (norm * 10 ** rng.uniform(-13, -10)))))
    return [[n * x[0] + y[0], n * x[1] + y[1]] for x, y in zip(c, e)]


def test_snap_audit_of_the_interposition_identities():
    # b = n c + e with c orthogonal to a within every part of Q, so every
    # <b|P_q|a> = <e|P_q|a> and <b|a> = <e|a>: all weights are of order 1/n^2
    breaks = dict.fromkeys(("cauchy-schwarz", "possibility", "kastner refused", "kastner"), 0)
    in_window = drawn = 0
    for dim in range(2, 7):
        rng = np.random.default_rng(4000 + dim)
        every = range(dim)
        for _ in range(100):
            a, e = _gaussian_integers(rng, dim), _gaussian_integers(rng, dim)
            parts = _partition(rng, dim)
            c = _orthogonal_within_parts(a, parts)
            top = max(_bra_ket(e, a, part) for part in parts)
            if not _norm2(a, every) or not _norm2(c, every) or not top:
                continue
            b = _near(rng, c, e, top, _norm2(a, every) * _norm2(c, every))
            norm = _norm2(a, every) * _norm2(b, every)
            w = [Fraction(_bra_ket(b, a, part), norm) for part in parts]
            direct = Fraction(_bra_ket(b, a, every), norm)
            k, snapped = len(parts), sum(0 < x <= _TOL for x in w)
            drawn += 1
            in_window += Fraction(1, 10**13) <= max(w) <= Fraction(1, 10**10)
            # exact: Cauchy-Schwarz, and so possibility preservation
            assert direct <= k * sum(w)
            # the engine's two rates are the snapped exact ones
            pre, post, q = _ket(a), _ket(b), _coordinate_observable(parts, dim, "q")
            p_direct, p_with_q = interposition_inequality(pre, q, post)
            err = _float_error(float(direct), dim)
            err_q = sum(_float_error(float(x), dim) for x in w)
            assert abs(p_direct - float(_snapped(direct))) <= err
            assert abs(p_with_q - float(sum(map(_snapped, w)))) <= err_q
            # Cauchy-Schwarz holds once each snapped weight is put back
            slack = err + k * err_q
            assert p_direct <= k * (p_with_q + snapped * ZERO_PROB_TOL) + slack
            breaks["cauchy-schwarz"] += p_direct > k * p_with_q + slack
            if p_with_q == 0.0:
                # possibility preservation fails only in the band
                # 1e-12 < p_direct <= K s 1e-12 <= K^2 1e-12
                assert p_direct <= k * snapped * ZERO_PROB_TOL + err
                breaks["possibility"] += p_direct > 0.0
                with pytest.raises(ImpossiblePostSelection):
                    SelectionContext(pre, post, q)
                continue
            ctx = SelectionContext(pre, post, q)
            # the sampler's exact law is the ABL distribution in the band too
            _assert_law_is_abl(ctx)
            if p_direct == 0.0:
                # the direct weight snapped: the rule is undefined although
                # the exact one is not
                with pytest.raises(OrthogonalPrePost):
                    kastner(ctx)
                breaks["kastner refused"] += direct > 0
                continue
            # the Kastner identity holds for the reported values, and falls
            # short of the exact sum of weights by the snapped ones
            total = kastner(ctx).total()
            assert math.isclose(total * p_direct, marginal_with_Q(ctx), rel_tol=1e-13)
            shortfall = float(sum(w)) - total * p_direct
            assert -err_q <= shortfall <= snapped * ZERO_PROB_TOL + err_q
            breaks["kastner"] += shortfall > err_q
    assert in_window >= 0.9 * drawn, (in_window, drawn)
    assert all(breaks.values()), breaks


def test_snap_audit_of_the_decomposition():
    # a = n c + e with c orthogonal to one post ket h_i within every part of
    # Q, so row i's joint and direct weights are of order 1/n^2, and so is
    # the Born weight of a part that c leaves at 0
    breaks = dict.fromkeys(("refused", "lhs", "rhs"), 0)
    for dim in (2, 4):
        rng = np.random.default_rng(5000 + dim)
        b_obs, kets = _hadamard_post(dim)
        every = range(dim)
        for _ in range(100):
            parts, e = _partition(rng, dim), _gaussian_integers(rng, dim)
            h = kets[rng.integers(dim)]
            c = _orthogonal_within_parts(h, parts)
            top = max(_bra_ket(h, e, part) for part in parts)
            if not _norm2(c, every) or not top:
                continue
            a = _near(rng, c, e, top, dim * _norm2(c, every))
            norm_a = _norm2(a, every)
            joint = [[Fraction(_bra_ket(g, a, part), dim * norm_a) for part in parts] for g in kets]
            direct = [Fraction(_bra_ket(g, a, every), dim * norm_a) for g in kets]
            born = [Fraction(_norm2(a, part), norm_a) for part in parts]
            # exact: the post basis is complete
            assert born == [sum(column) for column in zip(*joint)] and sum(direct) == 1
            pre, q = _ket(a), _coordinate_observable(parts, dim, "q")
            snapped_joint = [[_snapped(x) for x in row] for row in joint]
            if not all(map(any, snapped_joint)):
                # a final ket whose every joint weight snapped is refused,
                # although its exact weights are not all 0
                with pytest.raises(DegeneratePostObservable):
                    decomposition_check(pre, q, b_obs)
                breaks["refused"] += 1
                continue
            report = decomposition_check(pre, q, b_obs)
            for j, row in enumerate(report.outcomes):
                # lhs is the Born weight, snapped
                assert math.isclose(row.lhs, float(_snapped(born[j])), rel_tol=1e-13)
                breaks["lhs"] += born[j] != _snapped(born[j])
                # rhs is the exact formula of the snapped weights, within the
                # float error of each term; a snapped weight of row i moves
                # the row's share j_ij / w_i by at most s_i 1e-12 / w_i, and
                # Cauchy-Schwarz (d_i <= K w_i) turns that into K s_i 1e-12,
                # plus 1e-12 where d_i itself snapped
                exact = snapped = err = band = Fraction(0)
                for joint_i, hat_i, d in zip(joint, snapped_joint, direct):
                    exact += joint_i[j] * d / sum(joint_i)
                    term = hat_i[j] * _snapped(d) / sum(hat_i)
                    snapped += term
                    rel = sum(_float_error(float(x), dim) for x in joint_i) / float(sum(hat_i))
                    if term:
                        rel += (_float_error(float(hat_i[j]), dim) / float(hat_i[j])
                                + _float_error(float(d), dim) / float(d) + 8 * _ULP)
                    err += Fraction(float(term) * rel)
                    s_i = sum(0 < x <= _TOL for x in joint_i)
                    band += (len(parts) * s_i + (0 < d <= _TOL)) * _TOL
                assert abs(Fraction(row.rhs) - snapped) <= err
                assert abs(snapped - exact) <= band
                breaks["rhs"] += snapped != exact
    assert all(breaks.values()), breaks


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


def _givens(dim, j, angle):
    """The rotation by angle in the (0, j) plane that turns e_0 toward e_j."""
    g = np.eye(dim)
    g[0, 0] = g[j, j] = math.cos(angle)
    g[j, 0], g[0, j] = math.sin(angle), -math.sin(angle)
    return g


def test_decomposition_condition_is_the_snap():
    # a = (1, t, t) normalized, Q the coordinate basis, and the final kets the
    # columns of G01(t/2) G02(t/2). The largest cross term is about 9.9e-10,
    # far above the 1e-12 snap, and q0's identity misses by about 3.2e-9
    t = 4.45e-5
    basis = _givens(3, 1, t / 2) @ _givens(3, 2, t / 2)
    final = Observable(
        tuple(projector_from_span([StateVector(basis[:, i])], f"b{i}") for i in range(3))
    )
    coordinate = Observable(
        tuple(projector_from_span([basis_state(3, i)], f"q{i}") for i in range(3))
    )
    a = np.array([1.0, t, t]) / math.sqrt(1.0 + 2.0 * t * t)
    report = decomposition_check(StateVector(a), coordinate, final)
    assert report.which_condition == "none"
    assert not report.conditions_hold
    # the residual of each outcome is at most the sum of |cross_ijk| over i
    # and j != k, with amp_ij = <b_i|P_j|a> = basis[j, i] a_j
    amp = basis.T * a
    cross = np.abs(amp[:, :, None] * amp[:, None, :]).sum() - (amp**2).sum()
    assert 1e-9 < report.max_residual <= cross + 1e-15


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


def _snapped_count(pre, obs, post):
    """How many weights |<b|P_q|a>|^2, in plain numpy, lie in (0,
    ZERO_PROB_TOL]: the ones the engine's snap sets to 0."""
    weights = [abs(np.vdot(post.amplitudes, p.matrix @ pre.amplitudes)) ** 2 for p in obs.outcomes]
    return sum(0.0 < w <= ZERO_PROB_TOL for w in weights)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 8))
def test_interposition_lower_bound(seed, dim):
    # Cauchy-Schwarz gives p_direct <= K * p_with_Q for K outcomes; each of
    # the s weights the snap sets to 0 takes at most ZERO_PROB_TOL from
    # p_with_Q, so the engine's values keep p_direct <= K (p_with_Q + s tol)
    rng = np.random.default_rng(seed)
    pre, post = random_state(rng, dim), random_state(rng, dim)
    obs = random_observable(rng, dim)
    p_direct, p_with_q = interposition_inequality(pre, obs, post)
    s = _snapped_count(pre, obs, post)
    assert p_direct <= len(obs.outcomes) * (p_with_q + s * ZERO_PROB_TOL) + 1e-12


def test_interposition_positivity_transfer():
    # p_with_Q vanishes only when p_direct does, above the snap band of
    # test_snap_band_can_zero_a_sum_whose_own_weight_is_not_zero
    rng = np.random.default_rng(59)
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        pre, post = random_state(rng, dim), random_state(rng, dim)
        obs = random_observable(rng, dim)
        p_direct, p_with_q = interposition_inequality(pre, obs, post)
        if p_direct > 1e-9:
            assert p_with_q > 0.0


def test_snap_band_can_zero_a_sum_whose_own_weight_is_not_zero():
    # each weight snaps to 0 on its own at or below 1e-12, so with K outcomes
    # a sum of snapped weights can be 0 while 1e-12 < p_direct <= K^2 * 1e-12.
    # d = 3, coordinate Q: the weights are e^2 / 2, e^2 / 2 and 0, each
    # snapped, so p_with_Q is 0 while p_direct = 2 e^2 is not
    e = math.sqrt(1.5e-12)
    a = StateVector.normalized([1.0, 1.0, 0.0])
    b = StateVector(np.array([e, e, math.sqrt(1.0 - 2.0 * e * e)], dtype=complex))
    q = _coordinate_observable([[0], [1], [2]], 3, "q")
    p_direct, p_with_q = interposition_inequality(a, q, b)
    assert p_with_q == 0.0
    assert math.isclose(p_direct, 3.0e-12, rel_tol=1e-13)
    assert ZERO_PROB_TOL < p_direct <= 3**2 * ZERO_PROB_TOL
    # test_interposition_lower_bound's Cauchy-Schwarz holds here only with
    # both snapped weights put back
    assert _snapped_count(a, q, b) == 2
    assert 3 * p_with_q + 1e-12 < p_direct <= 3 * (p_with_q + 2 * ZERO_PROB_TOL) + 1e-12
    with pytest.raises(ImpossiblePostSelection):
        SelectionContext(a, b, q)
    assert estimate_interposition_effect(a, q, b, 2**16, 0) == (0.0, 0.0)


def test_kastner_refuses_a_snapped_direct_weight_of_a_reachable_context():
    # <a|b> = e, about 7.1e-7, so the states are not orthogonal, but
    # |<a|b>|^2 = 5e-13 snaps to 0; through sigma_x the context is reachable
    # and abl gives 1/2 +- e sqrt(1 - e^2)
    e = math.sqrt(5e-13)
    post = StateVector(np.array([e, math.sqrt(1.0 - e * e)], dtype=complex))
    ctx = SelectionContext(basis_state(2, 0), post, _sigma_x_basis())
    values = [value for _, value in abl(ctx).entries]
    assert [round(value, 7) for value in values] == [0.5000007, 0.4999993]
    for value, sign in zip(values, (1.0, -1.0)):
        assert math.isclose(value, 0.5 + sign * e * math.sqrt(1.0 - e * e), rel_tol=1e-13)
    with pytest.raises(
        OrthogonalPrePost,
        match=r"^the direct weight \|<a\|b>\|\^2 snapped to 0 \(at or below 1e-12\); rule undefined$",
    ):
        kastner(ctx)


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


def test_product_rule_needs_exact_certainty():
    # post (1 + 2e-5, 1, -1) normalized: the A∪C weight is (2e-5)^2 / 9, about
    # 4.4e-11, above the snap, so B is possible but not certain and no
    # violation is flagged; A∪C's weight in x is exactly 0, so A is certain
    a, _, _, qa, qb = _boxes()
    post = StateVector.normalized([1.0 + 2e-5, 1.0, -1.0])
    report = product_rule_check(a, post, qa, qb)
    assert report.x_probability == 1.0
    assert 0.0 < 1.0 - report.y_probability < 1e-9
    assert report.product_is_zero
    assert not report.violation


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
    # exact sigma_x projectors: [z+, x+] has entries +-1/2, named in the refusal
    half = np.full((2, 2), 0.5)
    x_basis = Observable((Projector(half, "x+"), Projector(np.eye(2) - half, "x-")))
    message = "projectors 'z+' and 'x+' must commute within 1e-10: max |PQ - QP| is 0.5"
    with pytest.raises(NonCommutingObservables, match=f"^{re.escape(message)}$"):
        product_rule_check(plus, plus, _sigma_z(), x_basis)


def test_product_rule_rejects_mixed_dimensions():
    a, b, _, qa, qb = _boxes()
    with pytest.raises(DimensionMismatch):
        product_rule_check(a, b, qa, _sigma_z())
    with pytest.raises(DimensionMismatch):
        product_rule_check(StateVector.normalized([1.0, 1.0]), b, qa, qb)


def test_product_rule_label_overrides():
    # the designated value is the first outcome, so listing the outcomes in
    # reverse designates B∪C and A∪C
    a, b, _, qa, qb = _boxes()
    report = product_rule_check(a, b, Observable(qa.outcomes[::-1]), Observable(qb.outcomes[::-1]))
    assert report.x_label == "B∪C"
    assert report.x_probability == pytest.approx(0.0, abs=1e-12)
    assert not report.violation
