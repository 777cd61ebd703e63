"""Built-in scenarios: expected values against the rules, plus geometry."""

import math

import numpy as np
import pytest

from abl_engine import (
    SCENARIOS,
    DimensionMismatch,
    Observable,
    Projector,
    ScenarioBundle,
    SelectionContext,
    StateVector,
    ValidationError,
    abl,
    marginal_with_Q,
    product_rule_check,
    spin_half,
    three_box,
)


def _resolve(bundle, name):
    """Recompute a named expected value through the rules module."""
    if name == "direct":
        return abs(np.vdot(bundle.context.pre.amplitudes, bundle.context.post.amplitudes)) ** 2
    variant, _, what = name.partition(":")
    ctx = SelectionContext(bundle.pre, bundle.post, bundle.variants[variant])
    if what == "marginal":
        return marginal_with_Q(ctx)
    return abl(ctx)[what]


@pytest.mark.parametrize("maker", [three_box, spin_half])
def test_expected_values_reproducible_within_1e12(maker):
    bundle = maker()
    assert bundle.expected, "scenario must ship expectations"
    for name, expected in bundle.expected.items():
        if bundle.name == "spin-half" and name == "marginal":
            value = marginal_with_Q(bundle.context)
        elif bundle.name == "spin-half":
            value = abl(bundle.context)[name]
        else:
            value = _resolve(bundle, name)
        assert abs(value - expected) < 1e-12, name


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_default_context_is_the_first_variants_context(name):
    bundle = SCENARIOS[name]()
    first = next(iter(bundle.variants.values()))
    assert bundle.context.pre is bundle.pre and bundle.context.post is bundle.post
    assert bundle.context.intervening is first
    with pytest.raises(ValidationError, match="^a scenario needs at least one variant$"):
        ScenarioBundle(name, bundle.pre, bundle.post, {}, bundle.expected)


def test_bundle_refuses_a_later_variant_of_another_dimension_and_unreadable_expectations():
    box = three_box()
    sigma_c = spin_half().variants["sigma_c"]
    variants = {"fullQ": box.variants["fullQ"], "bad": sigma_c}
    with pytest.raises(DimensionMismatch, match=r"^dimensions differ: \[3, 3, 3, 2\]$"):
        ScenarioBundle("x", box.pre, box.post, variants, box.expected)
    for value in ("not a number", None, 1j, True, [0.5]):
        with pytest.raises(ValidationError, match="^expected value 'v' must be a number, got "):
            ScenarioBundle("x", box.pre, box.post, box.variants, {"direct": 0.5, "v": value})
    # any real number passes, numpy's included
    bundle = ScenarioBundle("x", box.pre, box.post, box.variants, {"n": 1, "f": np.float64(0.5)})
    assert dict(bundle.expected) == {"n": 1, "f": 0.5}


def test_expected_values_are_a_read_only_mapping_in_table_order():
    bundle = three_box()
    assert tuple(bundle.expected) == (
        "fullQ:A", "fullQ:B", "fullQ:C", "QA:A", "QB:B", "fullQ:marginal", "QA:marginal", "direct",
    )
    assert tuple(spin_half().expected) == ("up_c", "down_c", "marginal")
    with pytest.raises(TypeError):
        bundle.expected["direct"] = 0.5
    assert bundle.expected_value("direct") == 1.0 / 9.0


def test_three_box_registry_and_variants():
    bundle = three_box()
    assert set(SCENARIOS) == {"three-box", "spin-half"}
    assert tuple(bundle.variants) == ("fullQ", "QA", "QB")
    assert bundle.expected_value("QA:A") == 1.0
    with pytest.raises(ValidationError):
        bundle.variant("QC")
    with pytest.raises(KeyError):
        bundle.expected_value("nope")


def test_three_box_values():
    bundle = three_box()
    dist = abl(bundle.context)
    for label in "ABC":
        assert abs(dist[label] - 1.0 / 3.0) < 1e-12
    assert abl(SelectionContext(bundle.pre, bundle.post, bundle.variants["QA"]))["A"] == 1.0
    assert abl(SelectionContext(bundle.pre, bundle.post, bundle.variants["QB"]))["B"] == 1.0


def test_spin_half_default_matches_closed_form():
    bundle = spin_half()
    dist = abl(bundle.context)
    c4 = math.cos(math.pi / 8) ** 4
    s4 = math.sin(math.pi / 8) ** 4
    assert dist["up_c"] == pytest.approx(c4 / (c4 + s4), abs=1e-12)
    assert dist["down_c"] == pytest.approx(s4 / (c4 + s4), abs=1e-12)


def _spin_context(pre_angle, post_angle, c_angle):
    """Pre up, post up and sigma_c (up_c, down_c) along the x-z directions at
    the given polar angles from +z, from plain-numpy half-angle kets."""

    def up(theta):
        return np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)

    c_up, c_down = up(c_angle), up(c_angle + math.pi)
    sigma_c = Observable(
        tuple(Projector(np.outer(k, k.conj()), label) for label, k in (("up_c", c_up), ("down_c", c_down)))
    )
    return SelectionContext(StateVector(up(pre_angle)), StateVector(up(post_angle)), sigma_c)


def test_spin_half_aligned_cases():
    dist = abl(_spin_context(0.0, 0.0, 0.0))
    assert dist["up_c"] == pytest.approx(1.0, abs=1e-12)
    assert dist["down_c"] == 0.0
    # c = a: interposed observable has the pre-state as an eigenket
    dist2 = abl(_spin_context(0.0, math.pi / 2, 0.0))
    assert dist2["up_c"] == pytest.approx(1.0, abs=1e-12)
    assert dist2["down_c"] == 0.0


def test_spin_half_orthogonal_pre_post_abl_is_one_half():
    # +z to -z has no direct route; with sigma_x interposed each branch is 1/2
    dist = abl(_spin_context(0.0, math.pi, math.pi / 2))
    assert dist["up_c"] == pytest.approx(0.5, abs=1e-12)


def test_spin_half_continuity_in_c_direction():
    eps = 1e-6
    base = math.pi / 4
    ref = abl(_spin_context(0.0, math.pi / 2, base))
    near = abl(_spin_context(0.0, math.pi / 2, base + eps))
    for label in ("up_c", "down_c"):
        assert abs(ref[label] - near[label]) < 1e-4


def test_product_rule_scenario_reports_violation():
    bundle = three_box()
    report = product_rule_check(
        bundle.context.pre,
        bundle.context.post,
        bundle.variant("QA"),
        bundle.variant("QB"),
    )
    assert report.violation
    assert report.product_norm == 0.0
    assert abs(report.x_probability - 1.0) < 1e-12
    assert abs(report.y_probability - 1.0) < 1e-12


def test_scenario_contexts_share_states_across_variants():
    bundle = three_box()
    ctx_a = SelectionContext(bundle.pre, bundle.post, bundle.variants["QA"])
    assert np.array_equal(ctx_a.pre.amplitudes, bundle.context.pre.amplitudes)
    assert np.array_equal(ctx_a.post.amplitudes, bundle.context.post.amplitudes)


def test_decomposition_counterexample_breaks_the_split():
    from abl_engine import decomposition_check, decomposition_counterexample

    case = decomposition_counterexample()
    assert case.pre.dim == 2
    assert case.expected_max_residual > 0.01
    report = decomposition_check(case.pre, case.q, case.b_obs)
    assert report.which_condition == "none"
    assert report.max_residual == pytest.approx(case.expected_max_residual, abs=1e-12)
