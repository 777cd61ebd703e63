"""Built-in scenarios: expected values against the rules, plus geometry."""

import math

import numpy as np
import pytest

from abl_engine import (
    InvalidDirection,
    SCENARIOS,
    ValidationError,
    abl,
    inner,
    marginal_with_Q,
    product_rule_check,
    spin_half,
    three_box,
)


def _resolve(bundle, name):
    """Recompute a named expected value through the rules module."""
    if name == "direct":
        return abs(inner(bundle.context.pre, bundle.context.post)) ** 2
    variant, _, what = name.partition(":")
    ctx = bundle.context_for(variant)
    if what == "marginal":
        return marginal_with_Q(ctx)
    return abl(ctx)[what]


@pytest.mark.parametrize("maker", [three_box, spin_half])
def test_expected_values_reproducible_within_1e12(maker):
    bundle = maker()
    assert bundle.expected, "scenario must ship expectations"
    for entry in bundle.expected:
        if bundle.name == "spin-half" and entry.name == "marginal":
            value = marginal_with_Q(bundle.context)
        elif bundle.name == "spin-half":
            value = abl(bundle.context)[entry.name]
        else:
            value = _resolve(bundle, entry.name)
        assert abs(value - entry.value) < 1e-12, entry.name


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
    assert abl(bundle.context_for("QA"))["A"] == 1.0
    assert abl(bundle.context_for("QB"))["B"] == 1.0


def test_spin_half_default_matches_closed_form():
    bundle = spin_half()
    dist = abl(bundle.context)
    c4 = math.cos(math.pi / 8) ** 4
    s4 = math.sin(math.pi / 8) ** 4
    assert dist["up_c"] == pytest.approx(c4 / (c4 + s4), abs=1e-12)
    assert dist["down_c"] == pytest.approx(s4 / (c4 + s4), abs=1e-12)


def test_spin_half_aligned_cases():
    z = (0.0, 0.0, 1.0)
    bundle = spin_half(z, z, z)
    dist = abl(bundle.context)
    assert dist["up_c"] == pytest.approx(1.0, abs=1e-12)
    assert dist["down_c"] == 0.0
    # c = a: interposed observable has the pre-state as an eigenket
    bundle2 = spin_half(z, (1.0, 0.0, 0.0), z)
    dist2 = abl(bundle2.context)
    assert dist2["up_c"] == pytest.approx(1.0, abs=1e-12)
    assert dist2["down_c"] == 0.0


def test_spin_half_rejects_bad_directions():
    with pytest.raises(InvalidDirection):
        spin_half(a_dir=(0.0, 0.0, 2.0))
    with pytest.raises(InvalidDirection):
        spin_half(b_dir=(1.0, 1.0))
    with pytest.raises(InvalidDirection):
        spin_half(c_dir=(float("nan"), 0.0, 1.0))
    # entries numpy cannot read as floats are refused like any other bad vector
    for direction in ((1, "x", 0), (1j, 0, 0), ((1, 0), 0, 0)):
        with pytest.raises(InvalidDirection, match="^a_dir must be a finite 3-vector$"):
            spin_half(a_dir=direction)


def test_spin_half_orthogonal_pre_post_is_flagged():
    bundle = spin_half((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (1.0, 0.0, 0.0))
    assert any("orthogonal_pre_post" in note for note in bundle.notes)
    dist = abl(bundle.context)
    assert dist["up_c"] == pytest.approx(0.5, abs=1e-12)
    # the note follows the engine's snap: post at polar angle pi - eps from
    # +z has |<a|b>|^2 = sin^2(eps / 2) = w, flagged at or below 1e-12 only
    for w, flagged in ((0.9e-12, True), (1.0e-12, True), (1.1e-12, False)):
        eps = 2.0 * math.asin(math.sqrt(w))
        bundle = spin_half(b_dir=(math.sin(eps), 0.0, -math.cos(eps)))
        assert any("orthogonal_pre_post" in note for note in bundle.notes) == flagged, w


def test_spin_half_continuity_in_c_direction():
    eps = 1e-6
    base = math.pi / 4
    ref = abl(spin_half(c_dir=(math.sin(base), 0.0, math.cos(base))).context)
    near = abl(
        spin_half(c_dir=(math.sin(base + eps), 0.0, math.cos(base + eps))).context
    )
    for label in ("up_c", "down_c"):
        assert abs(ref[label] - near[label]) < 1e-4


def test_spin_half_arbitrary_axes_phase_convention():
    # off-plane direction exercises the azimuthal phase
    c = (0.6, 0.48, 0.64)
    norm = math.sqrt(sum(x * x for x in c))
    bundle = spin_half(c_dir=tuple(x / norm for x in c))
    dist = abl(bundle.context)
    assert abs(sum(dist.as_dict().values()) - 1.0) < 1e-12
    assert bundle.expected_value("up_c") == pytest.approx(dist["up_c"], abs=1e-12)


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
    ctx_a = bundle.context_for("QA")
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
