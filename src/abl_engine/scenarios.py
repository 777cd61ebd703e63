"""Ready-made pre/post-selected setups with their analytic expectations.

Each constructor returns a ScenarioBundle: a default SelectionContext, the
named alternative intervening observables, and the expected probabilities
computed here by independent closed-form arithmetic (plain Python complex
math, no shared code with the rules module) so they can serve as oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import (
    ZERO_PROB_TOL,
    Observable,
    Projector,
    StateVector,
    basis_state,
    inner,
    trivial_observable,
)
from .errors import InvalidDirection, ValidationError
from .rules import SelectionContext

DIRECTION_NORM_TOL = 1e-10


@dataclass(frozen=True)
class ExpectedValue:
    """A named analytic probability and a note saying where it comes from."""

    name: str
    value: float
    note: str


@dataclass(frozen=True)
class ScenarioBundle:
    """A default context, the named intervening observables in table order
    (the first is the default), and the expected values."""

    name: str
    context: SelectionContext
    variants: Mapping[str, Observable]
    expected: tuple[ExpectedValue, ...]
    notes: tuple[str, ...] = ()
    _values: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", MappingProxyType(dict(self.variants)))
        object.__setattr__(self, "_values", {entry.name: entry.value for entry in self.expected})

    @property
    def variant_names(self) -> tuple[str, ...]:
        return tuple(self.variants)

    def variant(self, name: str) -> Observable:
        try:
            return self.variants[name]
        except KeyError:
            raise ValidationError(
                f"unknown variant {name!r}; choose from {', '.join(self.variants)}"
            ) from None

    def context_for(self, variant_name: str) -> SelectionContext:
        return SelectionContext(
            self.context.pre, self.context.post, self.variant(variant_name)
        )

    def expected_value(self, name: str) -> float:
        return self._values[name]


def _ket_observable(*outcomes) -> Observable:
    """The observable with one rank-1 projector |k><k| per (label, ket)."""
    return Observable(tuple(Projector(np.outer(k, k.conj()), label) for label, k in outcomes))


# ---------------------------------------------------------------------------
# three boxes


def three_box() -> ScenarioBundle:
    """Spinless particle in one of three boxes, pre- and post-selected on the
    usual paradoxical pair: probing one box alone finds the particle there
    with certainty, probing all three finds it anywhere uniformly."""
    a = StateVector(np.array([1.0, 1.0, 1.0], dtype=complex) / math.sqrt(3.0))
    b = StateVector(np.array([1.0, 1.0, -1.0], dtype=complex) / math.sqrt(3.0))
    full = _ket_observable(*zip("ABC", np.eye(3, dtype=complex)))
    box_a, box_b, box_c = full.outcomes
    # coarse outcomes are exact 0/1 matrices, so the paired amplitudes
    # 1/sqrt(3) and -1/sqrt(3) cancel exactly
    q_a = Observable((box_a, Projector(box_b.matrix + box_c.matrix, "B∪C")))
    q_b = Observable((box_b, Projector(box_a.matrix + box_c.matrix, "A∪C")))
    third = 1.0 / 3.0
    uniform = "uniform over boxes when all three are probed"
    expected = (
        *(ExpectedValue(f"fullQ:{x}", third, uniform) for x in "ABC"),
        ExpectedValue("QA:A", 1.0, "certainty in box A when only box A is probed"),
        ExpectedValue("QB:B", 1.0, "certainty in box B when only box B is probed"),
        ExpectedValue("fullQ:marginal", third, "post-selection rate with all boxes probed"),
        ExpectedValue("QA:marginal", 1.0 / 9.0, "post-selection rate with only box A probed"),
        ExpectedValue("direct", 1.0 / 9.0, "post-selection rate with nothing interposed"),
    )
    return ScenarioBundle(
        name="three-box",
        context=SelectionContext(a, b, full),
        variants={"fullQ": full, "QA": q_a, "QB": q_b},
        expected=expected,
    )


def three_hole(beepers=("A", "B")) -> ScenarioBundle:
    """Wall with three holes and perfect beepers on a subset of {A, B}; a
    phase plate behind C realizes the three-box post-selection. The beeper
    configuration fixes which observable the passage measures."""
    chosen = frozenset(beepers)
    if not chosen <= {"A", "B"}:
        raise ValidationError("beepers must be a subset of {'A', 'B'}")
    box = three_box()
    # beepers on A and B, on A alone and on B alone measure what probing all
    # boxes, box A alone and box B alone do, so three-box's rows carry over
    beepers_of = {"fullQ": "AB", "QA": "A", "QB": "B"}
    variants = {key: box.variant(probe) for probe, key in beepers_of.items()}
    variants["none"] = trivial_observable(3, "any")
    expected = []
    for row in box.expected:
        probe, colon, outcome = row.name.partition(":")
        expected.append(replace(row, name=beepers_of.get(probe, probe) + colon + outcome))
    expected.append(ExpectedValue("none:any", 1.0, "no beepers: the trivial outcome is certain"))
    key = "".join(sorted(chosen)) or "none"
    return ScenarioBundle(
        name="three-hole",
        context=SelectionContext(box.context.pre, box.context.post, variants[key]),
        variants=variants,
        expected=tuple(expected),
        notes=(f"beepers: {key}",),
    )


# ---------------------------------------------------------------------------
# spin half


def _unit_direction(direction, what: str) -> tuple[float, float, float]:
    vec = np.asarray(direction, dtype=float)
    if vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise InvalidDirection(f"{what} must be a finite 3-vector")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > DIRECTION_NORM_TOL:
        raise InvalidDirection(f"{what} must be a unit vector, got norm {norm}")
    return float(vec[0]), float(vec[1]), float(vec[2])


def _spin_kets(direction) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle eigenkets of the spin component along a unit direction,
    with zero phase at the +z pole; the minus eigenket is the plus eigenket
    of the antipodal direction up to that convention."""
    x, y, z = direction
    theta = math.acos(min(1.0, max(-1.0, z)))
    phi = math.atan2(y, x)
    up = np.array(
        [math.cos(theta / 2.0), cmath.exp(1j * phi) * math.sin(theta / 2.0)],
        dtype=complex,
    )
    down = np.array(
        [math.sin(theta / 2.0), -cmath.exp(1j * phi) * math.cos(theta / 2.0)],
        dtype=complex,
    )
    return up, down


DEFAULT_C_DIR = (1.0 / math.sqrt(2.0), 0.0, 1.0 / math.sqrt(2.0))


def spin_half(
    a_dir=(0.0, 0.0, 1.0), b_dir=(1.0, 0.0, 0.0), c_dir=DEFAULT_C_DIR
) -> ScenarioBundle:
    """Spin-1/2 particle pre-selected up along a_dir, post-selected up along
    b_dir, with the spin component along c_dir interposed."""
    a_dir = _unit_direction(a_dir, "a_dir")
    b_dir = _unit_direction(b_dir, "b_dir")
    c_dir = _unit_direction(c_dir, "c_dir")
    a_up, _ = _spin_kets(a_dir)
    b_up, _ = _spin_kets(b_dir)
    c_up, c_down = _spin_kets(c_dir)
    pre = StateVector(a_up)
    post = StateVector(b_up)
    sigma_c = _ket_observable(("up_c", c_up), ("down_c", c_down))

    # independent closed form: plain complex arithmetic on the kets
    def through(k):
        first = sum(complex(x).conjugate() * complex(y) for x, y in zip(a_up, k))
        second = sum(complex(x).conjugate() * complex(y) for x, y in zip(k, b_up))
        return abs(first * second) ** 2

    n_up, n_down = through(c_up), through(c_down)
    total = n_up + n_down
    expected = (
        ExpectedValue("up_c", n_up / total, "closed-form two-time value, up along c"),
        ExpectedValue("down_c", n_down / total, "closed-form two-time value, down along c"),
        ExpectedValue("marginal", total, "post-selection rate with the c component measured"),
    )
    direct = abs(inner(pre, post)) ** 2
    notes = ("orthogonal_pre_post: post-selection needs the interposition",)
    return ScenarioBundle(
        name="spin-half",
        context=SelectionContext(pre, post, sigma_c),
        variants={"sigma_c": sigma_c},
        expected=expected,
        notes=notes if direct <= ZERO_PROB_TOL else (),
    )


# ---------------------------------------------------------------------------
# stored decomposition counterexample


@dataclass(frozen=True)
class DecompositionCase:
    """Inputs for decomposition_check plus the closed-form residual they
    are expected to produce."""

    pre: StateVector
    q: Observable
    b_obs: Observable
    expected_max_residual: float


def decomposition_counterexample() -> DecompositionCase:
    """Spin-1/2 instance where splitting an early outcome probability over a
    later basis fails outright: pre-selected +z, spin along the 45 degree
    x-z direction measured first, the x component after. Neither observable
    shares the pre-selection or the later basis, and the dropped cross terms
    are large, so the reconstruction misses by more than a tenth."""
    q = _ket_observable(*zip(("up_q", "down_q"), _spin_kets(DEFAULT_C_DIR)))
    b_obs = _ket_observable(*zip(("plus_x", "minus_x"), _spin_kets((1.0, 0.0, 0.0))))
    # by hand: lhs(up_q) = cos^2(pi/8); the contributing joints are
    # cos^4(pi/8) and 1/8, the later-basis rates 3/4 and 1/4, both direct
    # probabilities 1/2
    c2 = math.cos(math.pi / 8.0) ** 2
    residual = abs(c2 - (c2 * c2 / 0.75 * 0.5 + 0.125 / 0.25 * 0.5))
    return DecompositionCase(basis_state(2, 0), q, b_obs, residual)


# ---------------------------------------------------------------------------
# product rule


def product_rule_scenario() -> ScenarioBundle:
    """Three-box states wired for the product-rule check: probing box A alone
    and box B alone each give certainty, yet the two certain projectors
    multiply to the zero operator."""
    box = three_box()
    return ScenarioBundle(
        name="product-rule",
        context=box.context_for("QA"),
        variants={name: box.variant(name) for name in ("QA", "QB")},
        expected=tuple(row for row in box.expected if row.name in ("QA:A", "QB:B")),
        notes=("designated outcomes: A and B; their projector product is zero",),
    )


SCENARIOS = {
    "three-box": three_box,
    "three-hole": three_hole,
    "spin-half": spin_half,
}
