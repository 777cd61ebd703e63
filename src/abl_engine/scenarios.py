"""Ready-made pre/post-selected setups with their analytic expectations.

Each constructor returns a ScenarioBundle: the pre- and post-selected
states, the named intervening observables, and the expected probabilities
computed here by independent closed-form arithmetic (plain Python complex
math, no shared code with the rules module) so they can serve as oracles.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .core import (
    NORM_TOL,
    Observable,
    Projector,
    StateVector,
    basis_state,
    born_prob_pure,
)
from .errors import InvalidDirection, ValidationError
from .rules import SelectionContext


@dataclass(frozen=True)
class ScenarioBundle:
    """Pre- and post-selected states, the named intervening observables in
    table order (the first is the default, whose context is `context`), and
    the expected values by name in table order. `notes` holds the
    orthogonal_pre_post note exactly when the snapped |<pre|post>|^2 is 0."""

    name: str
    pre: StateVector
    post: StateVector
    variants: Mapping[str, Observable]
    expected: Mapping[str, float]
    context: SelectionContext = field(init=False)
    notes: tuple[str, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "variants", MappingProxyType(dict(self.variants)))
        if not self.variants:
            raise ValidationError("a scenario needs at least one variant")
        object.__setattr__(self, "expected", MappingProxyType(dict(self.expected)))
        object.__setattr__(self, "context", self.context_for(next(iter(self.variants))))
        orthogonal = born_prob_pure(self.pre, self.post) == 0.0
        notes = ("orthogonal_pre_post: post-selection needs the interposition",)
        object.__setattr__(self, "notes", notes if orthogonal else ())

    def variant(self, name: str) -> Observable:
        try:
            return self.variants[name]
        except KeyError:
            raise ValidationError(
                f"unknown variant {name!r}; choose from {', '.join(self.variants)}"
            ) from None

    def context_for(self, variant_name: str) -> SelectionContext:
        return SelectionContext(self.pre, self.post, self.variant(variant_name))

    def expected_value(self, name: str) -> float:
        return self.expected[name]


def _ket_observable(*outcomes) -> Observable:
    """The observable with one rank-1 projector |k><k| per (label, ket)."""
    return Observable(tuple(Projector(np.outer(k, k.conj()), label) for label, k in outcomes))


# ---------------------------------------------------------------------------
# three boxes


def three_box() -> ScenarioBundle:
    """Spinless particle in one of three boxes, pre- and post-selected on the
    usual paradoxical pair: probing one box alone finds the particle there
    with certainty, probing all three finds it anywhere uniformly. Read as a
    wall with three holes, beepers on holes A and B measure what probing all
    boxes does, and a beeper on A alone measures what probing box A alone does."""
    a = StateVector(np.array([1.0, 1.0, 1.0], dtype=complex) / math.sqrt(3.0))
    b = StateVector(np.array([1.0, 1.0, -1.0], dtype=complex) / math.sqrt(3.0))
    full = _ket_observable(*zip("ABC", np.eye(3, dtype=complex)))
    box_a, box_b, box_c = full.outcomes
    # coarse outcomes are exact 0/1 matrices, so the paired amplitudes
    # 1/sqrt(3) and -1/sqrt(3) cancel exactly
    q_a = Observable((box_a, Projector(box_b.matrix + box_c.matrix, "B∪C")))
    q_b = Observable((box_b, Projector(box_a.matrix + box_c.matrix, "A∪C")))
    third = 1.0 / 3.0
    # uniform over the boxes when all three are probed, certainty in the box
    # probed alone; the marginals and "direct" are post-selection rates with
    # all boxes, box A alone and nothing interposed
    expected = {
        **{f"fullQ:{x}": third for x in "ABC"},
        "QA:A": 1.0,
        "QB:B": 1.0,
        "fullQ:marginal": third,
        "QA:marginal": 1.0 / 9.0,
        "direct": 1.0 / 9.0,
    }
    return ScenarioBundle("three-box", a, b, {"fullQ": full, "QA": q_a, "QB": q_b}, expected)


# ---------------------------------------------------------------------------
# spin half


def _unit_direction(direction, what: str) -> tuple[float, float, float]:
    try:
        vec = np.asarray(direction, dtype=float)
    except (TypeError, ValueError):
        vec = None
    if vec is None or vec.shape != (3,) or not np.all(np.isfinite(vec)):
        raise InvalidDirection(f"{what} must be a finite 3-vector")
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > NORM_TOL:
        raise InvalidDirection(f"{what} must be a unit vector, got norm {norm}")
    return float(vec[0]), float(vec[1]), float(vec[2])


def _spin_kets(direction) -> tuple[np.ndarray, np.ndarray]:
    """Half-angle eigenkets of the spin component along a unit direction,
    with zero phase at the +z pole; the minus eigenket is the plus eigenket
    of the antipodal direction up to that convention."""
    x, y, z = direction
    half = math.acos(min(1.0, max(-1.0, z))) / 2.0
    phase = cmath.exp(1j * math.atan2(y, x))
    up = np.array([math.cos(half), phase * math.sin(half)], dtype=complex)
    down = np.array([math.sin(half), -phase * math.cos(half)], dtype=complex)
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

    # the two-time values up and down along c, and the post-selection rate
    # with the c component measured
    n_up, n_down = through(c_up), through(c_down)
    total = n_up + n_down
    expected = {"up_c": n_up / total, "down_c": n_down / total, "marginal": total}
    return ScenarioBundle("spin-half", pre, post, {"sigma_c": sigma_c}, expected)


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


SCENARIOS = {
    "three-box": three_box,
    "spin-half": spin_half,
}
