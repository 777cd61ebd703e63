"""Finite-dimensional Hilbert-space primitives.

Pure states, projectors, and labeled projective observables, plus the
pure-state Born rule. Values are immutable numpy-backed objects;
constructors validate their invariants eagerly so downstream formulas never
see a bad value. The Hamiltonian is identically zero between measurements,
so no propagator exists here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSpan,
    DimensionMismatch,
    ParseError,
    UnknownOutcomeLabel,
    ValidationError,
)

NORM_TOL = 1e-10      # invariant validation (norms, Hermiticity, idempotence)
ZERO_PROB_TOL = 1e-12  # conditioning denominators treated as zero
RANK_TOL = 1e-10      # linear independence of span vectors
MAX_DIM = 64          # supported size envelope


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class StateVector:
    """Unit-norm complex amplitude vector."""

    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.amplitudes, dtype=np.complex128)
        if arr.ndim != 1:
            raise ValidationError("amplitudes must be a one-dimensional sequence")
        _checked_int("state dimension", arr.size, 1, MAX_DIM)
        if not np.isfinite(arr).all():
            raise ValidationError("amplitudes must be finite")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_TOL:
            raise ValidationError(f"state norm {norm} differs from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _freeze(arr))

    @property
    def dim(self) -> int:
        return int(self.amplitudes.size)

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Scale an arbitrary nonzero vector to unit norm."""
        arr = np.asarray(amplitudes, dtype=np.complex128)
        norm = float(np.linalg.norm(arr))
        if not np.isfinite(norm) or norm == 0.0:
            raise ValidationError("cannot normalize a zero or non-finite vector")
        return cls(arr / norm)


def basis_state(dim: int, index: int) -> StateVector:
    """Computational basis ket |index> in the given dimension."""
    dim = _checked_int("dim", dim, 1, MAX_DIM)
    index = _checked_int("index", index, 0, dim - 1)
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps)


@dataclass(frozen=True, eq=False)
class Projector:
    """Hermitian idempotent operator with an outcome label."""

    matrix: np.ndarray
    label: str

    def __post_init__(self) -> None:
        arr = np.asarray(self.matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError("projector must be a square matrix")
        _checked_int("projector dimension", arr.shape[0], 1, MAX_DIM)
        if not np.isfinite(arr).all():
            raise ValidationError("projector entries must be finite")
        if np.abs(arr - arr.conj().T).max() > NORM_TOL:
            raise ValidationError("projector must be Hermitian within tolerance")
        if np.abs(arr @ arr - arr).max() > NORM_TOL:
            raise ValidationError("projector must be idempotent within tolerance")
        if not isinstance(self.label, str):
            raise ValidationError("projector label must be a string")
        object.__setattr__(self, "matrix", _freeze(arr))

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def rank(self) -> int:
        return int(round(float(np.trace(self.matrix).real)))


@dataclass(frozen=True, eq=False)
class Observable:
    """Ordered, labeled, orthogonal, complete family of projectors."""

    outcomes: tuple[Projector, ...]
    _positions: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        if not outcomes:
            raise ValidationError("observable needs at least one outcome")
        _same_dim(*outcomes)
        dim = outcomes[0].dim
        labels = [p.label for p in outcomes]
        if any(not lbl for lbl in labels):
            raise ValidationError("outcome labels must be nonempty")
        positions = {label: j for j, label in enumerate(labels)}
        if len(positions) != len(labels):
            raise ValidationError("outcome labels must be unique")
        for j in range(len(outcomes)):
            for k in range(j + 1, len(outcomes)):
                if np.abs(outcomes[j].matrix @ outcomes[k].matrix).max() > NORM_TOL:
                    raise ValidationError(
                        f"projectors {labels[j]!r} and {labels[k]!r} are not orthogonal"
                    )
        total = sum(p.matrix for p in outcomes)
        if np.abs(total - np.eye(dim)).max() > NORM_TOL:
            raise ValidationError("outcome projectors must sum to the identity")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "_positions", positions)

    @property
    def dim(self) -> int:
        return self.outcomes[0].dim

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.outcomes)

    def _position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownOutcomeLabel(f"no outcome labeled {label!r}") from None

    def projector(self, label: str) -> Projector:
        return self.outcomes[self._position(label)]


def trivial_observable(dim: int, label: str = "any") -> Observable:
    """The single-outcome observable whose projector is the identity."""
    dim = _checked_int("dim", dim, 1, MAX_DIM)
    return Observable((Projector(np.eye(dim, dtype=np.complex128), label),))


# ---------------------------------------------------------------------------
# operations


def _checked_int(name: str, value, low: int, high: int) -> int:
    """value as a Python int, if it is an integer (not a bool) in [low, high]:
    the one check for an integer from outside."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        raise ValidationError(f"{name} must be in {low}..{high}, got {value}")
    return int(value)


def _same_dim(*objects) -> None:
    """Refuse objects (None skipped) of more than one dimension, listing every
    dimension in argument order."""
    dims = [obj.dim for obj in objects if obj is not None]
    if len(set(dims)) > 1:
        raise DimensionMismatch(f"dimensions differ: {dims}")


def inner(x: StateVector, y: StateVector) -> complex:
    """<x|y>: conjugate-linear in x, linear in y."""
    _same_dim(x, y)
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def projector_from_span(vectors, label: str) -> Projector:
    """Projector onto the span of the given states (orthonormalized first)."""
    vectors = list(vectors)
    if not vectors:
        raise ValidationError("span needs at least one vector")
    _same_dim(*vectors)
    stacked = np.column_stack([v.amplitudes for v in vectors])
    if len(vectors) > vectors[0].dim:
        raise DegenerateSpan("more span vectors than the dimension allows")
    singular = np.linalg.svd(stacked, compute_uv=False)
    if float(singular.min()) <= RANK_TOL:
        raise DegenerateSpan("span vectors are linearly dependent within tolerance")
    q, _ = np.linalg.qr(stacked)
    matrix = q @ q.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    return Projector(matrix, label)


def _snap(p):
    """p (a float or an array) with entries at or below ZERO_PROB_TOL set to 0:
    the one rule for what is impossible. Each probability is snapped where it
    is made, so later code tests it for exact zero."""
    # a product keeps a Python float a float; a negative p (1 - t) gives -0.0
    return p * (p > ZERO_PROB_TOL)


def _snapped_weights(amplitudes) -> tuple[float, ...]:
    """|amp|^2 for each amplitude, clamped to at most 1, then snapped."""
    # unit-norm inputs are checked within NORM_TOL, so a valid state can give
    # a value just above 1. Python's abs and ** on each element: np.abs and
    # np.square round some inputs differently, and every seeded report
    # depends on these bits
    amplitudes = np.asarray(amplitudes, dtype=complex).tolist()
    return tuple(_snap(min(abs(amp) ** 2, 1.0)) for amp in amplitudes)


def born_prob_pure(psi: StateVector, q: StateVector) -> float:
    """|<psi|q>|^2 for unit vectors, clamped and snapped as every weight is."""
    return _snapped_weights([inner(psi, q)])[0]


# ---------------------------------------------------------------------------
# JSON encoding: complex scalar <-> [re, im]


def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _complex_from_json(obj, what: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(
            isinstance(part, numbers.Real) and not isinstance(part, bool) for part in obj
        )
    ):
        raise ParseError(f"{what} must be a two-element [re, im] array")
    return complex(float(obj[0]), float(obj[1]))


def state_to_json(state: StateVector) -> dict:
    return {
        "dim": state.dim,
        "amplitudes": [complex_to_json(z) for z in state.amplitudes],
    }


def _json_object(obj, what: str, key: str):
    """(dim, obj[key]) of the JSON object that encodes a `what`; dim must be
    an integer."""
    if not isinstance(obj, dict):
        raise ParseError(f"{what} must be a JSON object")
    try:
        dim = obj["dim"]
        raw = obj[key]
    except KeyError as missing:
        raise ParseError(f"{what} is missing field {missing}") from None
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise ParseError(f"{what} dim must be an integer")
    return dim, raw


def state_from_json(obj) -> StateVector:
    dim, raw = _json_object(obj, "state", "amplitudes")
    if not isinstance(raw, list) or len(raw) != dim:
        raise ParseError("state amplitudes must be a list of length dim")
    amps = [_complex_from_json(entry, "amplitude") for entry in raw]
    return StateVector(np.array(amps, dtype=np.complex128))


def observable_to_json(observable: Observable) -> dict:
    outcomes = []
    for p in observable.outcomes:
        span = _range_basis(p)
        if not span:
            raise ValidationError(f"cannot encode rank-0 projector {p.label!r}")
        outcomes.append({"label": p.label, "span": [state_to_json(v) for v in span]})
    return {"dim": observable.dim, "outcomes": outcomes}


def observable_from_json(obj) -> Observable:
    dim, raw = _json_object(obj, "observable", "outcomes")
    if not isinstance(raw, list) or not raw:
        raise ParseError("observable outcomes must be a nonempty list")
    projectors = []
    for entry in raw:
        if not isinstance(entry, dict) or "label" not in entry or "span" not in entry:
            raise ParseError("each outcome needs a label and a span")
        label = entry["label"]
        if not isinstance(label, str):
            raise ParseError("outcome label must be a string")
        span_raw = entry["span"]
        if not isinstance(span_raw, list) or not span_raw:
            raise ParseError(f"outcome {label!r} span must be a nonempty list")
        span = [state_from_json(s) for s in span_raw]
        if any(v.dim != dim for v in span):
            raise ParseError(f"outcome {label!r} span dimension differs from dim")
        projectors.append(projector_from_span(span, label))
    return Observable(tuple(projectors))


def _range_basis(p: Projector) -> list[StateVector]:
    """Orthonormal basis of the projector's range (eigenvectors at eigenvalue 1)."""
    eigenvalues, eigenvectors = np.linalg.eigh(p.matrix)
    return [
        StateVector(eigenvectors[:, i])
        for i in range(p.dim)
        if eigenvalues[i] > 0.5
    ]
