"""Typed errors for the engine.

Every domain or validation failure derives from EngineError, whose class
name doubles as a stable machine-readable code for CLI error reports.
Anything else that escapes is an internal error.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all expected failures."""

    @property
    def code(self) -> str:
        return type(self).__name__


class ValidationError(EngineError):
    """A constructor invariant was violated; the message names it."""


class ParseError(EngineError):
    """Malformed JSON input (shape, types, or missing fields)."""


class DimensionMismatch(EngineError):
    """Operands live in Hilbert spaces of different dimension."""


class DegenerateSpan(EngineError):
    """Span vectors are linearly dependent beyond the rank tolerance."""


class ImpossiblePostSelection(EngineError):
    """The pre/post pair cannot co-occur with the given observable interposed."""


class OrthogonalPrePost(EngineError):
    """The direct weight |<a|b>|^2 snaps to 0; the Kastner denominator vanishes."""


class DegeneratePostObservable(EngineError):
    """Decomposition needs >= 2 rank-1 post outcomes, each reachable when Q is measured."""


class NonCommutingObservables(EngineError):
    """Product-rule check requires commuting observables."""


class InvalidDirection(EngineError):
    """Spin direction is not a finite unit 3-vector."""


class NoAcceptedTrials(EngineError):
    """Post-selection accepted zero trials; raise the trial count."""
