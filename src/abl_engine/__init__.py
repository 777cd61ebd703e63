"""Probability rules for pre- and post-selected quantum systems.

Finite-dimensional states and projector-valued observables, the two-time
(ABL) rule alongside the one-time Born rule, the rival Kastner rule, the
decomposition identity with its validity conditions, an interposition
comparison, a product-rule checker, and a seeded Monte Carlo verifier that
reproduces it all as relative frequencies.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .core import (
    MAX_DIM,
    NORM_TOL,
    RANK_TOL,
    ZERO_PROB_TOL,
    Observable,
    Projector,
    StateVector,
    basis_state,
    born_prob_pure,
    inner,
    observable_from_json,
    projector_from_span,
    state_from_json,
    trivial_observable,
)
from .ensemble import (
    EnsembleStats,
    TrialOutcome,
    estimate_abl,
    estimate_interposition_effect,
    run_trial,
    trial_stream,
)
from .errors import (
    DegeneratePostObservable,
    DegenerateSpan,
    DimensionMismatch,
    EngineError,
    ImpossiblePostSelection,
    InvalidDirection,
    NoAcceptedTrials,
    NonCommutingObservables,
    OrthogonalPrePost,
    ParseError,
    ValidationError,
)
from .rules import (
    DecompositionReport,
    OutcomeDecomposition,
    ProbabilityDistribution,
    ProductRuleReport,
    SelectionContext,
    WeightAssignment,
    abl,
    abl_trivial_reduction,
    decomposition_check,
    interposition_inequality,
    kastner,
    marginal_with_Q,
    product_rule_check,
)
from .scenarios import (
    SCENARIOS,
    DecompositionCase,
    ExpectedValue,
    ScenarioBundle,
    decomposition_counterexample,
    spin_half,
    three_box,
)

# everything imported above, except the submodules themselves
__all__ = [
    "__version__",
    *(
        name
        for name, value in globals().items()
        if not name.startswith("_") and not isinstance(value, _ModuleType)
    ),
]
