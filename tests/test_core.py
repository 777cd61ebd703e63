"""Core primitives: construction invariants, the Born rule, collapse, JSON."""

import ast
import math
import re
import tokenize
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abl_engine import (
    DegenerateSpan,
    DimensionMismatch,
    ImpossiblePostSelection,
    MAX_DIM,
    Observable,
    ParseError,
    ProbabilityDistribution,
    Projector,
    SelectionContext,
    StateVector,
    ValidationError,
    WeightAssignment,
    abl,
    basis_state,
    born_prob_pure,
    observable_from_json,
    projector_from_span,
    state_from_json,
    trivial_observable,
)
from conftest import (
    born_chain,
    observable_json,
    random_observable,
    random_state,
    state_json,
    unit,
)


def test_state_vector_accepts_unit_vectors():
    s = StateVector(np.array([1.0, 0.0], dtype=complex))
    assert s.dim == 2
    assert s.amplitudes[0] == 1.0 + 0.0j


def test_state_vector_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        StateVector(np.array([1.0, 1.0], dtype=complex))  # norm sqrt(2)
    with pytest.raises(ValidationError):
        StateVector(np.eye(2, dtype=complex))  # not 1-d
    with pytest.raises(ValidationError):
        StateVector(np.array([np.nan + 0j]))
    too_big = f"^state dimension must be in 1..{MAX_DIM}, got {MAX_DIM + 1}$"
    with pytest.raises(ValidationError, match=too_big):
        StateVector(np.zeros(MAX_DIM + 1, dtype=complex))


def test_state_vector_is_immutable():
    s = StateVector(np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_unreadable_or_overflowing_entries_are_validation_errors():
    cases = [
        (lambda: StateVector(["a", "b"]), "^amplitudes must be numbers$"),
        (lambda: StateVector([object()]), "^amplitudes must be numbers$"),
        (lambda: StateVector([[1.0, 0.0], [1.0]]), "^amplitudes must be numbers$"),
        (lambda: StateVector([10**400]), "^amplitudes must be numbers$"),
        (lambda: Projector([["a"]], "x"), "^projector entries must be numbers$"),
        # a norm that overflows is inf, refused without a numpy warning
        (lambda: StateVector([1e308, 1e308]), "^state norm inf differs from 1 beyond 1e-10$"),
        # P^2 overflows to inf - inf: a nan deviation is refused, not passed
        (
            lambda: Projector([[1, 1e200 + 1e200j], [1e200 - 1e200j, 1]], "x"),
            r"^projector must be idempotent within 1e-10: max \|P\^2 - P\| is nan$",
        ),
    ]
    for make, message in cases:
        with pytest.raises(ValidationError, match=message):
            make()


EXTREMES = (0.0, 5e-324, 1e-200, 1.0, 1e154, 1e200, 1e308, -1e308)


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(st.sampled_from(EXTREMES), st.sampled_from(EXTREMES)), min_size=4, max_size=4))
def test_extreme_finite_entries_build_or_are_validation_errors(parts):
    # each constructor must build or refuse by name; a numpy overflow warning
    # is made an error here, so neither outcome can hide one
    entries = [complex(re, im) for re, im in parts]
    values = tuple(zip("abcd", (re for re, _ in parts)))
    for make in (
        lambda: StateVector(entries[:2]),
        lambda: Projector(np.reshape(entries, (2, 2)), "x"),
        lambda: WeightAssignment(values),
        lambda: ProbabilityDistribution(values),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                make()
            except ValidationError:
                pass


def test_basis_state_bounds():
    assert basis_state(3, 2).amplitudes[2] == 1.0
    for dim, index, name in (
        (3, 3, "index"),
        (3, 1.0, "index"),
        (3, True, "index"),
        (True, 0, "dim"),
        (0, 0, "dim"),
        (MAX_DIM + 1, 0, "dim"),
    ):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            basis_state(dim, index)


def test_projector_invariants():
    p = Projector(np.diag([1.0, 0.0, 1.0]).astype(complex), "edge")
    assert p.rank == 2
    with pytest.raises(ValidationError):
        Projector(0.5 * np.eye(2, dtype=complex), "half")  # not idempotent
    with pytest.raises(ValidationError):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex), "raise")
    for matrix, label in (
        (np.zeros((2, 3)), "wide"),
        (np.eye(MAX_DIM + 1), "big"),
        (np.diag([np.nan, 1.0]), "nan"),
    ):
        with pytest.raises(ValidationError):
            Projector(matrix, label)
    # a label is checked where it is made, not only inside an Observable
    for label in ("", 7, None):
        with pytest.raises(ValidationError, match="^projector label must be a nonempty string$"):
            Projector(np.eye(2), label)


def test_refusals_name_the_deviation_and_the_tolerance():
    up = Projector(np.diag([1.0, 0.0]).astype(complex), "up")
    for build, message in (
        (
            lambda: Projector(np.array([[1.0, 3e-10], [0.0, 0.0]]), "skew"),
            "projector must be Hermitian within 1e-10: max |P - P^H| is 3e-10",
        ),
        (
            lambda: Projector(0.5 * np.eye(2), "half"),
            "projector must be idempotent within 1e-10: max |P^2 - P| is 0.25",
        ),
        (
            lambda: Observable((up, Projector(np.diag([1.0, 0.0]).astype(complex), "up2"))),
            "projectors 'up' and 'up2' must be orthogonal within 1e-10: max |P_j P_k| is 1.0",
        ),
        (
            lambda: Observable((up,)),
            "outcome projectors must sum to the identity within 1e-10: max |sum - I| is 1.0",
        ),
    ):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
    # just inside the tolerance, each check passes
    Projector(np.array([[1.0, 1e-10], [0.0, 0.0]]), "skew")


def test_tolerances_are_written_once():
    # every e-notation float in the package's code and strings is one of
    # core.py's three tolerance definitions; other code names the constant
    import abl_engine

    e_float = re.compile(r"(?<![\w.])\d+(\.\d*)?[eE][-+]?\d+")
    kinds = {tokenize.NUMBER, tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}
    found = []
    for path in sorted(Path(abl_engine.__file__).parent.glob("*.py")):
        with path.open("rb") as source:
            for token in tokenize.tokenize(source.readline):
                if token.type in kinds and e_float.search(token.string):
                    found.append((path.name, token.start[0], token.line.split()[:2]))
    assert [(name, words) for name, _, words in found] == [
        ("core.py", ["NORM_TOL", "="]),
        ("core.py", ["ZERO_PROB_TOL", "="]),
        ("core.py", ["RANK_TOL", "="]),
    ], found


def test_every_error_code_is_raised_somewhere():
    # an EngineError subclass that no module raises, or hands to a check that
    # raises it, is a code no caller can ever see
    import abl_engine
    from abl_engine import EngineError, errors

    codes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, EngineError) and value is not EngineError
    }
    used = set()
    for path in Path(abl_engine.__file__).parent.glob("*.py"):
        if path.name in ("errors.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                used.add(getattr(node.exc.func, "id", None))
            elif isinstance(node, ast.Call):
                args = [*node.args, *(keyword.value for keyword in node.keywords)]
                used.update(arg.id for arg in args if isinstance(arg, ast.Name))
    assert codes and codes <= used, sorted(codes - used)


def test_observable_invariants():
    p0 = Projector(np.diag([1.0, 0.0]).astype(complex), "up")
    p1 = Projector(np.diag([0.0, 1.0]).astype(complex), "down")
    obs = Observable((p0, p1))
    assert obs.labels == ("up", "down")
    with pytest.raises(ValidationError):
        Observable(())
    with pytest.raises(ValidationError):
        Observable((p0, Projector(np.diag([1.0, 0.0]).astype(complex), "up2")))  # not orthogonal
    with pytest.raises(ValidationError):
        Observable((p0,))  # does not sum to identity
    with pytest.raises(ValidationError, match=r"^outcome labels must be unique, got \['up', 'up'\]$"):
        Observable((p0, Projector(np.diag([0.0, 1.0]).astype(complex), "up")))
    with pytest.raises(ValidationError):
        Observable((Projector(np.eye(2, dtype=complex), ""),))
    with pytest.raises(DimensionMismatch, match=r"dimensions differ: \[2, 2, 3\]"):
        Observable((p0, p1, Projector(np.zeros((3, 3)), "wider")))  # mixed dimensions


def test_trivial_observable():
    obs = trivial_observable(3)
    assert obs.labels == ("any",)
    assert np.array_equal(obs.outcomes[0].matrix, np.eye(3))
    for dim in (-1, 0, 1.5, True, MAX_DIM + 1):
        with pytest.raises(ValidationError, match="^dim must be"):
            trivial_observable(dim)


def test_projector_from_span_basics():
    p = projector_from_span([basis_state(3, 0)], "first")
    assert p.rank == 1
    coarse = projector_from_span([basis_state(3, 1), basis_state(3, 2)], "rest")
    assert coarse.rank == 2
    assert np.abs(coarse.matrix @ coarse.matrix - coarse.matrix).max() < 1e-12


def test_projector_from_span_is_basis_independent():
    rng = np.random.default_rng(17)
    a, b = random_state(rng, 4), random_state(rng, 4)
    p1 = projector_from_span([a, b], "s")
    mixed = unit(0.3 * a.amplitudes + 0.7j * b.amplitudes)
    p2 = projector_from_span([a, mixed], "s")
    assert np.abs(p1.matrix - p2.matrix).max() < 1e-10


def test_projector_from_span_rejects_degenerate_spans():
    s = basis_state(2, 0)
    with pytest.raises(DegenerateSpan):
        projector_from_span([s, s], "dup")
    with pytest.raises(DegenerateSpan):
        projector_from_span([s, basis_state(2, 1), unit([1, 1])], "over")
    with pytest.raises(ValidationError):
        projector_from_span([], "empty")
    # one error that lists every dimension in argument order
    with pytest.raises(DimensionMismatch, match=r"^dimensions differ: \[2, 3, 2\]$"):
        projector_from_span([s, basis_state(3, 0), basis_state(2, 1)], "mixed")


def test_projector_from_span_refusals_name_their_numbers():
    s = basis_state(2, 0)
    dependent = "span vectors must be linearly independent within 1e-10: smallest singular value is"
    with pytest.raises(DegenerateSpan, match=f"^{re.escape(dependent)} 0.0$"):
        projector_from_span([s, s], "dup")
    # (1, 0) and (1, 1e-11) normalized: the smaller singular value of the
    # pair is 1e-11 / sqrt(2) to first order
    near = unit([1.0, 1e-11])
    with pytest.raises(DegenerateSpan, match=f"^{re.escape(dependent)} ") as caught:
        projector_from_span([s, near], "near")
    assert float(str(caught.value).rsplit(" ", 1)[1]) == pytest.approx(1e-11 / math.sqrt(2))
    with pytest.raises(DegenerateSpan, match=r"^span has 3 vectors, more than its dim 2$"):
        projector_from_span([s, basis_state(2, 1), unit([1, 1])], "over")


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_born_rule_pure_and_trace_agree(seed, dim):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, dim)
    q = random_state(rng, dim)
    p = np.outer(q.amplitudes, q.amplitudes.conj())
    assert born_chain(psi.amplitudes, [p]) == pytest.approx(born_prob_pure(psi, q), abs=1e-12)


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
def test_born_probabilities_complete(seed, dim):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, dim)
    obs = random_observable(rng, dim)
    total = sum(born_chain(psi.amplitudes, [p.matrix]) for p in obs.outcomes)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_born_prob_pure_clamps_within_norm_tolerance():
    # a valid state of norm 1 + 0.9e-10 has |<psi|psi>|^2 = 1.00000000036
    psi = StateVector(np.array([1.0 + 0.9e-10, 0.0], dtype=complex))
    assert born_prob_pure(psi, psi) == 1.0


def test_born_prob_dim_mismatch():
    with pytest.raises(DimensionMismatch):
        born_prob_pure(basis_state(2, 0), basis_state(3, 0))


# The engine applies the Lueders collapse on state vectors: the transition
# weight of outcome k, SelectionContext.transition_weights[k], is the Born
# probability of that outcome times that of the post-selection in the
# collapsed state P psi / ||P psi||.


def test_luders_collapse_onto_rank_one():
    plus = unit([1.0, 1.0])
    z = Observable(
        (
            Projector(np.diag([1.0, 0.0]).astype(complex), "up"),
            Projector(np.diag([0.0, 1.0]).astype(complex), "down"),
        )
    )
    # after "up" the state is |up>, so the post-selection |b> follows with
    # probability |<up|b>|^2 whatever the relative phase of |+> was
    for post in ([1.0, 0.0], [1.0, 1.0], [1.0, 1.0j], [2.0, -1.0]):
        b = unit(post)
        expected = 0.5 * born_prob_pure(basis_state(2, 0), b)
        assert SelectionContext(plus, b, z).transition_weights[0] == pytest.approx(
            expected, abs=1e-12
        )


def test_luders_degenerate_collapse_keeps_subspace_amplitudes():
    # the rank-2 outcome B∪C keeps the relative amplitudes inside its
    # subspace: the collapsed state is (0, 1, 1)/sqrt 2, not a mixture of
    # |B> and |C>, so B∪C and then the post-selection (1, 1, -1)/sqrt 3
    # never both occur
    a = unit([1.0, 1.0, 1.0])
    coarse = np.diag([0.0, 1.0, 1.0]).astype(complex)
    obs = Observable((projector_from_span([basis_state(3, 0)], "A"), Projector(coarse, "B∪C")))
    for post, expected in (([0.0, 1.0, 1.0], 2.0 / 3.0), ([1.0, 1.0, -1.0], 0.0)):
        b = unit(post)
        post_proj = np.outer(b.amplitudes, b.amplitudes.conj())
        chained = born_chain(a.amplitudes, [coarse, post_proj])
        assert chained == pytest.approx(expected, abs=1e-12)
        assert SelectionContext(a, b, obs).transition_weights[1] == pytest.approx(
            chained, abs=1e-12
        )


def test_luders_idempotent_and_impossible():
    up, down = basis_state(2, 0), basis_state(2, 1)
    z = Observable(
        (
            Projector(np.diag([1.0, 0.0]).astype(complex), "up"),
            Projector(np.diag([0.0, 1.0]).astype(complex), "down"),
        )
    )
    # repeating the measurement reproduces its outcome with certainty
    ctx = SelectionContext(up, up, z)
    assert ctx.transition_weights[0] == 1.0
    # an outcome of Born probability zero is never followed by anything
    assert ctx.transition_weights[1] == 0.0
    assert abl(ctx)["down"] == 0.0
    with pytest.raises(ImpossiblePostSelection):
        SelectionContext(up, down, z)


def test_state_json_round_trip_is_exact():
    rng = np.random.default_rng(23)
    s = random_state(rng, 5)
    back = state_from_json(state_json(s))
    assert np.array_equal(back.amplitudes, s.amplitudes)


def test_observable_json_round_trip():
    rng = np.random.default_rng(29)
    obs = random_observable(rng, 4, n_outcomes=3)
    back = observable_from_json(observable_json(obs))
    assert back.labels == obs.labels
    for p, q in zip(obs.outcomes, back.outcomes):
        assert np.abs(p.matrix - q.matrix).max() < 1e-10
    empty = Projector(np.zeros((2, 2)), "never")
    with pytest.raises(ValueError, match="rank-0"):
        observable_json(Observable((Projector(np.eye(2), "always"), empty)))


@pytest.mark.parametrize(
    "payload",
    [
        "not a dict",
        {},
        {"dim": 2},
        {"dim": "2", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]},
        {"dim": True, "amplitudes": [[1.0, 0.0]]},
        {"dim": 2, "amplitudes": [[1.0, 0.0]]},
        {"dim": 1, "amplitudes": [[1.0]]},
        {"dim": 1, "amplitudes": [["1", "0"]]},
        {"dim": 1, "amplitudes": [[True, False]]},
        {"dim": 1, "amplitudes": [[10**400, 0]]},
    ],
)
def test_state_from_json_rejects_malformed(payload):
    with pytest.raises(ParseError):
        state_from_json(payload)


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"dim": 2},
        {"dim": 2, "outcomes": []},
        {"dim": 2, "outcomes": [{"span": []}]},
        {"dim": 2, "outcomes": [{"label": "a", "span": []}]},
        {"dim": "2", "outcomes": [{"label": "a", "span": [{"dim": 2, "amplitudes": [[1, 0], [0, 0]]}]}]},
        {"dim": 2, "outcomes": [{"label": 7, "span": [{"dim": 2, "amplitudes": [[1, 0], [0, 0]]}]}]},
        {
            "dim": 2,
            "outcomes": [
                {"label": "a", "span": [{"dim": 3, "amplitudes": [[1, 0], [0, 0], [0, 0]]}]}
            ],
        },
    ],
)
def test_observable_from_json_rejects_malformed(payload):
    with pytest.raises(ParseError):
        observable_from_json(payload)


@pytest.mark.parametrize(
    "reader, payload, message",
    [
        (state_from_json, {"dim": 200000, "amplitudes": [[1, 0]]}, "state dimension"),
        (state_from_json, {"dim": 0, "amplitudes": "not a list"}, "state dimension"),
        (observable_from_json, {"dim": 65, "outcomes": []}, "observable dimension"),
    ],
    ids=["state-200000", "state-0", "observable-65"],
)
def test_json_dimension_is_checked_before_the_payload(reader, payload, message):
    # the range check comes before any payload check, so these inputs, whose
    # payloads are malformed too, get the range error
    bound = f"{message} must be in 1..{MAX_DIM}, got {payload['dim']}"
    with pytest.raises(ValidationError, match=f"^{bound}$"):
        reader(payload)


def test_more_outcomes_than_dim_are_refused_before_any_span_is_read():
    # every outcome has rank >= 1 and the ranks sum to dim; these spans are
    # malformed too, so a reader that parsed them first would raise ParseError
    payload = {"dim": 2, "outcomes": [{"label": f"o{k}", "span": "x"} for k in range(20000)]}
    with pytest.raises(ValidationError, match="^observable has 20000 outcomes, more than its dim 2$"):
        observable_from_json(payload)


def test_public_names_are_pinned():
    import abl_engine

    assert len(abl_engine.__all__) == len(set(abl_engine.__all__)) == 49
    assert set(abl_engine.__all__) == {
        "__version__", "MAX_DIM", "NORM_TOL", "RANK_TOL", "ZERO_PROB_TOL",
        "StateVector", "Projector", "Observable", "basis_state",
        "trivial_observable", "projector_from_span", "born_prob_pure",
        "state_from_json", "observable_from_json", "SelectionContext", "ProbabilityDistribution",
        "WeightAssignment", "OutcomeDecomposition", "DecompositionReport", "ProductRuleReport",
        "marginal_with_Q", "abl", "abl_trivial_reduction", "kastner",
        "decomposition_check", "interposition_inequality", "product_rule_check",
        "TrialOutcome", "EnsembleStats", "trial_stream", "run_trial", "estimate_abl",
        "estimate_interposition_effect", "ScenarioBundle", "three_box",
        "spin_half", "SCENARIOS", "DecompositionCase",
        "decomposition_counterexample", "EngineError", "ValidationError", "ParseError",
        "DimensionMismatch", "DegenerateSpan",
        "ImpossiblePostSelection", "OrthogonalPrePost", "DegeneratePostObservable",
        "NonCommutingObservables", "NoAcceptedTrials",
    }
    for name in abl_engine.__all__:
        assert hasattr(abl_engine, name), name


def test_the_benchmark_imports_only_names_the_package_has():
    # the benchmark's files are kept fixed, so each name they import from the
    # package, or read as abl_engine.<name>, is public API. They are parsed,
    # not imported: importing bench/run.py sets ABL_ENGINE_THREADS
    import importlib.util

    import abl_engine

    bench = Path(__file__).resolve().parents[1] / "bench"
    names = set()
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "abl_engine":
                names.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "abl_engine":
                names.add(node.attr)
    missing = [
        name
        for name in sorted(names)
        if not hasattr(abl_engine, name) and importlib.util.find_spec(f"abl_engine.{name}") is None
    ]
    assert names and missing == [], missing
