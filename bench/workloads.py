"""The benchmark's workloads.

Each workload makes an op's inputs from the seed (untimed), runs the op
through the engine's public API or its CLI (timed), and checks the op's
results against the oracle (untimed). Ops run in a closed loop from a single
client. The op method takes a tracer; its spans name the per-layer metric
they feed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import oracle
from abl_engine import (
    NoAcceptedTrials,
    Observable,
    SelectionContext,
    StateVector,
    abl,
    decomposition_check,
    decomposition_counterexample,
    estimate_abl,
    estimate_interposition_effect,
    interposition_inequality,
    kastner,
    marginal_with_Q,
    product_rule_check,
    projector_from_span,
    run_trial,
    spin_half,
    three_box,
    trial_stream,
)
from spans import OFF

# (band, dimension, outcomes, contexts per sweep batch). The counts give each
# band roughly a third of the batch time on a 2-core x86-64 machine.
BANDS = (("d3", 3, 2, 120), ("d16", 16, 5, 40), ("d64", 64, 47, 1))
SWEEP_ACCEPTED = 1 << 10  # expected post-selected trials of a sweep estimate
SWEEP_TRIAL_CAP = 1 << 18
MC_TRIALS = 1 << 22
CLI_MC_TRIALS = 1_000_000
CLI_MC_LARGE_TRIALS = 1 << 24
CLI_INPUT_SETS = 4
CLI_MC_SEEDS = 3
CLI_TIMEOUT_S = 120
PRODUCT_RULE_FIELDS = (
    "x_label", "y_label", "x_probability", "y_probability",
    "product_norm", "product_is_zero", "violation",
)


# ---------------------------------------------------------------------------
# seeded inputs


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def random_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


def partition(rng: np.random.Generator, d: int, k: int) -> list[np.ndarray]:
    """A random split of the d basis columns into k nonempty outcomes."""
    cuts = np.sort(rng.choice(np.arange(1, d), size=k - 1, replace=False))
    return [np.sort(group) for group in np.split(rng.permutation(d), cuts)]


@dataclass
class ContextSpec:
    """One generated selection context: Haar states a and b, an observable
    that partitions the columns of the Haar unitary u into outcomes q, a
    second coarse-graining y of the same columns, and the rank-1 basis of the
    Haar unitary v for the decomposition check."""

    band: str
    a: np.ndarray
    b: np.ndarray
    u: np.ndarray
    v: np.ndarray
    q_groups: list
    y_groups: list
    seed: int  # Philox seed of the context's sampler calls
    trial: int  # trial index of its sampled history
    trials: int  # trials of its estimate

    def q(self):
        return [(f"q{j}", self.u[:, g]) for j, g in enumerate(self.q_groups)]

    def y(self):
        return [(f"y{j}", self.u[:, g]) for j, g in enumerate(self.y_groups)]

    def basis(self):
        return [(f"b{i}", self.v[:, i : i + 1]) for i in range(self.v.shape[1])]


def random_context(rng: np.random.Generator, band: str, d: int, k: int) -> ContextSpec:
    spec = ContextSpec(
        band=band,
        a=random_state(rng, d),
        b=random_state(rng, d),
        u=haar_unitary(rng, d),
        v=haar_unitary(rng, d),
        q_groups=partition(rng, d, k),
        y_groups=partition(rng, d, 2),
        seed=int(rng.integers(1 << 62)),
        trial=int(rng.integers(1 << 20)),
        trials=0,
    )
    marginal = oracle.context_values(spec.a, spec.q(), spec.b)["marginal"]
    spec.trials = min(SWEEP_TRIAL_CAP, math.ceil(SWEEP_ACCEPTED / marginal))
    return spec


def _stats(stats) -> dict:
    return {
        "trials": stats.trials,
        "accepted": stats.accepted,
        "counts": [(label, round(f * stats.accepted)) for label, f in stats.frequencies],
    }


# ---------------------------------------------------------------------------
# sweep


def _build_observable(tr, band, kets, groups, prefix):
    projectors = tuple(
        tr.call(f"core.projector_s.{band}", projector_from_span, [kets[i] for i in g], f"{prefix}{j}")
        for j, g in enumerate(groups)
    )
    return tr.call(f"core.observable_s.{band}", Observable, projectors)


def _abl_and_marginal(ctx):
    return abl(ctx), marginal_with_Q(ctx)


def _one_trial(ctx, seed):
    try:
        return estimate_abl(ctx, 1, seed)
    except NoAcceptedTrials:  # the oracle says whether the trial passes
        return None


def _history(pre, observables, post, seed, trial):
    return run_trial(pre, observables, post, trial_stream(seed, trial, len(observables)))


def run_context(tr, spec: ContextSpec) -> dict:
    band = spec.band
    state = f"core.state_s.{band}"
    pre = tr.call(state, StateVector, spec.a)
    post = tr.call(state, StateVector, spec.b)
    u_kets = [tr.call(state, StateVector, col) for col in spec.u.T]
    v_kets = [tr.call(state, StateVector, col) for col in spec.v.T]
    q = _build_observable(tr, band, u_kets, spec.q_groups, "q")
    y = _build_observable(tr, band, u_kets, spec.y_groups, "y")
    basis = _build_observable(tr, band, v_kets, [[i] for i in range(len(v_kets))], "b")
    ctx = tr.call(f"rules.context_s.{band}", SelectionContext, pre, post, q)
    return {
        "abl": tr.call(f"rules.abl_s.{band}", _abl_and_marginal, ctx),
        "kastner": tr.call(f"rules.kastner_s.{band}", kastner, ctx),
        "interposition": tr.call(f"rules.interposition_s.{band}", interposition_inequality, pre, q, post),
        "decomposition": tr.call(f"rules.decomposition_s.{band}", decomposition_check, pre, q, basis),
        "product_rule": tr.call(f"rules.product_rule_s.{band}", product_rule_check, pre, post, q, y),
        "tables": tr.call(f"ensemble.tables_s.{band}", _one_trial, ctx, spec.seed),
        "history": tr.call(
            f"ensemble.run_trial_s.{band}", _history, pre, [q, basis], post, spec.seed, spec.trial
        ),
        "estimate": tr.call(
            f"ensemble.estimate_small_s.{band}", estimate_abl, ctx, spec.trials, spec.seed
        ),
    }


def plain_context(res: dict) -> dict:
    """The engine's results for one context as plain Python data."""
    dist, marginal = res["abl"]
    dec = res["decomposition"]
    tables = res["tables"]
    history = res["history"]
    return {
        "abl": list(dist.entries),
        "marginal": marginal,
        "kastner": list(res["kastner"].entries),
        "interposition": list(res["interposition"]),
        "decomposition": {
            "rows": [(row.label, row.lhs, row.rhs) for row in dec.outcomes],
            "which": dec.which_condition,
            "max_residual": dec.max_residual,
        },
        "product_rule": {key: getattr(res["product_rule"], key) for key in PRODUCT_RULE_FIELDS},
        "tables": None if tables is None else _stats(tables),
        "history": [list(history.intermediate_labels), history.post_selected],
        "estimate": _stats(res["estimate"]),
    }


def check_context(spec: ContextSpec, got: dict) -> list[str]:
    c = oracle.Check(f"{spec.band}.")
    q, y, basis = spec.q(), spec.y(), spec.basis()
    v = oracle.context_values(spec.a, q, spec.b)
    labels = v["labels"]
    c.entries("abl", got["abl"], labels, v["abl"], oracle.near_zero_slack(v, "abl"))
    c.value("marginal", got["marginal"], v["marginal"])
    c.entries("kastner", got["kastner"], labels, v["kastner"])
    c.value("interposition.direct", got["interposition"][0], v["direct"])
    c.value("interposition.with_q", got["interposition"][1], v["marginal"])

    dec = oracle.decomposition(spec.a, q, basis)
    rows = got["decomposition"]["rows"]
    c.entries("decomposition.lhs", [(label, lhs) for label, lhs, _ in rows], labels, dec["lhs"])
    c.entries("decomposition.rhs", [(label, rhs) for label, _, rhs in rows], labels, dec["rhs"])
    c.equal("decomposition.which", got["decomposition"]["which"], dec["which"])
    c.value("decomposition.max_residual", got["decomposition"]["max_residual"], dec["max_residual"])

    for key, want in oracle.product_rule(spec.a, spec.b, q, y).items():
        if isinstance(want, (bool, str)):
            c.equal(f"product_rule.{key}", got["product_rule"][key], want)
        else:
            c.value(f"product_rule.{key}", got["product_rule"][key], want)

    path, accepted, ambiguous = oracle.replay(spec.seed, 0, spec.trial, spec.a, [q, basis], spec.b)
    if not ambiguous:
        c.equal("run_trial", got["history"], [list(path), accepted])
    path, accepted, ambiguous = oracle.replay(spec.seed, 0, 0, spec.a, [q], spec.b)
    if not ambiguous:
        want = None
        if accepted:
            want = {"trials": 1, "accepted": 1, "counts": [(lbl, int(lbl == path[0])) for lbl in labels]}
        c.equal("tables.one_trial", got["tables"], want)

    est = got["estimate"]
    c.equal("estimate.trials", est["trials"], spec.trials)
    c.counts("estimate", est["counts"], est["accepted"], est["trials"], labels, v["abl"], v["marginal"])
    return c.broken


class Sweep:
    """One op is a batch of fresh contexts in the three bands."""

    name = "sweep"
    cycle = 1  # ops alternate traced and untraced in a traced run

    def __init__(self, seed: int, counts: dict | None = None):
        self.seed = seed
        self.counts = counts or {band: n for band, _, _, n in BANDS}

    def setup(self) -> None:
        pass

    def inputs(self, i: int) -> list[ContextSpec]:
        rng = np.random.default_rng([self.seed, i])
        return [
            random_context(rng, band, d, k)
            for band, d, k, _ in BANDS
            for _ in range(self.counts[band])
        ]

    def op(self, tr, specs):
        results = []
        for spec in specs:
            with tr.span(f"bench.context.{spec.band}"):
                results.append(run_context(tr, spec))
        return results

    def work(self, specs) -> int:
        return 1

    def check(self, i, specs, results) -> list[str]:
        broken = []
        for spec, res in zip(specs, results):
            broken += check_context(spec, plain_context(res))
        return broken

    def finish(self) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# mc-stream

MC_CONTEXTS = ("three-box", "spin-half", "rand16")


class McStream:
    """One op is estimate_abl at 2^22 trials on each of three contexts plus
    estimate_interposition_effect on three-box; the sampler seed advances per op."""

    name = "mc-stream"
    cycle = 1

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1 << 32])
        self.rand16 = random_context(rng, "rand16", 16, 5)
        self.base_seed = int(rng.integers(1 << 62))
        self.first = None
        self.acceptance = {name: [] for name in MC_CONTEXTS}

    def setup(self) -> None:
        box, spin = three_box(), spin_half()
        spec = self.rand16
        kets = [StateVector(col) for col in spec.u.T]
        q = _build_observable(OFF, "rand16", kets, spec.q_groups, "q")
        self.contexts = (
            ("three-box", box.context),
            ("spin-half", spin.context),
            ("rand16", SelectionContext(StateVector(spec.a), StateVector(spec.b), q)),
        )
        rand = oracle.context_values(spec.a, spec.q(), spec.b)
        self.expected = {
            "three-box": (
                ("A", "B", "C"),
                [box.expected_value(f"fullQ:{x}") for x in "ABC"],
                box.expected_value("fullQ:marginal"),
            ),
            "spin-half": (
                ("up_c", "down_c"),
                [spin.expected_value("up_c"), spin.expected_value("down_c")],
                spin.expected_value("marginal"),
            ),
            "rand16": (rand["labels"], rand["abl"], rand["marginal"]),
        }
        self.direct = box.expected_value("direct")

    def inputs(self, i: int) -> int:
        return self.base_seed + i

    def op(self, tr, seed: int) -> dict:
        out = {
            name: tr.call(f"ensemble.estimate_s.{name}", estimate_abl, ctx, MC_TRIALS, seed)
            for name, ctx in self.contexts
        }
        box = self.contexts[0][1]
        out["interposition"] = tr.call(
            "ensemble.interposition_effect_s",
            estimate_interposition_effect,
            box.pre, box.intervening, box.post, MC_TRIALS, seed,
        )
        return out

    def work(self, seed) -> int:
        return 4 * MC_TRIALS

    @staticmethod
    def _plain(res) -> dict:
        got = {name: _stats(res[name]) for name in MC_CONTEXTS}
        got["interposition"] = [round(rate * MC_TRIALS) for rate in res["interposition"]]
        return got

    def check(self, i, seed, res) -> list[str]:
        got = self._plain(res)
        if self.first is None:
            self.first = (seed, got)
        c = oracle.Check("mc.")
        for name in MC_CONTEXTS:
            labels, probs, marginal = self.expected[name]
            est = got[name]
            c.equal(f"{name}.trials", est["trials"], MC_TRIALS)
            c.counts(name, est["counts"], est["accepted"], MC_TRIALS, labels, probs, marginal)
            self.acceptance[name].append(est["accepted"] / MC_TRIALS)
        without, with_q = got["interposition"]
        c.binomial("interposition.direct", without, MC_TRIALS, self.direct)
        c.binomial("interposition.with_q", with_q, MC_TRIALS, self.expected["three-box"][2])
        return c.broken

    def finish(self) -> list[str]:
        """Repeat the first op; its counts must not change."""
        seed, first = self.first
        return [] if self._plain(self.op(OFF, seed)) == first else ["mc.repeat: the first op's counts changed when repeated"]


# ---------------------------------------------------------------------------
# cli-oneshot


def _state_json(amplitudes) -> dict:
    return {"dim": len(amplitudes), "amplitudes": [[float(z.real), float(z.imag)] for z in amplitudes]}


def _observable_json(outcomes) -> dict:
    return {
        "dim": outcomes[0][1].shape[0],
        "outcomes": [{"label": label, "span": [_state_json(col) for col in E.T]} for label, E in outcomes],
    }


def _rank_one_outcomes(observable):
    """(label, ket) pairs recovered from rank-1 projector matrices with numpy alone."""
    outcomes = []
    for p in observable.outcomes:
        values, vectors = np.linalg.eigh(p.matrix)
        outcomes.append((p.label, vectors[:, values > 0.5]))
    return outcomes


class CliOneshot:
    """One op is one `python -m abl_engine` subprocess; the commands cycle
    through an analytic scenario, abl on d=16 files, the decomposition
    counterexample and a seeded --mc scenario in CSV."""

    name = "cli-oneshot"
    cycle = 4  # traced runs alternate whole command cycles
    mc_trials = CLI_MC_TRIALS

    def __init__(self, seed: int, root, env: dict):
        self.root = root
        self.env = env
        rng = np.random.default_rng([seed, 2 << 32])
        self.sets = [random_context(rng, "cli", 16, 5) for _ in range(CLI_INPUT_SETS)]
        self.mc_seeds = [int(s) for s in rng.integers(1 << 31, size=CLI_MC_SEEDS)]
        self.rel = f"bench/out/cli-inputs/seed{seed}"
        self.first: dict[tuple, bytes] = {}

    def setup(self) -> None:
        """Writes the benchmark's own input files; not part of set-up time."""
        folder = self.root / self.rel
        folder.mkdir(parents=True, exist_ok=True)
        files = {}
        for m, spec in enumerate(self.sets):
            files[f"pre{m}.json"] = _state_json(spec.a)
            files[f"post{m}.json"] = _state_json(spec.b)
            files[f"obs{m}.json"] = _observable_json(spec.q())
        case = decomposition_counterexample()
        q, basis = _rank_one_outcomes(case.q), _rank_one_outcomes(case.b_obs)
        files["cx_pre.json"] = _state_json(case.pre.amplitudes)
        files["cx_q.json"] = _observable_json(q)
        files["cx_b.json"] = _observable_json(basis)
        for name, payload in files.items():
            (folder / name).write_text(json.dumps(payload))
        self.counterexample = (oracle.decomposition(np.array(case.pre.amplitudes), q, basis), case.expected_max_residual)
        self.three_box = three_box()

    def argv(self, i: int) -> list[str]:
        kind, m = i % 4, (i // 4)
        path = f"{self.rel}/{{}}.json".format
        if kind == 0:
            return ["scenario", "three-box"]
        if kind == 1:
            n = m % CLI_INPUT_SETS
            return ["abl", "--pre", path(f"pre{n}"), "--post", path(f"post{n}"), "--observable", path(f"obs{n}")]
        if kind == 2:
            return ["decomposition", "--pre", path("cx_pre"), "--observable", path("cx_q"), "--observable", path("cx_b")]
        return self.mc_argv(m)

    def mc_argv(self, m: int) -> list[str]:
        seed = self.mc_seeds[m % CLI_MC_SEEDS]
        return ["scenario", "three-box", "--mc", "--trials", str(self.mc_trials), "--format", "csv", "--seed", str(seed)]

    def invoke(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "abl_engine", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )

    def inputs(self, i: int) -> list[str]:
        return self.argv(i)

    def op(self, tr, argv):
        return self.invoke(argv)

    def work(self, argv) -> int:
        return 1

    def check(self, i, argv, proc) -> list[str]:
        c = oracle.Check("cli.")
        c.equal("exit_code", proc.returncode, 0)
        c.equal("stderr", proc.stderr.decode(errors="replace"), "")
        if c.broken:
            return c.broken
        key = tuple(argv)
        c.equal("byte_identical", proc.stdout == self.first.setdefault(key, proc.stdout), True)
        try:
            self._check_report(c, self.kind(i), i, proc.stdout.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            c.equal("report_shape", f"{type(exc).__name__}: {exc}", "parsable")
        return c.broken

    def kind(self, i: int) -> int:
        return i % 4

    def _check_report(self, c, kind, i, text) -> None:
        box = self.three_box
        if kind == 3:
            rows = list(csv.reader(io.StringIO(text)))
            c.equal("mc.header", rows[0], ["label", "frequency", "std_error", "analytic_abl", "z_score"])
            table = [(label, float(f), float(se), float(exp)) for label, f, se, exp, _ in rows[1:]]
            labels = [label for label, *_ in table]
            c.equal("mc.labels", labels, ["A", "B", "C"])
            probs = [box.expected_value(f"fullQ:{x}") for x in labels]
            for (label, _, _, analytic), p in zip(table, probs):
                c.value(f"mc.analytic[{label}]", analytic, p)
            f, se = next((f, se) for _, f, se, _ in table if se > 0.0)
            accepted = round(f * (1.0 - f) / se**2)
            counts = [(label, round(freq * accepted)) for label, freq, _, _ in table]
            c.counts("mc", counts, accepted, self.mc_trials, labels, probs, box.expected_value("fullQ:marginal"))
            return
        results = json.loads(text)["results"]
        if kind == 0:
            c.entries("scenario.abl", sorted(results["abl"].items()), "ABC",
                      [box.expected_value(f"fullQ:{x}") for x in "ABC"])
            c.value("scenario.marginal", results["marginal_with_Q"], box.expected_value("fullQ:marginal"))
        elif kind == 1:
            spec = self.sets[(i // 4) % CLI_INPUT_SETS]
            v = oracle.context_values(spec.a, spec.q(), spec.b)
            order = np.argsort(v["labels"])
            c.entries("abl.abl", sorted(results["abl"].items()), [v["labels"][j] for j in order],
                      v["abl"][order], [oracle.near_zero_slack(v, "abl")[j] for j in order])
            c.value("abl.marginal", results["marginal_with_Q"], v["marginal"])
        else:
            dec, residual = self.counterexample
            rows = results["outcomes"]
            c.entries("decomposition.lhs", [(r["label"], r["lhs"]) for r in rows], dec["labels"], dec["lhs"])
            c.entries("decomposition.rhs", [(r["label"], r["rhs"]) for r in rows], dec["labels"], dec["rhs"])
            c.equal("decomposition.which", results["which_condition"], dec["which"])
            c.value("decomposition.max_residual", results["max_residual"], dec["max_residual"])
            c.value("decomposition.closed_form_residual", results["max_residual"], residual)

    def finish(self) -> list[str]:
        return []


class CliMc(CliOneshot):
    """One op is one `python -m abl_engine scenario three-box --mc` subprocess
    at 2^24 trials with CSV output; the seed cycles through a small fixed set."""

    name = "cli-mc"
    cycle = 1
    mc_trials = CLI_MC_LARGE_TRIALS

    def argv(self, i: int) -> list[str]:
        return self.mc_argv(i)

    def kind(self, i: int) -> int:
        return 3

    def work(self, argv) -> int:
        return self.mc_trials
