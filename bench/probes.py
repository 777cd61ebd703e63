"""Per-layer probes of the traced run.

Every traced run reports every per-layer metric. A layer that the workload
itself runs is timed from the workload's own traced ops; the probes here
time the rest, and the layers no workload op runs (1-thread sampling, the
bare Philox floor, interpreter start, scenario constructors). Each probe
records spans through the same tracer, named after the metric they feed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

from abl_engine import (
    decomposition_counterexample,
    estimate_abl,
    observable_from_json,
    run_trial,
    spin_half,
    state_from_json,
    three_box,
    trial_stream,
)
from abl_engine import cli
from workloads import MC_TRIALS

CHUNK_TRIALS = 1 << 16  # draws are generated per chunk of trials, as the sampler does
DRAWS_PER_TRIAL = 4  # one Philox-4x64 block
REPEATS = 3
SUBPROCESS_REPEATS = 5
LAYOUT_SEED = 7


@contextlib.contextmanager
def engine_threads(count: int):
    saved = os.environ["ABL_ENGINE_THREADS"]
    os.environ["ABL_ENGINE_THREADS"] = str(count)
    try:
        yield
    finally:
        os.environ["ABL_ENGINE_THREADS"] = saved


def one_thread_estimates(tr, mc) -> None:
    """estimate_abl at 2^22 trials on one thread, for each mc-stream context."""
    with engine_threads(1):
        for seed in range(REPEATS):
            for name, ctx in mc.contexts:
                tr.call(f"ensemble.estimate_1t_s.{name}", estimate_abl, ctx, MC_TRIALS, seed)


def _philox_draws(seed: int) -> None:
    for first in range(0, MC_TRIALS, CHUNK_TRIALS):
        bit_gen = np.random.Philox(key=[seed, 0])
        bit_gen.advance(first)
        np.random.Generator(bit_gen).random(DRAWS_PER_TRIAL * CHUNK_TRIALS)


def draw_floor(tr) -> None:
    """numpy's Philox alone producing the sampler's 4 doubles per trial for
    2^22 trials on one thread: the floor under any 1-thread estimate."""
    for seed in range(REPEATS):
        tr.call("ensemble.draw_floor_s", _philox_draws, seed)


def draws_used_ratio(n_observables: int) -> float:
    """Doubles a trial uses over doubles the stream reserves for it, found
    through the public stream API: trial 1's stream starts where trial 0's
    reservation ends, and run_trial leaves its generator after the last draw
    it used."""
    box = three_box()
    observables = [box.context.intervening] * n_observables
    reserved = trial_stream(LAYOUT_SEED, 0, n_observables).random(64)
    stride = int(np.flatnonzero(reserved == trial_stream(LAYOUT_SEED, 1, n_observables).random())[0])
    rng = trial_stream(LAYOUT_SEED, 0, n_observables)
    run_trial(box.context.pre, observables, box.context.post, rng)
    used = int(np.flatnonzero(reserved == rng.random())[0])
    return used / stride


def scenario_builds(tr) -> None:
    for _ in range(10):
        tr.call("scenarios.build_s.three-box", three_box)
        tr.call("scenarios.build_s.spin-half", spin_half)
        tr.call("scenarios.build_s.counterexample", decomposition_counterexample)


def _parse(pre, post, obs):
    return state_from_json(pre), state_from_json(post), observable_from_json(obs)


def _main_quietly(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def cli_layers(tr, cliw, artifact) -> list[str]:
    """Interpreter start, CLI import, in-process main() per command, and JSON
    parsing; writes the -X importtime breakdown to `artifact`. Returns the
    invariants broken (a nonzero exit anywhere)."""
    broken = []

    def run(name, args):
        proc = tr.call(name, lambda: subprocess.run(
            [sys.executable, *args], cwd=cliw.root, env=cliw.env, capture_output=True, timeout=60))
        if proc.returncode != 0:
            broken.append(f"probe.{name}: exit code {proc.returncode}")
        return proc

    for _ in range(SUBPROCESS_REPEATS):
        run("cli.interpreter_s", ["-c", "pass"])
        run("cli.import_process", ["-c", "import abl_engine.cli"])
    proc = run("cli.importtime", ["-X", "importtime", "-c", "import abl_engine.cli"])
    artifact.write_bytes(proc.stderr)

    for kind, i in (("scenario", 0), ("abl", 1), ("decomposition", 2), ("mc", 3)):
        for _ in range(REPEATS):
            code = tr.call(f"cli.main_s.{kind}", _main_quietly, cliw.argv(i))
            if code != 0:
                broken.append(f"probe.cli.main_s.{kind}: exit code {code}")

    folder = cliw.root / cliw.rel
    for m in range(len(cliw.sets)):
        payloads = [json.loads((folder / f"{stem}{m}.json").read_text()) for stem in ("pre", "post", "obs")]
        for _ in range(REPEATS):
            tr.call("core.parse_s", _parse, *payloads)
    return broken
