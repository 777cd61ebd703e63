#!/usr/bin/env python3
"""Benchmark of abl-engine: four workloads, timed end to end, and per layer
in a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --compare OLD_RUNS NEW_RUNS
    python3 bench/run.py --compare RUNS

A run prints every metric by name with its unit, and as its last line one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1. It also
writes its full record to bench/out/runs/, and a traced run its spans to
bench/out/spans/. --compare reads such records; see compare.py.
"""

import os
import sys

# Pin threads before numpy is imported here or in any child: BLAS adds no
# threads of its own, and the engine's sampler runs on one thread in a timed
# run and on every CPU of the affinity mask (os.cpu_count() can exceed it) in
# a traced run; see run().
NPROC = len(os.sched_getaffinity(0))
TIMED_THREADS = 1
os.environ["ABL_ENGINE_THREADS"] = str(NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep", "mc-stream", "cli-mc", "cli-oneshot")
SETUP_REPEATS = 21
TAIL_BEYOND = 10
MAX_FAILURE_RECORDS = 20
PROBE_BATCH = {"d3": 12, "d16": 4, "d64": 2}
PROBE_OPS = 2
PROBE_INDEX = 1 << 40  # sweep probe batches draw inputs from op indices no run reaches
# Program-side set-up of every workload but cli-oneshot, timed inside a fresh
# interpreter: the engine import (numpy with it) and the scenario constructors.
SETUP_CODE = (
    "import time; t = time.perf_counter(); import abl_engine; "
    "abl_engine.three_box(); abl_engine.spin_half(); abl_engine.decomposition_counterexample(); "
    "print(repr(time.perf_counter() - t))"
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs="+", metavar="RUNS",
                        help="one or two run directories or record files")
    args = parser.parse_args(argv)
    if args.compare is None and args.workload is None:
        parser.error("--workload is required")
    if args.compare is not None and len(args.compare) > 2:
        parser.error("--compare takes one or two paths")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((SRC / "abl_engine").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in ("ABL_ENGINE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_revision": git_revision(),
        "src_sha256": digest.hexdigest(),
    }


def git_revision():
    """HEAD of the repository rooted exactly here, else None."""
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


@dataclass
class Op:
    index: int
    seconds: float
    work: int
    traced: bool
    broken: list = field(default_factory=list)


def run_one(w, i, tr, op_id):
    """Make op i's inputs, run it (timed) and check it. Returns (seconds, work, broken)."""
    from abl_engine import EngineError

    inputs = w.inputs(i)
    work = w.work(inputs)
    if tr.enabled:
        tr.op = op_id
    start = time.perf_counter()
    try:
        result = tr.call("op", w.op, tr, inputs)
    except EngineError as exc:
        return time.perf_counter() - start, work, [f"engine error {exc.code}: {exc}"]
    except Exception:  # the loop must go on; the traceback is the failure record
        return time.perf_counter() - start, work, [traceback.format_exc()]
    elapsed = time.perf_counter() - start
    try:
        return elapsed, work, w.check(i, inputs, result)
    except Exception:
        return elapsed, work, ["check raised: " + traceback.format_exc()]


def measure(w, seconds, tracer, sample_setup=None):
    """Closed loop from one client until `seconds` have passed. In a traced
    run, whole cycles of ops alternate between traced and untraced.

    With `sample_setup`, SETUP_REPEATS set-up samples are taken between ops,
    spread evenly over the run: on a shared host, speed can drift over tens
    of seconds, and samples taken back to back would all see one phase of it.
    Returns (ops, set-up samples)."""
    from spans import OFF

    ops, setup = [], []
    min_ops = 1 if tracer is None else 2 * w.cycle
    start = time.perf_counter()
    while len(ops) < min_ops or time.perf_counter() - start < seconds:
        i = len(ops)
        traced = tracer is not None and (i // w.cycle) % 2 == 0
        elapsed, work, broken = run_one(w, i, tracer if traced else OFF, i)
        ops.append(Op(i, elapsed, work, traced, broken))
        if sample_setup and len(setup) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            setup.append(sample_setup())
    while sample_setup and len(setup) < SETUP_REPEATS:
        setup.append(sample_setup())
    try:
        ops[0].broken += w.finish()
    except Exception:
        ops[0].broken.append("finish raised: " + traceback.format_exc())
    return ops, setup


def tail(times):
    """The highest order statistic with TAIL_BEYOND ops above it, never below
    the median; its percentile; and the count of ops above it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(n - 1 - TAIL_BEYOND, n // 2)
    return ordered[k], 100.0 * (k + 1) / n, n - 1 - k


def setup_sample(w, env) -> float:
    """One sample of the program's set-up time, taken in a fresh process."""
    if w.name == "cli-oneshot":
        start = time.perf_counter()
        proc = w.invoke(w.argv(0))
        if proc.returncode != 0:
            raise RuntimeError(f"warm-up invocation failed: {proc.stderr.decode(errors='replace')}")
        return time.perf_counter() - start
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr}")
    return float(proc.stdout)


def end_to_end(w, ops, extra, setup):
    times = [op.seconds for op in ops]
    value, percentile, beyond = tail(times)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if w.name.startswith("cli-") else resource.RUSAGE_SELF)
    ok = [op for op in ops if not op.broken]
    attempted = len(ops) + len(extra)
    failed = len(ops) - len(ok) + sum(1 for broken in extra if broken)
    metrics = {
        # The median op's rate, not total work over total time: on a shared
        # host a few ops run 20-30% slow in bursts, and a mean carries them.
        # Scaled by the share of ops that passed, so failed work counts for nothing.
        "work_per_s": statistics.median(op.work / op.seconds for op in ops) * len(ok) / len(ops),
        "op_p50_s": statistics.median(times),
        "op_tail_s": value,
        "success_rate": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    details = {
        "ops": len(ops),
        "op_tail_percentile": percentile,
        "ops_beyond_tail": beyond,
        "error_rate": 1.0 - metrics["success_rate"],
        "setup_samples": setup,
        "op_seconds": times,
    }
    return metrics, details


def per_layer(w, seed, ops, tracer, env):
    """Per-layer metrics from the traced ops plus the probes. Returns
    (metrics, the broken invariants of each probe op, details)."""
    import probes
    from workloads import CliOneshot, McStream, Sweep

    extra = []

    def probe(workload, i):
        extra.append(run_one(workload, i, tracer, None)[2])

    if w.name != "sweep":
        for i in range(PROBE_OPS):
            probe(Sweep(seed, PROBE_BATCH), PROBE_INDEX + i)
    mc = w
    if w.name != "mc-stream":
        mc = McStream(seed)
        mc.setup()
        for i in range(PROBE_OPS):
            probe(mc, i)
    probes.one_thread_estimates(tracer, mc)
    probes.draw_floor(tracer)
    cliw = w
    if w.name != "cli-oneshot":
        cliw = CliOneshot(seed, ROOT, env)
        cliw.setup()
    (OUT / "importtime").mkdir(parents=True, exist_ok=True)
    extra.append(probes.cli_layers(tracer, cliw, OUT / "importtime" / f"{w.name}-seed{seed}.txt"))
    probes.scenario_builds(tracer)

    m = tracer.medians()
    for name, ratios in mc.acceptance.items():
        one_thread = m[f"ensemble.estimate_1t_s.{name}"]
        m[f"ensemble.fanout_speedup.{name}"] = one_thread / m[f"ensemble.estimate_s.{name}"]
        m[f"ensemble.generation_share.{name}"] = m["ensemble.draw_floor_s"] / one_thread
        m[f"ensemble.acceptance_ratio.{name}"] = statistics.median(ratios)
    m["ensemble.draws_used_ratio.interposed"] = probes.draws_used_ratio(1)
    m["ensemble.draws_used_ratio.direct"] = probes.draws_used_ratio(0)
    m["cli.import_s"] = m["cli.import_process"] - m["cli.interpreter_s"]

    counts, shares = tracer.per_op()
    traced = [op for op in ops if op.traced]
    untraced = [op for op in ops if not op.traced]

    def rate(group):
        return sum(op.work for op in group) / sum(op.seconds for op in group)

    m["trace.overhead"] = rate(traced) / rate(untraced) - 1.0
    details = {
        "spans_per_op": statistics.median(counts.values()),
        "root_self_share": statistics.median(shares.values()),
        "span_counts": {str(op): n for op, n in sorted(counts.items())},
    }
    return m, extra, details


def failure_records(workload, seed, ops, extra):
    records = [
        {"workload": workload, "op": op.index, "seed": seed, "invariant": invariant}
        for op in ops
        for invariant in op.broken
    ]
    records += [
        {"workload": workload, "op": "warm-up or probe", "seed": seed, "invariant": invariant}
        for broken in extra
        for invariant in broken
    ]
    return records[:MAX_FAILURE_RECORDS]


def run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import abl_engine

    if Path(abl_engine.__file__).resolve().parent != (SRC / "abl_engine").resolve():
        print(f"abl_engine was imported from {abl_engine.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import OFF, Tracer
    from workloads import CliMc, CliOneshot, McStream, Sweep

    # A timed run keeps the sampler on one thread: on a few shared cores, a
    # pool as wide as nproc waits on whichever core the host slows, and its
    # op times moved by about 30% between runs of the same code, against 3%
    # on one thread. The traced run keeps nproc threads, so the per-layer
    # metrics still show the fan-out (ensemble.fanout_speedup).
    if not args.trace:
        os.environ["ABL_ENGINE_THREADS"] = str(TIMED_THREADS)
    env = child_env()
    if args.workload == "sweep":
        w = Sweep(args.seed)
    elif args.workload == "mc-stream":
        w = McStream(args.seed)
    elif args.workload == "cli-mc":
        w = CliMc(args.seed, ROOT, env)
    else:
        w = CliOneshot(args.seed, ROOT, env)
    w.setup()

    # One untimed warm-up op lets lazy allocation and first-call paths finish.
    extra = [run_one(w, 0, OFF, None)[2]]
    tracer = Tracer() if args.trace else None
    ops, setup = measure(w, args.seconds, tracer, None if args.trace else lambda: setup_sample(w, env))
    details = {}
    if args.trace:
        metrics, probes_broken, details = per_layer(w, args.seed, ops, tracer, env)
        extra += probes_broken
        catalogue = spec["per_layer"]
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / "spans" / f"{w.name}-seed{args.seed}.json")
    else:
        metrics, details = end_to_end(w, ops, extra, setup)
        catalogue = spec["end_to_end"]
    missing = [entry["name"] for entry in catalogue if entry["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not produced: {missing}")

    failed = sum(1 for op in ops if op.broken) + sum(1 for broken in extra if broken)
    attempted = len(ops) + len(extra)
    failures = failure_records(w.name, args.seed, ops, extra)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in catalogue},
    }
    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "result": result,
        "details": {**details, "failures": failures},
    }
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    (OUT / "runs" / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    for failure in failures:
        print(f"FAILED {failure['workload']} op {failure['op']} seed {failure['seed']}: {failure['invariant']}",
              file=sys.stderr)
    print(f"# {w.name} seed {args.seed} trace {args.trace}: {attempted} ops, {failed} failed")
    print(f"# environment {json.dumps(record['environment'])}")
    for key, value in details.items():
        if key not in ("failures", "span_counts", "op_seconds"):
            print(f"# {key} {value}")
    for e in catalogue:
        print(f"{e['name']:<42} {metrics[e['name']]:.6g} {e['unit']}")
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.compare is not None:
        import compare

        return compare.main(args.compare, ROOT / "BENCHMARK.json")
    if not (SRC / "abl_engine" / "__init__.py").is_file():
        print(f"no program to measure: {SRC / 'abl_engine'} is missing", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
