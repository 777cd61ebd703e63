"""Compare two sets of benchmark runs, or summarize one.

A set is a directory of run records (as bench/run.py writes to
bench/out/runs/) or a single record file. For each (metric, workload) the
comparison prints both medians and quartiles, the ratio new/old and a verdict
against the metric's bound in BENCHMARK.json:

- unresolved: a side has fewer than two runs, or its spread (interquartile range over median) exceeds the
  bound, and not every new run beats, or loses to, every old run;
- worse: the new median is worse than the old by more than the bound;
- better: the new median is better by more than the old runs' own spread
  and, over runs that share a seed, the new run wins at least 9 in 10;
- unchanged: none of these.

Per-layer metrics have no bound: only their spread decides. With one set,
each metric's median, quartiles and spread are printed beside a third of
its bound, the target for a steady benchmark. Traced runs that share a
workload and seed must have identical per-op span counts; both sets'
counts are compared, and --compare exits with 1 when they differ.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

WIN_SHARE = 0.9


def load(path: Path) -> tuple[dict, dict]:
    """({(workload, trace, metric): {seed: value}}, {(workload, seed): span counts per op})"""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    values, spans = defaultdict(dict), {}
    for file in files:
        record = json.loads(file.read_text())
        for metric, entry in record["result"]["metrics"].items():
            values[(record["workload"], record["trace"], metric)][record["seed"]] = entry["value"]
        if "span_counts" in record["details"]:
            spans[(record["workload"], record["seed"])] = record["details"]["span_counts"]
    return values, spans


def compare_spans(old: dict, new: dict) -> bool:
    """Per-op span counts of traced runs at one seed must repeat exactly.
    Returns whether they do."""
    same = True
    for key in sorted(old.keys() & new.keys()):
        ops = sorted(old[key].keys() & new[key].keys(), key=int)
        differ = [op for op in ops if old[key][op] != new[key][op]]
        state = f"differ at ops {differ}" if differ else "identical"
        print(f"span counts {key[0]} seed {key[1]}: {len(ops)} traced ops compared, {state}")
        same = same and not differ
    return same


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q) -> float:
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(old: dict, new: dict, lower_better: bool, bound) -> str:
    if len(old) < 2 or len(new) < 2:
        return "unresolved"
    qo, qn = quartiles(list(old.values())), quartiles(list(new.values()))
    sign = 1.0 if lower_better else -1.0
    worse_by = sign * (qn[1] - qo[1]) / abs(qo[1]) if qo[1] else 0.0
    all_better = all(sign * (n - o) < 0 for n in new.values() for o in old.values())
    all_worse = all(sign * (n - o) > 0 for n in new.values() for o in old.values())
    limit = bound if bound is not None else max(spread(qo), spread(qn))
    if bound is not None and max(spread(qo), spread(qn)) > bound:
        return "better" if all_better else "worse" if all_worse else "unresolved"
    if worse_by > limit:
        return "worse"
    seeds = old.keys() & new.keys()
    wins = sum(1 for s in seeds if sign * (new[s] - old[s]) < 0)
    if -worse_by > spread(qo) and (not seeds or wins >= WIN_SHARE * len(seeds)):
        return "better"
    return "unchanged"


def main(paths, spec_path: Path) -> int:
    spec = json.loads(spec_path.read_text())
    entries = {e["name"]: (e, "end_to_end") for e in spec["end_to_end"]}
    entries.update({e["name"]: (e, "per_layer") for e in spec["per_layer"]})
    loaded = [load(Path(p)) for p in paths]
    sets = [values for values, _ in loaded]
    keys = sorted(set().union(*sets), key=lambda k: (k[1], k[0], k[2]))
    for workload, trace, metric in keys:
        entry, kind = entries.get(metric, ({"better": "lower", "unit": "?"}, "per_layer"))
        bound = entry.get("bound")
        columns = []
        for values in sets:
            found = values.get((workload, trace, metric), {})
            q = quartiles(list(found.values())) if found else None
            columns.append((found, q))
        label = f"{metric:<40} {workload:<12} {entry['unit']:<6}"
        if len(sets) == 1:
            found, q = columns[0]
            target = f"target {bound / 3:.3f}" if bound is not None else ""
            print(f"{label} n={len(found):<3} median {q[1]:.6g} q1 {q[0]:.6g} q3 {q[2]:.6g} "
                  f"spread {spread(q):.3f} {target}")
            continue
        (old, qo), (new, qn) = columns
        if not old or not new:
            print(f"{label} only in {'new' if new else 'old'}")
            continue
        ratio = qn[1] / qo[1] if qo[1] else float("inf")
        print(f"{label} old {qo[1]:.6g} [{qo[0]:.6g}, {qo[2]:.6g}] new {qn[1]:.6g} "
              f"[{qn[0]:.6g}, {qn[2]:.6g}] ratio {ratio:.4f} "
              f"{verdict(old, new, entry['better'] == 'lower', bound if kind == 'end_to_end' else None)}")
    if len(loaded) == 2 and not compare_spans(loaded[0][1], loaded[1][1]):
        print("FAILED: per-op span counts differ between runs at one seed")
        return 1
    return 0
