"""Command-line front end.

Loads states and observables from JSON files, runs the probability rules or
the Monte Carlo estimators, and emits a JSON or CSV report. Reports carry
the tool version, input digests, and the seed, and are byte-identical for
identical configurations, so they double as regression fixtures.

Exit codes: 0 success, 2 validation or domain error (a {code, message}
object goes to stderr), 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass

from . import __version__
from .core import (
    Observable,
    StateVector,
    inner,
    observable_from_json,
    state_from_json,
)
from .ensemble import estimate_abl, stats_csv_rows, stats_to_json
from .errors import EngineError, ParseError, ValidationError
from .rules import (
    SelectionContext,
    abl,
    decomposition_check,
    interposition_inequality,
    kastner,
    marginal_with_Q,
    product_rule_check,
)
from .scenarios import SCENARIOS

COMMANDS = ("abl", "kastner", "decomposition", "inequality", "product-rule", "mc", "scenario")


@dataclass(frozen=True)
class RunConfig:
    command: str
    pre: str | None = None
    post: str | None = None
    observables: tuple[str, ...] = ()
    scenario: str | None = None
    variant: str | None = None
    mc: bool = False
    trials: int = 100000
    seed: int = 0
    output_format: str = "json"
    out_path: str | None = None


# ---------------------------------------------------------------------------
# input loading


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_json(path: str):
    raw = _read_file(path)
    try:
        payload = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    meta = {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    return payload, meta


def _load_state(path: str) -> tuple[StateVector, dict]:
    payload, meta = _load_json(path)
    return state_from_json(payload), meta


def _load_observable(path: str) -> tuple[Observable, dict]:
    payload, meta = _load_json(path)
    return observable_from_json(payload), meta


# ---------------------------------------------------------------------------
# output shaping


def _r(value: float) -> float:
    """15 significant digits; rounded once here and reused everywhere so JSON
    and CSV cannot disagree."""
    return float(f"{value:.15g}")


def _round_tree(obj):
    if isinstance(obj, float):
        return _r(obj)
    if isinstance(obj, dict):
        return {key: _round_tree(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_tree(value) for value in obj]
    return obj


def _flatten(obj, prefix: str, rows: list) -> None:
    if isinstance(obj, dict):
        for key, value in obj.items():
            _flatten(value, f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        for index, value in enumerate(obj):
            _flatten(value, f"{prefix}.{index}", rows)
    else:
        rows.append((prefix, obj))


def _render_csv(results: dict, table: list | None) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if table is not None:
        writer.writerow(("label", "frequency", "std_error", "analytic_abl", "z_score"))
        writer.writerows(table)
    else:
        writer.writerow(("key", "value"))
        rows: list = []
        _flatten(results, "", rows)
        writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# command handlers; each returns (inputs, results, mc table or None,
# seed or None, trials or None)


def _require(config: RunConfig, *, pre=False, post=False, n_obs=0) -> None:
    if pre and config.pre is None:
        raise ValidationError(f"{config.command} requires --pre")
    if post and config.post is None:
        raise ValidationError(f"{config.command} requires --post")
    if len(config.observables) != n_obs:
        raise ValidationError(
            f"{config.command} requires exactly {n_obs} --observable argument(s), "
            f"got {len(config.observables)}"
        )


def _single_context(config: RunConfig):
    pre, pre_meta = _load_state(config.pre)
    post, post_meta = _load_state(config.post)
    obs, obs_meta = _load_observable(config.observables[0])
    inputs = {"pre": pre_meta, "post": post_meta, "observables": [obs_meta]}
    return SelectionContext(pre, post, obs), inputs


def _cmd_abl(config: RunConfig):
    _require(config, pre=True, post=True, n_obs=1)
    ctx, inputs = _single_context(config)
    results = {
        "abl": abl(ctx).as_dict(),
        "marginal_with_Q": marginal_with_Q(ctx),
    }
    return inputs, results, None, None, None


def _cmd_kastner(config: RunConfig):
    _require(config, pre=True, post=True, n_obs=1)
    ctx, inputs = _single_context(config)
    weights = kastner(ctx)
    results = {
        "weights": weights.as_dict(),
        "total": weights.total(),
        "direct_prob": abs(inner(ctx.pre, ctx.post)) ** 2,
        "marginal_with_Q": marginal_with_Q(ctx),
    }
    return inputs, results, None, None, None


def _cmd_decomposition(config: RunConfig):
    _require(config, pre=True, n_obs=2)
    pre, pre_meta = _load_state(config.pre)
    q, q_meta = _load_observable(config.observables[0])
    b_obs, b_meta = _load_observable(config.observables[1])
    inputs = {"pre": pre_meta, "observables": [q_meta, b_meta]}
    report = decomposition_check(pre, q, b_obs)
    results = {
        "which_condition": report.which_condition,
        "conditions_hold": report.conditions_hold,
        "max_residual": report.max_residual,
        "outcomes": [
            {"label": row.label, "lhs": row.lhs, "rhs": row.rhs, "residual": row.residual}
            for row in report.outcomes
        ],
    }
    return inputs, results, None, None, None


def _cmd_inequality(config: RunConfig):
    _require(config, pre=True, post=True, n_obs=1)
    pre, pre_meta = _load_state(config.pre)
    post, post_meta = _load_state(config.post)
    obs, obs_meta = _load_observable(config.observables[0])
    inputs = {"pre": pre_meta, "post": post_meta, "observables": [obs_meta]}
    p_direct, p_with_q = interposition_inequality(pre, obs, post)
    results = {
        "p_direct": p_direct,
        "p_with_Q": p_with_q,
        "difference": p_with_q - p_direct,
    }
    return inputs, results, None, None, None


def _cmd_product_rule(config: RunConfig):
    _require(config, pre=True, post=True, n_obs=2)
    pre, pre_meta = _load_state(config.pre)
    post, post_meta = _load_state(config.post)
    x, x_meta = _load_observable(config.observables[0])
    y, y_meta = _load_observable(config.observables[1])
    inputs = {"pre": pre_meta, "post": post_meta, "observables": [x_meta, y_meta]}
    report = product_rule_check(pre, post, x, y)
    results = {
        "x_label": report.x_label,
        "y_label": report.y_label,
        "x_probability": report.x_probability,
        "y_probability": report.y_probability,
        "product_norm": report.product_norm,
        "product_is_zero": report.product_is_zero,
        "violation": report.violation,
    }
    return inputs, results, None, None, None


def _mc_results(ctx: SelectionContext, trials: int, seed: int):
    stats = estimate_abl(ctx, trials, seed)
    analytic = abl(ctx)
    table = stats_csv_rows(stats, analytic)
    results = stats_to_json(stats)
    results["analytic"] = analytic.as_dict()
    results["z_scores"] = {label: z for label, _, _, _, z in table}
    return results, table


def _cmd_mc(config: RunConfig):
    _require(config, pre=True, post=True, n_obs=1)
    if config.trials < 1:
        raise ValidationError("trials must be at least 1")
    ctx, inputs = _single_context(config)
    results, table = _mc_results(ctx, config.trials, config.seed)
    return inputs, results, table, config.seed, config.trials


def _cmd_scenario(config: RunConfig):
    if config.scenario not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {config.scenario!r}; choose from {', '.join(sorted(SCENARIOS))}"
        )
    bundle = SCENARIOS[config.scenario]()
    variant = config.variant if config.variant is not None else bundle.variants[0][0]
    ctx = bundle.context_for(variant)
    inputs = {"scenario": {"name": bundle.name, "variant": variant}}
    if config.mc:
        if config.trials < 1:
            raise ValidationError("trials must be at least 1")
        results, table = _mc_results(ctx, config.trials, config.seed)
        return inputs, results, table, config.seed, config.trials
    results = {
        "abl": abl(ctx).as_dict(),
        "marginal_with_Q": marginal_with_Q(ctx),
    }
    return inputs, results, None, None, None


_HANDLERS = {
    "abl": _cmd_abl,
    "kastner": _cmd_kastner,
    "decomposition": _cmd_decomposition,
    "inequality": _cmd_inequality,
    "product-rule": _cmd_product_rule,
    "mc": _cmd_mc,
    "scenario": _cmd_scenario,
}


def run(config: RunConfig) -> int:
    if config.command not in _HANDLERS:
        raise ValidationError(f"unknown command {config.command!r}")
    if config.output_format not in ("json", "csv"):
        raise ValidationError("format must be json or csv")
    inputs, results, table, seed, trials = _HANDLERS[config.command](config)
    results = _round_tree(results)
    if config.output_format == "csv":
        text = _render_csv(results, _round_tree(table) if table is not None else None)
    else:
        report = {
            "tool": "abl-engine",
            "version": __version__,
            "command": config.command,
            "inputs": inputs,
            "seed": seed,
            "trials": trials,
            "results": results,
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if config.out_path is not None:
        with open(config.out_path, "w", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="abl-engine",
        description="Probability rules and Monte Carlo checks for pre- and "
        "post-selected quantum measurements.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_io(p: argparse.ArgumentParser, observables_help: str) -> None:
        p.add_argument("--pre", help="JSON file with the pre-selection state")
        p.add_argument("--post", help="JSON file with the post-selection state")
        p.add_argument(
            "--observable",
            action="append",
            dest="observables",
            default=[],
            metavar="PATH",
            help=observables_help,
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")

    for name, blurb, obs_help in (
        ("abl", "two-time conditional distribution", "JSON file with the interposed observable"),
        ("kastner", "rival rule weights", "JSON file with the interposed observable"),
        (
            "decomposition",
            "decomposition identity check",
            "two uses: first the probed observable, then the final rank-1 basis",
        ),
        (
            "inequality",
            "post-selection probability with and without the observable",
            "JSON file with the interposed observable",
        ),
        (
            "product-rule",
            "product rule check for two commuting observables",
            "two uses: first observable x, then observable y",
        ),
        ("mc", "Monte Carlo estimate of the two-time distribution", "JSON file with the interposed observable"),
    ):
        p = sub.add_parser(name, help=blurb)
        add_io(p, obs_help)
        if name == "mc":
            p.add_argument("--trials", type=int, default=100000)
            p.add_argument("--seed", type=int, default=0)
        add_common(p)

    p = sub.add_parser("scenario", help="run a built-in scenario")
    p.add_argument(
        "scenario",
        metavar="NAME",
        help=f"one of: {', '.join(sorted(SCENARIOS))}",
    )
    p.add_argument("--variant", help="which intervening observable to use")
    p.add_argument("--mc", action="store_true", help="estimate instead of computing analytically")
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    return parser


def _parse_args(argv) -> RunConfig:
    args = _build_parser().parse_args(argv)
    if args.command is None:
        raise ValidationError("a command is required; see --help")
    return RunConfig(
        command=args.command,
        pre=getattr(args, "pre", None),
        post=getattr(args, "post", None),
        observables=tuple(getattr(args, "observables", ()) or ()),
        scenario=getattr(args, "scenario", None),
        variant=getattr(args, "variant", None),
        mc=bool(getattr(args, "mc", False)) or args.command == "mc",
        trials=getattr(args, "trials", 100000),
        seed=getattr(args, "seed", 0),
        output_format=args.format,
        out_path=args.out,
    )


def main(argv=None) -> int:
    try:
        return run(_parse_args(argv))
    except EngineError as exc:
        sys.stderr.write(json.dumps({"code": exc.code, "message": str(exc)}) + "\n")
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(
            json.dumps({"code": "InternalError", "message": f"{type(exc).__name__}: {exc}"})
            + "\n"
        )
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
