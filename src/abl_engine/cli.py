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
from dataclasses import asdict, dataclass
from typing import Callable

from . import __version__
from .core import _checked_int, observable_from_json, state_from_json
from .ensemble import MAX_SEED, MAX_TRIALS, estimate_abl
from .errors import EngineError, ParseError, ValidationError
from .rules import (
    SelectionContext,
    abl,
    born_prob_pure,
    decomposition_check,
    interposition_inequality,
    kastner,
    marginal_with_Q,
    product_rule_check,
)
from .scenarios import SCENARIOS


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str, parse):
    """(parse(payload), {path, sha256}) for one input file; an EngineError
    from parse is raised again with the path before its message."""
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    try:
        payload = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None
    try:
        return parse(payload), {"path": path, "sha256": hashlib.sha256(raw).hexdigest()}
    except EngineError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# output shaping


def _fifteen_digits(obj):
    """Every float to 15 significant digits; rounded once here and reused
    everywhere so JSON and CSV cannot disagree."""
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {key: _fifteen_digits(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_fifteen_digits(value) for value in obj]
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


def _csv_text(results: dict, sampled: bool) -> str:
    """Monte Carlo results as one row per outcome; anything else as flattened
    key/value rows in the results' insertion order."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if sampled:
        writer.writerow(("label", "frequency", "std_error", "analytic_abl", "z_score"))
        columns = [results[key] for key in ("frequencies", "std_errors", "analytic", "z_scores")]
        writer.writerows((label, *(column[label] for column in columns)) for label in columns[0])
    else:
        writer.writerow(("key", "value"))
        rows: list = []
        _flatten(results, "", rows)
        writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# commands


def _two_time(pre, post, observables, trials, seed) -> dict:
    ctx = SelectionContext(pre, post, observables[0])
    analytic = abl(ctx).as_dict()
    if trials is None:
        return {"abl": analytic, "marginal_with_Q": marginal_with_Q(ctx)}
    stats = estimate_abl(ctx, trials, seed)
    frequencies, std_errors = dict(stats.frequencies), dict(stats.std_errors)
    return {
        "trials": stats.trials,
        "accepted": stats.accepted,
        "acceptance_rate": stats.acceptance_rate,
        "seed": stats.seed,
        "frequencies": frequencies,
        "std_errors": std_errors,
        "analytic": analytic,
        # z is 0 where the standard error vanishes
        "z_scores": {
            label: (freq - analytic[label]) / std_errors[label] if std_errors[label] > 0.0 else 0.0
            for label, freq in frequencies.items()
        },
    }


def _kastner(pre, post, observables, trials, seed) -> dict:
    ctx = SelectionContext(pre, post, observables[0])
    weights = kastner(ctx)
    return {
        "weights": weights.as_dict(),
        "total": weights.total(),
        "direct_prob": born_prob_pure(pre, post),
        "marginal_with_Q": marginal_with_Q(ctx),
    }


def _decomposition(pre, post, observables, trials, seed) -> dict:
    report = decomposition_check(pre, *observables)
    return {
        "which_condition": report.which_condition,
        "conditions_hold": report.conditions_hold,
        "max_residual": report.max_residual,
        "outcomes": [asdict(row) for row in report.outcomes],
    }


def _inequality(pre, post, observables, trials, seed) -> dict:
    p_direct, p_with_q = interposition_inequality(pre, observables[0], post)
    return {"p_direct": p_direct, "p_with_Q": p_with_q, "difference": p_with_q - p_direct}


def _product_rule(pre, post, observables, trials, seed) -> dict:
    return asdict(product_rule_check(pre, post, *observables))


@dataclass(frozen=True)
class _Command:
    """One CLI command, the one declaration of its inputs: its help, what it
    reads, and its results from (pre, post, observables, trials, seed).

    The parser requires one --<name> option per entry of `states`, in that
    order, and declares no other state option. `observables` says what each
    --observable file holds, in order; its length is the number of files
    `_load` requires. A `builtin` command reads a named scenario instead of
    files and samples only with --mc, while a `sampled` one always does.
    """

    help: str
    states: tuple[str, ...]
    results: Callable[..., dict]
    observables: tuple[str, ...] = ("the interposed observable",)
    sampled: bool = False
    builtin: bool = False


_COMMANDS = {
    "abl": _Command("two-time conditional distribution", ("pre", "post"), _two_time),
    "kastner": _Command("rival rule weights", ("pre", "post"), _kastner),
    "decomposition": _Command(
        "decomposition identity check",
        ("pre",),
        _decomposition,
        ("the probed observable", "the final rank-1 basis"),
    ),
    "inequality": _Command(
        "post-selection probability with and without the observable", ("pre", "post"), _inequality
    ),
    "product-rule": _Command(
        "product rule check for two commuting observables",
        ("pre", "post"),
        _product_rule,
        ("observable x", "observable y; each file's first outcome is its designated value"),
    ),
    "mc": _Command(
        "Monte Carlo estimate of the two-time distribution",
        ("pre", "post"),
        _two_time,
        sampled=True,
    ),
    "scenario": _Command("run a built-in scenario", (), _two_time, (), builtin=True),
}


def _load(command: _Command, args: argparse.Namespace) -> tuple:
    """Check and load a command's (pre, post, observables, trials, seed,
    meta); trials and seed are None unless sampling. The parser has checked
    a scenario's name and a file command's required options. A scenario is
    then checked by variant, then trials and seed; files by arity, then
    trials and seed, then each file in order."""
    if command.builtin:
        bundle = SCENARIOS[args.scenario]()
        variant = args.variant if args.variant is not None else next(iter(bundle.variants))
        pre, post, observables = bundle.pre, bundle.post, (bundle.variant(variant),)
        meta = {"scenario": {"name": bundle.name, "variant": variant}}
    elif len(args.observables) != len(command.observables):
        raise ValidationError(
            f"{args.command} requires exactly {len(command.observables)} "
            f"--observable argument(s), got {len(args.observables)}"
        )
    # every command: the parser's defaults pass, and an unused value is refused
    _checked_int("trials", args.trials, 1, MAX_TRIALS)
    _checked_int("seed", args.seed, 0, MAX_SEED)
    if not command.builtin:
        states, meta = {}, {}
        for name in command.states:
            states[name], meta[name] = _load_json(getattr(args, name), state_from_json)
        loaded = [_load_json(path, observable_from_json) for path in args.observables]
        meta["observables"] = [obs_meta for _, obs_meta in loaded]
        observables = tuple(obs for obs, _ in loaded)
        pre, post = states.get("pre"), states.get("post")
    sampled = command.sampled or (command.builtin and args.mc)
    trials, seed = (args.trials, args.seed) if sampled else (None, None)
    return pre, post, observables, trials, seed, meta


def run(args: argparse.Namespace) -> int:
    command = _COMMANDS[args.command]
    pre, post, observables, trials, seed, meta = _load(command, args)
    results = _fifteen_digits(command.results(pre, post, observables, trials, seed))
    if args.output_format == "csv":
        text = _csv_text(results, trials is not None)
    else:
        report = {
            "tool": "abl-engine",
            "version": __version__,
            "command": args.command,
            "inputs": meta,
            "seed": seed,
            "trials": trials,
            "results": results,
        }
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out_path is None:
        sys.stdout.write(text)
    else:
        try:
            with open(args.out_path, "w", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write {args.out_path}: {exc.strerror or exc}") from None
    return 0


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Raises a ValidationError (exit 2 with a {code, message} object) instead
    of printing usage; subparsers are made with the same class. An option
    left out is left out of the namespace too, so the top parser's
    set_defaults hold every default."""

    def __init__(self, **kwargs):
        super().__init__(argument_default=argparse.SUPPRESS, **kwargs)

    def error(self, message: str):
        raise ValidationError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="abl-engine",
        description="Probability rules and Monte Carlo checks for pre- and "
        "post-selected quantum measurements.",
    )
    parser.set_defaults(
        observables=(), variant=None, mc=False,
        trials=100000, seed=0, output_format="json", out_path=None,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.builtin:
            p.add_argument(
                "scenario",
                choices=sorted(SCENARIOS),
                metavar="NAME",
                help=f"one of: {', '.join(sorted(SCENARIOS))}",
            )
            p.add_argument("--variant", help="which intervening observable to use")
            p.add_argument(
                "--mc", action="store_true", help="estimate instead of computing analytically"
            )
        for state in command.states:
            p.add_argument(
                f"--{state}", required=True, help=f"JSON file with the {state}-selection state"
            )
        if command.observables:
            p.add_argument(
                "--observable",
                action="append",
                dest="observables",
                metavar="PATH",
                help="JSON file with " + ", then another with ".join(command.observables),
            )
        if command.sampled or command.builtin:
            p.add_argument("--trials", type=int)
            p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=("json", "csv"), dest="output_format")
        p.add_argument(
            "--out", metavar="PATH", dest="out_path", help="write the report here instead of stdout"
        )
    return parser


def main(argv=None) -> int:
    try:
        return run(_build_parser().parse_args(argv))
    except EngineError as exc:
        sys.stderr.write(json.dumps({"code": exc.code, "message": str(exc)}) + "\n")
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(
            json.dumps({"code": "InternalError", "message": f"{type(exc).__name__}: {exc}"})
            + "\n"
        )
        return 1
