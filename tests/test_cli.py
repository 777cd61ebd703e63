"""CLI: exit codes, error objects, report envelope, reproducibility."""

import csv
import hashlib
import itertools
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import abl_engine
from abl_engine import (
    SCENARIOS,
    Observable,
    Projector,
    SelectionContext,
    abl,
    basis_state,
    projector_from_span,
    three_box,
)
from abl_engine import ensemble
from abl_engine.cli import _COMMANDS, main
from conftest import observable_json, state_json, unit


@pytest.fixture
def box_files(tmp_path):
    bundle = three_box()
    paths = {}
    payloads = {
        "a": state_json(bundle.context.pre),
        "b": state_json(bundle.context.post),
        "q": observable_json(bundle.variant("fullQ")),
        "qa": observable_json(bundle.variant("QA")),
        "qb": observable_json(bundle.variant("QB")),
    }
    for name, payload in payloads.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths[name] = str(path)
    return paths


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scenario_analytic_report(capsys):
    code, out, err = _run(capsys, ["scenario", "three-box", "--variant", "fullQ"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["tool"] == "abl-engine"
    assert report["version"] == abl_engine.__version__
    assert report["seed"] is None and report["trials"] is None
    for label in "ABC":
        assert abs(report["results"]["abl"][label] - 1.0 / 3.0) < 1e-12


def test_scenario_default_variant_is_first(capsys):
    code, out, _ = _run(capsys, ["scenario", "three-box"])
    assert code == 0
    assert json.loads(out)["inputs"]["scenario"]["variant"] == "fullQ"


def test_scenario_mc_report(capsys):
    code, out, _ = _run(
        capsys,
        ["scenario", "three-box", "--variant", "QA", "--mc", "--trials", "20000", "--seed", "7"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["seed"] == 7 and report["trials"] == 20000
    assert report["results"]["frequencies"]["A"] == 1.0
    assert abs(report["results"]["acceptance_rate"] - 1.0 / 9.0) < 0.02


def test_unknown_scenario_is_validation_error(capsys):
    code, out, err = _run(capsys, ["scenario", "quantum-nonsense"])
    assert code == 2 and out == ""
    error = json.loads(err)
    assert error["code"] == "ValidationError"
    for name in ("spin-half", "three-box"):
        assert name in error["message"], name


def test_unknown_variant_is_validation_error(capsys):
    code, _, err = _run(capsys, ["scenario", "three-box", "--variant", "QC"])
    assert code == 2
    assert json.loads(err)["code"] == "ValidationError"


def test_abl_command_with_files(capsys, box_files):
    code, out, _ = _run(
        capsys,
        ["abl", "--pre", box_files["a"], "--post", box_files["b"], "--observable", box_files["q"]],
    )
    assert code == 0
    report = json.loads(out)
    for label in "ABC":
        assert abs(report["results"]["abl"][label] - 1.0 / 3.0) < 1e-12
    digest = hashlib.sha256(open(box_files["a"], "rb").read()).hexdigest()
    assert report["inputs"]["pre"]["sha256"] == digest


def test_kastner_command(capsys, box_files):
    code, out, _ = _run(
        capsys,
        ["kastner", "--pre", box_files["a"], "--post", box_files["b"], "--observable", box_files["q"]],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["total"] == pytest.approx(3.0, abs=1e-12)
    assert results["weights"]["A"] == pytest.approx(1.0, abs=1e-12)


def test_inequality_command(capsys, box_files):
    code, out, _ = _run(
        capsys,
        ["inequality", "--pre", box_files["a"], "--post", box_files["b"], "--observable", box_files["q"]],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["p_direct"] == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert results["p_with_Q"] == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_product_rule_command(capsys, box_files):
    code, out, _ = _run(
        capsys,
        [
            "product-rule",
            "--pre", box_files["a"],
            "--post", box_files["b"],
            "--observable", box_files["qa"],
            "--observable", box_files["qb"],
        ],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["violation"] is True
    assert results["x_probability"] == 1.0 and results["y_probability"] == 1.0


def test_decomposition_command(capsys, tmp_path, box_files):
    a = basis_state(3, 0)
    pa = projector_from_span([a], "mine")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "other")
    pre_path = tmp_path / "pre.json"
    pre_path.write_text(json.dumps(state_json(a)))
    q_path = tmp_path / "qeq.json"
    q_path.write_text(json.dumps(observable_json(Observable((pa, rest)))))
    xbasis = Observable(
        (
            projector_from_span([unit([1, 1, 1])], "b0"),
            projector_from_span([unit([1, -1, 0])], "b1"),
            projector_from_span([unit([1, 1, -2])], "b2"),
        )
    )
    b_path = tmp_path / "basis.json"
    b_path.write_text(json.dumps(observable_json(xbasis)))
    code, out, _ = _run(
        capsys,
        ["decomposition", "--pre", str(pre_path), "--observable", str(q_path), "--observable", str(b_path)],
    )
    assert code == 0
    results = json.loads(out)["results"]
    assert results["which_condition"] == "Q_equals_A"
    assert results["conditions_hold"] is True
    assert results["max_residual"] < 1e-9


def test_impossible_post_selection_exit_code(capsys, tmp_path):
    pre = basis_state(3, 0)
    post = basis_state(3, 1)
    pa = projector_from_span([pre], "a")
    rest = Projector(np.eye(3, dtype=complex) - pa.matrix, "rest")
    for name, payload in (
        ("pre", state_json(pre)),
        ("post", state_json(post)),
        ("q", observable_json(Observable((pa, rest)))),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    code, out, err = _run(
        capsys,
        [
            "abl",
            "--pre", str(tmp_path / "pre.json"),
            "--post", str(tmp_path / "post.json"),
            "--observable", str(tmp_path / "q.json"),
        ],
    )
    assert code == 2 and out == ""
    assert json.loads(err)["code"] == "ImpossiblePostSelection"


def test_missing_file_is_parse_error(capsys, box_files):
    code, _, err = _run(
        capsys,
        ["abl", "--pre", "/nonexistent.json", "--post", box_files["b"], "--observable", box_files["q"]],
    )
    assert code == 2
    assert json.loads(err)["code"] == "ParseError"


def test_invalid_json_is_parse_error(capsys, tmp_path, box_files):
    bad = tmp_path / "bad.json"
    boolean_amplitudes = json.dumps({"dim": 1, "amplitudes": [[True, False]]}).encode()
    # an amplitude too large for a float, nesting past the JSON parser's
    # recursion limit, and a first byte that is not UTF-8
    huge_amplitude = b'{"dim": 2, "amplitudes": [[1' + b"0" * 400 + b", 0], [0, 0]]}"
    for raw in (b"{not json", boolean_amplitudes, huge_amplitude, b"[" * 10000, b"\x80"):
        bad.write_bytes(raw)
        code, _, err = _run(
            capsys,
            ["abl", "--pre", str(bad), "--post", box_files["b"], "--observable", box_files["q"]],
        )
        assert code == 2
        error = json.loads(err)
        assert error["code"] == "ParseError"
        assert error["message"].startswith(str(bad))


def test_invalid_input_error_names_the_file(capsys, tmp_path, box_files):
    pre = tmp_path / "pre.json"
    pre.write_text(json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    code, out, err = _run(
        capsys,
        ["abl", "--pre", str(pre), "--post", box_files["b"], "--observable", box_files["q"]],
    )
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["code"] == "ValidationError"
    assert error["message"].startswith(f"{pre}: state norm ")


def test_missing_required_inputs(capsys, box_files):
    code, _, err = _run(capsys, ["abl", "--pre", box_files["a"]])
    assert code == 2
    assert json.loads(err) == {
        "code": "ValidationError",
        "message": "the following arguments are required: --post",
    }
    code, _, err = _run(
        capsys,
        ["mc", "--pre", box_files["a"], "--post", box_files["b"], "--observable", box_files["q"], "--trials", "0"],
    )
    assert code == 2
    assert json.loads(err)["code"] == "ValidationError"


def test_mc_reports_are_byte_identical(tmp_path, capsys):
    argv = ["scenario", "three-box", "--variant", "fullQ", "--mc", "--trials", "50000", "--seed", "42"]
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_out_flag_writes_file_not_stdout(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, ["scenario", "three-box", "--out", str(path)])
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["command"] == "scenario"


def test_csv_and_json_values_match(capsys):
    argv = ["scenario", "three-box", "--mc", "--trials", "30000", "--seed", "3"]
    code, json_out, _ = _run(capsys, argv)
    assert code == 0
    code, csv_out, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    results = json.loads(json_out)["results"]
    rows = list(csv.DictReader(io.StringIO(csv_out)))
    assert {row["label"] for row in rows} == {"A", "B", "C"}
    for row in rows:
        label = row["label"]
        assert float(row["frequency"]) == results["frequencies"][label]
        assert float(row["std_error"]) == results["std_errors"][label]
        assert float(row["analytic_abl"]) == results["analytic"][label]
        assert float(row["z_score"]) == results["z_scores"][label]


def test_csv_for_analytic_command(capsys, box_files):
    code, out, _ = _run(
        capsys,
        [
            "abl",
            "--pre", box_files["a"],
            "--post", box_files["b"],
            "--observable", box_files["q"],
            "--format", "csv",
        ],
    )
    assert code == 0
    rows = {row["key"]: row["value"] for row in csv.DictReader(io.StringIO(out))}
    assert float(rows["abl.A"]) == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert "marginal_with_Q" in rows


@pytest.mark.parametrize(
    "name, variant", [(name, v) for name, make in SCENARIOS.items() for v in make().variants]
)
def test_every_scenario_variant_through_the_cli(name, variant, capsys):
    code, out, err = _run(capsys, ["scenario", name, "--variant", variant])
    assert (code, err) == (0, "")
    bundle = SCENARIOS[name]()
    expected = abl(SelectionContext(bundle.pre, bundle.post, bundle.variants[variant])).as_dict()
    assert json.loads(out)["results"]["abl"] == {
        label: float(f"{value:.15g}") for label, value in expected.items()
    }


def test_parser_refuses_unknown_command_and_format(tmp_path, capsys):
    out = tmp_path / "direct.json"
    code, stdout, err = _run(capsys, ["scenario", "three-box", "--variant", "QB", "--out", str(out)])
    assert (code, stdout, err) == (0, "", "")
    assert json.loads(out.read_text())["results"]["abl"]["B"] == 1.0
    for argv in (["nope"], ["scenario", "three-box", "--format", "xml"]):
        code, stdout, err = _run(capsys, argv)
        assert (code, stdout) == (2, ""), argv
        assert json.loads(err)["code"] == "ValidationError", argv


def test_unwritable_out_path_is_validation_error(tmp_path, capsys):
    for path in (tmp_path, tmp_path / "no" / "such" / "dir" / "x.json"):
        code, out, err = _run(capsys, ["scenario", "three-box", "--out", str(path)])
        assert (code, out) == (2, ""), path
        error = json.loads(err)
        assert error["code"] == "ValidationError", path
        assert error["message"].startswith(f"cannot write {path}: "), path


# every file command's required inputs, written out independently of the CLI
FILE_COMMANDS = {
    "abl": (("pre", "post"), ("q",)),
    "kastner": (("pre", "post"), ("q",)),
    "decomposition": (("pre",), ("q", "basis")),
    "inequality": (("pre", "post"), ("q",)),
    "product-rule": (("pre", "post"), ("qa", "qb")),
    "mc": (("pre", "post"), ("q",)),
}


@pytest.fixture
def sweep_files(tmp_path, box_files):
    basis = Observable(
        (
            projector_from_span([unit([1, 1, 1])], "b0"),
            projector_from_span([unit([1, -1, 0])], "b1"),
            projector_from_span([unit([1, 1, -2])], "b2"),
        )
    )
    qubit = Observable(
        (
            projector_from_span([basis_state(2, 0)], "up"),
            projector_from_span([basis_state(2, 1)], "down"),
        )
    )
    # finite amplitudes whose norm overflows a float
    overflow = {"dim": 3, "amplitudes": [[1e308, 0], [1e308, 0], [0, 0]]}
    extra = {
        "basis": observable_json(basis),
        "state2": state_json(basis_state(2, 0)),
        "obs2": observable_json(qubit),
        "overflow": overflow,
        "obs_overflow": {"dim": 3, "outcomes": [{"label": "o", "span": [overflow]}]},
    }
    files = {"pre": box_files["a"], "post": box_files["b"], **box_files}
    for name, payload in extra.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        files[name] = str(path)
    unreadable = {
        "bad": b"{not json",
        "huge": b'{"dim": 2, "amplitudes": [[1' + b"0" * 400 + b", 0], [0, 0]]}",
        "deep": b"[" * 10000,
        "binary": b"\x80",
    }
    for name, raw in unreadable.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(raw)
        files[name] = str(path)
    files["missing"] = str(tmp_path / "missing.json")
    return files


def _argv(command, states, observables):
    argv = [command]
    for name, path in states.items():
        argv += [f"--{name}", path]
    for path in observables:
        argv += ["--observable", path]
    return argv + (["--trials", "2000"] if command == "mc" else [])


def _failing_argvs(command, files):
    """(argv, expected error code) for each malformed input of one command."""
    if command == "scenario":
        yield ["scenario", "no-such-scenario"], "ValidationError"
        yield ["scenario", "three-box", "--variant", "no-such-variant"], "ValidationError"
        yield ["scenario", "three-box", "--mc", "--trials", "0"], "ValidationError"
        yield ["scenario", "three-box", "--observable", "x.json"], "ValidationError"
        return
    if command == "mc":
        yield ["mc", "--trials", "abc"], "ValidationError"
    state_names, obs_names = FILE_COMMANDS[command]
    states = {name: files[name] for name in state_names}
    observables = [files[name] for name in obs_names]
    yield _argv(command, states, observables[:-1]), "ValidationError"
    yield _argv(command, states, observables + observables[:1]), "ValidationError"
    for name in state_names:
        dropped = {key: path for key, path in states.items() if key != name}
        yield _argv(command, dropped, observables), "ValidationError"
    # a state the command does not read is refused, not ignored
    for name in ("pre", "post"):
        if name not in state_names:
            yield _argv(command, {**states, name: files["missing"]}, observables), "ValidationError"
    for replacement in ("missing", "bad", "huge", "deep", "binary"):
        for name in state_names:
            yield _argv(command, {**states, name: files[replacement]}, observables), "ParseError"
        for index in range(len(observables)):
            swapped = observables[:index] + [files[replacement]] + observables[index + 1:]
            yield _argv(command, states, swapped), "ParseError"
    for name in state_names:
        yield _argv(command, {**states, name: files["overflow"]}, observables), "ValidationError"
    for index in range(len(observables)):
        swapped = observables[:index] + [files["obs_overflow"]] + observables[index + 1:]
        yield _argv(command, states, swapped), "ValidationError"
    for name in state_names:
        yield _argv(command, {**states, name: files["state2"]}, observables), "DimensionMismatch"
    for index in range(len(observables)):
        swapped = observables[:index] + [files["obs2"]] + observables[index + 1:]
        yield _argv(command, states, swapped), "DimensionMismatch"


@pytest.mark.parametrize("command", [*FILE_COMMANDS, "scenario"])
def test_malformed_inputs_exit_2_with_a_typed_code(command, capsys, sweep_files):
    cases = list(_failing_argvs(command, sweep_files))
    assert cases
    for argv, expected in cases:
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert json.loads(err)["code"] == expected, argv


def test_trial_count_is_checked_before_any_work(capsys, box_files, monkeypatch):
    def no_work(*args):
        raise AssertionError("sampling started")

    monkeypatch.setattr(ensemble, "_range_counts", no_work)
    files = ["--pre", box_files["a"], "--post", box_files["b"], "--observable", box_files["q"]]
    for trials in ("0", "100000000000000000000", str(ensemble.MAX_TRIALS + 1)):
        for argv in (
            ["scenario", "three-box", "--mc", "--trials", trials],
            ["scenario", "three-box", "--trials", trials],
            ["mc", *files, "--trials", trials],
        ):
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert json.loads(err)["code"] == "ValidationError", argv


def test_seed_is_checked_before_any_file_is_read(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    for seed in ("-1", str(ensemble.MAX_SEED + 1)):
        for argv in (
            ["mc", "--pre", missing, "--post", missing, "--observable", missing, "--seed", seed],
            ["scenario", "three-box", "--mc", "--seed", seed],
            ["scenario", "three-box", "--seed", seed],
        ):
            code, out, err = _run(capsys, argv)
            assert (code, out) == (2, ""), argv
            error = json.loads(err)
            assert error["code"] == "ValidationError", argv
            assert error["message"].startswith("seed must be in"), argv


def test_unreachable_pair_is_one_error_for_every_command(capsys, tmp_path):
    # eight transition weights of about 5e-13 each: every one snaps to 0
    e = 2.83e-6
    payloads = {
        "pre": state_json(unit([1.0] * 4 + [e] * 4)),
        "post": state_json(unit([e] * 4 + [1.0] * 4)),
        "q": observable_json(
            Observable(tuple(projector_from_span([basis_state(8, i)], str(i)) for i in range(8)))
        ),
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    files = {name: str(tmp_path / f"{name}.json") for name in payloads}
    for command in ("abl", "kastner", "mc"):
        argv = _argv(command, {"pre": files["pre"], "post": files["post"]}, [files["q"]])
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, ""), command
        assert json.loads(err)["code"] == "ImpossiblePostSelection", command


def test_dependent_span_in_a_file_names_the_file_and_the_singular_value(capsys, tmp_path):
    up = state_json(basis_state(2, 0))
    payloads = {
        "state": up,
        "q": {"dim": 2, "outcomes": [{"label": "up", "span": [up, up]}]},
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    state, q = str(tmp_path / "state.json"), str(tmp_path / "q.json")
    code, out, err = _run(capsys, ["abl", "--pre", state, "--post", state, "--observable", q])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": "DegenerateSpan",
        "message": f"{q}: span vectors must be linearly independent within 1e-10:"
        " smallest singular value is 0.0",
    }


def test_repeated_outcome_label_in_a_file_is_named(capsys, tmp_path):
    up, down = state_json(basis_state(2, 0)), state_json(basis_state(2, 1))
    payloads = {
        "state": up,
        "q": {"dim": 2, "outcomes": [{"label": "up", "span": [v]} for v in (up, down)]},
    }
    for name, payload in payloads.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    state, q = str(tmp_path / "state.json"), str(tmp_path / "q.json")
    code, out, err = _run(capsys, ["abl", "--pre", state, "--post", state, "--observable", q])
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "code": "ValidationError",
        "message": f"{q}: outcome labels must be unique, got ['up', 'up']",
    }


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_block(marker: str, fence: str) -> str:
    """The body of the first ```fence block after `marker` in README."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{fence}\n", text.index(marker)) + len(fence) + 4
    return text[start:text.index("```", start)]


def test_readme_scenario_example_is_what_the_cli_prints(capsys):
    command = _readme_block("Built-in scenarios need no input files", "sh").splitlines()[0]
    argv = shlex.split(command)
    assert argv[0] == "abl-engine"
    code, out, err = _run(capsys, argv[1:])
    assert (code, err) == (0, "")
    assert out.encode() == _readme_block("The first command prints", "json").encode()


@pytest.mark.parametrize("command", [None, *_COMMANDS])
def test_help_lists_each_input(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"] if command is None else [command, "--help"])
    out, err = capsys.readouterr()
    assert exit_info.value.code == 0 and err == ""
    if command is None:
        assert all(name in out for name in _COMMANDS)
        return
    spec = _COMMANDS[command]
    for state in {state for other in _COMMANDS.values() for state in other.states}:
        assert (f"--{state}" in out) == (state in spec.states), state
    assert ("--observable" in out) == bool(spec.observables)


def test_readme_usage_and_command_table_match_the_commands():
    text = README.read_text(encoding="utf-8")
    usage = re.search(r"^abl-engine \{([^}]*)\} \.\.\.$", text, re.M)
    assert usage is not None
    assert usage.group(1).split(",") == list(_COMMANDS)
    header = "| command | `--pre` | `--post` | `--observable` files | sampling |\n"
    lines = text[text.index(header) + len(header):].splitlines()
    assert set(lines[0]) == {"|", "-"}
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[1:]):
        name, pre, post, files, sampling = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`").split()[0]] = (pre, post, files, sampling)
    assert list(rows) == list(_COMMANDS)
    for name, command in _COMMANDS.items():
        pre, post, files, sampling = rows[name]
        for state, cell in (("pre", pre), ("post", post)):
            assert cell == ("required" if state in command.states else "—"), (name, state)
        count = 0 if files == "—" else int(files.split(":")[0])
        assert count == len(command.observables), name
        assert bool(sampling) == (command.sampled or command.builtin), name
