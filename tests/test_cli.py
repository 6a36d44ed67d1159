"""Command-line behavior: argv, formats, exit codes, determinism, config handling."""
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from scipy.stats import chisquare

import instaqc
from conftest import traced_peak
from instaqc.circuit import Circuit, random_circuit, save_circuit
from instaqc.cli import (
    _COMMANDS,
    _FLAGS,
    _fmt,
    _json_dumps,
    _parse_argv,
    _parse_int_list,
    _parse_strategy_token,
    _stream,
    main,
)
from instaqc.statevec import MAX_GATES, GateMatrix
from instaqc.strategies import STRATEGIES
from instaqc.teleport import (
    _teleport_chunk_rows,
    run_trials,
    teleport_report_to_dict,
)
from instaqc.timeline import TimelineReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_RUNS = ("cli.random_circuit", "strategies.prepare_offline", "cli.run_game",
         "cli.run_trials")


def _forbid(monkeypatch, names=_RUNS):
    """Make each `instaqc` name raise, so a test sees a run start."""
    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the parse")
    for name in names:
        monkeypatch.setattr(f"instaqc.{name}", forbidden)


def test_teleport_json_report(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--n", "1", "--trials", "400",
                           "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["success_rate"] == doc["success_count"] / 400
    assert doc["expected_success_rate"] == 0.25
    assert doc["n"] == 1
    assert sum(doc["outcome_histogram"].values()) == 400


def test_teleport_success_outputs_are_exact(capsys):
    code, out, _ = run_cli(capsys, "teleport", "--n", "2", "--trials", "200",
                           "--seed", "3", "--corrections")
    assert code == 0
    doc = json.loads(out)
    assert doc["min_success_fidelity"] > 1 - 1e-9
    assert doc["corrections"]["min_fidelity"] > 1 - 1e-9
    assert doc["corrections"]["extra_executions_per_run"] == 2
    assert doc["corrections"]["runs"] == 200 - doc["success_count"]


@pytest.mark.parametrize("n, trials", [(1, 1000), (2, 500), (3, 500)])
def test_teleport_histogram_is_the_batched_kernel_on_the_same_streams(capsys, n, trials):
    """The CLI draws its circuit on stream (0,) and plays its trials with
    run_trials on stream (1,), so its JSON is that report's dict plus the
    seed, circuit file and depth it adds (several chunks, the last partial)."""
    assert trials > 2 * _teleport_chunk_rows(n)
    code, out, _ = run_cli(capsys, "teleport", "--n", str(n), "--depth", "3",
                           "--trials", str(trials), "--seed", "5", "--corrections")
    assert code == 0
    report = run_trials(random_circuit(n, 3, _stream(5, 0)), trials, _stream(5, 1),
                        corrections=True)
    expected = {**teleport_report_to_dict(report),
                "seed": 5, "circuit_file": None, "depth": 3}
    assert json.loads(out) == expected


@pytest.mark.parametrize("n", [1, 2, 3])
def test_teleport_codes_follow_the_uniform_law(capsys, n):
    """For a circuit resource each of the 4^n Bell codes has probability
    exactly 4^-n, whatever the input: the batched Bell step's histogram
    passes a chi^2 test against that law (false-alarm rate 1e-6), and
    every repaired row is the circuit's output."""
    trials = 4000
    code, out, _ = run_cli(capsys, "teleport", "--n", str(n), "--corrections",
                           "--trials", str(trials), "--seed", "17")
    assert code == 0
    doc = json.loads(out)
    counts = np.zeros(4**n)
    for key, count in doc["outcome_histogram"].items():
        counts[int(key)] = count
    assert counts.sum() == trials
    assert chisquare(counts).pvalue > 1e-6
    assert doc["corrections"]["min_fidelity"] > 1 - 1e-9


def test_teleport_at_the_size_limit_stays_small(tmp_path):
    """n = 8 with repairs: the 1 MiB joint state (and its copies while the
    circuit runs on it), the 1 MiB unitary, 1.3 MiB of near-block Grams and a
    0.5 MiB histogram; the chunks themselves are 6 rows."""
    argv = ["teleport", "--n", "8", "--depth", "2", "--trials", "20",
            "--corrections", "--out", str(tmp_path / "out.json")]
    assert traced_peak(lambda: main(argv)) < 8 << 20
    doc = json.loads((tmp_path / "out.json").read_text())
    assert doc["corrections"]["runs"] == 20 - doc["success_count"]
    assert doc["corrections"]["min_fidelity"] > 1 - 1e-9


def test_teleport_rejects_zero_n(capsys):
    code, _, err = run_cli(capsys, "teleport", "--n", "0")
    assert code == 2
    assert "n must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("teleport", "--n", "9"),
    ("teleport", "--n", str(10**9)),
    ("game", "--n", "1:9"),
    ("game", "--n", "2," + str(10**9), "--strategies", "random"),
])
def test_oversized_n_rejected_before_any_allocation(monkeypatch, capsys, argv):
    _forbid(monkeypatch)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "n must be <= 8" in err


def _trials_argv(tmp_path, command, trials, via_config):
    """`trials` at n = 1, given as a flag or through a --config file."""
    if not via_config:
        return [command, "--n", "1", "--trials", str(trials)]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trials": trials}))
    return [command, "--n", "1", "--config", str(config)]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", ["teleport", "game"])
def test_trials_past_2_53_rejected_before_any_run(monkeypatch, tmp_path, capsys,
                                                  command, via_config):
    _forbid(monkeypatch)
    code, out, err = run_cli(capsys, *_trials_argv(tmp_path, command, 2**53 + 1,
                                                   via_config))
    assert (code, out) == (2, "")
    assert f"config error: trials must be in [1, 2**53], got {2**53 + 1}" in err


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command", ["teleport", "game"])
def test_trials_at_2_53_parses(tmp_path, command, via_config):
    """The limit itself is a valid count; only the parse runs here."""
    _, args = _parse_argv(_trials_argv(tmp_path, command, 2**53, via_config))
    assert _COMMANDS[command][1](args).trials == 2**53


def test_oversized_circuit_file_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"num_qubits": 9, "gates": []}))
    for command in ("teleport", "game"):
        code, _, err = run_cli(capsys, command, "--circuit", str(path))
        assert code == 2
        assert "n must be <= 8" in err


# A --depth whose random circuit holds more than MAX_GATES gates: n gates a
# layer, plus one CNOT from n = 2, and the largest n of a sweep decides.
_DEPTH_LIMITS = [("teleport", "1", MAX_GATES), ("game", "3", MAX_GATES // 4),
                 ("game", "1:3", MAX_GATES // 4)]


def _depth_argv(tmp_path, command, n, depth, via_config):
    """One trial at `depth`, given as a flag or through a --config file."""
    if not via_config:
        return [command, "--n", n, "--trials", "1", "--depth", str(depth)]
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"depth": depth}))
    return [command, "--n", n, "--trials", "1", "--config", str(config)]


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command, n, limit", _DEPTH_LIMITS)
def test_depth_past_the_gate_limit_rejected_before_any_allocation(
        monkeypatch, tmp_path, capsys, command, n, limit, via_config):
    _forbid(monkeypatch)
    argv = _depth_argv(tmp_path, command, n, limit + 1, via_config)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"config error: depth {limit + 1} at n = {n[-1]} makes ")
    assert f"over the limit {MAX_GATES}" in err


@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("command, n, limit", _DEPTH_LIMITS[:2])
def test_depth_at_the_gate_limit_runs(tmp_path, capsys, command, n, limit, via_config):
    argv = _depth_argv(tmp_path, command, n, limit, via_config)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if command == "teleport":
        assert json.loads(out)["depth"] == limit


@pytest.mark.parametrize("command", ["teleport", "game"])
def test_circuit_file_gate_count_limit(tmp_path, capsys, command):
    """A --circuit file of MAX_GATES H gates runs; one gate more exits 2."""
    path = tmp_path / "c.json"
    for count, status in ((MAX_GATES, 0), (MAX_GATES + 1, 2)):
        path.write_text(json.dumps(
            {"num_qubits": 1, "gates": [{"name": "H", "targets": [0]}] * count}))
        code, out, err = run_cli(capsys, command, "--circuit", str(path),
                                 "--trials", "1")
        assert code == status
        if status:
            assert out == ""
            assert f"gates holds {count} entries, over the limit {MAX_GATES}" in err


def test_n_range_bounds_checked_before_expansion(capsys):
    # expanded first, this range is a 200000-entry list (~7 MiB)
    def run():
        assert run_cli(capsys, "game", "--n", "1:200000") == (
            2, "", "config error: n must be <= 8, got 200000\n")
    assert traced_peak(run) < 1 << 20


def test_n_range_expands_inclusively():
    assert _parse_int_list("1:4") == [1, 2, 3, 4]
    assert _parse_int_list("1:2,5") == [1, 2, 5]


_GATE = {"name": "H", "targets": [0]}


@pytest.mark.parametrize("doc, key", [
    ({"gates": [_GATE]}, "num_qubits"),
    ({"num_qubits": 1}, "gates"),
    ({"num_qubits": 1, "gates": [{"name": "H"}]}, "targets"),
    ({"num_qubits": 1, "gates": [{"targets": [0]}]}, "matrix"),
])
@pytest.mark.parametrize("command", ["teleport", "game"])
def test_circuit_file_missing_key_is_bad_input(tmp_path, capsys, command, doc, key):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--circuit", str(path), "--trials", "5")
    assert code == 2
    assert out == ""
    assert repr(key) in err


@pytest.mark.parametrize("command", ["teleport", "game"])
def test_circuit_file_duplicate_targets_is_bad_input(tmp_path, capsys, command):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(
        {"num_qubits": 2, "gates": [{"name": "CNOT", "targets": [1, 1]}]}))
    code, out, err = run_cli(capsys, command, "--circuit", str(path), "--trials", "5")
    assert code == 2
    assert out == ""
    assert "duplicate" in err


def test_teleport_requires_some_circuit_source(capsys):
    code, _, err = run_cli(capsys, "teleport", "--trials", "10")
    assert code == 2
    assert "n is required" in err


def test_teleport_reads_circuit_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_circuit(random_circuit(2, 2, np.random.default_rng(0)), path)
    code, out, _ = run_cli(capsys, "teleport", "--circuit", str(path),
                           "--trials", "100", "--seed", "1")
    assert code == 0
    assert json.loads(out)["n"] == 2


def test_teleport_circuit_file_n_mismatch(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_circuit(random_circuit(2, 1, np.random.default_rng(0)), path)
    for command, n in (("teleport", "3"), ("game", "3"), ("game", "1:2")):
        code, _, err = run_cli(capsys, command, "--circuit", str(path), "--n", n)
        assert code == 2
        assert "2 qubits" in err


def test_teleport_missing_circuit_file(capsys):
    code, _, err = run_cli(capsys, "teleport", "--circuit", "/no/such/file.json")
    assert code == 2


def test_teleport_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run_cli(capsys, "teleport", "--n", "2", "--trials", "300",
                             "--seed", "11", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_game_csv_sweep_shape(capsys):
    code, out, _ = run_cli(capsys, "game", "--n", "1:5", "--strategies",
                           "instant,random", "--trials", "50", "--seed", "2",
                           "--csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 11  # header + 2 strategies x 5 sizes
    assert lines[0].startswith("strategy,n,P,N,C,")
    strategies = [line.split(",")[0] for line in lines[1:]]
    assert strategies == ["instantaneous"] * 5 + ["random_guess"] * 5
    sizes = [line.split(",")[1] for line in lines[1:]]
    assert sizes == ["1", "2", "3", "4", "5"] * 2


def test_game_json_mode_is_a_list(capsys):
    code, out, _ = run_cli(capsys, "game", "--n", "1", "--strategies",
                           "no_answer,approx:0.9", "--trials", "20", "--seed", "5")
    assert code == 0
    docs = json.loads(out)
    assert [d["strategy"] for d in docs] == ["no_answer", "approximate(0.9)"]
    assert docs[1]["answered"] == 20


def test_game_penalty_sweep(capsys):
    code, out, _ = run_cli(capsys, "game", "--n", "1", "--strategies", "random",
                           "--penalty", "0,1,10", "--trials", "20", "--seed", "5",
                           "--csv")
    assert code == 0
    rows = out.strip().split("\n")[1:]
    assert [row.split(",")[3] for row in rows] == ["0", "1", "10"]


@pytest.mark.parametrize("flags", [
    ("--penalty", "nan"),
    ("--penalty", "0,nan"),
    ("--penalty", "inf"),
    ("--reward", "nan"),
    ("--cost", "inf"),
])
def test_game_rejects_non_finite_stakes(capsys, flags):
    code, out, err = run_cli(capsys, "game", "--n", "1", "--strategies", "random",
                             "--trials", "5", *flags)
    assert code == 2
    assert out == ""
    assert "finite" in err


def test_json_output_never_holds_nan():
    with pytest.raises(ValueError):
        _json_dumps({"N": float("nan")})


def test_game_empty_strategies(capsys):
    code, _, err = run_cli(capsys, "game", "--n", "1", "--strategies", ",")
    assert code == 2
    assert "empty" in err


def test_game_unknown_strategy(capsys):
    code, _, err = run_cli(capsys, "game", "--n", "1", "--strategies", "psychic")
    assert code == 2
    assert "psychic" in err
    assert all(entry.token in err for entry in STRATEGIES.values())


def _token(name):
    return STRATEGIES[name].token + (":0.5" if name == "approximate" else "")


def test_every_strategy_token_parses_to_its_kind():
    for name in STRATEGIES:
        kind = _parse_strategy_token(_token(name))
        assert kind.name == name
        assert kind.fidelity == (0.5 if name == "approximate" else None)


@pytest.mark.parametrize("token", ["approx", "approx:1.5", "instant:0.5",
                                   "approx:x", "approx:0.5:1"])
def test_game_rejects_bad_fidelity_suffix(capsys, token):
    code, out, err = run_cli(capsys, "game", "--n", "1", "--strategies", token)
    assert code == 2
    assert out == ""
    assert "fidelity" in err


def _csv_and_json(capsys, *argv):
    code, csv_out, _ = run_cli(capsys, *argv, "--csv")
    assert code == 0
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0
    lines = csv_out.split("\n")
    assert lines[-1] == ""  # newline-terminated
    return lines[0].split(","), [line.split(",") for line in lines[1:-1]], json.loads(json_out)


def test_fmt_rules():
    assert _fmt(0.07) == "0.070000000000000007"  # 17 significant digits
    assert _fmt(10.0) == "10"
    assert _fmt(True) == "true" and _fmt(False) == "false"
    assert _fmt(None) == ""
    assert _fmt(3) == "3"


def test_game_csv_rows_are_the_json_rows(capsys):
    header, rows, docs = _csv_and_json(
        capsys, "game", "--n", "1:2", "--strategies", ",".join(map(_token, STRATEGIES)),
        "--penalty", "0,10", "--trials", "30", "--seed", "12")
    assert header == ["strategy", "n", "P", "N", "C", "trials", "answered",
                      "correct", "empirical_score", "analytic_score", "total_cost"]
    assert len(rows) == len(docs) == len(STRATEGIES) * 4
    for row, doc in zip(rows, docs):
        assert set(doc) == set(header)
        assert row == [_fmt(doc[key]) for key in header]
    assert [row[3] for row in rows[:2]] == ["0", "10"]


def test_timeline_csv_row_is_the_json_row(monkeypatch, capsys):
    outputs = []
    for flags in (("--csv",), ()):
        _feed_stdin(monkeypatch, TIMELINE)
        code, out, _ = run_cli(capsys, "timeline", *flags)
        assert code == 0
        outputs.append(out)
    csv_out, json_out = outputs
    header, row = (line.split(",") for line in csv_out.strip().split("\n"))
    doc = json.loads(json_out)
    assert header == [f.name for f in dataclasses.fields(TimelineReport)]
    assert set(doc) == set(header)
    assert row == [_fmt(doc[key]) for key in header]
    assert row[3] == "true" and row[6] == "false"


def test_teleport_csv_without_successes_has_empty_fidelities(capsys):
    argv = ("teleport", "--n", "3", "--trials", "5", "--seed", "1")
    header, rows, doc = _csv_and_json(capsys, *argv)
    assert doc["success_count"] == 0
    assert doc["mean_success_fidelity"] is None
    assert header == ["n", "trials", "seed", "success_count", "success_rate",
                      "expected_success_rate", "mean_success_fidelity",
                      "min_success_fidelity"]
    assert rows == [[_fmt(doc[key]) for key in header]]
    assert rows[0][-2:] == ["", ""]


@pytest.mark.parametrize("command", ["teleport", "game"])
def test_non_unitary_circuit_file_is_bad_input(monkeypatch, tmp_path, capsys, command):
    # each gate passes its own 1e-9 check; 200 of them drift past it
    drift = GateMatrix(np.diag([1.0, 1.0 + 4e-10]))
    path = tmp_path / "drift.json"
    save_circuit(Circuit(1, ((drift, (0,)),) * 200), path)
    _forbid(monkeypatch, _RUNS[1:])
    code, out, err = run_cli(capsys, command, "--circuit", str(path), "--trials", "5")
    assert code == 2
    assert out == ""
    assert "not unitary" in err


def test_game_determinism(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, _, _ = run_cli(capsys, "game", "--n", "1:2", "--strategies",
                             "instant,classical,rsp", "--trials", "100",
                             "--seed", "9", "--csv", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_game_circuit_file_sets_n(tmp_path, capsys):
    path = tmp_path / "c.json"
    save_circuit(random_circuit(2, 2, np.random.default_rng(4)), path)
    code, out, _ = run_cli(capsys, "game", "--circuit", str(path),
                           "--strategies", "classical", "--trials", "30",
                           "--seed", "4", "--csv")
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[1] == "2"


def test_config_file_overrides_flags(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"trials": 50, "seed": 8}))
    code, out, _ = run_cli(capsys, "teleport", "--n", "1", "--trials", "10",
                           "--seed", "0", "--config", str(config))
    assert code == 0
    doc = json.loads(out)
    assert doc["trials"] == 50
    assert doc["seed"] == 8


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"telepathy": True}))
    code, _, err = run_cli(capsys, "teleport", "--n", "1", "--config", str(config))
    assert code == 2
    assert "telepathy" in err


@pytest.mark.parametrize("command, doc, key", [
    ("teleport", {"seed": 1.7}, "seed"),
    ("teleport", {"seed": -0.5}, "seed"),
    ("teleport", {"trials": True}, "trials"),
    ("teleport", {"n": 2.9}, "n"),
    ("teleport", {"depth": 2.5}, "depth"),
    ("teleport", {"csv": "no"}, "csv"),
    ("teleport", {"corrections": 1}, "corrections"),
    ("game", {"n": [1, True]}, "n"),
    ("game", {"reward": True, "n": 1}, "reward"),
    ("game", {"penalty": {"N": 1}, "n": 1}, "penalty"),
    ("game", {"penalty": None}, "penalty"),
    ("game", {"strategies": None}, "strategies"),
    ("teleport", {"seed": None}, "seed"),
])
def test_config_values_parse_like_flag_text(tmp_path, capsys, command, doc, key):
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--n", "1", "--trials", "5",
                             "--config", str(config))
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {key} ")


def test_list_config_prints_what_the_flags_print(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"n": [1, 2], "penalty": [0, 10],
                                  "strategies": ["instant", "rsp"], "csv": True}))
    common = ("game", "--trials", "40", "--seed", "3")
    code, from_config, _ = run_cli(capsys, *common, "--config", str(config))
    assert code == 0
    code, from_flags, _ = run_cli(capsys, *common, "--n", "1,2", "--penalty", "0,10",
                                  "--strategies", "instant,rsp", "--csv")
    assert code == 0
    assert from_config == from_flags


def test_config_switch_false_overrides_flag(tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"csv": False, "circuit": None}))
    code, out, _ = run_cli(capsys, "teleport", "--n", "1", "--trials", "5", "--csv",
                           "--config", str(config))
    assert code == 0
    assert json.loads(out)["n"] == 1


_H = {"name": "H", "targets": [0]}


@pytest.mark.parametrize("doc, field", [
    ({"num_qubits": True, "gates": []}, "num_qubits"),
    ({"num_qubits": 1.0, "gates": []}, "num_qubits"),
    ({"num_qubits": "1", "gates": []}, "num_qubits"),
    ({"num_qubits": 1, "gates": [{"name": "H", "targets": [True]}]}, "targets"),
    ({"num_qubits": 1, "gates": [{"name": "H", "targets": [0.5]}]}, "targets"),
    ({"num_qubits": 1, "gates": [{"name": "H", "targets": 0}]}, "targets"),
    ({"num_qubits": 1, "gates": [{**_H, "matrix": [[[1, 0], [0, 0]],
                                                  [[0, 0], [1, 0]]]}]}, "matrix"),
])
@pytest.mark.parametrize("command", ["teleport", "game"])
def test_circuit_file_json_types(tmp_path, capsys, command, doc, field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--circuit", str(path), "--trials", "5")
    assert code == 2
    assert out == ""
    assert field in err


@pytest.mark.parametrize("doc, message", [
    ([_H], "circuit must be a JSON object"),
    ({"num_qubits": 1, "gates": {"0": _H}}, "gates must be a list"),
    ({"num_qubits": 1, "gates": "H"}, "gates must be a list"),
    ({"num_qubits": 1, "gates": ["H"]}, "each gate must be a JSON object"),
    ({"num_qubits": 1, "gates": [[0]]}, "each gate must be a JSON object"),
])
@pytest.mark.parametrize("flags", [(), ("--csv",)])
@pytest.mark.parametrize("command", ["teleport", "game"])
def test_circuit_file_of_the_wrong_shape_is_bad_input(tmp_path, capsys, command, flags,
                                                      doc, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--circuit", str(path), "--trials", "5",
                             *flags)
    assert code == 2
    assert out == ""
    assert message in err


_I_PAIRS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("gate, field", [
    ({"matrix": 5}, "matrix"),
    ({"matrix": [[1, 2], [3, 4]]}, "matrix"),
    ({"matrix": [[["a", 0], [0, 0]], [[0, 0], [1, 0]]]}, "matrix"),
    ({"matrix": [[[True, 0], [0, 0]], [[0, 0], [True, 0]]]}, "matrix"),
    ({"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [1, 0]]]}, "matrix"),
    ({"matrix": [_I_PAIRS[0], _I_PAIRS[1][:1]]}, "matrix"),
    ({"name": ["H"]}, "name"),
    ({"name": 7}, "name"),
])
@pytest.mark.parametrize("flags", [(), ("--csv",)])
@pytest.mark.parametrize("command", ["teleport", "game"])
def test_circuit_file_gate_of_the_wrong_type_names_the_field(tmp_path, capsys, command,
                                                             flags, gate, field):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"num_qubits": 1, "gates": [{**gate, "targets": [0]}]}))
    code, out, err = run_cli(capsys, command, "--circuit", str(path), "--trials", "5",
                             *flags)
    assert code == 2
    assert out == ""
    assert f"{field} must" in err


def _feed_stdin(monkeypatch, doc):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))


TIMELINE = {"t1": 0, "t2": 10, "alice_duration": 1, "bob_duration": 8,
            "bob_start": -5, "classical_latency": 2, "bsm_duration": 0.5}


def test_timeline_stdin_to_stdout(monkeypatch, capsys):
    _feed_stdin(monkeypatch, TIMELINE)
    code, out, _ = run_cli(capsys, "timeline")
    assert code == 0
    doc = json.loads(out)
    assert doc["teleport_meets_deadline"] is True
    assert doc["conventional_meets_deadline"] is False


def test_timeline_csv_flag(monkeypatch, capsys):
    _feed_stdin(monkeypatch, TIMELINE)
    code, out, _ = run_cli(capsys, "timeline", "--csv")
    assert code == 0
    assert out.startswith("alice_output_time,")
    assert out.strip().split("\n")[1].split(",")[5] == "true"


def test_timeline_config_file(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text(json.dumps(TIMELINE))
    code, out, _ = run_cli(capsys, "timeline", "--config", str(path))
    assert code == 0
    assert json.loads(out)["bob_ready_time"] == 3.0


def test_timeline_rejects_bad_deadline(monkeypatch, capsys):
    _feed_stdin(monkeypatch, {**TIMELINE, "t2": -1})
    code, _, err = run_cli(capsys, "timeline")
    assert code == 2
    assert "t2" in err


@pytest.mark.parametrize("flags", [(), ("--csv",)])
def test_timeline_rejects_non_finite_field(monkeypatch, capsys, flags):
    _feed_stdin(monkeypatch, {**TIMELINE, "alice_duration": float("nan")})
    code, out, err = run_cli(capsys, "timeline", *flags)
    assert code == 2
    assert out == ""
    assert "alice_duration" in err


@pytest.mark.parametrize("flags", [(), ("--csv",)])
def test_timeline_rejects_overflowing_time(monkeypatch, capsys, flags):
    # every field is finite, but t1 + alice_duration is not
    _feed_stdin(monkeypatch, {"t1": 1e308, "t2": 1.7e308, "alice_duration": 1e308,
                              "bob_duration": 1, "bob_start": 0, "classical_latency": 0})
    code, out, err = run_cli(capsys, "timeline", *flags)
    assert code == 2
    assert out == ""
    assert "alice_output_time overflows" in err


@pytest.mark.parametrize("field, value", [
    ("t1", True), ("t2", "10"), ("bob_start", None), ("bsm_duration", [0.5]),
])
def test_timeline_fields_must_be_numbers(monkeypatch, capsys, field, value):
    _feed_stdin(monkeypatch, {**TIMELINE, field: value})
    code, out, err = run_cli(capsys, "timeline")
    assert code == 2
    assert out == ""
    assert repr(field) in err


@pytest.mark.parametrize("doc", [list(TIMELINE)[:-1], "t1", 3, None])
@pytest.mark.parametrize("flags", [(), ("--csv",)])
@pytest.mark.parametrize("source", ["stdin", "config"])
def test_timeline_config_that_is_not_an_object_is_bad_input(monkeypatch, tmp_path,
                                                            capsys, source, flags, doc):
    """A JSON array of the field names, a string and the rest are each
    rejected as a whole, not read as a sequence of keys."""
    if source == "stdin":
        _feed_stdin(monkeypatch, doc)
    else:
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        flags = ("--config", str(path), *flags)
    code, out, err = run_cli(capsys, "timeline", *flags)
    assert code == 2
    assert out == ""
    assert "timeline config must be a JSON object" in err


@pytest.mark.parametrize("flags", [(), ("--csv",)])
@pytest.mark.parametrize("source", ["stdin", "config"])
def test_timeline_rejects_integer_too_large_for_a_float(monkeypatch, tmp_path,
                                                       capsys, source, flags):
    """JSON integers have no size limit; a 401-digit t1 is bad input that
    names its field, not an OverflowError from float()."""
    doc = {**TIMELINE, "t1": 10**400}
    if source == "stdin":
        _feed_stdin(monkeypatch, doc)
    else:
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        flags = ("--config", str(path), *flags)
    code, out, err = run_cli(capsys, "timeline", *flags)
    assert code == 2
    assert out == ""
    assert "'t1' is too large for a float" in err


def test_timeline_rejects_bad_json(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, _ = run_cli(capsys, "timeline")
    assert code == 2


def test_unwritable_output_is_runtime_error(monkeypatch, capsys):
    _feed_stdin(monkeypatch, TIMELINE)
    code, _, err = run_cli(capsys, "timeline", "--out", "/no/such/dir/x.json")
    assert code == 1


def _fresh_interpreter(probe: str) -> str:
    src = os.path.dirname(os.path.dirname(instaqc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=env).stdout.strip()


def test_cli_import_leaves_scipy_unloaded():
    assert _fresh_interpreter(
        "import sys, instaqc.cli; print('scipy' in sys.modules)") == "False"


def test_a_run_loads_neither_argparse_nor_locale(tmp_path):
    """argparse's first parser imports gettext and locale and compiles its
    regexes, a one-off cost of some ms on every run; the flag tables need
    neither module."""
    argv = ["teleport", "--n", "1", "--trials", "5", "--out", str(tmp_path / "o.json")]
    probe = ("import sys; from instaqc.cli import main; "
             f"assert main({argv!r}) == 0; "
             "print(sorted({'argparse', 'locale'} & set(sys.modules)))")
    assert _fresh_interpreter(probe) == "[]"
    assert json.loads((tmp_path / "o.json").read_text())["trials"] == 5


# --- argv -------------------------------------------------------------------

@pytest.mark.parametrize("argv, token", [
    ([], "command"),
    (["quantum"], "'quantum'"),
    (["teleport", "--bogus"], "'--bogus'"),
    (["teleport", "--trials"], "'--trials'"),
    (["teleport", "--n", "--trials", "5"], "'--n'"),
    (["timeline", "--n", "3"], "'--n'"),
    (["teleport", "--n", "1", "--csv=1"], "'--csv=1'"),
    (["teleport", "--n", "1", "stray"], "'stray'"),
    (["teleport", "--penalty", "1"], "'--penalty'"),
    (["teleport", "--corr", "--n", "1"], "'--corr'"),
])
def test_bad_argv_exits_2_naming_the_token(capsys, argv, token):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert token in err


@pytest.mark.parametrize("argv", [
    ["-h"], ["--help"], ["teleport", "-h"], ["game", "--help"], ["timeline", "-h"],
    ["game", "--n", "1", "-h"],
])
def test_help_lists_every_flag_of_the_table(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    commands = [argv[0]] if argv[0] in _FLAGS else list(_FLAGS)
    for command in commands:
        assert f"usage: instaqc {command} " in out
        for name, (_, text) in _FLAGS[command].items():
            assert re.search(rf"^  --{name}\b.*{re.escape(text)}", out, re.M), name


@pytest.mark.parametrize("command", ["teleport", "game"])
def test_equals_form_reads_like_two_tokens(capsys, command):
    code, spaced, _ = run_cli(capsys, command, "--n", "2", "--trials", "50")
    assert code == 0
    code, joined, _ = run_cli(capsys, command, "--n=2", "--trials=50")
    assert code == 0
    assert joined == spaced


# short values, good and bad; none is -h, so no token asks for help
_ARGV_VALUES = st.sampled_from(["0", "1", "2", "3", "9", "-1", "2.5", "1e3", "nan", "",
                                " ", ".", "x", "1:3", "0:2", "1,,2", "0,10", "instant,rsp",
                                "approx:0.5", "approx:2", "true", "-", "=", "1=2"])


def _argv_of(command):
    """argv of one command: mostly its own flags with values, as two tokens
    or one, and now and then a lone flag, --bogus or a stray token."""
    names = [f"--{name}" for name in _FLAGS[command]]
    flags = st.sampled_from(names)
    pair = st.tuples(flags, _ARGV_VALUES)
    joined = st.builds("{}={}".format, flags, _ARGV_VALUES).map(lambda t: (t,))
    odd = st.tuples(st.sampled_from([*names, "--bogus"]) | _ARGV_VALUES)
    return st.lists(pair | joined | pair | joined | odd, max_size=5).map(
        lambda units: [command, *(token for unit in units for token in unit)])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=st.one_of([_argv_of(command) for command in _FLAGS]))
def test_argv_boundary_raises_only_what_main_maps_to_2(monkeypatch, tmp_path, argv):
    """Any argv either fails _parse_argv with ValueError or reaches the
    command's _parse_* and fails there, if at all, with an exception main()
    reports as exit 2.  Run from an empty directory, no --config or --circuit
    value names a file, and no command runs."""
    monkeypatch.chdir(tmp_path)
    _feed_stdin(monkeypatch, TIMELINE)
    try:
        command, args = _parse_argv(argv)
    except ValueError:
        return
    assert args is not None
    try:
        _COMMANDS[command][1](args)
    except (ValueError, TypeError, OSError):
        pass


# --- JSON boundaries -------------------------------------------------------------

_HUGE = 10**400  # no float holds it
_JSON_LEAVES = (st.none() | st.booleans() | st.integers(-2, 9) | st.just(_HUGE)
                | st.floats() | st.sampled_from(["", "1", "2:3", "0,10", "instant,rsp",
                                                 "approx:0.5", "H", "CNOT", "x", "nan"]))
_JSON_KEYS = st.sampled_from(sorted({*_FLAGS["teleport"], *_FLAGS["game"], *TIMELINE,
                                     "num_qubits", "gates", "name", "targets",
                                     "matrix", "bogus"}))
_JSON = st.recursive(_JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(_JSON_KEYS, inner, max_size=3), max_leaves=8)
_JSON_EDGES = st.sampled_from([None, True, "", [], {}, float("nan"), float("inf"), _HUGE])

# (command, how the document arrives) -> a valid document, which drawn
# documents vary by dropping keys and setting others to random values
_BOUNDARIES = {
    ("teleport", "--circuit"): {"num_qubits": 2, "gates": [
        {"name": "H", "targets": [0]}, {"name": "CNOT", "targets": [0, 1]},
        {"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "targets": [1]}]},
    ("game", "--circuit"): {"num_qubits": 1, "gates": [{"name": "T", "targets": [0]}]},
    ("teleport", "--config"): {"n": 2, "depth": 2, "trials": 5, "corrections": True},
    ("game", "--config"): {"n": "1:2", "strategies": "instant,approx:0.5",
                           "penalty": [0, 10], "trials": 5},
    ("timeline", "stdin"): TIMELINE,
}


@st.composite
def _boundary_documents(draw):
    """(command, source, document, seed): a quarter of the time any JSON
    value, else the boundary's valid document with each key kept, dropped or
    set to an edge value or any JSON value, and half the time one more key
    set to any JSON value."""
    command, source = draw(st.sampled_from(sorted(_BOUNDARIES)))
    seed = draw(st.integers(0, 2**64 - 1))
    if not draw(st.integers(0, 3)):
        return command, source, draw(_JSON), seed
    doc = {}
    for key, value in _BOUNDARIES[command, source].items():
        fate = draw(st.sampled_from(["keep", "keep", "drop", "set"]))
        if fate != "drop":
            doc[key] = value if fate == "keep" else draw(_JSON_EDGES | _JSON)
    if draw(st.booleans()):
        doc[draw(_JSON_KEYS)] = draw(_JSON)
    return command, source, doc, seed


def _reject_constant(token):
    raise ValueError(f"non-finite number {token} in the output")


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_boundary_documents())
def test_json_boundaries_exit_0_or_2_and_print_strict_json(monkeypatch, tmp_path, capsys,
                                                           case):
    """A --circuit file, a --config file or timeline stdin holding any JSON
    document: main() returns 0 or 2 and does not raise, and an exit-0 JSON
    report parses with NaN and Infinity rejected.  Each run starts in an
    empty directory, where a config's `out` writes its report."""
    command, source, doc, seed = case
    run_dir = Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(run_dir)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    if source == "stdin":
        _feed_stdin(monkeypatch, doc)
        argv = [command]
    elif source == "--circuit":
        argv = [command, source, str(path), "--trials", "3", "--seed", str(seed)]
    else:  # the flags set what the document leaves unset
        argv = [command, source, str(path), "--n", "1", "--trials", "3",
                "--seed", str(seed)]
    code, out, _ = run_cli(capsys, *argv)
    assert code in (0, 2)
    csv_run = source == "--config" and isinstance(doc, dict) and doc.get("csv") is True
    if code == 0 and not csv_run:
        text = out + "".join(p.read_text() for p in run_dir.iterdir())
        json.loads(text, parse_constant=_reject_constant)
