"""Command-line behavior: formats, exit codes, determinism, config handling."""
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import instaqc
from conftest import traced_peak
from instaqc.circuit import Circuit, random_circuit, save_circuit
from instaqc.cli import _fmt, _json_dumps, _parse_int_list, _parse_strategy_token, main
from instaqc.statevec import GateMatrix
from instaqc.strategies import STRATEGIES
from instaqc.timeline import TimelineReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the size check")
    for name in ("random_circuit", "prepare_offline", "run_game"):
        monkeypatch.setattr(f"instaqc.cli.{name}", forbidden)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert "n must be <= 8" in err


def test_oversized_circuit_file_rejected(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"num_qubits": 9, "gates": []}))
    for command in ("teleport", "game"):
        code, _, err = run_cli(capsys, command, "--circuit", str(path))
        assert code == 2
        assert "n must be <= 8" in err


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


@pytest.mark.parametrize("token", ["approx", "approx:1.5", "instant:0.5"])
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
    drift = GateMatrix(1, np.diag([1.0, 1.0 + 4e-10]))
    path = tmp_path / "drift.json"
    save_circuit(Circuit(1, ((drift, (0,)),) * 200), path)

    def forbidden(*args, **kwargs):
        raise AssertionError("ran past the parse")
    for name in ("prepare_offline", "run_game"):
        monkeypatch.setattr(f"instaqc.cli.{name}", forbidden)
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


@pytest.mark.parametrize("field, value", [
    ("t1", True), ("t2", "10"), ("bob_start", None), ("bsm_duration", [0.5]),
])
def test_timeline_fields_must_be_numbers(monkeypatch, capsys, field, value):
    _feed_stdin(monkeypatch, {**TIMELINE, field: value})
    code, out, err = run_cli(capsys, "timeline")
    assert code == 2
    assert out == ""
    assert repr(field) in err


def test_timeline_rejects_bad_json(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, _ = run_cli(capsys, "timeline")
    assert code == 2


def test_unwritable_output_is_runtime_error(monkeypatch, capsys):
    _feed_stdin(monkeypatch, TIMELINE)
    code, _, err = run_cli(capsys, "timeline", "--out", "/no/such/dir/x.json")
    assert code == 1


def test_cli_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(instaqc.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, instaqc.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out.strip() == "False"
