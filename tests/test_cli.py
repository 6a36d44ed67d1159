"""Command-line behavior: formats, exit codes, determinism, config handling."""
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import instaqc
from instaqc.circuit import random_circuit, save_circuit
from instaqc.cli import _json_dumps, main


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
    code, _, err = run_cli(capsys, "teleport", "--circuit", str(path), "--n", "3")
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
