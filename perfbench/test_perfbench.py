"""Tests of the benchmark itself: span arithmetic, wrap/restore, output checks.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import instaqc  # noqa: E402
import instaqc.cli  # noqa: E402
import spans  # noqa: E402
from checks import binomial_band, check_output  # noqa: E402
from workloads import WORKLOADS, GameSpec, TeleportSpec  # noqa: E402

TELEPORT = TeleportSpec(n=2, depth=2, corrections=True, trials=200)
GAME = GameSpec(ns=(1, 2), strategies=WORKLOADS["game-sweep"].strategies,
                penalties=(0.0, 10.0), trials=100)
SEED = 11


def _failing(spec, doc) -> list[str]:
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return [name for name, ok in check_output(spec, SEED, text) if not ok]


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Real CLI output of a small teleport and game run."""
    out = {}
    for key, spec in (("teleport", TELEPORT), ("game", GAME)):
        path = tmp_path_factory.mktemp(key) / "out.json"
        assert instaqc.cli.main(spec.argv(SEED, str(path))) == 0
        out[key] = path.read_text()
    return out


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)

    def body():
        inner()
        inner()
    tracer.wrap("outer", body)()
    # outer [0, 10] holds inner [1, 3] and inner [4, 5]
    assert [s[0] for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0]
    assert spans.self_times(tracer.spans) == [7.0, 2.0, 1.0]


def _snapshot():
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "instaqc" or name.startswith("instaqc."))]
    snap = {(m.__name__, key): value for m in modules for key, value in vars(m).items()}
    snap.update({("StateVector", key): value
                 for key, value in vars(instaqc.StateVector).items()})
    return snap


def test_wrap_and_restore_leave_instaqc_unchanged(tmp_path):
    before = _snapshot()
    tracer = spans.Tracer()
    bindings = spans.install(tracer)
    try:
        assert instaqc.cli.run_instantaneous is not before[("instaqc.cli", "run_instantaneous")]
        assert (instaqc.strategies.check_measurement
                is not before[("instaqc.strategies", "check_measurement")])
        argv = TeleportSpec(n=1, depth=1, corrections=True, trials=20).argv(
            SEED, str(tmp_path / "out.json"))
        assert instaqc.cli.main(argv) == 0
    finally:
        spans.uninstall(bindings)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "statevec.StateVector", "circuit.apply_circuit",
            "teleport.run_with_corrections"} <= names
    metrics = spans.layer_metrics([spans.summarize(tracer)], [0.0])
    assert metrics["teleport.run_instantaneous.calls"][0] == 20


def test_clean_reports_pass(reports):
    assert _failing(TELEPORT, reports["teleport"]) == []
    assert _failing(GAME, reports["game"]) == []


def test_nan_field_fails_every_check(reports):
    doc = json.loads(reports["teleport"])
    doc["mean_success_fidelity"] = math.nan
    text = json.dumps(doc)
    assert "NaN" in text
    checks = check_output(TELEPORT, SEED, text)
    assert not any(ok for _, ok in checks)


def test_missing_output_fails_every_check():
    assert not any(ok for _, ok in check_output(GAME, SEED, None))
    assert (len(check_output(GAME, SEED, None))
            == len(check_output(GAME, SEED, "[]")))


def test_histogram_short_of_trials_fails(reports):
    doc = json.loads(reports["teleport"])
    code = max(doc["outcome_histogram"], key=doc["outcome_histogram"].get)
    doc["outcome_histogram"][code] -= 1
    assert _failing(TELEPORT, doc) == ["histogram sums to trials"]


def test_low_fidelity_fails(reports):
    doc = json.loads(reports["teleport"])
    doc["corrections"]["min_fidelity"] = 0.99
    assert _failing(TELEPORT, doc) == ["corrected fidelities are 1"]
    doc = json.loads(reports["teleport"])
    doc["min_success_fidelity"] = 0.99
    assert _failing(TELEPORT, doc) == ["success fidelities are 1"]


def test_one_wrong_classical_answer_fails(reports):
    doc = json.loads(reports["game"])
    k, row = next((k, r) for k, r in enumerate(doc)
                  if r["strategy"] == "classical_basis" and r["answered"] > 0)
    row["correct"] -= 1
    row["empirical_score"] = (row["P"] * row["correct"]
                              - row["N"] * (row["answered"] - row["correct"])) / row["trials"]
    assert _failing(GAME, doc) == [
        f"row {k} (classical, n={row['n']}, N={row['N']:g}): "
        "answered/correct as the strategy demands"]


def test_binomial_band_tails():
    lo, hi = binomial_band(700, 1 / 16, alpha=1e-3)
    assert lo < 700 / 16 < hi
    pmf = [math.comb(700, k) * (1 / 16)**k * (15 / 16)**(700 - k) for k in range(701)]
    assert sum(pmf[:lo]) <= 5e-4 < sum(pmf[:lo + 1])
    assert sum(pmf[hi + 1:]) <= 5e-4 < sum(pmf[hi:])


def test_benchmark_json_names_what_run_py_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in doc["end_to_end"]} == {
        "trials_per_s", "setup_s", "peak_rss_mb"}
    summary = spans.summarize(spans.Tracer())
    reported = spans.layer_metrics([summary], [0.0])
    assert [m["name"] for m in doc["per_layer"]] == list(reported)
    assert all(m["unit"] == reported[m["name"]][1] for m in doc["per_layer"])
