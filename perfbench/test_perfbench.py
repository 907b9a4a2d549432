"""Self-tests of the benchmark: generators, oracle, span arithmetic, failure counting.

The workloads are shrunk to a few hundred rows so that the tests exercise
the real CLI in a few seconds.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from fleetcarbon.config import bundled_data_dir
from perfbench import inputs, oracle, run
from perfbench.spans import Span, Tracer, instrumented, layer_metrics, self_times
from perfbench.workloads import WORKLOADS, Command, pod_steps

@pytest.fixture
def small(monkeypatch, tmp_path):
    """Tiny workload sizes, and a scratch directory for the harness."""
    for name, value in {
        "FLEET_MACHINES": 2,
        "FLEET_INTERVALS": 30,
        "BALANCE_MACHINES": 4,
        "BALANCE_INTERVALS": 40,
        "POD_RUNS": 6,
        "POD_MACHINES": 4,
        "POD_INTERVALS": 12,
        "POD_LOW_SHARE": 0.05,
    }.items():
        monkeypatch.setattr(inputs, name, value)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    return tmp_path


def _digests(workload: str, seed: int, directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True)
    case = WORKLOADS[workload](seed, directory)
    return {name: inputs.sha256(path) for name, path in case.inputs.items()}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs(small, workload):
    first = _digests(workload, 7, small / "a")
    assert first == _digests(workload, 7, small / "b")
    assert first != _digests(workload, 8, small / "c")


def test_oracle_reproduces_paper_pins():
    data = bundled_data_dir()
    with (data / "fleet_telemetry.csv").open(encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    catalog = json.loads((data / "platforms.json").read_text(encoding="utf-8"))
    totals = oracle.platform_totals(rows, catalog)
    pins = {"v4i": 2.53, "v5e": 2.16, "v6e": 0.86, "v4": 1.93, "v5p": 1.65}
    assert {pid: round(t.kwh_per_exaflop(1.1), 2) for pid, t in totals.items()} == pins


def test_self_time_subtracts_children():
    spans = [
        Span("report.platform_table", 0.0, 10.0, None, 0),
        Span("telemetry.aggregate", 1.0, 4.0, 0, 0),
        Span("cci.build_report", 5.0, 6.5, 0, 0),
        Span("lca.per_chip_embodied", 5.5, 6.0, 2, 0),
        Span("telemetry.aggregate", 7.0, 8.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([4.5, 3.0, 1.0, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    spans = [Span("a", 0.0, 4.0, None, 0), Span("b", 1.0, 3.0, 0, 0), Span("c", 2.0, 5.0, 0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_links_parents_and_restores_functions():
    from fleetcarbon import report, telemetry

    original = report.aggregate
    tracer = Tracer()
    with instrumented(tracer):
        assert report.aggregate is not original
        with tracer.span("outer"):
            rows = [
                {"machine_id": "m", "platform_id": "v4", "interval_start": "2024-10-01T00:00:00Z",
                 "tray_power_w": "400;700", "duty_cycle": "0.5", "flops": "1000"}
            ]
            catalog = {"v4": telemetry.PlatformSpec("v4", 4, 2)}
            report.aggregate(telemetry.ingest(rows, catalog), "v4")
    assert report.aggregate is original
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None),
        ("telemetry.ingest", 0),
        ("telemetry.aggregate", 0),
    ]
    metrics = layer_metrics(tracer)
    assert metrics["telemetry.rows_read"] == 1
    assert metrics["telemetry.aggregate_calls"] == 1
    assert metrics["telemetry.aggregate_scan_yield"] == 1.0


def test_wrong_expectation_counts_as_failed_invocation(small):
    case = pod_steps(5, small)
    cmd = case.commands[0]
    wall, problems = run.invoke_in_process(cmd, small)
    assert problems == ()
    manifest = json.loads(case.inputs["manifest"].read_text(encoding="utf-8"))
    records = [json.loads(line) for line in case.inputs["intervals"].read_text(encoding="utf-8").splitlines()]
    wrong = {rid: oracle.OnDuty(d.power_w * (1 + 1e-9), d.included, d.excluded)
             for rid, d in oracle.on_duty(manifest, records).items()}
    policy = {"accept": [], "reject": []}
    tampered = Command(cmd.name, cmd.args, cmd.records,
                       lambda stdout, out: oracle.check_workload_table(oracle.read_text(out / "workloads.csv"), manifest, wrong, policy))
    _, problems = run.invoke_in_process(tampered, small)
    assert problems and any("on_duty_power_w" in p for p in problems)
    invocations = [run.Invocation(wall, 0.0, 0.0, ()), run.Invocation(wall, 0.0, 0.0, problems)]
    assert run.tally(invocations) == (2, 1)


def _metric_names(kind: str) -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def _result(capsys, argv) -> tuple[dict, dict]:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_is_correct_and_reports_every_layer(small, capsys, workload):
    detail, result = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1"])
    assert result["correct"] and result["failed"] == 0, detail["problems"]
    assert list(result["metrics"]) == _metric_names("per_layer")
    passes = json.loads(Path(detail["trace_file"]).read_text(encoding="utf-8"))
    for spans in passes:
        for i, span in enumerate(spans):
            if span["parent"] is None:
                assert span["name"].startswith("cli.")
            else:
                assert span["parent"] < i and spans[span["parent"]]["start"] <= span["start"]


def test_untraced_run_reports_end_to_end_metrics_and_provenance(small, capsys):
    detail, result = _result(capsys, ["--workload", "gen-pods", "--seed", "3", "--seconds", "0", "--trace", "0"])
    assert result["correct"] and result["attempted"] == 5
    assert list(result["metrics"]) == _metric_names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert detail["seed"] == 3 and detail["fleetcarbon_version"]
    assert set(detail["inputs"]) == {
        "gen-balance/scenario", "gen-balance/telemetry", "gen-balance/manifest", "pod-steps/manifest", "pod-steps/intervals"
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gen-pods", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
