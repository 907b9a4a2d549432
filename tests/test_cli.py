import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fleetcarbon
from fleetcarbon.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_INGEST, main
from fleetcarbon.config import bundled_config_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


INVALID_UTF8 = b'{"a": "\xff\xfe"}\n'
OVERSIZED_CSV_FIELD = b"machine_id,platform_id\n" + b"x" * 131_073 + b",v4i\n"
NOT_AN_OBJECT = b"[]\n"
# v4i rows of the bundled telemetry aggregate, but its inventory is absent
MISSING_INVENTORY_CATALOG = (
    b'{"v4i": {"chips_per_machine": 4, "trays_per_machine": 3, "inventory_ref": "gen-a"}}\n'
)
HUGE_INT = "1" + "0" * 400  # a JSON integer beyond float range
HUGE_POWER_INTERVAL = (
    '{"run_id": "rlhf-v5e-r1", "machine_id": "m0", "interval_start": "2024-10-01T00:00:00Z", '
    f'"power_w": {HUGE_INT}, "duty_cycle": 0.9}}\n'
).encode()


def run_manifest(**run):
    """A one-run manifest; a field given as None is left out."""
    fields = {"run_id": "r1", "platform_id": "v5e", "machines": ["m0"], "step_time_s": 1.0}
    fields.update(run)
    return json.dumps({"runs": [{k: v for k, v in fields.items() if v is not None}]}).encode()


def run_cli_process(*argv):
    """Run the CLI in a child interpreter, so an uncaught error shows as a traceback."""
    src = str(Path(fleetcarbon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", "fleetcarbon.cli", *argv], capture_output=True, text=True, env=env
    )


def demo_config():
    """The bundled demo config with absolute input paths."""
    cfg = json.loads(bundled_config_path().read_text())
    base = bundled_config_path().parent
    for key in ("telemetry", "platforms", "inventories", "factors", "run_manifest", "run_intervals"):
        cfg[key] = str(base / cfg[key])
    return cfg


def write_config(tmp_path, **overrides):
    """The bundled demo config with absolute input paths, plus overrides."""
    cfg = demo_config()
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def config_json(**raw):
    """The demo config as JSON bytes, with each keyword's value appended as raw
    JSON text; the decoder keeps the last of duplicate keys, so it wins."""
    text = json.dumps(demo_config())[:-1]
    return (text + "".join(f', "{k}": {v}' for k, v in raw.items()) + "}").encode()


def bundled_json(name, edit):
    """A bundled data file as JSON bytes, after `edit` changed the parsed document."""
    doc = json.loads((bundled_config_path().parent / name).read_text())
    edit(doc)
    return json.dumps(doc).encode()


DEEP = b"[" * 100_000 + b"]" * 100_000  # far beyond the decoder's recursion limit
CATALOG_V4I = '{{"v4i": {{"chips_per_machine": 8, "trays_per_machine": 3, {}}}}}'


def read_csv_table(path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class TestReport:
    def test_bundled_report_files(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "report", "-o", str(tmp_path))
        assert code == 0
        for name in ("platforms.csv", "stage_breakdown.csv", "manufacturing.csv"):
            assert (tmp_path / name).exists()

    def test_platform_table_reproduces_published_intensities(self, tmp_path, capsys):
        code, *_ = run_cli(capsys, "report", "-o", str(tmp_path))
        assert code == 0
        rows = {r["platform"]: r for r in read_csv_table(tmp_path / "platforms.csv")}
        published_op_mb = {"v4i": 346, "v5e": 295, "v6e": 118, "v4": 263, "v5p": 225}
        published_emb = {"v4i": 114, "v5e": 103, "v6e": 38, "v4": 79, "v5p": 58}
        for pid, expected in published_op_mb.items():
            assert float(rows[pid]["operational_cci"]) == pytest.approx(expected, rel=0.02)
        for pid, expected in published_emb.items():
            assert float(rows[pid]["embodied_cci"]) == pytest.approx(expected, rel=0.02)

    def test_deterministic_byte_output(self, tmp_path, capsys):
        run_cli(capsys, "report", "-o", str(tmp_path / "a"))
        run_cli(capsys, "report", "-o", str(tmp_path / "b"))
        for name in ("platforms.csv", "stage_breakdown.csv", "manufacturing.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_csv_and_json_carry_identical_numbers(self, tmp_path, capsys):
        run_cli(capsys, "report", "-o", str(tmp_path / "c"), "--format", "csv")
        run_cli(capsys, "report", "-o", str(tmp_path / "j"), "--format", "json")
        csv_rows = read_csv_table(tmp_path / "c" / "platforms.csv")
        json_rows = json.loads((tmp_path / "j" / "platforms.json").read_text())["rows"]
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key, j_value in j_row.items():
                if isinstance(j_value, (int, float)) and not isinstance(j_value, bool):
                    assert float(c_row[key]) == j_value
                else:
                    assert c_row[key] == str(j_value)

    def test_markdown_format(self, tmp_path, capsys):
        code, *_ = run_cli(capsys, "report", "-o", str(tmp_path), "--format", "md")
        assert code == 0
        text = (tmp_path / "platforms.md").read_text()
        assert text.startswith("| platform |")

    def test_location_standard_scales_operational(self, tmp_path, capsys):
        run_cli(capsys, "report", "-o", str(tmp_path / "mb"), "--standard", "market")
        run_cli(capsys, "report", "-o", str(tmp_path / "lb"), "--standard", "location")
        mb = {r["platform"]: r for r in read_csv_table(tmp_path / "mb" / "platforms.csv")}
        lb = {r["platform"]: r for r in read_csv_table(tmp_path / "lb" / "platforms.csv")}
        for pid in mb:
            ratio = float(lb[pid]["operational_cci"]) / float(mb[pid]["operational_cci"])
            assert ratio == pytest.approx(366 / 135, rel=1e-9)
            assert lb[pid]["embodied_cci"] == mb[pid]["embodied_cci"]

    def test_empty_telemetry_exits_with_compute_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("machine_id,platform_id,interval_start,tray_power_w,duty_cycle,flops\n")
        code, out, err = run_cli(capsys, "report", "-o", str(tmp_path), "--telemetry", str(empty))
        assert code == EXIT_COMPUTE
        assert "empty window" in err


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "report", "--config", str(tmp_path / "nope.json"))
        assert code == EXIT_CONFIG
        assert "configuration error" in err

    def test_bad_standard(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "report", "-o", str(tmp_path), "--standard", "vibes")
        assert code == EXIT_CONFIG

    def test_non_finite_pue_flag(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "scenario", "-o", str(tmp_path), "--pue", "nan")
        assert code == EXIT_CONFIG
        assert "pue nan" in err

    def test_unreadable_telemetry(self, tmp_path, capsys):
        cfg = json.loads(bundled_config_path().read_text())
        base = bundled_config_path().parent
        for key in ("platforms", "inventories", "factors"):
            cfg[key] = str(base / cfg[key])
        cfg["telemetry"] = str(tmp_path / "missing.csv")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "report", "--config", str(cfg_path))
        assert code == EXIT_CONFIG  # flagged before read: file does not exist

    def test_corrupt_run_manifest_is_ingest_error(self, tmp_path, capsys):
        cfg = json.loads(bundled_config_path().read_text())
        base = bundled_config_path().parent
        for key in (
            "telemetry",
            "platforms",
            "inventories",
            "factors",
            "run_intervals",
        ):
            cfg[key] = str(base / cfg[key])
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        cfg["run_manifest"] = str(bad)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(capsys, "workload", "--config", str(cfg_path), "-o", str(tmp_path))
        assert code == EXIT_INGEST
        assert "ingest error" in err

    def test_unknown_scenario_name(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "scenario", "not-a-scenario", "-o", str(tmp_path))
        assert code == EXIT_COMPUTE

    @pytest.mark.parametrize(
        "key,content,command,expected",
        [
            ("config", INVALID_UTF8, "report", EXIT_CONFIG),
            ("platforms", INVALID_UTF8, "report", EXIT_CONFIG),
            ("inventories", INVALID_UTF8, "report", EXIT_CONFIG),
            ("factors", INVALID_UTF8, "report", EXIT_CONFIG),
            ("telemetry", INVALID_UTF8, "report", EXIT_INGEST),
            ("telemetry", OVERSIZED_CSV_FIELD, "ingest", EXIT_INGEST),
            ("run_manifest", INVALID_UTF8, "workload", EXIT_INGEST),
            ("run_intervals", INVALID_UTF8, "workload", EXIT_INGEST),
            ("config", NOT_AN_OBJECT, "report", EXIT_CONFIG),
            ("platforms", NOT_AN_OBJECT, "report", EXIT_CONFIG),
            ("inventories", NOT_AN_OBJECT, "report", EXIT_CONFIG),
            ("factors", NOT_AN_OBJECT, "report", EXIT_CONFIG),
            ("platforms", b'{"platforms": []}', "report", EXIT_CONFIG),
            ("inventories", b'{"v4i": []}', "report", EXIT_CONFIG),
            ("platforms", MISSING_INVENTORY_CATALOG, "cci", EXIT_CONFIG),
            ("platforms", MISSING_INVENTORY_CATALOG, "lca", EXIT_CONFIG),
            ("run_manifest", b"{}", "workload", EXIT_INGEST),
            ("run_manifest", run_manifest(platform_id=None), "workload", EXIT_INGEST),
            ("run_manifest", run_manifest(machines=None), "workload", EXIT_INGEST),
            ("run_manifest", run_manifest(step_time_s=None), "workload", EXIT_INGEST),
            ("run_manifest", run_manifest(step_time_s=int(HUGE_INT)), "workload", EXIT_INGEST),
            ("run_manifest", run_manifest(platform_id="v9"), "workload", EXIT_CONFIG),
            ("run_intervals", HUGE_POWER_INTERVAL, "workload", EXIT_INGEST),
            ("config", config_json(pue='"x"'), "scenario", EXIT_CONFIG),
            ("config", config_json(pue='"inf"'), "scenario", EXIT_CONFIG),
            ("config", config_json(buckets="null"), "weight", EXIT_CONFIG),
            ("config", config_json(buckets="1e400"), "weight", EXIT_CONFIG),
            ("config", config_json(buckets="0"), "weight", EXIT_CONFIG),
            ("config", config_json(incomplete_runs="[]"), "workload", EXIT_CONFIG),
            ("config", config_json(workload_factor_g_per_kwh='"x"'), "workload", EXIT_CONFIG),
            ("config", config_json(workload_pue="-3"), "workload", EXIT_CONFIG),
            ("config", config_json(telemetry="5"), "report", EXIT_CONFIG),
            ("factors", b'{"year": "x"}', "report", EXIT_CONFIG),
            ("factors", b'{"standards": []}', "report", EXIT_CONFIG),
            ("factors", b'{"standards": {"market": []}}', "report", EXIT_CONFIG),
            ("factors", b'{"standards": {"market": {"lb_factor": null}}}', "report", EXIT_CONFIG),
            ("factors", b'{"scenarios": {"x": []}}', "report", EXIT_CONFIG),
            ("platforms", CATALOG_V4I.format('"deployment_year": "x"').encode(), "lca", EXIT_CONFIG),
            ("platforms", CATALOG_V4I.format('"lifetime_years": 0.3').encode(), "lca", EXIT_COMPUTE),
            ("config", DEEP, "report", EXIT_CONFIG),
            ("platforms", DEEP, "report", EXIT_CONFIG),
            ("inventories", DEEP, "report", EXIT_CONFIG),
            ("factors", DEEP, "report", EXIT_CONFIG),
            ("run_manifest", DEEP, "workload", EXIT_INGEST),
            ("run_intervals", DEEP, "workload", EXIT_INGEST),
        ],
        ids=[
            "config",
            "catalog",
            "inventories",
            "factors",
            "telemetry",
            "telemetry-oversized-field",
            "run-manifest",
            "run-intervals",
            "config-not-object",
            "catalog-not-object",
            "inventories-not-object",
            "factors-not-object",
            "manifest-catalog-not-object",
            "inventory-entry-not-object",
            "catalog-missing-inventory-cci",
            "catalog-missing-inventory-lca",
            "run-manifest-empty-object",
            "run-manifest-no-platform",
            "run-manifest-no-machines",
            "run-manifest-no-step-time",
            "run-manifest-huge-step-time",
            "run-manifest-unknown-platform",
            "run-intervals-huge-power",
            "config-pue-text",
            "config-pue-text-inf",
            "config-buckets-null",
            "config-buckets-overflow",
            "config-buckets-zero",
            "config-incomplete-runs-list",
            "config-workload-factor-text",
            "config-workload-pue-negative",
            "config-telemetry-number",
            "factors-year-text",
            "factors-standards-list",
            "factors-standard-list",
            "factors-lb-factor-null",
            "factors-scenario-list",
            "catalog-deployment-year-text",
            "catalog-lifetime-under-half-year",
            "config-deep",
            "catalog-deep",
            "inventories-deep",
            "factors-deep",
            "run-manifest-deep",
            "run-intervals-deep",
        ],
    )
    def test_undecodable_input_exits_without_traceback(self, tmp_path, key, content, command, expected):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(content)
        cfg_path = bad if key == "config" else write_config(tmp_path, **{key: str(bad)})
        proc = run_cli_process(command, "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == expected, proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "key,content,command",
        [
            ("config", config_json(pue="NaN"), "scenario"),
            ("config", config_json(workload_factor_g_per_kwh="NaN"), "workload"),
            ("config", config_json(workload_factor_g_per_kwh='"nan"'), "workload"),
            ("platforms", CATALOG_V4I.format('"lifetime_years": Infinity').encode(), "cci"),
            ("platforms", CATALOG_V4I.format('"lifetime_years": "inf"').encode(), "report"),
            (
                "inventories",
                bundled_json("inventories.json", lambda d: d["v4i"].update(scope1_kg_per_chip=math.nan)),
                "report",
            ),
            (
                "factors",
                bundled_json(
                    "factors.json",
                    lambda d: d["scenarios"]["cfe90"].update(operations_factor_g_per_kwh=math.inf),
                ),
                "scenario",
            ),
        ],
        ids=[
            "config-pue",
            "config-workload-factor",
            "config-workload-factor-text",
            "catalog",
            "catalog-text",
            "inventories",
            "factors",
        ],
    )
    def test_non_finite_number_is_config_error(self, tmp_path, key, content, command):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        cfg_path = bad if key == "config" else write_config(tmp_path, **{key: str(bad)})
        proc = run_cli_process(command, "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "non-finite number" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_factors_file_defines_the_standards(self, tmp_path, capsys):
        factors = tmp_path / "factors.json"
        factors.write_bytes(
            bundled_json(
                "factors.json",
                lambda d: d["standards"].update(residual={"lb_factor": 366.0, "cfe_impact": 100.0}),
            )
        )
        cfg_path = write_config(tmp_path, factors=str(factors))
        code, out, err = run_cli(capsys, "cci", "--config", str(cfg_path), "--standard", "residual")
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(r["standard"] == "residual" for r in rows)


class TestIngestCommand:
    def test_summary_and_rejection_log(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "ingest", "-o", str(tmp_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["rows_rejected"] == 0
        assert summary["rows_accepted"] == 243
        assert summary["complete_samples"] == 240
        assert summary["excluded_incomplete"] == {
            "missing power": 1,
            "missing utilization/performance": 2,
        }
        log = (tmp_path / "rejections.csv").read_text()
        assert log.splitlines()[0] == "row,reason"

    def test_rejections_logged_for_bad_rows(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "machine_id,platform_id,interval_start,tray_power_w,duty_cycle,flops\n"
            "m0,v4i,2024-10-01T00:00:00Z,300;442;442,0.5,1000\n"
            "m1,unknown,2024-10-01T00:00:00Z,300,0.5,1000\n"
            "m2,v4i,2024-10-01T00:00:00Z,300,1.7,1000\n"
        )
        code, out, err = run_cli(
            capsys, "ingest", "-o", str(tmp_path), "--telemetry", str(bad)
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["rows_accepted"] == 1
        assert summary["rows_rejected"] == 2
        log_rows = (tmp_path / "rejections.csv").read_text().splitlines()
        assert len(log_rows) == 3  # header + two rejects

    def test_non_finite_numbers_logged_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "machine_id,platform_id,interval_start,tray_power_w,duty_cycle,flops\n"
            "m0,v4i,2024-10-01T00:00:00Z,300;442;442,0.5,1000\n"
            "m1,v4i,2024-10-01T00:00:00Z,300;442;442,0.5,1e400\n"
            "m2,v4i,2024-10-01T00:00:00Z,nan;100,0.5,1000\n"
        )
        code, out, err = run_cli(
            capsys, "ingest", "-o", str(tmp_path), "--telemetry", str(bad)
        )
        assert code == 0
        summary = json.loads(out)
        assert (summary["rows_accepted"], summary["rows_rejected"]) == (1, 2)
        log = read_csv_table(tmp_path / "rejections.csv")
        assert [(r["row"], r["reason"]) for r in log] == [
            ("2", "bad number: flops '1e400'"),
            ("3", "bad number: tray_power_w 'nan;100'"),
        ]

    def test_malformed_json_line_logged_not_raised(self, tmp_path, capsys):
        good = (
            '{"machine_id": "%s", "platform_id": "v4i", "interval_start": '
            '"2024-10-01T00:00:00Z", "tray_power_w": [300, 442, 442], "duty_cycle": 0.5, "flops": 1000}'
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{good % 'm0'}\n{{oops\n{good % 'm1'}\n")
        code, out, err = run_cli(capsys, "ingest", "-o", str(tmp_path), "--telemetry", str(bad))
        assert code == 0
        summary = json.loads(out)
        assert (summary["rows_accepted"], summary["rows_rejected"]) == (2, 1)
        log = read_csv_table(tmp_path / "rejections.csv")
        assert [r["row"] for r in log] == ["2"]
        assert log[0]["reason"].startswith("bad JSON: ")


class TestScenarioCommand:
    def test_reference_ratios(self, tmp_path, capsys):
        code, *_ = run_cli(
            capsys,
            "scenario",
            "cfe90",
            "cfe90-manufacturing",
            "--baseline-platform",
            "v4i",
            "-o",
            str(tmp_path),
        )
        assert code == 0
        rows = read_csv_table(tmp_path / "scenarios.csv")
        v6e = {r["scenario"]: r for r in rows if r["platform"] == "v6e"}
        assert float(v6e["cfe90"]["improvement_vs_self"]) == pytest.approx(3.3, rel=0.05)
        assert float(v6e["cfe90-manufacturing"]["improvement_vs_self"]) == pytest.approx(4.6, rel=0.05)
        assert float(v6e["cfe90"]["improvement_vs_baseline_platform"]) == pytest.approx(10, rel=0.05)
        assert float(v6e["cfe90-manufacturing"]["improvement_vs_baseline_platform"]) == pytest.approx(14, rel=0.05)


class TestSynthCommand:
    @pytest.mark.parametrize(
        "content",
        [
            b"[]",
            b'{"generations": [{"name": "g", "machines": 1, "trays_per_machine": 0}]}',
            b'{"generations": [{"name": "g", "machines": 1, "duty_a": -1}]}',
            DEEP,
            b'{"start": "x", "generations": [{"name": "g", "machines": 1}]}',
            b'{"generations": [{"name": "g", "machines": 1, "flops_per_s_at_full_duty": 0}]}',
            b'{"generations": [{"name": "g", "machines": 1, "active_power_w": 0}]}',
            b'{"generations": []}',
        ],
        ids=[
            "not-object",
            "zero-trays",
            "negative-duty-a",
            "deep",
            "bad-start",
            "zero-flops-rate",
            "zero-power",
            "no-generations",
        ],
    )
    def test_bad_scenario_file_exits_before_writing(self, tmp_path, content):
        scenario = tmp_path / "scenario.json"
        scenario.write_bytes(content)
        out = tmp_path / "out"
        proc = run_cli_process("synth", "--scenario-file", str(scenario), "--seed", "3", "-o", str(out))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (out / "synthetic_telemetry.csv").exists()
        assert not (out / "synthetic_manifest.json").exists()

    def test_deterministic_for_seed(self, tmp_path, capsys):
        run_cli(capsys, "synth", "--seed", "5", "-o", str(tmp_path / "a"))
        run_cli(capsys, "synth", "--seed", "5", "-o", str(tmp_path / "b"))
        assert (tmp_path / "a" / "synthetic_telemetry.csv").read_bytes() == (
            tmp_path / "b" / "synthetic_telemetry.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "synthetic_manifest.json").read_bytes() == (
            tmp_path / "b" / "synthetic_manifest.json"
        ).read_bytes()

    def test_weight_command_on_synthetic_fleet(self, tmp_path, capsys):
        code, *_ = run_cli(capsys, "synth", "--seed", "9", "-o", str(tmp_path))
        assert code == 0
        cfg = json.loads(bundled_config_path().read_text())
        base = bundled_config_path().parent
        for key in ("inventories", "factors"):
            cfg[key] = str(base / cfg[key])
        cfg["telemetry"] = str(tmp_path / "synthetic_telemetry.csv")
        cfg["platforms"] = str(tmp_path / "synthetic_manifest.json")
        for key in ("hourly_series", "run_manifest", "run_intervals"):
            cfg.pop(key, None)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            capsys,
            "weight",
            "--config",
            str(cfg_path),
            "--cohort",
            "gen-a",
            "gen-b",
            "--baseline",
            "gen-a",
            "-o",
            str(tmp_path),
        )
        assert code == 0
        rows = read_csv_table(tmp_path / "weighting.csv")
        ratio = next(
            float(r["ratio_vs_baseline"])
            for r in rows
            if r["generation"] == "gen-b" and r["metric"] == "energy_kwh_per_exaflop"
        )
        assert ratio == pytest.approx(0.5, rel=0.03)


class TestOtherCommands:
    def test_cci_prints_table(self, capsys):
        code, out, err = run_cli(capsys, "cci", "--format", "csv")
        assert code == 0
        header = out.splitlines()[0]
        assert header.startswith("platform,")

    def test_lca_writes_views(self, tmp_path, capsys):
        code, *_ = run_cli(capsys, "lca", "-o", str(tmp_path))
        assert code == 0
        rows = read_csv_table(tmp_path / "amortization.csv")
        v4i_rows = [r for r in rows if r["platform"] == "v4i"]
        assert len(v4i_rows) == 6
        lca_total = sum(float(r["lca_kg_per_chip"]) for r in v4i_rows)
        corp_total = sum(float(r["corporate_kg_per_chip"]) for r in v4i_rows)
        assert lca_total == pytest.approx(corp_total, rel=1e-9)
        assert lca_total == pytest.approx(386, abs=0.01)

    def test_workload_report(self, tmp_path, capsys):
        code, *_ = run_cli(capsys, "workload", "-o", str(tmp_path))
        assert code == 0
        rows = {r["run_id"]: r for r in read_csv_table(tmp_path / "workloads.csv")}
        assert rows["sft-v5e-r1"]["validation"] == "accepted"  # via config accept list
        assert float(rows["rlhf-v6e-r1"]["on_duty_power_w"]) == 2589.0
