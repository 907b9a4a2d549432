import codecs
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
import fleetcarbon.synth
from fleetcarbon import cli
from fleetcarbon.cli import EXIT_COMPUTE, EXIT_CONFIG, EXIT_INGEST, main
from fleetcarbon.config import bundled_config_path
from fleetcarbon.telemetry import BucketScheme


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
# one key twice: the offsets differ, the UTC instant does not
REPEATED_INTERVAL = b"".join(
    b'{"run_id": "rlhf-v5e-r1", "machine_id": "m0", "interval_start": "%s", "power_w": 1, "duty_cycle": 1}\n'
    % ts
    for ts in (b"2024-10-01T00:00:00Z", b"2024-10-01T01:00:00+01:00")
)
# each row's power is finite, the platform's total is not
OVERFLOW_TELEMETRY = (
    "machine_id,platform_id,interval_start,tray_power_w,duty_cycle,flops\n"
    "v4-m0,v4,2024-10-01T00:00:00Z,8e307;8e307,0.5,1000\n"
    "v4-m1,v4,2024-10-01T00:00:00Z,8e307;8e307,0.5,1000\n"
    "v4i-m0,v4i,2024-10-01T00:00:00Z,300;442;442,0.5,1000\n"
)
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


def bundled_intervals(**raw):
    """The bundled run intervals, each keyword's value appended as raw JSON
    text to the first record; the decoder keeps the last of duplicate keys."""
    first, rest = (bundled_config_path().parent / "workload_runs.jsonl").read_bytes().split(b"\n", 1)
    text = first.decode()[:-1] + "".join(f', "{k}": {v}' for k, v in raw.items()) + "}"
    return text.encode() + b"\n" + rest


def bundled_manifest(**first_run):
    """The bundled run manifest with fields of its first run replaced."""
    return bundled_json("workload_manifest.json", lambda d: d["runs"][0].update(first_run))


def appended_interval(**raw):
    """The bundled run intervals plus a copy of their first record with `raw` replacing its fields."""
    lines = (bundled_config_path().parent / "workload_runs.jsonl").read_bytes()
    return lines + json.dumps(dict(json.loads(lines.split(b"\n", 1)[0]), **raw)).encode() + b"\n"


# each left-to-right partial sum rounds to float max, but the exact sum is beyond it
TRAY_SUM_OVERFLOW = "1.7976931348623157e308;9e291;9e291"


def tray_sum_overflow(tmp_path):
    """The bundled telemetry plus one v4i row whose tray sum is beyond float range."""
    telemetry = tmp_path / "telemetry.csv"
    bundled = (bundled_config_path().parent / "fleet_telemetry.csv").read_text()
    telemetry.write_text(bundled + f"v4i-m900,v4i,2024-10-01T00:00:00Z,{TRAY_SUM_OVERFLOW},0.55,1000\n")
    return {"telemetry": str(telemetry)}


def tiny_flops_per_step(tmp_path):
    """The bundled manifest with 5e-324 FLOPs per step for its first run: its ExaFLOPs underflow to 0."""
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(bundled_manifest(flops_per_step=5e-324))
    return {"run_manifest": str(manifest)}


def huge_on_duty_power(tmp_path):
    """The bundled intervals with 1e308 W on every record of the first run: finite each, not in sum."""
    intervals = tmp_path / "intervals.jsonl"
    records = map(json.loads, (bundled_config_path().parent / "workload_runs.jsonl").read_text().splitlines())
    records = (dict(r, power_w=1e308) if r["run_id"] == "rlhf-v5e-r1" else r for r in records)
    intervals.write_text("".join(json.dumps(r) + "\n" for r in records))
    return {"run_intervals": str(intervals)}


# a record for a machine its run does not list; on_duty_power would never read it
UNLISTED_MACHINE_INTERVALS = appended_interval(machine_id="not-in-pod", power_w=99999)
DEEP = b"[" * 100_000 + b"]" * 100_000  # far beyond the decoder's recursion limit
CATALOG_V4I = '{{"v4i": {{"chips_per_machine": 8, "trays_per_machine": 3, {}}}}}'


CONFIG_COMMANDS = ("ingest", "report", "cci", "lca", "workload", "scenario", "weight")
# the exit code of each of CONFIG_COMMANDS when the config names `{}` as this document
EMPTY_DOCUMENT_EXITS = {
    "platforms": (0, 0, 0, 0, EXIT_CONFIG, 0, EXIT_COMPUTE),
    "inventories": (0, EXIT_CONFIG, EXIT_CONFIG, EXIT_CONFIG, EXIT_CONFIG, EXIT_CONFIG, 0),
    "factors": (0, EXIT_CONFIG, EXIT_CONFIG, 0, 0, EXIT_CONFIG, EXIT_CONFIG),
}


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

    def test_flag_out_of_range_is_named_as_an_option(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "scenario", "-o", str(tmp_path / "out"), "--pue", "0.5")
        assert code == EXIT_CONFIG
        assert "bad option: pue 0.5 must be finite and >= 1" in err
        assert "config.json" not in err
        assert not (tmp_path / "out").exists()

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

    def test_unknown_cohort_platform(self, tmp_path, capsys):
        # only v4i and v5e would be compared, with exit 0
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "weight", "--cohort", "v4i", "v5e", "v6x", "-o", str(out))
        assert code == EXIT_CONFIG
        assert "cohort platforms not in catalog: 'v6x'" in err
        assert not out.exists()

    def test_weight_reads_no_inventories(self, tmp_path, capsys):
        bad = tmp_path / "inventories.json"
        bad.write_text("{not json")
        cfg_path = write_config(tmp_path, inventories=str(bad))
        assert run_cli(capsys, "weight", "-o", str(tmp_path / "demo"))[0] == 0
        code, _, err = run_cli(capsys, "weight", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert code == 0, err
        weighting = (tmp_path / "out" / "weighting.csv").read_bytes()
        assert weighting == (tmp_path / "demo" / "weighting.csv").read_bytes()
        code, _, err = run_cli(capsys, "report", "--config", str(cfg_path), "-o", str(tmp_path / "report"))
        assert code == EXIT_CONFIG
        assert "cannot load inventories" in err

    def test_workload_reads_factors_only_without_its_own_factor(self, tmp_path, capsys):
        bad = tmp_path / "factors.json"
        bad.write_text("{not json")
        cfg_path = write_config(tmp_path, factors=str(bad))
        assert run_cli(capsys, "workload", "-o", str(tmp_path / "demo"))[0] == 0
        code, _, err = run_cli(capsys, "workload", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert code == 0, err
        workloads = (tmp_path / "out" / "workloads.csv").read_bytes()
        assert workloads == (tmp_path / "demo" / "workloads.csv").read_bytes()
        cfg_path = write_config(tmp_path, factors=str(bad), workload_factor_g_per_kwh=None)
        code, _, err = run_cli(capsys, "workload", "--config", str(cfg_path), "-o", str(tmp_path / "null"))
        assert code == EXIT_CONFIG
        assert "cannot load factor sets" in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rejected_run_keeps_its_row_without_figures(self, tmp_path, capsys, fmt):
        cfg_path = write_config(tmp_path, incomplete_runs={"accept": [], "reject": ["sft-v5e-r1"]})
        code, _, err = run_cli(capsys, "workload", "--config", str(cfg_path), "--format", fmt, "-o", str(tmp_path))
        assert code == 0, err
        got = (tmp_path / f"workloads.{fmt}").read_text()
        want = (Path(__file__).parent / "golden" / f"workload.{fmt}" / f"workloads.{fmt}").read_text()
        i = 2  # rows are sorted by run id, so sft-v5e-r1 is the third
        if fmt == "csv":
            got, want = got.splitlines(), want.splitlines()
            want[1 + i] = "sft-v5e-r1,sft,v5e,rejected" + "," * 8
        else:
            got, want = json.loads(got), json.loads(want)
            blank = dict.fromkeys(want["rows"][i])
            want["rows"][i] = dict(blank, run_id="sft-v5e-r1", workload="sft", platform="v5e", validation="rejected")
        assert got == want

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
            ("run_intervals", REPEATED_INTERVAL, "workload", EXIT_INGEST),
            ("run_intervals", bundled_intervals(power_w="NaN"), "workload", EXIT_INGEST),
            ("run_intervals", bundled_intervals(power_w='"1e400"'), "workload", EXIT_INGEST),
            ("run_intervals", bundled_intervals(power_w="-5000"), "workload", EXIT_INGEST),
            ("run_intervals", bundled_intervals(duty_cycle="7.0"), "workload", EXIT_INGEST),
            ("run_intervals", bundled_intervals(interval_start='"2024-10-01T00:00:00"'), "workload", EXIT_INGEST),
            ("run_manifest", bundled_manifest(step_time_s=math.inf), "workload", EXIT_INGEST),
            ("run_manifest", bundled_manifest(flops_per_step=-5), "workload", EXIT_INGEST),
            ("config", config_json(pue='"x"'), "scenario", EXIT_CONFIG),
            ("config", config_json(pue='"inf"'), "scenario", EXIT_CONFIG),
            ("config", config_json(buckets="null"), "weight", EXIT_CONFIG),
            ("config", config_json(buckets="1e400"), "weight", EXIT_CONFIG),
            ("config", config_json(buckets="0"), "weight", EXIT_CONFIG),
            ("config", config_json(incomplete_runs="[]"), "workload", EXIT_CONFIG),
            ("config", config_json(workload_factor_g_per_kwh='"x"'), "workload", EXIT_CONFIG),
            ("config", config_json(workload_pue="-3"), "workload", EXIT_CONFIG),
            ("config", config_json(telemetry="5"), "report", EXIT_CONFIG),
            ("factors", b'{"standards": []}', "report", EXIT_CONFIG),
            ("factors", b'{"standards": {"market": []}}', "report", EXIT_CONFIG),
            ("factors", b'{"standards": {"market": {"lb_factor": null}}}', "report", EXIT_CONFIG),
            ("factors", b'{"scenarios": {"x": []}}', "report", EXIT_CONFIG),
            ("factors", b'{"standards": {"market": {"lb_factor": 366.0, "cfe_impac": 231.0}}}', "cci", EXIT_CONFIG),
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
            "run-intervals-repeated-key",
            "run-intervals-nan-power",
            "run-intervals-power-text-overflow",
            "run-intervals-negative-power",
            "run-intervals-duty-above-one",
            "run-intervals-no-time-zone",
            "run-manifest-infinite-step-time",
            "run-manifest-negative-flops",
            "config-pue-text",
            "config-pue-text-inf",
            "config-buckets-null",
            "config-buckets-overflow",
            "config-buckets-zero",
            "config-incomplete-runs-list",
            "config-workload-factor-text",
            "config-workload-pue-negative",
            "config-telemetry-number",
            "factors-standards-list",
            "factors-standard-list",
            "factors-lb-factor-null",
            "factors-scenario-list",
            "factors-standard-unknown-key",
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

    @pytest.mark.parametrize("argv", [("cci",), ("weight", "--cohort", "v4i", "v4")], ids=["cci", "weight"])
    def test_power_total_beyond_float_range_is_compute_error(self, tmp_path, argv):
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text(OVERFLOW_TELEMETRY)
        cfg_path = write_config(tmp_path, telemetry=str(telemetry))
        proc = run_cli_process(*argv, "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_COMPUTE, proc.stderr
        assert "platform 'v4'" in proc.stderr
        assert "not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", CONFIG_COMMANDS)
    @pytest.mark.parametrize("key", sorted(EMPTY_DOCUMENT_EXITS))
    def test_empty_document_exits_without_traceback(self, tmp_path, capsys, key, command):
        # in process, an uncaught error would propagate out of main and fail the test
        empty = tmp_path / "empty.json"
        empty.write_text("{}")
        out = tmp_path / "out"
        cfg_path = write_config(tmp_path, **{key: str(empty)})
        code, _, err = run_cli(capsys, command, "--config", str(cfg_path), "-o", str(out))
        assert code == EMPTY_DOCUMENT_EXITS[key][CONFIG_COMMANDS.index(command)], err
        if (key, command) == ("platforms", "scenario"):
            assert (out / "scenarios.csv").read_text().count("\n") == 1  # the header alone
        if (key, command) == ("platforms", "weight"):
            assert "no complete samples for cohort []" in err

    @pytest.mark.parametrize("command", ["cci", "report", "scenario"])
    def test_flops_total_beyond_float_range_is_compute_error(self, tmp_path, command):
        telemetry = tmp_path / "telemetry.csv"
        bundled = (bundled_config_path().parent / "fleet_telemetry.csv").read_text()
        extra = "".join(f"{m},v4,2024-10-01T00:00:00Z,100;100,0.5,1.7e308\n" for m in ("mx1", "mx2"))
        telemetry.write_text(bundled + extra)
        cfg_path = write_config(tmp_path, telemetry=str(telemetry))
        proc = run_cli_process(command, "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_COMPUTE, proc.stderr
        assert "platform 'v4': total flops is beyond float range" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_power_total_overflowing_across_a_compaction_is_compute_error(self, tmp_path):
        # more rows than a cell buffers, so the overflow is met while compacting
        telemetry = tmp_path / "telemetry.csv"
        rows = "".join(f"v4-m{i},v4,2024-10-01T00:00:00Z,8e305;8e305,0.5,1000\n" for i in range(300))
        telemetry.write_text(OVERFLOW_TELEMETRY.splitlines(keepends=True)[0] + rows)
        cfg_path = write_config(tmp_path, telemetry=str(telemetry))
        proc = run_cli_process("cci", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_COMPUTE, proc.stderr
        assert "platform 'v4': total machine power is not finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "command, inputs, expected, message",
        [
            ("ingest", tray_sum_overflow, 0, None),
            (
                "workload",
                tiny_flops_per_step,
                EXIT_COMPUTE,
                "table 'workloads': cci_g_per_exaflop of 'rlhf-v5e-r1'",
            ),
            ("workload", huge_on_duty_power, EXIT_COMPUTE, "run rlhf-v5e-r1: on-duty power total"),
        ],
        ids=["tray-sum", "flops-per-step-underflow", "on-duty-power-sum"],
    )
    def test_sum_beyond_float_range_exits_without_traceback(
        self, tmp_path, capsys, command, inputs, expected, message
    ):
        # in process, an OverflowError or ZeroDivisionError would propagate out of main and fail the test
        cfg_path, out = write_config(tmp_path, **inputs(tmp_path)), tmp_path / "out"
        code, _, err = run_cli(capsys, command, "--config", str(cfg_path), "-o", str(out))
        assert code == expected, err
        assert "Traceback" not in err and "OverflowError" not in err and "ZeroDivisionError" not in err
        if message is not None:
            assert err.splitlines() == [NOT_FINITE.format(message)]
        if command == "ingest":  # the row is rejected, and the tables are the demo's
            log = (out / "rejections.csv").read_text().splitlines()
            assert log[1:] == [f"244,bad number: tray_power_w '{TRAY_SUM_OVERFLOW}'"]
            assert run_cli(capsys, "cci", "--config", str(cfg_path)) == run_cli(capsys, "cci")

    def test_bucket_count_of_1e308_runs(self, tmp_path, capsys):
        # ingest makes a cell only for a bucket some row fills, so a vast scheme costs nothing
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(config_json(buckets="1e308"))
        code, out, err = run_cli(capsys, "weight", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert code == 0, err
        assert (tmp_path / "out" / "weighting.csv").exists()

    def test_unknown_config_keys_are_named(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(config_json(workload_pu="1.5", incomplete_runs='{"accept": [], "rejct": []}'))
        proc = run_cli_process("workload", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert "unknown keys: 'workload_pu', 'incomplete_runs.rejct'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

    def test_unknown_factors_keys_are_named(self, tmp_path):
        factors = json.loads((bundled_config_path().parent / "factors.json").read_text())
        factors["year"] = 2023
        factors["standards"]["market"]["cfe_impac"] = factors["standards"]["market"].pop("cfe_impact")
        factors["scenarios"]["cfe90"]["apply_manufacturing_reductions"] = True
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors))
        cfg_path = write_config(tmp_path, factors=str(path))
        proc = run_cli_process("cci", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_CONFIG, proc.stderr
        assert (
            "unknown keys: 'year', 'standards.market.cfe_impac', 'scenarios.cfe90.apply_manufacturing_reductions'"
            in proc.stderr
        )
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()

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

    def test_scenario_standard_prices_at_its_operations_factor(self, capsys):
        code, out, err = run_cli(capsys, "cci", "--standard", "scenario:cfe90")
        assert code == 0, err
        rows = {r["platform"]: r for r in csv.DictReader(io.StringIO(out))}
        assert len(rows) == 5
        for r in rows.values():
            assert r["standard"] == "scenario:cfe90"
            assert float(r["operational_cci"]) == float(r["kwh_per_exaflop"]) * 31.0
        assert float(rows["v4"]["operational_cci"]) == pytest.approx(59.83, rel=1e-12)

    def test_unknown_scenario_standard(self, capsys):
        code, out, err = run_cli(capsys, "cci", "--standard", "scenario:nope")
        assert code == EXIT_CONFIG
        assert "unknown scenario 'nope'" in err


def renamed(mapping, key, new):
    """`mapping` with `key` renamed to `new` (a misspelling), in place."""
    mapping[new] = mapping.pop(key)


def synth_scenario(**fields):
    """A one-generation synth scenario file; `generation` replaces the generation's fields."""
    generation = fields.pop("generation", {"name": "g", "machines": 1})
    return json.dumps({"seed": 3, "intervals": 4, "generations": [generation], **fields}).encode()


def synth_manifest(edit):
    doc = fleetcarbon.synth.build_manifest(fleetcarbon.synth.default_scenario())
    edit(doc)
    return json.dumps(doc).encode()


class TestMalformedDocuments:
    """A wrongly typed value or a misspelt key, at every level of every document,
    exits 2 (3 for the run manifest) naming it, before any output is written."""

    @pytest.mark.parametrize(
        "key,content,command,expected,named",
        [
            (
                "platforms",
                bundled_json(
                    "platforms.json", lambda d: d["v4i"].update(power_readings_include_rectifier="false")
                ),
                "cci",
                EXIT_CONFIG,
                "v4i.power_readings_include_rectifier: 'false' is not true or false",
            ),
            (
                "factors",
                bundled_json(
                    "factors.json", lambda d: d["scenarios"]["cfe90"].update(apply_manufacturing_reduction="false")
                ),
                "scenario",
                EXIT_CONFIG,
                "scenarios.cfe90.apply_manufacturing_reduction: 'false' is not true or false",
            ),
            (
                "run_manifest",
                bundled_manifest(complete="false"),
                "workload",
                EXIT_INGEST,
                "runs[0].complete: 'false' is not true or false",
            ),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: d["v4i"].update(chips_per_machine=8.9)),
                "lca",
                EXIT_CONFIG,
                "v4i.chips_per_machine: 8.9 is not a whole number",
            ),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: d["v4i"].update(chips_per_machine=int(HUGE_INT))),
                "lca",
                EXIT_CONFIG,
                "v4i.chips_per_machine: int too large to convert to float",
            ),
            ("config", config_json(buckets="2.5"), "weight", EXIT_CONFIG, "buckets: 2.5 is not a whole number"),
            (
                "config",
                config_json(buckets="1" + "0" * 30),
                "weight",
                EXIT_CONFIG,
                f"bucket count {10**30} must be >= 1 and held exactly by a float",
            ),
            (
                "config",
                config_json(incomplete_runs='{"accept": "sft-v5e-r1"}'),
                "workload",
                EXIT_CONFIG,
                "incomplete_runs.accept: 'sft-v5e-r1' is not a list",
            ),
            (
                "run_manifest",
                bundled_manifest(machines="m0"),
                "workload",
                EXIT_INGEST,
                "runs[0].machines: 'm0' is not a list",
            ),
            ("run_manifest", b'{"runs": "rlhf-v5e-r1"}', "workload", EXIT_INGEST, "runs: 'rlhf-v5e-r1' is not a list"),
            ("run_manifest", b"{}", "workload", EXIT_INGEST, "KeyError('runs')"),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: renamed(d["v4i"], "lifetime_years", "lifetime_year")),
                "lca",
                EXIT_CONFIG,
                "unknown keys: 'v4i.lifetime_year'",
            ),
            (
                "inventories",
                bundled_json(
                    "inventories.json", lambda d: renamed(d["v4i"], "accelerator_trays", "accelerator_tray")
                ),
                "lca",
                EXIT_CONFIG,
                "unknown keys: 'v4i.accelerator_tray'",
            ),
            (
                "inventories",
                bundled_json(
                    "inventories.json", lambda d: renamed(d["v4i"]["components"][0], "kg_co2e", "kg_co2")
                ),
                "lca",
                EXIT_CONFIG,
                "unknown keys: 'v4i.components[0].kg_co2'",
            ),
            (
                "inventories",
                bundled_json("inventories.json", lambda d: renamed(d["v4i"]["transport_legs"][0], "mode", "mod")),
                "lca",
                EXIT_CONFIG,
                "unknown keys: 'v4i.transport_legs[0].mod'",
            ),
            (
                "run_manifest",
                bundled_json(
                    "workload_manifest.json", lambda d: renamed(d["runs"][0], "flops_per_step", "flops_per_stp")
                ),
                "workload",
                EXIT_INGEST,
                "unknown keys: 'runs[0].flops_per_stp'",
            ),
            (
                "platforms",
                synth_manifest(lambda d: renamed(d, "total_rows", "total_row")),
                "ingest",
                EXIT_CONFIG,
                "unknown keys: 'total_row'",
            ),
            (
                "scenario",
                synth_scenario(generation={"name": "g", "machines": 1, "chip_per_machine": 8}),
                "synth",
                EXIT_CONFIG,
                "unknown keys: 'generations[0].chip_per_machine'",
            ),
            ("scenario", synth_scenario(interval=5), "synth", EXIT_CONFIG, "unknown keys: 'interval'"),
            ("scenario", synth_scenario(intervals=-5), "synth", EXIT_CONFIG, "intervals -5 must be >= 1"),
            (
                "scenario",
                synth_scenario(generation={"name": "g", "machines": -3}),
                "synth",
                EXIT_CONFIG,
                "g: machines, chips_per_machine and trays_per_machine must be >= 1",
            ),
            (
                "scenario",
                synth_scenario(generation={"name": "g", "machines": 1, "chips_per_machine": 0}),
                "synth",
                EXIT_CONFIG,
                "g: machines, chips_per_machine and trays_per_machine must be >= 1",
            ),
            (
                "scenario",
                synth_scenario(start="9999-12-31T00:00:00Z", intervals=400),
                "synth",
                EXIT_CONFIG,
                "the last of 400 intervals from 9999-12-31T00:00:00Z is past 9999-12-31",
            ),
            (
                "config",
                config_json(workload_factor_g_per_kwh="-1"),
                "workload",
                EXIT_CONFIG,
                "workload_factor_g_per_kwh -1.0 must be >= 0",
            ),
            ("config", config_json(telemetry='""'), "cci", EXIT_CONFIG, "telemetry: '' is not a path"),
            ("config", config_json(run_manifest='""'), "cci", EXIT_CONFIG, "run_manifest: '' is not a path"),
            ("config", config_json(incomplete_runs="[]"), "workload", EXIT_CONFIG, "incomplete_runs: [] is not a JSON object"),
            (
                "factors",
                bundled_json(
                    "factors.json",
                    lambda d: d["scenarios"]["cfe90-manufacturing"].update(manufacturing_baseline_factor=0),
                ),
                "scenario",
                EXIT_CONFIG,
                "cfe90-manufacturing: manufacturing_baseline_factor must be > 0",
            ),
            (
                "factors",
                bundled_json(
                    "factors.json",
                    lambda d: d["scenarios"]["cfe90-manufacturing"].update(manufacturing_target_factor=-5000),
                ),
                "scenario",
                EXIT_CONFIG,
                "cfe90-manufacturing: negative manufacturing_target_factor",
            ),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: d["v4i"].update(lifetime_years=1000)),
                "lca",
                EXIT_CONFIG,
                "v4i: lifetime_years must lie in (0, 30]",
            ),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: d["v4i"].update(trays_per_machine=0)),
                "cci",
                EXIT_CONFIG,
                "v4i: trays_per_machine must be >= 1",
            ),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: d["v4i"].update(trays_per_machine=-2)),
                "cci",
                EXIT_CONFIG,
                "v4i: trays_per_machine must be >= 1",
            ),
            (
                "inventories",
                bundled_json("inventories.json", lambda d: d["v4i"].update(dc_construction_kg_per_chip=-5000)),
                "cci",
                EXIT_CONFIG,
                "v4i: dc_construction_kg_per_chip must be >= 0",
            ),
            (
                "inventories",
                bundled_json("inventories.json", lambda d: d["v4i"]["transport_legs"][0].update(kg_co2e=-28)),
                "lca",
                EXIT_CONFIG,
                "factory to airport: kg_co2e must be >= 0",
            ),
            (
                "factors",
                bundled_json("factors.json", lambda d: d["standards"]["market"].update(label="market-based")),
                "cci",
                EXIT_CONFIG,
                "unknown keys: 'standards.market.label'",
            ),
            (
                "inventories",
                bundled_json("inventories.json", lambda d: d["v4i"].update(notes="free text")),
                "lca",
                EXIT_CONFIG,
                "unknown keys: 'v4i.notes'",
            ),
            (
                "platforms",
                bundled_json("platforms.json", lambda d: d["v4i"].update(platform_id="v4i")),
                "lca",
                EXIT_CONFIG,
                "unknown keys: 'v4i.platform_id'",
            ),
            (
                "run_manifest",
                bundled_json(
                    "workload_manifest.json",
                    lambda d: (
                        renamed(d["runs"][0], "flops_per_step", "flops_per_stp"),
                        renamed(d["runs"][2], "step_time_s", "step_time"),
                    ),
                ),
                "workload",
                EXIT_INGEST,
                "unknown keys: 'runs[0].flops_per_stp', 'runs[2].step_time'",
            ),
            (
                "config",
                config_json(incomplete_runs='{"accept": ["sft-v5e-r1"], "reject": ["sft-v5e-r1"]}'),
                "workload",
                EXIT_CONFIG,
                "incomplete_runs: 'sft-v5e-r1' both accepted and rejected",
            ),
            (
                "run_manifest",
                bundled_json("workload_manifest.json", lambda d: d["runs"].append(d["runs"][0])),
                "workload",
                EXIT_INGEST,
                "run rlhf-v5e-r1 listed twice",
            ),
            (
                "run_manifest",
                bundled_json("workload_manifest.json", lambda d: d["runs"][1]["machines"].append("rlhf-v6e-r1-m07")),
                "workload",
                EXIT_INGEST,
                "run rlhf-v6e-r1: machine 'rlhf-v6e-r1-m07' listed twice",
            ),
            (
                "run_intervals",
                UNLISTED_MACHINE_INTERVALS,
                "workload",
                EXIT_INGEST,
                "bad interval record at line 1537: machine 'not-in-pod' is not listed in run 'rlhf-v5e-r1'",
            ),
            (
                "run_intervals",
                bundled_intervals(power_w="true"),
                "workload",
                EXIT_INGEST,
                "bad interval record at line 1: True is not a number",
            ),
            (
                "run_intervals",
                bundled_intervals(interval_start='"2024-10-01T00:00:07Z"'),
                "workload",
                EXIT_INGEST,
                "bad interval record at line 1: timestamp '2024-10-01T00:00:07Z' off the 5-minute grid",
            ),
            (
                "scenario",
                synth_scenario(start="2024-10-01T00:00:07Z"),
                "synth",
                EXIT_CONFIG,
                "timestamp '2024-10-01T00:00:07Z' off the 5-minute grid",
            ),
        ],
        ids=[
            "catalog-rectifier-flag-text",
            "factors-reduction-flag-text",
            "run-complete-flag-text",
            "catalog-chips-fraction",
            "catalog-chips-beyond-float-range",
            "config-buckets-fraction",
            "config-buckets-inexact",
            "config-accept-text",
            "run-machines-text",
            "run-manifest-runs-text",
            "run-manifest-no-runs",
            "catalog-entry-key",
            "inventory-key",
            "inventory-component-key",
            "inventory-transport-leg-key",
            "run-key",
            "synth-manifest-catalog-key",
            "synth-generation-key",
            "synth-scenario-key",
            "synth-negative-intervals",
            "synth-negative-machines",
            "synth-zero-chips",
            "synth-last-interval-past-9999",
            "config-workload-factor-negative",
            "config-telemetry-empty",
            "config-run-manifest-empty",
            "config-incomplete-runs-list",
            "factors-zero-manufacturing-baseline",
            "factors-negative-manufacturing-target",
            "catalog-lifetime-beyond-bound",
            "catalog-zero-trays",
            "catalog-negative-trays",
            "inventory-negative-dc-construction",
            "inventory-transport-leg-negative",
            "factors-standard-label",
            "inventory-notes",
            "catalog-entry-platform-id",
            "run-keys-in-two-runs",
            "config-run-accepted-and-rejected",
            "run-listed-twice",
            "run-machine-listed-twice",
            "run-interval-unlisted-machine",
            "run-interval-power-true",
            "run-interval-off-grid",
            "synth-start-off-grid",
        ],
    )
    def test_malformed_document_is_named(self, tmp_path, capsys, key, content, command, expected, named):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        if key == "scenario":
            argv = ("--scenario-file", str(bad))
        else:
            argv = ("--config", str(bad if key == "config" else write_config(tmp_path, **{key: str(bad)})))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, command, *argv, "-o", str(out))
        assert code == expected, err
        assert named in err
        assert not out.exists()


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

    def test_ingests_under_the_config_bucket_count(self, tmp_path, capsys, monkeypatch):
        schemes, real = [], cli.ingest

        def ingest(path, catalog, scheme=None):
            schemes.append(scheme)
            return real(path, catalog, scheme)

        monkeypatch.setattr(cli, "ingest", ingest)
        config = write_config(tmp_path, buckets=7)
        code, out, err = run_cli(capsys, "ingest", "-o", str(tmp_path), "--config", str(config))
        assert code == 0
        assert schemes == [BucketScheme(7)]

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

    def test_timestamp_without_time_zone_logged(self, tmp_path, capsys):
        lines = (bundled_config_path().parent / "fleet_telemetry.csv").read_text().splitlines()
        first = lines[1].split(",")
        assert first[2].endswith("Z")
        first[2] = first[2][:-1]
        lines[1] = ",".join(first)
        telemetry = tmp_path / "telemetry.csv"
        telemetry.write_text("\n".join(lines) + "\n")
        code, out, err = run_cli(capsys, "ingest", "-o", str(tmp_path), "--telemetry", str(telemetry))
        assert code == 0
        summary = json.loads(out)
        assert (summary["rows_accepted"], summary["rows_rejected"]) == (242, 1)
        assert summary["complete_samples"] == 239
        log = read_csv_table(tmp_path / "rejections.csv")
        assert [(r["row"], r["reason"]) for r in log] == [
            ("1", f"bad timestamp {first[2]!r}: no time zone")
        ]

    @pytest.mark.parametrize("suffix", [".csv", ".jsonl"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, suffix):
        """Telemetry that starts with a UTF-8 byte-order mark reads as the same file without it."""
        with open(demo_config()["telemetry"], encoding="utf-8", newline="") as fh:
            text = fh.read() if suffix == ".csv" else "".join(json.dumps(row) + "\n" for row in csv.DictReader(fh))
        results = []
        for name, data in (("plain", text.encode()), ("marked", codecs.BOM_UTF8 + text.encode())):
            telemetry, out = tmp_path / f"{name}{suffix}", tmp_path / name
            telemetry.write_bytes(data)
            code, summary, _ = run_cli(capsys, "ingest", "-o", str(out), "--telemetry", str(telemetry))
            summary = json.loads(summary)
            del summary["rejection_log"]
            cci = run_cli(capsys, "cci", "--telemetry", str(telemetry))
            results.append((code, summary, (out / "rejections.csv").read_text(), cci))
        assert results[0] == results[1]
        assert results[0][1]["rows_accepted"] == 243 and results[0][3][0] == 0

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


    def test_zero_scenario_total_is_compute_error(self, tmp_path):
        # clean operations and a fully cleaned fab leave nothing to divide by
        factors = json.loads((bundled_config_path().parent / "factors.json").read_text())
        factors["scenarios"]["cfe90-manufacturing"].update(
            operations_factor_g_per_kwh=0, manufacturing_electricity_share=1, manufacturing_target_factor=0
        )
        path = tmp_path / "factors.json"
        path.write_text(json.dumps(factors))
        cfg_path = write_config(tmp_path, factors=str(path))
        proc = run_cli_process("scenario", "--config", str(cfg_path), "-o", str(tmp_path / "out"))
        assert proc.returncode == EXIT_COMPUTE, proc.stderr
        assert "scenario 'cfe90-manufacturing': platform 'v4' has a zero total CCI" in proc.stderr
        assert "Traceback" not in proc.stderr


def huge_power_telemetry(tmp_path):
    """The bundled telemetry plus one v4 row whose power overflows every per-ExaFLOP figure."""
    telemetry = tmp_path / "telemetry.csv"
    bundled = (bundled_config_path().parent / "fleet_telemetry.csv").read_text()
    telemetry.write_text(bundled + "huge-m0,v4,2024-10-01T00:00:00Z,1e307;1e307,0.55,1\n")
    return {"telemetry": str(telemetry)}


def huge_inventory_value(tmp_path):
    """The bundled inventories with one v4i accelerator component at 1e308 kg, times two trays."""
    path = tmp_path / "inventories.json"
    path.write_bytes(bundled_json("inventories.json", lambda d: d["v4i"]["components"][0].update(kg_co2e=1e308)))
    return {"inventories": str(path)}


NOT_FINITE = "computation error: {} is not finite"


class TestNonFiniteResults:
    """A value whose results leave float range exits 4 with one stderr line and writes nothing."""

    @staticmethod
    def check(capsys, tmp_path, command, overrides, expected):
        out, cfg_path = tmp_path / "out", write_config(tmp_path, **overrides)
        code, stdout, err = run_cli(capsys, command, "--config", str(cfg_path), "-o", str(out))
        assert code == EXIT_COMPUTE, err
        assert err.splitlines() == [NOT_FINITE.format(expected)]
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("cci", "table 'platforms': kwh_per_exaflop of 'v4'"),
            ("report", "table 'platforms': kwh_per_exaflop of 'v4'"),
            ("scenario", "table 'scenarios': baseline_total_cci of 'cfe90'"),
            ("weight", "table 'weighting': weighted_value of 'v4'"),
        ],
        ids=["cci", "report", "scenario", "weight"],
    )
    def test_huge_telemetry_power(self, tmp_path, capsys, command, expected):
        self.check(capsys, tmp_path, command, huge_power_telemetry(tmp_path), expected)

    @pytest.mark.parametrize("command", ["lca", "report", "cci", "scenario"])
    def test_huge_inventory_value(self, tmp_path, capsys, command):
        self.check(capsys, tmp_path, command, huge_inventory_value(tmp_path), "platform 'v4i': manufacturing total")

    @pytest.mark.parametrize(
        "command, expected",
        [
            ("report", "table 'platforms': lifetime_kwh_per_chip of 'v4'"),
            ("cci", "table 'platforms': lifetime_kwh_per_chip of 'v4'"),
            ("scenario", "table 'scenarios': baseline_total_cci of 'cfe90'"),
            ("weight", "table 'weighting': weighted_value of 'v4'"),
        ],
        ids=["report", "cci", "scenario", "weight"],
    )
    def test_huge_pue(self, tmp_path, capsys, command, expected):
        self.check(capsys, tmp_path, command, {"pue": 1e308}, expected)

    def test_huge_workload_factor(self, tmp_path, capsys):
        overrides = {"workload_factor_g_per_kwh": 1e308}
        self.check(capsys, tmp_path, "workload", overrides, "table 'workloads': cci_g_per_exaflop of 'rlhf-v5e-r1'")

    @pytest.mark.parametrize(
        "generations, expected",
        [
            ([{"name": "g", "machines": 1, "flops_per_s_at_full_duty": 1e308}], "g: an interval's FLOPs"),
            ([{"name": "g", "machines": 1, "active_power_w": 1e308}], "g: energy per ExaFLOP at full duty"),
            (
                [
                    {"name": "g", "machines": 1, "active_power_w": 1e-300, "flops_per_s_at_full_duty": 1e20},
                    {"name": "h", "machines": 1, "active_power_w": 1e10, "flops_per_s_at_full_duty": 1e-10},
                ],
                "energy per ExaFLOP against the baseline's",
            ),
        ],
        ids=["flops-rate", "active-power", "ratio-vs-baseline"],
    )
    def test_huge_synth_rate(self, tmp_path, capsys, generations, expected):
        scenario, out = tmp_path / "scenario.json", tmp_path / "out"
        scenario.write_text(json.dumps({"generations": generations}))
        code, stdout, err = run_cli(capsys, "synth", "--scenario-file", str(scenario), "--seed", "3", "-o", str(out))
        assert code == EXIT_CONFIG, err
        assert len(err.splitlines()) == 1 and err.startswith("configuration error: bad synth scenario")
        assert expected in err
        assert stdout == ""
        assert not out.exists()


class TestSynthCommand:
    def test_only_synth_imports_the_generator(self):
        """Importing the CLI leaves out the modules that only synth, weight, workload or lca run."""
        src = str(Path(fleetcarbon.__file__).resolve().parent.parent)
        modules = ("fleetcarbon.synth", "fleetcarbon.weighting", "fleetcarbon.workload", "fractions")
        probe = f"import sys, fleetcarbon.cli; print([m for m in {modules!r} if m in sys.modules])"
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src)
        )
        assert result.stdout == "[]\n"

    @pytest.mark.parametrize(
        "content",
        [
            b"[]",
            b'{"generations": [{"name": "g", "machines": 1, "trays_per_machine": 0}]}',
            b'{"generations": [{"name": "g", "machines": 1, "duty_a": -1}]}',
            DEEP,
            b'{"start": "x", "generations": [{"name": "g", "machines": 1}]}',
            b'{"start": "2024-10-01T00:00:00", "generations": [{"name": "g", "machines": 1}]}',
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
            "start-without-time-zone",
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

    def test_config_flags_are_refused(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--config", "x", "-o", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config x" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        for key in ("run_manifest", "run_intervals"):
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
