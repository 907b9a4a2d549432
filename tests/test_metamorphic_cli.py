"""Metamorphic properties of the CLI on the bundled demo telemetry.

Each relation edits the demo's telemetry rows in a way that must not change
any table: permuting the rows, appending a copy of every row, appending
rows of an unknown platform, renaming machines one-to-one, and shifting
every timestamp by a multiple of the 300 s interval. `cci`, `report`,
`scenario` and `weight` must then write the same bytes, in CSV and in JSON,
as on the demo itself. `ingest` must report the same summary, except that
`rows_rejected` rises by exactly the number of rows each appended copy or
unknown-platform row added.

Doubling every tray reading must double exactly every column that is
linear in power (energy and operational carbon per ExaFLOP, balanced
power) and leave the rest unchanged, rounded columns and sums aside. For
`workload`, renaming machines one-to-one in the run manifest and the
interval lines, or shuffling the interval lines, must leave its table
byte-identical, and so must moving every interval stamp by up to 5 s,
which snaps back onto its interval. The CCI tables must not depend on
the bucket count. Writing the same telemetry as JSON lines of text values
instead of CSV, on the demo and on a small `synth` fleet of the bundled
platforms, must leave every table, the `ingest` summary and its rejection
log unchanged. Every command runs in process through `cli.main`, and the
examples are derandomized.
"""

import contextlib
import csv
import io
import json
import random
from datetime import datetime, timedelta
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcarbon import synth
from fleetcarbon.cli import main
from fleetcarbon.config import bundled_config_path, load_config, load_platforms

COMMANDS = ("cci", "report", "scenario", "weight")
FORMATS = ("csv", "json")
OUT = "<OUT>"


def demo_rows() -> tuple[list[str], list[list[str]]]:
    with load_config().telemetry.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


HEADER, ROWS = demo_rows()
MACHINE, PLATFORM, STAMP, TRAYS = (
    HEADER.index(name) for name in ("machine_id", "platform_id", "interval_start", "tray_power_w")
)


def run(argv, out_dir) -> dict[str, bytes]:
    """stdout, stderr and every file `argv` writes to `out_dir`, with that path replaced by OUT."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "-o", str(out_dir)])
    assert code == 0, err.getvalue()
    texts = {"stdout": out.getvalue().encode(), "stderr": err.getvalue().encode()}
    if out_dir.exists():
        texts.update((path.name, path.read_bytes()) for path in sorted(out_dir.iterdir()))
    return {name: text.replace(str(out_dir).encode(), OUT.encode()) for name, text in texts.items()}


def outputs(telemetry, work) -> tuple[dict[str, dict[str, bytes]], dict]:
    """Each table command's output in each format, and the parsed `ingest` summary."""
    flags = () if telemetry is None else ("--telemetry", str(telemetry))
    tables = {
        f"{command}.{fmt}": run([command, "--format", fmt, *flags], work / f"{command}.{fmt}")
        for command in COMMANDS
        for fmt in FORMATS
    }
    summary = json.loads(run(["ingest", *flags], work / "ingest")["stdout"])
    return tables, summary


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    return outputs(None, tmp_path_factory.mktemp("demo"))


def permuted(draw):
    return draw(st.permutations(ROWS)), 0


def copied(draw):
    return ROWS + draw(st.permutations(ROWS)), len(ROWS)


def unknown_platform(draw):
    picked = draw(st.lists(st.sampled_from(ROWS), min_size=1, max_size=8))
    platform = draw(st.sampled_from(("v7", "v4x", "gpu-a")))
    extra = [[platform if i == PLATFORM else field for i, field in enumerate(row)] for row in picked]
    return ROWS + extra, len(extra)


def renamed(draw):
    machines = sorted({row[MACHINE] for row in ROWS})
    suffix = draw(st.sampled_from(("", "-b", "/renamed")))
    new = dict(zip(machines, (name + suffix for name in draw(st.permutations(machines)))))
    return [[new[field] if i == MACHINE else field for i, field in enumerate(row)] for row in ROWS], 0


def shifted(draw):
    shift = timedelta(seconds=300 * draw(st.integers(-10**6, 10**6).filter(bool)))

    def moved(stamp):  # every demo stamp is UTC, written with Z
        return (datetime.fromisoformat(stamp.replace("Z", "+00:00")) + shift).strftime("%Y-%m-%dT%H:%M:%SZ")

    return [[moved(field) if i == STAMP else field for i, field in enumerate(row)] for row in ROWS], 0


RELATIONS = {
    "permute-rows": permuted,
    "append-copy-of-every-row": copied,
    "append-unknown-platform-rows": unknown_platform,
    "rename-machines": renamed,
    "shift-timestamps": shifted,
}


@pytest.mark.parametrize("relation", RELATIONS)
def test_edit_leaves_every_table_unchanged(relation, demo, tmp_path_factory):
    demo_tables, demo_summary = demo
    work = tmp_path_factory.mktemp(relation)
    telemetry = work / "telemetry.csv"

    @settings(max_examples=6, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        rows, added_rejections = RELATIONS[relation](data.draw)
        with telemetry.open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([HEADER, *rows])
        tables, summary = outputs(telemetry, work)
        for case, files in demo_tables.items():
            assert tables[case] == files, case
        assert summary == dict(demo_summary, rows_rejected=demo_summary["rows_rejected"] + added_rejections)

    check()


def synth_fleet() -> synth.SynthScenario:
    """A small fleet with one generation per bundled platform, named after it and with its
    trays and chips; a tenth of one generation's rows lack duty cycle and FLOPs."""
    platforms = load_platforms(load_config().platforms)
    return synth.SynthScenario(
        seed=11,
        intervals=6,
        generations=tuple(
            synth.GenerationSpec(
                name=pid,
                machines=2,
                chips_per_machine=spec.chips_per_machine,
                trays_per_machine=spec.trays_per_machine,
                missing_rate=0.1 if pid == "v5e" else 0.0,
            )
            for pid, spec in platforms.items()
        ),
    )


@pytest.mark.parametrize("fleet", ["demo", "synth"])
def test_json_lines_give_the_same_tables_as_csv(fleet, demo, tmp_path):
    """The same rows as CSV and as JSON lines of text values give the same tables,
    `ingest` summary and rejection log."""
    if fleet == "demo":
        csv_path, expected = load_config().telemetry, demo
    else:
        csv_path = tmp_path / "fleet.csv"
        synth.write_fleet(synth_fleet(), csv_path, tmp_path / "manifest.json")
        with csv_path.open("a", encoding="utf-8") as fh:  # a rejected row and a duplicate
            fh.write("v4-m0000,v4,2024-10-01T00:00:00Z,1;2;3,0.5,1\nv4-m0000,v4,2024-10-01T00:00:00Z,1;2,0.5,1\n")
        expected = outputs(csv_path, tmp_path / "csv")
    with csv_path.open(newline="", encoding="utf-8") as fh:
        lines = [json.dumps(record) + "\n" for record in csv.DictReader(fh)]
    json_lines = tmp_path / "fleet.jsonl"
    json_lines.write_text("".join(lines), encoding="utf-8")
    assert outputs(json_lines, tmp_path / "jsonl") == expected
    csv_log, json_log = (
        run(["ingest", "--telemetry", str(path)], tmp_path / path.suffix)["rejections.csv"]
        for path in (csv_path, json_lines)
    )
    assert csv_log == json_log


# Columns that doubling every tray reading doubles exactly, and columns it moves
# by no exact rule: values rounded at build time, and sums of a doubled and an
# unchanged part. Every other column must stay as it is.
DOUBLED = {"kwh_per_exaflop", "operational_cci", "scenario_operational_cci"}
SKIPPED = {
    "mean_power_w",
    "lifetime_kwh_per_chip",
    "operational_kg_per_chip",
    "total_cci",
    "baseline_total_cci",
    "scenario_total_cci",
    "improvement_vs_self",
    "improvement_vs_baseline_platform",
}
POWER_METRICS = {"power_w", "energy_kwh_per_exaflop", "carbon_g_per_exaflop"}


def doubles(row, column) -> bool:
    if column == "g_per_exaflop":  # the stage breakdown: only its operational stage
        return row["stage"].startswith("operational_")
    if column == "weighted_value":  # the weighting table: the metrics linear in power
        return row["metric"] in POWER_METRICS
    return column in DOUBLED


def doubled(trays: str) -> str:
    """Tray readings text with each reading written as repr(2 * x); a blank field stays blank."""
    return ";".join(repr(2 * float(x)) if x.strip() else x for x in trays.split(";"))


def test_doubled_tray_readings_double_the_power_columns(demo, tmp_path):
    demo_tables, demo_summary = demo
    telemetry = tmp_path / "telemetry.csv"
    rows = [[doubled(field) if i == TRAYS else field for i, field in enumerate(row)] for row in ROWS]
    with telemetry.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows([HEADER, *rows])
    tables, summary = outputs(telemetry, tmp_path)
    assert summary == demo_summary
    for case in (f"{command}.json" for command in COMMANDS):
        assert tables[case].keys() == demo_tables[case].keys()
        for name, text in demo_tables[case].items():
            if not text.startswith(b"{"):  # `wrote` lines and stderr
                assert tables[case][name] == text, (case, name)
                continue
            before, after = json.loads(text)["rows"], json.loads(tables[case][name])["rows"]
            assert len(after) == len(before)
            for old, new in zip(before, after):
                for column in old.keys() - SKIPPED:
                    expected = 2 * old[column] if doubles(old, column) else old[column]
                    assert new[column] == expected, (case, name, column, old)


def demo_runs() -> tuple[dict, dict, list[str]]:
    """The demo config with absolute input paths, its run manifest and its interval lines."""
    config_path = bundled_config_path()
    raw = json.loads(config_path.read_text(encoding="utf-8"))
    for key in ("telemetry", "platforms", "inventories", "factors", "run_manifest", "run_intervals"):
        raw[key] = str(config_path.parent / raw[key])
    manifest = json.loads(Path(raw["run_manifest"]).read_text(encoding="utf-8"))
    return raw, manifest, Path(raw["run_intervals"]).read_text(encoding="utf-8").splitlines()


RUN_CONFIG, MANIFEST, INTERVAL_LINES = demo_runs()


def renamed_pods(draw):
    machines = sorted({m for run in MANIFEST["runs"] for m in run["machines"]})
    suffix = draw(st.sampled_from(("", "-b", "/renamed")))
    new = dict(zip(machines, (name + suffix for name in draw(st.permutations(machines)))))
    manifest = {"runs": [{**run, "machines": [new[m] for m in run["machines"]]} for run in MANIFEST["runs"]]}
    records = (json.loads(line) for line in INTERVAL_LINES)
    return manifest, [json.dumps({**rec, "machine_id": new[rec["machine_id"]]}) for rec in records]


def shuffled_intervals(draw):
    lines = list(INTERVAL_LINES)
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(lines)  # too many lines to draw a permutation
    return MANIFEST, lines


def skewed_stamps(draw):
    """Every record's interval_start moved by a drawn whole number of seconds in [-5, 5]."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def moved(stamp):  # every demo stamp is UTC, written with Z
        at = datetime.fromisoformat(stamp.replace("Z", "+00:00")) + timedelta(seconds=rng.randint(-5, 5))
        return at.isoformat()

    records = (json.loads(line) for line in INTERVAL_LINES)
    return MANIFEST, [json.dumps({**rec, "interval_start": moved(rec["interval_start"])}) for rec in records]


WORKLOAD_RELATIONS = {
    "rename-pod-machines": renamed_pods,
    "shuffle-interval-lines": shuffled_intervals,
    "skew-pod-stamps-within-5-s": skewed_stamps,
}


@pytest.mark.parametrize("relation", WORKLOAD_RELATIONS)
def test_edit_leaves_the_workload_table_unchanged(relation, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(RUN_CONFIG), encoding="utf-8")
    demo = run(["workload", "--config", str(config)], tmp_path / "demo")
    manifest, intervals = tmp_path / "manifest.json", tmp_path / "intervals.jsonl"
    config.write_text(
        json.dumps({**RUN_CONFIG, "run_manifest": str(manifest), "run_intervals": str(intervals)}), encoding="utf-8"
    )

    @settings(max_examples=6, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        edited, lines = WORKLOAD_RELATIONS[relation](data.draw)
        manifest.write_text(json.dumps(edited), encoding="utf-8")
        intervals.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        assert run(["workload", "--config", str(config)], tmp_path / "out") == demo

    check()


@pytest.mark.parametrize("buckets", [1, 2**20])
def test_bucket_count_leaves_the_cci_tables_unchanged(buckets, demo, tmp_path):
    """The demo config's 10 buckets, one bucket, or 2**20 give the same `cci`, `report` and `scenario` bytes:
    each table sums exact cells, so how the rows are split among buckets cannot show."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**RUN_CONFIG, "buckets": buckets}), encoding="utf-8")
    for command in ("cci", "report", "scenario"):
        for fmt in FORMATS:
            case = f"{command}.{fmt}"
            assert run([command, "--format", fmt, "--config", str(config)], tmp_path / case) == demo[0][case], case
