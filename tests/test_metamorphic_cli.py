"""Metamorphic properties of the CLI on the bundled demo telemetry.

Each relation edits the demo's telemetry rows in a way that must not change
any table: permuting the rows, appending a copy of every row, appending
rows of an unknown platform, renaming machines one-to-one, and shifting
every timestamp by a multiple of the 300 s interval. `cci`, `report`,
`scenario` and `weight` must then write the same bytes, in CSV and in JSON,
as on the demo itself. `ingest` must report the same summary, except that
`rows_rejected` rises by exactly the number of rows each appended copy or
unknown-platform row added. Every command runs in process through
`cli.main`, and the examples are derandomized.
"""

import contextlib
import csv
import io
import json
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcarbon.cli import main
from fleetcarbon.config import load_config

COMMANDS = ("cci", "report", "scenario", "weight")
FORMATS = ("csv", "json")
OUT = "<OUT>"


def demo_rows() -> tuple[list[str], list[list[str]]]:
    with load_config().telemetry.open(newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    return header, rows


HEADER, ROWS = demo_rows()
MACHINE, PLATFORM, STAMP = (HEADER.index(name) for name in ("machine_id", "platform_id", "interval_start"))


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
