import csv
import io
import itertools
import json
import math
import operator
import random
import sys
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fleetcarbon.config import bundled_data_dir
from fleetcarbon.errors import ComputationError, IngestError
from fleetcarbon.telemetry import (
    _CELL_BUFFER,
    REASON_MISSING_POWER,
    REASON_MISSING_UTILIZATION,
    TELEMETRY_COLUMNS,
    BucketScheme,
    PlatformSpec,
    _csv_rows,
    aggregate,
    exclude_incomplete,
    ingest,
    lifetime_energy_per_chip,
)

T0 = datetime(2024, 10, 1, tzinfo=timezone.utc)


def spec(pid="p1", chips=8, trays=3, include_rectifier=True, overhead=0.04):
    return PlatformSpec(
        platform_id=pid,
        chips_per_machine=chips,
        trays_per_machine=trays,
        rectifier_overhead=overhead,
        power_readings_include_rectifier=include_rectifier,
    )


def record(power=(400.0, 400.0, 400.0), duty=0.5, flops=10**15, minute=0, pid="p1", machine="m0"):
    """One telemetry record dict; None (or no tray readings) leaves a field missing."""
    return {
        "machine_id": machine,
        "platform_id": pid,
        "interval_start": (T0 + timedelta(minutes=minute)).isoformat(),
        "tray_power_w": list(power),
        "duty_cycle": duty,
        "flops": flops,
    }


def dataset(records, **spec_fields):
    """Ingest records that are all valid for one platform p1."""
    ds = ingest(records, {"p1": spec(**spec_fields)})
    assert ds.rejections == ()
    return ds


CSV_HEADER = "machine_id,platform_id,interval_start,tray_power_w,duty_cycle,flops\n"


def csv_source(*rows):
    return csv.DictReader(io.StringIO(CSV_HEADER + "".join(r + "\n" for r in rows)))


class TestIngest:
    def test_well_formed_rows(self):
        ds = ingest(
            csv_source(
                "m0,p1,2024-10-01T00:00:00Z,300;442;442,0.5,1000",
                "m1,p1,2024-10-01T00:05:00Z,300;442;442,0.6,2000",
                "m2,p1,2024-10-01T00:10:00Z,300;442;442,0.7,3000",
            ),
            {"p1": spec()},
        )
        assert len(ds) == 3
        assert ds.complete_rows == 3
        assert ds.rejections == ()

    def test_duty_cycle_out_of_range_rejected(self):
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:00Z,300,1.3,1000"), {"p1": spec()})
        assert len(ds) == 0
        assert len(ds.rejections) == 1
        assert "range violation" in ds.rejections[0].reason

    def test_unknown_platform_rejected(self):
        ds = ingest(csv_source("m0,nope,2024-10-01T00:00:00Z,300,0.5,1000"), {"p1": spec()})
        assert [r.reason for r in ds.rejections] == ["unknown platform_id 'nope'"]

    def test_bad_timestamp_rejected(self):
        # the last three are valid ISO dates whose UTC instant, or the interval it
        # snaps to, falls outside years 1-9999
        for ts in ("not-a-time", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00", "9999-12-31T23:59:58Z"):
            ds = ingest(csv_source(f"m0,p1,{ts},300,0.5,1000"), {"p1": spec()})
            assert len(ds) == 0
            assert len(ds.rejections) == 1
            assert "bad timestamp" in ds.rejections[0].reason

    def test_timestamp_without_time_zone_rejected(self):
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:00,300;442;442,0.5,1000"), {"p1": spec()})
        assert len(ds) == 0
        assert [r.reason for r in ds.rejections] == [
            "bad timestamp '2024-10-01T00:00:00': no time zone"
        ]

    def test_off_grid_timestamp_snapped_within_tolerance(self):
        # the second row repeats the first one's snapped interval
        ds = ingest(
            csv_source(
                "m0,p1,2024-10-01T00:00:03Z,300;442;442,0.5,1000",
                "m0,p1,2024-10-01T00:00:00Z,300;442;442,0.5,1000",
            ),
            {"p1": spec()},
        )
        assert len(ds) == 1
        assert [r.reason for r in ds.rejections] == [
            "duplicate row for machine 'm0' at 2024-10-01T00:00:00+00:00"
        ]

    def test_off_grid_timestamp_beyond_tolerance_rejected(self):
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:07Z,300,0.5,1000"), {"p1": spec()})
        assert len(ds) == 0
        assert "off the 5-minute grid" in ds.rejections[0].reason

    def test_bad_number_rejected_with_row(self):
        ds = ingest(
            csv_source(
                "m0,p1,2024-10-01T00:00:00Z,300;442;442,0.5,1000",
                "m1,p1,2024-10-01T00:05:00Z,abc,0.5,1000",
            ),
            {"p1": spec()},
        )
        assert len(ds) == 1
        assert ds.rejections[0].row == 2

    # the last: each partial sum left to right rounds to float max, the exact sum is beyond it
    @pytest.mark.parametrize(
        "power", ["nan;100", "inf;1", "300;-inf", "1e400", "1e308;1e308", "1.7976931348623157e308;9e291;9e291"]
    )
    def test_non_finite_tray_power_rejected(self, power):
        catalog = {"p1": spec(trays=power.count(";") + 1)}  # the readings' number is right
        ds = ingest(csv_source(f"m0,p1,2024-10-01T00:00:00Z,{power},0.5,1000"), catalog)
        assert len(ds) == 0
        assert [r.reason for r in ds.rejections] == [f"bad number: tray_power_w {power!r}"]

    @pytest.mark.parametrize("flops", ["1e400", "inf", "-inf", "nan", "1" + "0" * 400])
    def test_non_finite_flops_rejected(self, flops):
        ds = ingest(csv_source(f"m0,p1,2024-10-01T00:00:00Z,300,0.5,{flops}"), {"p1": spec(trays=1)})
        assert len(ds) == 0
        assert [r.reason for r in ds.rejections] == [f"bad number: flops {flops!r}"]

    def test_non_finite_json_numbers_rejected(self):
        records = [
            {"machine_id": "m0", "platform_id": "p1", "interval_start": "2024-10-01T00:00:00Z",
             "tray_power_w": [float("nan"), 100.0], "duty_cycle": 0.5, "flops": 1000},
            {"machine_id": "m1", "platform_id": "p1", "interval_start": "2024-10-01T00:00:00Z",
             "tray_power_w": [300.0], "duty_cycle": 0.5, "flops": float("inf")},
        ]
        ds = ingest(records, {"p1": spec()})
        assert len(ds) == 0
        assert [r.reason.split(":")[0] for r in ds.rejections] == ["bad number", "bad number"]

    @pytest.mark.parametrize("field", ["duty_cycle", "tray_power_w"])
    def test_json_integer_beyond_float_range_rejected(self, field):
        record = {"machine_id": "m0", "platform_id": "p1", "interval_start": "2024-10-01T00:00:00Z",
                  "tray_power_w": [300.0], "duty_cycle": 0.5, "flops": 1000}
        record[field] = 10**400 if field == "duty_cycle" else [10**400]
        ds = ingest([record], {"p1": spec()})
        assert len(ds) == 0
        assert ds.rejections[0].reason.startswith(f"bad number: {field}")

    @pytest.mark.parametrize("field", ["tray_power_w", "duty_cycle", "flops"])
    @pytest.mark.parametrize("suffix", [".jsonl", None], ids=["json-lines", "dicts"])
    def test_boolean_is_not_a_number(self, tmp_path, field, suffix):
        record = {"machine_id": "m0", "platform_id": "p1", "interval_start": "2024-10-01T00:00:00Z",
                  "tray_power_w": "300;442", "duty_cycle": "0.5", "flops": "1000"}
        record[field] = [True, True] if field == "tray_power_w" else True
        source = [record]
        if suffix:
            source = tmp_path / f"t{suffix}"
            source.write_text(json.dumps(record) + "\n", encoding="utf-8")
        ds = ingest(source, {"p1": spec(trays=2)})
        assert len(ds) == 0
        assert len(ds.rejections) == 1
        assert ds.rejections[0].reason.startswith(f"bad number: {field}")

    def test_row_without_machine_id_rejected(self):
        unnamed = record(minute=15)
        del unnamed["machine_id"]
        rows = [
            record(machine=""),
            record(machine=" ", minute=5),
            record(machine=None, minute=10),
            unnamed,
            record(machine="", duty=2.0),  # the key is checked after the numbers
            record(machine=0),  # a number is a name
        ]
        ds = ingest(rows, {"p1": spec()})
        assert len(ds) == 1
        assert [r.reason for r in ds.rejections] == ["missing machine_id"] * 4 + [
            "range violation: duty_cycle 2.0 outside [0, 1]"
        ]

    @pytest.mark.parametrize("suffix", ["", ".jsonl"], ids=["dicts", "json-lines"])
    def test_container_or_boolean_machine_id_is_rejected_not_keyed_by_its_repr(self, tmp_path, suffix):
        """A later row named by the text of such a value is no duplicate of it."""
        rows = []
        for minute, (value, text) in enumerate([(["x"], "['x']"), ({"id": "m1"}, "{'id': 'm1'}"), (True, "True")]):
            rows += [record(machine=value, minute=5 * minute), record(machine=text, minute=5 * minute)]
        source = rows
        if suffix:
            source = tmp_path / f"t{suffix}"
            source.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        ds = ingest(source, {"p1": spec()})
        assert [(r.row, r.reason) for r in ds.rejections] == [
            (1, "bad machine_id ['x']"),
            (3, "bad machine_id {'id': 'm1'}"),
            (5, "bad machine_id True"),
        ]
        assert len(ds) == 3

    @pytest.mark.parametrize("pid", [0], ids=["zero"])
    def test_platform_id_given_as_a_json_value_keys_as_its_text(self, pid, platforms):
        row = dict(record(), platform_id=pid)
        ds = ingest([row], {str(pid): spec(pid=str(pid))})
        assert ds.rejections == () and ds.accepted == {str(pid): 1}
        assert [r.reason for r in ingest([row], platforms).rejections] == [f"unknown platform_id {str(pid)!r}"]

    def test_malformed_json_line_rejected_and_later_rows_read(self, tmp_path):
        good = (
            '{"machine_id": "%s", "platform_id": "p1", "interval_start": '
            '"2024-10-01T00:00:00Z", "tray_power_w": [300, 442, 442], "duty_cycle": 0.5, "flops": 1}'
        )
        path = tmp_path / "t.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text("\n".join([good % "m0", "{oops", "", "[1, 2]", deep, good % "m1"]) + "\n")
        ds = ingest(path, {"p1": spec()})
        assert len(ds) == 2
        assert [r.row for r in ds.rejections] == [2, 3, 4]
        assert ds.rejections[0].reason.startswith("bad JSON: ")
        assert ds.rejections[1].reason == "record is not an object"
        assert ds.rejections[2].reason.startswith("bad JSON: ")

    @pytest.mark.parametrize(
        "content",
        [b"machine_id,platform_id\n\xff\xfe,p1\n", CSV_HEADER.encode() + b"m0," + b"x" * 131_073 + b"\n"],
        ids=["invalid-utf8", "oversized-field"],
    )
    def test_unreadable_file_is_ingest_error(self, tmp_path, content):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        with pytest.raises(IngestError, match="cannot read telemetry"):
            ingest(path, {"p1": spec()})

    @given(
        rows=st.lists(
            st.dictionaries(
                st.sampled_from(TELEMETRY_COLUMNS),
                st.one_of(
                    st.text(),
                    st.sampled_from(["p1", "2024-10-01T00:05:00Z", "0.5", "300;442", "1000", ""]),
                ),
            ),
            max_size=20,
        )
    )
    # the first st.text() draw in a fresh checkout builds hypothesis's Unicode table
    @settings(suppress_health_check=[HealthCheck.too_slow])
    @example(rows=[{"platform_id": "p1", "interval_start": "0001-01-01T00:00:00+01:00"}])
    @example(rows=[{"platform_id": "p1", "interval_start": "9999-12-31T23:59:59-01:00"}])
    def test_every_row_ends_in_exactly_one_place(self, rows):
        ds = ingest(rows, {"p1": spec(trays=2)})
        assert len(ds) + len(ds.rejections) == len(rows)
        assert ds.complete_rows + sum(ds.exclusions.values()) == len(ds)

    def test_empty_input_is_empty_dataset(self):
        ds = ingest(csv_source(), {"p1": spec()})
        assert len(ds) == 0 and ds.rejections == () and ds.samples == {}

    def test_missing_fields_kept_as_incomplete(self):
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:00Z,300;442;442,,"), {"p1": spec()})
        assert len(ds) == 1 and ds.platform_ids() == ("p1",)
        assert ds.samples == {}
        assert ds.exclusions == {REASON_MISSING_UTILIZATION: 1}

    def test_jsonl_source(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"machine_id": "m0", "platform_id": "p1", "interval_start": '
            '"2024-10-01T00:00:00Z", "tray_power_w": [300, 442, 442], "duty_cycle": 0.5, '
            '"flops": 12345678901234567890}\n'
        )
        ds = ingest(path, {"p1": spec()})
        assert len(ds) == 1
        assert ds.samples["p1", 4].flops == 12345678901234567890  # exact large count

    def test_fractional_flops_round_to_the_nearest_count(self):
        # text power and duty beside FLOP counts that are not plain integer text
        rows = [
            dict(record(machine=f"m{i}"), tray_power_w="300;442;442", duty_cycle="0.5", flops=flops)
            for i, flops in enumerate((1.5, "1e3", 7))
        ]
        ds = ingest(rows, {"p1": spec()})
        assert ds.rejections == ()
        assert ds.samples["p1", 4].flops == 2 + 1000 + 7

    def test_cells_follow_the_bucket_scheme(self):
        rows = [record(duty=d, minute=5 * i) for i, d in enumerate((0.0, 0.1, 0.15, 0.5, 1.0))]
        ds = ingest(rows, {"p1": spec()}, BucketScheme(4))
        assert {key: cell.count for key, cell in ds.samples.items()} == {
            ("p1", 0): 3,
            ("p1", 1): 1,
            ("p1", 3): 1,
        }

    def test_cells_of_a_vast_scheme_are_the_filled_buckets_in_order(self):
        scheme = BucketScheme(2**100)
        rows = [record(duty=d, minute=5 * i) for i, d in enumerate((1.0, 0.0, 0.5, 1.0))]
        ds = ingest(rows, {"p1": spec()}, scheme)
        assert [(key, cell.count) for key, cell in ds.samples.items()] == [
            (("p1", 0), 1),
            (("p1", 2**99 - 1), 1),
            (("p1", 2**100 - 1), 2),
        ]

    def test_synthetic_fixture_count_matches_generator_bookkeeping(self, tmp_path):
        # generator emits its own row count in the manifest; ingest must agree
        from fleetcarbon.synth import GenerationSpec, SynthScenario, write_fleet

        scenario = SynthScenario(
            seed=99,
            intervals=125,
            generations=(
                GenerationSpec(name="ga", machines=40),
                GenerationSpec(name="gb", machines=40),
            ),
        )
        manifest = write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
        assert manifest["total_rows"] == 10_000
        catalog = {name: spec(pid=name) for name in ("ga", "gb")}
        ds = ingest(tmp_path / "t.csv", catalog)
        assert len(ds) == manifest["total_rows"]
        assert ds.rejections == ()


class TestTrayCount:
    @pytest.mark.parametrize("power", [(300.0, 442.0), (300.0, 442.0, 442.0, 1.0)], ids=["short", "long"])
    def test_wrong_number_of_readings_rejected(self, power):
        ds = ingest([record(power=power)], {"p1": spec(trays=3)})
        assert len(ds) == 0
        assert [r.reason for r in ds.rejections] == [
            f"tray count: {len(power)} readings, platform 'p1' has 3 trays"
        ]

    def test_earlier_checks_keep_precedence(self):
        rows = [
            record(power=(300.0,), duty=1.5),
            record(power=(300.0,), flops="x"),
            record(power=(-1.0,)),
        ]
        ds = ingest(rows, {"p1": spec(trays=3)})
        assert [r.reason.split(":")[0] for r in ds.rejections] == [
            "range violation",
            "bad number",
            "range violation",
        ]

    def test_empty_tray_list_is_missing_power(self):
        ds = ingest([record(power=())], {"p1": spec(trays=3)})
        assert ds.rejections == ()
        assert ds.exclusions == {REASON_MISSING_POWER: 1}


class TestDuplicates:
    def test_repeated_bundled_row_rejected_and_first_kept(self, tmp_path, platforms):
        lines = (bundled_data_dir() / "fleet_telemetry.csv").read_text(encoding="utf-8").splitlines()
        path = tmp_path / "t.csv"
        path.write_text("\n".join(lines + [lines[1]]) + "\n", encoding="utf-8")
        ds = ingest(path, platforms)
        assert ds.complete_rows == 240 and len(ds) == 243
        assert [(r.row, r.reason) for r in ds.rejections] == [
            (244, "duplicate row for machine 'v4i-m000' at 2024-10-01T00:00:00+00:00")
        ]

    def test_same_snapped_interval_is_a_duplicate_after_all_other_checks(self):
        rows = [
            record(machine="m0", minute=0),
            record(machine="m0", minute=0, duty=2.0),  # its own range violation comes first
            {**record(machine="m0", duty=0.9), "interval_start": "2024-10-01T00:00:03Z"},
            record(machine="m1", minute=0),  # another machine, same interval
            record(machine="m0", minute=0, duty=None),  # incomplete rows are keyed too
        ]
        ds = ingest(rows, {"p1": spec()})
        assert len(ds) == 2
        assert [r.reason.split(" for ")[0] for r in ds.rejections] == [
            "range violation: duty_cycle 2.0 outside [0, 1]",
            "duplicate row",
            "duplicate row",
        ]
        assert ds.samples["p1", 4].count == 2


def _validation_rows():
    """Raw string rows, some broken in each way the checks know, plus short rows."""
    return [
        ["m0", "p1", "2024-10-01T00:00:00Z", "300;442;442", "0.5", "1000"],
        ["m1", "p1", "2024-10-01T00:00:00Z", "300;442;442", "0.5"],  # short: no flops
        ["m2", "p1", "2024-10-01T00:00:00Z"],  # short: no numbers at all
        ["m3", "p9", "2024-10-01T00:00:00Z", "300;442;442", "0.5", "1000"],
        ["m4", "p1", "", "300;442;442", "0.5", "1000"],
        ["m5", "p1", "yesterday", "300;442;442", "0.5", "1000"],
        ["m6", "p1", "2024-10-01T00:00:07Z", "300;442;442", "0.5", "1000"],
        ["m7", "p1", "2024-10-01T00:00:00Z", "300;x;442", "0.5", "1000"],
        ["m8", "p1", "2024-10-01T00:00:00Z", "300;442;442", "half", "1000"],
        ["m9", "p1", "2024-10-01T00:00:00Z", "300;442;442", "0.5", "1e400"],
        ["m10", "p1", "2024-10-01T00:00:00Z", "300;442;442", "1.5", "1000"],
        ["m11", "p1", "2024-10-01T00:00:00Z", "300;-442;442", "0.5", "1000"],
        ["m12", "p1", "2024-10-01T00:00:00Z", "300;442", "0.5", "1000"],
        ["m0", "p1", "2024-10-01T00:00:02Z", "300;442;442", "0.5", "1000"],
        ["m13", "p1", "2024-10-01T00:05:00Z", "", "0.5", "1000"],
    ]


def _three_sources(tmp_path, header, rows):
    """The same rows as a CSV file, a JSON-lines file and a list of dicts.

    A dict lacks every key the CSV header lacks or the row is too short
    for, as csv.DictReader's records would.
    """
    records = [{k: v for k, v in zip(header, row)} for row in rows]
    csv_path = tmp_path / "t.csv"
    with csv_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    jsonl_path = tmp_path / "t.jsonl"
    jsonl_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return csv_path, jsonl_path, records


def _summary(ds):
    cells = {key: (c.count, math.fsum(c.power), math.fsum(c.duty), c.flops) for key, c in ds.samples.items()}
    return ds.rejections, len(ds), ds.exclusions, cells


@pytest.mark.parametrize(
    "header",
    [list(TELEMETRY_COLUMNS), [c for c in TELEMETRY_COLUMNS if c != "duty_cycle"]],
    ids=["full-header", "header-without-duty"],
)
def test_csv_json_lines_and_dicts_get_the_same_verdicts(tmp_path, header):
    keep = [TELEMETRY_COLUMNS.index(name) for name in header]
    rows = [[row[i] for i in keep if i < len(row)] for row in _validation_rows()]
    rows.append(["m14"] + rows[0][1:] + ["extra", "fields"])  # longer than the header
    csv_path, jsonl_path, records = _three_sources(tmp_path, header, rows)
    catalog = {"p1": spec()}
    from_csv = _summary(ingest(csv_path, catalog))
    assert from_csv == _summary(ingest(jsonl_path, catalog))
    assert from_csv == _summary(ingest(records, catalog))
    with csv_path.open(encoding="utf-8", newline="") as fh:
        assert from_csv == _summary(ingest(csv.DictReader(fh), catalog))
    if "duty_cycle" in header:
        assert [r.row for r in from_csv[0]] == list(range(4, 15))
        assert from_csv[0][-1].reason.startswith("duplicate row for machine 'm0'")
    assert len(from_csv[0]) + from_csv[1] == len(rows)


def reference_csv_rows(fh):
    """Each data row's TELEMETRY_COLUMNS fields as csv.reader reads them: the reading `_csv_rows` must give."""
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        return
    width = len(header)
    index = {name: i for i, name in enumerate(header)}
    columns = [index.get(name, width) for name in TELEMETRY_COLUMNS]
    missing = width in columns
    need = max(columns) + 1
    pick = operator.itemgetter(*columns)
    for row in reader:
        if not row:
            continue
        if missing:
            del row[width:]
        if len(row) < need:
            row.extend([None] * (need - len(row)))
        yield pick(row)


# plain fields: no quote, comma or line end (a NUL still sends its line to csv)
PLAIN_FIELDS = st.one_of(
    st.sampled_from(
        ["m0", "m1", "p1", "p9", "2024-10-01T00:00:00Z", "2024-10-01T00:05:00Z", "300;442;442", "300;442", "0.5",
         "1000", "", " "]
    ),
    st.text(alphabet=" ;.-m01\x00", max_size=6),
)
RAW_FIELDS = st.text(alphabet=',"\r\n\x00 ;.m01', max_size=6)  # any of csv's special characters, quoted or not
QUOTED_FIELDS = RAW_FIELDS.map(lambda text: '"' + text.replace('"', '""') + '"')


@st.composite
def telemetry_csv_texts(draw):
    """A header (canonical, or with names missing, repeated or unknown), then plain, blank, whitespace-only,
    quoted and raw lines of any length, each with its own line end; the last line end may be missing."""
    header = list(TELEMETRY_COLUMNS)
    if draw(st.booleans()):
        header = draw(st.lists(st.sampled_from(TELEMETRY_COLUMNS + ("extra", "")), max_size=8))
    lines = [",".join(header)]
    for kind in draw(st.lists(st.sampled_from(["plain"] * 4 + ["blank", "space", "quoted", "raw"]), max_size=12)):
        if kind == "blank":
            lines.append("")
        elif kind == "space":
            lines.append(draw(st.sampled_from([" ", "\t", "  "])))
        else:
            fields = draw(st.lists(PLAIN_FIELDS if kind != "raw" else RAW_FIELDS, min_size=1, max_size=9))
            if kind == "quoted":  # a quoted field, multi-line or not, after any number of plain lines
                fields.insert(draw(st.integers(0, len(fields))), draw(QUOTED_FIELDS))
            lines.append(",".join(fields))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _csv_reading(rows_of, text):
    """The field tuples `rows_of` reads from `text`, or the csv.Error it raises."""
    try:
        return [tuple(row) for row in rows_of(io.StringIO(text, newline=""))]
    except csv.Error as exc:
        return f"csv.Error: {exc}"


@given(text=telemetry_csv_texts(), limit=st.sampled_from([None, 16, 40]))
@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@example(text=CSV_HEADER + "m0,p1,2024-10-01T00:00:00Z,300;442;442,0.5,1000\r\n" * 3 + 'm1,"p\n1"\n', limit=None)
@example(text=CSV_HEADER.replace("\n", "\r") + "m0,p1,2024-10-01T00:00:00Z,300;442;442,0.5,1000\r", limit=None)
def test_split_lines_read_as_the_csv_module_reads_them(tmp_path_factory, text, limit):
    """`_csv_rows` gives exactly the csv.reader reading, and ingesting the file gives the ledger of those rows.

    A `limit` lowers the csv field size limit: longer lines go to csv, and a longer field (such as a
    timestamp, under 16) is csv's error.
    """
    path = tmp_path_factory.getbasetemp() / "split.csv"
    catalog = {"p1": spec()}
    default = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        expected = _csv_reading(reference_csv_rows, text)
        assert _csv_reading(_csv_rows, text) == expected
        path.write_text(text, encoding="utf-8", newline="")
        if isinstance(expected, str):
            with pytest.raises(IngestError, match="cannot read telemetry"):
                ingest(path, catalog)
        else:
            ds = ingest(path, catalog)
            reference = ingest([dict(zip(TELEMETRY_COLUMNS, row)) for row in expected], catalog)
            assert (_summary(ds), ds.accepted) == (_summary(reference), reference.accepted)
    finally:
        csv.field_size_limit(default)


BAD = object()  # a value that does not parse as its field
FLOPS_MAX = int(sys.float_info.max)
# (raw value, what it reads as): tray readings, a duty cycle and a FLOP count; () and None are missing
TRAY_TEXT = [
    ("300;442;442", (300.0, 442.0, 442.0)), ("300;442", (300.0, 442.0)), ("", ()), (" ", ()),
    ("300;;442;442", (300.0, 442.0, 442.0)), (" 300; 442 ;442 ", (300.0, 442.0, 442.0)),
    ("-0.0;442;442", (-0.0, 442.0, 442.0)), ("300;-442;442", (300.0, -442.0, 442.0)),
    ("-1;-2;3", (-1.0, -2.0, 3.0)), ("1e-5;1;2", (1e-5, 1.0, 2.0)), ("nan;1;1", BAD), ("-inf;1;1", BAD),
    ("1e308;1e308;1", BAD), ("1.7976931348623157e308;9e291;9e291", BAD), ("300;x;442", BAD),
]
TRAY_JSON = [
    ([300.0, 442.0, 442.0], (300.0, 442.0, 442.0)), ([300, 442, 442], (300.0, 442.0, 442.0)),
    (["300", "442", "442"], (300.0, 442.0, 442.0)), ([1, 2], (1.0, 2.0)), ([-1.0, 2, 3], (-1.0, 2.0, 3.0)),
    ([], ()), (None, ()), ([True, True, True], BAD), ([math.nan, 1, 1], BAD), ([10**400, 1, 1], BAD),
    ([sys.float_info.max, 9e291, 9e291], BAD),
    (300, BAD), (["", "1", "1"], BAD), ({"300": 1, "442": 2, "441": 3}, BAD),
]
DUTY_TEXT = [
    ("0.5", 0.5), ("0", 0.0), ("1", 1.0), (" 0.5 ", 0.5), ("1.0001", 1.0001), ("-0.1", -0.1),
    ("nan", math.nan), ("1e400", math.inf), ("", None), (" ", BAD), ("half", BAD),
]
DUTY_JSON = [
    (0.5, 0.5), (0, 0.0), (1, 1.0), ("0.5", 0.5), (2.0, 2.0), (math.nan, math.nan), (None, None),
    (True, BAD), (10**400, BAD), ([0.5], BAD),
]
FLOPS_TEXT = [
    ("1000", 1000), (" 7 ", 7), ("1e3", 1000), ("1.5", 2), ("2.5", 2), ("-0", 0), ("-5", -5),
    (str(FLOPS_MAX), FLOPS_MAX), ("", None), (str(FLOPS_MAX + 1), BAD), ("1" + "0" * 400, BAD),
    ("1e400", BAD), ("nan", BAD), ("inf", BAD), ("x", BAD),
]
FLOPS_JSON = [
    (1000, 1000), (1.5, 2), (-0.5, 0), (-1, -1), (1e308, int(1e308)), (FLOPS_MAX, FLOPS_MAX), ("1000", 1000),
    (None, None), (True, BAD), (math.nan, BAD), (10**400, BAD), (FLOPS_MAX + 1, BAD), ([1], BAD),
]


# (raw machine_id, the key it reads as): a JSON number names its machine by its text, None is missing
MACHINE_JSON = [
    (7, "7"), (2.5, "2.5"), (" m-pad ", "m-pad"), (None, None),
    (True, BAD), (False, BAD), (["x"], BAD), ({"id": "m1"}, BAD), ([], BAD),
]
# (raw platform_id, the id it reads as), by the same rule; the catalog holds p1 alone
PLATFORM_JSON = [
    ("p1", "p1"), (" p1 ", "p1"), (7, "7"), (None, ""),
    (True, BAD), (False, BAD), (["p1"], BAD), ({"id": "p1"}, BAD), ([], BAD),
]
STAMP = "2024-10-01T00:00:00Z"
# (raw interval_start, the text it reads as), by the same rule
STAMP_JSON = [
    (STAMP, STAMP), (7, "7"), (2.5, "2.5"), (None, ""),
    (True, BAD), (False, BAD), ([STAMP], BAD), ({"t": STAMP}, BAD), ([], BAD),
]
COMPLETE = (("300;442;442", (300.0, 442.0, 442.0)), ("0.5", 0.5), ("1000", 1000))


def _expected_verdict(tray, duty, flops, machine, platform, stamp, trays_per_machine):
    """A grid row's rejection reason, or None, in ingest's documented order.

    The platform (a bad one, then one the catalog lacks), the timestamp (a
    bad value, a missing one, then text that is not one), the numbers'
    syntax in column order, then the ranges (duty cycle, FLOPs, the first
    negative tray reading), then the tray count, then the key: a machine_id
    that is neither text nor a number, then a missing one.
    """
    if platform[1] is BAD:
        return f"bad platform_id {platform[0]!r}"
    if platform[1] != "p1":
        return f"unknown platform_id {platform[1]!r}"
    if stamp[1] is BAD:
        return f"bad interval_start {stamp[0]!r}"
    if not stamp[1]:
        return "missing interval_start"
    if stamp[1] != STAMP:
        return f"bad timestamp {stamp[1]!r}: Invalid isoformat string: {stamp[1]!r}"
    for name, (raw, value) in zip(("tray_power_w", "duty_cycle", "flops"), (tray, duty, flops)):
        if value is BAD:
            return f"bad number: {name} {raw!r}"
    readings, cycle, count = tray[1], duty[1], flops[1]
    if cycle is not None and not 0.0 <= cycle <= 1.0:
        return f"range violation: duty_cycle {cycle} outside [0, 1]"
    if count is not None and count < 0:
        return f"range violation: flops {count} is negative"
    negative = [w for w in readings if w < 0]
    if negative:
        return f"range violation: tray power {negative[0]} is negative"
    if readings and len(readings) != trays_per_machine:
        return f"tray count: {len(readings)} readings, platform 'p1' has {trays_per_machine} trays"
    if machine[1] is BAD:
        return f"bad machine_id {machine[0]!r}"
    if machine[1] is None:
        return "missing machine_id"
    return None


def _grid(trays, duties, flops, machines=(), platforms=(), stamps=()):
    """(tray, duty, flops, machine, platform, stamp) entries, each a (raw value, what it reads as) pair:
    every combination of the numbers under its own machine, then each of `machines`, `platforms` and
    `stamps` on a complete row, the last two under machines of their own."""
    entries = [(*n, None, ("p1", "p1"), (STAMP, STAMP)) for n in itertools.product(trays, duties, flops)]
    entries += [(*COMPLETE, m, ("p1", "p1"), (STAMP, STAMP)) for m in machines]
    entries += [(*COMPLETE, None, p, (STAMP, STAMP)) for p in platforms]
    entries += [(*COMPLETE, None, ("p1", "p1"), ts) for ts in stamps]
    return [(t, d, f, m or (f"m{i}", f"m{i}"), p, ts) for i, (t, d, f, m, p, ts) in enumerate(entries)]


def _grid_rows(grid):
    return [
        {"machine_id": m[0], "platform_id": p[0], "interval_start": ts[0],
         "tray_power_w": t[0], "duty_cycle": d[0], "flops": f[0]}
        for t, d, f, m, p, ts in grid
    ]


def _expected_ledger(grid):
    """The rejections, exclusions and per-bucket totals the grid must give."""
    rejections, exclusions, cells = [], {}, {}
    for row_no, (t, d, f, m, p, ts) in enumerate(grid, start=1):
        reason = _expected_verdict(t, d, f, m, p, ts, trays_per_machine=3)
        if reason is not None:
            rejections.append((row_no, reason))
        elif not t[1] or d[1] is None or f[1] is None:
            missing = REASON_MISSING_UTILIZATION if t[1] else REASON_MISSING_POWER
            exclusions[missing] = exclusions.get(missing, 0) + 1
        else:
            cell = cells.setdefault(("p1", BucketScheme().bucket_of(d[1])), [0, [], [], 0])
            cell[0] += 1
            cell[1].append(math.fsum(t[1]))  # machine power: the readings include the rectifier
            cell[2].append(d[1])
            cell[3] += f[1]
    cells = {key: (n, math.fsum(power), math.fsum(duty), total) for key, (n, power, duty, total) in cells.items()}
    return rejections, exclusions, cells


@pytest.mark.parametrize("kind", ["csv-text", "text-dicts", "json-lines", "json-dicts"])
def test_every_field_value_gets_the_documented_verdict(tmp_path, kind):
    """Each grid row's reason, or the cell it lands in, matches a reference built from the documented order."""
    if kind in ("csv-text", "text-dicts"):
        grid = _grid(TRAY_TEXT, DUTY_TEXT, FLOPS_TEXT)
    else:  # JSON values beside text ones, in one row
        numbers = (TRAY_TEXT + TRAY_JSON, DUTY_TEXT + DUTY_JSON, FLOPS_TEXT + FLOPS_JSON)
        grid = _grid(*numbers, MACHINE_JSON, PLATFORM_JSON, STAMP_JSON)
    rows = _grid_rows(grid)
    source = rows
    if kind == "csv-text":
        source = tmp_path / "t.csv"
        with source.open("w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, TELEMETRY_COLUMNS, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    elif kind == "json-lines":
        source = tmp_path / "t.jsonl"
        source.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    ds = ingest(source, {"p1": spec(trays=3)})
    rejections, exclusions, cells = _expected_ledger(grid)
    assert [(r.row, r.reason) for r in ds.rejections] == rejections
    assert len(ds) + len(rejections) == len(rows)
    assert ds.exclusions == exclusions
    assert _summary(ds)[3] == cells


class TestExcludeIncomplete:
    def test_missing_flops_reason(self):
        ds = dataset([record(), record(flops=None, machine="m1")])
        assert len(ds) == 2 and ds.complete_rows == 1
        assert ds.exclusions == {REASON_MISSING_UTILIZATION: 1}

    def test_missing_power_reason(self):
        ds = dataset([record(power=(), machine="m1")])
        assert ds.exclusions == {REASON_MISSING_POWER: 1}
        assert ds.samples == {}

    def test_fixture_with_twenty_percent_missing(self):
        records = []
        for i in range(100):
            missing = i % 5 == 0  # 20% by construction
            records.append(record(power=() if missing else (400.0,), machine=f"m{i}", minute=5 * i))
        ds = dataset(records, trays=1)
        assert ds.complete_rows == 80
        assert ds.exclusions == {REASON_MISSING_POWER: 20}

    def test_complete_dataset_unchanged(self):
        ds = dataset([record(machine=f"m{i}", minute=5 * i) for i in range(5)])
        assert exclude_incomplete(ds) is ds

    def test_idempotent(self):
        # ingest already excluded and counted the incomplete rows
        ds = dataset([record(), record(duty=None, machine="m1"), record(power=(), machine="m2")])
        assert exclude_incomplete(exclude_incomplete(ds)) is ds
        assert ds.exclusions == {REASON_MISSING_UTILIZATION: 1, REASON_MISSING_POWER: 1}


def ingested_power(readings, **spec_fields):
    """The machine power `ingest` records for one complete row with these tray readings."""
    (cell,) = dataset([record(power=readings)], trays=len(readings), **spec_fields).samples.values()
    return math.fsum(cell.power)


class TestMachinePower:
    def test_plain_sum_when_rectifier_included(self):
        assert ingested_power((500, 400, 300)) == 1200.0

    def test_overhead_applied_when_readings_exclude_rectifier(self):
        assert ingested_power((500, 500), include_rectifier=False, overhead=0.04) == 1000.0 * 1.04

    def test_zero_tray(self):
        assert ingested_power((0.0,)) == 0.0

    @given(
        base=st.lists(st.floats(0, 1e4), min_size=1, max_size=6),
        index=st.integers(0, 5),
        bump=st.floats(0, 1e3),
    )
    def test_monotone_in_every_tray_reading(self, base, index, bump):
        index %= len(base)
        bumped = list(base)
        bumped[index] += bump
        assert ingested_power(bumped) >= ingested_power(base)


class TestAggregate:
    def test_twelve_samples_at_reference_power(self):
        # 12 machine-intervals x 1184 W = one machine-hour: 1.184 kWh
        ds = dataset([record(power=(300, 442, 442), minute=5 * i) for i in range(12)])
        w = aggregate(ds, "p1")
        assert w.power_sum_w == 12 * 1184.0
        assert w.machine_seconds == 3600.0
        assert w.mean_machine_power_w == 1184.0

    def test_single_zero_sample(self):
        w = aggregate(dataset([record(power=(0.0,), flops=0)], trays=1), "p1")
        assert w.power_sum_w == 0.0
        assert w.total_flops == 0

    def test_synthetic_month_constant_power_closed_form(self):
        # 730.5 hours at constant 2173 W
        intervals = 8766  # 730.5 h of 5-minute intervals
        ds = dataset([record(power=(2173,), minute=5 * i) for i in range(intervals)], trays=1)
        w = aggregate(ds, "p1")
        assert w.power_sum_w == 2173.0 * intervals
        assert w.machine_seconds == 730.5 * 3600
        assert w.mean_machine_power_w == 2173.0

    def test_empty_window_is_error(self):
        ds = ingest([record(duty=None)], {"p1": spec(), "p2": spec(pid="p2")})
        for pid in ("p1", "p2"):  # only an incomplete row, and no rows at all
            with pytest.raises(ComputationError, match="empty window"):
                aggregate(ds, pid)

    def test_unknown_platform_is_error(self):
        # no cell is keyed by a platform outside the catalog
        with pytest.raises(ComputationError, match="empty window for platform 'p9'"):
            aggregate(dataset([record()]), "p9")

    @given(
        rows=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**21)), min_size=2, max_size=40),
        split=st.integers(0, 2**32),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    def test_energy_additivity_over_partition_exact(self, rows, split, seed):
        # integer watt readings keep the power sums exact, so splitting the
        # rows into two ingests cannot change any total, whatever the row order
        records = [
            record(power=(watts,), flops=flops, minute=5 * i, machine=f"m{i}")
            for i, (watts, flops) in enumerate(rows)
        ]
        whole = aggregate(dataset(records, trays=1), "p1")
        random.Random(seed).shuffle(records)
        assert aggregate(dataset(records, trays=1), "p1") == whole
        split = 1 + split % (len(records) - 1)  # both parts non-empty
        left = aggregate(dataset(records[:split], trays=1), "p1")
        right = aggregate(dataset(records[split:], trays=1), "p1")
        assert left.sample_count + right.sample_count == whole.sample_count
        assert left.total_flops + right.total_flops == whole.total_flops
        assert left.power_sum_w + right.power_sum_w == whole.power_sum_w

    def test_incomplete_samples_skipped_as_if_filtered(self):
        complete = record(power=(300, 442, 442), minute=0)
        incomplete = [
            record(power=(300, 442, 442), flops=None, minute=5),  # no FLOP counter
            record(power=(300, 442, 442), duty=None, minute=10),  # no duty cycle
            record(power=(), minute=15),  # no power
        ]
        assert aggregate(dataset([complete] + incomplete), "p1") == aggregate(dataset([complete]), "p1")
        assert aggregate(dataset([complete] + incomplete), "p1").sample_count == 1

    def test_combination_order_independent(self):
        rows = [record(power=(100 + i,), minute=5 * i) for i in range(4)]
        parts = [aggregate(dataset([row], trays=1), "p1") for row in rows]
        forward = aggregate(dataset(rows, trays=1), "p1")
        backward = aggregate(dataset(rows[::-1], trays=1), "p1")
        assert forward == backward
        assert forward.power_sum_w == sum(p.power_sum_w for p in reversed(parts)) == 406.0
        assert forward.machine_seconds == sum(p.machine_seconds for p in parts)

    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["p1", "p2"]),
                st.lists(st.floats(0.0, 1e6), min_size=2, max_size=2),
                st.floats(0.0, 1.0),
                st.integers(0, 10**21),
            ),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(0, 2**32),
    )
    @settings(max_examples=60)
    def test_shuffled_rows_give_windows_equal_to_an_fsum_oracle(self, rows, seed):
        catalog = {"p1": spec(trays=2), "p2": spec(pid="p2", trays=2, include_rectifier=False, overhead=0.037)}
        records = [
            {"machine_id": f"m{i}", "platform_id": pid, "interval_start": T0.isoformat(),
             "tray_power_w": trays, "duty_cycle": duty, "flops": flops}
            for i, (pid, trays, duty, flops) in enumerate(rows)
        ]
        random.Random(seed).shuffle(records)
        ds = ingest(records, catalog, BucketScheme(7))
        assert ds.rejections == ()
        for pid, s in catalog.items():
            mine = [r for r in records if r["platform_id"] == pid]
            if not mine:
                continue
            powers = [math.fsum(r["tray_power_w"]) for r in mine]
            if not s.power_readings_include_rectifier:
                powers = [p * (1.0 + s.rectifier_overhead) for p in powers]
            w = aggregate(ds, pid)
            assert w.sample_count == len(mine)
            assert w.power_sum_w == math.fsum(powers)
            assert w.total_flops == sum(r["flops"] for r in mine)

    def test_compacted_cells_keep_exact_sums_in_any_row_order(self):
        # several times the buffer, so the one cell is compacted a few times
        rng = random.Random(8)
        rows = [
            (10 ** rng.uniform(-30, 300), 10 ** rng.uniform(-30, 0), rng.randrange(10**21))
            for _ in range(5 * _CELL_BUFFER + 17)
        ]
        exact_power = float(sum(Fraction(power) for power, _, _ in rows))
        exact_duty = float(sum(Fraction(duty) for _, duty, _ in rows))
        for _ in range(3):
            rng.shuffle(rows)
            records = [
                {"machine_id": f"m{i}", "platform_id": "p1", "interval_start": T0.isoformat(),
                 "tray_power_w": repr(power), "duty_cycle": repr(duty), "flops": str(flops)}
                for i, (power, duty, flops) in enumerate(rows)
            ]
            ds = ingest(records, {"p1": spec(trays=1)}, BucketScheme(1))
            assert ds.rejections == ()
            (cell,) = ds.samples.values()
            assert len(cell.power) <= _CELL_BUFFER and len(cell.duty) <= _CELL_BUFFER
            assert math.fsum(cell.power) == exact_power
            assert math.fsum(cell.duty) == exact_duty
            assert cell.count == len(rows)
            assert cell.flops == sum(flops for _, _, flops in rows)


class TestLifetimeEnergy:
    def test_reference_platform_value(self):
        # 1184 W / 8 chips * 52596 h * 1.10 / 1000 = 8562.6288 kWh
        w = aggregate(dataset([record(power=(300, 442, 442))]), "p1")
        expected = 1184 / 8 * 52596 * 1.10 / 1000
        got = lifetime_energy_per_chip(w, spec(), pue=1.10)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(8562.63, rel=1e-4)

    def test_unit_passthrough(self):
        # PUE 1, 1000 W, 1 chip, 1 year -> 8766 kWh
        w = aggregate(dataset([record(power=(1000.0,))], trays=1), "p1")
        one_chip = PlatformSpec(platform_id="p1", chips_per_machine=1, trays_per_machine=1, lifetime_years=1)
        assert lifetime_energy_per_chip(w, one_chip, pue=1.0) == pytest.approx(8766.0)

    def test_newest_platform_value(self):
        w = aggregate(dataset([record(power=(401, 886, 886))]), "p1")
        got = lifetime_energy_per_chip(w, spec(), pue=1.10)
        assert got == pytest.approx(2173 / 8 * 52596 * 1.10 / 1000, rel=1e-12)

    def test_zero_chips_rejected_at_construction(self):
        with pytest.raises(ValueError, match="chips_per_machine"):
            PlatformSpec(platform_id="p1", chips_per_machine=0, trays_per_machine=1)

    def test_constant_power_kwh_matches_product(self):
        # for constant-power data lifetime kWh must equal power * lifetime hours / 1000 tightly
        ds = dataset([record(power=(777.0,), minute=5 * i) for i in range(48)], trays=1)
        w = aggregate(ds, "p1")
        one_chip = PlatformSpec(platform_id="p1", chips_per_machine=1, trays_per_machine=1, lifetime_years=1)
        assert lifetime_energy_per_chip(w, one_chip, pue=1.0) == pytest.approx(777.0 * 8766 / 1000.0, rel=1e-12)


def test_sample_invariants_enforced():
    rows = [
        record(duty=-0.1),
        record(flops=-1, machine="m1"),
        record(power=(300.0, -5.0, 1.0), machine="m2"),
    ]
    text_rows = [  # the same numbers written as text, as a CSV file gives them
        dict(r, tray_power_w=";".join(map(str, r["tray_power_w"])), duty_cycle=str(r["duty_cycle"]),
             flops=str(r["flops"]))
        for r in rows
    ]
    for source in (rows, text_rows):
        ds = ingest(source, {"p1": spec()})
        assert len(ds) == 0
        assert [r.reason for r in ds.rejections] == [
            "range violation: duty_cycle -0.1 outside [0, 1]",
            "range violation: flops -1 is negative",
            "range violation: tray power -5.0 is negative",
        ]
