import csv
import io
import json
import math
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fleetcarbon.config import bundled_data_dir
from fleetcarbon.errors import ComputationError, IngestError
from fleetcarbon.telemetry import (
    REASON_MISSING_POWER,
    REASON_MISSING_UTILIZATION,
    TELEMETRY_COLUMNS,
    BucketScheme,
    PlatformSpec,
    aggregate,
    exclude_incomplete,
    ingest,
    lifetime_energy_per_chip,
    machine_power,
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
        # the last two are valid ISO dates whose UTC instant falls outside years 1-9999
        for ts in ("not-a-time", "0001-01-01T00:00:00+01:00", "9999-12-31T23:59:59-01:00"):
            ds = ingest(csv_source(f"m0,p1,{ts},300,0.5,1000"), {"p1": spec()})
            assert len(ds) == 0
            assert len(ds.rejections) == 1
            assert "bad timestamp" in ds.rejections[0].reason

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

    @pytest.mark.parametrize("power", ["nan;100", "inf;1", "300;-inf", "1e400", "1e308;1e308"])
    def test_non_finite_tray_power_rejected(self, power):
        ds = ingest(csv_source(f"m0,p1,2024-10-01T00:00:00Z,{power},0.5,1000"), {"p1": spec()})
        assert len(ds) == 0
        assert [r.reason for r in ds.rejections] == [f"bad number: tray_power_w {power!r}"]

    @pytest.mark.parametrize("flops", ["1e400", "inf", "-inf", "nan", "1" + "0" * 400])
    def test_non_finite_flops_rejected(self, flops):
        ds = ingest(csv_source(f"m0,p1,2024-10-01T00:00:00Z,300,0.5,{flops}"), {"p1": spec()})
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

    def test_cells_follow_the_bucket_scheme(self):
        rows = [record(duty=d, minute=5 * i) for i, d in enumerate((0.0, 0.1, 0.15, 0.5, 1.0))]
        ds = ingest(rows, {"p1": spec()}, BucketScheme(4))
        assert ds.scheme == BucketScheme(4)
        assert {key: cell.count for key, cell in ds.samples.items()} == {
            ("p1", 0): 3,
            ("p1", 1): 1,
            ("p1", 3): 1,
        }

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


class TestMachinePower:
    def test_plain_sum_when_rectifier_included(self):
        assert machine_power((500, 400, 300), spec()) == 1200.0

    def test_overhead_applied_when_readings_exclude_rectifier(self):
        s = spec(include_rectifier=False, overhead=0.04)
        assert machine_power((500, 500), s) == pytest.approx(1040.0)

    def test_zero_tray(self):
        assert machine_power((0.0,), spec()) == 0.0

    def test_no_tray_readings_is_error(self):
        with pytest.raises(ComputationError, match="no power data"):
            machine_power((), spec())

    @given(
        base=st.lists(st.floats(0, 1e4), min_size=1, max_size=6),
        index=st.integers(0, 5),
        bump=st.floats(0, 1e3),
    )
    def test_monotone_in_every_tray_reading(self, base, index, bump):
        index %= len(base)
        bumped = list(base)
        bumped[index] += bump
        assert machine_power(bumped, spec()) >= machine_power(base, spec())


class TestAggregate:
    def test_twelve_samples_at_reference_power(self):
        # 12 machine-intervals x 1184 W = one machine-hour: 1.184 kWh
        ds = dataset([record(power=(300, 442, 442), minute=5 * i) for i in range(12)])
        w = aggregate(ds, "p1")
        assert w.total_energy_kwh == pytest.approx(1.184, rel=1e-12)
        assert w.mean_machine_power_w == pytest.approx(1184.0)

    def test_single_zero_sample(self):
        w = aggregate(dataset([record(power=(0.0,), flops=0)], trays=1), "p1")
        assert w.total_energy_kwh == 0.0
        assert w.total_flops == 0

    def test_synthetic_month_constant_power_closed_form(self):
        # 730.5 hours at constant 2173 W: energy = 2173 * 730.5 / 1000 kWh
        intervals = 8766  # 730.5 h of 5-minute intervals
        ds = dataset([record(power=(2173,), minute=5 * i) for i in range(intervals)], trays=1)
        w = aggregate(ds, "p1")
        assert w.total_energy_kwh == pytest.approx(2173 * 730.5 / 1000.0, rel=1e-9)

    def test_empty_window_is_error(self):
        ds = ingest([record(duty=None)], {"p1": spec(), "p2": spec(pid="p2")})
        for pid in ("p1", "p2"):  # only an incomplete row, and no rows at all
            with pytest.raises(ComputationError, match="empty window"):
                aggregate(ds, pid)

    def test_unknown_platform_is_error(self):
        with pytest.raises(ComputationError, match="not in catalog"):
            aggregate(dataset([record()]), "p9")

    def test_energy_additivity_over_partition_exact(self):
        # integer watt readings keep the power sums exact, so splitting the
        # rows into two ingests cannot change the total energy at all
        records = [
            record(power=(simple,), minute=5 * i, machine=f"m{i}")
            for i, simple in enumerate([173, 811, 999, 1401, 57, 2173, 640, 88])
        ]
        whole = aggregate(dataset(records, trays=1), "p1")
        left = aggregate(dataset(records[:4], trays=1), "p1")
        right = aggregate(dataset(records[4:], trays=1), "p1")
        combined = left.combine(right)
        assert combined.total_energy_kwh == whole.total_energy_kwh
        assert combined.total_flops == whole.total_flops
        assert combined.sample_count == whole.sample_count

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
        parts = [aggregate(dataset([record(power=(100 + i,), minute=5 * i)], trays=1), "p1") for i in range(4)]
        a = parts[0].combine(parts[1]).combine(parts[2]).combine(parts[3])
        b = parts[3].combine(parts[2]).combine(parts[1]).combine(parts[0])
        assert a.total_energy_kwh == b.total_energy_kwh
        assert a.duty_cycle_sum == b.duty_cycle_sum

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
            assert w.duty_cycle_sum == math.fsum(r["duty_cycle"] for r in mine)
            assert w.total_flops == sum(r["flops"] for r in mine)


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
        # for constant-power data kWh must equal power * hours / 1000 tightly
        ds = dataset([record(power=(777.0,), minute=5 * i) for i in range(48)], trays=1)
        w = aggregate(ds, "p1")
        hours = 48 / 12
        assert w.total_energy_kwh == pytest.approx(777.0 * hours / 1000.0, rel=1e-9)


def test_sample_invariants_enforced():
    rows = [
        record(duty=-0.1),
        record(flops=-1, machine="m1"),
        record(power=(300.0, -5.0, 1.0), machine="m2"),
    ]
    ds = ingest(rows, {"p1": spec()})
    assert len(ds) == 0
    assert [r.reason for r in ds.rejections] == [
        "range violation: duty_cycle -0.1 outside [0, 1]",
        "range violation: flops -1 is negative",
        "range violation: tray power -5.0 is negative",
    ]
