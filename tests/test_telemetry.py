import csv
import io
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fleetcarbon.errors import ComputationError, IngestError
from fleetcarbon.telemetry import (
    REASON_MISSING_POWER,
    REASON_MISSING_UTILIZATION,
    TELEMETRY_COLUMNS,
    FleetDataset,
    PlatformSpec,
    TelemetrySample,
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


def sample(power=(400.0, 400.0), duty=0.5, flops=10**15, minute=0, pid="p1", machine="m0"):
    return TelemetrySample(
        machine_id=machine,
        platform_id=pid,
        interval_start=T0 + timedelta(minutes=minute),
        tray_power_w=tuple(power),
        duty_cycle=duty,
        flops=flops,
    )


def dataset(samples, catalog=None):
    return FleetDataset(samples=tuple(samples), catalog=catalog or {"p1": spec()})


CSV_HEADER = "machine_id,platform_id,interval_start,tray_power_w,duty_cycle,flops\n"


def csv_source(*rows):
    return csv.DictReader(io.StringIO(CSV_HEADER + "".join(r + "\n" for r in rows)))


class TestIngest:
    def test_well_formed_rows(self):
        ds = ingest(
            csv_source(
                "m0,p1,2024-10-01T00:00:00Z,300;442,0.5,1000",
                "m1,p1,2024-10-01T00:05:00Z,300;442,0.6,2000",
                "m2,p1,2024-10-01T00:10:00Z,300;442,0.7,3000",
            ),
            {"p1": spec()},
        )
        assert len(ds) == 3
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
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:03Z,300,0.5,1000"), {"p1": spec()})
        assert len(ds) == 1
        assert ds.samples[0].interval_start == T0

    def test_off_grid_timestamp_beyond_tolerance_rejected(self):
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:07Z,300,0.5,1000"), {"p1": spec()})
        assert len(ds) == 0
        assert "off the 5-minute grid" in ds.rejections[0].reason

    def test_bad_number_rejected_with_row(self):
        ds = ingest(
            csv_source(
                "m0,p1,2024-10-01T00:00:00Z,300,0.5,1000",
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
            '{"machine_id": "m0", "platform_id": "p1", "interval_start": '
            '"2024-10-01T00:00:00Z", "tray_power_w": [300], "duty_cycle": 0.5, "flops": 1}'
        )
        path = tmp_path / "t.jsonl"
        deep = "[" * 100_000 + "]" * 100_000
        path.write_text("\n".join([good, "{oops", "", "[1, 2]", deep, good]) + "\n")
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
        ds = ingest(rows, {"p1": spec()})
        assert len(ds.samples) + len(ds.rejections) == len(rows)

    def test_empty_input_is_empty_dataset(self):
        ds = ingest(csv_source(), {"p1": spec()})
        assert len(ds) == 0 and ds.rejections == ()

    def test_missing_fields_kept_as_incomplete(self):
        ds = ingest(csv_source("m0,p1,2024-10-01T00:00:00Z,300,,"), {"p1": spec()})
        assert len(ds) == 1
        assert not ds.samples[0].complete
        assert ds.samples[0].duty_cycle is None and ds.samples[0].flops is None

    def test_jsonl_source(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"machine_id": "m0", "platform_id": "p1", "interval_start": '
            '"2024-10-01T00:00:00Z", "tray_power_w": [300, 442], "duty_cycle": 0.5, '
            '"flops": 12345678901234567890}\n'
        )
        ds = ingest(path, {"p1": spec()})
        assert len(ds) == 1
        assert ds.samples[0].flops == 12345678901234567890  # exact large count

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


class TestExcludeIncomplete:
    def test_missing_flops_reason(self):
        ds = dataset([sample(), sample(flops=None, machine="m1")])
        out = exclude_incomplete(ds)
        assert len(out) == 1
        assert out.exclusions == {REASON_MISSING_UTILIZATION: 1}

    def test_missing_power_reason(self):
        ds = dataset([sample(power=(), machine="m1")])
        out = exclude_incomplete(ds)
        assert out.exclusions == {REASON_MISSING_POWER: 1}

    def test_complete_dataset_unchanged(self):
        ds = dataset([sample(machine=f"m{i}", minute=5 * i) for i in range(5)])
        assert exclude_incomplete(ds).samples == ds.samples

    def test_fixture_with_twenty_percent_missing(self):
        samples = []
        for i in range(100):
            missing = i % 5 == 0  # 20% by construction
            samples.append(
                sample(power=() if missing else (400.0,), machine=f"m{i}", minute=5 * i)
            )
        out = exclude_incomplete(dataset(samples))
        assert len(out) == 80
        assert out.exclusions == {REASON_MISSING_POWER: 20}

    def test_idempotent(self):
        ds = dataset([sample(), sample(duty=None, machine="m1"), sample(power=(), machine="m2")])
        once = exclude_incomplete(ds)
        twice = exclude_incomplete(once)
        assert twice.samples == once.samples
        assert twice.exclusions == {}


class TestMachinePower:
    def test_plain_sum_when_rectifier_included(self):
        assert machine_power(sample(power=(500, 400, 300)), spec()) == 1200.0

    def test_overhead_applied_when_readings_exclude_rectifier(self):
        s = spec(include_rectifier=False, overhead=0.04)
        assert machine_power(sample(power=(500, 500)), s) == pytest.approx(1040.0)

    def test_zero_tray(self):
        assert machine_power(sample(power=(0.0,)), spec()) == 0.0

    def test_no_tray_readings_is_error(self):
        with pytest.raises(ComputationError, match="no power data"):
            machine_power(sample(power=()), spec())

    @given(
        base=st.lists(st.floats(0, 1e4), min_size=1, max_size=6),
        index=st.integers(0, 5),
        bump=st.floats(0, 1e3),
    )
    def test_monotone_in_every_tray_reading(self, base, index, bump):
        index %= len(base)
        bumped = list(base)
        bumped[index] += bump
        low = machine_power(sample(power=tuple(base)), spec())
        high = machine_power(sample(power=tuple(bumped)), spec())
        assert high >= low


class TestAggregate:
    def test_twelve_samples_at_reference_power(self):
        # 12 machine-intervals x 1184 W = one machine-hour: 1.184 kWh
        ds = dataset([sample(power=(300, 442, 442), minute=5 * i) for i in range(12)])
        w = aggregate(ds, "p1")
        assert w.total_energy_kwh == pytest.approx(1.184, rel=1e-12)
        assert w.mean_machine_power_w == pytest.approx(1184.0)

    def test_single_zero_sample(self):
        w = aggregate(dataset([sample(power=(0.0,), flops=0)]), "p1")
        assert w.total_energy_kwh == 0.0
        assert w.total_flops == 0

    def test_synthetic_month_constant_power_closed_form(self):
        # 730.5 hours at constant 2173 W: energy = 2173 * 730.5 / 1000 kWh
        intervals = 8766  # 730.5 h of 5-minute intervals
        ds = dataset([sample(power=(2173,), minute=5 * i) for i in range(intervals)])
        w = aggregate(ds, "p1")
        assert w.total_energy_kwh == pytest.approx(2173 * 730.5 / 1000.0, rel=1e-9)

    def test_empty_window_is_error(self):
        ds = dataset([sample()])
        with pytest.raises(ComputationError, match="empty window"):
            aggregate(ds, "p1", time_range=(T0 + timedelta(hours=2), T0 + timedelta(hours=3)))

    def test_time_range_half_open(self):
        ds = dataset([sample(minute=0), sample(minute=5), sample(minute=10)])
        w = aggregate(ds, "p1", time_range=(T0, T0 + timedelta(minutes=10)))
        assert w.sample_count == 2

    def test_energy_additivity_over_partition_exact(self):
        # integer watt readings keep the power sums exact, so partitioning
        # the time range cannot change the total energy at all
        ds = dataset(
            [
                sample(power=(simple,), minute=5 * i, machine=f"m{i}")
                for i, simple in enumerate([173, 811, 999, 1401, 57, 2173, 640, 88])
            ]
        )
        whole = aggregate(ds, "p1")
        mid = T0 + timedelta(minutes=20)
        left = aggregate(ds, "p1", time_range=(T0, mid))
        right = aggregate(ds, "p1", time_range=(mid, T0 + timedelta(hours=1)))
        combined = left.combine(right)
        assert combined.total_energy_kwh == whole.total_energy_kwh
        assert combined.total_flops == whole.total_flops
        assert combined.sample_count == whole.sample_count

    def test_incomplete_samples_skipped_as_if_filtered(self):
        ds = dataset(
            [
                sample(power=(300, 442), minute=0),
                sample(power=(300, 442), flops=None, minute=5),  # no FLOP counter
                sample(power=(300, 442), duty=None, minute=10),  # no duty cycle
                sample(power=(), minute=15),  # no power
            ]
        )
        assert aggregate(ds, "p1") == aggregate(exclude_incomplete(ds), "p1")
        assert aggregate(ds, "p1").sample_count == 1

    def test_combination_order_independent(self):
        parts = [
            aggregate(
                dataset([sample(power=(100 + i,), minute=5 * i)]),
                "p1",
            )
            for i in range(4)
        ]
        a = parts[0].combine(parts[1]).combine(parts[2]).combine(parts[3])
        b = parts[3].combine(parts[2]).combine(parts[1]).combine(parts[0])
        assert a.total_energy_kwh == b.total_energy_kwh
        assert a.duty_cycle_sum == b.duty_cycle_sum


class TestLifetimeEnergy:
    def test_reference_platform_value(self):
        # 1184 W / 8 chips * 52596 h * 1.10 / 1000 = 8562.6288 kWh
        ds = dataset([sample(power=(300, 442, 442))])
        w = aggregate(ds, "p1")
        expected = 1184 / 8 * 52596 * 1.10 / 1000
        got = lifetime_energy_per_chip(w, spec(), pue=1.10)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(8562.63, rel=1e-4)

    def test_unit_passthrough(self):
        # PUE 1, 1000 W, 1 chip, 1 year -> 8766 kWh
        ds = dataset([sample(power=(1000.0,))])
        w = aggregate(ds, "p1")
        one_chip = PlatformSpec(platform_id="p1", chips_per_machine=1, trays_per_machine=1, lifetime_years=1)
        assert lifetime_energy_per_chip(w, one_chip, pue=1.0) == pytest.approx(8766.0)

    def test_newest_platform_value(self):
        ds = dataset([sample(power=(401, 886, 886))])
        w = aggregate(ds, "p1")
        got = lifetime_energy_per_chip(w, spec(), pue=1.10)
        assert got == pytest.approx(2173 / 8 * 52596 * 1.10 / 1000, rel=1e-12)

    def test_zero_chips_rejected_at_construction(self):
        with pytest.raises(ValueError, match="chips_per_machine"):
            PlatformSpec(platform_id="p1", chips_per_machine=0, trays_per_machine=1)

    def test_constant_power_kwh_matches_product(self):
        # for constant-power data kWh must equal power * hours / 1000 tightly
        ds = dataset([sample(power=(777.0,), minute=5 * i) for i in range(48)])
        w = aggregate(ds, "p1")
        hours = 48 / 12
        assert w.total_energy_kwh == pytest.approx(777.0 * hours / 1000.0, rel=1e-9)


def test_sample_invariants_enforced():
    with pytest.raises(ValueError):
        sample(duty=-0.1)
    with pytest.raises(ValueError):
        sample(flops=-1)
    with pytest.raises(ValueError):
        sample(power=(-5.0,))
    with pytest.raises(ValueError):
        TelemetrySample(
            machine_id="m",
            platform_id="p1",
            interval_start=T0 + timedelta(seconds=13),
        )
