import json
import math
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcarbon.config import RunPolicy
from fleetcarbon.errors import ComputationError, IngestError
from fleetcarbon.lca import machine_manufacturing, machine_transport
from fleetcarbon.report import workload_table
from fleetcarbon.workload import (
    DEFAULT_DUTY_THRESHOLD,
    OnDutyPower,
    WorkloadRun,
    emissions_per_step,
    on_duty_power,
    read_runs,
)

LIFETIME_S = 6 * 8766 * 3600  # 189_345_600
T0 = datetime(2024, 10, 1, tzinfo=timezone.utc)


def stamp(k, skew_s=0):
    """The start of interval k, 5k minutes after 2024-10-01T00:00:00Z, moved by `skew_s` seconds."""
    return (T0 + timedelta(seconds=300 * k + skew_s)).strftime("%Y-%m-%dT%H:%M:%SZ")


def read_pod(readings, machines=("m0", "m1"), step=1.0, complete=True, pid="v5e", flops=None):
    """The run `read_runs` reads from a one-run manifest over `machines` and one record per reading.

    Each reading is (interval index, machine, power W, duty cycle), or that
    plus a skew in seconds of its stamp.
    """
    run = {"run_id": "r1", "workload": "bench", "platform_id": pid, "machines": list(machines),
           "step_time_s": step, "complete": complete}
    if flops is not None:
        run["flops_per_step"] = flops
    records = (
        {"run_id": "r1", "machine_id": machine, "interval_start": stamp(k, *skew), "power_w": power, "duty_cycle": duty}
        for k, machine, power, duty, *skew in readings
    )
    with tempfile.TemporaryDirectory() as work:
        manifest, intervals = Path(work) / "runs.json", Path(work) / "intervals.jsonl"
        manifest.write_text(json.dumps({"runs": [run]}))
        intervals.write_text("".join(json.dumps(record) + "\n" for record in records))
        (pod,) = read_runs(manifest, intervals)
    return pod


def constant_run(power=1386.0, duty=1.0, n=6, machines=("m0", "m1"), **kw):
    return read_pod([(k, m, power, duty) for k in range(n) for m in machines], machines=machines, **kw)


class TestOnDutyPower:
    def test_constant_full_duty(self):
        result = on_duty_power(constant_run(power=1386.0))
        assert result.power_w == 1386.0
        assert result.excluded_intervals == 0

    def test_one_machine_dip_excludes_interval_for_all(self):
        readings = [
            (0, "m0", 1000, 0.9), (0, "m1", 1000, 0.9),
            (1, "m0", 2000, 0.5), (1, "m1", 2000, 0.95),
            (2, "m0", 1000, 0.85), (2, "m1", 1000, 0.88),
        ]
        result = on_duty_power(read_pod(readings))
        assert result.power_w == 1000.0  # the 2000 W interval never counts
        assert result.excluded_intervals == 1
        assert result.included_intervals == 2

    def test_matches_hand_filtered_oracle_on_gappy_trace(self):
        # trace with idle gaps: power tracks duty; filter by brute force
        machines = ("m0", "m1", "m2")
        duties = [
            (0.95, 0.90, 0.99),
            (0.40, 0.90, 0.99),  # gap
            (0.85, 0.81, 0.80),
            (0.99, 0.99, 0.10),  # gap
            (1.00, 0.92, 0.88),
            (0.00, 0.00, 0.00),  # idle tail
        ]
        readings = [(k, m, 600 + 900 * d, d) for k, ds in enumerate(duties) for m, d in zip(machines, ds)]
        r = read_pod(readings, machines=machines)

        oracle_values = []
        for ds in duties:
            if all(d >= 0.8 for d in ds):
                oracle_values.extend(600 + 900 * d for d in ds)
        oracle = math.fsum(oracle_values) / len(oracle_values)

        result = on_duty_power(r)
        assert result.power_w == pytest.approx(oracle, rel=1e-12)
        assert result.excluded_intervals == 3

    def test_no_on_duty_intervals_is_error(self):
        with pytest.raises(ComputationError, match="no on-duty intervals"):
            on_duty_power(constant_run(duty=0.5))

    def test_no_samples_is_error(self):
        with pytest.raises(ComputationError, match="no interval samples"):
            on_duty_power(read_pod([]))

    def test_missing_machine_counts_as_off_duty(self):
        pod = read_pod([(0, "m0", 1000, 0.9)], machines=("m0", "m1"))  # m1 absent
        with pytest.raises(ComputationError, match="no on-duty intervals"):
            on_duty_power(pod)


# duty cycles at and around the threshold and at the ends of [0, 1], stragglers last
DUTIES = st.one_of(
    st.floats(0.8, 1.0),
    st.sampled_from([0.8, math.nextafter(0.8, 1), 1.0]),
    st.floats(0.8, 0.81),
    st.sampled_from([math.nextafter(0.8, 0), 0.79, 0.0]),
)


@st.composite
def pod_records(draw):
    """(machines, readings): a pod of 2-5 machines over 1-6 intervals, up to three of its
    records dropped, the rest shuffled, each stamp skewed by up to 5 s either way."""
    machines = tuple(f"m{i}" for i in range(draw(st.integers(2, 5))))
    slots = [(k, machine) for k in range(draw(st.integers(1, 6))) for machine in machines]
    dropped = draw(st.sets(st.sampled_from(slots), max_size=3))
    readings = [
        (k, machine, draw(st.floats(0.0, 5000.0)), draw(DUTIES), draw(st.integers(-5, 5)))
        for k, machine in slots
        if (k, machine) not in dropped
    ]
    return machines, draw(st.permutations(readings))


def on_duty_oracle(machines, readings):
    """What on_duty_power must give, by brute force: (power hex, included, excluded), or the error text."""
    by_interval = {}
    for k, machine, power, duty, _ in readings:
        by_interval.setdefault(k, {})[machine] = (power, duty)
    if not by_interval:
        return "run r1: no interval samples"
    on_duty = [
        seen for seen in by_interval.values()
        if all(m in seen and seen[m][1] >= DEFAULT_DUTY_THRESHOLD for m in machines)
    ]
    if not on_duty:
        return f"run r1: no on-duty intervals at threshold {DEFAULT_DUTY_THRESHOLD}"
    powers = [power for seen in on_duty for power, _ in seen.values()]
    return (math.fsum(powers) / len(powers)).hex(), len(on_duty), len(by_interval) - len(on_duty)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(pod=pod_records())
def test_on_duty_power_of_read_records_matches_brute_force(pod):
    machines, readings = pod
    run = read_pod(readings, machines=machines)
    try:
        result = on_duty_power(run)
    except ComputationError as exc:
        assert str(exc) == on_duty_oracle(machines, readings)
        return
    assert (result.power_w.hex(), result.included_intervals, result.excluded_intervals) == on_duty_oracle(
        machines, readings
    )


POD = tuple(f"m{i:02d}" for i in range(12))


def pod_readings():
    """Four intervals of a 12-machine pod, each machine at its own power; m05 straggles in the third.

    Yields (interval index, machine, power W, duty cycle).
    """
    for k in range(4):
        for i, machine in enumerate(POD):
            duty = 0.5 if (k, machine) == (2, "m05") else 0.9 + 0.005 * i
            yield k, machine, 1000.0 + 37.25 * i + 3.5 * k, duty


def pod_oracle():
    """The fsum mean of every reading in the intervals where the whole pod is on duty."""
    straggled = {k for k, _, _, duty in pod_readings() if duty < 0.8}
    on_duty = [power for k, _, power, _ in pod_readings() if k not in straggled]
    return math.fsum(on_duty) / len(on_duty)


class TestPodReadingsPerMachine:
    def test_on_duty_power_is_the_mean_of_every_machine_reading(self):
        result = on_duty_power(read_pod(pod_readings(), machines=POD))
        assert result.power_w == pod_oracle()
        assert (result.included_intervals, result.excluded_intervals) == (3, 1)

    def test_read_runs_keeps_every_machine_reading(self, tmp_path):
        manifest = tmp_path / "runs.json"
        pod = {"run_id": "r", "platform_id": "v5e", "machines": list(POD), "step_time_s": 1}
        manifest.write_text(json.dumps({"runs": [pod]}))
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text(
            "".join(
                json.dumps({"run_id": "r", "machine_id": machine, "interval_start": f"2024-10-01T00:{5 * k:02d}:00Z",
                            "power_w": power, "duty_cycle": duty}) + "\n"
                for k, machine, power, duty in reversed(list(pod_readings()))
            )
        )
        (pod_run,) = read_runs(manifest, intervals)
        assert [sorted(interval.power_w) for interval in pod_run.intervals] == [sorted(POD)] * 4
        result = on_duty_power(pod_run)
        assert result.power_w == pod_oracle()
        assert (result.included_intervals, result.excluded_intervals) == (3, 1)


class TestEmissionsPerStep:
    def test_newest_platform_embodied_cell(self, inventories, platforms):
        # 4664 kg machine M+T over the lifetime, 2.31 s steps -> ~0.057 g
        spec = platforms["v6e"]
        inv = inventories["v6e"]
        mt = machine_manufacturing(inv) + machine_transport(inv)
        assert mt == pytest.approx(4664, abs=1e-9)
        r = constant_run(power=3156.0, step=2.31, pid="v6e")
        step = emissions_per_step(r, 122.5, inv, spec)
        oracle = mt * 1000 / LIFETIME_S * 2.31
        assert step.embodied_g == pytest.approx(oracle, rel=1e-12)
        assert step.embodied_g == pytest.approx(0.057, rel=0.03)

    def test_predecessor_embodied_cell(self, inventories, platforms):
        r = constant_run(power=1728.0, step=5.67, pid="v5e")
        step = emissions_per_step(r, 122.5, inventories["v5e"], platforms["v5e"])
        assert step.embodied_g == pytest.approx(0.082, rel=0.03)

    def test_operational_cell_with_implied_factor(self, inventories, platforms):
        # 2589 W for 0.24 s at 122.5 g/kWh, no PUE -> ~0.021 g
        r = constant_run(power=2589.0, step=0.24, pid="v6e")
        step = emissions_per_step(r, 122.5, inventories["v6e"], platforms["v6e"], pue=1.0)
        oracle = 2589.0 * 0.24 * 122.5 / 3.6e6
        assert step.operational_g == pytest.approx(oracle, rel=1e-12)
        assert step.operational_g == pytest.approx(0.021, rel=0.03)

    def test_pue_flag_scales_operational_only(self, inventories, platforms):
        r = constant_run(power=1386.0, step=0.7, pid="v5e")
        base = emissions_per_step(r, 122.5, inventories["v5e"], platforms["v5e"], pue=1.0)
        with_pue = emissions_per_step(r, 122.5, inventories["v5e"], platforms["v5e"], pue=1.1)
        assert with_pue.operational_g == pytest.approx(1.1 * base.operational_g, rel=1e-12)
        assert with_pue.embodied_g == base.embodied_g

    def test_total_is_exact_sum(self, inventories, platforms):
        r = constant_run(power=1386.0, step=0.7, pid="v5e")
        step = emissions_per_step(r, 122.5, inventories["v5e"], platforms["v5e"])
        assert step.total_g == step.operational_g + step.embodied_g

    @given(k=st.floats(0.1, 10))
    def test_linear_in_step_time(self, k):
        from fleetcarbon.lca import LcaComponentEntry, MachineInventory
        from fleetcarbon.telemetry import PlatformSpec

        inv = MachineInventory(
            platform_id="p",
            accelerator_trays=2,
            components=(
                LcaComponentEntry(name="a", category="tpu_asic", tray="accelerator", kg_co2e=500.0),
            ),
        )
        spec = PlatformSpec(platform_id="p", chips_per_machine=8, trays_per_machine=3)
        one = emissions_per_step(constant_run(step=1.0), 135.0, inv, spec)
        scaled = emissions_per_step(constant_run(step=k), 135.0, inv, spec)
        assert scaled.total_g == pytest.approx(k * one.total_g, rel=1e-9)

    def test_incomplete_run_same_as_completed_prefix(self, inventories, platforms):
        # early termination must not change per-step figures for the steps
        # that did run: same samples, different completion flag
        done = constant_run(power=1386.0, step=0.7, pid="v5e", complete=True)
        cut = constant_run(power=1386.0, step=0.7, pid="v5e", complete=False)
        a = emissions_per_step(done, 122.5, inventories["v5e"], platforms["v5e"])
        b = emissions_per_step(cut, 122.5, inventories["v5e"], platforms["v5e"])
        assert (a.operational_g, a.embodied_g) == (b.operational_g, b.embodied_g)


class TestWorkloadCci:
    @staticmethod
    def row(platforms, inventories, flops):
        """The workload table's row for one constant v5e run with `flops` FLOPs per step."""
        table = workload_table((constant_run(flops=flops),), platforms, inventories, 135.0, 1.0, RunPolicy())
        return dict(zip(table.columns, table.rows[0]))

    def test_round_trip_identity(self, platforms, inventories):
        # choosing flops so that the run's grams per step map to 309.9 g/EF returns 309.9
        grams = self.row(platforms, inventories, 1e14)["total_g_per_step"]
        flops = grams / 309.9 * 1e18
        assert self.row(platforms, inventories, flops)["cci_g_per_exaflop"] == pytest.approx(309.9, rel=1e-12)

    def test_doubling_flops_halves_cci(self, platforms, inventories):
        one, two = (self.row(platforms, inventories, f)["cci_g_per_exaflop"] for f in (1e14, 2e14))
        assert two == one / 2

    def test_invalid_flops(self, platforms, inventories):
        for flops in (None, 0.0):  # no FLOPs per step: the CCI is left blank
            assert self.row(platforms, inventories, flops)["cci_g_per_exaflop"] is None
        for flops in (1e-300, 5e-324):  # 5e-324 / 1e18 underflows to 0; both intensities are infinite
            with pytest.raises(ComputationError, match="cci_g_per_exaflop of 'r1' is not finite"):
                self.row(platforms, inventories, flops)


class TestRunPolicy:
    def test_verdicts(self):
        policy = RunPolicy(accept=frozenset({"a"}), reject=frozenset({"b"}))
        assert policy.verdict(constant_run(complete=False)) == "needs-validation"
        accepted = WorkloadRun(
            run_id="a", workload="w", platform_id="p", machines=("m",),
            intervals=(), step_time_s=1.0, complete=False,
        )
        rejected = WorkloadRun(
            run_id="b", workload="w", platform_id="p", machines=("m",),
            intervals=(), step_time_s=1.0, complete=True,
        )
        assert policy.verdict(accepted) == "accepted"
        assert policy.verdict(rejected) == "rejected"


class TestReadRuns:
    # an interval record without its closing brace
    RECORD = '{"run_id": "r", "machine_id": "m", "interval_start": "2024-10-01T00:00:00Z", "power_w": 1, "duty_cycle": 1'

    def test_bundled_fixture_round_trip(self, run_config, platforms, inventories):
        runs = read_runs(run_config.run_manifest, run_config.run_intervals)
        assert len(runs) == 4
        by_id = {r.run_id: r for r in runs}
        r = by_id["rlhf-v5e-r1"]
        assert len(r.machines) == 32
        assert len(r.intervals) == 12
        result = on_duty_power(r)
        assert result.power_w == 1386.0  # dip intervals fully excluded
        assert result.excluded_intervals == 2

    def test_all_published_power_cells(self, run_config):
        runs = {r.run_id: r for r in read_runs(run_config.run_manifest, run_config.run_intervals)}
        expected = {
            "rlhf-v5e-r1": 1386.0,
            "rlhf-v6e-r1": 2589.0,
            "sft-v5e-r1": 1728.0,
            "sft-v6e-r1": 3156.0,
        }
        for run_id, power in expected.items():
            assert on_duty_power(runs[run_id]).power_w == power

    def test_timestamp_outside_utc_range_is_ingest_error(self, tmp_path):
        manifest = tmp_path / "runs.json"
        manifest.write_text('{"runs": [{"run_id": "r", "platform_id": "p", "machines": ["m"], "step_time_s": 1}]}')
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text(
            '{"run_id": "r", "machine_id": "m", "interval_start": "0001-01-01T00:00:00+01:00", '
            '"power_w": 1, "duty_cycle": 1}\n'
        )
        with pytest.raises(IngestError, match="line 1"):
            read_runs(manifest, intervals)

    @pytest.mark.parametrize(
        "fields, message",
        [
            ('"power_w": NaN, "duty_cycle": 1', "non-finite number"),
            ('"power_w": "1e400", "duty_cycle": 1', "non-finite number"),
            ('"power_w": -5000, "duty_cycle": 1', "power_w -5000.0 is negative"),
            ('"power_w": 1, "duty_cycle": 7.0', r"duty_cycle 7.0 outside \[0, 1\]"),
            ('"power_w": 1, "duty_cycle": 1, "note": NaN', "non-finite number 'NaN'"),
            ('"power_w": 1, "duty_cycle": 1, "note": 1e400', "non-finite number '1e400'"),
        ],
        ids=[
            "nan-power", "power-text-overflow", "negative-power", "duty-above-one", "nan-unread", "overflow-unread"
        ],
    )
    def test_bad_interval_number_is_ingest_error(self, tmp_path, fields, message):
        manifest = tmp_path / "runs.json"
        manifest.write_text('{"runs": [{"run_id": "r", "platform_id": "p", "machines": ["m"], "step_time_s": 1}]}')
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text(
            '{"run_id": "r", "machine_id": "m", "interval_start": "2024-10-01T00:00:00Z", '
            + fields
            + "}\n"
        )
        with pytest.raises(IngestError, match=f"line 1: {message}"):
            read_runs(manifest, intervals)

    @pytest.mark.parametrize(
        "line, message",
        [
            (RECORD + "} x", "Extra data: line 1 column 109 (char 108)"),
            (RECORD + "}" + RECORD + "}", "Extra data: line 1 column 108 (char 107)"),
            (RECORD + "} " + RECORD + "}", "Extra data: line 1 column 109 (char 108)"),
            ("42 x", "Extra data: line 1 column 4 (char 3)"),
            ("[]", "list indices must be integers or slices, not str"),
            ("42", "'int' object is not subscriptable"),
            ("{", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            ("x", "Expecting value: line 1 column 1 (char 0)"),
        ],
        ids=[
            "trailing-data", "two-objects", "two-objects-spaced", "number-then-text",
            "bare-list", "bare-number", "lone-brace", "no-value",
        ],
    )
    def test_line_that_is_not_one_object_is_ingest_error(self, tmp_path, line, message):
        manifest = tmp_path / "runs.json"
        manifest.write_text('{"runs": [{"run_id": "r", "platform_id": "p", "machines": ["m"], "step_time_s": 1}]}')
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text(line + "\n")
        with pytest.raises(IngestError) as info:
            read_runs(manifest, intervals)
        assert str(info.value) == f"{intervals}: bad interval record at line 1: {message}"

    @staticmethod
    def pod_files(tmp_path, *records):
        """A one-run manifest over machines a and b, and interval lines (machine, interval_start)."""
        manifest = tmp_path / "runs.json"
        run = {"run_id": "r", "platform_id": "p", "machines": ["a", "b"], "step_time_s": 1}
        manifest.write_text(json.dumps({"runs": [run]}))
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text(
            "".join(
                json.dumps({"run_id": "r", "machine_id": m, "interval_start": ts, "power_w": 1, "duty_cycle": 1})
                + "\n"
                for m, ts in records
            )
        )
        return manifest, intervals

    def test_spellings_of_one_instant_share_an_interval(self, tmp_path):
        files = self.pod_files(
            tmp_path,
            ("a", "2024-10-01T00:00:00Z"),
            ("b", "2024-10-01T01:00:00+01:00"),
            ("a", "2024-10-01T00:05:00Z"),
            ("b", "2024-10-01T00:05:00Z"),
        )
        (run,) = read_runs(*files)
        assert [sorted(interval.power_w) for interval in run.intervals] == [["a", "b"], ["a", "b"]]

    def test_repeated_bad_timestamp_is_reported_at_its_first_line(self, tmp_path):
        files = self.pod_files(
            tmp_path,
            ("a", "2024-10-01T00:00:00Z"),
            ("b", "2024-10-01T00:00:00Z"),
            ("a", "2024-10-01T00:05:00"),
            ("a", "2024-10-01T00:10:00Z"),
            ("b", "2024-10-01T00:05:00"),
        )
        with pytest.raises(IngestError, match="line 3: bad timestamp '2024-10-01T00:05:00': no time zone"):
            read_runs(*files)

    def test_instant_repeated_at_another_offset_is_ingest_error(self, tmp_path):
        files = self.pod_files(tmp_path, ("a", "2024-10-01T00:00:00Z"), ("a", "2024-10-01T01:00:00+01:00"))
        with pytest.raises(
            IngestError, match=r"line 2: repeated key: run 'r', machine 'a', interval 2024-10-01T00:00:00\+00:00"
        ):
            read_runs(*files)

    def test_timestamp_without_time_zone_is_ingest_error(self, run_config, tmp_path):
        lines = run_config.run_intervals.read_text().splitlines()
        record = json.loads(lines[0])
        record["interval_start"] = record["interval_start"].rstrip("Z")
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text("\n".join([json.dumps(record)] + lines[1:]) + "\n")
        with pytest.raises(IngestError, match=f"line 1: bad timestamp {record['interval_start']!r}: no time zone"):
            read_runs(run_config.run_manifest, intervals)

    @pytest.mark.parametrize(
        "run, message",
        [
            ('"step_time_s": Infinity', "non-finite number"),
            ('"step_time_s": "inf"', "non-finite number"),
            ('"step_time_s": 1, "flops_per_step": -5', "flops_per_step must be >= 0"),
            ('"step_time_s": 1, "flops_per_step": "nan"', "non-finite number"),
        ],
        ids=["infinite-step-time", "step-time-text-inf", "negative-flops", "flops-text-nan"],
    )
    def test_bad_manifest_number_is_ingest_error(self, run_config, tmp_path, run, message):
        manifest = tmp_path / "runs.json"
        manifest.write_text(
            '{"runs": [{"run_id": "rlhf-v5e-r1", "platform_id": "v5e", "machines": ["m"], ' + run + "}]}"
        )
        with pytest.raises(IngestError, match=message):
            read_runs(manifest, run_config.run_intervals)

    def test_bare_list_manifest_is_ingest_error(self, run_config, tmp_path):
        manifest = tmp_path / "runs.json"
        manifest.write_text(json.dumps(json.loads(run_config.run_manifest.read_text())["runs"]))
        with pytest.raises(IngestError, match="is not a JSON object"):
            read_runs(manifest, run_config.run_intervals)

    def test_repeated_record_is_ingest_error(self, run_config, tmp_path):
        # a copy of the first bundled record at 10x power must not replace it
        lines = run_config.run_intervals.read_text().splitlines()
        record = json.loads(lines[0])
        record["power_w"] *= 10
        intervals = tmp_path / "intervals.jsonl"
        intervals.write_text("\n".join(lines + [json.dumps(record)]) + "\n")
        with pytest.raises(IngestError, match=f"line {len(lines) + 1}: repeated key") as info:
            read_runs(run_config.run_manifest, intervals)
        assert f"run {record['run_id']!r}, machine {record['machine_id']!r}" in str(info.value)
