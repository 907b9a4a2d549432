import csv
import hashlib
import json

import pytest

from fleetcarbon.config import SYNTH_MANIFEST_KEYS, load_platforms
from fleetcarbon.report import dataset_observations
from fleetcarbon.synth import (
    GenerationSpec,
    SynthScenario,
    build_manifest,
    default_scenario,
    generate,
    machine_power_at,
    scenario_from_mapping,
    write_fleet,
)
from fleetcarbon.telemetry import BucketScheme, aggregate, ingest
from fleetcarbon.weighting import balanced_comparison


def small_scenario(seed=7, **gen_overrides):
    return SynthScenario(
        seed=seed,
        intervals=24,
        generations=(
            GenerationSpec(name="ga", machines=10, **gen_overrides),
            GenerationSpec(name="gb", machines=10, active_power_w=1500.0),
        ),
    )


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        paths = []
        for tag in ("one", "two"):
            t = tmp_path / f"t_{tag}.csv"
            m = tmp_path / f"m_{tag}.json"
            write_fleet(small_scenario(), t, m)
            paths.append((t.read_bytes(), m.read_bytes()))
        assert paths[0] == paths[1]

    def test_different_seed_differs(self, tmp_path):
        write_fleet(small_scenario(seed=1), tmp_path / "a.csv", tmp_path / "a.json")
        write_fleet(small_scenario(seed=2), tmp_path / "b.csv", tmp_path / "b.json")
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes()

    def test_adding_generation_does_not_shift_existing_rows(self, tmp_path):
        base = small_scenario()
        extended = SynthScenario(
            seed=base.seed,
            intervals=base.intervals,
            generations=base.generations + (GenerationSpec(name="gc", machines=3),),
        )
        write_fleet(base, tmp_path / "base.csv", tmp_path / "base.json")
        write_fleet(extended, tmp_path / "ext.csv", tmp_path / "ext.json")
        base_rows = (tmp_path / "base.csv").read_text().splitlines()
        ext_rows = (tmp_path / "ext.csv").read_text().splitlines()
        assert ext_rows[: len(base_rows)] == base_rows


# Scenarios on the generator's branches the default golden does not reach,
# with the sha256 of the telemetry CSV each one writes.
BRANCH_SCENARIOS = {
    "uniform-none-missing-2-trays": (
        SynthScenario(
            seed=31,
            intervals=40,
            generations=(
                GenerationSpec(
                    name="u",
                    machines=6,
                    trays_per_machine=2,
                    active_power_w=950.0,
                    duty_dist="uniform",
                    duty_snap="none",
                    missing_rate=0.1,
                ),
            ),
        ),
        "39af2809c7b6b4068445acc2ea976e0595a8a2a64bfc4e070204651c2a4cbfa0",
    ),
    "beta-midpoint-4-trays-start-buckets": (
        SynthScenario(
            seed=47,
            intervals=40,
            start="2025-03-30T23:30:00+02:00",
            buckets=7,
            generations=(
                GenerationSpec(
                    name="b4", machines=6, trays_per_machine=4, duty_a=2.0, duty_b=6.0, power_noise=0.05
                ),
                GenerationSpec(
                    name="b4z",
                    machines=4,
                    trays_per_machine=4,
                    active_power_w=2100.0,
                    flops_per_s_at_full_duty=3.0e14,
                    power_noise=0.0,
                ),
            ),
        ),
        "e738f54ea6434173f87aca4ecf02886f0c91d73530458f76163834a44c8e4de2",
    ),
    # one tray; names csv must quote; trays above 2**43 W, where a double's spacing passes 0.001
    "one-tray-quoted-names-vast-trays": (
        SynthScenario(
            seed=59,
            intervals=30,
            generations=(
                GenerationSpec(name="one,tray", machines=3, trays_per_machine=1, missing_rate=0.2),
                GenerationSpec(
                    name='say "q"', machines=2, trays_per_machine=2, duty_dist="uniform", duty_snap="none"
                ),
                GenerationSpec(
                    name="vast",
                    machines=2,
                    trays_per_machine=3,
                    active_power_w=1.0e14,
                    flops_per_s_at_full_duty=2.0e24,
                    power_noise=0.3,
                ),
            ),
        ),
        "3ecf0018f2a4130c74f6504bf7de2e0360f8090fb970db31400d7d001585cede",
    ),
    # a year below 1000, whose stamps still carry four digits
    "year-5-start": (
        SynthScenario(
            seed=61, intervals=8, start="0005-01-01T00:00:00Z", generations=(GenerationSpec(name="y5", machines=2),)
        ),
        "d8a429982ef8a5a78060d6ab29ab0279665445dd4d9bc55376b1fd18457d8ba2",
    ),
}


@pytest.mark.parametrize("name", sorted(BRANCH_SCENARIOS))
def test_branch_scenario_bytes_are_pinned(tmp_path, name):
    scenario, digest = BRANCH_SCENARIOS[name]
    write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
    assert hashlib.sha256((tmp_path / "t.csv").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(BRANCH_SCENARIOS))
def test_generate_yields_the_rows_write_fleet_writes(tmp_path, name):
    scenario, _ = BRANCH_SCENARIOS[name]
    write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
    with (tmp_path / "t.csv").open(newline="") as fh:
        written = list(csv.DictReader(fh))
    assert list(generate(scenario)) == written


@pytest.mark.parametrize("name", sorted(BRANCH_SCENARIOS))
def test_ingest_accepts_every_row_synth_writes(tmp_path, name):
    scenario, _ = BRANCH_SCENARIOS[name]
    manifest = write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
    ds = ingest(tmp_path / "t.csv", load_platforms(tmp_path / "m.json"))
    assert ds.rejections == () and len(ds) == manifest["total_rows"]


class TestGroundTruth:
    def test_manifest_row_bookkeeping(self, tmp_path):
        manifest = write_fleet(small_scenario(), tmp_path / "t.csv", tmp_path / "m.json")
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert len(rows) - 1 == manifest["total_rows"]

    def test_power_model_endpoints(self):
        assert machine_power_at(0.0, 1000.0) == 600.0  # idle draw is 60%
        assert machine_power_at(1.0, 1000.0) == 1000.0

    @pytest.mark.parametrize("trays", [1, 2, 3])
    def test_trays_sum_to_machine_power(self, trays):
        # midpoint duties print exactly at six decimals, so each row's model power is recoverable
        scenario = SynthScenario(
            seed=9,
            intervals=100,
            generations=(GenerationSpec(name="g", machines=1, trays_per_machine=trays, power_noise=0.0),),
        )
        for row in generate(scenario):
            readings = [float(p) for p in row["tray_power_w"].split(";")]
            assert len(readings) == trays
            want = machine_power_at(float(row["duty_cycle"]), 1200.0)
            assert sum(readings) == pytest.approx(want, abs=0.0005 * trays)

    def test_mean_power_within_tdp_band(self, tmp_path):
        scenario = default_scenario(seed=11)
        write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
        catalog = load_platforms(tmp_path / "m.json")
        ds = ingest(tmp_path / "t.csv", catalog)
        for gen in scenario.generations:
            mean_power = aggregate(ds, gen.name).mean_machine_power_w
            assert gen.active_power_w / 2 < mean_power < gen.active_power_w * 1.5

    def test_balanced_comparison_recovers_efficiency_ratio(self, tmp_path):
        scenario = default_scenario(seed=20241001)
        manifest = write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
        truth = manifest["generations"]["gen-b"]["energy_per_exaflop_ratio_vs_baseline"]
        assert truth == pytest.approx(0.5, rel=1e-12)  # built-in 2x efficiency gap

        catalog = load_platforms(tmp_path / "m.json")
        scheme = BucketScheme(manifest["buckets"])
        ds = ingest(tmp_path / "t.csv", catalog, scheme)
        comparison = balanced_comparison(dataset_observations(ds, ["gen-a", "gen-b"]), baseline="gen-a")
        ratio = comparison.per_generation["gen-b"].ratios["energy_kwh_per_exaflop"]
        assert ratio == pytest.approx(truth, rel=0.02)

    def test_missing_rate_produces_incomplete_rows(self, tmp_path):
        scenario = SynthScenario(
            seed=3,
            intervals=50,
            generations=(GenerationSpec(name="ga", machines=10, missing_rate=0.2),),
        )
        write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
        catalog = load_platforms(tmp_path / "m.json")
        ds = ingest(tmp_path / "t.csv", catalog)
        missing = sum(ds.exclusions.values())
        assert missing == len(ds) - ds.complete_rows
        assert missing / len(ds) == pytest.approx(0.2, abs=0.05)


@pytest.mark.parametrize(
    "field",
    [
        {"trays_per_machine": 0},
        {"duty_a": 0.0},
        {"duty_b": -1.0},
        {"duty_dist": "gamma"},
        {"duty_snap": "floor"},
    ],
    ids=["zero-trays", "zero-duty-a", "negative-duty-b", "unknown-dist", "unknown-snap"],
)
def test_generation_spec_rejects_values_the_generator_cannot_draw(field):
    with pytest.raises(ValueError):
        GenerationSpec(name="g", machines=1, **field)


def test_catalog_accepts_exactly_the_manifest_keys_synth_writes():
    assert set(build_manifest(default_scenario())) == SYNTH_MANIFEST_KEYS


def test_scenario_rejects_zero_buckets():
    with pytest.raises(ValueError, match="buckets"):
        SynthScenario(seed=1, buckets=0)


def test_start_needs_a_time_zone():
    gens = (GenerationSpec(name="g", machines=1),)
    with pytest.raises(ValueError, match="no time zone"):
        SynthScenario(seed=1, start="2024-10-01T00:00:00", generations=gens)
    shifted = SynthScenario(seed=1, start="2024-10-01T01:00:00+01:00", generations=gens)
    stamps = [row["interval_start"] for row in generate(shifted)]
    assert stamps[:2] == ["2024-10-01T00:00:00Z", "2024-10-01T00:05:00Z"]
    assert list(generate(shifted)) == list(generate(SynthScenario(seed=1, generations=gens)))


def test_scenario_from_mapping_round_trip(tmp_path):
    raw = {
        "seed": 5,
        "intervals": 12,
        "generations": [
            {"name": "x", "machines": 2, "active_power_w": 800, "duty_dist": "uniform"},
            {"name": "y", "machines": 2},
        ],
    }
    scenario = scenario_from_mapping(raw)
    assert scenario.generations[0].duty_dist == "uniform"
    write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["total_rows"] == 48
