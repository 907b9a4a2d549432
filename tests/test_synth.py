import json

import pytest

from fleetcarbon.config import load_platforms
from fleetcarbon.report import dataset_observations
from fleetcarbon.synth import (
    GenerationSpec,
    SynthScenario,
    default_scenario,
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
            GenerationSpec(name="gb", machines=10, active_power_w=1500.0, tdp_w=4500.0),
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


class TestGroundTruth:
    def test_manifest_row_bookkeeping(self, tmp_path):
        manifest = write_fleet(small_scenario(), tmp_path / "t.csv", tmp_path / "m.json")
        rows = (tmp_path / "t.csv").read_text().splitlines()
        assert len(rows) - 1 == manifest["total_rows"]

    def test_power_model_endpoints(self):
        assert machine_power_at(0.0, 1000.0) == 600.0  # idle draw is 60%
        assert machine_power_at(1.0, 1000.0) == 1000.0

    def test_mean_power_within_tdp_band(self, tmp_path):
        scenario = default_scenario(seed=11)
        write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
        catalog = load_platforms(tmp_path / "m.json")
        ds = ingest(tmp_path / "t.csv", catalog)
        for gen in scenario.generations:
            mean_power = aggregate(ds, gen.name).mean_machine_power_w
            assert gen.tdp_w / 6 < mean_power < gen.tdp_w / 2

    def test_balanced_comparison_recovers_efficiency_ratio(self, tmp_path):
        scenario = default_scenario(seed=20241001)
        manifest = write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
        truth = manifest["generations"]["gen-b"]["energy_per_exaflop_ratio_vs_baseline"]
        assert truth == pytest.approx(0.5, rel=1e-12)  # built-in 2x efficiency gap

        catalog = load_platforms(tmp_path / "m.json")
        scheme = BucketScheme(manifest["buckets"])
        ds = ingest(tmp_path / "t.csv", catalog, scheme)
        comparison = balanced_comparison(
            dataset_observations(ds, ["gen-a", "gen-b"]), scheme, baseline="gen-a"
        )
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


def test_scenario_rejects_zero_buckets():
    with pytest.raises(ValueError, match="buckets"):
        SynthScenario(seed=1, buckets=0)


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
    assert scenario.generations[0].tdp_w == 2400.0  # defaults to 3x active power
    write_fleet(scenario, tmp_path / "t.csv", tmp_path / "m.json")
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert manifest["total_rows"] == 48
