import json
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetcarbon.cci import operational_cci
from fleetcarbon.config import load_factors
from fleetcarbon.errors import ComputationError, ConfigError
from fleetcarbon.factors import (
    EmissionFactorSet,
    HourlyGridSeries,
    HourlyRecord,
    ScenarioSpec,
    annual_matched_emissions,
    hourly_247_emissions,
    location_based_emissions,
    scenario_manufacturing_reduction,
)


def series(hours, grid="g1"):
    return HourlyGridSeries(
        grid_id=grid,
        records=tuple(
            HourlyRecord(hour_start=f"h{i}", load_kwh=l, cfe_kwh=c, grid_factor=f)
            for i, (l, c, f) in enumerate(hours)
        ),
    )


def mb_factor(lb, cfe_impact):
    return EmissionFactorSet(label="mb", year=2023, lb_factor=lb, cfe_impact=cfe_impact).mb_factor


class TestMbFactor:
    def test_reference_identity(self):
        assert mb_factor(366, 231) == 135

    def test_no_procurement(self):
        assert mb_factor(366, 0) == 366

    def test_full_matching_boundary(self):
        assert mb_factor(400, 400) == 0

    def test_over_procurement_rejected(self):
        with pytest.raises(ValueError, match="cfe_impact"):
            mb_factor(100, 101)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            mb_factor(-1, 0)
        with pytest.raises(ValueError):
            mb_factor(10, -1)

    def test_factor_set_derives_the_same(self, factor_config):
        # the config resolves a standard name to its factor set's market-based factor
        for name, fs in factor_config.standards.items():
            assert factor_config.factor_for(name) == fs.lb_factor - fs.cfe_impact


class TestHourlyMatching:
    def test_two_hour_hand_computed(self):
        # hour 1 fully covered, hour 2 uncovered at 500 g/kWh
        result = hourly_247_emissions(series([(10, 10, 500), (10, 0, 500)]))
        assert result.total_emissions_g == 5000
        assert result.factor_g_per_kwh == 250
        assert result.cfe_share == 0.5

    def test_full_coverage_zero_emissions(self):
        result = hourly_247_emissions(series([(5, 7, 400), (9, 9, 500)]))
        assert result.total_emissions_g == 0
        assert result.factor_g_per_kwh == 0
        assert result.cfe_share == 1.0

    def test_no_cfe_reduces_to_location_based(self):
        hours = [(10, 0, 500), (20, 0, 300), (5, 0, 450)]
        s = series(hours)
        result = hourly_247_emissions(s)
        lb = location_based_emissions(s)
        assert result.total_emissions_g == lb
        # factor equals the load-weighted grid factor, computed identically
        assert result.factor_g_per_kwh == lb / math.fsum(l for l, _, _ in hours)

    def test_excess_never_carries_between_hours(self):
        # hour 1 has double coverage; hour 2 still pays full price
        result = hourly_247_emissions(series([(10, 20, 500), (10, 0, 100)]))
        assert result.total_emissions_g == 1000

    def test_zero_total_load_is_error(self):
        with pytest.raises(ComputationError, match="zero total load"):
            hourly_247_emissions(series([(0, 5, 400)]))

    def test_empty_series_is_error(self):
        with pytest.raises(ComputationError, match="empty hourly series"):
            hourly_247_emissions(HourlyGridSeries(grid_id="g", records=()))

    @given(
        st.lists(
            st.tuples(
                st.floats(0, 1e3),
                st.floats(0, 1e3),
                st.floats(0, 1e3),
            ),
            min_size=1,
            max_size=24,
        ).filter(lambda hours: sum(l for l, _, _ in hours) > 0),
        st.randoms(use_true_random=False),
    )
    def test_permutation_invariant(self, hours, rng):
        shuffled = list(hours)
        rng.shuffle(shuffled)
        a = hourly_247_emissions(series(hours))
        b = hourly_247_emissions(series(shuffled))
        assert a.total_emissions_g == b.total_emissions_g
        assert a.factor_g_per_kwh == b.factor_g_per_kwh

    @given(
        st.lists(
            st.tuples(st.floats(0, 1e3), st.floats(0, 1e3), st.floats(0, 1e3)),
            min_size=1,
            max_size=24,
        ).filter(lambda hours: sum(l for l, _, _ in hours) > 0)
    )
    def test_doubling_scales_emissions_not_factor(self, hours):
        base = hourly_247_emissions(series(hours))
        doubled = hourly_247_emissions(series([(2 * l, 2 * c, f) for l, c, f in hours]))
        assert doubled.total_emissions_g == pytest.approx(2 * base.total_emissions_g, rel=1e-12)
        assert doubled.factor_g_per_kwh == pytest.approx(base.factor_g_per_kwh, rel=1e-12)

    def test_additive_under_concatenation(self):
        first = [(10, 3, 400), (20, 25, 350)]
        second = [(7, 0, 500), (9, 9, 410), (11, 2, 390)]
        a = hourly_247_emissions(series(first)).total_emissions_g
        b = hourly_247_emissions(series(second)).total_emissions_g
        whole = hourly_247_emissions(series(first + second)).total_emissions_g
        assert whole == pytest.approx(a + b, rel=1e-12)

    def test_ordering_annual_leq_hourly_leq_location(self):
        rng = random.Random(4242)
        for _ in range(200):
            hours = [
                (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 1000))
                for _ in range(rng.randint(1, 48))
            ]
            if sum(l for l, _, _ in hours) == 0:
                continue
            s = series(hours)
            annual = annual_matched_emissions(s)
            hourly = hourly_247_emissions(s).total_emissions_g
            lb = location_based_emissions(s)
            assert annual <= hourly * (1 + 1e-12) + 1e-9
            assert hourly <= lb * (1 + 1e-12) + 1e-9


class TestOperationalEmissions:
    def test_reference_chip_market_based(self):
        # lifetime energy for the oldest versatile platform against both factors
        energy = 1184 / 8 * 52596 * 1.10 / 1000  # 8562.6288 kWh
        mb_kg = operational_cci(energy, 135) / 1000
        lb_kg = operational_cci(energy, 366) / 1000
        assert mb_kg == pytest.approx(1166, rel=0.01)
        assert lb_kg == pytest.approx(3137, rel=0.01)

    def test_zero_energy(self):
        assert operational_cci(0, 135) == 0

    @given(
        e=st.floats(0, 1e6),
        f=st.floats(0, 1e3),
        k=st.floats(0, 100),
    )
    def test_bilinear(self, e, f, k):
        assert operational_cci(k * e, f) == pytest.approx(
            k * operational_cci(e, f), rel=1e-12, abs=1e-9
        )
        assert operational_cci(e, k * f) == pytest.approx(
            k * operational_cci(e, f), rel=1e-12, abs=1e-9
        )


def scenario(share=0.5, baseline=517.0, target=31.0):
    return ScenarioSpec(
        name="s",
        operations_factor_g_per_kwh=31.0,
        manufacturing_electricity_share=share,
        manufacturing_baseline_factor=baseline,
        manufacturing_target_factor=target,
    )


class TestScenarioReduction:
    def test_reference_reduction(self):
        # 0.5 * (1 - 31/517): the published 47% claim backs out of this formula
        value = scenario_manufacturing_reduction(scenario())
        assert value == pytest.approx(0.5 * (1 - 31 / 517), rel=1e-12)
        assert round(value, 2) == 0.47

    def test_zero_share(self):
        assert scenario_manufacturing_reduction(scenario(share=0.0)) == 0

    def test_target_equals_baseline(self):
        assert scenario_manufacturing_reduction(scenario(share=1.0, target=517.0)) == 0

    def test_dirtier_target_reported_negative(self):
        value = scenario_manufacturing_reduction(scenario(target=600.0))
        assert value < 0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError, match="baseline"):
            scenario_manufacturing_reduction(scenario(baseline=0.0))

    def test_negative_operations_factor_is_config_error(self, tmp_path):
        # cci.operational_cci refuses a negative factor, so the config must too
        cfg = {
            "operations_factor_g_per_kwh": -1.0,
            "manufacturing_electricity_share": 0.5,
            "manufacturing_baseline_factor": 517.0,
            "manufacturing_target_factor": 31.0,
        }
        path = tmp_path / "factors.json"
        path.write_text(json.dumps({"scenarios": {"s": cfg}}))
        with pytest.raises(ConfigError, match="operations_factor_g_per_kwh"):
            load_factors(path)


def test_factor_set_invariants():
    with pytest.raises(ValueError):
        EmissionFactorSet(label="bad", year=2023, lb_factor=-1)
    with pytest.raises(ValueError):
        EmissionFactorSet(label="bad", year=2023, lb_factor=100, cfe_impact=101)
    fs = EmissionFactorSet(label="ok", year=2023, lb_factor=100, cfe_impact=40)
    assert 0 <= fs.mb_factor <= fs.lb_factor
