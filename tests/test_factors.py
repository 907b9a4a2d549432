import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetcarbon.cci import operational_cci
from fleetcarbon.config import load_factors
from fleetcarbon.errors import ConfigError
from fleetcarbon.factors import EmissionFactorSet, ScenarioSpec, scenario_manufacturing_reduction


def mb_factor(lb, cfe_impact):
    return EmissionFactorSet(label="mb", lb_factor=lb, cfe_impact=cfe_impact).mb_factor


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
        # the factors file is the only check: cci.operational_cci prices whatever factor it is given
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
        EmissionFactorSet(label="bad", lb_factor=-1)
    with pytest.raises(ValueError):
        EmissionFactorSet(label="bad", lb_factor=100, cfe_impact=101)
    fs = EmissionFactorSet(label="ok", lb_factor=100, cfe_impact=40)
    assert 0 <= fs.mb_factor <= fs.lb_factor
