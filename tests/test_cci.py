import pytest
from hypothesis import given
from hypothesis import strategies as st

from fleetcarbon.cci import (
    CciReport,
    build_report,
    embodied_cci,
    energy_per_exaflop,
    estimate_workload,
    lifetime_exaflops,
    operational_cci,
)
from fleetcarbon.errors import ComputationError
from fleetcarbon.lca import per_chip_embodied
from fleetcarbon.report import fold_platforms
from fleetcarbon.telemetry import FleetWindow, PlatformSpec, aggregate


def window(power_sum=1184.0, samples=1, flops=10**18, duty=0.5, pid="p1"):
    return FleetWindow(
        platform_id=pid,
        sample_count=samples,
        power_sum_w=power_sum,
        total_flops=flops,
        duty_cycle_sum=duty * samples,
    )


def spec(chips=8, lifetime=6.0):
    return PlatformSpec(
        platform_id="p1", chips_per_machine=chips, trays_per_machine=3, lifetime_years=lifetime
    )


class TestEnergyPerExaflop:
    def test_bundled_fleet_reproduces_calibration(self, fleet_dataset, platforms):
        # the fixture fleet is tuned to these intensities; the pipeline must
        # get them back through ingest -> aggregate -> energy_per_exaflop
        expected = {"v4i": 2.53, "v5e": 2.16, "v6e": 0.86, "v4": 1.93, "v5p": 1.65}
        for pid, value in expected.items():
            w = aggregate(fleet_dataset, pid)
            assert energy_per_exaflop(w, pue=1.10) == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("standard", ["market", "location", "hourly247"])
    def test_bundled_total_cci_ratio_of_oldest_to_newest(
        self, fleet_dataset, inventories, factor_config, run_config, standard
    ):
        # the paper's headline: v4i carries about three times v6e's total CCI
        accounts = fold_platforms(fleet_dataset, inventories, factor_config, standard, run_config.pue)
        totals = {pid: acct.report.total_cci for pid, acct in accounts.platforms.items()}
        assert 2.9 < totals["v4i"] / totals["v6e"] < 3.0

    def test_unit_identity(self):
        w = window(power_sum=12000.0, samples=1, flops=10**18)  # exactly 1 kWh
        assert energy_per_exaflop(w, pue=1.0) == pytest.approx(1.0, rel=1e-12)

    def test_doubling_flops_halves_intensity(self):
        w1 = window(flops=10**18)
        w2 = window(flops=2 * 10**18)
        assert energy_per_exaflop(w2, 1.0) == pytest.approx(
            energy_per_exaflop(w1, 1.0) / 2, rel=1e-12
        )

    def test_zero_flops_is_error(self):
        with pytest.raises(ComputationError, match="no utilized compute"):
            energy_per_exaflop(window(flops=0), pue=1.0)


class TestOperationalCci:
    def test_market_based_reference(self):
        assert operational_cci(2.53, 135) == pytest.approx(346, rel=0.02)

    def test_hourly_matched_reference(self):
        assert operational_cci(0.86, 212) == pytest.approx(182, rel=0.02)

    def test_high_cfe_reference(self):
        assert operational_cci(0.86, 31) == pytest.approx(27, rel=0.04)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            operational_cci(-1, 100)


class TestEmbodiedCci:
    def test_oldest_platform_back_derivation(self):
        # 386 kg over the lifetime work back-derived two independent ways
        lifetime_ef_embodied = 386000 / 114  # 3386.0
        lifetime_ef_energy = (1184 / 8 * 52596 * 1.10 / 1000) / 2.53  # 3384.4
        assert lifetime_ef_embodied == pytest.approx(lifetime_ef_energy, rel=0.002)
        assert embodied_cci(386000, lifetime_ef_energy) == pytest.approx(114, rel=0.02)

    def test_newest_platform(self):
        lifetime_ef = (2173 / 8 * 52596 * 1.10 / 1000) / 0.86
        assert embodied_cci(692000, lifetime_ef) == pytest.approx(38, rel=0.02)

    def test_zero_embodied(self):
        assert embodied_cci(0, 100.0) == 0

    def test_zero_lifetime_compute_is_error(self):
        with pytest.raises(ComputationError, match="zero lifetime"):
            embodied_cci(1000, 0)


class TestLifetimeExaflops:
    def test_rate_extrapolation_identity(self):
        # 1e18 FLOPs per interval per chip over 6 years: 52596 h * 12 intervals
        chips = 8
        w = window(samples=1, flops=chips * 10**18)
        assert lifetime_exaflops(w, spec(chips=chips)) == pytest.approx(
            52596 * 12, rel=1e-12
        )

    def test_bundled_oldest_platform(self, fleet_dataset, platforms):
        w = aggregate(fleet_dataset, "v4i")
        lef = lifetime_exaflops(w, platforms["v4i"])
        assert lef == pytest.approx(3386, rel=0.002)

    def test_zero_flops_window(self):
        assert lifetime_exaflops(window(flops=0), spec()) == 0


class TestReportAndEstimates:
    def report(self, embodied=79.0, operational=263.0):
        return CciReport(
            platform_id="p",
            standard="market",
            energy_kwh_per_exaflop=1.93,
            embodied_cci=embodied,
            operational_cci=operational,
            lifetime_exaflops_per_chip=8746.0,
        )

    def test_total_is_exact_component_sum(self):
        rep = self.report()
        assert rep.total_cci == rep.embodied_cci + rep.operational_cci
        assert rep.total_cci == 342.0

    def test_three_hundred_tonne_scale_estimate(self):
        # 3.14e23 FLOPs on the 342 g/EF platform: ~107 t total, ~25 + ~82
        est = estimate_workload(3.14e23, self.report())
        assert est.total_g / 1e6 == pytest.approx(107, rel=0.01)
        assert est.embodied_g / 1e6 == pytest.approx(25, rel=0.04)
        assert est.operational_g / 1e6 == pytest.approx(82, rel=0.04)

    def test_successor_platform_estimate(self):
        est = estimate_workload(3.14e23, self.report(embodied=58.0, operational=225.0))
        assert est.total_g / 1e6 == pytest.approx(89, rel=0.01)

    def test_zero_flops(self):
        est = estimate_workload(0, self.report())
        assert est.total_g == 0

    @given(st.floats(0, 1e26), st.floats(0.1, 10))
    def test_linear_in_flops(self, flops, k):
        rep = self.report()
        one = estimate_workload(flops, rep)
        scaled = estimate_workload(k * flops, rep)
        assert scaled.total_g == pytest.approx(k * one.total_g, rel=1e-9, abs=1e-9)

    def test_standard_change_moves_only_operational(
        self, fleet_dataset, platforms, inventories
    ):
        w = aggregate(fleet_dataset, "v5p")
        s = platforms["v5p"]
        breakdown = per_chip_embodied(inventories["v5p"], s)
        mb = build_report(w, s, breakdown, 135.0, 1.10, "market")
        lb = build_report(w, s, breakdown, 366.0, 1.10, "location")
        assert lb.embodied_cci == mb.embodied_cci
        assert lb.operational_cci / mb.operational_cci == pytest.approx(366 / 135, rel=1e-12)

    def test_full_report_totals_exact(self, fleet_dataset, platforms, inventories):
        for pid, s in platforms.items():
            w = aggregate(fleet_dataset, pid)
            breakdown = per_chip_embodied(inventories[s.inventory_ref], s)
            rep = build_report(w, s, breakdown, 135.0, 1.10, "market")
            assert rep.total_cci == rep.embodied_cci + rep.operational_cci
            assert rep.embodied_cci >= 0 and rep.operational_cci >= 0
