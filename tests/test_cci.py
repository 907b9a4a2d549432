import pytest

from fleetcarbon.cci import CciReport, build_report, operational_cci
from fleetcarbon.errors import ComputationError
from fleetcarbon.lca import EmbodiedBreakdown, per_chip_embodied
from fleetcarbon.report import fold_platforms
from fleetcarbon.telemetry import FleetWindow, PlatformSpec, aggregate


def window(power_sum=1184.0, samples=1, flops=10**18, pid="p1"):
    return FleetWindow(
        platform_id=pid,
        sample_count=samples,
        power_sum_w=power_sum,
        total_flops=flops,
    )


def spec(chips=8, lifetime=6.0):
    return PlatformSpec(
        platform_id="p1", chips_per_machine=chips, trays_per_machine=3, lifetime_years=lifetime
    )


def breakdown(tpu_mt=400.0):
    return EmbodiedBreakdown(cpu_mt=100.0, tpu_mt=tpu_mt, dc_construction=150.0, eol=0.0, scope1=40.0)


def report(w=None, s=None, b=None, pue=1.0):
    return build_report(w or window(), s or spec(), b or breakdown(), 135.0, pue)


@pytest.fixture(scope="module")
def demo_reports(fleet_dataset, inventories, factor_config, run_config):
    return fold_platforms(fleet_dataset, inventories, factor_config, run_config.standard, run_config.pue)


class TestEnergyPerExaflop:
    def test_bundled_fleet_reproduces_calibration(self, demo_reports):
        # the fixture fleet is tuned to these intensities; the pipeline must
        # get them back through ingest -> aggregate -> build_report
        expected = {"v4i": 2.53, "v5e": 2.16, "v6e": 0.86, "v4": 1.93, "v5p": 1.65}
        for pid, value in expected.items():
            assert demo_reports[pid].pue == 1.10
            assert demo_reports[pid].energy_kwh_per_exaflop == pytest.approx(value, rel=1e-9)

    @pytest.mark.parametrize("standard", ["market", "location", "hourly247"])
    def test_bundled_total_cci_ratio_of_oldest_to_newest(
        self, fleet_dataset, inventories, factor_config, run_config, standard
    ):
        # the paper's headline: v4i carries about three times v6e's total CCI
        reports = fold_platforms(fleet_dataset, inventories, factor_config, standard, run_config.pue)
        totals = {pid: rep.total_cci for pid, rep in reports.items()}
        assert 2.9 < totals["v4i"] / totals["v6e"] < 3.0

    def test_unit_identity(self):
        w = window(power_sum=12000.0, samples=1, flops=10**18)  # exactly 1 kWh
        assert report(w).energy_kwh_per_exaflop == pytest.approx(1.0, rel=1e-12)

    def test_doubling_flops_halves_intensity(self):
        one = report(window(flops=10**18)).energy_kwh_per_exaflop
        two = report(window(flops=2 * 10**18)).energy_kwh_per_exaflop
        assert two == pytest.approx(one / 2, rel=1e-12)

    def test_zero_flops_is_error(self):
        with pytest.raises(ComputationError, match="no utilized compute in window for 'p1'"):
            report(window(flops=0))


class TestOperationalCci:
    def test_market_based_reference(self):
        assert operational_cci(2.53, 135) == pytest.approx(346, rel=0.02)

    def test_hourly_matched_reference(self):
        assert operational_cci(0.86, 212) == pytest.approx(182, rel=0.02)

    def test_high_cfe_reference(self):
        assert operational_cci(0.86, 31) == pytest.approx(27, rel=0.04)


class TestEmbodiedCci:
    def test_oldest_platform_back_derivation(self, demo_reports):
        # the paper's 386 kg per chip over 3384.4 lifetime ExaFLOPs: about 114 g/ExaFLOP
        v4i = demo_reports["v4i"]
        assert v4i.breakdown.total == 386.0
        assert v4i.embodied_cci == pytest.approx(114.05, rel=1e-4)
        assert v4i.embodied_cci == v4i.breakdown.total * 1000.0 / v4i.lifetime_exaflops_per_chip

    def test_newest_platform(self, demo_reports):
        assert demo_reports["v6e"].embodied_cci == pytest.approx(38, rel=0.02)

    def test_zero_embodied(self):
        zero = EmbodiedBreakdown(cpu_mt=0.0, tpu_mt=0.0, dc_construction=0.0, eol=0.0, scope1=0.0)
        assert report(b=zero).embodied_cci == 0

    def test_zero_lifetime_compute_is_error(self):
        # one FLOP over 10^12 machine-intervals in a lifetime this short: the lifetime ExaFLOPs underflow to 0
        with pytest.raises(ComputationError, match="zero lifetime compute; embodied intensity undefined"):
            report(window(samples=10**12, flops=1), spec(lifetime=1e-300))


class TestLifetimeExaflops:
    def test_rate_extrapolation_identity(self):
        # 1e18 FLOPs per interval per chip over 6 years: 52596 h * 12 intervals
        chips = 8
        rep = report(window(samples=1, flops=chips * 10**18), spec(chips=chips))
        assert rep.lifetime_exaflops_per_chip == pytest.approx(52596 * 12, rel=1e-12)

    def test_bundled_oldest_platform(self, demo_reports):
        assert demo_reports["v4i"].lifetime_exaflops_per_chip == pytest.approx(3384.4, rel=1e-4)


class TestReportAndEstimates:
    def test_total_is_exact_component_sum(self):
        rep = CciReport(
            spec=spec(),
            window=window(),
            breakdown=breakdown(),
            factor_g_per_kwh=136.0,
            pue=1.1,
            energy_kwh_per_exaflop=1.93,
            embodied_cci=79.0,
            operational_cci=263.0,
            lifetime_exaflops_per_chip=8746.0,
        )
        assert rep.total_cci == rep.embodied_cci + rep.operational_cci
        assert rep.total_cci == 342.0

    def test_standard_change_moves_only_operational(
        self, fleet_dataset, platforms, inventories
    ):
        w = aggregate(fleet_dataset, "v5p")
        s = platforms["v5p"]
        breakdown = per_chip_embodied(inventories["v5p"], s)
        mb = build_report(w, s, breakdown, 135.0, 1.10)
        lb = build_report(w, s, breakdown, 366.0, 1.10)
        assert lb.embodied_cci == mb.embodied_cci
        assert lb.operational_cci / mb.operational_cci == pytest.approx(366 / 135, rel=1e-12)

    def test_full_report_totals_exact(self, fleet_dataset, platforms, inventories):
        for pid, s in platforms.items():
            w = aggregate(fleet_dataset, pid)
            breakdown = per_chip_embodied(inventories[s.inventory_ref], s)
            rep = build_report(w, s, breakdown, 135.0, 1.10)
            assert rep.total_cci == rep.embodied_cci + rep.operational_cci
            assert rep.embodied_cci >= 0 and rep.operational_cci >= 0
