import math

import pytest

from fleetcarbon.config import read_catalog_mapping
from fleetcarbon.lca import (
    LcaComponentEntry,
    MachineInventory,
    TransportLeg,
    inventory_views,
    machine_manufacturing,
    machine_transport,
    per_chip_embodied,
)
from fleetcarbon.telemetry import PlatformSpec


def spec(pid="v5e", chips=8, trays=3, lifetime=6, deployed=None):
    return PlatformSpec(
        platform_id=pid,
        chips_per_machine=chips,
        trays_per_machine=trays,
        lifetime_years=lifetime,
        deployment_year=deployed,
    )


def entry(kg, tray="accelerator", category="tpu_asic", name="part"):
    return LcaComponentEntry(name=name, category=category, tray=tray, kg_co2e=kg)


def direct_leg(kg, tray="accelerator", mode="air"):
    return TransportLeg(description="leg", mode=mode, tray=tray, kg_co2e=kg)


def inventory(components=(), legs=(), acc_trays=2, dc=0.0, eol=0.0, scope1=0.0, pid="v5e"):
    return MachineInventory(
        platform_id=pid,
        accelerator_trays=acc_trays,
        components=tuple(components),
        transport_legs=tuple(legs),
        dc_construction_kg_per_chip=dc,
        scope1_kg_per_chip=scope1,
        eol_credit_fraction=eol,
    )


class TestManufacturing:
    def test_reference_machine_total(self, inventories):
        # two accelerator trays at 747 plus one host tray at 782
        assert machine_manufacturing(inventories["v5e"]) == pytest.approx(2276, abs=1e-9)

    def test_empty_inventory(self):
        assert machine_manufacturing(inventory()) == 0

    def test_tray_multiplicity(self):
        inv = inventory(components=[entry(100.0)], acc_trays=3)
        assert machine_manufacturing(inv) == 300.0

    def test_host_counted_once(self):
        inv = inventory(components=[entry(100.0, tray="host", category="cpu")], acc_trays=3)
        assert machine_manufacturing(inv) == 100.0


class TestTransport:
    def test_reference_machine_total(self, inventories):
        assert machine_transport(inventories["v5e"]) == pytest.approx(471, abs=1e-9)

    def test_parametric_leg_arithmetic(self):
        # 0.1 t * 10000 km * 600 g/t-km = 600000 g = 600 kgCO2e
        leg = TransportLeg(
            description="air leg",
            mode="air",
            tray="accelerator",
            mass_kg=100,
            distance_km=10000,
            mode_factor_g_per_tkm=600,
        )
        assert leg.emissions_kg() == pytest.approx(600.0, rel=1e-12)

    def test_parametric_leg_matches_direct_fixture_value(self, inventories):
        # the bundled air leg is parametric and must contribute exactly 355 kg
        air = [
            leg
            for leg in inventories["v5e"].transport_legs
            if leg.mass_kg is not None
        ]
        assert len(air) == 1
        assert air[0].emissions_kg() == pytest.approx(355.0, rel=1e-12)

    def test_no_legs(self):
        assert machine_transport(inventory()) == 0

    def test_leg_with_both_forms_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            TransportLeg(
                description="bad",
                mode="air",
                tray="host",
                kg_co2e=5.0,
                mass_kg=10,
                distance_km=100,
                mode_factor_g_per_tkm=600,
            )

    def test_leg_with_neither_form_rejected(self):
        with pytest.raises(ValueError, match="needs"):
            TransportLeg(description="bad", mode="air", tray="host")

    def test_partial_parametric_rejected(self):
        with pytest.raises(ValueError):
            TransportLeg(description="bad", mode="air", tray="host", mass_kg=10.0)


class TestPerChipEmbodied:
    def test_reference_manufacturing_plus_transport_per_chip(self, inventories):
        b = per_chip_embodied(inventories["v5e"], spec())
        assert b.cpu_mt + b.tpu_mt == pytest.approx((2276 + 471) / 8, abs=1e-9)

    def test_oldest_platform_totals(self, inventories):
        b = per_chip_embodied(inventories["v4i"], spec(pid="v4i"))
        assert b.dc_construction == 59
        assert b.cpu_mt == pytest.approx(119, abs=1e-9)
        assert b.tpu_mt == pytest.approx(208, abs=1e-9)
        assert b.total == pytest.approx(386, abs=1e-9)

    def test_eol_credit_line_item(self):
        inv = inventory(
            components=[entry(400.0), entry(200.0, tray="host", category="cpu")],
            legs=[direct_leg(0.0)],
            eol=0.04,
            acc_trays=2,
        )
        # machine M+T = 1000 kg; 4% credit = -40 kg, allocated over chips
        b = per_chip_embodied(inv, spec(chips=1))
        assert b.eol == pytest.approx(-40.0, rel=1e-12)

    def test_per_chip_times_chips_equals_machine_totals(self, inventories, platforms):
        for pid, s in platforms.items():
            inv = inventories[s.inventory_ref]
            b = per_chip_embodied(inv, s)
            machine_mt = machine_manufacturing(inv) + machine_transport(inv)
            assert (b.cpu_mt + b.tpu_mt) * s.chips_per_machine == pytest.approx(
                machine_mt, rel=1e-12
            )

    def test_breakdown_fields_sum_to_total(self, inventories, platforms):
        for pid, s in platforms.items():
            b = per_chip_embodied(inventories[s.inventory_ref], s)
            assert b.total == b.cpu_mt + b.tpu_mt + b.dc_construction + b.eol + b.scope1

    def test_linear_in_entry_scale(self):
        base = inventory(
            components=[entry(100.0), entry(50.0, tray="host", category="cpu")],
            legs=[direct_leg(30.0)],
            dc=10.0,
        )
        scaled = inventory(
            components=[entry(300.0), entry(150.0, tray="host", category="cpu")],
            legs=[direct_leg(90.0)],
            dc=30.0,
        )
        b0 = per_chip_embodied(base, spec())
        b3 = per_chip_embodied(scaled, spec())
        assert b3.total == pytest.approx(3 * b0.total, rel=1e-12)

    def test_zero_eol_fraction_is_noop(self):
        with_sub = inventory(components=[entry(100.0)], eol=0.0)
        b = per_chip_embodied(with_sub, spec())
        assert b.eol == 0.0
        assert b.total == pytest.approx(100 * 2 / 8)

    def test_eol_fraction_bounds(self):
        with pytest.raises(ValueError):
            inventory(eol=0.05)


class TestInventoryViews:
    def test_even_spread_and_first_year_booking(self):
        inv = inventory(components=[entry(300.0)], acc_trays=1, pid="p")
        # 300 kg per machine, 1 chip in this spec: 300 kg/chip over 6 years
        one_chip = spec(chips=1, trays=2, deployed=2024)
        views = inventory_views(inv, one_chip)
        assert views.lca_amortized == (50.0,) * 6
        assert views.corporate_first_year == (300.0, 0, 0, 0, 0, 0)
        assert views.years == tuple(range(2024, 2030))

    def test_deployment_year_given_as_text(self):
        inv = inventory(components=[entry(300.0)], acc_trays=1, pid="p")
        catalog = read_catalog_mapping(
            {"p": {"chips_per_machine": 1, "trays_per_machine": 2, "deployment_year": "2020"}}
        )
        assert inventory_views(inv, catalog["p"]).years == tuple(range(2020, 2026))

    def test_views_conserve_totals(self, inventories, platforms):
        for pid, s in platforms.items():
            views = inventory_views(inventories[s.inventory_ref], s)
            assert math.fsum(views.lca_amortized) == pytest.approx(
                math.fsum(views.corporate_first_year), rel=1e-12
            )

    def test_lca_series_sums_exactly_to_total(self, inventories, platforms):
        for pid, s in platforms.items():
            total = per_chip_embodied(inventories[s.inventory_ref], s).total
            views = inventory_views(inventories[s.inventory_ref], s)
            assert math.fsum(views.lca_amortized) == total

    def test_dc_construction_keeps_its_own_schedule(self, inventories, platforms):
        s = platforms["v4i"]
        views = inventory_views(inventories["v4i"], s)
        dc_per_year = 59 / 6
        for year_value in views.corporate_first_year[1:]:
            assert year_value == pytest.approx(dc_per_year, rel=1e-12)

    def test_growing_fleet_corporate_view_exceeds_lca_view(self, inventories, platforms):
        # fleet doubling every year: the corporate view books each cohort's
        # hardware up front, so by year four it towers over the LCA view
        s = platforms["v4i"]
        inv = inventories["v4i"]
        cohort_sizes = {0: 1, 1: 2, 2: 4, 3: 8}
        views = inventory_views(inv, s)
        year = 3
        corporate_total = 0.0
        lca_total = 0.0
        for deployed, machines in cohort_sizes.items():
            offset = year - deployed
            if 0 <= offset < len(views.years):
                corporate_total += machines * views.corporate_first_year[offset]
                lca_total += machines * views.lca_amortized[offset]
        assert corporate_total > lca_total
        # brute-force check of the same quantities from first principles
        hardware = (
            machine_manufacturing(inv) + machine_transport(inv)
        ) / s.chips_per_machine
        dc = inv.dc_construction_kg_per_chip
        brute_corporate = 8 * (hardware + dc / 6) + (4 + 2 + 1) * dc / 6
        brute_lca = (8 + 4 + 2 + 1) * (hardware + dc) / 6
        assert corporate_total == pytest.approx(brute_corporate, rel=1e-9)
        assert lca_total == pytest.approx(brute_lca, rel=1e-9)


def test_component_entry_validation():
    with pytest.raises(ValueError):
        entry(-1.0)
    with pytest.raises(ValueError):
        LcaComponentEntry(name="x", category="warp_core", tray="host", kg_co2e=1.0)
    with pytest.raises(ValueError):
        LcaComponentEntry(name="x", category="cpu", tray="host", kg_co2e=1.0, electricity_share=1.2)
