"""Compute carbon intensity: grams CO2e per 10^18 utilized FLOPs.

The denominator is always a quantity of work (ExaFLOPs executed), never a
rate. Intensity splits into an embodied component, spreading a chip's
cradle-to-grave footprint over the work it performs in its lifetime, and
an operational component driven by measured energy per unit of work under
a chosen electricity accounting standard. Energy per ExaFLOP is defined
PUE-inclusive throughout.

This module owns the units (`EXA` FLOPs per ExaFLOP, `J_PER_KWH`) and the
intensity formulas every other module uses: `kwh_per_exaflop` turns a mean
power and FLOP rate into energy per ExaFLOP, and `operational_cci` prices
that energy at a grid factor.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ComputationError
from .lca import EmbodiedBreakdown
from .telemetry import FleetWindow, PlatformSpec

EXA = 1e18  # FLOPs per ExaFLOP
J_PER_KWH = 3.6e6


class CciReport(NamedTuple):
    """Carbon intensity of one platform, with the five inputs `build_report` derived it from."""

    spec: PlatformSpec
    window: FleetWindow
    breakdown: EmbodiedBreakdown
    factor_g_per_kwh: float
    pue: float
    energy_kwh_per_exaflop: float  # PUE-inclusive
    embodied_cci: float  # gCO2e per 10^18 FLOPs
    operational_cci: float
    lifetime_exaflops_per_chip: float

    @property
    def total_cci(self) -> float:
        return self.embodied_cci + self.operational_cci


def kwh_per_exaflop(power_w: float, flops_per_s: float, pue: float) -> float:
    """kWh per 10^18 FLOPs at a mean power and utilized FLOP rate, PUE-inclusive."""
    return power_w / flops_per_s * EXA / J_PER_KWH * pue


def operational_cci(energy_kwh_per_exaflop: float, factor_g_per_kwh: float) -> float:
    """Grams CO2e for a quantity of energy (per ExaFLOP, or any kWh) at a grid factor."""
    return energy_kwh_per_exaflop * factor_g_per_kwh


def build_report(
    window: FleetWindow,
    spec: PlatformSpec,
    breakdown: EmbodiedBreakdown,
    factor_g_per_kwh: float,
    pue: float,
) -> CciReport:
    """Assemble the full carbon-intensity report for one platform.

    Energy per ExaFLOP is the measured kWh per 10^18 utilized FLOPs,
    including overhead. Lifetime ExaFLOPs per chip extrapolate the measured
    utilized FLOP rate per chip over the lifetime, rather than peak
    throughput times an assumed utilization, so idle and underused machines
    weigh the figure down. Embodied intensity spreads the chip's embodied
    grams over that lifetime work.
    """
    if window.total_flops <= 0:
        raise ComputationError(f"no utilized compute in window for {window.platform_id!r}")
    epf = kwh_per_exaflop(window.mean_machine_power_w, window.total_flops / window.machine_seconds, pue)
    rate = window.total_flops / (window.machine_seconds * spec.chips_per_machine)
    lef = rate * spec.lifetime_seconds / EXA
    if lef <= 0:
        raise ComputationError("zero lifetime compute; embodied intensity undefined")
    return CciReport(
        spec, window, breakdown, factor_g_per_kwh, pue,
        energy_kwh_per_exaflop=epf,
        embodied_cci=breakdown.total * 1000.0 / lef,
        operational_cci=operational_cci(epf, factor_g_per_kwh),
        lifetime_exaflops_per_chip=lef,
    )
