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

from dataclasses import dataclass

from .errors import ComputationError
from .lca import EmbodiedBreakdown
from .telemetry import FleetWindow, PlatformSpec

EXA = 1e18  # FLOPs per ExaFLOP
J_PER_KWH = 3.6e6


@dataclass(frozen=True)
class CciReport:
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


@dataclass(frozen=True)
class WorkloadEstimate:
    """Ballpark emissions for a job of known FLOP count."""

    flops: float
    embodied_g: float
    operational_g: float

    @property
    def total_g(self) -> float:
        return self.embodied_g + self.operational_g


def kwh_per_exaflop(power_w: float, flops_per_s: float, pue: float) -> float:
    """kWh per 10^18 FLOPs at a mean power and utilized FLOP rate, PUE-inclusive."""
    return power_w / flops_per_s * EXA / J_PER_KWH * pue


def energy_per_exaflop(window: FleetWindow, pue: float) -> float:
    """Measured kWh consumed per 10^18 utilized FLOPs, including overhead."""
    if window.total_flops <= 0:
        raise ComputationError(f"no utilized compute in window for {window.platform_id!r}")
    return kwh_per_exaflop(
        window.mean_machine_power_w, window.total_flops / window.machine_seconds, pue
    )


def operational_cci(energy_kwh_per_exaflop: float, factor_g_per_kwh: float) -> float:
    """Grams CO2e for a quantity of energy (per ExaFLOP, or any kWh) at a grid factor."""
    if energy_kwh_per_exaflop < 0 or factor_g_per_kwh < 0:
        raise ValueError("inputs must be non-negative")
    return energy_kwh_per_exaflop * factor_g_per_kwh


def embodied_cci(embodied_g_per_chip: float, lifetime_exaflops_per_chip: float) -> float:
    if lifetime_exaflops_per_chip <= 0:
        raise ComputationError("zero lifetime compute; embodied intensity undefined")
    return embodied_g_per_chip / lifetime_exaflops_per_chip


def lifetime_exaflops(window: FleetWindow, spec: PlatformSpec) -> float:
    """Measured utilized FLOP rate per chip extrapolated over the lifetime.

    Uses the observed rate rather than peak throughput times an assumed
    utilization, so idle and underused machines weigh the figure down.
    """
    chip_seconds = window.machine_seconds * spec.chips_per_machine
    rate = window.total_flops / chip_seconds
    return rate * spec.lifetime_seconds / EXA


def build_report(
    window: FleetWindow,
    spec: PlatformSpec,
    breakdown: EmbodiedBreakdown,
    factor_g_per_kwh: float,
    pue: float,
) -> CciReport:
    """Assemble the full carbon-intensity report for one platform."""
    epf = energy_per_exaflop(window, pue)
    lef = lifetime_exaflops(window, spec)
    return CciReport(
        spec, window, breakdown, factor_g_per_kwh, pue,
        energy_kwh_per_exaflop=epf,
        embodied_cci=embodied_cci(breakdown.total * 1000.0, lef),
        operational_cci=operational_cci(epf, factor_g_per_kwh),
        lifetime_exaflops_per_chip=lef,
    )


def estimate_workload(flops_total: float, report: CciReport) -> WorkloadEstimate:
    """Emissions for a job, split by the report's component intensities."""
    if flops_total < 0:
        raise ValueError("flops_total must be non-negative")
    exaflops = flops_total / EXA
    return WorkloadEstimate(
        flops=flops_total,
        embodied_g=exaflops * report.embodied_cci,
        operational_g=exaflops * report.operational_cci,
    )

