"""Electricity emission factors and what-if scenarios.

Supports three standards for valuing consumed electricity:

* location-based: the annual average grid factor, ignoring clean-energy
  procurement;
* market-based: the location factor net of the annual procurement impact
  (`EmissionFactorSet.mb_factor`, the one owner of that rule);
* hourly matching: procurement credited only against consumption in the
  same grid and the same hour, computed from an hourly series.

Plus what-if scenarios that swap in a target operations factor and scale
down manufacturing emissions by their electricity share. Pricing energy at
a factor is `cci.operational_cci`.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ComputationError, IngestError


@dataclass(frozen=True)
class EmissionFactorSet:
    """A named electricity accounting standard for one year.

    The effective (market-style) factor is always the location-based
    factor minus the credited procurement impact, so hourly-matching
    standards are expressed by the impact their stricter crediting leaves.
    """

    label: str
    year: int
    lb_factor: float  # gCO2e/kWh
    cfe_impact: float = 0.0  # gCO2e/kWh credited against lb_factor

    def __post_init__(self) -> None:
        if self.lb_factor < 0:
            raise ValueError(f"{self.label}: negative lb_factor")
        if not 0.0 <= self.cfe_impact <= self.lb_factor:
            raise ValueError(f"{self.label}: cfe_impact must lie in [0, lb_factor]")

    @property
    def mb_factor(self) -> float:
        return self.lb_factor - self.cfe_impact


@dataclass(frozen=True)
class HourlyRecord:
    hour_start: str
    load_kwh: float
    cfe_kwh: float  # procured clean energy delivered to this grid, this hour
    grid_factor: float  # gCO2e/kWh of the local grid mix

    def __post_init__(self) -> None:
        if self.load_kwh < 0 or self.cfe_kwh < 0 or self.grid_factor < 0:
            raise ValueError("hourly quantities must be non-negative")


@dataclass(frozen=True)
class HourlyGridSeries:
    grid_id: str
    records: tuple[HourlyRecord, ...]


@dataclass(frozen=True)
class ScenarioSpec:
    """A what-if configuration for cleaner operations and manufacturing."""

    name: str
    operations_factor_g_per_kwh: float
    manufacturing_electricity_share: float
    manufacturing_baseline_factor: float
    manufacturing_target_factor: float
    apply_manufacturing_reduction: bool = False
    baseline_standard: str = "hourly247"

    def __post_init__(self) -> None:
        if self.operations_factor_g_per_kwh < 0:
            raise ValueError(f"{self.name}: negative operations_factor_g_per_kwh")
        if not 0.0 <= self.manufacturing_electricity_share <= 1.0:
            raise ValueError(f"{self.name}: manufacturing_electricity_share outside [0, 1]")


@dataclass(frozen=True)
class HourlyMatchResult:
    total_emissions_g: float
    factor_g_per_kwh: float
    cfe_share: float
    total_load_kwh: float


def hourly_247_emissions(series: HourlyGridSeries) -> HourlyMatchResult:
    """Residual emissions under strict per-hour, per-grid matching.

    Each hour's consumption is matched with at most that hour's procured
    clean energy; the shortfall is valued at that hour's grid factor.
    Excess clean energy never banks into another hour or grid.
    """
    if not series.records:
        raise ComputationError(f"empty hourly series for grid {series.grid_id!r}")
    residuals = []
    matched = []
    loads = []
    for rec in series.records:
        m = min(rec.load_kwh, rec.cfe_kwh)
        matched.append(m)
        residuals.append((rec.load_kwh - m) * rec.grid_factor)
        loads.append(rec.load_kwh)
    emissions = math.fsum(residuals)
    total_load = math.fsum(loads)
    if total_load <= 0:
        raise ComputationError(f"zero total load in grid {series.grid_id!r}; no factor defined")
    return HourlyMatchResult(
        total_emissions_g=emissions,
        factor_g_per_kwh=emissions / total_load,
        cfe_share=math.fsum(matched) / total_load,
        total_load_kwh=total_load,
    )


def location_based_emissions(series: HourlyGridSeries) -> float:
    """Emissions valuing every kWh of load at its hour's grid factor."""
    return math.fsum(r.load_kwh * r.grid_factor for r in series.records)


def annual_matched_emissions(series: HourlyGridSeries) -> float:
    """Residual emissions when the year's procurement nets against the
    year's consumption as a whole.

    Annual matching does not tie a credited MWh to the hour it was
    consumed, so the credit is applied where the standard permits it to
    count most: against the dirtiest consumption first. This makes annual
    matching a lower bound for the hourly-matched result on the same data.
    """
    budget = math.fsum(r.cfe_kwh for r in series.records)
    hours = sorted(series.records, key=lambda r: r.grid_factor, reverse=True)
    residuals = []
    for rec in hours:
        credited = min(rec.load_kwh, budget)
        budget -= credited
        residuals.append((rec.load_kwh - credited) * rec.grid_factor)
    return math.fsum(residuals)


def scenario_manufacturing_reduction(spec: ScenarioSpec) -> float:
    """Fraction by which manufacturing emissions fall when fab electricity
    moves from the baseline grid factor to the scenario target factor.

    Only the electricity-driven share of manufacturing scales; a target
    dirtier than the baseline yields a negative reduction (reported as-is,
    the scenario then worsens emissions).
    """
    if spec.manufacturing_baseline_factor <= 0:
        raise ValueError(f"{spec.name}: baseline factor must be > 0")
    return spec.manufacturing_electricity_share * (
        1.0 - spec.manufacturing_target_factor / spec.manufacturing_baseline_factor
    )


def read_hourly_series(path: str | Path) -> dict[str, HourlyGridSeries]:
    """Load hourly series from CSV: grid_id, hour_start, load_kwh, cfe_kwh, grid_factor."""
    per_grid: dict[str, list[HourlyRecord]] = {}
    try:
        with Path(path).open("r", encoding="utf-8", newline="") as fh:
            for row_no, row in enumerate(csv.DictReader(fh), start=1):
                try:
                    rec = HourlyRecord(
                        hour_start=row["hour_start"],
                        load_kwh=float(row["load_kwh"]),
                        cfe_kwh=float(row["cfe_kwh"]),
                        grid_factor=float(row["grid_factor"]),
                    )
                except (KeyError, TypeError, ValueError) as exc:
                    raise IngestError(f"{path}: bad hourly row {row_no}: {exc}") from None
                per_grid.setdefault(str(row["grid_id"]), []).append(rec)
    except OSError as exc:
        raise IngestError(f"cannot read hourly series {path}: {exc}") from None
    return {
        grid: HourlyGridSeries(grid_id=grid, records=tuple(records))
        for grid, records in per_grid.items()
    }


def read_factor_sets(mapping: dict, year: int = 0) -> dict[str, EmissionFactorSet]:
    """Build factor sets from the config's named accounting standards."""
    return {
        name: EmissionFactorSet(
            label=str(cfg.get("label", name)),
            year=int(cfg.get("year", year)),
            lb_factor=float(cfg["lb_factor"]),
            cfe_impact=float(cfg.get("cfe_impact", 0.0)),
        )
        for name, cfg in mapping.items()
    }


def read_scenarios(mapping: dict) -> dict[str, ScenarioSpec]:
    return {
        name: ScenarioSpec(
            name=name,
            operations_factor_g_per_kwh=float(cfg["operations_factor_g_per_kwh"]),
            manufacturing_electricity_share=float(cfg["manufacturing_electricity_share"]),
            manufacturing_baseline_factor=float(cfg["manufacturing_baseline_factor"]),
            manufacturing_target_factor=float(cfg["manufacturing_target_factor"]),
            apply_manufacturing_reduction=bool(cfg.get("apply_manufacturing_reduction", False)),
            baseline_standard=str(cfg.get("baseline_standard", "hourly247")),
        )
        for name, cfg in mapping.items()
    }
