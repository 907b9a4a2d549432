"""Electricity emission factors and what-if scenarios.

Every accounting standard is one `EmissionFactorSet` read from the factors
file: a location-based grid factor and the procurement impact the standard
credits against it. The effective factor is their difference
(`EmissionFactorSet.mb_factor`, the one owner of that rule), so the
location-based standard credits nothing, the market-based standard credits
the annual procurement, and hourly 24/7 matching credits only what its
stricter per-hour matching leaves, as a static impact in the same file.

Plus what-if scenarios that swap in a target operations factor and scale
down manufacturing emissions by their electricity share. Pricing energy at
a factor is `cci.operational_cci`.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EmissionFactorSet:
    """A named electricity accounting standard.

    The effective (market-style) factor is always the location-based
    factor minus the credited procurement impact, so hourly-matching
    standards are expressed by the impact their stricter crediting leaves.
    Its label is its name in the factors file, the key of its entry.
    """

    label: str
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
        if self.manufacturing_baseline_factor <= 0:
            raise ValueError(f"{self.name}: manufacturing_baseline_factor must be > 0")
        if self.manufacturing_target_factor < 0:
            raise ValueError(f"{self.name}: negative manufacturing_target_factor")


def scenario_manufacturing_reduction(spec: ScenarioSpec) -> float:
    """Fraction by which manufacturing emissions fall when fab electricity
    moves from the baseline grid factor to the scenario target factor.

    Only the electricity-driven share of manufacturing scales; a target
    dirtier than the baseline yields a negative reduction (reported as-is,
    the scenario then worsens emissions).
    """
    return spec.manufacturing_electricity_share * (
        1.0 - spec.manufacturing_target_factor / spec.manufacturing_baseline_factor
    )
