"""Cradle-to-grave embodied emissions per machine and per chip.

Inventories arrive as data, already in kgCO2e: component entries per tray
instance, transport legs, and per-chip construction and direct-fuel
allocations. This module composes them, allocates them per chip, and
exposes both an amortized life-cycle view and a corporate-inventory view
that books hardware in year one. `inventory_for` is the one place a
platform's inventory is looked up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ComputationError, ConfigError
from .telemetry import PlatformSpec, finite_sum

COMPONENT_CATEGORIES = (
    "tpu_asic",
    "hbm",
    "cpu",
    "dram",
    "ssd",
    "pcba",
    "thermal",
    "mechanical",
    "nic",
    "misc",
)
TRAY_ROLES = ("accelerator", "host")
TRANSPORT_MODES = ("air", "ocean", "ground")


@dataclass(frozen=True)
class LcaComponentEntry:
    """Cradle-to-gate emissions of one component type on one tray."""

    name: str
    category: str
    tray: str  # "accelerator" or "host"
    kg_co2e: float  # per tray instance

    def __post_init__(self) -> None:
        if self.category not in COMPONENT_CATEGORIES:
            raise ValueError(f"unknown component category {self.category!r}")
        if self.tray not in TRAY_ROLES:
            raise ValueError(f"unknown tray role {self.tray!r}")
        if self.kg_co2e < 0:
            raise ValueError(f"{self.name}: negative kgCO2e")


@dataclass(frozen=True)
class TransportLeg:
    """One shipping segment, either directly quantified or parametric.

    Exactly one of kg_co2e or the (mass, distance, mode factor) triple must
    be given. Mass covers the tray plus its packaging.
    """

    description: str
    mode: str
    tray: str  # which tray role's shipment this leg belongs to
    kg_co2e: float | None = None
    mass_kg: float | None = None
    distance_km: float | None = None
    mode_factor_g_per_tkm: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in TRANSPORT_MODES:
            raise ValueError(f"unknown transport mode {self.mode!r}")
        if self.tray not in TRAY_ROLES:
            raise ValueError(f"unknown tray role {self.tray!r}")
        parametric = (self.mass_kg, self.distance_km, self.mode_factor_g_per_tkm)
        if self.kg_co2e is not None and any(v is not None for v in parametric):
            raise ValueError(f"{self.description}: give either kg_co2e or the parametric form, not both")
        if self.kg_co2e is None and any(v is None for v in parametric):
            raise ValueError(f"{self.description}: needs kg_co2e or all of mass/distance/mode factor")
        for name in ("kg_co2e", "mass_kg", "distance_km", "mode_factor_g_per_tkm"):
            if (value := getattr(self, name)) is not None and value < 0:
                raise ValueError(f"{self.description}: {name} must be >= 0")

    def emissions_kg(self) -> float:
        if self.kg_co2e is not None:
            return self.kg_co2e
        # g/t-km: /1000 for kg->t of mass, /1000 for g->kg of CO2e
        return self.mass_kg * self.distance_km * self.mode_factor_g_per_tkm / 1e6


@dataclass(frozen=True)
class MachineInventory:
    """Everything embodied about one machine build."""

    platform_id: str
    accelerator_trays: int
    components: tuple[LcaComponentEntry, ...]
    transport_legs: tuple[TransportLeg, ...] = ()
    dc_construction_kg_per_chip: float = 0.0
    scope1_kg_per_chip: float = 0.0
    eol_credit_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.accelerator_trays < 1:
            raise ValueError(f"{self.platform_id}: accelerator_trays must be >= 1")
        if not 0.0 <= self.eol_credit_fraction <= 0.04:
            raise ValueError(f"{self.platform_id}: eol_credit_fraction outside [0, 0.04]")
        for name in ("dc_construction_kg_per_chip", "scope1_kg_per_chip"):
            if getattr(self, name) < 0:
                raise ValueError(f"{self.platform_id}: {name} must be >= 0")


@dataclass(frozen=True)
class EmbodiedBreakdown:
    """Per-chip embodied emissions, kgCO2e, by source."""

    cpu_mt: float  # host tray manufacturing + transport
    tpu_mt: float  # accelerator tray(s) manufacturing + transport
    dc_construction: float
    eol: float  # credit, <= 0
    scope1: float

    @property
    def total(self) -> float:
        return self.cpu_mt + self.tpu_mt + self.dc_construction + self.eol + self.scope1


@dataclass(frozen=True)
class InventoryViews:
    """Yearly embodied-emission series under two accounting conventions."""

    years: tuple[int, ...]
    lca_amortized: tuple[float, ...]  # even spread across the lifetime
    corporate_first_year: tuple[float, ...]  # hardware booked entirely in year 1


def inventory_for(
    spec: PlatformSpec, inventories: dict[str, MachineInventory]
) -> MachineInventory:
    """The inventory a catalog platform names through its `inventory_ref`, or else its own id."""
    ref = spec.inventory_ref or spec.platform_id
    inv = inventories.get(ref)
    if inv is None:
        raise ConfigError(
            f"platform {spec.platform_id!r} names inventory {ref!r}, "
            "which the inventories file does not define"
        )
    return inv


def tray_multiplicity(inv: MachineInventory, tray: str) -> int:
    """How many trays of a role one machine holds."""
    return inv.accelerator_trays if tray == "accelerator" else 1


def machine_manufacturing(inv: MachineInventory, tray: str | None = None) -> float:
    """Manufacturing kgCO2e per machine: tray entries times tray count; it must be finite."""
    entries = (e for e in inv.components if tray is None or e.tray == tray)
    return finite_sum(
        f"platform {inv.platform_id!r}",
        "manufacturing total",
        (e.kg_co2e * tray_multiplicity(inv, e.tray) for e in entries),
    )


def machine_transport(inv: MachineInventory, tray: str | None = None) -> float:
    """Transport kgCO2e per machine over all shipping legs; it must be finite."""
    legs = (leg for leg in inv.transport_legs if tray is None or leg.tray == tray)
    return finite_sum(
        f"platform {inv.platform_id!r}", "transport total", (leg.emissions_kg() for leg in legs)
    )


def per_chip_embodied(inv: MachineInventory, spec: PlatformSpec) -> EmbodiedBreakdown:
    """Allocate machine-level embodied emissions across its chips.

    Manufacturing + transport splits by tray role; the end-of-life credit
    (zero unless configured) nets against that sum; construction and
    direct-fuel allocations arrive per chip already. A total beyond float
    range is a ComputationError naming the platform.
    """
    chips = spec.chips_per_machine
    host_mt = machine_manufacturing(inv, "host") + machine_transport(inv, "host")
    acc_mt = machine_manufacturing(inv, "accelerator") + machine_transport(inv, "accelerator")
    eol = -inv.eol_credit_fraction * (host_mt + acc_mt) / chips
    breakdown = EmbodiedBreakdown(
        cpu_mt=host_mt / chips,
        tpu_mt=acc_mt / chips,
        dc_construction=inv.dc_construction_kg_per_chip,
        eol=eol,
        scope1=inv.scope1_kg_per_chip,
    )
    if not math.isfinite(breakdown.total):
        raise ComputationError(f"platform {spec.platform_id!r}: embodied emissions per chip are not finite")
    return breakdown


def _even_series(total: float, n: int) -> tuple[float, ...]:
    """n near-equal slices whose float sum is exactly `total`."""
    if n == 1:
        return (total,)
    per_year = total / n
    last = float(Fraction(total) - Fraction(per_year) * (n - 1))
    return (per_year,) * (n - 1) + (last,)


def inventory_views(inv: MachineInventory, spec: PlatformSpec) -> InventoryViews:
    """Per-chip embodied emissions per year under both conventions.

    The amortized view spreads everything evenly across the machine
    lifetime. The corporate view books all hardware embodied emissions in
    the first year, with only the construction allocation still following
    its own multi-year schedule. Years count from the platform's
    deployment year (1 when the catalog gives none).
    """
    lifetime = int(round(spec.lifetime_years))
    if lifetime < 1:
        raise ComputationError(f"{spec.platform_id}: lifetime rounds to zero years")
    breakdown = per_chip_embodied(inv, spec)
    hardware = breakdown.cpu_mt + breakdown.tpu_mt + breakdown.eol + breakdown.scope1
    dc = breakdown.dc_construction
    start = spec.deployment_year or 1
    years = tuple(range(start, start + lifetime))
    lca_series = _even_series(hardware + dc, lifetime)
    dc_series = _even_series(dc, lifetime)
    corporate = (hardware + dc_series[0],) + dc_series[1:]
    return InventoryViews(
        years=years,
        lca_amortized=lca_series,
        corporate_first_year=corporate,
    )
