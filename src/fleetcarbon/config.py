"""Run configuration: one JSON file naming every input the CLI needs.

Relative paths in the file resolve against the file's own directory, so a
config can travel with its data. A bundled demo config (and the fixture
catalog, inventories, factor sets, telemetry and workload runs it points
to) ships inside the package.

This module parses every configuration document: `read_document` decodes
it under one error policy, and the builders here turn the decoded mapping
into the models of `telemetry`, `lca` and `factors`, reading every
number through `finite_number`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, TypeVar

from .errors import ConfigError
from .factors import EmissionFactorSet, ScenarioSpec
from .lca import LcaComponentEntry, MachineInventory, TransportLeg
from .telemetry import PlatformSpec

DEFAULT_PUE = 1.10
T = TypeVar("T")

# Every key a run config may hold; any other key (a misspelling) is an error.
_CONFIG_KEYS = frozenset(
    (
        "telemetry", "platforms", "inventories", "factors", "run_manifest", "run_intervals",
        "standard", "pue", "buckets", "format", "workload_factor_g_per_kwh", "workload_pue",
        "incomplete_runs",
    )
)
_INCOMPLETE_RUNS_KEYS = frozenset(("accept", "reject"))
# The same rule for the factors file, its standards and its scenarios.
_FACTORS_KEYS = frozenset(("standards", "scenarios"))
_STANDARD_KEYS = frozenset(("label", "lb_factor", "cfe_impact"))
_SCENARIO_KEYS = frozenset(
    (
        "operations_factor_g_per_kwh", "manufacturing_electricity_share", "manufacturing_baseline_factor",
        "manufacturing_target_factor", "apply_manufacturing_reduction", "baseline_standard",
    )
)


@dataclass(frozen=True)
class RunConfig:
    telemetry: Path
    platforms: Path
    inventories: Path
    factors: Path
    run_manifest: Path | None = None
    run_intervals: Path | None = None
    standard: str = "market"
    pue: float = DEFAULT_PUE
    buckets: int = 10
    output_format: str = "csv"
    workload_factor_g_per_kwh: float | None = None
    workload_pue: float = 1.0  # per-step accounting at the machine meter
    incomplete_accept: tuple[str, ...] = ()
    incomplete_reject: tuple[str, ...] = ()

    def validate(self) -> None:
        for label, path in (
            ("telemetry", self.telemetry),
            ("platforms", self.platforms),
            ("inventories", self.inventories),
            ("factors", self.factors),
        ):
            if not path.exists():
                raise ConfigError(f"{label} file does not exist: {path}")
        for label, pue in (("pue", self.pue), ("workload_pue", self.workload_pue)):
            if not 1.0 <= pue < math.inf:
                raise ConfigError(f"{label} {pue} must be finite and >= 1")
        if self.buckets < 1:
            raise ConfigError(f"buckets {self.buckets} must be >= 1")
        if self.output_format not in ("csv", "json", "md"):
            raise ConfigError(f"unknown output format {self.output_format!r}")


def bundled_data_dir() -> Path:
    """Directory holding the fixtures shipped with the package."""
    return Path(resources.files("fleetcarbon") / "data")


def bundled_config_path() -> Path:
    return bundled_data_dir() / "config.json"


def load_config(path: str | Path | None = None, **overrides) -> RunConfig:
    """Read a config file (the bundled demo config when none is given).

    Keyword overrides win over file values, mirroring CLI flags.
    """
    cfg_path = Path(path) if path is not None else bundled_config_path()

    def build(raw: dict) -> RunConfig:
        def _path(key: str) -> Path | None:
            value = raw.get(key)
            return (cfg_path.parent / value) if value else None

        for key in ("telemetry", "platforms", "inventories", "factors"):
            if not raw.get(key):
                raise ConfigError(f"config {cfg_path} is missing {key!r}")
        incomplete = raw.get("incomplete_runs", {})
        _reject_unknown_keys(
            f"config {cfg_path}",
            _unknown_keys(raw, _CONFIG_KEYS) + _unknown_keys(incomplete, _INCOMPLETE_RUNS_KEYS, "incomplete_runs."),
        )
        return RunConfig(
            telemetry=_path("telemetry"),
            platforms=_path("platforms"),
            inventories=_path("inventories"),
            factors=_path("factors"),
            run_manifest=_path("run_manifest"),
            run_intervals=_path("run_intervals"),
            standard=str(raw.get("standard", "market")),
            pue=finite_number(raw.get("pue", DEFAULT_PUE)),
            buckets=int(raw.get("buckets", 10)),
            output_format=str(raw.get("format", "csv")),
            workload_factor_g_per_kwh=(
                finite_number(raw["workload_factor_g_per_kwh"])
                if "workload_factor_g_per_kwh" in raw
                else None
            ),
            workload_pue=finite_number(raw.get("workload_pue", 1.0)),
            incomplete_accept=tuple(incomplete.get("accept", ())),
            incomplete_reject=tuple(incomplete.get("reject", ())),
        )

    config = read_document(cfg_path, "config", build)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        config = replace(config, **clean)
    config.validate()
    return config


def finite_number(value) -> float:
    """A JSON number, or a number written as JSON text, as a finite float.

    NaN, infinities and values beyond float range are errors, whether they
    arrive as JSON tokens (`NaN`, `1e400`) or as text (`"nan"`, `"inf"`).
    """
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _unknown_keys(raw: dict, known: frozenset[str], prefix: str = "") -> list[str]:
    """The keys of `raw` outside `known`, sorted and prefixed with their place in the document.

    Only `raw.keys()` is read, so a key still counts as read only when a builder reads it.
    """
    return [prefix + key for key in sorted(raw.keys() - known)]


def _reject_unknown_keys(where: str, unknown: list[str]) -> None:
    """A misspelt key would otherwise fall back to its default: name every one."""
    if unknown:
        raise ConfigError(f"{where} has unknown keys: {', '.join(map(repr, unknown))}")


def read_document(path: str | Path, what: str, build: Callable[[dict], T]) -> T:
    """Decode a JSON-object document and build a model from it.

    The one error policy for configuration documents: an unreadable file,
    malformed JSON, a non-finite number, a top level that is not an object,
    and a shape or value `build` cannot use all raise ConfigError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=finite_number, parse_constant=finite_number)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or number
        raise ConfigError(f"cannot load {what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    try:
        return build(raw)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what} {path}: {exc!r}") from None


def read_catalog_mapping(entries: dict) -> dict[str, PlatformSpec]:
    """Build a platform catalog from a parsed config mapping."""
    catalog: dict[str, PlatformSpec] = {}
    for platform_id, cfg in entries.items():
        catalog[platform_id] = PlatformSpec(
            platform_id=platform_id,
            chips_per_machine=int(cfg["chips_per_machine"]),
            trays_per_machine=int(cfg["trays_per_machine"]),
            lifetime_years=finite_number(cfg.get("lifetime_years", 6.0)),
            rectifier_overhead=finite_number(cfg.get("rectifier_overhead", 0.04)),
            power_readings_include_rectifier=bool(
                cfg.get("power_readings_include_rectifier", True)
            ),
            inventory_ref=str(cfg.get("inventory_ref", platform_id)),
            deployment_year=(
                int(cfg["deployment_year"]) if "deployment_year" in cfg else None
            ),
        )
    return catalog


def _optional_number(cfg: dict, key: str) -> float | None:
    return finite_number(cfg[key]) if key in cfg else None


def read_inventories(mapping: dict) -> dict[str, MachineInventory]:
    """Build machine inventories from a parsed config mapping."""
    return {
        platform_id: MachineInventory(
            platform_id=platform_id,
            accelerator_trays=int(cfg["accelerator_trays"]),
            components=tuple(
                LcaComponentEntry(
                    name=str(c["name"]),
                    category=str(c["category"]),
                    tray=str(c["tray"]),
                    kg_co2e=finite_number(c["kg_co2e"]),
                )
                for c in cfg.get("components", [])
            ),
            transport_legs=tuple(
                TransportLeg(
                    description=str(leg["description"]),
                    mode=str(leg["mode"]),
                    tray=str(leg["tray"]),
                    kg_co2e=_optional_number(leg, "kg_co2e"),
                    mass_kg=_optional_number(leg, "mass_kg"),
                    distance_km=_optional_number(leg, "distance_km"),
                    mode_factor_g_per_tkm=_optional_number(leg, "mode_factor_g_per_tkm"),
                )
                for leg in cfg.get("transport_legs", [])
            ),
            dc_construction_kg_per_chip=finite_number(cfg.get("dc_construction_kg_per_chip", 0.0)),
            scope1_kg_per_chip=finite_number(cfg.get("scope1_kg_per_chip", 0.0)),
            eol_credit_fraction=finite_number(cfg.get("eol_credit_fraction", 0.0)),
        )
        for platform_id, cfg in mapping.items()
    }


def read_factor_sets(mapping: dict) -> dict[str, EmissionFactorSet]:
    """Build factor sets from the config's named accounting standards."""
    return {
        name: EmissionFactorSet(
            label=str(cfg.get("label", name)),
            lb_factor=finite_number(cfg["lb_factor"]),
            cfe_impact=finite_number(cfg.get("cfe_impact", 0.0)),
        )
        for name, cfg in mapping.items()
    }


def read_scenarios(mapping: dict) -> dict[str, ScenarioSpec]:
    return {
        name: ScenarioSpec(
            name=name,
            operations_factor_g_per_kwh=finite_number(cfg["operations_factor_g_per_kwh"]),
            manufacturing_electricity_share=finite_number(cfg["manufacturing_electricity_share"]),
            manufacturing_baseline_factor=finite_number(cfg["manufacturing_baseline_factor"]),
            manufacturing_target_factor=finite_number(cfg["manufacturing_target_factor"]),
            apply_manufacturing_reduction=bool(cfg.get("apply_manufacturing_reduction", False)),
            baseline_standard=str(cfg.get("baseline_standard", "hourly247")),
        )
        for name, cfg in mapping.items()
    }


def load_platforms(path: str | Path) -> dict[str, PlatformSpec]:
    # synth manifests carry their catalog under a "platforms" key
    return read_document(
        path, "platform catalog", lambda raw: read_catalog_mapping(raw.get("platforms", raw))
    )


def load_inventories(path: str | Path) -> dict[str, MachineInventory]:
    return read_document(path, "inventories", read_inventories)


@dataclass(frozen=True)
class FactorConfig:
    standards: dict[str, EmissionFactorSet]
    scenarios: dict[str, ScenarioSpec] = field(default_factory=dict)

    def factor_for(self, standard: str) -> float:
        """Effective g/kWh for a standard name or scenario:<name>."""
        if standard.startswith("scenario:"):
            name = standard.split(":", 1)[1]
            if name not in self.scenarios:
                raise ConfigError(f"unknown scenario {name!r}")
            return self.scenarios[name].operations_factor_g_per_kwh
        if standard not in self.standards:
            raise ConfigError(f"unknown accounting standard {standard!r}")
        return self.standards[standard].mb_factor


def load_factors(path: str | Path) -> FactorConfig:
    def build(raw: dict) -> FactorConfig:
        standards, scenarios = raw.get("standards", {}), raw.get("scenarios", {})
        unknown = _unknown_keys(raw, _FACTORS_KEYS)
        for name, cfg in standards.items():
            unknown += _unknown_keys(cfg, _STANDARD_KEYS, f"standards.{name}.")
        for name, cfg in scenarios.items():
            unknown += _unknown_keys(cfg, _SCENARIO_KEYS, f"scenarios.{name}.")
        _reject_unknown_keys(f"factor sets {path}", unknown)
        return FactorConfig(standards=read_factor_sets(standards), scenarios=read_scenarios(scenarios))

    return read_document(path, "factor sets", build)
