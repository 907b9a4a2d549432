"""Run configuration: one JSON file naming every input the CLI needs.

Relative paths in the file resolve against the file's own directory, so a
config can travel with its data. A bundled demo config (and the fixture
catalog, inventories, factor sets, telemetry, hourly series, and workload
runs it points to) ships inside the package.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Callable, TypeVar

from .errors import ConfigError
from .factors import EmissionFactorSet, ScenarioSpec, read_factor_sets, read_scenarios
from .lca import MachineInventory, read_inventories
from .telemetry import PlatformSpec, read_catalog_mapping

DEFAULT_PUE = 1.10
T = TypeVar("T")


@dataclass(frozen=True)
class RunConfig:
    telemetry: Path
    platforms: Path
    inventories: Path
    factors: Path
    hourly_series: Path | None = None
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
        if not 1.0 <= self.pue < math.inf:
            raise ConfigError(f"pue {self.pue} must be finite and >= 1")
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
        return RunConfig(
            telemetry=_path("telemetry"),
            platforms=_path("platforms"),
            inventories=_path("inventories"),
            factors=_path("factors"),
            hourly_series=_path("hourly_series"),
            run_manifest=_path("run_manifest"),
            run_intervals=_path("run_intervals"),
            standard=str(raw.get("standard", "market")),
            pue=float(raw.get("pue", DEFAULT_PUE)),
            buckets=int(raw.get("buckets", 10)),
            output_format=str(raw.get("format", "csv")),
            workload_factor_g_per_kwh=(
                float(raw["workload_factor_g_per_kwh"])
                if "workload_factor_g_per_kwh" in raw
                else None
            ),
            workload_pue=float(raw.get("workload_pue", 1.0)),
            incomplete_accept=tuple(incomplete.get("accept", ())),
            incomplete_reject=tuple(incomplete.get("reject", ())),
        )

    config = read_document(cfg_path, "config", build)
    clean = {k: v for k, v in overrides.items() if v is not None}
    if clean:
        config = replace(config, **clean)
    config.validate()
    return config


def _finite_float(text: str) -> float:
    """JSON number hook: NaN, Infinity and floats beyond range are errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def read_document(path: str | Path, what: str, build: Callable[[dict], T]) -> T:
    """Decode a JSON-object document and build a model from it.

    The one error policy for configuration documents: an unreadable file,
    malformed JSON, a non-finite number, a top level that is not an object,
    and a shape or value `build` cannot use all raise ConfigError.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=_finite_float, parse_constant=_finite_float)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or number
        raise ConfigError(f"cannot load {what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    try:
        return build(raw)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad {what} {path}: {exc!r}") from None


def load_platforms(path: str | Path) -> dict[str, PlatformSpec]:
    # synth manifests carry their catalog under a "platforms" key
    return read_document(
        path, "platform catalog", lambda raw: read_catalog_mapping(raw.get("platforms", raw))
    )


def load_inventories(path: str | Path) -> dict[str, MachineInventory]:
    return read_document(path, "inventories", read_inventories)


@dataclass(frozen=True)
class FactorConfig:
    year: int
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
        year = int(raw.get("year", 0))
        return FactorConfig(
            year=year,
            standards=read_factor_sets(raw.get("standards", {}), year=year),
            scenarios=read_scenarios(raw.get("scenarios", {})),
        )

    return read_document(path, "factor sets", build)
