"""Run configuration, and the one reader every configuration document goes through.

Relative paths in a run config resolve against the file's own directory, so
a config can travel with its data. A bundled demo config (and the fixture
catalog, inventories, factor sets, telemetry and workload runs it points
to) ships inside the package.

`read_document` decodes a document under one error policy. `read_model`
builds a dataclass from a decoded JSON object, taking each key's name,
default and type from its fields: a `float` is a finite number (a JSON
number or numeric text), an `int` a whole one, a `bool` only JSON true or
false, a `str` any value through `str()`, a `Path` only non-empty text;
`X | None` may be null, `tuple[T, ...]` is a JSON list and a nested
dataclass is read the same way.
An absent key takes its field's default, or is an error without one.
`unknown_keys` walks a document against the same fields, so each loader
names every misspelt key, with its place, before it builds any model.
Each model checks its own ranges in `__post_init__`, so a value out of
range is named by the same ConfigError as a value of the wrong type.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

from .errors import ConfigError
from .factors import EmissionFactorSet, ScenarioSpec
from .lca import MachineInventory
from .telemetry import PlatformSpec

if TYPE_CHECKING:
    from .workload import WorkloadRun

DEFAULT_PUE = 1.10
T = TypeVar("T")

SYNTH_MANIFEST_KEYS = frozenset(
    ("seed", "intervals", "buckets", "baseline", "total_rows", "generations", "platforms")
)


@dataclass(frozen=True)
class RunPolicy:
    """Manual-validation verdicts for incomplete runs.

    Incomplete runs still yield valid per-step numbers for the steps they
    did complete, but their measured power is hand-checked; this records
    the outcome. Runs in neither list are processed but flagged.
    """

    accept: tuple[str, ...] = ()
    reject: tuple[str, ...] = ()

    def verdict(self, run: WorkloadRun) -> str:
        if run.run_id in self.reject:
            return "rejected"
        if run.complete or run.run_id in self.accept:
            return "accepted"
        return "needs-validation"


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
    format: str = "csv"
    workload_factor_g_per_kwh: float | None = None
    workload_pue: float = 1.0  # per-step accounting at the machine meter
    incomplete_runs: RunPolicy = RunPolicy()

    def __post_init__(self) -> None:
        for label, pue in (("pue", self.pue), ("workload_pue", self.workload_pue)):
            if not 1.0 <= pue < math.inf:
                raise ValueError(f"{label} {pue} must be finite and >= 1")
        if self.buckets < 1:
            raise ValueError(f"buckets {self.buckets} must be >= 1")
        if self.format not in ("csv", "json", "md"):
            raise ValueError(f"unknown output format {self.format!r}")
        if self.workload_factor_g_per_kwh is not None and self.workload_factor_g_per_kwh < 0:
            raise ValueError(f"workload_factor_g_per_kwh {self.workload_factor_g_per_kwh} must be >= 0")


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
    clean = {k: v for k, v in overrides.items() if v is not None}

    def build(raw: dict) -> RunConfig:
        reject_unknown_keys(f"config {cfg_path}", unknown_keys(RunConfig, raw))
        config = read_model(RunConfig, raw)
        paths = {name: cfg_path.parent / value for name, value in vars(config).items() if isinstance(value, Path)}
        return replace(config, **{**paths, **clean})

    config = read_document(cfg_path, "config", build)
    for label in ("telemetry", "platforms", "inventories", "factors"):
        if not (path := getattr(config, label)).exists():
            raise ConfigError(f"{label} file does not exist: {path}")
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


def _real(value) -> float:
    if isinstance(value, bool):  # float(True) would read as 1.0
        raise TypeError(f"{value!r} is not a number")
    return finite_number(value)


def _whole(value) -> int:
    number = _real(value)  # an integer beyond float range would overflow where it is used
    if not number.is_integer():
        raise ValueError(f"{value!r} is not a whole number")
    return value if type(value) is int else int(number)


def _flag(value) -> bool:
    if type(value) is not bool:  # bool("false") would read as true
        raise TypeError(f"{value!r} is not true or false")
    return value


def _path(value) -> Path:
    if not isinstance(value, str) or not value:  # Path("") would name the working directory
        raise ValueError(f"{value!r} is not a path")
    return Path(value)


_SCALARS: dict[type, Callable] = {float: _real, int: _whole, bool: _flag, str: str, Path: _path}


def _read(hint, value, where: str):
    """`value`, found at `where` in its document, read as the type `hint`."""
    convert = _SCALARS.get(hint)
    if convert is not None:
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    if type(None) in typing.get_args(hint):  # X | None
        return None if value is None else _read(typing.get_args(hint)[0], value, where)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where}: {value!r} is not a list")
        return tuple(_read(typing.get_args(hint)[0], item, f"{where}[{i}]") for i, item in enumerate(value))
    return read_model(hint, value, where)


@functools.cache
def _schema(cls: type) -> dict[str, tuple[object, bool, type | None]]:
    """Each field of `cls`: its type, whether it lacks a default, and the dataclass it holds, if any."""
    hints, schema = typing.get_type_hints(cls), {}
    for f in fields(cls):
        hint = hints[f.name]
        item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else hint
        required = f.default is MISSING and f.default_factory is MISSING
        schema[f.name] = (hint, required, item if is_dataclass(item) else None)
    return schema


def read_model(cls: type[T], raw, place: str = "", /, **given) -> T:
    """Build dataclass `cls` from the decoded JSON object `raw`, found at `place` in its document.

    `given` fills the fields `raw` lacks, such as a platform id taken from its catalog key.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{place or cls.__name__}: {raw!r} is not a JSON object")
    values, prefix = {}, f"{place}." if place else ""
    for name, (hint, required, _) in _schema(cls).items():
        if name in raw:
            values[name] = _read(hint, raw[name], prefix + name)
        elif name in given:
            values[name] = given[name]
        elif required:
            raise ValueError(f"{prefix}{name} is missing")
    return cls(**values)


def _unknown(raw: dict, known, place: str = "") -> list[str]:
    """The keys of `raw` outside `known`, sorted and prefixed with `place` (only `raw.keys()` is read)."""
    return [f"{place}.{key}" if place else key for key in sorted(raw.keys() - known)]


def unknown_keys(cls: type, raw, place: str = "", outside: tuple[str, ...] = ()) -> list[str]:
    """The keys in `raw`, and in the models nested in it, that name no field of `cls`.

    `outside` names fields `read_model` is given, which `raw` may not hold. A value of
    the wrong shape is left for `read_model` to name.
    """
    if not isinstance(raw, dict):
        return []
    schema = _schema(cls)
    unknown = _unknown(raw, schema.keys() - set(outside), place)
    for name, (_, _, model) in schema.items():
        if model is not None and name not in outside and name in raw.keys():
            value, where = raw[name], f"{place}.{name}" if place else name
            items = value if isinstance(value, list) else [value]
            for i, item in enumerate(items):
                unknown += unknown_keys(model, item, f"{where}[{i}]" if items is value else where)
    return unknown


def reject_unknown_keys(where: str, unknown: list[str], error: type[Exception] = ConfigError) -> None:
    """A misspelt key would otherwise fall back to its default: name every one."""
    if unknown:
        raise error(f"{where} has unknown keys: {', '.join(map(repr, unknown))}")


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


def load_platforms(path: str | Path) -> dict[str, PlatformSpec]:
    """A platform catalog, or the one under "platforms" in a manifest `synth.build_manifest` wrote."""

    def build(raw: dict) -> dict[str, PlatformSpec]:
        entries = raw.get("platforms", raw)
        unknown = _unknown(raw, SYNTH_MANIFEST_KEYS) if entries is not raw else []
        for pid, cfg in entries.items():
            unknown += unknown_keys(PlatformSpec, cfg, pid, outside=("platform_id",))
        reject_unknown_keys(f"platform catalog {path}", unknown)
        return {
            pid: read_model(PlatformSpec, cfg, pid, platform_id=pid, inventory_ref=pid)
            for pid, cfg in entries.items()
        }

    return read_document(path, "platform catalog", build)


def load_inventories(path: str | Path) -> dict[str, MachineInventory]:
    def build(raw: dict) -> dict[str, MachineInventory]:
        unknown = []
        for pid, cfg in raw.items():
            found = unknown_keys(MachineInventory, cfg, pid, outside=("platform_id",))
            unknown += [key for key in found if key != f"{pid}.notes"]  # notes: free-text documentation
        reject_unknown_keys(f"inventories {path}", unknown)
        return {pid: read_model(MachineInventory, cfg, pid, platform_id=pid) for pid, cfg in raw.items()}

    return read_document(path, "inventories", build)


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
    """Named accounting standards (a standard's label defaults to its name) and scenarios."""

    def build(raw: dict) -> FactorConfig:
        standards, scenarios = raw.get("standards", {}), raw.get("scenarios", {})
        unknown = _unknown(raw, {f.name for f in fields(FactorConfig)})
        for name, cfg in standards.items():
            unknown += unknown_keys(EmissionFactorSet, cfg, f"standards.{name}")
        for name, cfg in scenarios.items():
            unknown += unknown_keys(ScenarioSpec, cfg, f"scenarios.{name}", outside=("name",))
        reject_unknown_keys(f"factor sets {path}", unknown)
        standards = {n: read_model(EmissionFactorSet, c, f"standards.{n}", label=n) for n, c in standards.items()}
        scenarios = {n: read_model(ScenarioSpec, c, f"scenarios.{n}", name=n) for n, c in scenarios.items()}
        return FactorConfig(standards, scenarios)

    return read_document(path, "factor sets", build)
