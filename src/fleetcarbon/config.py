"""Run configuration, and the one strict reader every JSON document goes through.

Relative paths in a run config resolve against the file's own directory, so
a config can travel with its data. A bundled demo config (and the fixture
catalog, inventories, factor sets, telemetry and workload runs it points
to) ships inside the package.

`read_document` decodes a document under one error policy. `read_model`
builds a dataclass from a decoded JSON object, taking each key's name,
default and type from its fields: a `float` is a finite number (a JSON
number or numeric text), an `int` a whole one, a `bool` only JSON true or
false, a `str` text or a JSON number (read as its text, never null, a
boolean, a list or an object), a `Path` only non-empty text; `X | None` may
be null, `tuple[T, ...]` is a JSON list, `dict[str, M]` a JSON object of
models and a nested dataclass is read the same way. The key of a
`dict[str, M]` entry fills M's first field (a platform's id, a standard's
label, a scenario's name), so the entry may not hold it. An absent key
takes its field's default, or is an error without one. A key that names no
field, at any depth, would otherwise fall back to its default unseen. So
one walk both reads and checks a document: each model's unknown keys are
found before its fields are read, and the unknown keys met before an error
are named in its place.
Each model checks its own ranges in `__post_init__`, so a value out of
range is named by the same ConfigError as a value of the wrong type.
"""

from __future__ import annotations

import functools
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Callable, TypeVar

from .errors import ConfigError
from .factors import EmissionFactorSet, ScenarioSpec
from .lca import MachineInventory
from .telemetry import BucketScheme, PlatformSpec, _text

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

    def __post_init__(self) -> None:
        if both := sorted(set(self.accept) & set(self.reject)):
            raise ValueError(f"incomplete_runs: {', '.join(map(repr, both))} both accepted and rejected")

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
        BucketScheme(self.buckets)  # raises for a count ingest cannot bucket by
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

    Keyword overrides win over file values, mirroring CLI flags; one out of
    range is named as an option, not as the file's.
    """
    cfg_path = Path(path) if path is not None else bundled_config_path()

    def build(raw: dict) -> RunConfig:
        config = read_model(RunConfig, raw)
        paths = {name: cfg_path.parent / value for name, value in vars(config).items() if isinstance(value, Path)}
        return replace(config, **paths)

    config = read_document(cfg_path, "config", build)
    try:
        config = replace(config, **{k: v for k, v in overrides.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"bad option: {exc}") from None
    for label in ("telemetry", "platforms", "inventories", "factors"):
        if not (path := getattr(config, label)).exists():
            raise ConfigError(f"{label} file does not exist: {path}")
    return config


def finite_number(value) -> float:
    """A JSON number, or a number written as JSON text, as a finite float.

    NaN, infinities and values beyond float range are errors, whether they
    arrive as JSON tokens (`NaN`, `1e400`) or as text (`"nan"`, `"inf"`);
    so is a boolean, which `float` would read as 0.0 or 1.0.
    """
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {value!r}")
    return number


def _whole(value) -> int:
    number = finite_number(value)  # an integer beyond float range would overflow where it is used
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


_SCALARS: dict[type, Callable] = {float: finite_number, int: _whole, bool: _flag, str: _text, Path: _path}


def _at(place: str, key: str) -> str:
    return f"{place}.{key}" if place else key


def _read(hint, value, where: str, given: dict, unknown: list[str]):
    """`value`, found at `where` in its document, read as `hint`; `given` fills fields of its models.

    Before a model's fields are read, the place of each of its keys that
    names no field, or one `given` fills, is appended to `unknown`, sorted.
    """
    convert = _SCALARS.get(hint)
    if convert is not None:
        try:
            return convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if type(None) in args:  # X | None
        return None if value is None else _read(args[0], value, where, given, unknown)
    if origin is tuple:  # tuple[T, ...]
        if not isinstance(value, list):
            raise ValueError(f"{where}: {value!r} is not a list")
        return tuple(_read(args[0], item, f"{where}[{i}]", given, unknown) for i, item in enumerate(value))
    if origin is dict:  # dict[str, M]: each key fills M's first field
        if not isinstance(value, dict):
            raise ValueError(f"{where}: {value!r} is not a JSON object")
        model, first = args[1], next(iter(_schema(args[1])))
        return {key: _read(model, item, _at(where, key), {**given, first: key}, unknown) for key, item in value.items()}
    if not isinstance(value, dict):  # a dataclass
        raise ValueError(f"{where or hint.__name__}: {value!r} is not a JSON object")
    schema = _schema(hint)
    unknown += (_at(where, key) for key in sorted(value.keys() - (schema.keys() - given)))
    values = dict(given)
    for name, (field_hint, required) in schema.items():
        if name in value:
            values[name] = _read(field_hint, value[name], _at(where, name), {}, unknown)
        elif required and name not in given:
            raise ValueError(f"{_at(where, name)} is missing")
    return hint(**values)


@functools.cache
def _schema(cls: type) -> dict[str, tuple[object, bool]]:
    """Each field of `cls`: its type, and whether it lacks a default."""
    hints = typing.get_type_hints(cls)
    return {f.name: (hints[f.name], f.default is MISSING and f.default_factory is MISSING) for f in fields(cls)}


def _reject(unknown: list[str]) -> None:
    """A misspelt key would otherwise fall back to its default: name every one."""
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(map(repr, unknown))}")


def read_model(cls: type[T], raw, place: str = "", /, **given) -> T:
    """Read the decoded JSON value `raw`, found at `place` in its document, as `cls`.

    `cls` is a dataclass, `tuple[M, ...]` or `dict[str, M]` of one; a dict
    entry's key fills M's first field. `given` fills fields of each model
    read, such as a run's intervals taken from another file. One walk reads
    and checks `raw`: each model's keys that name no field, or name one a
    key or `given` fills, are found before its fields are read, and every
    such key met is named in one ValueError, in place of any error the walk
    raised after it. A `str` field takes text or a JSON number, as its text.
    """
    unknown: list[str] = []
    try:
        return _read(cls, raw, place, given, unknown)
    finally:
        _reject(unknown)


def read_document(path: str | Path, what: str, build: Callable[[dict], T], error: type[Exception] = ConfigError) -> T:
    """Decode a JSON-object document and build a model from it.

    The one error policy for every JSON document, the run manifest included:
    an unreadable file, malformed JSON, a non-finite number, a top level that
    is not an object, and a shape or value `build` cannot use all raise `error`.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        raw = json.loads(text, parse_float=finite_number, parse_constant=finite_number)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON, UTF-8 or number
        raise error(f"cannot load {what} {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise error(f"{what} {path} is not a JSON object")
    try:
        return build(raw)
    except (AttributeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise error(f"bad {what} {path}: {exc!r}") from None


def load_platforms(path: str | Path) -> dict[str, PlatformSpec]:
    """A platform catalog, or the one under "platforms" in a manifest `synth.build_manifest` wrote.

    A document holding any key of such a manifest is read as one, so a
    manifest whose "platforms" is misspelt or missing is named as such.
    """

    def build(raw: dict) -> dict[str, PlatformSpec]:
        if raw.keys().isdisjoint(SYNTH_MANIFEST_KEYS):
            return read_model(dict[str, PlatformSpec], raw)
        _reject(sorted(raw.keys() - SYNTH_MANIFEST_KEYS))
        return read_model(dict[str, PlatformSpec], raw["platforms"], "platforms")

    return read_document(path, "platform catalog", build)


def load_inventories(path: str | Path) -> dict[str, MachineInventory]:
    return read_document(path, "inventories", lambda raw: read_model(dict[str, MachineInventory], raw))


@dataclass(frozen=True)
class FactorConfig:
    """The factors file: named accounting standards and what-if scenarios."""

    standards: dict[str, EmissionFactorSet] = field(default_factory=dict)
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
    return read_document(path, "factor sets", lambda raw: read_model(FactorConfig, raw))
