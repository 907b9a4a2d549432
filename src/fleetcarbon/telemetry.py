"""Fleet interval telemetry: ingest, validation, filtering, aggregation.

Machines report one row per five-minute interval: per-tray average power,
duty cycle, and executed FLOPs. Rows are validated against a platform
catalog on ingest (malformed rows land in a rejection log, never dropped
silently), filtered for completeness, and aggregated into per-platform
energy and FLOP totals.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

from .errors import ComputationError, IngestError

INTERVAL_SECONDS = 300
GRID_SNAP_TOLERANCE_S = 5
HOURS_PER_YEAR = 8766.0  # 365.25 days

# Exclusion reasons reported by exclude_incomplete.
REASON_MISSING_POWER = "missing power"
REASON_MISSING_UTILIZATION = "missing utilization/performance"

TELEMETRY_COLUMNS = (
    "machine_id",
    "platform_id",
    "interval_start",
    "tray_power_w",
    "duty_cycle",
    "flops",
)


@dataclass(frozen=True)
class PlatformSpec:
    """Static description of one accelerator platform generation."""

    platform_id: str
    chips_per_machine: int
    trays_per_machine: int  # host tray plus accelerator trays
    lifetime_years: float = 6.0
    rectifier_overhead: float = 0.04
    power_readings_include_rectifier: bool = True
    inventory_ref: str = ""
    deployment_year: int | None = None

    def __post_init__(self) -> None:
        if self.chips_per_machine < 1:
            raise ValueError(f"{self.platform_id}: chips_per_machine must be >= 1")
        if self.lifetime_years <= 0:
            raise ValueError(f"{self.platform_id}: lifetime_years must be > 0")
        if self.rectifier_overhead < 0:
            raise ValueError(f"{self.platform_id}: rectifier_overhead must be >= 0")

    @property
    def lifetime_hours(self) -> float:
        return self.lifetime_years * HOURS_PER_YEAR

    @property
    def lifetime_seconds(self) -> float:
        return self.lifetime_hours * 3600.0


@dataclass(frozen=True)
class TelemetrySample:
    """One machine's record for one five-minute interval.

    Missing fields are represented as an empty tray list / None; they mark
    the sample incomplete rather than invalid.
    """

    machine_id: str
    platform_id: str
    interval_start: datetime
    tray_power_w: tuple[float, ...] = ()
    duty_cycle: float | None = None
    flops: int | None = None

    def __post_init__(self) -> None:
        if self.duty_cycle is not None and not 0.0 <= self.duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle {self.duty_cycle} outside [0, 1]")
        if self.flops is not None and self.flops < 0:
            raise ValueError(f"flops {self.flops} is negative")
        for w in self.tray_power_w:
            if w < 0:
                raise ValueError(f"tray power {w} is negative")
        epoch_s = self.interval_start.timestamp()
        if epoch_s % INTERVAL_SECONDS != 0:
            raise ValueError("interval_start not aligned to the 5-minute grid")

    @property
    def has_power(self) -> bool:
        return len(self.tray_power_w) > 0

    @property
    def complete(self) -> bool:
        return self.has_power and self.duty_cycle is not None and self.flops is not None


@dataclass(frozen=True)
class Rejection:
    """One malformed input row: 1-based data row number plus the reason."""

    row: int
    reason: str


@dataclass(frozen=True)
class FleetDataset:
    """Parsed samples plus the catalog they were validated against."""

    samples: tuple[TelemetrySample, ...]
    catalog: dict[str, PlatformSpec]
    rejections: tuple[Rejection, ...] = ()
    exclusions: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.samples)

    def platform_ids(self) -> tuple[str, ...]:
        return tuple(sorted({s.platform_id for s in self.samples}))


@dataclass(frozen=True)
class FleetWindow:
    """Per-platform aggregate over a set of machine-intervals.

    Totals are kept as raw sums so that windows over disjoint sample sets
    combine associatively; derived quantities are properties.
    """

    platform_id: str
    sample_count: int
    power_sum_w: float  # sum of machine power over samples
    total_flops: int
    duty_cycle_sum: float

    @property
    def total_energy_kwh(self) -> float:
        # one sample = one machine running for 300 s = 1/12 h
        return self.power_sum_w * (INTERVAL_SECONDS / 3600.0) / 1000.0

    @property
    def mean_machine_power_w(self) -> float:
        return self.power_sum_w / self.sample_count

    @property
    def machine_seconds(self) -> float:
        return self.sample_count * float(INTERVAL_SECONDS)

    def combine(self, other: "FleetWindow") -> "FleetWindow":
        """Merge the aggregate of a disjoint sample set for the same platform."""
        if other.platform_id != self.platform_id:
            raise ValueError("cannot combine windows of different platforms")
        return FleetWindow(
            platform_id=self.platform_id,
            sample_count=self.sample_count + other.sample_count,
            power_sum_w=self.power_sum_w + other.power_sum_w,
            total_flops=self.total_flops + other.total_flops,
            duty_cycle_sum=self.duty_cycle_sum + other.duty_cycle_sum,
        )


def parse_rfc3339(text: str) -> datetime:
    """Parse an RFC 3339 timestamp into an aware UTC datetime."""
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    dt = datetime.fromisoformat(cleaned)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # an offset pushes the instant outside years 1-9999
        raise ValueError(f"{text!r} is outside the representable UTC range") from None


def snap_to_grid(dt: datetime) -> datetime | None:
    """Snap a timestamp to the 300 s grid if within tolerance, else None."""
    epoch = dt.timestamp()
    nearest = round(epoch / INTERVAL_SECONDS) * INTERVAL_SECONDS
    if abs(epoch - nearest) > GRID_SNAP_TOLERANCE_S:
        return None
    return datetime.fromtimestamp(nearest, tz=timezone.utc)


def _parse_flops(raw: str | int | float) -> int:
    if isinstance(raw, str):
        text = raw.strip()
        try:
            raw = int(text)  # exact for arbitrarily large counts
        except ValueError:
            raw = float(text)
    if isinstance(raw, float):
        if not math.isfinite(raw):
            raise ValueError(f"non-finite flops {raw!r}")
        return round(raw)
    if raw > sys.float_info.max:  # the CCI divides counts as floats
        raise ValueError(f"flops {raw} beyond float range")
    return raw


def _parse_tray_power(raw) -> tuple[float, ...]:
    if isinstance(raw, str):
        raw = [p for p in raw.split(";") if p.strip() != ""]
    readings = tuple(float(p) for p in raw)
    if not math.isfinite(sum(readings)):  # NaN, inf, or a sum beyond float range
        raise ValueError(f"non-finite tray power {readings!r}")
    return readings


def _build_sample(record: dict, catalog: dict[str, PlatformSpec]) -> TelemetrySample:
    platform_id = str(record.get("platform_id") or "").strip()
    if platform_id not in catalog:
        raise ValueError(f"unknown platform_id {platform_id!r}")

    raw_ts = record.get("interval_start")
    if raw_ts in (None, ""):
        raise ValueError("missing interval_start")
    try:
        snapped = snap_to_grid(parse_rfc3339(str(raw_ts)))
    except ValueError as exc:
        raise ValueError(f"bad timestamp {raw_ts!r}: {exc}") from None
    if snapped is None:
        raise ValueError(f"timestamp {raw_ts!r} off the 5-minute grid")

    raw_power = record.get("tray_power_w")
    tray_power: tuple[float, ...] = ()
    if raw_power not in (None, ""):
        try:
            tray_power = _parse_tray_power(raw_power)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"bad number: tray_power_w {raw_power!r}") from None

    raw_duty = record.get("duty_cycle")
    duty: float | None = None
    if raw_duty not in (None, ""):
        try:
            duty = float(raw_duty)
        except (TypeError, ValueError, OverflowError):
            raise ValueError(f"bad number: duty_cycle {raw_duty!r}") from None

    raw_flops = record.get("flops")
    flops: int | None = None
    if raw_flops not in (None, ""):
        try:
            flops = _parse_flops(raw_flops)
        except (TypeError, ValueError):
            raise ValueError(f"bad number: flops {raw_flops!r}") from None

    try:
        return TelemetrySample(
            machine_id=str(record.get("machine_id") or "").strip(),
            platform_id=platform_id,
            interval_start=snapped,
            tray_power_w=tray_power,
            duty_cycle=duty,
            flops=flops,
        )
    except ValueError as exc:
        raise ValueError(f"range violation: {exc}") from None


def _iter_records(source) -> Iterator[dict | str]:
    """Yield raw records from a path or an iterable of dicts.

    A JSON-lines file yields its non-blank lines undecoded, so that `ingest`
    can reject a malformed line as one row and read on.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            with path.open("r", encoding="utf-8", newline="") as fh:
                if path.suffix in (".jsonl", ".ndjson", ".json"):
                    yield from (line for line in fh if line.strip())
                else:
                    yield from csv.DictReader(fh)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise IngestError(f"cannot read telemetry {path}: {exc}") from None
        return
    yield from source


def ingest(source, catalog: dict[str, PlatformSpec]) -> FleetDataset:
    """Parse a telemetry stream against a platform catalog.

    `source` may be a path (CSV by default, JSON lines for .jsonl, .ndjson
    or .json) or an iterable of record dicts; wrap an open CSV text file in
    `csv.DictReader` to pass it as the latter. Every unparseable row,
    malformed JSON included, is recorded in the rejection log with its
    1-based row number; an empty input yields an empty dataset.
    """
    samples: list[TelemetrySample] = []
    rejections: list[Rejection] = []
    for row_no, record in enumerate(_iter_records(source), start=1):
        try:
            if isinstance(record, str):
                record = json.loads(record)
            if not isinstance(record, dict):
                raise ValueError("record is not an object")
            samples.append(_build_sample(record, catalog))
        except json.JSONDecodeError as exc:
            rejections.append(Rejection(row=row_no, reason=f"bad JSON: {exc.msg}"))
        except RecursionError:
            rejections.append(Rejection(row=row_no, reason="bad JSON: nested too deeply"))
        except ValueError as exc:
            rejections.append(Rejection(row=row_no, reason=str(exc)))
    return FleetDataset(samples=tuple(samples), catalog=dict(catalog), rejections=tuple(rejections))


def exclude_incomplete(dataset: FleetDataset) -> FleetDataset:
    """Keep only samples with power, duty cycle, and FLOPs all present.

    Machines may report power but lack utilization or performance counters
    (e.g. freshly deployed ones); keeping them would skew per-FLOP figures,
    so they are dropped here with per-reason counts. Idempotent.
    """
    kept: list[TelemetrySample] = []
    excluded: dict[str, int] = {}
    for sample in dataset.samples:
        if sample.complete:
            kept.append(sample)
        elif not sample.has_power:
            excluded[REASON_MISSING_POWER] = excluded.get(REASON_MISSING_POWER, 0) + 1
        else:
            excluded[REASON_MISSING_UTILIZATION] = excluded.get(REASON_MISSING_UTILIZATION, 0) + 1
    return replace(dataset, samples=tuple(kept), exclusions=excluded)


def machine_power(sample: TelemetrySample, spec: PlatformSpec) -> float:
    """Whole-machine power in watts: the sum over tray PSU readings.

    When the catalog declares that readings exclude rectifier losses, the
    configured overhead fraction is added on top; by default readings are
    taken at the PSU and already include it.
    """
    if not sample.has_power:
        raise ComputationError(f"no power data for {sample.machine_id} at {sample.interval_start}")
    total = math.fsum(sample.tray_power_w)
    if not spec.power_readings_include_rectifier:
        total *= 1.0 + spec.rectifier_overhead
    return total


def aggregate(
    dataset: FleetDataset,
    platform_id: str,
    time_range: tuple[datetime, datetime] | None = None,
) -> FleetWindow:
    """Aggregate complete samples of one platform into a FleetWindow.

    Incomplete samples are skipped, so an unfiltered dataset aggregates to
    the same window as its `exclude_incomplete` copy. `time_range` is a
    half-open [start, end) filter on interval_start. Every sample is one
    machine-interval, so the mean machine power is implicitly machine-day
    weighted; a deployment-count weighted mean would require a machine
    census this data does not carry.
    """
    spec = dataset.catalog.get(platform_id)
    if spec is None:
        raise ComputationError(f"platform {platform_id!r} not in catalog")
    powers: list[float] = []
    duties: list[float] = []
    flops_total = 0
    for sample in dataset.samples:
        if sample.platform_id != platform_id or not sample.complete:
            continue
        if time_range is not None:
            start, end = time_range
            if not (start <= sample.interval_start < end):
                continue
        powers.append(machine_power(sample, spec))
        duties.append(sample.duty_cycle)
        flops_total += sample.flops
    if not powers:
        raise ComputationError(f"empty window for platform {platform_id!r}")
    return FleetWindow(
        platform_id=platform_id,
        sample_count=len(powers),
        power_sum_w=math.fsum(powers),
        total_flops=flops_total,
        duty_cycle_sum=math.fsum(duties),
    )


def lifetime_energy_per_chip(window: FleetWindow, spec: PlatformSpec, pue: float) -> float:
    """Projected lifetime energy per chip in kWh, cooling overhead included.

    Mean machine power is extrapolated over the platform lifetime and
    multiplied by the data-center PUE, then normalized per chip.
    """
    if pue < 1.0:
        raise ValueError(f"pue {pue} must be >= 1")
    per_chip_w = window.mean_machine_power_w / spec.chips_per_machine
    return per_chip_w * spec.lifetime_hours * pue / 1000.0


def write_rejection_log(dataset: FleetDataset, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["row", "reason"])
    for rej in dataset.rejections:
        writer.writerow([rej.row, rej.reason])


def read_catalog_mapping(entries: dict) -> dict[str, PlatformSpec]:
    """Build a platform catalog from a parsed config mapping."""
    catalog: dict[str, PlatformSpec] = {}
    for platform_id, cfg in entries.items():
        catalog[platform_id] = PlatformSpec(
            platform_id=platform_id,
            chips_per_machine=int(cfg["chips_per_machine"]),
            trays_per_machine=int(cfg["trays_per_machine"]),
            lifetime_years=float(cfg.get("lifetime_years", 6.0)),
            rectifier_overhead=float(cfg.get("rectifier_overhead", 0.04)),
            power_readings_include_rectifier=bool(
                cfg.get("power_readings_include_rectifier", True)
            ),
            inventory_ref=str(cfg.get("inventory_ref", platform_id)),
            deployment_year=(
                int(cfg["deployment_year"]) if "deployment_year" in cfg else None
            ),
        )
    return catalog
