"""Fleet interval telemetry: one validating pass into a per-cell ledger.

Machines report one row per five-minute interval: per-tray average power,
duty cycle, and executed FLOPs. `ingest` reads the rows once and builds no
object per row. Each row is validated against a platform catalog
(malformed rows land in a rejection log with their reason, never dropped
silently); a row lacking power, duty cycle or FLOPs is only counted in
`exclusions`; every complete row is folded into the cell of its platform
and duty-cycle bucket, which keeps the row count, exact sums of machine
power and duty cycle, and the FLOP total as an integer.

Everything downstream reads those cells: `aggregate` combines one
platform's cells into a `FleetWindow`, and the duty-balanced comparison
takes a cohort's cells as its strata. Because the power and duty sums are
exact (Shewchuk partials), a window's totals are the correctly rounded
sums of its rows whatever order the rows arrived in.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

from .errors import ComputationError, IngestError

INTERVAL_SECONDS = 300
GRID_SNAP_TOLERANCE_S = 5
HOURS_PER_YEAR = 8766.0  # 365.25 days

# Reasons an accepted row is kept out of the cells, counted in `exclusions`.
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

# Distinct raw timestamps remembered at once; a fleet repeats each interval's
# text once per machine, so the cache only fills on pathological input.
_SNAP_CACHE_LIMIT = 1 << 16


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
class BucketScheme:
    """Equal-width, right-closed duty-cycle levels covering [0, 1].

    The first bucket additionally includes 0 itself: idle machines still
    burn power and must stay in the analysis.
    """

    buckets: int = 10

    def __post_init__(self) -> None:
        if self.buckets < 1:
            raise ValueError("bucket count must be >= 1")

    def bucket_of(self, duty_cycle: float) -> int:
        if not 0.0 <= duty_cycle <= 1.0:
            raise ValueError(f"duty_cycle {duty_cycle} outside [0, 1]")
        return max(0, math.ceil(duty_cycle * self.buckets) - 1)


def _grow(partials: list[float], x: float) -> None:
    """Add x to a list of Shewchuk partials, keeping their sum exact."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class Cell:
    """Running totals of the complete rows in one (platform, duty-bucket) cell.

    `power` and `duty` are Shewchuk partials: non-overlapping floats whose
    exact sum is the exact sum of every machine power (W) or duty cycle
    added, so `math.fsum` over the partials of any set of cells is the
    correctly rounded total of their rows.
    """

    __slots__ = ("count", "power", "duty", "flops")

    def __init__(self) -> None:
        self.count = 0
        self.power: list[float] = []
        self.duty: list[float] = []
        self.flops = 0

    def add(self, power_w: float, duty_cycle: float, flops: int) -> None:
        self.count += 1
        _grow(self.power, power_w)
        _grow(self.duty, duty_cycle)
        self.flops += flops


@dataclass(frozen=True)
class Rejection:
    """One malformed input row: 1-based data row number plus the reason."""

    row: int
    reason: str


@dataclass(frozen=True)
class FleetDataset:
    """The ledger of one ingest, plus the catalog its rows were validated against.

    `samples` maps (platform_id, duty bucket under `scheme`) to the Cell of
    that platform's complete rows. `accepted` counts every accepted row per
    platform, incomplete ones included; `len()` is their total.
    """

    samples: dict[tuple[str, int], Cell]
    catalog: dict[str, PlatformSpec]
    scheme: BucketScheme = BucketScheme()
    accepted: dict[str, int] = field(default_factory=dict)
    rejections: tuple[Rejection, ...] = ()
    exclusions: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return sum(self.accepted.values())

    @property
    def complete_rows(self) -> int:
        return sum(cell.count for cell in self.samples.values())

    def platform_ids(self) -> tuple[str, ...]:
        return tuple(sorted(self.accepted))


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
        try:
            readings = tuple(map(float, raw.split(";")))
        except ValueError:  # blank readings are skipped; anything else is an error
            readings = tuple(float(p) for p in raw.split(";") if p.strip() != "")
    else:
        readings = tuple(map(float, raw))
    if not math.isfinite(sum(readings)):  # NaN, inf, or a sum beyond float range
        raise ValueError(f"non-finite tray power {readings!r}")
    return readings


def machine_power(tray_power_w: Sequence[float], spec: PlatformSpec) -> float:
    """Whole-machine power in watts: the sum over tray PSU readings.

    When the catalog declares that readings exclude rectifier losses, the
    configured overhead fraction is added on top; by default readings are
    taken at the PSU and already include it.
    """
    if not tray_power_w:
        raise ComputationError(f"no power data for platform {spec.platform_id!r}")
    total = math.fsum(tray_power_w)
    if not spec.power_readings_include_rectifier:
        total *= 1.0 + spec.rectifier_overhead
    return total


class _Fold:
    """Validates rows one at a time and folds the accepted ones into cells."""

    def __init__(self, catalog: dict[str, PlatformSpec], scheme: BucketScheme) -> None:
        self.catalog = catalog
        self.scheme = scheme
        self.cells: dict[tuple[str, int], Cell] = {}
        self.accepted: dict[str, int] = {}
        self.exclusions: dict[str, int] = {}
        self.epochs: dict[str, int] = {}  # raw timestamp -> snapped epoch seconds
        self.seen: dict[str, set[int]] = {}  # machine_id -> snapped epochs accepted

    def _snap(self, raw_ts) -> int:
        text = str(raw_ts)
        try:
            snapped = snap_to_grid(parse_rfc3339(text))
        except ValueError as exc:
            raise ValueError(f"bad timestamp {raw_ts!r}: {exc}") from None
        if snapped is None:
            raise ValueError(f"timestamp {raw_ts!r} off the 5-minute grid")
        if len(self.epochs) >= _SNAP_CACHE_LIMIT:
            self.epochs.clear()
        epoch = self.epochs[text] = int(snapped.timestamp())
        return epoch

    def row(self, machine_id, platform_id, raw_ts, raw_power, raw_duty, raw_flops) -> None:
        """Fold one row's raw fields; a ValueError carries the rejection reason.

        Checks run in a fixed order and the first failure is the reason:
        platform, timestamp, the three numbers' syntax, their ranges, the
        tray count, then the (machine, interval) key.
        """
        platform_id = str(platform_id or "").strip()
        spec = self.catalog.get(platform_id)
        if spec is None:
            raise ValueError(f"unknown platform_id {platform_id!r}")
        if raw_ts is None or raw_ts == "":
            raise ValueError("missing interval_start")
        epoch = self.epochs.get(raw_ts) if type(raw_ts) is str else None
        if epoch is None:
            epoch = self._snap(raw_ts)

        trays: tuple[float, ...] = ()
        if raw_power is not None and raw_power != "":
            try:
                trays = _parse_tray_power(raw_power)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"bad number: tray_power_w {raw_power!r}") from None
        duty: float | None = None
        if raw_duty is not None and raw_duty != "":
            try:
                duty = float(raw_duty)
            except (TypeError, ValueError, OverflowError):
                raise ValueError(f"bad number: duty_cycle {raw_duty!r}") from None
        flops: int | None = None
        if raw_flops is not None and raw_flops != "":
            try:
                flops = _parse_flops(raw_flops)
            except (TypeError, ValueError):
                raise ValueError(f"bad number: flops {raw_flops!r}") from None

        if duty is not None and not 0.0 <= duty <= 1.0:
            raise ValueError(f"range violation: duty_cycle {duty} outside [0, 1]")
        if flops is not None and flops < 0:
            raise ValueError(f"range violation: flops {flops} is negative")
        for w in trays:
            if w < 0:
                raise ValueError(f"range violation: tray power {w} is negative")
        if trays and len(trays) != spec.trays_per_machine:
            raise ValueError(
                f"tray count: {len(trays)} readings, platform {platform_id!r} "
                f"has {spec.trays_per_machine} trays"
            )

        machine_id = str(machine_id or "").strip()
        seen = self.seen.get(machine_id)
        if seen is None:
            seen = self.seen[machine_id] = set()
        if epoch in seen:
            at = datetime.fromtimestamp(epoch, tz=timezone.utc).isoformat()
            raise ValueError(f"duplicate row for machine {machine_id!r} at {at}")
        seen.add(epoch)

        self.accepted[platform_id] = self.accepted.get(platform_id, 0) + 1
        if not trays or duty is None or flops is None:
            reason = REASON_MISSING_UTILIZATION if trays else REASON_MISSING_POWER
            self.exclusions[reason] = self.exclusions.get(reason, 0) + 1
            return
        key = (platform_id, self.scheme.bucket_of(duty))
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = Cell()
        cell.add(machine_power(trays, spec), duty, flops)


def _csv_rows(fh) -> Iterator[tuple]:
    """Each CSV data row's TELEMETRY_COLUMNS fields, as csv.DictReader would give them.

    Columns are found by header name (the last of a repeated name wins);
    a column the header lacks, or a short row, reads as None, and blank
    lines are skipped.
    """
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None:
        return
    width = len(header)
    index = {name: i for i, name in enumerate(header)}
    columns = [index.get(name, width) for name in TELEMETRY_COLUMNS]  # slot `width` holds None
    missing = width in columns
    need = max(columns) + 1
    pick = itemgetter(*columns)
    for row in reader:
        if not row:
            continue
        if missing:
            del row[width:]  # fields beyond the header belong to no column
        if len(row) < need:
            row.extend([None] * (need - len(row)))
        yield pick(row)


def _record_fields(record) -> tuple:
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    return tuple(record.get(name) for name in TELEMETRY_COLUMNS)


def _json_fields(line: str) -> tuple:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc.msg}") from None
    except RecursionError:
        raise ValueError("bad JSON: nested too deeply") from None
    return _record_fields(record)


def _parsed(fields, records) -> Iterator[tuple | ValueError]:
    for record in records:
        try:
            item = fields(record)
        except ValueError as exc:
            item = exc
        yield item


def _iter_rows(source) -> Iterator[tuple | ValueError]:
    """Yield each row's raw fields in TELEMETRY_COLUMNS order.

    A JSON line that does not decode to an object, or a non-dict record,
    yields the ValueError naming why, so `ingest` rejects it as one row and
    reads on.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            with path.open("r", encoding="utf-8", newline="") as fh:
                if path.suffix in (".jsonl", ".ndjson", ".json"):
                    lines = (line for line in fh if line.strip())
                    yield from _parsed(_json_fields, lines)
                else:
                    yield from _csv_rows(fh)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise IngestError(f"cannot read telemetry {path}: {exc}") from None
        return
    yield from _parsed(_record_fields, source)


def ingest(
    source, catalog: dict[str, PlatformSpec], scheme: BucketScheme = BucketScheme()
) -> FleetDataset:
    """Validate a telemetry stream against a platform catalog into a ledger.

    `source` may be a path (CSV by default, JSON lines for .jsonl, .ndjson
    or .json) or an iterable of record dicts; wrap an open CSV text file in
    `csv.DictReader` to pass it as the latter. Every row goes through the
    same checks. Every unparseable row, malformed JSON included, is recorded
    in the rejection log with its 1-based row number; so is a repeat of an
    accepted row's (machine_id, interval) key, after the first. Complete
    rows are folded into cells by platform and `scheme` bucket; an empty
    input yields an empty dataset.
    """
    fold = _Fold(catalog, scheme)
    rejections: list[Rejection] = []
    for row_no, fields in enumerate(_iter_rows(source), start=1):
        if isinstance(fields, ValueError):
            rejections.append(Rejection(row=row_no, reason=str(fields)))
            continue
        try:
            fold.row(*fields)
        except ValueError as exc:
            rejections.append(Rejection(row=row_no, reason=str(exc)))
    return FleetDataset(
        samples=fold.cells,
        catalog=dict(catalog),
        scheme=scheme,
        accepted=fold.accepted,
        rejections=tuple(rejections),
        exclusions=fold.exclusions,
    )


def exclude_incomplete(dataset: FleetDataset) -> FleetDataset:
    """Return the ledger unchanged.

    `ingest` already keeps rows lacking power, duty cycle or FLOPs out of
    the cells and counts them per reason in `exclusions`. The function
    stays because perfbench/spans.py traces it as a layer boundary.
    """
    return dataset


def aggregate(dataset: FleetDataset, platform_id: str) -> FleetWindow:
    """Combine one platform's cells into a FleetWindow.

    Only complete rows reach the cells. Every row is one machine-interval,
    so the mean machine power is implicitly machine-day weighted; a
    deployment-count weighted mean would require a machine census this data
    does not carry.
    """
    if platform_id not in dataset.catalog:
        raise ComputationError(f"platform {platform_id!r} not in catalog")
    cells = [cell for (pid, _), cell in dataset.samples.items() if pid == platform_id]
    if not cells:
        raise ComputationError(f"empty window for platform {platform_id!r}")
    return FleetWindow(
        platform_id=platform_id,
        sample_count=sum(cell.count for cell in cells),
        power_sum_w=math.fsum(p for cell in cells for p in cell.power),
        total_flops=sum(cell.flops for cell in cells),
        duty_cycle_sum=math.fsum(d for cell in cells for d in cell.duty),
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
