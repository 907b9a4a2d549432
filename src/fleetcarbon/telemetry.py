"""Fleet interval telemetry: one validating pass into a per-cell ledger.

Machines report one row per five-minute interval: per-tray average power,
duty cycle, and executed FLOPs. `ingest` reads the rows once, in one loop,
and builds no object per row. Decoding a record into its fields is the
first check of its row; the row is then validated against a platform
catalog, each of its numbers parsed once and range-checked once (malformed
rows, undecodable JSON included, land in a rejection log with their
reason, never dropped silently); a row lacking power, duty cycle or FLOPs
is only counted in `exclusions`; every complete row is folded into the
`Cell` of its platform and duty-cycle bucket: row count, FLOP total, and
buffered exact parts of machine power and duty cycle.

Everything downstream reads those cells: `aggregate` combines one
platform's cells into a `FleetWindow`, and the duty-balanced comparison
takes a cohort's cells as its strata. Because no cell ever rounds its
sums, `math.fsum` over cells gives a window's totals correctly rounded,
whatever order the rows arrived in.

The interval clock lives here: `_epoch` reads every interval timestamp (fleet
rows, pod records, `synth`'s start) by one grid rule, and `_stamp` writes one.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .errors import ComputationError, IngestError

INTERVAL_SECONDS = 300
GRID_SNAP_TOLERANCE_S = 5
HOURS_PER_YEAR = 8766.0  # 365.25 days
# The paper serves every TPU generation for 6 years, as the bundled catalog
# does; a catalog may give up to five times that. The amortization table
# writes one row per year of it.
MAX_LIFETIME_YEARS = 30.0

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

# Distinct raw timestamps `_epoch` remembers at once; a fleet repeats each
# interval's text once per machine, so the cache only fills on pathological input.
_SNAP_CACHE_LIMIT = 1 << 16
_MAX_EPOCH = 253402300799  # 9999-12-31T23:59:59Z, the last second a datetime holds
_UNIX_EPOCH = datetime(1970, 1, 1)

# FLOP counts beyond float range are rejected: the CCI divides them as floats.
_FLOPS_MAX = int(sys.float_info.max)
_CELL_BUFFER = 256  # row values a Cell buffers before compacting them


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
        if self.trays_per_machine < 1:
            raise ValueError(f"{self.platform_id}: trays_per_machine must be >= 1")
        if not 0 < self.lifetime_years <= MAX_LIFETIME_YEARS:
            raise ValueError(f"{self.platform_id}: lifetime_years must lie in (0, {MAX_LIFETIME_YEARS:g}]")
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
        # bucket_of multiplies a duty cycle by the count, which keeps it below the count only if exact
        if not (1 <= self.buckets <= sys.float_info.max and float(self.buckets) == self.buckets):
            raise ValueError(f"bucket count {self.buckets} must be >= 1 and held exactly by a float")

    def bucket_of(self, duty_cycle: float) -> int:
        """The bucket of a duty cycle in [0, 1]; callers range-check it first."""
        return math.ceil(duty_cycle * self.buckets) - 1 if duty_cycle else 0


def _compact(values: list[float]) -> None:
    """Replace `values` in place by a few non-overlapping floats with the same exact sum.

    Each round keeps the correctly rounded sum of what is left and subtracts
    it exactly, until nothing is left; a sum beyond float range leaves [inf].
    """
    parts = []
    try:
        while hi := math.fsum(values):
            parts.append(hi)
            values.append(-hi)
    except (OverflowError, ValueError):  # the exact sum overflows, or inf - inf
        parts = [math.inf]
    values[:] = parts


class Cell:
    """Running totals of the complete rows in one (platform, duty-bucket) cell.

    `power` and `duty` hold the machine powers (W) and duty cycles of the
    latest rows, behind a few non-overlapping parts that stand for the
    earlier ones: when a list grows past _CELL_BUFFER it is compacted to
    parts with the same exact sum. So `math.fsum` over the lists of any set
    of cells is the correctly rounded total of their rows, whatever order
    the rows arrived in, and memory grows with cells, not rows.
    """

    __slots__ = ("count", "power", "duty", "flops")

    def __init__(self) -> None:
        self.count = 0
        self.power: list[float] = []
        self.duty: list[float] = []
        self.flops = 0

    def add(self, power_w: float, duty_cycle: float, flops: int) -> None:
        self.count += 1
        self.flops += flops
        self.power.append(power_w)
        self.duty.append(duty_cycle)
        if len(self.power) > _CELL_BUFFER:
            _compact(self.power)
            _compact(self.duty)


class Rejection(NamedTuple):
    """One malformed input row: 1-based data row number plus the reason."""

    row: int
    reason: str


@dataclass(frozen=True)
class FleetDataset:
    """The ledger of one ingest, plus the catalog its rows were validated against.

    `samples` maps (platform_id, duty bucket) to the Cell of that
    platform's complete rows. `accepted` counts every accepted row per
    platform, incomplete ones included; `len()` is their total.
    """

    samples: dict[tuple[str, int], Cell]
    catalog: dict[str, PlatformSpec]
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


class FleetWindow(NamedTuple):
    """Per-platform aggregate over a set of machine-intervals.

    Totals are kept as raw sums; derived quantities are properties.
    """

    platform_id: str
    sample_count: int
    power_sum_w: float  # sum of machine power over samples
    total_flops: int

    @property
    def mean_machine_power_w(self) -> float:
        return self.power_sum_w / self.sample_count

    @property
    def machine_seconds(self) -> float:
        return self.sample_count * float(INTERVAL_SECONDS)


def _numbers(raw_power, raw_duty, raw_flops):
    """A row's tray readings, their sum, its duty cycle and FLOPs; missing ones read as (), 0.0 or None.

    Reads text or JSON values: tray readings are text, whose blank readings
    are skipped, or a list; a boolean is not a number, a fractional FLOP
    count rounds to the nearest, and the exact tray sum and the FLOP count
    must lie within float range. A ValueError names the first field, in
    column order, that does not parse.
    """
    trays, power, duty, flops = (), 0.0, None, None
    field, raw = "tray_power_w", raw_power
    try:
        if raw_power is not None and raw_power != "":
            if isinstance(raw_power, str):  # blank readings are skipped
                readings = tuple(filter(str.strip, raw_power.split(";")))
            elif isinstance(raw_power, (list, tuple)):
                readings = tuple(raw_power)
            else:  # a JSON object would read as the list of its keys
                raise TypeError
            if bool in map(type, readings):  # float(True) would read as 1.0
                raise TypeError
            trays = tuple(map(float, readings))
            power = math.fsum(trays)  # OverflowError when a partial sum leaves float range
            if not math.isfinite(power):  # NaN or inf among the readings
                raise ValueError
        field, raw = "duty_cycle", raw_duty
        if raw_duty is not None and raw_duty != "":
            if type(raw_duty) is bool:
                raise TypeError
            duty = float(raw_duty)
        field, raw = "flops", raw_flops
        if raw_flops is not None and raw_flops != "":
            flops = raw_flops
            if type(flops) is bool:
                raise TypeError
            if isinstance(flops, str):
                try:
                    flops = int(flops)  # exact for arbitrarily large counts
                except ValueError:
                    flops = float(flops)
            if isinstance(flops, float):
                flops = round(flops)  # OverflowError or ValueError unless finite
            if flops > _FLOPS_MAX:
                raise ValueError
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"bad number: {field} {raw!r}") from None
    return trays, power, duty, flops


@lru_cache(maxsize=_SNAP_CACHE_LIMIT)
def _epoch(text: str) -> int:
    """Epoch seconds of an RFC 3339 timestamp snapped to the 300 s grid; a ValueError says why not.

    The grid rule: the stamp gives its offset, and it takes the grid point
    within GRID_SNAP_TOLERANCE_S of it; a stamp further off is refused.
    """
    if not text:
        raise ValueError("missing interval_start")
    cleaned = text.strip()
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(cleaned)
        if dt.tzinfo is None:
            raise ValueError("no time zone")
        epoch = dt.astimezone(timezone.utc).timestamp()
    except ValueError as exc:
        raise ValueError(f"bad timestamp {text!r}: {exc}") from None
    except OverflowError:  # an offset pushes the instant outside years 1-9999
        raise ValueError(f"bad timestamp {text!r}: {text!r} is outside the representable UTC range") from None
    nearest = round(epoch / INTERVAL_SECONDS) * INTERVAL_SECONDS
    if abs(epoch - nearest) > GRID_SNAP_TOLERANCE_S:
        raise ValueError(f"timestamp {text!r} off the 5-minute grid")
    if nearest > _MAX_EPOCH:
        raise ValueError(f"bad timestamp {text!r}: year 10000 is out of range")
    return nearest


def _stamp(epoch: int, zone: str = "+00:00") -> str:
    """The RFC 3339 text of a UTC epoch second, with `zone` as its offset: the inverse of `_epoch` on the grid."""
    return (_UNIX_EPOCH + timedelta(seconds=epoch)).isoformat() + zone


def _csv_rows(fh) -> Iterator:
    """Each CSV data row's TELEMETRY_COLUMNS fields, as csv.DictReader would give them.

    Columns are found by header name (the last of a repeated name wins);
    a column the header lacks, or a short row, reads as None, and blank
    lines are skipped. csv.reader reads the header. A data line after it
    that holds no quote and no NUL, and is no longer than the csv field size
    limit, is read as csv.reader would read it: its text without the line
    end, split on commas. The first line that breaks one of these rules,
    and every line after it, go to csv.reader. Under a header of exactly
    TELEMETRY_COLUMNS, a row of that many fields is yielded as it is.
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
    size = len(TELEMETRY_COLUMNS) if header == list(TELEMETRY_COLUMNS) else -1  # rows of this size need no pick

    def shaped(row: list) -> tuple:
        if missing:
            del row[width:]  # fields beyond the header belong to no column
        if len(row) < need:
            row.extend([None] * (need - len(row)))
        return pick(row)

    limit = csv.field_size_limit()
    rest = ()
    for line in fh:
        text = line.rstrip("\r\n")
        if '"' in text or "\0" in text or len(text) > limit:
            rest = csv.reader(chain((line,), fh))
            break
        if text:
            row = text.split(",")
            yield row if len(row) == size else shaped(row)
    for row in rest:
        if row:
            yield row if len(row) == size else shaped(row)


def _text(value) -> str:
    """Text, or a JSON number as its text; str() would write null, a boolean or a container as its repr."""
    if type(value) is str:
        return value
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not text")
    return str(value)


def _field_text(name: str, value) -> str:
    """A row's text field by `_text`'s rule, with null as missing ("")."""
    try:
        return "" if value is None else _text(value)
    except TypeError:
        raise ValueError(f"bad {name} {value!r}") from None


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


def _records(source) -> tuple[Callable[..., tuple], Iterable]:
    """A function decoding a record into TELEMETRY_COLUMNS fields, and the records:
    CSV field lists or tuples (which `tuple` turns into tuples), non-blank JSON
    lines, or a caller's items. A file is read as UTF-8, past a leading byte-order
    mark. Reading a file raises IngestError; decoding, a ValueError."""
    if not isinstance(source, (str, Path)):
        return _record_fields, source
    path = Path(source)
    json_lines = path.suffix in (".jsonl", ".ndjson", ".json")

    def records() -> Iterator:
        try:
            with path.open("r", encoding="utf-8-sig", newline="") as fh:
                yield from (line for line in fh if line.strip()) if json_lines else _csv_rows(fh)
        except (OSError, UnicodeDecodeError, csv.Error) as exc:
            raise IngestError(f"cannot read telemetry {path}: {exc}") from None

    return (_json_fields if json_lines else tuple), records()


def ingest(
    source, catalog: dict[str, PlatformSpec], scheme: BucketScheme = BucketScheme()
) -> FleetDataset:
    """Validate a telemetry stream against a platform catalog into a ledger.

    `source` may be a path (CSV by default, JSON lines for .jsonl, .ndjson
    or .json; UTF-8, with or without a byte-order mark) or an iterable of
    record dicts; wrap an open CSV text file in `csv.DictReader` to pass it
    as the latter. A CSV file's header goes through csv.reader; each line
    after it is split on commas while it holds no quote and no NUL and is
    no longer than csv's field size limit, and from the first line that
    breaks a rule on, csv.reader reads the rest, so every row reads as
    csv.reader would read it (see `_csv_rows`). Every row goes through the
    same checks, in a fixed order, and the first failure is the reason:
    decoding (a JSON line that is not an object, a record that is not a
    dict), platform, timestamp (the grid rule of `_epoch`: its offset
    given, within 5 s of the 300 s grid, onto which it snaps), the three
    numbers' syntax in column order (a boolean is not a number), their
    ranges (duty cycle, FLOPs, the first negative tray reading), the tray
    count, then the key: a bad, blank or absent machine_id, then a repeated
    (machine, interval). platform_id, interval_start and machine_id are read
    at their checks by `_field_text`'s rule (so a JSON array, object or
    boolean is bad), and a platform_id or machine_id text is looked up as it
    stands, and stripped only when that misses. A complete text row's
    numbers are parsed by `float` and `int`; any other row's, or one that
    fails there, by `_numbers`. Every row failing a check is recorded in
    the rejection log with its 1-based row number, a repeated key after
    the first. Complete rows are folded into cells by platform and `scheme`
    bucket, each with its machine power: the exact tray sum, times
    1 + rectifier_overhead when the platform's readings exclude rectifier
    losses (by default readings are taken at the PSU and include them). An
    empty input yields an empty dataset.
    """
    accepted: dict[str, int] = {}  # incomplete rows as they come; the cells' counts at the end
    exclusions: dict[str, int] = {}
    rejections: list[Rejection] = []
    seen: dict[str, set[int]] = {}  # machine_id -> snapped epochs accepted
    bucket_of, fsum, inf = scheme.bucket_of, math.fsum, math.inf
    # platform_id -> its tray count, the factor from tray sum to machine power, and its cells by duty bucket
    platforms = {
        pid: (
            spec.trays_per_machine,
            1.0 if spec.power_readings_include_rectifier else 1.0 + spec.rectifier_overhead,
            {},
        )
        for pid, spec in catalog.items()
    }
    # the ids a raw platform_id text can name as it stands: stripping it would not change it
    verbatim = {pid: platform for pid, platform in platforms.items() if pid == pid.strip()}
    decode, records = _records(source)
    for row_no, record in enumerate(records, start=1):
        try:
            machine_id, platform_id, raw_ts, raw_power, raw_duty, raw_flops = decode(record)
            platform = verbatim.get(platform_id) if type(platform_id) is str else None
            if platform is None:
                platform_id = _field_text("platform_id", platform_id).strip()
                platform = platforms.get(platform_id)
                if platform is None:
                    raise ValueError(f"unknown platform_id {platform_id!r}")
            tray_count, scale, bucket_cells = platform
            if type(raw_ts) is not str:
                raw_ts = _field_text("interval_start", raw_ts)
            epoch = _epoch(raw_ts)

            # Most rows are complete text and parse here; any other row, or one this parse
            # fails, goes through _numbers, which names the field at fault. A blank or
            # missing field would fail it, so such a row skips it without raising.
            parsed = False
            if raw_power and raw_duty and raw_flops:
                try:
                    trays = tuple(map(float, raw_power.split(";")))
                    power = fsum(trays)
                    duty, flops = float(raw_duty), int(raw_flops)
                    parsed = type(raw_duty) is type(raw_flops) is str and -inf < power < inf
                    parsed = parsed and flops <= _FLOPS_MAX
                except (AttributeError, TypeError, ValueError, OverflowError):
                    pass
            if not parsed:
                trays, power, duty, flops = _numbers(raw_power, raw_duty, raw_flops)
            if duty is not None and not 0.0 <= duty <= 1.0:
                raise ValueError(f"range violation: duty_cycle {duty} outside [0, 1]")
            if flops is not None and flops < 0:
                raise ValueError(f"range violation: flops {flops} is negative")
            if trays and min(trays) < 0:
                negative = next(w for w in trays if w < 0)
                raise ValueError(f"range violation: tray power {negative} is negative")
            if trays and len(trays) != tray_count:
                raise ValueError(
                    f"tray count: {len(trays)} readings, platform {platform_id!r} has {tray_count} trays"
                )

            times = seen.get(machine_id) if type(machine_id) is str else None
            if times is None:  # not a stored id as it stands: normalise it and look again
                machine_id = _field_text("machine_id", machine_id).strip()
                times = seen.get(machine_id)
                if times is None:  # a blank id is never stored, so every such row is checked here
                    if not machine_id:
                        raise ValueError("missing machine_id")
                    times = seen[machine_id] = set()
            if epoch in times:
                raise ValueError(f"duplicate row for machine {machine_id!r} at {_stamp(epoch)}")
            times.add(epoch)
        except ValueError as exc:
            rejections.append(Rejection(row=row_no, reason=str(exc)))
            continue

        if not trays or duty is None or flops is None:
            accepted[platform_id] = accepted.get(platform_id, 0) + 1
            reason = REASON_MISSING_UTILIZATION if trays else REASON_MISSING_POWER
            exclusions[reason] = exclusions.get(reason, 0) + 1
            continue
        bucket = bucket_of(duty)
        cell = bucket_cells.get(bucket)
        if cell is None:
            cell = bucket_cells[bucket] = Cell()
        cell.add(power * scale, duty, flops)
    cells = {(pid, b): c for pid, (_, _, by_bucket) in platforms.items() for b, c in sorted(by_bucket.items())}
    for (pid, _), cell in cells.items():  # readers then sum a few parts per cell, not a buffer
        accepted[pid] = accepted.get(pid, 0) + cell.count
        _compact(cell.power)
        _compact(cell.duty)
    return FleetDataset(
        samples=cells,
        catalog=dict(catalog),
        accepted=accepted,
        rejections=tuple(rejections),
        exclusions=exclusions,
    )


def exclude_incomplete(dataset: FleetDataset) -> FleetDataset:
    """Return the ledger unchanged.

    `ingest` already keeps rows lacking power, duty cycle or FLOPs out of
    the cells and counts them per reason in `exclusions`. The function
    stays because perfbench/spans.py traces it as a layer boundary.
    """
    return dataset


def finite_sum(owner: str, what: str, values: Iterable[float]) -> float:
    """The correctly rounded sum of `values`, which must be finite.

    Values that are each finite can still sum beyond float range. A
    platform's power total, embodied totals and each balanced mean of a
    generation (owner `platform 'id'`), and a run's on-duty power (owner
    `run id`) go through this one check, whose message names the owner.
    """
    try:
        total = math.fsum(values)
    except (OverflowError, ValueError):  # the exact sum overflows, or inf - inf among partials
        total = math.inf
    if not math.isfinite(total):
        raise ComputationError(f"{owner}: {what} is not finite")
    return total


def aggregate(dataset: FleetDataset, platform_id: str) -> FleetWindow:
    """Combine one platform's cells into a FleetWindow.

    Only complete rows reach the cells. Every row is one machine-interval,
    so the mean machine power is implicitly machine-day weighted; a
    deployment-count weighted mean would require a machine census this data
    does not carry.
    """
    cells = [cell for (pid, _), cell in dataset.samples.items() if pid == platform_id]
    if not cells:
        raise ComputationError(f"empty window for platform {platform_id!r}")
    total_flops = sum(cell.flops for cell in cells)
    if total_flops > _FLOPS_MAX:
        raise ComputationError(f"platform {platform_id!r}: total flops is beyond float range")
    return FleetWindow(
        platform_id=platform_id,
        sample_count=sum(cell.count for cell in cells),
        power_sum_w=finite_sum(
            f"platform {platform_id!r}", "total machine power", (p for cell in cells for p in cell.power)
        ),
        total_flops=total_flops,
    )


def lifetime_energy_per_chip(window: FleetWindow, spec: PlatformSpec, pue: float) -> float:
    """Projected lifetime energy per chip in kWh, cooling overhead included.

    Mean machine power is extrapolated over the platform lifetime and
    multiplied by the data-center PUE, then normalized per chip.
    """
    per_chip_w = window.mean_machine_power_w / spec.chips_per_machine
    return per_chip_w * spec.lifetime_hours * pue / 1000.0


def write_rejection_log(dataset: FleetDataset, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["row", "reason"])
    for rej in dataset.rejections:
        writer.writerow([rej.row, rej.reason])
