"""Per-step emissions for benchmark runs on multi-machine pods.

Interval power during a run only reflects the job while every machine in
the pod is actually busy, so intervals where any assigned machine falls
below the duty-cycle threshold are filtered out before averaging power.
The per-step figure combines that on-duty power with the measured step
time and an embodied-emissions rate derived from the machine's
manufacturing-plus-transport footprint spread over its service life.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from .cci import J_PER_KWH
from .config import _reject, finite_number, read_document, read_model
from .errors import ComputationError, IngestError
from .lca import MachineInventory, machine_manufacturing, machine_transport
from .telemetry import PlatformSpec, _epoch, _stamp, finite_sum

DEFAULT_DUTY_THRESHOLD = 0.8

# One decoder for every interval line: hooks passed per call would build a decoder per line.
# Its hooks check every float it makes, so a float it returns is finite.
_DECODER = json.JSONDecoder(parse_float=finite_number, parse_constant=finite_number)
_scan_record, _decode_record = _DECODER.scan_once, _DECODER.decode


@dataclass(frozen=True)
class RunInterval:
    """Power and duty readings for every pod machine in one interval."""

    power_w: dict[str, float]
    duty_cycle: dict[str, float]


@dataclass(frozen=True)
class WorkloadRun:
    run_id: str
    platform_id: str
    machines: tuple[str, ...]
    intervals: tuple[RunInterval, ...]
    step_time_s: float
    workload: str = ""
    complete: bool = True
    flops_per_step: float | None = None

    def __post_init__(self) -> None:
        if not self.machines:
            raise ValueError(f"run {self.run_id}: machine set is empty")
        if len(set(self.machines)) < len(self.machines):
            repeated = next(m for i, m in enumerate(self.machines) if m in self.machines[:i])
            raise ValueError(f"run {self.run_id}: machine {repeated!r} listed twice")
        if self.step_time_s <= 0:
            raise ValueError(f"run {self.run_id}: step_time must be > 0")
        if self.flops_per_step is not None and self.flops_per_step < 0:
            raise ValueError(f"run {self.run_id}: flops_per_step must be >= 0")


@dataclass(frozen=True)
class OnDutyPower:
    """Average machine power over fully-on-duty intervals."""

    power_w: float
    included_intervals: int
    excluded_intervals: int


@dataclass(frozen=True)
class StepEmissions:
    """Grams CO2e per machine per workload step."""

    operational_g: float
    embodied_g: float
    on_duty: OnDutyPower

    @property
    def total_g(self) -> float:
        return self.operational_g + self.embodied_g


def on_duty_power(run: WorkloadRun) -> OnDutyPower:
    """Mean power across machines and intervals where the whole pod is busy.

    An interval counts only if every machine assigned to the run reports a
    duty cycle at or above `DEFAULT_DUTY_THRESHOLD`; one straggler excludes
    the interval for all machines.
    """
    if not run.intervals:
        raise ComputationError(f"run {run.run_id}: no interval samples")
    included: list[float] = []
    excluded = 0
    for interval in run.intervals:
        # an absent machine reads as NaN, so it is never on duty
        on_duty = all(
            interval.duty_cycle.get(machine, math.nan) >= DEFAULT_DUTY_THRESHOLD for machine in run.machines
        )
        if not on_duty:
            excluded += 1
            continue
        included.extend(interval.power_w[machine] for machine in run.machines)
    if not included:
        raise ComputationError(f"run {run.run_id}: no on-duty intervals at threshold {DEFAULT_DUTY_THRESHOLD}")
    return OnDutyPower(
        power_w=finite_sum(f"run {run.run_id}", "on-duty power total", included) / len(included),
        included_intervals=len(run.intervals) - excluded,
        excluded_intervals=excluded,
    )


def emissions_per_step(
    run: WorkloadRun,
    factor_g_per_kwh: float,
    inventory: MachineInventory,
    spec: PlatformSpec,
    pue: float = 1.0,
) -> StepEmissions:
    """Operational plus embodied grams per machine-step.

    Pass pue=1.0 (the default) to account at the machine meter; a real PUE
    folds cooling overhead into the per-step figure. The embodied part
    spreads manufacturing plus transport per machine over its service
    seconds. Construction allocations are excluded: a pod borrows the
    building for the step, it does not consume it.
    """
    duty = on_duty_power(run)
    operational = duty.power_w * run.step_time_s * pue * factor_g_per_kwh / J_PER_KWH
    mt_kg = machine_manufacturing(inventory) + machine_transport(inventory)
    embodied = mt_kg * 1000.0 / spec.lifetime_seconds * run.step_time_s
    return StepEmissions(operational_g=operational, embodied_g=embodied, on_duty=duty)


def read_runs(manifest_path: str | Path, intervals_path: str | Path) -> tuple[WorkloadRun, ...]:
    """Load workload runs: a JSON manifest `{"runs": [...]}` plus JSON-lines interval records.

    The manifest goes through `config.read_document`, the one reader of
    every JSON document, with IngestError as its error class. Every run is
    read by `config.read_model` before the interval file is opened: its
    keys, defaults and types are the fields of `WorkloadRun` other than
    `intervals`, which the interval records fill, and any other key in a
    run, or beside `runs`, is an error. Run ids are unique, and so are the
    machines of each run. Interval records carry run_id, machine_id,
    interval_start, power_w and duty_cycle; records for unknown runs are
    ignored so one interval file can back several manifests, but a record
    for a machine its run does not list is an error. Every number must be
    finite, power non-negative and duty cycle within [0, 1]. interval_start
    follows the fleet's grid rule (`telemetry._epoch`), so a stamp within
    5 s of the 300 s grid joins that interval, and one further off is an
    error, as is a second record for the same run, machine and interval.
    """

    def build(manifest: dict) -> tuple[WorkloadRun, ...]:
        _reject(sorted(manifest.keys() - {"runs"}))
        return read_model(tuple[WorkloadRun, ...], manifest["runs"], "runs", intervals=())

    runs = read_document(manifest_path, "run manifest", build, IngestError)
    per_run: dict[str, dict[int, RunInterval]] = {}  # run id -> snapped interval epoch -> readings
    listed: dict[str, frozenset[str]] = {}  # run id -> its machines
    for run in runs:
        if run.run_id in per_run:
            raise IngestError(f"bad run manifest {manifest_path}: run {run.run_id} listed twice")
        per_run[run.run_id], listed[run.run_id] = {}, frozenset(run.machines)
    try:
        with Path(intervals_path).open("r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    try:  # the C scanner alone, without decode's wrapper, for a line that is one value
                        rec, end = _scan_record(line, 0)
                    except StopIteration:
                        end = -1
                    if end != len(line):  # decode raises its own message for what the scanner stopped at
                        rec = _decode_record(line)
                    run_id = str(rec["run_id"])
                    if run_id not in per_run:
                        continue
                    machine = str(rec["machine_id"])
                    if machine not in listed[run_id]:  # on_duty_power would never read it
                        raise ValueError(f"machine {machine!r} is not listed in run {run_id!r}")
                    epoch = _epoch(str(rec["interval_start"]))
                    interval = per_run[run_id].get(epoch)
                    if interval is None:
                        interval = per_run[run_id][epoch] = RunInterval({}, {})
                    if machine in interval.power_w:
                        raise ValueError(f"repeated key: run {run_id!r}, machine {machine!r}, interval {_stamp(epoch)}")
                    power = rec["power_w"]
                    if type(power) is not float:  # ints and text; the decoder checked every float
                        power = finite_number(power)
                    duty = rec["duty_cycle"]
                    if type(duty) is not float:
                        duty = finite_number(duty)
                    if power < 0:
                        raise ValueError(f"power_w {power} is negative")
                    if not 0.0 <= duty <= 1.0:
                        raise ValueError(f"duty_cycle {duty} outside [0, 1]")
                    interval.power_w[machine] = power
                    interval.duty_cycle[machine] = duty
                except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
                    raise IngestError(
                        f"{intervals_path}: bad interval record at line {line_no}: {exc}"
                    ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise IngestError(f"cannot read run intervals {intervals_path}: {exc}") from None

    return tuple(
        replace(run, intervals=tuple(interval for _, interval in sorted(per_run[run.run_id].items())))
        for run in runs
    )
