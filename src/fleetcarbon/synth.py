"""Deterministic synthetic fleet telemetry for tests and demos.

Generates interval telemetry for several hardware generations with
configurable duty-cycle distributions and a simple power model: a machine
at zero duty still draws 60% of its active power, rising linearly to full
draw at duty one. Utilized FLOPs scale linearly with duty. Power is
reported per tray: on a machine with several trays the host tray draws
80% of an even share and the other trays split the rest equally; a
one-tray machine's only tray carries all of it. The generator writes a
sidecar manifest holding the ground truth downstream estimators are
checked against (row counts, each generation's active power, FLOP rate
and energy per ExaFLOP against the baseline) and the platform catalog
`config.load_platforms` reads to ingest the telemetry.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path

from .cci import kwh_per_exaflop
from .config import read_model
from .telemetry import INTERVAL_SECONDS, TELEMETRY_COLUMNS, parse_rfc3339

IDLE_POWER_FRACTION = 0.6


@dataclass(frozen=True)
class GenerationSpec:
    """One synthetic hardware generation."""

    name: str
    machines: int
    chips_per_machine: int = 8
    trays_per_machine: int = 3
    active_power_w: float = 1200.0  # draw at duty 1.0
    flops_per_s_at_full_duty: float = 1.0e14  # machine-level utilized rate at duty 1.0
    duty_dist: str = "beta"  # "beta" or "uniform"
    duty_a: float = 4.0
    duty_b: float = 4.0
    duty_snap: str = "midpoint"  # "midpoint" snaps to bucket centers, "none" keeps raw draws
    power_noise: float = 0.02  # multiplicative jitter on power readings
    missing_rate: float = 0.0  # fraction of rows emitted without duty/flops

    def __post_init__(self) -> None:
        if min(self.machines, self.chips_per_machine, self.trays_per_machine) < 1:
            raise ValueError(f"{self.name}: machines, chips_per_machine and trays_per_machine must be >= 1")
        if not (self.duty_a > 0 and self.duty_b > 0):
            raise ValueError(f"{self.name}: duty_a and duty_b must be > 0")
        if self.duty_dist not in ("beta", "uniform") or self.duty_snap not in ("midpoint", "none"):
            raise ValueError(f"{self.name}: unknown duty_dist or duty_snap")
        if not (self.active_power_w > 0 and self.flops_per_s_at_full_duty > 0):
            raise ValueError(f"{self.name}: active_power_w and flops_per_s_at_full_duty must be > 0")
        if not math.isfinite(self.flops_per_s_at_full_duty * INTERVAL_SECONDS):
            raise ValueError(f"{self.name}: an interval's FLOPs at full duty are beyond float range")
        if not 0 < self.energy_kwh_per_exaflop_at_full_duty() < math.inf:
            raise ValueError(f"{self.name}: energy per ExaFLOP at full duty is not a positive finite number")

    def energy_kwh_per_exaflop_at_full_duty(self) -> float:
        return kwh_per_exaflop(self.active_power_w, self.flops_per_s_at_full_duty, 1.0)


@dataclass(frozen=True)
class SynthScenario:
    seed: int
    intervals: int = 96
    start: str = "2024-10-01T00:00:00Z"
    buckets: int = 10  # lattice used when duty_snap == "midpoint"
    generations: tuple[GenerationSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.intervals < 1:
            raise ValueError(f"intervals {self.intervals} must be >= 1")
        if self.buckets < 1:
            raise ValueError(f"buckets {self.buckets} must be >= 1")
        if not self.generations:
            raise ValueError("scenario has no generations")
        base = self.generations[0].energy_kwh_per_exaflop_at_full_duty()
        if not all(math.isfinite(g.energy_kwh_per_exaflop_at_full_duty() / base) for g in self.generations):
            raise ValueError("a generation's energy per ExaFLOP against the baseline's is beyond float range")
        # a malformed start, or a last interval past 9999-12-31, raises before write_fleet opens a file
        room = datetime.max - self.start_time.replace(tzinfo=None)
        if (self.intervals - 1) * INTERVAL_SECONDS > room.total_seconds():
            raise ValueError(f"the last of {self.intervals} intervals from {self.start} is past 9999-12-31")

    @property
    def start_time(self) -> datetime:
        return parse_rfc3339(self.start)


def machine_power_at(duty: float, active_power_w: float) -> float:
    """Idle draw plus a linear ramp to full power at duty one."""
    return active_power_w * (IDLE_POWER_FRACTION + (1.0 - IDLE_POWER_FRACTION) * duty)


def _readings(gen: GenerationSpec, rng: random.Random, stamps: list[str], buckets: int):
    """Yield one machine's (stamp, tray power, duty cycle, FLOPs) per interval, as text."""
    trays, active = gen.trays_per_machine, gen.active_power_w
    beta, duty_a, duty_b = gen.duty_dist == "beta", gen.duty_a, gen.duty_b
    snap, noise, missing_rate = gen.duty_snap == "midpoint", gen.power_noise, gen.missing_rate
    full_flops_per_s = gen.flops_per_s_at_full_duty
    for stamp in stamps:
        duty = rng.betavariate(duty_a, duty_b) if beta else rng.uniform(0.0, 1.0)
        if snap:  # the center of the duty-cycle level the draw fell in
            duty = (min(buckets - 1, int(duty * buckets)) + 0.5) / buckets
        power = machine_power_at(duty, active)
        if noise:
            power *= 1.0 + rng.uniform(-noise, noise)
        if trays == 1:
            tray_text = f"{power:.3f}"
        else:  # the host tray draws 80% of an even share, the others split the rest
            host = power / trays * 0.8
            tray_text = f"{host:.3f}" + f";{(power - host) / (trays - 1):.3f}" * (trays - 1)
        if missing_rate > 0 and rng.random() < missing_rate:
            yield stamp, tray_text, "", ""
        else:
            yield stamp, tray_text, f"{duty:.6f}", str(round(duty * full_flops_per_s * INTERVAL_SECONDS))


def _machines(scenario: SynthScenario):
    """Yield (machine_id, generation name, readings) per machine, where
    `readings` yields the rest of each of its rows as text (see `_readings`).

    Deterministic for a fixed scenario: one private RNG stream per
    (generation, machine) derived from the scenario seed, so adding a
    generation never shifts another generation's draws.
    """
    t0 = scenario.start_time
    stamps = [
        (t0 + timedelta(seconds=step * INTERVAL_SECONDS)).strftime("%Y-%m-%dT%H:%M:%SZ")
        for step in range(scenario.intervals)
    ]
    for gen in scenario.generations:
        for machine_idx in range(gen.machines):
            rng = random.Random(f"{scenario.seed}/{gen.name}/{machine_idx}")
            yield f"{gen.name}-m{machine_idx:04d}", gen.name, _readings(gen, rng, stamps, scenario.buckets)


def generate(scenario: SynthScenario):
    """Yield telemetry rows as dicts keyed by the ingest columns, in the order
    `write_fleet` writes them (see `_machines`)."""
    for machine_id, name, readings in _machines(scenario):
        for reading in readings:
            yield dict(zip(TELEMETRY_COLUMNS, (machine_id, name, *reading)))


def build_manifest(scenario: SynthScenario) -> dict:
    """Ground-truth sidecar: what the generator knows it emitted."""
    base = scenario.generations[0]
    base_eff = base.energy_kwh_per_exaflop_at_full_duty()
    generations = {}
    for gen in scenario.generations:
        generations[gen.name] = {
            "machines": gen.machines,
            "rows": gen.machines * scenario.intervals,
            "active_power_w": gen.active_power_w,
            "flops_per_s_at_full_duty": gen.flops_per_s_at_full_duty,
            "energy_kwh_per_exaflop_at_full_duty": gen.energy_kwh_per_exaflop_at_full_duty(),
            "energy_per_exaflop_ratio_vs_baseline": (
                gen.energy_kwh_per_exaflop_at_full_duty() / base_eff
            ),
            "missing_rate": gen.missing_rate,
        }
    return {
        "seed": scenario.seed,
        "intervals": scenario.intervals,
        "buckets": scenario.buckets,
        "baseline": base.name,
        "total_rows": sum(g.machines for g in scenario.generations) * scenario.intervals,
        "generations": generations,
        "platforms": {
            gen.name: {
                "chips_per_machine": gen.chips_per_machine,
                "trays_per_machine": gen.trays_per_machine,
                "lifetime_years": 6,
            }
            for gen in scenario.generations
        },
    }


def write_fleet(scenario: SynthScenario, telemetry_path: str | Path, manifest_path: str | Path) -> dict:
    """Write the telemetry CSV and ground-truth manifest; returns the manifest.

    The manifest is built before either file is opened, so a scenario it
    cannot describe leaves nothing written.
    """
    manifest = build_manifest(scenario)
    telemetry_path = Path(telemetry_path)
    with telemetry_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TELEMETRY_COLUMNS)
        # csv quotes the two name fields once per machine; stamps and numbers never need quoting
        for machine_id, name, readings in _machines(scenario):
            quoted = io.StringIO()
            csv.writer(quoted, lineterminator="\n").writerow((machine_id, name, ""))
            prefix = quoted.getvalue()[:-1]
            fh.writelines(prefix + ",".join(reading) + "\n" for reading in readings)
    Path(manifest_path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def scenario_from_mapping(cfg: dict) -> SynthScenario:
    """Read a scenario description (e.g. decoded JSON) through `config.read_model`.

    Its keys, defaults and types are the fields of `SynthScenario` and, in each
    of its `generations`, of `GenerationSpec`; any other key is a ValueError.
    """
    return read_model(SynthScenario, cfg)


def default_scenario(seed: int = 20241001) -> SynthScenario:
    """Two-generation demo: the newer generation runs busier and is
    inherently twice as energy-efficient per FLOP."""
    return SynthScenario(
        seed=seed,
        intervals=96,
        generations=(
            GenerationSpec(
                name="gen-a",
                machines=40,
                active_power_w=1200.0,
                flops_per_s_at_full_duty=5.0e13,
                duty_a=3.0,
                duty_b=5.0,
            ),
            GenerationSpec(
                name="gen-b",
                machines=40,
                active_power_w=1800.0,
                flops_per_s_at_full_duty=1.5e14,
                duty_a=6.0,
                duty_b=2.5,
            ),
        ),
    )
