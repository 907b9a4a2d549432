"""Deterministic synthetic fleet telemetry for tests and demos.

Generates interval telemetry for several hardware generations with
configurable duty-cycle distributions and a simple power model: a machine
at zero duty still draws 60% of its active power, rising linearly to full
draw at duty one. Utilized FLOPs scale linearly with duty. The generator
writes a sidecar manifest recording its own bookkeeping (row counts,
per-generation means) and the built-in hardware efficiency ratios, so
downstream estimators can be checked against known ground truth.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .cci import kwh_per_exaflop
from .config import finite_number
from .telemetry import INTERVAL_SECONDS

IDLE_POWER_FRACTION = 0.6


@dataclass(frozen=True)
class GenerationSpec:
    """One synthetic hardware generation."""

    name: str
    machines: int
    chips_per_machine: int = 8
    trays_per_machine: int = 3
    active_power_w: float = 1200.0  # draw at duty 1.0
    tdp_w: float = 3600.0
    flops_per_s_at_full_duty: float = 1.0e14  # machine-level utilized rate at duty 1.0
    duty_dist: str = "beta"  # "beta" or "uniform"
    duty_a: float = 4.0
    duty_b: float = 4.0
    duty_snap: str = "midpoint"  # "midpoint" snaps to bucket centers, "none" keeps raw draws
    power_noise: float = 0.02  # multiplicative jitter on power readings
    missing_rate: float = 0.0  # fraction of rows emitted without duty/flops

    def __post_init__(self) -> None:
        if self.trays_per_machine < 1:
            raise ValueError(f"{self.name}: trays_per_machine must be >= 1")
        if not (self.duty_a > 0 and self.duty_b > 0):
            raise ValueError(f"{self.name}: duty_a and duty_b must be > 0")
        if self.duty_dist not in ("beta", "uniform") or self.duty_snap not in ("midpoint", "none"):
            raise ValueError(f"{self.name}: unknown duty_dist or duty_snap")
        if not (self.active_power_w > 0 and self.flops_per_s_at_full_duty > 0):
            raise ValueError(f"{self.name}: active_power_w and flops_per_s_at_full_duty must be > 0")

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
        if self.buckets < 1:
            raise ValueError(f"buckets {self.buckets} must be >= 1")
        if not self.generations:
            raise ValueError("scenario has no generations")
        self.start_time  # a malformed start raises ValueError here, before any file is opened

    @property
    def start_time(self) -> datetime:
        return datetime.fromisoformat(self.start.replace("Z", "+00:00")).astimezone(timezone.utc)


def machine_power_at(duty: float, active_power_w: float) -> float:
    """Idle draw plus a linear ramp to full power at duty one."""
    return active_power_w * (IDLE_POWER_FRACTION + (1.0 - IDLE_POWER_FRACTION) * duty)


def _draw_duty(rng: random.Random, gen: GenerationSpec, buckets: int) -> float:
    if gen.duty_dist == "beta":
        d = rng.betavariate(gen.duty_a, gen.duty_b)
    else:
        d = rng.uniform(0.0, 1.0)
    if gen.duty_snap == "midpoint":
        # snap into the center of the duty-cycle level the draw fell in
        idx = min(buckets - 1, int(d * buckets))
        return (idx + 0.5) / buckets
    return d


def _tray_split(total: float, trays: int) -> list[float]:
    host = total / trays * 0.8
    rest = (total - host) / (trays - 1) if trays > 1 else 0.0
    return [host] + [rest] * (trays - 1)


def generate(scenario: SynthScenario):
    """Yield telemetry rows (dicts in the ingest column schema).

    Deterministic for a fixed scenario: one private RNG stream per
    (generation, machine) derived from the scenario seed, so adding a
    generation never shifts another generation's draws.
    """
    t0 = scenario.start_time
    for gen in scenario.generations:
        for machine_idx in range(gen.machines):
            rng = random.Random(f"{scenario.seed}/{gen.name}/{machine_idx}")
            machine_id = f"{gen.name}-m{machine_idx:04d}"
            for step in range(scenario.intervals):
                ts = t0 + timedelta(seconds=step * INTERVAL_SECONDS)
                duty = _draw_duty(rng, gen, scenario.buckets)
                power = machine_power_at(duty, gen.active_power_w)
                if gen.power_noise:
                    power *= 1.0 + rng.uniform(-gen.power_noise, gen.power_noise)
                flops = round(duty * gen.flops_per_s_at_full_duty * INTERVAL_SECONDS)
                missing = gen.missing_rate > 0 and rng.random() < gen.missing_rate
                row = {
                    "machine_id": machine_id,
                    "platform_id": gen.name,
                    "interval_start": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    "tray_power_w": ";".join(
                        format(round(p, 3), ".3f") for p in _tray_split(power, gen.trays_per_machine)
                    ),
                    "duty_cycle": "" if missing else format(duty, ".6f"),
                    "flops": "" if missing else str(flops),
                }
                yield row


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
            "tdp_w": gen.tdp_w,
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
                "peak_flops_per_s": gen.flops_per_s_at_full_duty,
                "class": "synthetic",
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
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "machine_id",
                "platform_id",
                "interval_start",
                "tray_power_w",
                "duty_cycle",
                "flops",
            ],
            lineterminator="\n",
        )
        writer.writeheader()
        for row in generate(scenario):
            writer.writerow(row)
    Path(manifest_path).write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def scenario_from_mapping(cfg: dict) -> SynthScenario:
    """Parse a scenario description (e.g. loaded from JSON)."""
    generations = tuple(
        GenerationSpec(
            name=str(g["name"]),
            machines=int(g["machines"]),
            chips_per_machine=int(g.get("chips_per_machine", 8)),
            trays_per_machine=int(g.get("trays_per_machine", 3)),
            active_power_w=finite_number(g.get("active_power_w", 1200.0)),
            tdp_w=finite_number(g.get("tdp_w", 3.0 * finite_number(g.get("active_power_w", 1200.0)))),
            flops_per_s_at_full_duty=finite_number(g.get("flops_per_s_at_full_duty", 1.0e14)),
            duty_dist=str(g.get("duty_dist", "beta")),
            duty_a=finite_number(g.get("duty_a", 4.0)),
            duty_b=finite_number(g.get("duty_b", 4.0)),
            duty_snap=str(g.get("duty_snap", "midpoint")),
            power_noise=finite_number(g.get("power_noise", 0.02)),
            missing_rate=finite_number(g.get("missing_rate", 0.0)),
        )
        for g in cfg["generations"]
    )
    return SynthScenario(
        seed=int(cfg["seed"]),
        intervals=int(cfg.get("intervals", 96)),
        start=str(cfg.get("start", "2024-10-01T00:00:00Z")),
        buckets=int(cfg.get("buckets", 10)),
        generations=generations,
    )


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
                tdp_w=3600.0,
                flops_per_s_at_full_duty=5.0e13,
                duty_a=3.0,
                duty_b=5.0,
            ),
            GenerationSpec(
                name="gen-b",
                machines=40,
                active_power_w=1800.0,
                tdp_w=5400.0,
                flops_per_s_at_full_duty=1.5e14,
                duty_a=6.0,
                duty_b=2.5,
            ),
        ),
    )
