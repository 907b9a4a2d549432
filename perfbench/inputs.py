"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the seed: the same seed gives
byte-identical files. Shares such as "2% of rows lack counters" are exact
counts at seeded positions, not per-row coin flips, so the row counts the
trace reports repeat exactly from one seed to the next.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

from fleetcarbon import synth

TELEMETRY_COLUMNS = ("machine_id", "platform_id", "interval_start", "tray_power_w", "duty_cycle", "flops")
PUE = 1.1
INTERVAL_S = 300
EXA = 1e18
J_PER_KWH = 3.6e6

# Five-platform fleet named after the bundled catalog. Per platform: trays
# (matching platforms.json), whole-machine power at the mean duty, mean
# duty, and the paper's kWh/ExaFLOP that sets the FLOP rate.
PLATFORM_MODEL = {
    "v4i": (3, 1184.0, 0.55, 2.53),
    "v5e": (3, 1171.0, 0.58, 2.16),
    "v6e": (3, 2173.0, 0.81, 0.86),
    "v4": (2, 1167.0, 0.57, 1.93),
    "v5p": (2, 2176.0, 0.64, 1.65),
}
FLEET_MACHINES = 24  # per platform: 5 x 24 x 288 = 34,560 rows
FLEET_INTERVALS = 288  # one day of five-minute intervals

BALANCE_MACHINES = 72  # per generation: 2 x 72 x 250 = 36,000 rows
BALANCE_INTERVALS = 250

POD_RUNS = 32
POD_MACHINES = 32
POD_INTERVALS = 40  # 32 x 32 x 40 = 40,960 interval records
POD_LOW_SHARE = 0.005  # machine-intervals below the 0.8 duty threshold
POD_WORKLOADS = ("pretrain", "sft", "rlhf", "serve")
POD_FACTOR_G_PER_KWH = 122.5


def fleet_scenario(seed: int) -> synth.SynthScenario:
    """The five-platform fleet as a synth scenario, without missing rows."""
    generations = []
    for name, (trays, power, duty, kwh_per_ef) in PLATFORM_MODEL.items():
        active = power / (synth.IDLE_POWER_FRACTION + (1 - synth.IDLE_POWER_FRACTION) * duty)
        flops_full = power * PUE * EXA / (J_PER_KWH * kwh_per_ef * duty)
        generations.append(
            synth.GenerationSpec(
                name=name,
                machines=FLEET_MACHINES,
                trays_per_machine=trays,
                active_power_w=active,
                flops_per_s_at_full_duty=flops_full,
                duty_a=10 * duty,
                duty_b=10 * (1 - duty),
            )
        )
    return synth.SynthScenario(seed=seed, intervals=FLEET_INTERVALS, generations=tuple(generations))


def fleet_rows(seed: int) -> list[dict]:
    return [dict(row) for row in synth.generate(fleet_scenario(seed))]


def blank_counters(rows: list[dict], positions, *, power: bool = False) -> None:
    """Drop duty and FLOPs (and power too, if asked) at the given row indices."""
    for i in positions:
        rows[i]["duty_cycle"] = ""
        rows[i]["flops"] = ""
        if power:
            rows[i]["tray_power_w"] = ""


def platform_report_rows(seed: int) -> list[dict]:
    """The five-platform fleet with exactly 2% of its rows lacking counters."""
    rows = fleet_rows(seed)
    rng = random.Random(f"{seed}/platform-report/missing")
    blank_counters(rows, rng.sample(range(len(rows)), len(rows) // 50))
    return rows


# Reject classes whose handling ingest defines today. Each corrupts one
# field of an otherwise complete row.
REJECT_CLASSES = (
    "unknown_platform",
    "bad_number",
    "duty_over_one",
    "negative_power",
    "off_grid",
    "bad_timestamp",
    "missing_timestamp",
)


def _corrupt(row: dict, kind: str, variant: int) -> None:
    if kind == "unknown_platform":
        row["platform_id"] = "v9x"
    elif kind == "bad_number":
        if variant % 2:
            row["flops"] = row["flops"][:-1] + "x"
        else:
            row["tray_power_w"] = "n/a;" + row["tray_power_w"].split(";", 1)[1]
    elif kind == "duty_over_one":
        row["duty_cycle"] = "1.25"
    elif kind == "negative_power":
        row["tray_power_w"] = "-" + row["tray_power_w"]
    elif kind == "off_grid":
        row["interval_start"] = row["interval_start"][:-3] + "37Z"
    elif kind == "bad_timestamp":
        row["interval_start"] = row["interval_start"].replace("T", "T9")
    elif kind == "missing_timestamp":
        row["interval_start"] = ""
    else:
        raise ValueError(f"unknown reject class {kind!r}")


def dirty_rows(seed: int) -> tuple[list[dict], dict]:
    """Five-platform rows with 20% lacking counters and 5% corrupted.

    A quarter of the rows without counters lack power as well. The
    corrupted rows are disjoint from the incomplete ones and spread evenly
    over REJECT_CLASSES. Returns the rows and what was injected where
    (0-based row indices).
    """
    rows = fleet_rows(seed + 1_000_003)
    rng = random.Random(f"{seed}/dirty-ingest")
    n = len(rows)
    chosen = rng.sample(range(n), n // 5 + n // 20)
    no_counters, rejected = chosen[: n // 5], chosen[n // 5 :]
    no_power = no_counters[: len(no_counters) // 4]
    blank_counters(rows, no_counters[len(no_power) :])
    blank_counters(rows, no_power, power=True)
    reject_kind = {}
    for i, pos in enumerate(rejected):
        kind = REJECT_CLASSES[i % len(REJECT_CLASSES)]
        _corrupt(rows[pos], kind, i // len(REJECT_CLASSES))
        reject_kind[pos] = kind
    injected = {
        "no_power": sorted(no_power),
        "no_counters": sorted(no_counters[len(no_power) :]),
        "rejected": reject_kind,
    }
    return rows, injected


def balance_mapping(seed: int) -> dict:
    """Synth scenario file for gen-balance: two duty mixes, raw duties."""
    common = {"machines": BALANCE_MACHINES, "duty_snap": "none"}
    return {
        "seed": seed,
        "intervals": BALANCE_INTERVALS,
        "generations": [
            dict(common, name="gen-a", active_power_w=1200.0, flops_per_s_at_full_duty=5.0e13, duty_a=3.0, duty_b=5.0),
            dict(common, name="gen-b", active_power_w=1800.0, flops_per_s_at_full_duty=1.5e14, duty_a=6.0, duty_b=2.5),
        ],
    }


def balance_rows(mapping: dict) -> list[dict]:
    return list(synth.generate(synth.scenario_from_mapping(mapping)))


def pod_runs(seed: int) -> tuple[dict, list[dict], dict]:
    """A run manifest, its interval records, and the incomplete-run policy.

    Runs cycle over the five bundled platforms. Exactly POD_LOW_SHARE of
    the machine-intervals fall below the duty threshold, never in a run's
    first interval, so every run keeps at least one on-duty interval. Four
    runs are incomplete: two accepted, one rejected, one left to validate.
    """
    rng = random.Random(f"{seed}/pod-steps")
    platforms = list(PLATFORM_MODEL)
    runs, records = [], []
    for r in range(POD_RUNS):
        pid = platforms[r % len(platforms)]
        run_id = f"{POD_WORKLOADS[r % len(POD_WORKLOADS)]}-{pid}-r{r:02d}"
        machines = [f"{run_id}-m{m:02d}" for m in range(POD_MACHINES)]
        power = PLATFORM_MODEL[pid][1]
        runs.append(
            {
                "run_id": run_id,
                "workload": POD_WORKLOADS[r % len(POD_WORKLOADS)],
                "platform_id": pid,
                "machines": machines,
                "step_time_s": round(rng.uniform(0.5, 3.0), 3),
                "complete": r % 16 != 3,
                "flops_per_step": round(rng.uniform(1e14, 1e15), 1),
            }
        )
        for i in range(POD_INTERVALS):
            ts = f"2024-10-01T{i // 12:02d}:{i % 12 * 5:02d}:00Z"
            for machine in machines:
                records.append(
                    {
                        "duty_cycle": round(rng.uniform(0.82, 1.0), 4),
                        "interval_start": ts,
                        "machine_id": machine,
                        "power_w": round(power * rng.uniform(0.9, 1.1), 3),
                        "run_id": run_id,
                    }
                )
    eligible = [k for k in range(len(records)) if k % (POD_INTERVALS * POD_MACHINES) >= POD_MACHINES]
    for k in rng.sample(eligible, round(len(records) * POD_LOW_SHARE)):
        records[k]["duty_cycle"] = round(rng.uniform(0.2, 0.79), 4)
    incomplete = [run["run_id"] for run in runs if not run["complete"]]
    policy = {"accept": incomplete[:2], "reject": incomplete[2:3]}
    return {"runs": runs}, records, policy


def write_telemetry(rows: list[dict], path: Path) -> Path:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TELEMETRY_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in TELEMETRY_COLUMNS])
    return path


def write_json(data, path: Path) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def write_jsonl(records: list[dict], path: Path) -> Path:
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return path


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()
