#!/usr/bin/env python3
"""Regenerate the demo fixtures bundled under src/fleetcarbon/data/.

The fleet telemetry is constant-rate per platform, tuned so the aggregate
mean machine power and energy-per-ExaFLOP reproduce the published
calibration targets for the five demo platforms. Workload runs are tuned
the same way against the published per-step table. Rerunning the script is
idempotent: all values are computed, none are sampled.
"""

from __future__ import annotations

import csv
import json
from datetime import datetime, timedelta, timezone
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "src" / "fleetcarbon" / "data"
PUE = 1.10
INTERVAL_S = 300

# platform: (chips, trays, year, tray power split W, duty, target kWh per ExaFLOP)
PLATFORMS = {
    "v4i": (8, 3, 2020, [300, 442, 442], 0.55, 2.53),
    "v5e": (8, 3, 2023, [295, 438, 438], 0.58, 2.16),
    "v6e": (8, 3, 2024, [401, 886, 886], 0.81, 0.86),
    "v4": (4, 2, 2020, [423, 744], 0.57, 1.93),
    "v5p": (4, 2, 2023, [606, 1570], 0.64, 1.65),
}

MACHINES_PER_PLATFORM = 4
INTERVALS = 12
T0 = datetime(2024, 10, 1, tzinfo=timezone.utc)


def write_platforms() -> None:
    catalog = {}
    for pid, (chips, trays, year, *_rest) in PLATFORMS.items():
        catalog[pid] = {
            "chips_per_machine": chips,
            "trays_per_machine": trays,
            "lifetime_years": 6,
            "rectifier_overhead": 0.04,
            "power_readings_include_rectifier": True,
            "inventory_ref": pid,
            "deployment_year": year,
        }
    (DATA / "platforms.json").write_text(json.dumps(catalog, indent=2) + "\n")


def write_telemetry() -> None:
    rows = []
    for pid, (chips, trays, year, tray_split, duty, kwh_per_ef) in PLATFORMS.items():
        power = sum(tray_split)
        # energy per machine-interval (kWh) scaled by PUE and the target intensity
        flops = round(power / 12000.0 * PUE / kwh_per_ef * 1e18)
        for m in range(MACHINES_PER_PLATFORM):
            for i in range(INTERVALS):
                ts = T0 + timedelta(seconds=i * INTERVAL_S)
                rows.append(
                    {
                        "machine_id": f"{pid}-m{m:03d}",
                        "platform_id": pid,
                        "interval_start": ts.strftime("%Y-%m-%dT%H:%M:%SZ"),
                        "tray_power_w": ";".join(str(w) for w in tray_split),
                        "duty_cycle": str(duty),
                        "flops": str(flops),
                    }
                )
    # a few incomplete rows: reported power but no counters, and vice versa
    ts = (T0 + timedelta(seconds=INTERVALS * INTERVAL_S)).strftime("%Y-%m-%dT%H:%M:%SZ")
    rows.append(
        {
            "machine_id": "v4i-m900",
            "platform_id": "v4i",
            "interval_start": ts,
            "tray_power_w": "300;442;442",
            "duty_cycle": "",
            "flops": "",
        }
    )
    rows.append(
        {
            "machine_id": "v5e-m900",
            "platform_id": "v5e",
            "interval_start": ts,
            "tray_power_w": "295;438;438",
            "duty_cycle": "0.4",
            "flops": "",
        }
    )
    rows.append(
        {
            "machine_id": "v6e-m900",
            "platform_id": "v6e",
            "interval_start": ts,
            "tray_power_w": "",
            "duty_cycle": "0.5",
            "flops": "1000000000",
        }
    )
    with (DATA / "fleet_telemetry.csv").open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


# Tray-level manufacturing entries (kgCO2e per tray instance). Category
# splits are plausible approximations; tray and machine totals are the
# calibrated values.
COMPONENTS = {
    "v4i": {
        "accelerator": {"tpu_asic": 220, "hbm": 160, "thermal": 40, "pcba": 140, "mechanical": 50, "nic": 20, "misc": 23},
        "host": {"cpu": 190, "dram": 330, "ssd": 45, "pcba": 200, "thermal": 35, "mechanical": 45, "nic": 15, "misc": 23},
    },
    "v5e": {
        "accelerator": {"tpu_asic": 230, "hbm": 200, "thermal": 33, "pcba": 170, "mechanical": 60, "nic": 24, "misc": 30},
        "host": {"cpu": 150, "dram": 310, "ssd": 40, "pcba": 180, "thermal": 30, "mechanical": 40, "nic": 12, "misc": 20},
    },
    "v6e": {
        "accelerator": {"tpu_asic": 330, "hbm": 310, "thermal": 50, "pcba": 200, "mechanical": 70, "nic": 28, "misc": 26},
        "host": {"cpu": 260, "dram": 950, "ssd": 80, "pcba": 380, "thermal": 70, "mechanical": 90, "nic": 45, "misc": 54},
    },
    "v4": {
        "accelerator": {"tpu_asic": 420, "hbm": 360, "thermal": 80, "pcba": 180, "mechanical": 60, "nic": 22, "misc": 27},
        "host": {"cpu": 170, "dram": 290, "ssd": 40, "pcba": 180, "thermal": 30, "mechanical": 40, "nic": 10, "misc": 19},
    },
    "v5p": {
        "accelerator": {"tpu_asic": 640, "hbm": 700, "thermal": 100, "pcba": 260, "mechanical": 80, "nic": 26, "misc": 30},
        "host": {"cpu": 290, "dram": 380, "ssd": 50, "pcba": 230, "thermal": 45, "mechanical": 50, "nic": 30, "misc": 34},
    },
}

# Per-machine transport legs, kgCO2e unless parametric.
TRANSPORT = {
    "v4i": [
        ("factory to airport", "ground", "accelerator", 28),
        ("air freight to hub", "air", "accelerator", 330),
        ("sub-assembly ocean freight", "ocean", "host", 45),
        ("hub to data centers", "ground", "host", 24),
    ],
    "v5e": [
        ("factory to airport", "ground", "accelerator", 25),
        # parametric: both trays plus packaging
        ("air freight to hub", "air", "accelerator", {"mass_kg": 100, "distance_km": 7100, "mode_factor_g_per_tkm": 500}),
        ("hub to data centers", "ground", "accelerator", 25),
        ("sub-assembly ocean freight", "ocean", "host", 30),
        ("chips and boards air freight", "air", "host", 26),
        ("hub to data centers", "ground", "host", 10),
    ],
    "v6e": [
        ("factory to airport", "ground", "accelerator", 40),
        ("air freight to hub", "air", "accelerator", 516),
        ("sub-assembly ocean freight", "ocean", "host", 100),
        ("hub to data centers", "ground", "host", 51),
    ],
    "v4": [
        ("factory to airport", "ground", "accelerator", 25),
        ("air freight to hub", "air", "accelerator", 290),
        ("sub-assembly ocean freight", "ocean", "host", 40),
        ("hub to data centers", "ground", "host", 21),
    ],
    "v5p": [
        ("factory to airport", "ground", "accelerator", 36),
        ("air freight to hub", "air", "accelerator", 468),
        ("sub-assembly ocean freight", "ocean", "host", 57),
        ("hub to data centers", "ground", "host", 30),
    ],
}

DC_CONSTRUCTION = {"v4i": 59, "v5e": 59, "v6e": 109, "v4": 117, "v5p": 218}


def write_inventories() -> None:
    out = {}
    for pid, trays in COMPONENTS.items():
        components = [
            {"name": f"{pid} {tray} {cat}", "category": cat, "tray": tray, "kg_co2e": kg}
            for tray, cats in trays.items()
            for cat, kg in cats.items()
        ]
        legs = []
        for desc, mode, tray, qty in TRANSPORT[pid]:
            leg = {"description": desc, "mode": mode, "tray": tray}
            if isinstance(qty, dict):
                leg.update(qty)
            else:
                leg["kg_co2e"] = qty
            legs.append(leg)
        acc_trays = 2 if PLATFORMS[pid][0] == 8 else 1
        out[pid] = {
            "accelerator_trays": acc_trays,
            "components": components,
            "transport_legs": legs,
            "dc_construction_kg_per_chip": DC_CONSTRUCTION[pid],
            "scope1_kg_per_chip": 0.0,
            "eol_credit_fraction": 0.0,
        }
    (DATA / "inventories.json").write_text(json.dumps(out, indent=2) + "\n")


def write_factors() -> None:
    scenario_common = {
        "operations_factor_g_per_kwh": 31.0,
        "manufacturing_electricity_share": 0.5,
        "manufacturing_baseline_factor": 517.0,
        "manufacturing_target_factor": 31.0,
        "baseline_standard": "hourly247",
    }
    data = {
        "standards": {
            "location": {"lb_factor": 366.0, "cfe_impact": 0.0},
            "market": {"lb_factor": 366.0, "cfe_impact": 231.0},
            "hourly247": {"lb_factor": 366.0, "cfe_impact": 154.0},
        },
        "scenarios": {
            "cfe90": {**scenario_common, "apply_manufacturing_reduction": False},
            "cfe90-manufacturing": {**scenario_common, "apply_manufacturing_reduction": True},
        },
    }
    (DATA / "factors.json").write_text(json.dumps(data, indent=2) + "\n")


# run: (workload, platform, step_time_s, on-duty power W,
#       published per-step total g, published CCI g/EF, complete)
RUNS = {
    "rlhf-v5e-r1": ("rlhf", "v5e", 0.70, 1386, 0.044, 309.9, True),
    "rlhf-v6e-r1": ("rlhf", "v6e", 0.24, 2589, 0.027, 183.8, True),
    "sft-v5e-r1": ("sft", "v5e", 5.67, 1728, 0.418, 249.4, False),
    "sft-v6e-r1": ("sft", "v6e", 2.31, 3156, 0.307, 142.0, True),
}
POD_MACHINES = 32
RUN_INTERVALS = 12
IDLE_INTERVALS = {4, 9}  # one machine dips below the duty threshold here


def write_workloads() -> None:
    manifest = {"runs": []}
    lines = []
    for run_id, (workload, pid, step, power, total_g, cci, complete) in RUNS.items():
        machines = [f"{run_id}-m{m:02d}" for m in range(POD_MACHINES)]
        manifest["runs"].append(
            {
                "run_id": run_id,
                "workload": workload,
                "platform_id": pid,
                "machines": machines,
                "step_time_s": step,
                "complete": complete,
                "flops_per_step": total_g / cci * 1e18,
            }
        )
        for i in range(RUN_INTERVALS):
            ts = (T0 + timedelta(seconds=i * INTERVAL_S)).strftime("%Y-%m-%dT%H:%M:%SZ")
            for m, machine in enumerate(machines):
                dipped = i in IDLE_INTERVALS and m == 0
                lines.append(
                    json.dumps(
                        {
                            "run_id": run_id,
                            "machine_id": machine,
                            "interval_start": ts,
                            "power_w": round(power * 0.7, 1) if dipped else power,
                            "duty_cycle": 0.5 if dipped else 0.97,
                        },
                        sort_keys=True,
                    )
                )
    (DATA / "workload_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (DATA / "workload_runs.jsonl").write_text("\n".join(lines) + "\n")


def write_config() -> None:
    cfg = {
        "telemetry": "fleet_telemetry.csv",
        "platforms": "platforms.json",
        "inventories": "inventories.json",
        "factors": "factors.json",
        "run_manifest": "workload_manifest.json",
        "run_intervals": "workload_runs.jsonl",
        "standard": "market",
        "pue": 1.10,
        "buckets": 10,
        "format": "csv",
        "workload_factor_g_per_kwh": 122.5,
        "workload_pue": 1.0,
        "incomplete_runs": {"accept": ["sft-v5e-r1"], "reject": []},
    }
    (DATA / "config.json").write_text(json.dumps(cfg, indent=2) + "\n")


def main() -> None:
    DATA.mkdir(parents=True, exist_ok=True)
    write_platforms()
    write_telemetry()
    write_inventories()
    write_factors()
    write_workloads()
    write_config()
    for path in sorted(DATA.iterdir()):
        print(f"wrote {path.relative_to(DATA.parent.parent.parent)} ({path.stat().st_size} bytes)")


if __name__ == "__main__":
    main()
