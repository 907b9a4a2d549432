#!/usr/bin/env python3
"""Size sweep of the telemetry path (synth, ingest, fold_platforms, weighting_table) and of the pod path.

    python3 tools/bench_sweep.py [--src src] [--rows 10000 100000 1000000]
                                 [--repeat 3] [--work DIR]

For each size, times in this process:

- `synth.write_fleet` of a synthetic fleet of that many rows (the bundled
  catalog's five platforms with their tray counts, 2% of rows without
  counters), the file the other steps read;
- `telemetry.ingest` of the CSV file, and its tracemalloc peak (measured
  in a separate, untimed run, because tracing slows allocation);
- `report.fold_platforms` under the `market` standard at PUE 1.1;
- `report.weighting_table` over all five platforms against `v4i`;
- `workload.read_runs` of a run manifest and a JSON-lines file of that
  many pod interval records (runs of ten machines over the fleet's
  intervals, cycling over the five platforms), and its tracemalloc peak
  (measured in a separate, untimed run, as for `ingest`);
- `workload.on_duty_power` over every run it read.

Each time is the median of `--repeat` runs; rows/s is rows over that
time. `--src` picks the fleetcarbon source tree to measure, so two
checkouts can be compared with the same script. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import random
import statistics
import sys
import tempfile
import time
import tracemalloc
from datetime import datetime, timedelta, timezone
from pathlib import Path

# platform -> trays per machine, as in the bundled catalog
PLATFORMS = {"v4i": 3, "v5e": 3, "v6e": 3, "v4": 2, "v5p": 2}
INTERVALS = {10_000: 100, 100_000: 200, 1_000_000: 400}
POD_MACHINES = 10


def fleet(rows: int):
    from fleetcarbon import synth

    intervals = INTERVALS.get(rows, 200)
    machines, rest = divmod(rows, len(PLATFORMS) * intervals)
    if rest or not machines:
        raise SystemExit(f"{rows} rows do not split into {len(PLATFORMS)} platforms x {intervals} intervals")
    generations = tuple(
        synth.GenerationSpec(name=pid, machines=machines, trays_per_machine=trays, missing_rate=0.02)
        for pid, trays in PLATFORMS.items()
    )
    return synth.SynthScenario(seed=6, intervals=intervals, generations=generations)


def pod_files(records: int, work: Path) -> tuple[Path, Path]:
    """A run manifest and its JSON-lines interval file of `records` records."""
    intervals = INTERVALS.get(records, 200)
    runs, rest = divmod(records, POD_MACHINES * intervals)
    if rest or not runs:
        raise SystemExit(f"{records} records do not split into {POD_MACHINES}-machine runs x {intervals} intervals")
    rng = random.Random(6)
    t0 = datetime(2024, 10, 1, tzinfo=timezone.utc)
    stamps = [(t0 + timedelta(minutes=5 * i)).strftime("%Y-%m-%dT%H:%M:%SZ") for i in range(intervals)]
    manifest, intervals_path = work / f"runs-{records}.json", work / f"intervals-{records}.jsonl"
    listed = []
    with intervals_path.open("w", encoding="utf-8") as fh:
        for r in range(runs):
            run_id, pid = f"run-{r:04d}", list(PLATFORMS)[r % len(PLATFORMS)]
            machines = [f"{run_id}-m{m:02d}" for m in range(POD_MACHINES)]
            listed.append({"run_id": run_id, "platform_id": pid, "machines": machines, "step_time_s": 1.5})
            for stamp in stamps:
                for machine in machines:
                    record = {
                        "duty_cycle": round(rng.uniform(0.82, 1.0), 4),
                        "interval_start": stamp,
                        "machine_id": machine,
                        "power_w": round(rng.uniform(900.0, 1100.0), 3),
                        "run_id": run_id,
                    }
                    fh.write(json.dumps(record) + "\n")
    manifest.write_text(json.dumps({"runs": listed}), encoding="utf-8")
    return manifest, intervals_path


def timed(repeat: int, call) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeat):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def peak_mb(call) -> float:
    """The tracemalloc peak of one untimed `call`, in MB: tracing slows allocation, so no timed run is traced."""
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def sweep(rows: int, repeat: int, work: Path) -> dict:
    from fleetcarbon import config, report, synth, telemetry, workload

    csv_path, manifest = work / f"fleet-{rows}.csv", work / f"fleet-{rows}.json"
    scenario = fleet(rows)
    synth_s, _ = timed(repeat, lambda: synth.write_fleet(scenario, csv_path, manifest))
    data = config.bundled_data_dir()
    catalog = config.load_platforms(data / "platforms.json")
    inventories = config.load_inventories(data / "inventories.json")
    factors = config.load_factors(data / "factors.json")
    factor = factors.factor_for("market")

    ingest_s, dataset = timed(repeat, lambda: telemetry.ingest(csv_path, catalog))
    ingest_peak = peak_mb(lambda: telemetry.ingest(csv_path, catalog))

    fold_s, _ = timed(repeat, lambda: report.fold_platforms(dataset, inventories, factors, "market", 1.1))
    weight_s, _ = timed(
        repeat, lambda: report.weighting_table(dataset, list(PLATFORMS), "v4i", factor, pue=1.1)
    )
    csv_path.unlink()
    manifest.unlink()

    runs_path, intervals_path = pod_files(rows, work)
    read_runs_s, runs = timed(repeat, lambda: workload.read_runs(runs_path, intervals_path))
    on_duty_s, _ = timed(repeat, lambda: [workload.on_duty_power(run) for run in runs])
    runs = None
    read_runs_peak = peak_mb(lambda: workload.read_runs(runs_path, intervals_path))
    runs_path.unlink()
    intervals_path.unlink()
    return {
        "rows": rows,
        "synth": {"s": synth_s, "rows_per_s": rows / synth_s},
        "ingest": {"s": ingest_s, "rows_per_s": rows / ingest_s, "tracemalloc_peak_mb": ingest_peak},
        "fold_platforms": {"s": fold_s, "rows_per_s": rows / fold_s},
        "weighting_table": {"s": weight_s, "rows_per_s": rows / weight_s},
        "read_runs": {"s": read_runs_s, "records_per_s": rows / read_runs_s, "tracemalloc_peak_mb": read_runs_peak},
        "on_duty_power": {"s": on_duty_s, "records_per_s": rows / on_duty_s},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--rows", type=int, nargs="+", default=sorted(INTERVALS))
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--work", type=Path, default=None, help="where the fleets are written")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    with tempfile.TemporaryDirectory(dir=args.work) as work:
        results = [sweep(rows, args.repeat, Path(work)) for rows in args.rows]
    print(json.dumps({"python": platform.python_version(), "repeat": args.repeat, "sizes": results}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
