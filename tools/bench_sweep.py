#!/usr/bin/env python3
"""Size sweep of the telemetry path: ingest, fold_platforms, weighting_table.

    python3 tools/bench_sweep.py [--src src] [--rows 10000 100000 1000000]
                                 [--repeat 3] [--work DIR]

For each size, writes a synthetic fleet of that many rows with
`fleetcarbon.synth` (the bundled catalog's five platforms with their tray
counts, 2% of rows without counters), then times in this process:

- `telemetry.ingest` of the CSV file, and its tracemalloc peak (measured
  in a separate, untimed run, because tracing slows allocation);
- `report.fold_platforms` under the `market` standard at PUE 1.1;
- `report.weighting_table` over all five platforms against `v4i`.

Each time is the median of `--repeat` runs; rows/s is rows over that
time. `--src` picks the fleetcarbon source tree to measure, so two
checkouts can be compared with the same script. Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

# platform -> trays per machine, as in the bundled catalog
PLATFORMS = {"v4i": 3, "v5e": 3, "v6e": 3, "v4": 2, "v5p": 2}
INTERVALS = {10_000: 100, 100_000: 200, 1_000_000: 400}


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


def timed(repeat: int, call) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeat):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def sweep(rows: int, repeat: int, work: Path) -> dict:
    from fleetcarbon import config, report, synth, telemetry

    csv_path, manifest = work / f"fleet-{rows}.csv", work / f"fleet-{rows}.json"
    synth.write_fleet(fleet(rows), csv_path, manifest)
    data = config.bundled_data_dir()
    catalog = config.load_platforms(data / "platforms.json")
    inventories = config.load_inventories(data / "inventories.json")
    factors = config.load_factors(data / "factors.json")
    factor = factors.factor_for("market")

    ingest_s, dataset = timed(repeat, lambda: telemetry.ingest(csv_path, catalog))
    dataset = None
    gc.collect()
    tracemalloc.start()
    dataset = telemetry.ingest(csv_path, catalog)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    fold_s, _ = timed(repeat, lambda: report.fold_platforms(dataset, inventories, factors, "market", 1.1))
    weighting_args = {"factor_g_per_kwh": factor, "pue": 1.1}
    if "buckets" in inspect.signature(report.weighting_table).parameters:  # older signature
        weighting_args["buckets"] = 10
    weight_s, _ = timed(
        repeat, lambda: report.weighting_table(dataset, list(PLATFORMS), "v4i", **weighting_args)
    )
    csv_path.unlink()
    manifest.unlink()
    return {
        "rows": rows,
        "ingest": {"s": ingest_s, "rows_per_s": rows / ingest_s, "tracemalloc_peak_mb": peak / 2**20},
        "fold_platforms": {"s": fold_s, "rows_per_s": rows / fold_s},
        "weighting_table": {"s": weight_s, "rows_per_s": rows / weight_s},
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
