"""Expected results, computed from the generated rows alone.

Nothing here calls into fleetcarbon: each expectation is derived from the
rows the benchmark wrote, following the definitions the package documents
(machine power is the sum of tray readings, energy per ExaFLOP is
PUE-inclusive, duty buckets are equal-width and right-closed). Integers
and strings must match exactly, floats to a relative tolerance of 1e-12.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

REL_TOL = 1e-12
INTERVAL_S = 300
EXA = 1e18
J_PER_KWH = 3.6e6
DUTY_THRESHOLD = 0.8


def close(got: float, want: float) -> bool:
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _missing(value) -> bool:
    return value is None or str(value).strip() == ""


def complete(row: dict) -> bool:
    return not any(_missing(row[k]) for k in ("tray_power_w", "duty_cycle", "flops"))


def row_power(row: dict) -> float:
    return math.fsum(float(p) for p in row["tray_power_w"].split(";") if p.strip())


@dataclass(frozen=True)
class PlatformTotals:
    samples: int
    power_sum_w: float
    flops: int

    @property
    def mean_power_w(self) -> float:
        return self.power_sum_w / self.samples

    def kwh_per_exaflop(self, pue: float) -> float:
        kwh = self.power_sum_w * (INTERVAL_S / 3600.0) / 1000.0
        return kwh * pue / (self.flops / EXA)


def platform_totals(rows, catalog: dict) -> dict[str, PlatformTotals]:
    """Per-platform totals over complete rows.

    `catalog` is the parsed platforms.json; readings that exclude the
    rectifier get its overhead added, as the catalog declares.
    """
    powers: dict[str, list[float]] = {}
    flops: dict[str, int] = {}
    for row in rows:
        if not complete(row):
            continue
        pid = row["platform_id"]
        spec = catalog[pid]
        power = row_power(row)
        if not spec.get("power_readings_include_rectifier", True):
            power *= 1.0 + float(spec.get("rectifier_overhead", 0.04))
        powers.setdefault(pid, []).append(power)
        flops[pid] = flops.get(pid, 0) + int(row["flops"])
    return {
        pid: PlatformTotals(len(values), math.fsum(values), flops[pid])
        for pid, values in sorted(powers.items())
    }


def market_factor(factors: dict, standard: str) -> float:
    entry = factors["standards"][standard]
    return float(entry["lb_factor"]) - float(entry.get("cfe_impact", 0.0))


def manufacturing_per_chip(inventories: dict, catalog: dict) -> dict[str, float]:
    """Machine manufacturing kg CO2e per chip, for each catalog platform."""
    out = {}
    for pid, spec in catalog.items():
        inv = inventories[spec.get("inventory_ref", pid)]
        total = math.fsum(
            float(c["kg_co2e"]) * (int(inv["accelerator_trays"]) if c["tray"] == "accelerator" else 1)
            for c in inv["components"]
        )
        out[pid] = total / int(spec["chips_per_machine"])
    return out


class Problems(list):
    """Mismatches found in one invocation's output."""

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.append(what)

    def equal(self, got, want, what: str) -> None:
        self.expect(got == want, f"{what}: got {got!r}, expected {want!r}")

    def near(self, got: str | float | None, want: float, what: str) -> None:
        try:
            value = float(got)
        except (TypeError, ValueError):
            self.append(f"{what}: got {got!r}, expected {want!r}")
            return
        self.expect(close(value, want), f"{what}: got {value!r}, expected {want!r}")


def check_platform_table(text: str, totals: dict[str, PlatformTotals], pue: float, standard: str) -> Problems:
    problems = Problems()
    rows = read_csv(text)
    problems.equal([r["platform"] for r in rows], sorted(totals), "platforms")
    for r in rows:
        want = totals.get(r["platform"])
        if want is None:
            continue
        pid = r["platform"]
        problems.equal(r["standard"], standard, f"{pid} standard")
        problems.equal(r["samples"], str(want.samples), f"{pid} samples")
        problems.equal(r["mean_power_w"], repr(round(want.mean_power_w, 1)), f"{pid} mean_power_w")
        problems.near(r["kwh_per_exaflop"], want.kwh_per_exaflop(pue), f"{pid} kwh_per_exaflop")
    return problems


def check_stage_table(text: str, totals: dict[str, PlatformTotals], pue: float, standard: str, factor: float) -> Problems:
    problems = Problems()
    rows = read_csv(text)
    problems.equal(len(rows), 6 * len(totals), "stage rows")
    operational = {r["platform"]: r["g_per_exaflop"] for r in rows if r["stage"] == f"operational_{standard}"}
    problems.equal(sorted(operational), sorted(totals), "operational stage platforms")
    for pid, value in operational.items():
        if pid in totals:
            problems.near(value, totals[pid].kwh_per_exaflop(pue) * factor, f"{pid} operational g/EF")
    return problems


def check_manufacturing_table(text: str, expected: dict[str, float]) -> Problems:
    problems = Problems()
    totals = {r["platform"]: r["manufacturing_kg_per_chip"] for r in read_csv(text) if r["category"] == "total"}
    problems.equal(sorted(totals), sorted(expected), "manufacturing platforms")
    for pid, value in totals.items():
        if pid in expected:
            problems.near(value, expected[pid], f"{pid} manufacturing kg/chip")
    return problems


def check_scenario_table(text: str, totals: dict[str, PlatformTotals], pue: float, scenarios: dict) -> Problems:
    problems = Problems()
    rows = read_csv(text)
    problems.equal(
        [(r["scenario"], r["platform"]) for r in rows],
        [(s, p) for s in sorted(scenarios) for p in sorted(totals)],
        "scenario rows",
    )
    for r in rows:
        spec, want = scenarios.get(r["scenario"]), totals.get(r["platform"])
        if spec is None or want is None:
            continue
        what = f"{r['scenario']}/{r['platform']}"
        problems.equal(r["baseline_standard"], spec.get("baseline_standard", "hourly247"), f"{what} baseline")
        problems.near(
            r["scenario_operational_cci"],
            want.kwh_per_exaflop(pue) * float(spec["operations_factor_g_per_kwh"]),
            f"{what} scenario_operational_cci",
        )
    return problems


def bucket_of(duty: float, buckets: int) -> int:
    return max(0, math.ceil(duty * buckets) - 1)


BALANCE_METRICS = ("duty_cycle", "power_w", "flops_per_s", "energy_kwh_per_exaflop", "carbon_g_per_exaflop")


def balanced_metrics(rows, buckets: int, pue: float, factor: float) -> tuple[dict[str, int], dict[str, dict[str, float]]]:
    """Stratified duty-balanced means per generation, from per-bucket sums.

    Each generation's mean within a bucket is weighted by the bucket's
    pooled size over all generations, summed over the buckets the
    generation populates. Returns observation counts and metrics.
    """
    pooled: dict[int, int] = {}
    cells: dict[str, dict[int, tuple[list, list, list]]] = {}
    for row in rows:
        if not complete(row):
            continue
        duty = float(row["duty_cycle"])
        b = bucket_of(duty, buckets)
        pooled[b] = pooled.get(b, 0) + 1
        cell = cells.setdefault(row["platform_id"], {}).setdefault(b, ([], [], []))
        cell[0].append(duty)
        cell[1].append(row_power(row))
        cell[2].append(int(row["flops"]) / INTERVAL_S)
    counts, metrics = {}, {}
    for gen, per_bucket in sorted(cells.items()):
        counts[gen] = sum(len(c[0]) for c in per_bucket.values())
        mass = math.fsum(pooled[b] for b in per_bucket)
        means = [
            math.fsum(pooled[b] * math.fsum(c[k]) / len(c[k]) for b, c in per_bucket.items()) / mass
            for k in range(3)
        ]
        energy = means[1] / means[2] * EXA / J_PER_KWH * pue
        metrics[gen] = dict(zip(BALANCE_METRICS, (*means, energy, energy * factor)))
    return counts, metrics


def check_weighting_table(text: str, counts: dict[str, int], metrics: dict[str, dict[str, float]], baseline: str) -> Problems:
    problems = Problems()
    rows = read_csv(text)
    problems.equal(
        [(r["generation"], r["metric"]) for r in rows],
        [(g, m) for g in sorted(metrics) for m in BALANCE_METRICS],
        "weighting rows",
    )
    for r in rows:
        gen, metric = r["generation"], r["metric"]
        if gen not in metrics or metric not in metrics[gen]:
            continue
        want = metrics[gen][metric]
        problems.equal(r["observations"], str(counts[gen]), f"{gen} observations")
        problems.near(r["weighted_value"], want, f"{gen} {metric}")
        problems.near(r["ratio_vs_baseline"], want / metrics[baseline][metric], f"{gen} {metric} ratio")
    return problems


def check_ingest(summary_text: str, log_text: str, rows_read: int, injected: dict, platforms: list[str]) -> Problems:
    """accepted + rejected = rows read; exclusions = rows generated without
    counters; the rejection log names exactly the corrupted rows."""
    problems = Problems()
    try:
        summary = json.loads(summary_text)
    except json.JSONDecodeError as exc:
        problems.append(f"ingest summary is not JSON: {exc}")
        return problems
    rejected_rows = [pos + 1 for pos in sorted(injected["rejected"])]
    accepted = rows_read - len(rejected_rows)
    excluded = {
        "missing power": len(injected["no_power"]),
        "missing utilization/performance": len(injected["no_counters"]),
    }
    problems.equal(summary.get("rows_accepted"), accepted, "rows_accepted")
    problems.equal(summary.get("rows_rejected"), len(rejected_rows), "rows_rejected")
    problems.equal(summary.get("excluded_incomplete"), excluded, "excluded_incomplete")
    problems.equal(summary.get("complete_samples"), accepted - sum(excluded.values()), "complete_samples")
    problems.equal(summary.get("platforms"), sorted(platforms), "platforms")
    logged = [int(r["row"]) for r in read_csv(log_text)]
    problems.equal(len(logged), len(rejected_rows), "rejection log length")
    problems.expect(logged == rejected_rows, "rejection log rows differ from the injected positions")
    return problems


@dataclass(frozen=True)
class OnDuty:
    power_w: float
    included: int
    excluded: int


def on_duty(manifest: dict, records) -> dict[str, OnDuty]:
    """Per run: mean power over intervals where every pod machine is at or
    above the duty threshold, and the included/excluded interval counts."""
    by_run: dict[str, dict[str, list[tuple[float, float]]]] = {}
    for rec in records:
        by_run.setdefault(rec["run_id"], {}).setdefault(rec["interval_start"], []).append(
            (float(rec["duty_cycle"]), float(rec["power_w"]))
        )
    out = {}
    for run in manifest["runs"]:
        intervals = by_run[run["run_id"]]
        busy = [iv for iv in intervals.values() if len(iv) == len(run["machines"]) and all(d >= DUTY_THRESHOLD for d, _ in iv)]
        powers = [p for iv in busy for _, p in iv]
        out[run["run_id"]] = OnDuty(math.fsum(powers) / len(powers), len(busy), len(intervals) - len(busy))
    return out


def verdict(run: dict, policy: dict) -> str:
    if run["run_id"] in policy["reject"]:
        return "rejected"
    if run.get("complete", True) or run["run_id"] in policy["accept"]:
        return "accepted"
    return "needs-validation"


def check_workload_table(text: str, manifest: dict, expected: dict[str, OnDuty], policy: dict) -> Problems:
    problems = Problems()
    rows = {r["run_id"]: r for r in read_csv(text)}
    problems.equal(sorted(rows), sorted(expected), "workload runs")
    for run in manifest["runs"]:
        r = rows.get(run["run_id"])
        if r is None:
            continue
        rid, want = run["run_id"], expected[run["run_id"]]
        problems.equal(r["validation"], verdict(run, policy), f"{rid} validation")
        if r["validation"] == "rejected":
            problems.equal(r["on_duty_power_w"], "", f"{rid} on_duty_power_w")
            continue
        problems.near(r["on_duty_power_w"], want.power_w, f"{rid} on_duty_power_w")
        problems.equal(r["included_intervals"], str(want.included), f"{rid} included_intervals")
        problems.equal(r["excluded_intervals"], str(want.excluded), f"{rid} excluded_intervals")
    return problems


def check_amortization_table(text: str, catalog: dict) -> Problems:
    problems = Problems()
    expected = []
    for pid in sorted(catalog):
        first = int(catalog[pid]["deployment_year"])
        years = int(round(float(catalog[pid]["lifetime_years"])))
        expected += [(pid, str(year)) for year in range(first, first + years)]
    problems.equal([(r["platform"], r["year"]) for r in read_csv(text)], expected, "amortization rows")
    return problems


def read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return ""
