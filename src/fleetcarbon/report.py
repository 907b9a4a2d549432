"""Report assembly and serialization.

Every report is a small table (ordered column names plus rows of values)
rendered to CSV, JSON, or markdown. The CSV and JSON forms carry the same
numbers at full precision (shortest round-trip float text); markdown is a
human view with light rounding. Output is deterministic for fixed input:
rows are built in sorted platform order and nothing time- or
environment-dependent is written.

The telemetry-driven tables read the ledger `telemetry.ingest` builds,
whose cells hold each (platform, duty-bucket) total of the complete rows;
no table walks rows. The platforms, stage breakdown and scenario tables
read the `CciReport`s of `fold_platforms`, which combines each catalog
platform's cells into a window and takes it through the embodied
breakdown and its CCI report exactly once; each report carries its
window, breakdown, factor and PUE, and a command builds every such table
it writes from that one result. The weighting table hands the
cohort's cells to the duty-balanced comparison as its strata.

Per the house accounting style, mass columns (kg suffix) are rounded to
whole kilograms at build time; intensities stay full precision. A table
refuses a NaN or infinite float with a ComputationError naming the table,
the column and the row, so no such value is ever written.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .cci import EXA, CciReport, build_report, operational_cci
from .config import FactorConfig, RunPolicy
from .errors import ComputationError, ConfigError
from .factors import scenario_manufacturing_reduction
from .lca import (
    MachineInventory,
    inventory_for,
    inventory_views,
    machine_manufacturing,
    per_chip_embodied,
    tray_multiplicity,
)
from .telemetry import (
    Cell,
    FleetDataset,
    PlatformSpec,
    aggregate,
    lifetime_energy_per_chip,
)

if TYPE_CHECKING:
    from .workload import WorkloadRun


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            for column, value in zip(self.columns, row):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ComputationError(f"table {self.name!r}: {column} of {row[0]!r} is not finite")

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow([_cell_text(v) for v in row])
        return buf.getvalue()

    def to_json(self) -> str:
        records = [dict(zip(self.columns, row)) for row in self.rows]
        return json.dumps({"name": self.name, "rows": records}, indent=2, sort_keys=False) + "\n"

    def to_markdown(self) -> str:
        lines = ["| " + " | ".join(self.columns) + " |"]
        lines.append("|" + "|".join(" --- " for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(_md_text(v) for v in row) + " |")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        if fmt == "csv":
            return self.to_csv()
        if fmt == "json":
            return self.to_json()
        if fmt == "md":
            return self.to_markdown()
        raise ValueError(f"unknown format {fmt!r}")


def _cell_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return "" if value is None else str(value)


def _md_text(value) -> str:
    if isinstance(value, float):
        return format(value, ".4g") if abs(value) < 1 else format(value, ".1f")
    return "" if value is None else str(value)


def _round_kg(value: float) -> int | float:
    """Whole kilograms; a non-finite value is left for `Table` to refuse."""
    return round(value) if math.isfinite(value) else value


def fold_platforms(
    dataset: FleetDataset,
    inventories: dict[str, MachineInventory],
    factors: FactorConfig,
    standard: str,
    pue: float,
) -> dict[str, CciReport]:
    """Aggregate, break down and report each platform of the dataset's catalog once,
    in sorted platform order."""
    factor = factors.factor_for(standard)
    reports = {}
    for pid in sorted(dataset.catalog):
        spec = dataset.catalog[pid]
        breakdown = per_chip_embodied(inventory_for(spec, inventories), spec)
        reports[pid] = build_report(aggregate(dataset, pid), spec, breakdown, factor, pue)
    return reports


def platform_table(reports: dict[str, CciReport], standard: str) -> Table:
    """Per-platform lifetime accounting under one electricity standard."""
    rows = []
    for pid, rep in reports.items():
        window, breakdown = rep.window, rep.breakdown
        energy_chip = lifetime_energy_per_chip(window, rep.spec, rep.pue)
        rows.append(
            (
                pid,
                standard,
                window.sample_count,
                round(window.mean_machine_power_w, 1),
                rep.energy_kwh_per_exaflop,
                round(energy_chip, 1),
                _round_kg(breakdown.total),
                _round_kg(breakdown.dc_construction),
                _round_kg(breakdown.cpu_mt),
                _round_kg(breakdown.tpu_mt),
                _round_kg(operational_cci(energy_chip, rep.factor_g_per_kwh) / 1000.0),
                rep.lifetime_exaflops_per_chip,
                rep.embodied_cci,
                rep.operational_cci,
                rep.total_cci,
            )
        )
    return Table(
        name="platforms",
        columns=(
            "platform",
            "standard",
            "samples",
            "mean_power_w",
            "kwh_per_exaflop",
            "lifetime_kwh_per_chip",
            "embodied_kg_per_chip",
            "dc_construction_kg",
            "cpu_mt_kg",
            "tpu_mt_kg",
            "operational_kg_per_chip",
            "lifetime_exaflops_per_chip",
            "embodied_cci",
            "operational_cci",
            "total_cci",
        ),
        rows=tuple(rows),
    )


def stage_breakdown_table(reports: dict[str, CciReport], standard: str) -> Table:
    """Chart-ready intensity per life-cycle stage, g per ExaFLOP."""
    rows = []
    for pid, rep in reports.items():
        breakdown = rep.breakdown
        lef = rep.lifetime_exaflops_per_chip
        stages = (
            ("dc_construction", breakdown.dc_construction * 1000.0 / lef),
            ("cpu_manufacturing_transport", breakdown.cpu_mt * 1000.0 / lef),
            ("tpu_manufacturing_transport", breakdown.tpu_mt * 1000.0 / lef),
            ("end_of_life", breakdown.eol * 1000.0 / lef),
            ("scope1", breakdown.scope1 * 1000.0 / lef),
            (f"operational_{standard}", rep.operational_cci),
        )
        for stage, value in stages:
            rows.append((pid, stage, value))
    return Table(
        name="stage_breakdown",
        columns=("platform", "stage", "g_per_exaflop"),
        rows=tuple(rows),
    )


def manufacturing_table(
    platforms: dict[str, PlatformSpec], inventories: dict[str, MachineInventory]
) -> Table:
    """Manufacturing kg per chip by component category and tray role."""
    rows = []
    for pid in sorted(platforms):
        spec = platforms[pid]
        inv = inventory_for(spec, inventories)
        for entry in inv.components:
            rows.append(
                (
                    pid,
                    entry.tray,
                    entry.category,
                    entry.kg_co2e * tray_multiplicity(inv, entry.tray) / spec.chips_per_machine,
                )
            )
        rows.append(
            (pid, "machine", "total", machine_manufacturing(inv) / spec.chips_per_machine)
        )
    return Table(
        name="manufacturing",
        columns=("platform", "tray", "category", "manufacturing_kg_per_chip"),
        rows=tuple(rows),
    )


def workload_table(
    runs: tuple[WorkloadRun, ...],
    platforms: dict[str, PlatformSpec],
    inventories: dict[str, MachineInventory],
    factor_g_per_kwh: float,
    pue: float,
    policy: RunPolicy,
) -> Table:
    """Per-run step emissions mirror: power, CCI, per-step grams."""
    from .workload import emissions_per_step  # only `workload` runs it: other commands skip the import

    rows = []
    for run in sorted(runs, key=lambda r: r.run_id):
        verdict = policy.verdict(run)
        if verdict == "rejected":
            rows.append((run.run_id, run.workload, run.platform_id, "rejected") + (None,) * 8)
            continue
        spec = platforms.get(run.platform_id)
        if spec is None:
            raise ConfigError(f"run {run.run_id}: platform {run.platform_id!r} not in catalog")
        step = emissions_per_step(
            run, factor_g_per_kwh, inventory_for(spec, inventories), spec, pue=pue
        )
        cci = None  # blank when the manifest gives no FLOPs per step
        if run.flops_per_step:
            exaflops = run.flops_per_step / EXA  # 0 for a count too small: Table refuses the inf
            cci = step.total_g / exaflops if exaflops else math.inf
        rows.append(
            (
                run.run_id,
                run.workload,
                run.platform_id,
                verdict,
                run.step_time_s,
                step.on_duty.power_w,
                step.on_duty.included_intervals,
                step.on_duty.excluded_intervals,
                cci,
                step.operational_g,
                step.embodied_g,
                step.total_g,
            )
        )
    return Table(
        name="workloads",
        columns=(
            "run_id",
            "workload",
            "platform",
            "validation",
            "step_time_s",
            "on_duty_power_w",
            "included_intervals",
            "excluded_intervals",
            "cci_g_per_exaflop",
            "operational_g_per_step",
            "embodied_g_per_step",
            "total_g_per_step",
        ),
        rows=tuple(rows),
    )


def weighting_table(
    dataset: FleetDataset,
    cohort_platforms: list[str],
    baseline: str,
    factor_g_per_kwh: float,
    pue: float = 1.0,
) -> tuple[Table, tuple[str, ...]]:
    """Balanced cross-generation comparison for one cohort of platforms,
    stratified by the duty buckets the dataset was ingested under."""
    from .weighting import balanced_comparison  # only `weight` runs it: other commands skip the import

    cells = dataset_observations(dataset, cohort_platforms)
    if not cells:
        raise ComputationError(f"no complete samples for cohort {cohort_platforms}")
    comparison = balanced_comparison(
        cells, baseline=baseline, factor_g_per_kwh=factor_g_per_kwh, pue=pue
    )
    rows = []
    for gen in sorted(comparison.per_generation):
        gm = comparison.per_generation[gen]
        for key, value in gm.weighted.items():
            rows.append(
                (gen, key, gm.observations, value, gm.ratios[key], "no-overlap" if gm.no_overlap else "")
            )
    table = Table(
        name="weighting",
        columns=(
            "generation",
            "metric",
            "observations",
            "weighted_value",
            "ratio_vs_baseline",
            "flags",
        ),
        rows=tuple(rows),
    )
    return table, comparison.warnings


def dataset_observations(
    dataset: FleetDataset, platform_ids: list[str]
) -> dict[tuple[str, int], Cell]:
    """The ledger cells of the chosen platforms: the weighting strata."""
    wanted = set(platform_ids)
    return {key: cell for key, cell in dataset.samples.items() if key[0] in wanted}


def scenario_table(
    reports: dict[str, CciReport],
    factors: FactorConfig,
    scenario_names: list[str],
    baseline_platform: str | None = None,
) -> Table:
    """Total CCI under each scenario against its baseline standard.

    Ratios compare the baseline-standard intensity (of the platform itself
    and of a named reference platform) to the scenario intensity; above 1
    means the scenario is an improvement. Embodied intensity and energy per
    ExaFLOP do not depend on the standard, so the baseline totals are
    re-priced from `reports` rather than recomputed.
    """
    rows = []
    for name in scenario_names:
        if name not in factors.scenarios:
            raise ComputationError(f"unknown scenario {name!r}")
        scenario = factors.scenarios[name]
        base_factor = factors.factor_for(scenario.baseline_standard)
        reduction = (
            scenario_manufacturing_reduction(scenario)
            if scenario.apply_manufacturing_reduction
            else 0.0
        )
        base_totals = {
            pid: base.embodied_cci + operational_cci(base.energy_kwh_per_exaflop, base_factor)
            for pid, base in reports.items()
        }
        ref = baseline_platform or next(iter(base_totals), None)  # None: no platforms, no rows
        if ref is not None and ref not in base_totals:
            raise ComputationError(f"baseline platform {ref!r} not in catalog")
        for pid, base in reports.items():
            scen_embodied = base.embodied_cci * (1.0 - reduction)
            scen_operational = operational_cci(
                base.energy_kwh_per_exaflop, scenario.operations_factor_g_per_kwh
            )
            scen_total = scen_embodied + scen_operational
            if scen_total == 0:
                raise ComputationError(f"scenario {name!r}: platform {pid!r} has a zero total CCI")
            rows.append(
                (
                    name,
                    pid,
                    scenario.baseline_standard,
                    base_totals[pid],
                    scen_embodied,
                    scen_operational,
                    scen_total,
                    base_totals[pid] / scen_total,
                    base_totals[ref] / scen_total,
                )
            )
    return Table(
        name="scenarios",
        columns=(
            "scenario",
            "platform",
            "baseline_standard",
            "baseline_total_cci",
            "scenario_embodied_cci",
            "scenario_operational_cci",
            "scenario_total_cci",
            "improvement_vs_self",
            "improvement_vs_baseline_platform",
        ),
        rows=tuple(rows),
    )


def amortization_table(
    platforms: dict[str, PlatformSpec], inventories: dict[str, MachineInventory]
) -> Table:
    """Yearly per-chip embodied emissions under both accounting views."""
    rows = []
    for pid in sorted(platforms):
        spec = platforms[pid]
        views = inventory_views(inventory_for(spec, inventories), spec)
        for i, year in enumerate(views.years):
            rows.append(
                (pid, year, i + 1, views.lca_amortized[i], views.corporate_first_year[i])
            )
    return Table(
        name="amortization",
        columns=("platform", "year", "service_year", "lca_kg_per_chip", "corporate_kg_per_chip"),
        rows=tuple(rows),
    )
