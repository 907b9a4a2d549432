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
read one `FleetAccounts`: `fold_platforms` combines each catalog
platform's cells into a window and takes it through the embodied
breakdown and its CCI report exactly once, and a command builds every such
table it writes from that one result. The weighting table hands the
cohort's cells to the duty-balanced comparison as its strata.

Per the house accounting style, mass columns (kg suffix) are rounded to
whole kilograms at build time; intensities stay full precision.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

from .cci import CciReport, build_report, operational_cci
from .config import FactorConfig
from .errors import ComputationError, ConfigError
from .factors import scenario_manufacturing_reduction
from .lca import (
    EmbodiedBreakdown,
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
    FleetWindow,
    PlatformSpec,
    aggregate,
    lifetime_energy_per_chip,
)
from .weighting import balanced_comparison
from .workload import RunPolicy, WorkloadRun, emissions_per_step, workload_cci


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]

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


def _round_kg(value: float) -> int:
    return round(value)


@dataclass(frozen=True)
class PlatformAccount:
    """One platform's aggregated window, embodied breakdown and CCI report."""

    spec: PlatformSpec
    window: FleetWindow
    breakdown: EmbodiedBreakdown
    report: CciReport


@dataclass(frozen=True)
class FleetAccounts:
    """Every catalog platform accounted under one standard and PUE."""

    standard: str
    factor_g_per_kwh: float
    pue: float
    platforms: dict[str, PlatformAccount]  # in sorted platform order


def fold_platforms(
    dataset: FleetDataset,
    inventories: dict[str, MachineInventory],
    factors: FactorConfig,
    standard: str,
    pue: float,
) -> FleetAccounts:
    """Aggregate, break down and report each platform of the dataset's catalog once."""
    factor = factors.factor_for(standard)
    accounts = {}
    for pid in sorted(dataset.catalog):
        spec = dataset.catalog[pid]
        window = aggregate(dataset, pid)
        breakdown = per_chip_embodied(inventory_for(spec, inventories), spec)
        rep = build_report(window, spec, breakdown, factor, pue, standard)
        accounts[pid] = PlatformAccount(spec, window, breakdown, rep)
    return FleetAccounts(standard, factor, pue, accounts)


def platform_table(accounts: FleetAccounts) -> Table:
    """Per-platform lifetime accounting under one electricity standard."""
    factor = accounts.factor_g_per_kwh
    rows = []
    for pid, acct in accounts.platforms.items():
        window, breakdown, rep = acct.window, acct.breakdown, acct.report
        energy_chip = lifetime_energy_per_chip(window, acct.spec, accounts.pue)
        rows.append(
            (
                pid,
                accounts.standard,
                window.sample_count,
                round(window.mean_machine_power_w, 1),
                rep.energy_kwh_per_exaflop,
                round(energy_chip, 1),
                _round_kg(breakdown.total),
                _round_kg(breakdown.dc_construction),
                _round_kg(breakdown.cpu_mt),
                _round_kg(breakdown.tpu_mt),
                _round_kg(energy_chip * factor / 1000.0),
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


def stage_breakdown_table(accounts: FleetAccounts) -> Table:
    """Chart-ready intensity per life-cycle stage, g per ExaFLOP."""
    rows = []
    for pid, acct in accounts.platforms.items():
        breakdown, rep = acct.breakdown, acct.report
        lef = rep.lifetime_exaflops_per_chip
        stages = (
            ("dc_construction", breakdown.dc_construction * 1000.0 / lef),
            ("cpu_manufacturing_transport", breakdown.cpu_mt * 1000.0 / lef),
            ("tpu_manufacturing_transport", breakdown.tpu_mt * 1000.0 / lef),
            ("end_of_life", breakdown.eol * 1000.0 / lef),
            ("scope1", breakdown.scope1 * 1000.0 / lef),
            (f"operational_{accounts.standard}", rep.operational_cci),
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
        cci = (
            workload_cci(step.total_g, run.flops_per_step)
            if run.flops_per_step
            else None
        )
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
    cells = dataset_observations(dataset, cohort_platforms)
    if not cells:
        raise ComputationError(f"no complete samples for cohort {cohort_platforms}")
    comparison = balanced_comparison(
        cells,
        dataset.scheme,
        baseline=baseline,
        factor_g_per_kwh=factor_g_per_kwh,
        pue=pue,
    )
    metric_keys = (
        "duty_cycle",
        "power_w",
        "flops_per_s",
        "energy_kwh_per_exaflop",
        "carbon_g_per_exaflop",
    )
    rows = []
    for gen in sorted(comparison.per_generation):
        gm = comparison.per_generation[gen]
        for key in metric_keys:
            if key not in gm.weighted:
                continue
            rows.append(
                (
                    gen,
                    key,
                    gm.observations,
                    gm.weighted[key],
                    gm.ratios.get(key),
                    "no-overlap" if gm.no_overlap else "",
                )
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
    accounts: FleetAccounts,
    factors: FactorConfig,
    scenario_names: list[str],
    baseline_platform: str | None = None,
) -> Table:
    """Total CCI under each scenario against its baseline standard.

    Ratios compare the baseline-standard intensity (of the platform itself
    and of a named reference platform) to the scenario intensity; above 1
    means the scenario is an improvement. Embodied intensity and energy per
    ExaFLOP do not depend on the standard, so the baseline totals are
    re-priced from `accounts` rather than recomputed.
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
            pid: acct.report.embodied_cci
            + operational_cci(acct.report.energy_kwh_per_exaflop, base_factor)
            for pid, acct in accounts.platforms.items()
        }
        ref = baseline_platform or next(iter(base_totals))
        if ref not in base_totals:
            raise ComputationError(f"baseline platform {ref!r} not in catalog")
        for pid, acct in accounts.platforms.items():
            base = acct.report
            scen_embodied = base.embodied_cci * (1.0 - reduction)
            scen_operational = (
                base.energy_kwh_per_exaflop * scenario.operations_factor_g_per_kwh
            )
            scen_total = scen_embodied + scen_operational
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
