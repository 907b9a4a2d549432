"""The two benchmark workloads: generated inputs, CLI invocations, checks.

Each part of a workload writes its inputs into a directory of its own,
computes what the CLI must print from those inputs (see oracle.py), and
lists the subcommands it runs. A workload's pass runs its parts'
subcommands in order. A check returns the mismatches it finds in one
invocation's stdout and output directory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fleetcarbon import synth
from fleetcarbon.config import bundled_data_dir

from . import inputs, oracle
from .oracle import Problems, read_text

STANDARD = "market"


@dataclass(frozen=True)
class Command:
    """One subcommand invocation; `-o <dir>` is appended when it runs."""

    name: str
    args: tuple[str, ...]
    records: int  # input records (telemetry rows or interval records) it reads
    check: Callable[[str, Path], Problems]


@dataclass(frozen=True)
class Case:
    workload: str
    seed: int
    config: Path
    commands: tuple[Command, ...]
    inputs: dict[str, Path]  # generated files, digested
    telemetry: Path | None = None  # what ingest reads, for the memory probe
    catalog: Path | None = None


def _bundled(name: str) -> str:
    return str(bundled_data_dir() / name)


def _load(name: str) -> dict:
    return json.loads((bundled_data_dir() / name).read_text(encoding="utf-8"))


def _config(workdir: Path, **entries) -> Path:
    cfg = {
        "platforms": _bundled("platforms.json"),
        "inventories": _bundled("inventories.json"),
        "factors": _bundled("factors.json"),
        "standard": STANDARD,
        "pue": inputs.PUE,
        "buckets": 10,
        "format": "csv",
    }
    cfg.update(entries)
    return inputs.write_json(cfg, workdir / "config.json")


def platform_report(seed: int, workdir: Path) -> Case:
    """cci, report and scenario over a five-platform fleet."""
    rows = inputs.platform_report_rows(seed)
    telemetry = inputs.write_telemetry(rows, workdir / "telemetry.csv")
    config = _config(workdir, telemetry=telemetry.name)
    catalog, factors = _load("platforms.json"), _load("factors.json")
    totals = oracle.platform_totals(rows, catalog)
    factor = oracle.market_factor(factors, STANDARD)
    manufacturing = oracle.manufacturing_per_chip(_load("inventories.json"), catalog)
    pue = inputs.PUE

    def check_cci(stdout: str, out: Path) -> Problems:
        return oracle.check_platform_table(stdout, totals, pue, STANDARD)

    def check_report(stdout: str, out: Path) -> Problems:
        problems = oracle.check_platform_table(read_text(out / "platforms.csv"), totals, pue, STANDARD)
        problems += oracle.check_stage_table(read_text(out / "stage_breakdown.csv"), totals, pue, STANDARD, factor)
        problems += oracle.check_manufacturing_table(read_text(out / "manufacturing.csv"), manufacturing)
        return problems

    def check_scenario(stdout: str, out: Path) -> Problems:
        return oracle.check_scenario_table(read_text(out / "scenarios.csv"), totals, pue, factors["scenarios"])

    n = len(rows)
    cfg = ("--config", str(config))
    return Case(
        workload="platform-report",
        seed=seed,
        config=config,
        commands=(
            Command("cci", ("cci", *cfg), n, check_cci),
            Command("report", ("report", *cfg), n, check_report),
            Command("scenario", ("scenario", *cfg), n, check_scenario),
        ),
        inputs={"telemetry": telemetry},
        telemetry=telemetry,
        catalog=Path(_bundled("platforms.json")),
    )


def gen_balance(seed: int, workdir: Path) -> Case:
    """synth then weight over two generations with different duty mixes."""
    mapping = inputs.balance_mapping(seed)
    scenario_file = inputs.write_json(mapping, workdir / "scenario.json")
    rows = inputs.balance_rows(mapping)
    telemetry = inputs.write_telemetry(rows, workdir / "telemetry.csv")
    manifest = inputs.write_json(synth.build_manifest(synth.scenario_from_mapping(mapping)), workdir / "manifest.json")
    config = _config(workdir, telemetry=telemetry.name, platforms=manifest.name)
    digests = {"synthetic_telemetry.csv": inputs.sha256(telemetry), "synthetic_manifest.json": inputs.sha256(manifest)}
    factor = oracle.market_factor(_load("factors.json"), STANDARD)
    counts, metrics = oracle.balanced_metrics(rows, 10, inputs.PUE, factor)

    def check_synth(stdout: str, out: Path) -> Problems:
        problems = Problems()
        for name, want in digests.items():
            path = out / name
            problems.equal(inputs.sha256(path) if path.exists() else None, want, f"{name} sha256")
        return problems

    def check_weight(stdout: str, out: Path) -> Problems:
        return oracle.check_weighting_table(read_text(out / "weighting.csv"), counts, metrics, "gen-a")

    return Case(
        workload="gen-balance",
        seed=seed,
        config=config,
        commands=(
            Command("synth", ("synth", "--scenario-file", str(scenario_file), "--seed", str(seed)), 0, check_synth),
            Command(
                "weight",
                ("weight", "--config", str(config), "--cohort", "gen-a", "gen-b", "--baseline", "gen-a"),
                len(rows),
                check_weight,
            ),
        ),
        inputs={"scenario": scenario_file, "telemetry": telemetry, "manifest": manifest},
        telemetry=telemetry,
        catalog=manifest,
    )


def dirty_ingest(seed: int, workdir: Path) -> Case:
    """ingest over rows with missing counters and injected rejects."""
    rows, injected = inputs.dirty_rows(seed)
    telemetry = inputs.write_telemetry(rows, workdir / "telemetry.csv")
    config = _config(workdir, telemetry=telemetry.name)
    platforms = sorted(inputs.PLATFORM_MODEL)

    def check_ingest(stdout: str, out: Path) -> Problems:
        return oracle.check_ingest(stdout, read_text(out / "rejections.csv"), len(rows), injected, platforms)

    return Case(
        workload="dirty-ingest",
        seed=seed,
        config=config,
        commands=(Command("ingest", ("ingest", "--config", str(config)), len(rows), check_ingest),),
        inputs={"telemetry": telemetry},
        telemetry=telemetry,
        catalog=Path(_bundled("platforms.json")),
    )


def pod_steps(seed: int, workdir: Path) -> Case:
    """workload and lca over generated multi-machine pod runs."""
    manifest, records, policy = inputs.pod_runs(seed)
    manifest_path = inputs.write_json(manifest, workdir / "runs.json")
    intervals_path = inputs.write_jsonl(records, workdir / "intervals.jsonl")
    config = _config(
        workdir,
        telemetry=_bundled("fleet_telemetry.csv"),
        run_manifest=manifest_path.name,
        run_intervals=intervals_path.name,
        workload_factor_g_per_kwh=inputs.POD_FACTOR_G_PER_KWH,
        workload_pue=1.0,
        incomplete_runs=policy,
    )
    expected = oracle.on_duty(manifest, records)
    catalog = _load("platforms.json")
    manufacturing = oracle.manufacturing_per_chip(_load("inventories.json"), catalog)

    def check_workload(stdout: str, out: Path) -> Problems:
        return oracle.check_workload_table(read_text(out / "workloads.csv"), manifest, expected, policy)

    def check_lca(stdout: str, out: Path) -> Problems:
        problems = oracle.check_manufacturing_table(read_text(out / "manufacturing.csv"), manufacturing)
        problems += oracle.check_amortization_table(read_text(out / "amortization.csv"), catalog)
        return problems

    cfg = ("--config", str(config))
    return Case(
        workload="pod-steps",
        seed=seed,
        config=config,
        commands=(
            Command("workload", ("workload", *cfg), len(records), check_workload),
            Command("lca", ("lca", *cfg), 0, check_lca),
        ),
        inputs={"manifest": manifest_path, "intervals": intervals_path},
    )


def joined(workload: str, *parts: Callable[[int, Path], Case]) -> Callable[[int, Path], Case]:
    """A workload whose pass runs each part's subcommands in turn.

    The set-up probe loads the first part's config; the memory probe
    ingests the first telemetry file any part has.
    """

    def build(seed: int, workdir: Path) -> Case:
        cases = []
        for part in parts:
            (workdir / part.__name__).mkdir()
            cases.append(part(seed, workdir / part.__name__))
        ingested = next(c for c in cases if c.telemetry is not None)
        return Case(
            workload=workload,
            seed=seed,
            config=cases[0].config,
            commands=tuple(cmd for c in cases for cmd in c.commands),
            inputs={f"{c.workload}/{k}": path for c in cases for k, path in c.inputs.items()},
            telemetry=ingested.telemetry,
            catalog=ingested.catalog,
        )

    return build


WORKLOADS: dict[str, Callable[[int, Path], Case]] = {
    "fleet-report": joined("fleet-report", platform_report, dirty_ingest),
    "gen-pods": joined("gen-pods", gen_balance, pod_steps),
}
