"""Command-line front end.

Subcommands cover the pipeline end to end: validate telemetry (ingest),
produce the platform/stage/manufacturing reports (report), single-table
carbon intensity (cci), embodied breakdowns and amortization views (lca),
per-step workload emissions (workload), what-if scenarios (scenario),
duty-cycle-balanced comparisons (weight), and the synthetic fleet
generator (synth).

One config file feeds everything; flags override file values. Without
--config the bundled demo configuration is used. Exit codes: 0 success,
2 configuration problems, 3 unreadable inputs, 4 computations the data
cannot support.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import report as reportmod
from . import synth as synthmod
from .errors import ComputationError, ConfigError, IngestError
from .telemetry import BucketScheme, ingest, write_rejection_log
from .workload import RunPolicy, read_runs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGEST = 3
EXIT_COMPUTE = 4


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="run configuration JSON")
    parser.add_argument(
        "--format", choices=("csv", "json", "md"), default=None, help="output table format"
    )
    parser.add_argument(
        "--standard",
        default=None,
        help="accounting standard: a name from the factors file, or scenario:<name>",
    )
    parser.add_argument("--pue", type=float, default=None, help="data-center PUE override")
    parser.add_argument("--telemetry", type=Path, default=None, help="telemetry file override")
    parser.add_argument("--platforms", type=Path, default=None, help="platform catalog override")
    parser.add_argument("-o", "--output-dir", type=Path, default=Path("."), help="where to write reports")


def _load(args) -> cfgmod.RunConfig:
    return cfgmod.load_config(
        args.config,
        output_format=args.format,
        standard=args.standard,
        pue=args.pue,
        telemetry=args.telemetry,
        platforms=args.platforms,
    )


def _inputs(config: cfgmod.RunConfig):
    platforms = cfgmod.load_platforms(config.platforms)
    inventories = cfgmod.load_inventories(config.inventories)
    factors = cfgmod.load_factors(config.factors)
    dataset = ingest(config.telemetry, platforms, BucketScheme(config.buckets))
    return platforms, inventories, factors, dataset


def _write(table: reportmod.Table, out_dir: Path, fmt: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{table.name}.{fmt}"
    path.write_text(table.render(fmt), encoding="utf-8")
    return path


def cmd_ingest(args) -> int:
    config = _load(args)
    platforms = cfgmod.load_platforms(config.platforms)
    dataset = ingest(config.telemetry, platforms)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    log_path = args.output_dir / "rejections.csv"
    with log_path.open("w", encoding="utf-8", newline="") as fh:
        write_rejection_log(dataset, fh)
    summary = {
        "rows_accepted": len(dataset),
        "rows_rejected": len(dataset.rejections),
        "complete_samples": dataset.complete_rows,
        "excluded_incomplete": dataset.exclusions,
        "platforms": list(dataset.platform_ids()),
        "rejection_log": str(log_path),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_OK


def cmd_report(args) -> int:
    config = _load(args)
    platforms, inventories, factors, dataset = _inputs(config)
    accounts = reportmod.fold_platforms(
        dataset, inventories, factors, config.standard, config.pue
    )
    fmt = config.output_format
    tables = [
        reportmod.platform_table(accounts),
        reportmod.stage_breakdown_table(accounts),
        reportmod.manufacturing_table(platforms, inventories),
    ]
    for table in tables:
        print(f"wrote {_write(table, args.output_dir, fmt)}")
    return EXIT_OK


def cmd_cci(args) -> int:
    config = _load(args)
    _, inventories, factors, dataset = _inputs(config)
    accounts = reportmod.fold_platforms(
        dataset, inventories, factors, config.standard, config.pue
    )
    table = reportmod.platform_table(accounts)
    sys.stdout.write(table.render(config.output_format))
    return EXIT_OK


def cmd_lca(args) -> int:
    config = _load(args)
    platforms = cfgmod.load_platforms(config.platforms)
    inventories = cfgmod.load_inventories(config.inventories)
    fmt = config.output_format
    tables = [
        reportmod.manufacturing_table(platforms, inventories),
        reportmod.amortization_table(platforms, inventories),
    ]
    for table in tables:
        print(f"wrote {_write(table, args.output_dir, fmt)}")
    return EXIT_OK


def cmd_workload(args) -> int:
    config = _load(args)
    if config.run_manifest is None or config.run_intervals is None:
        raise ConfigError("config has no run_manifest/run_intervals for workload reporting")
    platforms = cfgmod.load_platforms(config.platforms)
    inventories = cfgmod.load_inventories(config.inventories)
    factors = cfgmod.load_factors(config.factors)
    factor = (
        config.workload_factor_g_per_kwh
        if config.workload_factor_g_per_kwh is not None
        else factors.factor_for(config.standard)
    )
    runs = read_runs(config.run_manifest, config.run_intervals)
    policy = RunPolicy(
        accept=frozenset(config.incomplete_accept), reject=frozenset(config.incomplete_reject)
    )
    table = reportmod.workload_table(
        runs, platforms, inventories, factor, config.workload_pue, policy
    )
    print(f"wrote {_write(table, args.output_dir, config.output_format)}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    config = _load(args)
    _, inventories, factors, dataset = _inputs(config)
    names = args.scenarios or sorted(factors.scenarios)
    if not names:
        raise ConfigError("no scenarios defined in the factor configuration")
    accounts = reportmod.fold_platforms(
        dataset, inventories, factors, config.standard, config.pue
    )
    table = reportmod.scenario_table(
        accounts, factors, names, baseline_platform=args.baseline_platform
    )
    print(f"wrote {_write(table, args.output_dir, config.output_format)}")
    return EXIT_OK


def cmd_weight(args) -> int:
    config = _load(args)
    platforms, inventories, factors, dataset = _inputs(config)
    cohort = args.cohort or sorted(platforms)
    baseline = args.baseline or cohort[0]
    factor = factors.factor_for(config.standard)
    table, warnings = reportmod.weighting_table(
        dataset, cohort, baseline, factor, pue=config.pue
    )
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"wrote {_write(table, args.output_dir, config.output_format)}")
    return EXIT_OK


def cmd_synth(args) -> int:
    if args.scenario_file is not None:

        def build(raw: dict) -> synthmod.SynthScenario:
            if args.seed is not None:
                raw["seed"] = args.seed
            return synthmod.scenario_from_mapping(raw)

        scenario = cfgmod.read_document(args.scenario_file, "synth scenario", build)
    else:
        scenario = synthmod.default_scenario(seed=args.seed if args.seed is not None else 20241001)
    args.output_dir.mkdir(parents=True, exist_ok=True)
    telemetry = args.output_dir / "synthetic_telemetry.csv"
    manifest = args.output_dir / "synthetic_manifest.json"
    synthmod.write_fleet(scenario, telemetry, manifest)
    print(f"wrote {telemetry}")
    print(f"wrote {manifest}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fleetcarbon",
        description="Life-cycle carbon accounting for accelerator fleets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    commands = {
        "ingest": (cmd_ingest, "validate telemetry and write the rejection log"),
        "report": (cmd_report, "write platform, stage, and manufacturing reports"),
        "cci": (cmd_cci, "print the carbon-intensity table"),
        "lca": (cmd_lca, "write embodied-emission and amortization reports"),
        "workload": (cmd_workload, "write the per-step workload emissions report"),
        "scenario": (cmd_scenario, "write what-if scenario comparisons"),
        "weight": (cmd_weight, "write the duty-cycle-balanced comparison"),
        "synth": (cmd_synth, "generate a synthetic fleet with known ground truth"),
    }
    for name, (func, help_text) in commands.items():
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.set_defaults(func=func)
        if name == "scenario":
            p.add_argument("scenarios", nargs="*", help="scenario names (default: all configured)")
            p.add_argument("--baseline-platform", default=None)
        if name == "weight":
            p.add_argument("--cohort", nargs="*", default=None, help="platform ids to compare")
            p.add_argument("--baseline", default=None, help="baseline generation")
        if name == "synth":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--scenario-file", type=Path, default=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
