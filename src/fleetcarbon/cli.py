"""Command-line front end.

Subcommands cover the pipeline end to end: validate telemetry (ingest),
produce the platform/stage/manufacturing reports (report), single-table
carbon intensity (cci), embodied breakdowns and amortization views (lca),
per-step workload emissions (workload), what-if scenarios (scenario),
duty-cycle-balanced comparisons (weight), and the synthetic fleet
generator (synth).

One config file feeds every subcommand but synth; flags override file
values. Without --config the bundled demo configuration is used. Each
subcommand but synth takes the loaded config and returns the tables it
writes; `main` loads the config once and writes each table to -o as
<name>.<format>, printing a `wrote` line for it. Exit codes: 0 success,
2 configuration problems, 3 unreadable inputs, 4 computations the data
cannot support.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import config as cfgmod
from . import report as reportmod
from .errors import ComputationError, ConfigError, IngestError
from .telemetry import BucketScheme, ingest, write_rejection_log

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


def _run(command, args) -> int:
    """Load the config once, run `command` on it and write each table it returns to -o."""
    config = cfgmod.load_config(
        args.config,
        format=args.format,
        standard=args.standard,
        pue=args.pue,
        telemetry=args.telemetry,
        platforms=args.platforms,
    )
    tables = command(config, args)
    if tables:
        args.output_dir.mkdir(parents=True, exist_ok=True)
    for table in tables:
        path = args.output_dir / f"{table.name}.{config.format}"
        path.write_text(table.render(config.format), encoding="utf-8")
        print(f"wrote {path}")
    return EXIT_OK


def _inputs(config: cfgmod.RunConfig):
    platforms = cfgmod.load_platforms(config.platforms)
    factors = cfgmod.load_factors(config.factors)
    dataset = ingest(config.telemetry, platforms, BucketScheme(config.buckets))
    return platforms, factors, dataset


def _accounts(config: cfgmod.RunConfig):
    """The inventories and `_inputs`, with the dataset folded into each platform's CCI report."""
    inventories = cfgmod.load_inventories(config.inventories)  # before ingest: a bad file exits 2 whatever the rows
    platforms, factors, dataset = _inputs(config)
    reports = reportmod.fold_platforms(dataset, inventories, factors, config.standard, config.pue)
    return platforms, inventories, factors, reports


def cmd_ingest(config, args) -> list[reportmod.Table]:
    platforms = cfgmod.load_platforms(config.platforms)
    dataset = ingest(config.telemetry, platforms, BucketScheme(config.buckets))
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
    return []


def cmd_report(config, args) -> list[reportmod.Table]:
    platforms, inventories, _, reports = _accounts(config)
    return [
        reportmod.platform_table(reports, config.standard),
        reportmod.stage_breakdown_table(reports, config.standard),
        reportmod.manufacturing_table(platforms, inventories),
    ]


def cmd_cci(config, args) -> list[reportmod.Table]:
    *_, reports = _accounts(config)
    sys.stdout.write(reportmod.platform_table(reports, config.standard).render(config.format))
    return []


def cmd_lca(config, args) -> list[reportmod.Table]:
    platforms = cfgmod.load_platforms(config.platforms)
    inventories = cfgmod.load_inventories(config.inventories)
    return [
        reportmod.manufacturing_table(platforms, inventories),
        reportmod.amortization_table(platforms, inventories),
    ]


def cmd_workload(config, args) -> list[reportmod.Table]:
    from .workload import read_runs  # the one subcommand that reads pod runs; the others never import it

    if config.run_manifest is None or config.run_intervals is None:
        raise ConfigError("config has no run_manifest/run_intervals for workload reporting")
    platforms = cfgmod.load_platforms(config.platforms)
    inventories = cfgmod.load_inventories(config.inventories)
    factor = config.workload_factor_g_per_kwh
    if factor is None:
        factor = cfgmod.load_factors(config.factors).factor_for(config.standard)
    runs = read_runs(config.run_manifest, config.run_intervals)
    return [
        reportmod.workload_table(
            runs, platforms, inventories, factor, config.workload_pue, config.incomplete_runs
        )
    ]


def cmd_scenario(config, args) -> list[reportmod.Table]:
    _, _, factors, reports = _accounts(config)
    names = args.scenarios or sorted(factors.scenarios)
    if not names:
        raise ConfigError("no scenarios defined in the factor configuration")
    return [reportmod.scenario_table(reports, factors, names, baseline_platform=args.baseline_platform)]


def cmd_weight(config, args) -> list[reportmod.Table]:
    platforms, factors, dataset = _inputs(config)
    cohort = args.cohort or sorted(platforms)
    if unknown := [pid for pid in cohort if pid not in platforms]:
        raise ConfigError(f"cohort platforms not in catalog: {', '.join(map(repr, unknown))}")
    baseline = args.baseline or next(iter(cohort), "")  # an empty cohort has no samples: exit 4
    factor = factors.factor_for(config.standard)
    table, warnings = reportmod.weighting_table(dataset, cohort, baseline, factor, pue=config.pue)
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return [table]


def cmd_synth(args) -> int:
    from . import synth as synthmod  # the one subcommand that generates; the others never import it

    if args.scenario_file is not None:
        seed = {} if args.seed is None else {"seed": args.seed}
        scenario = cfgmod.read_document(
            args.scenario_file, "synth scenario", lambda raw: synthmod.scenario_from_mapping({**raw, **seed})
        )
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
        p.add_argument("-o", "--output-dir", type=Path, default=Path("."), help="where to write reports")
        if name == "synth":  # reads no config
            p.set_defaults(func=func)
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--scenario-file", type=Path, default=None)
            continue
        p.set_defaults(func=functools.partial(_run, func))
        _add_common(p)
        if name == "scenario":
            p.add_argument("scenarios", nargs="*", help="scenario names (default: all configured)")
            p.add_argument("--baseline-platform", default=None)
        if name == "weight":
            p.add_argument("--cohort", nargs="*", default=None, help="platform ids to compare")
            p.add_argument("--baseline", default=None, help="baseline generation")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
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
