"""Every function defined in the package runs under some subcommand.

Code that only tests call belongs in the tests, or nowhere. This test runs
every subcommand in process on the bundled demo, under `sys.setprofile`,
and requires each function, method and property whose code lives in
`src/fleetcarbon/*.py` to have been called, apart from `ALLOWED_UNCALLED`.
Methods that `dataclass` writes have no file of their own, so filtering on
`co_filename` leaves them out.
"""

import csv
import importlib
import json
import pkgutil
import sys
from pathlib import Path

import fleetcarbon
from fleetcarbon.cli import main
from fleetcarbon.config import bundled_data_dir

PACKAGE_DIR = Path(fleetcarbon.__file__).resolve().parent

ALLOWED_UNCALLED = {
    # the benchmark's span tracing looks these up by name (perfbench/spans.py BOUNDARIES)
    "telemetry.exclude_incomplete",
    "weighting.propensity_scores",
    "weighting.weights",
    # the inverse-propensity-weighting reference that tests compare the balanced comparison with
    "weighting.weighted_average",
    "weighting.PropensityScores.score",
    "weighting.PropensityScores.generations",
    "weighting.Observation.__post_init__",
    # the row generator that the benchmark's inputs read
    "synth.generate",
}

SCENARIO = {
    "seed": 3,
    "intervals": 4,
    "generations": [
        {"name": "gen-a", "machines": 2, "active_power_w": 1000.0, "flops_per_s_at_full_duty": 1e13},
        {"name": "gen-b", "machines": 2, "active_power_w": 1500.0, "flops_per_s_at_full_duty": 3e13},
    ],
}


def package_functions() -> dict:
    """Code object -> 'module.qualname' of every function, method and property in the package."""
    found = {}
    for info in pkgutil.iter_modules(fleetcarbon.__path__):
        module = importlib.import_module(f"fleetcarbon.{info.name}")
        for obj in vars(module).values():
            members = list(vars(obj).values()) if isinstance(obj, type) else [obj]
            for member in members:
                for func in (member, getattr(member, "fget", None), getattr(member, "__func__", None)):
                    code = getattr(func, "__code__", None)
                    if code is not None and Path(code.co_filename).resolve().parent == PACKAGE_DIR:
                        found[code] = f"{func.__module__.removeprefix('fleetcarbon.')}.{func.__qualname__}"
    return found


def jsonl_telemetry_with_a_bad_row(path: Path) -> Path:
    with (bundled_data_dir() / "fleet_telemetry.csv").open(newline="") as fh:
        lines = [json.dumps(row) for row in csv.DictReader(fh)]
    path.write_text("\n".join(lines + ["[]"]) + "\n")
    return path


def test_every_package_function_runs_under_some_subcommand(tmp_path, capsys):
    telemetry = jsonl_telemetry_with_a_bad_row(tmp_path / "telemetry.jsonl")
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO))
    out = str(tmp_path / "out")
    runs = [
        [command, "--format", fmt, "-o", out]
        for fmt in ("csv", "json", "md")
        for command in ("report", "cci", "lca", "workload", "scenario", "weight")
    ]
    runs += [
        ["ingest", "-o", out],
        ["ingest", "--telemetry", str(telemetry), "-o", out],
        ["synth", "-o", out],
        ["synth", "--scenario-file", str(scenario), "-o", out],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        codes = [main(argv) for argv in runs]
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)

    functions = package_functions()
    uncalled = {name for code, name in functions.items() if code not in called}
    assert uncalled == ALLOWED_UNCALLED
