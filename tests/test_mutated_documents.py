"""Property: one mutation of a bundled document never crashes the CLI.

Each example takes one configuration document, applies one mutation (drop
a key, misspell a key, or give a value another JSON type or a value out
of range, including 0, -1, 1e308 and a number written as "nan", NaN or
1e400) and runs the real `cli.main` in process on it. Every run must end
in exit 0, 2, 3 or 4: an uncaught exception fails the example, with its
traceback. A run that exits 0 must write, and `cci` print, only finite
numbers; any other value accepted wrongly with exit 0 goes unseen.
"""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleetcarbon import synth
from fleetcarbon.cli import main
from fleetcarbon.config import bundled_config_path, bundled_data_dir

# Stand-ins for bare JSON numbers beyond float range, which json.dumps cannot write.
HUGE = {"<1e400>": "1e400", "<10**400>": "1" + "0" * 400}
REPLACEMENTS = ("text", "false", "nan", "1e400", True, None, [], {}, 7, 2.5, 0, -1, 1e308, math.nan, *HUGE)
EXIT_CODES = {0, 2, 3, 4}


def demo_config() -> dict:
    cfg = json.loads(bundled_config_path().read_text())
    for key in ("telemetry", "platforms", "inventories", "factors", "run_manifest", "run_intervals"):
        cfg[key] = str(bundled_data_dir() / cfg[key])
    return cfg


def bundled(name: str) -> dict:
    return json.loads((bundled_data_dir() / name).read_text())


def first_interval_record() -> dict:
    return json.loads((bundled_data_dir() / "workload_runs.jsonl").read_text().split("\n", 1)[0])


def first_telemetry_record() -> dict:
    """The first bundled telemetry row as a JSON object, its tray readings a list."""
    with (bundled_data_dir() / "fleet_telemetry.csv").open(encoding="utf-8", newline="") as fh:
        row = next(csv.DictReader(fh))
    trays = [float(w) for w in row["tray_power_w"].split(";")]
    return dict(row, tray_power_w=trays, duty_cycle=float(row["duty_cycle"]), flops=int(row["flops"]))


SMALL_SCENARIO = asdict(
    synth.SynthScenario(
        seed=3,
        intervals=4,
        generations=(synth.GenerationSpec(name="g1", machines=2), synth.GenerationSpec(name="g2", machines=1)),
    )
)

# document -> (how to build it, the run-config key naming it, the commands that read it)
DOCUMENTS = {
    "config": (demo_config, None, ("cci", "workload")),
    "catalog": (lambda: bundled("platforms.json"), "platforms", ("lca", "cci")),
    "synth-manifest-catalog": (lambda: synth.build_manifest(synth.default_scenario()), "platforms", ("ingest",)),
    "inventories": (lambda: bundled("inventories.json"), "inventories", ("lca", "workload")),
    "factors": (lambda: bundled("factors.json"), "factors", ("scenario", "workload")),
    "run-manifest": (lambda: bundled("workload_manifest.json"), "run_manifest", ("workload",)),
    "run-interval-record": (first_interval_record, "run_intervals", ("workload",)),
    # one JSON line: the .json suffix makes ingest read the document as JSON lines
    "telemetry-record": (first_telemetry_record, "telemetry", ("ingest",)),
    "synth-scenario": (lambda: SMALL_SCENARIO, None, ("synth",)),
}


def locations(node, path=()):
    """(path to a container, key or index in it) for every value below `node`."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path, key
        yield from locations(value, path + (key,))


def mutate(doc, data):
    doc = copy.deepcopy(doc)
    path, key = data.draw(st.sampled_from(list(locations(doc))))
    parent = doc
    for step in path:
        parent = parent[step]
    kinds = ("replace", "drop", "rename") if isinstance(parent, dict) else ("replace",)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "drop":
        del parent[key]
    elif kind == "rename":
        parent[key[:-1] or "_"] = parent.pop(key)
    else:
        parent[key] = data.draw(st.sampled_from(REPLACEMENTS))
    return doc


def render(name: str, doc) -> str:
    text = json.dumps(doc)
    for stand_in, number in HUGE.items():
        text = text.replace(json.dumps(stand_in), number)
    if name == "run-interval-record":  # the mutated record, then the rest of the bundled file
        text += "\n" + (bundled_data_dir() / "workload_runs.jsonl").read_text().split("\n", 1)[1]
    return text


def texts(node):
    """Every string in a decoded document, keys included."""
    if isinstance(node, str):
        yield node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield key
            yield from texts(value)
    elif isinstance(node, list):
        for value in node:
            yield from texts(value)


def is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def non_finite(table: str, echoed: set) -> list:
    """The NaN and infinite numbers in a table written as JSON or CSV.

    A CSV cell that the mutated document itself gave, such as a workload
    named "nan", is text the table echoes, not a number; but only in a text
    column, one where some cell other than a blank is not a number.
    """
    if table.startswith("{"):
        found = []
        json.loads(table, parse_constant=found.append)
        return found
    found = []
    for column in itertools.zip_longest(*list(csv.reader(io.StringIO(table)))[1:], fillvalue=""):
        text = any(cell and not is_number(cell) for cell in column)
        found += [cell for cell in column if cell in ("nan", "inf", "-inf") and not (text and cell in echoed)]
    return found


def check_mutation(name: str, original, data, work) -> None:
    """One example: mutate `original`, the document `name`, and run every command that reads it in `work`."""
    _, key, commands = DOCUMENTS[name]
    document, config = work / "document.json", work / "config.json"
    doc = mutate(original, data)
    document.write_text(render(name, doc))
    if name == "config":
        argv = ["--config", str(document)]
    elif key is None:  # the synth scenario
        argv = ["--scenario-file", str(document)]
    else:
        config.write_text(json.dumps(dict(demo_config(), **{key: str(document)})))
        argv = ["--config", str(config)]
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = main([command, *argv, "-o", str(work / "out")])
        assert code in EXIT_CODES
        if code == 0:  # every table written, and the one `cci` prints, holds only finite numbers
            lines = stdout.getvalue().splitlines()
            tables = [Path(line[6:]).read_text(encoding="utf-8") for line in lines if line.startswith("wrote ")]
            if command == "cci":  # the table it prints, without its `wrote` lines
                tables.append("\n".join(line for line in lines if not line.startswith("wrote ")))
            echoed = set(texts(doc))
            for table in tables:
                assert not non_finite(table, echoed), command


@pytest.mark.parametrize("name", DOCUMENTS)
def test_mutated_document_exits_cleanly(name, tmp_path_factory):
    original = DOCUMENTS[name][0]()
    work = tmp_path_factory.mktemp(name)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def check(data):
        check_mutation(name, original, data, work)

    check()
