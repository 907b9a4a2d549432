"""The bundled demo data: its generator reproduces it, every field is read, and a misspelt one is named."""

import importlib.util
import json
import types
from dataclasses import asdict
from pathlib import Path

import pytest

from fleetcarbon import config as cfgmod
from fleetcarbon import synth, workload
from fleetcarbon.errors import ConfigError, IngestError

GENERATOR = Path(__file__).resolve().parent.parent / "tools" / "make_bundled_data.py"


def test_generator_reproduces_bundled_data(tmp_path):
    spec = importlib.util.spec_from_file_location("make_bundled_data", GENERATOR)
    generator = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(generator)
    generator.DATA = tmp_path
    generator.main()
    bundled = cfgmod.bundled_data_dir()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in bundled.iterdir())
    for path in sorted(tmp_path.iterdir()):
        assert path.read_bytes() == (bundled / path.name).read_bytes(), path.name


class Tracked(dict):
    """A decoded JSON object that remembers which of its keys were read."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    # iterating a mapping reads its keys: catalogs and standards are keyed by name
    def __iter__(self):
        self.read.update(super().keys())
        return super().__iter__()

    def items(self):
        self.read.update(super().keys())
        return super().items()


def unread_keys(node, path=""):
    """Dotted paths of every key in `node`'s tracked objects that was never read."""
    if isinstance(node, list):
        for i, item in enumerate(node):
            yield from unread_keys(item, f"{path}[{i}]")
    elif isinstance(node, Tracked):
        for key, value in dict.items(node):
            if key not in node.read:
                yield f"{path}.{key}"
            yield from unread_keys(value, f"{path}.{key}")


@pytest.mark.parametrize(
    "what,load",
    [
        ("config", lambda cfg: cfgmod.load_config()),
        ("catalog", lambda cfg: cfgmod.load_platforms(cfg.platforms)),
        ("inventories", lambda cfg: cfgmod.load_inventories(cfg.inventories)),
        ("factors", lambda cfg: cfgmod.load_factors(cfg.factors)),
        ("run manifest", lambda cfg: workload.read_runs(cfg.run_manifest, cfg.run_intervals)),
    ],
)
def test_every_bundled_key_is_read(monkeypatch, run_config, what, load):
    documents = []

    def loads(text, **kwargs):
        doc = json.loads(text, object_pairs_hook=Tracked, **kwargs)
        documents.append(doc)
        return doc

    monkeypatch.setattr(cfgmod, "json", types.SimpleNamespace(loads=loads))
    monkeypatch.setattr(workload, "json", types.SimpleNamespace(loads=loads))
    load(run_config)
    assert len(documents) == 1
    assert list(unread_keys(documents[0])) == [], f"{what}: keys no builder reads"


def bundled(name: str) -> dict:
    return json.loads((cfgmod.bundled_data_dir() / name).read_text())


def demo_config() -> dict:
    """The bundled demo config with absolute input paths, so that a copy can sit anywhere."""
    cfg = bundled("config.json")
    for key in ("telemetry", "platforms", "inventories", "factors", "run_manifest", "run_intervals"):
        cfg[key] = str(cfgmod.bundled_data_dir() / cfg[key])
    return cfg


def from_file(load):
    """A reader of a decoded document that writes it to `path` and loads it from there with `load`."""

    def read(doc, path):
        path.write_text(json.dumps(doc))
        load(path)

    return read


def read_runs(path):
    workload.read_runs(path, cfgmod.bundled_data_dir() / "workload_runs.jsonl")


# document -> (how to build it, the places of its objects keyed by name, places no reader looks below, its reader)
MISSPELT_DOCUMENTS = {
    "config": (demo_config, (), (), from_file(cfgmod.load_config)),
    "catalog": (lambda: bundled("platforms.json"), ("",), (), from_file(cfgmod.load_platforms)),
    "synth-manifest-catalog": (
        lambda: synth.build_manifest(synth.default_scenario()),
        ("platforms",),
        ("generations",),
        from_file(cfgmod.load_platforms),
    ),
    "inventories": (lambda: bundled("inventories.json"), ("",), (), from_file(cfgmod.load_inventories)),
    "factors": (lambda: bundled("factors.json"), ("standards", "scenarios"), (), from_file(cfgmod.load_factors)),
    "run-manifest": (lambda: bundled("workload_manifest.json"), (), (), from_file(read_runs)),
    "synth-scenario": (
        lambda: json.loads(json.dumps(asdict(synth.default_scenario()))),  # its tuples as lists
        (),
        (),
        lambda doc, path: synth.scenario_from_mapping(doc),
    ),
}


def field_keys(node, maps, skip, path=(), place=""):
    """(path to an object, one of its field keys, the key's place) in the first entry of every list and map."""
    if isinstance(node, list):
        for item in node[:1]:
            yield from field_keys(item, maps, skip, path + (0,), f"{place}[0]")
    elif isinstance(node, dict) and place not in skip:
        for key in list(node)[:1] if place in maps else node:
            at = f"{place}.{key}" if place else key
            if place not in maps:
                yield path, key, at
            yield from field_keys(node[key], maps, skip, path + (key,), at)


MISSPELLINGS = [
    (name, path, key, place)
    for name, (build, maps, skip, _) in MISSPELT_DOCUMENTS.items()
    for path, key, place in field_keys(build(), maps, skip)
]


@pytest.mark.parametrize("name,path,key,place", MISSPELLINGS, ids=[f"{m[0]}:{m[3]}" for m in MISSPELLINGS])
def test_every_misspelt_key_is_named(tmp_path, name, path, key, place):
    build, _, _, read = MISSPELT_DOCUMENTS[name]
    doc = node = build()
    for step in path:
        node = node[step]
    node[key + "_x"] = node.pop(key)
    with pytest.raises((ConfigError, IngestError, ValueError)) as raised:
        read(doc, tmp_path / "document.json")
    expected = f"unknown keys: {place + '_x'!r}"
    assert str(raised.value) == expected or str(raised.value).endswith(f": {ValueError(expected)!r}")
