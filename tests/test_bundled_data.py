"""The bundled demo data: its generator reproduces it, and every field is read."""

import importlib.util
import json
import types
from pathlib import Path

import pytest

from fleetcarbon import config as cfgmod
from fleetcarbon import workload

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
