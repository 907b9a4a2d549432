"""The bundled demo's CLI output must match the recorded golden snapshot.

Floats match to a relative tolerance of 1e-12; integers, strings and the
layout match exactly. Goldens are written only by tools/make_golden.py,
never by this test.
"""

import csv
import io
import json
import math
import re
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
import make_golden  # noqa: E402

REL_TOL = 1e-12
_INT = re.compile(r"[-+]?\d+")

CASES = [(command, fmt) for command in make_golden.COMMANDS for fmt in make_golden.FORMATS]


def _float_text(text: str) -> float | None:
    if _INT.fullmatch(text):
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _same_float(got: float, want: float) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return got == want or abs(got - want) <= REL_TOL * max(abs(got), abs(want))


def _same_value(got, want) -> bool:
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return _same_float(got, want)
    if isinstance(want, dict):
        return list(got) == list(want) and all(_same_value(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return len(got) == len(want) and all(map(_same_value, got, want))
    return got == want


def _same_cell(got: str, want: str) -> bool:
    got_f, want_f = _float_text(got), _float_text(want)
    if got_f is not None and want_f is not None:
        return _same_float(got_f, want_f)
    return got == want


def _same_text(got: str, want: str) -> bool:
    """JSON compares as values; anything else compares as CSV cells."""
    try:
        want_json = json.loads(want)
    except ValueError:
        want_json = None
    if isinstance(want_json, (dict, list)):
        try:
            return _same_value(json.loads(got), want_json)
        except ValueError:
            return False
    got_rows = list(csv.reader(io.StringIO(got)))
    want_rows = list(csv.reader(io.StringIO(want)))
    return got.endswith("\n") == want.endswith("\n") and len(got_rows) == len(want_rows) and all(
        len(g) == len(w) and all(map(_same_cell, g, w)) for g, w in zip(got_rows, want_rows)
    )


@pytest.mark.parametrize("command,fmt", CASES, ids=[make_golden.case_name(*c) for c in CASES])
def test_cli_output_matches_golden(command, fmt, tmp_path):
    golden_dir = make_golden.GOLDEN / make_golden.case_name(command, fmt)
    want = {p.name: p.read_text(encoding="utf-8") for p in golden_dir.iterdir()}
    got = make_golden.run_case(command, fmt, tmp_path / "out")
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert _same_text(got[name], want[name]), f"{name} differs from the golden copy"


def test_synth_files_match_golden_digests(tmp_path):
    want = json.loads((make_golden.GOLDEN / make_golden.SYNTH_DIGESTS).read_text())
    assert make_golden.synth_digests(tmp_path / "synth") == want


def test_failing_case_leaves_the_goldens_untouched(tmp_path, monkeypatch):
    def files():
        return {p.relative_to(golden): p.read_bytes() for p in golden.rglob("*") if p.is_file()}

    golden = tmp_path / "golden"
    shutil.copytree(make_golden.GOLDEN, golden)
    before = files()
    monkeypatch.setattr(make_golden, "GOLDEN", golden)
    monkeypatch.setattr(make_golden, "COMMANDS", ("cci", "no-such-command"))
    with pytest.raises(SystemExit):  # argparse refuses the command
        make_golden.main()
    assert files() == before
    assert list(tmp_path.iterdir()) == [golden]  # no staging directory is left behind


class TestComparison:
    def test_floats_within_tolerance_match(self):
        assert _same_text("a,1.0000000000000002\n", "a,1.0\n")
        assert _same_text('{"x": 1.0000000000000002}', '{"x": 1.0}')

    def test_floats_beyond_tolerance_differ(self):
        assert not _same_text("a,1.000000001\n", "a,1.0\n")
        assert not _same_text('{"x": 1.000000001}', '{"x": 1.0}')

    def test_integers_and_strings_match_exactly(self):
        assert not _same_text("a,2\n", "a,2.0\n")
        assert not _same_text('{"n": 2}', '{"n": 2.0}')
        assert not _same_text("wrote <OUT>/b.csv\n", "wrote <OUT>/a.csv\n")
        assert not _same_text("a,1\n", "a,1\nb,2\n")
