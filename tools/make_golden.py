#!/usr/bin/env python3
"""Record the bundled demo's CLI output as the golden snapshot in tests/golden/.

Each case runs `fleetcarbon.cli.main` in process on the bundled demo
configuration and keeps every file the command writes, its stdout and its
stderr, with the output directory replaced by OUT_PLACEHOLDER. `synth`
output is large, so only the sha256 of its two files at the default seed
is kept. tests/test_golden.py reruns the same cases and compares. The
snapshot is written to a staging directory and replaces tests/golden/ only
once every case has succeeded, so a failing case leaves it as it was.

Usage: python3 tools/make_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
GOLDEN = ROOT / "tests" / "golden"
COMMANDS = ("ingest", "report", "cci", "lca", "workload", "scenario", "weight")
FORMATS = ("csv", "json")
OUT_PLACEHOLDER = "<OUT>"
STDOUT, STDERR = "stdout.txt", "stderr.txt"
SYNTH_DIGESTS = "synth.sha256.json"


def case_name(command: str, fmt: str) -> str:
    return f"{command}.{fmt}"


def run_case(command: str, fmt: str, out_dir: Path) -> dict[str, str]:
    """Run one subcommand; return {file name: text} for outputs and streams."""
    from fleetcarbon.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--format", fmt, "-o", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"{command} --format {fmt} exited {code}: {err.getvalue()}")
    texts = {STDOUT: out.getvalue(), STDERR: err.getvalue()}
    if out_dir.exists():
        for path in sorted(out_dir.iterdir()):
            texts[path.name] = path.read_text(encoding="utf-8")
    return {name: text.replace(str(out_dir), OUT_PLACEHOLDER) for name, text in texts.items()}


def synth_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of each file `synth` writes at its default seed."""
    from fleetcarbon.cli import main

    with contextlib.redirect_stdout(io.StringIO()):
        code = main(["synth", "-o", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"synth exited {code}")
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def main() -> int:
    # staged beside GOLDEN, so the final rename stays on one file system
    with tempfile.TemporaryDirectory(dir=GOLDEN.parent) as tmp:
        staged, work = Path(tmp) / "golden", Path(tmp) / "work"
        for command in COMMANDS:
            for fmt in FORMATS:
                name = case_name(command, fmt)
                case_dir = staged / name
                case_dir.mkdir(parents=True)
                for file_name, text in run_case(command, fmt, work / name).items():
                    (case_dir / file_name).write_text(text, encoding="utf-8")
        digests = synth_digests(work / "synth")
        (staged / SYNTH_DIGESTS).write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        if GOLDEN.exists():
            shutil.rmtree(GOLDEN)
        staged.rename(GOLDEN)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
