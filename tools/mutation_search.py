#!/usr/bin/env python3
"""Search for a mutated document that crashes the CLI, at any number of examples.

    PYTHONPATH=src python3 tools/mutation_search.py --examples 1500

Runs the property of tests/test_mutated_documents.py on each of its
documents, through the same `check_mutation`, with up to `--examples`
random (not derandomized) examples per document. The CLI's own output is
discarded. Prints one JSON object: the examples run for each document.
Hypothesis stops a document early once it has tried every distinct
mutation, so a count may be below `--examples`. An example that crashes
the CLI or exits with a code outside 0, 2, 3 and 4 stops the search with
Hypothesis's falsifying example and a non-zero exit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_mutated_documents import DOCUMENTS, check_mutation  # noqa: E402


def search(name: str, examples: int, work: Path) -> int:
    """Run up to `examples` random mutations of document `name`; return how many ran."""
    original, ran = DOCUMENTS[name][0](), 0

    @settings(max_examples=examples, derandomize=False, database=None, deadline=None)
    @given(st.data())
    def check(data):
        nonlocal ran
        ran += 1
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            check_mutation(name, original, data, work)

    check()
    return ran


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", type=int, default=1500, help="most examples per document")
    args = parser.parse_args(argv)
    counts = {}
    for name in DOCUMENTS:
        with tempfile.TemporaryDirectory() as work:
            counts[name] = search(name, args.examples, Path(work))
    print(json.dumps(counts, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
