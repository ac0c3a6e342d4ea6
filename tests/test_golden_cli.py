"""Golden CLI corpus: stdout, stderr and exit code, byte for byte.

``golden_cli.json`` holds 150 ``biorder`` calls, each plain and with
``--json``: every subcommand, ``compare`` with each ``--method`` (including a
``--max-class`` too low to decide) and with ``--braid``, ``verify`` on 3 and
4 strands, malformed words and braids, and argparse errors.  The test replays
them in-process through ``cli.main`` with ``BIORDER_DEGREE`` unset and the
help width pinned, so a refactor that changes any output byte fails here.

After a deliberate output change, re-record the same calls with
``PYTHONPATH=src python tests/test_golden_cli.py`` and review the diff.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

from biorder.cli import DEGREE_ENV_VAR, main

CORPUS = Path(__file__).with_name("golden_cli.json")
HELP_COLUMNS = "80"


def record(argv: list[str]) -> dict:
    """Run one call in-process and capture what it printed and returned."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def write_corpus(entries: list[dict]) -> None:
    os.environ.pop(DEGREE_ENV_VAR, None)
    os.environ["COLUMNS"] = HELP_COLUMNS
    recorded = [record(entry["argv"]) for entry in entries]
    CORPUS.write_text(json.dumps(recorded, indent=1, ensure_ascii=False) + "\n")


def test_cli_output_matches_the_golden_corpus(monkeypatch):
    monkeypatch.delenv(DEGREE_ENV_VAR, raising=False)
    monkeypatch.setenv("COLUMNS", HELP_COLUMNS)
    corpus = json.loads(CORPUS.read_text())
    assert len(corpus) >= 300
    mismatches = [
        entry["argv"] for entry in corpus if record(entry["argv"]) != entry
    ]
    assert not mismatches, f"{len(mismatches)} calls changed, first: {mismatches[0]}"


if __name__ == "__main__":
    write_corpus(json.loads(CORPUS.read_text()))
