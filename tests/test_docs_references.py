"""The living documents only name things that exist: every
``benchmarks/``, ``examples/``, ``docs/`` path and ``BENCH_*.json`` file
is in the tree, and every ``cesrm <command>`` is a CLI command.
CHANGES.md, ROADMAP.md and the frozen bench/README.md are history and
may name what has since been deleted."""

import re
from pathlib import Path

import pytest

from repro.harness.cli import COMMANDS

ROOT = Path(__file__).parent.parent
DOCUMENTS = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md", ROOT / "DESIGN.md"]
    + list((ROOT / "docs").glob("*.md"))
)

PATH = re.compile(r"\b(?:benchmarks|examples|docs)/[\w./-]*\w|\bBENCH_\w+\.json")
COMMAND = re.compile(r"(?:`|\$ )cesrm ([a-z][\w-]*)")


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_document_names_only_what_exists(document):
    text = document.read_text()
    missing = sorted(
        {path for path in PATH.findall(text) if not (ROOT / path).exists()}
    )
    assert not missing, f"{document.name} names missing paths: {missing}"
    unknown = sorted(set(COMMAND.findall(text)) - set(COMMANDS))
    assert not unknown, f"{document.name} names unknown cesrm commands: {unknown}"
