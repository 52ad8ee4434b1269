"""The living documents only name things that exist: every
``benchmarks/``, ``examples/``, ``docs/`` path and ``BENCH_*.json`` file
is in the tree, every ``cesrm <command>`` is a CLI command, and every
backticked ``repro.<dotted.name>`` (and every name a recipe's one-line
``from repro... import`` asks for) resolves by import.
CHANGES.md, ROADMAP.md and the frozen bench/README.md are history and
may name what has since been deleted."""

import importlib
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
DOTTED = re.compile(r"`@?(repro(?:\.[A-Za-z_]\w*)+)")
IMPORT = re.compile(r"^from (repro[\w.]*) import ([\w, ]+)$", re.MULTILINE)


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` is an importable module, or an attribute path
    hanging off one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attribute in parts[cut:]:
                found = getattr(found, attribute)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda p: p.name)
def test_document_names_only_what_exists(document):
    text = document.read_text()
    missing = sorted(
        {path for path in PATH.findall(text) if not (ROOT / path).exists()}
    )
    assert not missing, f"{document.name} names missing paths: {missing}"
    unknown = sorted(set(COMMAND.findall(text)) - set(COMMANDS))
    assert not unknown, f"{document.name} names unknown cesrm commands: {unknown}"
    named = set(DOTTED.findall(text)) | {
        f"{module}.{name.strip()}"
        for module, names in IMPORT.findall(text)
        for name in names.split(",")
    }
    dangling = sorted(name for name in named if not resolves(name))
    assert not dangling, f"{document.name} names what does not import: {dangling}"
