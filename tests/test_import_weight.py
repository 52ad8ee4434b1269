"""numpy loads only for the code that computes with it.

The vector kernel is the one numpy user under ``src/``; a python-kernel
process (every CLI command by default, every pool worker of a default
sweep) must not pay its import — ~190 ms and ~12 MB on the CI box.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _numpy_loaded_after(code: str) -> bool:
    probe = code + "\nimport sys\nprint('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.strip() == "True"


def test_the_facade_the_cli_and_sweeps_do_not_import_numpy():
    assert not _numpy_loaded_after(
        "import repro, repro.api, repro.harness.cli, repro.sweep"
    )


def test_the_vector_kernel_does():
    assert _numpy_loaded_after(
        "from repro.net.network import Network\n"
        "from repro.net.topology import build_balanced_tree\n"
        "from repro.sim.engine import Simulator\n"
        "Network(Simulator(), build_balanced_tree(branching=2, depth=2), "
        "kernel='vector')"
    )
