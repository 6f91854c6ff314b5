"""Shared fixtures: running the fxattn CLI and scripts in a subprocess."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fxattn


@pytest.fixture
def run_python():
    """Run ``python *args`` in ``cwd``; returns the CompletedProcess.

    The child imports the same fxattn as this process, from any working
    directory: the directory holding the imported package goes first on
    PYTHONPATH as an absolute path, ahead of the entries already there, so a
    relative entry such as ``src`` cannot send the child elsewhere.
    """
    root = str(Path(fxattn.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)

    def run(*args, cwd=None):
        return subprocess.run([sys.executable, *args],
                              capture_output=True, text=True, cwd=cwd, env=env)
    return run


@pytest.fixture
def run_cli(run_python):
    """Run ``python -m fxattn *args`` in ``cwd``, as ``run_python`` does."""
    return lambda *args, cwd=None: run_python("-m", "fxattn", *args, cwd=cwd)
