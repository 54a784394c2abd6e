"""Export consistency: every advertised name exists.

A deletion that leaves a name behind in a module's __all__ or in the
package's re-exports fails here instead of in a user's star import.
"""

import importlib
import os
import subprocess
import sys

import pytest

import peanobsde

MODULES = ("peano", "engine", "solver", "control", "transform", "cli")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    mod = importlib.import_module(f"peanobsde.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing, f"peanobsde.{name}.__all__ lists {missing}"


def test_star_import_runs_cleanly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(peanobsde.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c",
         "from peanobsde import *; import peanobsde.cli"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
