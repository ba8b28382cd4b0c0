"""The installed package serves; the paper's reproduction kit stays out.

``paper/`` (Section 8's tables and figures, the baselines, the I/O
simulator, bit-parallel labels) imports ``repro`` and is not installed
with it.  Nothing in ``repro`` may import ``paper`` or grow it back.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import setuptools

from repro.cli import build_parser

_REPO = Path(__file__).resolve().parents[1]

# Imports every module of `repro` (its `__main__` would run the CLI)
# and prints the `paper` modules that came along.
_IMPORT_ALL = """
import importlib, pkgutil, sys
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if not info.name.endswith(".__main__"):
        importlib.import_module(info.name)
print(sorted(m for m in sys.modules if m == "paper" or m.startswith("paper.")))
"""


def test_kit_packages_are_not_installed():
    packages = setuptools.find_packages(str(_REPO / "src"))
    assert "repro.oracle" in packages
    for kit in ("repro.bench", "repro.io_sim", "repro.baselines"):
        assert kit not in packages


def test_repro_imports_nothing_from_paper():
    # A fresh interpreter: this one has imported `paper` for other tests.
    # Run from the repository root, so `paper` is importable if asked.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, "-c", _IMPORT_ALL],
        capture_output=True,
        text=True,
        env=env,
        cwd=_REPO,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_cli_has_no_bench_subcommand():
    (commands,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert "serve" in commands.choices
    assert "bench" not in commands.choices
