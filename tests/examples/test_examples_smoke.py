"""Smoke-run the examples so they can't silently rot.

Each example is executed as a real subprocess (the way a reader would
run it), with ``src/`` and the repository root on ``PYTHONPATH`` (some
use the reproduction kit in ``paper/``).  The examples assert their
own invariants internally (BFS cross-checks, bit-identical strategies)
so a zero exit status is a meaningful check, not just an import test.
CI invokes this file separately (``pytest -q -p no:cacheprovider``)
in addition to the tier-1 run.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_REPO = Path(__file__).resolve().parents[2]

EXAMPLES = [
    "quickstart.py",
    "batch_serving.py",
    "sharded_serving.py",
    "async_serving.py",
    "external_memory.py",
    "social_network.py",
    "weighted_ratings.py",
]


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs_clean(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(_REPO / "src"), str(_REPO), *filter(None, [env.get("PYTHONPATH")])]
    )
    result = subprocess.run(
        [sys.executable, str(_REPO / "examples" / script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
        cwd=_REPO,
    )
    assert result.returncode == 0, (
        f"{script} exited {result.returncode}\n"
        f"stdout:\n{result.stdout}\nstderr:\n{result.stderr}"
    )
    assert result.stdout.strip(), f"{script} printed nothing"
