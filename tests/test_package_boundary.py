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


def _repro_modules():
    import importlib
    import pkgutil

    import repro

    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):
            yield importlib.import_module(info.name)


def test_every_public_name_resolves():
    """A string left in an ``__all__`` after its definition went would
    break ``from ... import *``."""
    for module in _repro_modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"


#: Public names deleted because only their own unit tests called them.
_DELETED_FUNCTIONS = (
    "merge_min_via",
    "query_many",
    "is_reachable",
    "average_distance",
    "to_undirected",
    "reverse_graph",
    "induced_subgraph",
    "largest_connected_component",
    "write_binary",
    "read_binary",
    "configuration_model_graph",
    "complete_graph",
    "eccentricity",
    "single_pair_distance",
    "degree_histogram",
)


def test_deleted_functions_are_gone():
    for module in _repro_modules():
        for name in _DELETED_FUNCTIONS:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


#: The dict label model: per-entry states, rule engines, candidate sets,
#: the tuple-list index and the build engine over them.  It lives in
#: ``paper/labels.py`` and ``tests/reference/dict_build.py``.
_DICT_MODEL = (
    "LabelIndex",
    "DirectedLabelState",
    "UndirectedLabelState",
    "CandidateSet",
    "DirectedRuleEngine",
    "UndirectedRuleEngine",
    "make_engine",
    "DictBuildEngine",
    "seed_dict_state",
    "resolve_engine",
    "merge_join_distance",
    "admit_and_prune",
)


def test_one_label_model():
    """No ``repro`` module offers the dict label model, and the
    bridges into it are gone from the CSR store and the array state."""
    from repro.core.arraystate import ArrayLabelState
    from repro.core.flatstore import FlatLabelStore

    for module in _repro_modules():
        for name in _DICT_MODEL:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(FlatLabelStore, "to_index")
    assert not hasattr(ArrayLabelState, "to_dict_state")


def test_deleted_methods_are_gone():
    from paper.labels import LabelIndex
    from repro.core.flatstore import FlatLabelStore
    from repro.core.knn import InvertedLabelIndex
    from repro.core.labels import LabelStore
    from repro.oracle import DistanceOracle, ShardedLabelStore

    deleted = {
        FlatLabelStore: ("query_via", "label_of"),
        ShardedLabelStore: ("query_via", "label_of"),
        LabelIndex: ("query_via", "label_of"),
        LabelStore: ("query_via",),
        DistanceOracle: ("query_via", "clear_cache", "attach_graph"),
        InvertedLabelIndex: ("size_in_entries",),
    }
    for cls, names in deleted.items():
        for name in names:
            assert not hasattr(cls, name), f"{cls.__name__}.{name}"
