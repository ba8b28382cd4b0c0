"""Byte-identity pins: every writer produces exactly the bytes it always has.

Each case builds a small graph, writes it through a public writer and
compares the SHA-256 of the result with a digest recorded when the
pins were added.  The cases cover both CSR encodings (v2, v3), the
merged path (a ``LabelDelta`` from inserted edges staged, then saved)
and 3-shard directories before and after ``reconcile``.  A shard
directory is pinned by its manifest, which records every shard file's
own SHA-256 (checked again by ``ShardedLabelStore.load``).

A writer that changes a single byte fails here; if the change is
meant (a new format revision), the digests are re-recorded with it.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core.dynamic import DynamicHopDoublingIndex
from repro.core.flatstore import load_store
from repro.core.index import HopDoublingIndex
from repro.graphs.digraph import Graph
from repro.graphs.generators import ba_graph, glp_graph
from repro.oracle.sharding import MANIFEST_NAME, ShardedLabelStore

N = 300
FORMATS = ("v2", "v3")


def _reweighted(graph: Graph, weight) -> Graph:
    edges = [(u, v, weight()) for u, v, _ in graph.edges()]
    return Graph.from_edges(graph.num_vertices, edges, directed=False, weighted=True)


def _graph(name: str) -> Graph:
    rng = random.Random(11)
    if name == "ba":  # BA m=2: no pendants
        return ba_graph(N, m=2, seed=3)
    if name == "glp":  # two thirds of the vertices are pendants
        return glp_graph(N, seed=3)
    if name == "glp-directed":
        return glp_graph(N, seed=3, directed=True)
    if name == "glp-w9":
        return _reweighted(glp_graph(N, seed=3), lambda: rng.randint(1, 9))
    if name == "glp-frac":  # fractional weights: v3 keeps f64 distances
        return _reweighted(glp_graph(N, seed=3), lambda: rng.randint(1, 12) / 4)
    raise KeyError(name)


GRAPHS = ("ba", "glp", "glp-directed", "glp-w9", "glp-frac")


def _inserted(graph: Graph) -> list[tuple]:
    rng = random.Random(5)
    edges = []
    while len(edges) < 12:
        u, v = rng.randrange(N), rng.randrange(N)
        if u != v and not graph.has_edge(u, v):
            edges.append((u, v, rng.randint(1, 9)) if graph.weighted else (u, v))
    return edges


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _digests(name: str, root) -> dict[str, str]:
    """``case -> sha256`` for every file the writers make of ``name``."""
    graph = _graph(name)
    index = HopDoublingIndex.build(graph)
    dyn = None
    got: dict[str, str] = {}
    for fmt in FORMATS:
        path = root / f"index.{fmt}"
        index.save(path, format=fmt)
        got[fmt] = _sha(path)
        if dyn is None:
            dyn = DynamicHopDoublingIndex.from_store(load_store(path), graph=graph)
            dyn.insert_edges(_inserted(graph))
            delta = dyn.pop_label_delta()
            assert len(delta.vertices()) > 0
        store = load_store(path, use_mmap=True)
        store.apply_updates(delta)
        merged = root / f"merged.{fmt}"
        store.save(merged)
        store.close()
        got[f"{fmt}+delta"] = _sha(merged)

    for fmt in FORMATS:
        manifests = []
        for source in FORMATS:  # a split reads either encoding alike
            shard_dir = root / f"shards-{fmt}-from-{source}"
            store = load_store(root / f"index.{source}")
            ShardedLabelStore.split(store, 3).save(shard_dir, format=fmt)
            manifests.append((shard_dir / MANIFEST_NAME).read_bytes())
        assert manifests[0] == manifests[1]
        got[f"shards-{fmt}"] = hashlib.sha256(manifests[0]).hexdigest()

        # A re-split of a shard set writes what a split of the file does.
        sharded = ShardedLabelStore.load(shard_dir)
        resplit, split = root / f"re-split-{fmt}", root / f"split-{fmt}"
        ShardedLabelStore.split(sharded, 2).save(resplit, format=fmt)
        store = load_store(root / f"index.{fmt}")
        ShardedLabelStore.split(store, 2).save(split, format=fmt)
        assert (resplit / MANIFEST_NAME).read_bytes() == (
            split / MANIFEST_NAME
        ).read_bytes()

        sharded.apply_updates(delta)
        sharded.reconcile(shard_dir)
        sharded.close()
        got[f"shards-{fmt}+delta"] = _sha(shard_dir / MANIFEST_NAME)
        ShardedLabelStore.load(shard_dir).close()  # checksums still hold
    return got


#: The cases of :func:`_digests`, in the order of each row of PINNED.
CASES = (
    "v2",
    "v2+delta",
    "v3",
    "v3+delta",
    "shards-v2",
    "shards-v2+delta",
    "shards-v3",
    "shards-v3+delta",
)

# Recorded from the writers as they stood when these pins were added.
PINNED: dict[str, tuple[str, ...]] = {
    "ba": (
        "c56ab451777f2cb72e47c7d92ec15705afc0a69c90713f0847e093477f60bb98",
        "fe8d6386bb5c8f2fe5dfb20a6ec20147933e81c8941a177a93a0f3a5d87f2ff1",
        "90da4f73719841cdb11e01442dc510e4dbfb0396260e53fb68462bbf7599d1dd",
        "54209286237c12bc7280216593f97e42704ae83b4f1f37ce4a98f0e2e5efc487",
        "bc037cfe0c5900329e658acc268dd5369fde3e8cfe1b7582b799102c5640e6e9",
        "e892da3b96b8b49f7919fd8d0a53fdcfc74ceaf7709ab87e23142f573ac252b6",
        "db2cf2cd1c872182afd455ab3fd955ee84ce22ad6c956851d6c3a3ad50bcd4ec",
        "48eb17fc431e939f43b781d36616974d00f224760e91cee0ab36ccdfa18137ac",
    ),
    "glp": (
        "199523e323a46b3815b379e2f264688f291431e51f517db4909277f53cd6b91f",
        "5cfdc8e6d239a92b28c07d6c0965c17856d0fa77f93749de9f11dfbc5ff192b9",
        "c2213bf8911a1eac3983e5d094a1fb2d1cc5bce3cc5a127e23f4d1dbbd7341a3",
        "d1a94d4a0b5bc7f455b4bc24ae0bece6e80d5145029018bece13f3af07a98d3e",
        "b833d8a55de3a91325da994e755866303dfaebc40f48913be8c81c26018b6a09",
        "b01653464f033016a810483c648bd39bc01a3c2c81aae9899bf589aa9dba0d16",
        "1fc8e62505ee7cd60a214584802abcc9207591bb0add06ce0e141b6828fa32c7",
        "d30a971d20f23c7aac0b9a92a85364fd9f8df9bd9e1002a96415eb0f54817e42",
    ),
    "glp-directed": (
        "bae2e073a168dae7822a6214340599cc6dc3fb13930aa8e711bc4c46099ba5fe",
        "f1997bcca0ca3ec22017f165b6ceff3ef214ee31035ce686523064006f36e962",
        "689fed070bd743a2d7e88de5198965e72a78465bb9338512cda92ed7b57a297b",
        "425315d527aa9d746b0e90bc25d287ec544a36e5e8127020583886861eeb7095",
        "1eedb9303e563a52c50bd51f9f03ce9598b8a14a1bd1070045c441c5c2dd04ef",
        "bf230537c6c6f15235def4c0fce9bd318b7034e3d54bb24ce6b93400f92aa928",
        "e3186bef7ae80ce5c59cd78adbf6c921ce78bfe6a98b497ad6c938994b01c789",
        "fcaa156513a91fc80b2c4694d1260bbe9d67e742e1c13394b7d1e8387195da6c",
    ),
    "glp-w9": (
        "4fcc92f5c3f9b35fc78c33865aa25f0f6a2f35c330e66cd2fcd327ffd422d1dd",
        "65b20dddc625f584df01f192b03002ae213ebf49a00d9c936cb41e08967024e0",
        "d38d4c83099e26c3ac400ddcb617436177e640c1fefa9d29c9bc3599d5b0a551",
        "e918ed6de56bb06e2f533b41070227f42ea9810b4bcb9e5bb8f99ef04e05b026",
        "19ab359f4b919b87ea5e5bce0bb5f93c920a3ed91793cd5e1f60ded8a635d417",
        "ac818a4b20002d2c1bb558abd0c18ba20c6dfd58688c260518b3faf516455d6e",
        "eec8e076f1390565c08cb4028e346302207b7ac16d2837c1a15cc31c46c47b78",
        "bacb85890e7c0b2d3c90a2120b7a36a48dc79aa75ea3bb4073aeda9ce28c95f8",
    ),
    "glp-frac": (
        "54c88547ecd31487b27b483e7a290bd36356864614cb089a5505a892acde4584",
        "aa5a657ce98e3798b1e181f106f4dd77d8f51a513729ac2a0e453aee7a0f7969",
        "a5d8edb92bac38602989c884057a1b9ac6fea8c8bbbd1e1ad2e7532d7ccdcd1e",
        "1aa510f928858983b211eb3b5a7d525606003b7a4eb39a49ea2340516bc45178",
        "5d36e1fb3140360d1c318146272e4574bc8e2a2b0f85019c112b928d7c4bc366",
        "74f726e51234c742b7e50bbb6212e603a966dbff8b4cfad47431504f03850360",
        "9f90bd9d5071b12b873d32b2b72e6f39d4a85abff1601353a685d7959d3a5286",
        "d09bc8e60c6680530f359f59392d25df2df5e9986d03c73edfd374b486396430",
    ),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_files_byte_identical(name, tmp_path):
    assert _digests(name, tmp_path) == dict(zip(CASES, PINNED[name]))
