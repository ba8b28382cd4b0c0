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

    # A v3 file re-encoded as v2 is the v2 file, merged or not: rank
    # positions map back to the same vertex ids in the same order.
    for case in ("", "+delta"):
        name = "merged.v3" if case else "index.v3"
        back = root / f"back{case}.v2"
        load_store(root / name).encoded("v2").save(back)
        assert _sha(back) == got[f"v2{case}"]

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

# Recorded from the writers as they stood when these pins were added;
# the v3 and v3+delta digests again when v3 files began to store their
# pivots as rank positions (flag bit 2), and every v3 digest, shards
# included, when rank-space rows began to leave out their self entry
# (bit 3) and wide deltas moved to patch sections (bit 4).
PINNED: dict[str, tuple[str, ...]] = {
    "ba": (
        "c56ab451777f2cb72e47c7d92ec15705afc0a69c90713f0847e093477f60bb98",
        "fe8d6386bb5c8f2fe5dfb20a6ec20147933e81c8941a177a93a0f3a5d87f2ff1",
        "d2ed67e49a00073e5d6174a7ee1a6cb7ec7174f9504bcbe9cd7d5c7880e10a13",
        "5bfd677a0fd53e460a847d4bd67ebb271f13b51e168cc3c6afd43dbfd62652d5",
        "bc037cfe0c5900329e658acc268dd5369fde3e8cfe1b7582b799102c5640e6e9",
        "e892da3b96b8b49f7919fd8d0a53fdcfc74ceaf7709ab87e23142f573ac252b6",
        "1287367689899a84a5e1cdde3a1930b48c3c8009e274ce456894741978960bcb",
        "fb5956bbd8a5c6aa28a05621c1dae1df05456735d888ccc30f6b08e4fde80241",
    ),
    "glp": (
        "199523e323a46b3815b379e2f264688f291431e51f517db4909277f53cd6b91f",
        "5cfdc8e6d239a92b28c07d6c0965c17856d0fa77f93749de9f11dfbc5ff192b9",
        "297c0e00149b0fe2aee344dcbbfa6b333fc678177144095e4b27888c0b50cc0a",
        "60ede488d0650600c6abba6ce332eb2f526c9b49df5706216473700198c7c0d2",
        "b833d8a55de3a91325da994e755866303dfaebc40f48913be8c81c26018b6a09",
        "b01653464f033016a810483c648bd39bc01a3c2c81aae9899bf589aa9dba0d16",
        "24661cca5a315ce4e15e2e9b482bde9143077b6002773d606520dabb2091f37e",
        "bb3964af7b58be3ddfa66d33877c258173f13ae732b17dee2936635e207218ba",
    ),
    "glp-directed": (
        "bae2e073a168dae7822a6214340599cc6dc3fb13930aa8e711bc4c46099ba5fe",
        "f1997bcca0ca3ec22017f165b6ceff3ef214ee31035ce686523064006f36e962",
        "d8cbe2446bf7d2332d1e475761c2ec109b7206163f348d32ecda95052bdaa0e8",
        "5f371ca8dca2cce3731475a83b00628c34b8f98b0032e5dba70fe6efc3d8eed5",
        "1eedb9303e563a52c50bd51f9f03ce9598b8a14a1bd1070045c441c5c2dd04ef",
        "bf230537c6c6f15235def4c0fce9bd318b7034e3d54bb24ce6b93400f92aa928",
        "6d377dbbd3e21f0b5474488c0ddd2da6cbfbb0a6243c9882d68fc8ee0f0f1b39",
        "913e523b5bfde0a6cb77d17ed651e41c04c0ffd6ddc8cda350cb0d8b4bbaf355",
    ),
    "glp-w9": (
        "4fcc92f5c3f9b35fc78c33865aa25f0f6a2f35c330e66cd2fcd327ffd422d1dd",
        "65b20dddc625f584df01f192b03002ae213ebf49a00d9c936cb41e08967024e0",
        "2ff723694a8885a874615e37cecd83e92a399021e6d686d606ba9a73e0d59981",
        "63fce96c0a3a8d1c08081f5a3c63120f38e6aabfc1d0652f648033906d2a9ad5",
        "19ab359f4b919b87ea5e5bce0bb5f93c920a3ed91793cd5e1f60ded8a635d417",
        "ac818a4b20002d2c1bb558abd0c18ba20c6dfd58688c260518b3faf516455d6e",
        "33116f03504ec589e34f05ae61b90391c470fcaed01727a948686e2c851f357e",
        "497a25cf8fcd054a8a9c65e0005becaa3154c226c1a865d07e06fb0a7fb2c2ce",
    ),
    "glp-frac": (
        "54c88547ecd31487b27b483e7a290bd36356864614cb089a5505a892acde4584",
        "aa5a657ce98e3798b1e181f106f4dd77d8f51a513729ac2a0e453aee7a0f7969",
        "53ecb03c034c6550caa812ea56feb0b4074eb28c4aab6b9d6a9a7381d66ff9fd",
        "bcddb1af8480569b4b0d06b5e9025a166142ddc5a97cb24a40e585bc40c73c51",
        "5d36e1fb3140360d1c318146272e4574bc8e2a2b0f85019c112b928d7c4bc366",
        "74f726e51234c742b7e50bbb6212e603a966dbff8b4cfad47431504f03850360",
        "f34da327521675375473ad2f1c8f5ba88533b2e4b02c41a9f50eb82bf1d7e846",
        "c10554348fda0c1919494aed7a50e698630da21658e298a4faeb25944affe240",
    ),
}


@pytest.mark.parametrize("name", GRAPHS)
def test_files_byte_identical(name, tmp_path):
    assert _digests(name, tmp_path) == dict(zip(CASES, PINNED[name]))
