"""The :class:`DistanceOracle` serving facade.

Everything that *answers* queries in this codebase — the CLI, the
examples, the bench harness — goes through one object that owns a
label store backend and layers the serving conveniences on top:

* pluggable storage: any :class:`~repro.core.labels.LabelStore`
  (usually a CSR :class:`~repro.core.flatstore.FlatLabelStore`),
  attached directly or opened from an index file of any format
  version;
* an LRU result cache for single-pair queries;
* batched evaluation (:meth:`query_batch`) through the vectorized
  kernel, or pair by pair for a store or batch the kernel does not
  take;
* the derived workloads: reachability, shortest-path reconstruction
  (needs a graph: ``graph=`` or the :attr:`graph` attribute), one-to-all
  distances, and k-nearest neighbours via a lazily built inverted
  index.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.core.knn import InvertedLabelIndex
from repro.core.labels import INF, LabelStore
from repro.core.query import reconstruct_path
from repro.graphs.digraph import Graph
from repro.oracle.batch import evaluate_batch
from repro.oracle.cache import CacheInfo, LRUCache

#: Default LRU capacity — roughly 64k cached pairs, a few MB of
#: Python objects, sized for a hot working set of repeated queries.
DEFAULT_CACHE_SIZE = 65_536


class DistanceOracle:
    """Point-to-point distance serving over a pluggable label store."""

    def __init__(
        self,
        store: LabelStore,
        graph: Graph | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.store = store
        self.graph = graph
        self.cache = LRUCache(cache_size)
        self._inverted: InvertedLabelIndex | None = None

    # -- construction --------------------------------------------------------
    @classmethod
    def open(
        cls,
        path: str | Path,
        use_mmap: bool = False,
        graph: Graph | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> "DistanceOracle":
        """Open an index file (any format version) and serve it.

        The store keeps the file's array layout — CSR for v2, compact
        for v3; a v1 file is packed into v2 arrays.  ``use_mmap`` maps
        a v2/v3 file zero-copy instead of reading it.
        """
        from repro.core.flatstore import load_store

        store = load_store(path, use_mmap=use_mmap)
        return cls(store, graph=graph, cache_size=cache_size)

    # -- basic facts ---------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of vertices served."""
        return self.store.n

    @property
    def directed(self) -> bool:
        return self.store.directed

    # -- point-to-point ------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``inf`` when unreachable."""
        if self.cache.capacity == 0:
            # Caching disabled: skip key building and LRU bookkeeping
            # so timed paths pay only the real merge-join cost.
            return self.store.query(s, t)
        # Undirected stores answer (s, t) and (t, s) alike: one key.
        key = (t, s) if not self.store.directed and s > t else (s, t)
        hit = self.cache.get(key, _MISS)
        if hit is not _MISS:
            return hit
        d = self.store.query(s, t)
        self.cache.put(key, d)
        return d

    def query_batch(self, pairs: Iterable[tuple[int, int]]) -> list[float]:
        """Distances for every pair, in input order.

        Evaluated with the vectorized kernel, which dedupes the batch
        itself, or pair by pair (see :mod:`repro.oracle.batch`);
        the result cache is neither probed nor filled.  Bit-identical
        to calling :meth:`query` per pair.  A
        :class:`~repro.oracle.batch.PairColumns` block goes to the
        kernel as it stands and comes back as its float64 array
        instead of a list.
        """
        return evaluate_batch(self.store, pairs)

    def is_reachable(self, s: int, t: int) -> bool:
        """Whether any path ``s -> t`` exists."""
        return self.query(s, t) != INF

    # -- paths ---------------------------------------------------------------
    def reconstruct_path(self, s: int, t: int) -> list[int] | None:
        """One shortest path ``s -> t``; ``None`` when unreachable.

        The labels store distances only, so this greedily descends
        through :attr:`graph` (raises ``ValueError`` when it is
        ``None``).
        """
        if self.graph is None:
            raise ValueError(
                "path reconstruction needs the graph; pass graph= at "
                "construction or set the oracle's .graph"
            )
        return reconstruct_path(self.store, self.graph, s, t)

    # -- one-to-many ---------------------------------------------------------
    def _inverted_index(self) -> InvertedLabelIndex:
        if self._inverted is None:
            self._inverted = InvertedLabelIndex(self.store)
        return self._inverted

    def nearest(
        self, s: int, k: int, include_self: bool = False
    ) -> list[tuple[float, int]]:
        """The ``k`` closest vertices to ``s`` as ``(dist, vertex)``.

        The first call builds an inverted label index (size comparable
        to the labels themselves); subsequent calls reuse it.
        """
        return self._inverted_index().nearest(s, k, include_self=include_self)

    def distances_from(self, s: int) -> list[float]:
        """Distances from ``s`` to every vertex."""
        return self._inverted_index().distances_from(s)

    def distances_to(self, t: int) -> list[float]:
        """Distances from every vertex to ``t``."""
        return self._inverted_index().distances_to(t)

    # -- mutation ------------------------------------------------------------
    def apply_updates(self, delta) -> int | list[int]:
        """Apply a :class:`~repro.core.labels.LabelDelta` to the store.

        Forwards to the backend's ``apply_updates`` (flat / quantized
        stores stage a query-time overlay; sharded stores route the
        delta to the owning shards) and then invalidates every derived
        result — the LRU cache and the inverted k-NN index — so a
        stale distance can never be served after an update.  Returns
        whatever the store returns (staged slice count, or affected
        shard ids).
        """
        apply = getattr(self.store, "apply_updates", None)
        if apply is None:
            raise TypeError(
                f"{type(self.store).__name__} does not support incremental "
                "updates; serve a flat, quantized, or sharded store"
            )
        result = apply(delta)
        self.invalidate()
        return result

    def invalidate(self) -> None:
        """Drop every result derived from the store's current labels.

        The LRU result cache and the lazily built inverted k-NN index
        both memoize label contents, so **every** store-mutating
        surface must call this; :meth:`apply_updates` does it
        automatically, and callers that mutate the store directly
        (swapping arrays, reloading files) must do it themselves.
        """
        self.cache.clear()
        self._inverted = None

    # -- monitoring ----------------------------------------------------------
    def cache_info(self) -> CacheInfo:
        """Hit/miss statistics of the result cache."""
        return self.cache.info()

    def close(self) -> None:
        """Release backend resources (the file mapping of an
        mmap-loaded store); the oracle must not be queried after."""
        close = getattr(self.store, "close", None)
        if close is not None:
            close()

    def __repr__(self) -> str:
        info = self.cache.info()
        return (
            f"DistanceOracle({self.store!r}, cache={info.size}/"
            f"{info.capacity})"
        )


_MISS = object()
