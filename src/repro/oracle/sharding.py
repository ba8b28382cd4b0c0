"""Range-sharded label storage: N per-shard flat stores + a manifest.

A single :class:`~repro.core.flatstore.FlatLabelStore` stops being the
right serving unit once the index outgrows one process (the paper's
billion-edge targets) or once query traffic wants more than one core.
This module partitions a flat store by **contiguous vertex range** into
``N`` independent shard files and serves them back through one object:

* :class:`ShardedLabelStore` — implements the full
  :class:`~repro.core.labels.LabelStore` protocol over the shard set,
  so the :class:`~repro.oracle.DistanceOracle` facade, k-NN, path
  reconstruction, and the verifier all work unchanged.  A query
  ``(s, t)`` reads ``Lout(s)`` from the shard owning ``s`` and
  ``Lin(t)`` from the shard owning ``t``; pivot ids are global, so the
  dict-probe evaluation is identical to the single-store one and
  returns bit-identical distances.
* **On-disk layout** — a directory holding one label file per shard
  (binary format v2 ``FlatLabelStore`` blobs, or compact quantized v3
  files via ``save(format="v3")``, each self-contained over its local
  vertex range) plus ``manifest.json`` recording the global shape,
  the ``[lo, hi)`` range and SHA-256 checksum of every shard.  Loads
  validate the manifest (complete range cover, no overlaps or gaps,
  files present, checksums match) before any shard is opened, and can
  memory-map every shard for zero-copy serving.

Sharding is a *storage* layout: each shard is an ordinary index file
that updates rewrite on its own (:meth:`ShardedLabelStore.reconcile`).
Serving a directory with several workers is
:class:`~repro.oracle.parallel.ParallelOracle`'s job; its forked
workers share the whole shard set and group work by source shard.
"""

from __future__ import annotations

import hashlib
import json
import re
from array import array
from bisect import bisect_right
from pathlib import Path
from typing import Sequence

from repro.core.flatstore import (
    FlatLabelStore,
    derived_slice,
    load_store,
    merge_min_via,
    probe_min_distance,
    probe_slice_min,
)
from repro.core.quantized import QuantizedLabelStore
from repro.core.labels import (
    BYTES_PER_ENTRY,
    LabelIndex,
    LabelStats,
    LabelStore,
)
from repro.utils.atomicio import atomic_binary_writer

#: Manifest file name inside a shard directory.
MANIFEST_NAME = "manifest.json"

#: Shard file naming scheme per on-disk label format
#: (``shard-0000.idx2`` for v2 files, ``shard-0000.idx3`` for v3).
SHARD_FILE_FORMATS = {
    "v2": "shard-{:04d}.idx2",
    "v3": "shard-{:04d}.idx3",
}
SHARD_FILE_FORMAT = SHARD_FILE_FORMATS["v2"]
# Reconcile writes revision-suffixed generations (shard-0007-r3.idx2)
# next to the canonical save() names; both shapes count as shard files
# for stale-cleanup sweeps.
_SHARD_FILE_RE = re.compile(r"^shard-\d{4}(-r\d+)?\.idx[23]$")
_SHARD_GEN_RE = re.compile(r"^shard-(\d{4})(?:-r(\d+))?\.(idx[23])$")


def _next_shard_file(name: str) -> str:
    """The next revision of a shard file name (format suffix kept)."""
    match = _SHARD_GEN_RE.match(name)
    if match is None:
        raise ShardError(f"unrecognized shard file name {name!r}")
    rev = int(match.group(2) or 0) + 1
    return f"shard-{match.group(1)}-r{rev}.{match.group(3)}"

_MANIFEST_FORMAT = "repro-shards"
_MANIFEST_VERSION = 1


class ShardError(ValueError):
    """A shard directory, manifest, or shard file is invalid."""


def split_ranges(n: int, num_shards: int) -> list[tuple[int, int]]:
    """Contiguous near-equal ``[lo, hi)`` vertex ranges covering ``n``.

    The first ``n % num_shards`` shards get one extra vertex, so sizes
    differ by at most one.  Raises :class:`ShardError` unless
    ``1 <= num_shards <= n``.
    """
    if num_shards < 1:
        raise ShardError(f"num_shards must be >= 1, got {num_shards}")
    if num_shards > n:
        raise ShardError(
            f"cannot split {n} vertices into {num_shards} non-empty shards"
        )
    base, extra = divmod(n, num_shards)
    ranges = []
    lo = 0
    for i in range(num_shards):
        hi = lo + base + (1 if i < extra else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _sha256_file(path: Path) -> str:
    """Streamed SHA-256 of a file.

    On the save path this re-reads bytes just written (page-cache
    warm); folding hashing into the writers isn't worth the coupling.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ShardedLabelStore:
    """A :class:`LabelStore` over per-range :class:`FlatLabelStore` shards.

    ``ranges[i] = (lo, hi)`` and ``shards[i]`` holds the labels of
    vertices ``lo .. hi-1``, locally re-based (global vertex ``v``
    lives at local id ``v - lo`` in its shard).  Pivot ids inside the
    labels stay **global**, so cross-shard joins need no translation.

    Each shard carries the ``parent`` / ``hang`` slice of its own
    range (parent ids global, too): a pendant's parent may live in
    another shard, so resolving pendants — and deriving their labels —
    is done here, never by a shard.
    """

    __slots__ = (
        "n", "directed", "shards", "ranges", "rank", "_los", "_dirty", "_view",
    )

    def __init__(
        self,
        shards: Sequence[FlatLabelStore],
        ranges: Sequence[tuple[int, int]],
    ) -> None:
        if len(shards) != len(ranges) or not shards:
            raise ShardError(
                f"got {len(shards)} shards for {len(ranges)} ranges"
            )
        self.shards = list(shards)
        self.ranges = [(int(lo), int(hi)) for lo, hi in ranges]
        _validate_ranges(self.ranges)
        self.n = self.ranges[-1][1]
        self.directed = shards[0].directed
        for (lo, hi), shard in zip(self.ranges, self.shards):
            if shard.n != hi - lo:
                raise ShardError(
                    f"shard for range [{lo}, {hi}) has {shard.n} vertices, "
                    f"expected {hi - lo}"
                )
            if shard.directed != self.directed:
                raise ShardError("shards disagree on directedness")
            shard.lo = lo
        self._los = [lo for lo, _ in self.ranges]
        self._dirty: set[int] = set()
        # The batch kernel's row cache over all shards
        # (repro.oracle.kernel), created by the first batch.
        self._view = None
        # Reassemble the global ranking when every shard carries its slice.
        if all(s.rank is not None for s in self.shards):
            rank: list[int] | None = []
            for shard in self.shards:
                rank.extend(shard.rank)
        else:
            rank = None
        self.rank = rank

    # -- construction --------------------------------------------------------
    @classmethod
    def split(
        cls,
        store: LabelStore,
        num_shards: int,
    ) -> "ShardedLabelStore":
        """Partition any label store into contiguous range shards.

        ``num_shards`` splits the vertex range into near-equal pieces
        (:func:`split_ranges`).

        Tuple-list indexes are packed through
        :meth:`FlatLabelStore.from_index` first, quantized v3 stores
        are expanded to the v2 layout (the sliced shards can be
        re-quantized at save time), and any other backend (including
        an already-sharded store being re-split to a new count)
        goes through its ``out_label``/``in_label`` accessors; the CSR
        arrays are then sliced per range (offsets re-based to each
        shard's start), which preserves entry order and therefore
        answers.
        """
        if isinstance(store, QuantizedLabelStore):
            store = store.to_flat()
        elif isinstance(store, FlatLabelStore):
            # Fold any staged updates first: the range slicing below
            # reads the raw base arrays.
            store = store.merged()
        elif isinstance(store, LabelIndex):
            store = FlatLabelStore.from_index(store)
        else:
            store = _pack_any(store)
        ranges = split_ranges(store.n, num_shards)
        shards = [_slice_store(store, lo, hi) for lo, hi in ranges]
        return cls(shards, ranges)

    # -- incremental updates -------------------------------------------------
    @property
    def has_pending_updates(self) -> bool:
        """Whether any shard holds staged updates not yet reconciled."""
        return bool(self._dirty)

    @property
    def dirty_shards(self) -> list[int]:
        """Ids of the shards whose labels changed since the last reconcile."""
        return sorted(self._dirty)

    def apply_updates(self, delta) -> list[int]:
        """Stage a :class:`~repro.core.labels.LabelDelta` onto the shards.

        Each carried vertex's replacement label is routed to the shard
        owning it (vertex ids re-based to the shard's local range;
        pivot ids are global and pass through untouched) and staged as
        that shard's query-time overlay.  Only the shards whose vertex
        ranges contain updated vertices are marked dirty —
        :meth:`reconcile` later rewrites exactly those files.  Returns
        the affected shard ids.
        """
        from repro.core.labels import LabelDelta

        if delta.n != self.n or delta.directed != self.directed:
            raise ShardError(
                f"delta shape (|V|={delta.n}, directed={delta.directed}) "
                f"does not match store (|V|={self.n}, "
                f"directed={self.directed})"
            )
        per_shard: dict[int, LabelDelta] = {}

        def local_delta(v: int) -> tuple[LabelDelta, int]:
            i = self.shard_of(v)
            lo, hi = self.ranges[i]
            d = per_shard.get(i)
            if d is None:
                d = LabelDelta.empty(hi - lo, self.directed)
                per_shard[i] = d
            return d, v - lo

        for v, label in delta.out.items():
            d, local = local_delta(v)
            d.out[local] = label
        if self.directed:
            for v, label in delta.inn.items():
                d, local = local_delta(v)
                d.inn[local] = label
        for i, d in per_shard.items():
            self.shards[i].apply_updates(d)
        self._dirty.update(per_shard)
        if self._view is not None:
            self._view.invalidate(delta)
        return sorted(per_shard)

    def reconcile(self, path) -> list[int]:
        """Flush staged updates to the shard directory at ``path``.

        Rewrites **only** the shards whose vertex ranges changed (in
        their manifest-recorded format), refreshes those entries'
        SHA-256 checksums and entry counts, and leaves every untouched
        shard file byte-for-byte identical — reconciling an N-shard
        directory after a localized update costs one shard's worth of
        IO, not N.  The rewrite is crash-consistent: each changed
        shard lands in a **new revision file** (``shard-0007-r3.idx2``)
        first, the manifest then flips to the new generation in one
        atomic rename, and only afterwards are the replaced files (and
        any orphans of earlier interrupted runs) removed — a crash at
        any point leaves a manifest whose named files all exist and
        checksum clean.  The in-memory store swaps the merged shards
        in (releasing any stale file mappings), leaving it
        overlay-free and consistent with the directory.  Returns the
        rewritten shard ids.
        """
        root = Path(path)
        manifest = load_manifest(root)
        if (
            manifest["n"] != self.n
            or manifest["directed"] != self.directed
            or len(manifest["shards"]) != len(self.shards)
        ):
            raise ShardError(
                f"{root}: manifest describes a different shard layout; "
                "reconcile only the directory this store was loaded from"
            )
        for entry, (lo, hi) in zip(manifest["shards"], self.ranges):
            if (entry["lo"], entry["hi"]) != (lo, hi):
                raise ShardError(
                    f"{root}: manifest range [{entry['lo']}, {entry['hi']}) "
                    f"does not match store range [{lo}, {hi})"
                )
        rewritten = sorted(self._dirty)
        # The kernel's row cache views the shard arrays about to be
        # swapped (and unmapped): the next batch starts a fresh one.
        self._view = None
        for i in rewritten:
            entry = manifest["shards"][i]
            merged = self.shards[i].merged()
            # Match the on-disk per-shard format recorded by save().
            if entry["file"].endswith(".idx3"):
                if not isinstance(merged, QuantizedLabelStore):
                    merged = QuantizedLabelStore.from_flat(merged)
            elif isinstance(merged, QuantizedLabelStore):
                merged = merged.to_flat()
            new_name = _next_shard_file(entry["file"])
            merged.save(root / new_name)
            entry["file"] = new_name
            entry["sha256"] = _sha256_file(root / new_name)
            entry["entries"] = merged.total_entries(include_trivial=True)
            stale = self.shards[i]
            self.shards[i] = merged
            if stale is not merged:
                stale.close()
        payload = json.dumps(manifest, indent=2).encode() + b"\n"
        with atomic_binary_writer(root / MANIFEST_NAME) as fh:
            fh.write(payload)
        # The manifest now owns the new generation; drop the replaced
        # files and any orphans a previously interrupted reconcile
        # left behind.
        live = {entry["file"] for entry in manifest["shards"]}
        for candidate in root.iterdir():
            if (
                _SHARD_FILE_RE.match(candidate.name)
                and candidate.name not in live
            ):
                candidate.unlink()
        self._dirty.clear()
        return rewritten

    # -- vertex -> shard routing ---------------------------------------------
    def shard_of(self, v: int) -> int:
        """Index of the shard owning global vertex ``v``."""
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range [0, {self.n})")
        return bisect_right(self._los, v) - 1

    def _locate(self, v: int) -> tuple[FlatLabelStore, int]:
        i = self.shard_of(v)
        return self.shards[i], v - self._los[i]

    # -- pendant vertices ----------------------------------------------------
    def _resolve(self, v: int):
        """``(p, h)``: the core vertex answering for ``v`` and the edge
        between them — ``(v, 0)`` unless ``v`` is a pendant."""
        shard, local = self._locate(v)
        if shard.hang is None:
            return v, 0
        h = shard.hang[local]
        if not h or (shard._delta_out and local in shard._delta_out):
            return v, 0
        p = shard.parent[local]
        if not (h > 0 and 0 <= p < self.n and not self._resolve(p)[1]):
            raise ShardError(
                f"corrupt pendant section: vertex {v} hangs {h!r} from {p}"
            )
        return p, h

    def _pendant_columns(self):
        """Global ``(parent, hang)`` arrays, staged updates folded in;
        ``(None, None)`` on a store without pendants."""
        parent, hang = array("i"), array("d")
        for (lo, hi), shard in zip(self.ranges, self.shards):
            p, h = shard._pendant_columns()
            parent.extend(range(lo, hi) if p is None else p)
            hang.extend([0.0] * (hi - lo) if h is None else h)
        return (parent, hang) if any(hang) else (None, None)

    def _slice(self, v: int, out: bool):
        """``(pivots, dists, lo, hi)`` of ``v``'s label; a pendant's is
        derived from its parent's."""
        p, h = self._resolve(v)
        shard, local = self._locate(p)
        stored = shard.out_slice(local) if out else shard.in_slice(local)
        return derived_slice(v, h, *stored) if h else stored

    # -- LabelStore accessors ------------------------------------------------
    def out_label(self, v: int) -> list[tuple[int, float]]:
        """``Lout(v)`` as a fresh (pivot, dist) list, sorted by pivot."""
        p, d, o, e = self._slice(v, True)
        return list(zip(p[o:e], d[o:e]))

    def in_label(self, v: int) -> list[tuple[int, float]]:
        """``Lin(v)`` as a fresh (pivot, dist) list, sorted by pivot."""
        p, d, o, e = self._slice(v, False)
        return list(zip(p[o:e], d[o:e]))

    def label_of(self, v: int, out: bool = True) -> list[tuple[int, float]]:
        """The (pivot, dist) list of ``v``'s out- or in-label."""
        return self.out_label(v) if out else self.in_label(v)

    # -- querying ------------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Exact ``dist(s, t)``; ``inf`` when unreachable.

        Same dict-probe evaluation as the flat store, with the two
        sides read from (possibly) different shards.
        """
        if s == t:
            if not 0 <= s < self.n:
                raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")
            return 0.0
        s, hs = self._resolve(s)
        t, ht = self._resolve(t)
        if s == t:
            return float(hs + ht)
        a, al = self._locate(s)
        b, bl = self._locate(t)
        d = probe_min_distance(*a.out_slice(al), *b.in_slice(bl))
        return hs + d + ht

    def query_via(self, s: int, t: int) -> tuple[float, int]:
        """Like :meth:`query` but also return the best pivot (-1 if none)."""
        if s == t:
            if not 0 <= s < self.n:
                raise IndexError(f"query ({s}, {t}) out of range [0, {self.n})")
            return 0.0, s
        s, hs = self._resolve(s)
        t, ht = self._resolve(t)
        if s == t:
            return float(hs + ht), s
        a, al = self._locate(s)
        b, bl = self._locate(t)
        d, pivot = merge_min_via(*a.out_slice(al), *b.in_slice(bl))
        return hs + d + ht, pivot

    def query_group(self, s: int, targets: Sequence[int]) -> list[float]:
        """Distances from ``s`` to each target, amortising the source side.

        The batched-evaluation hook
        (:func:`repro.oracle.batch.evaluate_batch` detects it): the
        ``Lout(s)`` dict is built once from ``s``'s shard and probed
        with every target's in-label from whichever shard owns it.
        """
        ps, hs = self._resolve(s)
        a, al = self._locate(ps)
        ap, ad, ao, ae = a.out_slice(al)
        src = dict(zip(ap[ao:ae], ad[ao:ae]))
        get = src.get
        out: list[float] = []
        append = out.append
        for t in targets:
            if t == s:
                append(0.0)
                continue
            pt, ht = self._resolve(t)
            if pt == ps:
                append(float(hs + ht))
                continue
            b, bl = self._locate(pt)
            bp, bd, bo, be = b.in_slice(bl)
            append(hs + probe_slice_min(get, bp, bd, bo, be) + ht)
        return out

    # -- statistics ----------------------------------------------------------
    def total_entries(self, include_trivial: bool = False) -> int:
        """Total label entries (self entries excluded unless asked)."""
        return sum(
            shard.total_entries(include_trivial) for shard in self.shards
        )

    def size_in_bytes(self) -> int:
        """Index size under the paper's 5-bytes-per-entry convention."""
        return self.total_entries(include_trivial=True) * BYTES_PER_ENTRY

    def storage_bytes(self) -> int:
        """Actual bytes held by the shard arrays (offsets included)."""
        return sum(shard.storage_bytes() for shard in self.shards)

    def stats(self) -> LabelStats:
        """Aggregate size statistics (same semantics as the flat store)."""
        shard_stats = [shard.stats() for shard in self.shards]
        total = sum(st.total_entries for st in shard_stats)
        return LabelStats(
            num_vertices=self.n,
            total_entries=total,
            max_label_size=max(st.max_label_size for st in shard_stats),
            avg_label_size=total / self.n if self.n else 0.0,
            index_bytes=self.size_in_bytes(),
            pendants=sum(st.pendants for st in shard_stats),
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def is_mmapped(self) -> bool:
        """Whether every shard is a zero-copy view over a file mapping."""
        return all(shard.is_mmapped for shard in self.shards)

    # -- serialization -------------------------------------------------------
    def save(self, path, overwrite: bool = False, format: str = "v2") -> Path:
        """Write the shard directory: N label files + ``manifest.json``.

        ``format`` selects the per-shard file format: ``"v2"`` flat
        CSR blobs or ``"v3"`` compact quantized arrays (~25-50% of the
        v2 bytes; shards are converted in either direction as needed).
        Each shard file is written atomically, the manifest last — a
        reader that finds a manifest therefore finds the shard files
        it names.  An existing shard directory (one with a manifest)
        is refused unless ``overwrite=True``, which also removes stale
        ``shard-*.idx2`` / ``shard-*.idx3`` files beyond the new shard
        set.
        """
        if format not in SHARD_FILE_FORMATS:
            raise ValueError(
                f"unknown shard format {format!r}; expected one of "
                f"{tuple(SHARD_FILE_FORMATS)}"
            )
        root = Path(path)
        manifest_path = root / MANIFEST_NAME
        if manifest_path.exists() and not overwrite:
            raise FileExistsError(
                f"{root}: already a shard directory; pass overwrite=True "
                "(CLI: --force) to replace it"
            )
        root.mkdir(parents=True, exist_ok=True)
        entries = []
        for i, ((lo, hi), shard) in enumerate(zip(self.ranges, self.shards)):
            name = SHARD_FILE_FORMATS[format].format(i)
            if format == "v3":
                out = QuantizedLabelStore.from_flat(shard)
            elif isinstance(shard, QuantizedLabelStore):
                out = shard.to_flat()
            else:
                out = shard
            out.save(root / name)
            entries.append(
                {
                    "id": i,
                    "lo": lo,
                    "hi": hi,
                    "file": name,
                    "sha256": _sha256_file(root / name),
                    "entries": shard.total_entries(include_trivial=True),
                }
            )
        if overwrite:
            for stale in root.iterdir():
                if (
                    _SHARD_FILE_RE.match(stale.name)
                    and stale.name not in {e["file"] for e in entries}
                ):
                    stale.unlink()
        manifest = {
            "format": _MANIFEST_FORMAT,
            "version": _MANIFEST_VERSION,
            "n": self.n,
            "directed": self.directed,
            "num_shards": len(self.shards),
            "label_format": format,
            "shards": entries,
        }
        payload = json.dumps(manifest, indent=2).encode() + b"\n"
        with atomic_binary_writer(manifest_path) as fh:
            fh.write(payload)
        return manifest_path

    @classmethod
    def load(
        cls,
        path,
        use_mmap: bool = False,
        verify_checksums: bool = True,
    ) -> "ShardedLabelStore":
        """Open a shard directory written by :meth:`save`.

        Validates the manifest before opening anything: schema, a
        complete gap/overlap-free range cover, every shard file
        present, and (unless ``verify_checksums=False`` — e.g. worker
        processes re-opening a directory the parent already verified)
        SHA-256 checksums.  With ``use_mmap=True`` every shard is
        mapped zero-copy.  Raises :class:`ShardError` on anything
        inconsistent.
        """
        root = Path(path)
        manifest = load_manifest(root)
        shards = []
        try:
            for entry in manifest["shards"]:
                file_path = root / entry["file"]
                if verify_checksums:
                    digest = _sha256_file(file_path)
                    if digest != entry["sha256"]:
                        raise ShardError(
                            f"{file_path}: checksum mismatch (manifest "
                            f"{entry['sha256'][:12]}..., file "
                            f"{digest[:12]}...) — shard file corrupt or "
                            "replaced; re-run `repro shard`"
                        )
                try:
                    # Sniffs the per-file version byte, so v2 and v3
                    # shard files (and mixed directories) all load.
                    shard = load_store(
                        file_path, prefer_flat=True, use_mmap=use_mmap
                    )
                except ValueError as exc:
                    raise ShardError(f"shard {entry['id']}: {exc}") from exc
                shards.append(shard)
            ranges = [(e["lo"], e["hi"]) for e in manifest["shards"]]
            store = cls(shards, ranges)
        except BaseException:
            for shard in shards:
                shard.close()
            raise
        if store.n != manifest["n"] or store.directed != manifest["directed"]:
            n, d = store.n, store.directed
            store.close()
            raise ShardError(
                f"{root}: shard files describe |V|={n} directed={d}, "
                f"manifest says |V|={manifest['n']} "
                f"directed={manifest['directed']}"
            )
        return store

    def close(self) -> None:
        """Release every shard's file mapping (if any)."""
        self._view = None  # holds numpy views of the mappings
        for shard in self.shards:
            shard.close()

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (
            f"ShardedLabelStore(|V|={self.n}, {kind}, "
            f"shards={len(self.shards)}, entries={self.total_entries()})"
        )


def load_manifest(path) -> dict:
    """Read and validate ``manifest.json`` of a shard directory.

    Returns the parsed manifest; raises :class:`ShardError` with a
    pointed message on a missing/garbled manifest, a bad schema, a
    range cover with overlaps or gaps, or missing shard files.
    """
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not root.is_dir():
        raise ShardError(f"{root}: not a shard directory")
    if not manifest_path.is_file():
        raise ShardError(
            f"{root}: no {MANIFEST_NAME} — not a shard directory "
            "(create one with `repro shard`)"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ShardError(f"{manifest_path}: unreadable manifest: {exc}") from exc
    if (
        not isinstance(manifest, dict)
        or manifest.get("format") != _MANIFEST_FORMAT
    ):
        raise ShardError(f"{manifest_path}: not a {_MANIFEST_FORMAT} manifest")
    if manifest.get("version") != _MANIFEST_VERSION:
        raise ShardError(
            f"{manifest_path}: unsupported manifest version "
            f"{manifest.get('version')!r}"
        )
    shards = manifest.get("shards")
    if not isinstance(shards, list) or not shards:
        raise ShardError(f"{manifest_path}: manifest lists no shards")
    for entry in shards:
        missing = {"id", "lo", "hi", "file", "sha256"} - set(entry)
        if missing:
            raise ShardError(
                f"{manifest_path}: shard entry {entry.get('id')!r} missing "
                f"fields {sorted(missing)}"
            )
    ranges = [(e["lo"], e["hi"]) for e in shards]
    try:
        _validate_ranges(ranges)
    except ShardError as exc:
        raise ShardError(f"{manifest_path}: {exc}") from exc
    if manifest.get("n") != ranges[-1][1]:
        raise ShardError(
            f"{manifest_path}: ranges cover [0, {ranges[-1][1]}) but "
            f"manifest says n={manifest.get('n')}"
        )
    for entry in shards:
        if not (root / entry["file"]).is_file():
            raise ShardError(
                f"{root}: shard file {entry['file']!r} (vertices "
                f"[{entry['lo']}, {entry['hi']})) is missing"
            )
    return manifest


def _validate_ranges(ranges: Sequence[tuple[int, int]]) -> None:
    """Require a sorted, contiguous, gap/overlap-free cover of [0, n)."""
    if not ranges:
        raise ShardError("no shard ranges")
    if ranges[0][0] != 0:
        raise ShardError(
            f"shard ranges must start at vertex 0, got {ranges[0][0]}"
        )
    for (lo, hi), (nlo, nhi) in zip(ranges, ranges[1:]):
        if nlo < hi:
            raise ShardError(
                f"overlapping shard ranges: [{lo}, {hi}) and [{nlo}, {nhi})"
            )
        if nlo > hi:
            raise ShardError(
                f"gap in shard ranges between [{lo}, {hi}) and [{nlo}, {nhi})"
            )
    for lo, hi in ranges:
        if hi <= lo:
            raise ShardError(f"empty shard range [{lo}, {hi})")


def _pack_any(store: LabelStore) -> FlatLabelStore:
    """Pack any :class:`LabelStore` into CSR arrays via its accessors.

    The generic path behind :meth:`ShardedLabelStore.split` for
    backends that are neither :class:`FlatLabelStore` nor
    :class:`LabelIndex` — e.g. re-splitting an already-sharded store
    to a different shard count.
    """

    columns = getattr(store, "_pendant_columns", None)
    parent, hang = columns() if columns is not None else (None, None)

    def pack(label_of):
        offsets = array("q", [0])
        pivots = array("i")
        dists = array("d")
        for v in range(store.n):
            if hang is None or not hang[v]:
                for p, d in label_of(v):
                    pivots.append(p)
                    dists.append(d)
            offsets.append(len(pivots))
        return offsets, pivots, dists

    oo, op, od = pack(store.out_label)
    if store.directed:
        io, ip, id_ = pack(store.in_label)
    else:
        io, ip, id_ = oo, op, od
    rank = getattr(store, "rank", None)
    packed = FlatLabelStore(
        store.n,
        store.directed,
        oo,
        op,
        od,
        io,
        ip,
        id_,
        list(rank) if rank is not None else None,
    )
    packed.parent, packed.hang = parent, hang
    return packed


def _slice_store(store: FlatLabelStore, lo: int, hi: int) -> FlatLabelStore:
    """Copy vertices ``[lo, hi)`` of a flat store into a local-id store."""

    def side(offsets, pivots, dists):
        base = offsets[lo]
        local_offsets = array("q", (offsets[v] - base for v in range(lo, hi + 1)))
        end = offsets[hi]
        return (
            local_offsets,
            array("i", pivots[base:end]),
            array("d", dists[base:end]),
        )

    oo, op, od = side(store.out_offsets, store.out_pivots, store.out_dists)
    if store.directed:
        io, ip, id_ = side(store.in_offsets, store.in_pivots, store.in_dists)
    else:
        io, ip, id_ = oo, op, od
    rank = list(store.rank[lo:hi]) if store.rank is not None else None
    shard = FlatLabelStore(
        hi - lo, store.directed, oo, op, od, io, ip, id_, rank
    )
    if store.hang is not None and any(store.hang[lo:hi]):
        shard.parent = array("i", store.parent[lo:hi])
        shard.hang = array("d", store.hang[lo:hi])
    return shard
