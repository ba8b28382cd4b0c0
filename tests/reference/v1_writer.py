"""Writer of the legacy v1 index format, kept so the v1 reader stays tested.

The package reads v1 files (:func:`repro.core.flatstore.load_store`
reads them straight into CSR columns) but writes only v2 and v3.  This
is the per-entry struct writer that used to be ``LabelIndex.save``,
byte for byte::

    RPLI | u8 version=1 | u8 flags | u8 has_rank | u32 n
    [rank: n * u32]                                  if has_rank
    per vertex: u32 count, count * (u32 pivot, f64 dist)   (out-side)
    [the same for the in-side]                       if directed

A store with pendants peeled is written expanded: a v1 file has no
pendant section, so a pendant's row holds its derived label.

Importable from ``tests/`` and ``benchmarks/`` alike as
``tests.reference.v1_writer`` (the repository root is on the pytest
``pythonpath``).
"""

from __future__ import annotations

import struct

from repro.utils.atomicio import atomic_binary_writer


def write_v1(store, path) -> None:
    """Write any label store's labels to ``path`` as a v1 file, atomically."""
    n = store.n
    with atomic_binary_writer(path) as fh:
        fh.write(b"RPLI")
        flags = 1 if store.directed else 0
        has_rank = 1 if store.rank is not None else 0
        fh.write(struct.pack("<BBBI", 1, flags, has_rank, n))
        if store.rank is not None:
            fh.write(struct.pack(f"<{n}I", *store.rank))

        def write_side(read_label) -> None:
            for v in range(n):
                lab = read_label(v)
                fh.write(struct.pack("<I", len(lab)))
                for p, d in lab:
                    fh.write(struct.pack("<Id", p, d))

        write_side(store.out_label)
        if store.directed:
            write_side(store.in_label)
