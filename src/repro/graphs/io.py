"""Reading and writing graphs as text edge lists.

The format is the SNAP/KONECT interchange format the paper's datasets
ship in.  One reader serves every text input (graph edge lists,
``repro query --batch`` pair files, ``repro update --edges`` files)
with one set of rules: one record per line, blank lines and ``#`` or
``%`` comments (whole-line or inline) skipped, ``.gz`` read
transparently, and a malformed line reported as ``path:line:
expected ...``.  Integer vertex ids are kept as written, so a graph
has one vertex per id up to the largest (an id the file never names
is an isolated vertex) and every command addresses the file's ids; a
graph file with any other label has all its labels renumbered densely
in first-seen order.
"""

from __future__ import annotations

import gzip
import io
from pathlib import Path
from typing import IO, Iterator

from repro.graphs.builder import GraphBuilder
from repro.graphs.digraph import Graph


def _open_text(path: str | Path, mode: str) -> IO[str]:
    path = Path(path)
    if path.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(path, mode + "b"), encoding="utf-8")
    return open(path, mode, encoding="utf-8")


#: Record shape -> the field counts a data line may have.
_SHAPES = {"s t": (2,), "u v [w]": (2, 3)}


def _data_lines(
    path: str | Path, shape: str
) -> Iterator[tuple[int, str, list[str]]]:
    """``(lineno, line, fields)`` of every data line: the one text reader.

    Skips blank lines and ``#``/``%`` comments, whole-line or inline;
    refuses a line whose field count ``shape`` does not allow.
    """
    counts = _SHAPES[shape]
    with _open_text(path, "r") as handle:
        for lineno, line in enumerate(handle, start=1):
            fields = line.split("#", 1)[0].split("%", 1)[0].split()
            if fields:
                if len(fields) not in counts:
                    raise _malformed(path, lineno, repr(shape), line)
                yield lineno, line, fields


def _malformed(path, lineno: int, expected: str, line: str) -> ValueError:
    return ValueError(
        f"{path}:{lineno}: expected {expected}, got {line.strip()!r}"
    )


def read_records(path: str | Path, shape: str = "u v [w]") -> list[tuple]:
    """The records of a text file of integer vertex ids, in file order.

    ``shape`` ``"s t"`` reads query pairs as ``(s, t)``; ``"u v [w]"``
    reads edges as ``(u, v, w)``, ``w`` 1.0 where the line has none.
    Ids are the integers as written.  Raises ``ValueError``
    (``path:line: expected '<shape>'``) on a line with the wrong number
    of fields, an id that is not an integer or a weight that is not a
    number.
    """
    records: list[tuple] = []
    for lineno, line, fields in _data_lines(path, shape):
        try:
            u, v = int(fields[0]), int(fields[1])
            if shape == "s t":
                records.append((u, v))
            else:
                w = float(fields[2]) if len(fields) == 3 else 1.0
                records.append((u, v, w))
        except ValueError:
            raise _malformed(path, lineno, repr(shape), line) from None
    return records


def read_edge_list(
    path: str | Path, directed: bool = True, weighted: bool = False
) -> Graph:
    """Parse a text edge list (``u v [w]`` lines) into a :class:`Graph`.

    Non-negative integer ids are kept as written: the graph has
    ``max id + 1`` vertices.  A file with any other label has every
    label renumbered densely in first-seen order.  A weighted graph
    needs a weight on every line; an unweighted one ignores them.
    """
    edges = []
    for lineno, line, fields in _data_lines(path, "u v [w]"):
        if weighted and len(fields) < 3:
            raise _malformed(
                path, lineno, "'u v w' (a weighted graph needs weights)", line
            )
        try:
            w = float(fields[2]) if len(fields) == 3 else 1.0
        except ValueError:
            raise _malformed(path, lineno, "'u v [w]'", line) from None
        edges.append((fields[0], fields[1], w))
    if all(u.isdecimal() and v.isdecimal() for u, v, _ in edges):
        edges = [(int(u), int(v), w) for u, v, w in edges]
        n = 1 + max((max(u, v) for u, v, _ in edges), default=-1)
        return Graph.from_edges(n, edges, directed=directed, weighted=weighted)
    builder = GraphBuilder(directed=directed, weighted=weighted)
    for u, v, w in edges:
        builder.add_edge(u, v, w)
    return builder.build()


def write_edge_list(graph: Graph, path: str | Path) -> None:
    """Write ``graph`` as a text edge list (weights included if weighted)."""
    with _open_text(path, "w") as handle:
        handle.write(f"# |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        handle.write(
            f"# directed={graph.directed} weighted={graph.weighted}\n"
        )
        for u, v, w in graph.edges():
            if graph.weighted:
                handle.write(f"{u} {v} {w:g}\n")
            else:
                handle.write(f"{u} {v}\n")
