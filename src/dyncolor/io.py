"""Text formats for graphs, hypergraphs, list assignments, and colorings.

Graph format (1-indexed, UTF-8, LF):

    p edge <n> <m>
    e <u> <v>          (m lines)

Hypergraph format:

    h <n> <m>
    <v1> <v2> ... <vk>   (m lines, each a nonempty edge)

Lines starting with "c" are comments; blank lines are skipped.  List
assignments are JSON objects mapping vertex id (as a string) to an array of
color integers; colorings are JSON arrays indexed by vertex.
"""

from __future__ import annotations

import json

from .coloring import _check_len, _is_color, _normalize_lists
from .graphs import Graph, Hypergraph, build_graph, build_hypergraph


def _parse_records(text, what, words, record):
    """n and record(lineno, line, n) per line after a '<words> <n> <m>' header."""
    stripped = enumerate((raw.strip() for raw in text.splitlines()), start=1)
    lines = ((lineno, line) for lineno, line in stripped if line and not line.startswith("c"))
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError(f"empty {what} input") from None
    parts = header.split()
    if parts[:-2] != words.split():
        raise ValueError(f"line {lineno}: expected '{words} <n> <m>', got {header!r}")
    try:
        n, m = int(parts[-2]), int(parts[-1])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer counts in {header!r}") from None
    records = [record(lineno, line, n) for lineno, line in lines]
    if len(records) != m:
        raise ValueError(f"header declares {m} edges, found {len(records)}")
    return n, records


def _edge(lineno, line, n):
    fields = line.split()
    if len(fields) != 3 or fields[0] != "e":
        raise ValueError(f"line {lineno}: expected 'e <u> <v>', got {line!r}")
    try:
        u, v = int(fields[1]), int(fields[2])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer endpoint in {line!r}") from None
    if not (1 <= u <= n and 1 <= v <= n):
        raise ValueError(f"line {lineno}: endpoint out of range 1..{n} in {line!r}")
    if u == v:
        raise ValueError(f"line {lineno}: self-loop at {u}")
    return u - 1, v - 1


def parse_graph(text) -> Graph:
    return build_graph(*_parse_records(text, "graph", "p edge", _edge))


def serialize_graph(g: Graph) -> str:
    edges = g.edges
    out = [f"p edge {g.n} {len(edges)}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(out) + "\n"


def _hyperedge(lineno, line, n):
    try:
        members = [int(f) for f in line.split()]
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
    for v in members:
        if not (1 <= v <= n):
            raise ValueError(f"line {lineno}: vertex {v} out of range 1..{n}")
    return [v - 1 for v in members]


def parse_hypergraph(text) -> Hypergraph:
    return build_hypergraph(*_parse_records(text, "hypergraph", "h", _hyperedge))


def serialize_hypergraph(h: Hypergraph) -> str:
    # the format has no way to write an empty edge
    for j, e in enumerate(h.edges):
        if not e:
            raise ValueError(f"edge {j} is empty; text format requires nonempty edges")
    out = [f"h {h.n} {h.m}"]
    out.extend(" ".join(str(v + 1) for v in sorted(e)) for e in h.edges)
    return "\n".join(out) + "\n"


def _load_json(text, what):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from None


def parse_lists(text, n):
    """Parse a JSON list assignment covering vertices 0..n-1.

    Returns the lists by vertex, normalized by `_normalize_lists` into
    `_Sorted` tuples, which later normalizations pass through unchecked.
    """
    obj = _load_json(text, "list assignment")
    if not isinstance(obj, dict):
        raise ValueError("list assignment must be a JSON object")
    lists = [None] * n
    for key, colors in obj.items():
        try:
            v = int(key)
        except ValueError:
            raise ValueError(f"non-integer vertex key {key!r}") from None
        if not (0 <= v < n):
            raise ValueError(f"vertex key {v} out of range 0..{n - 1}")
        if lists[v] is not None:
            raise ValueError(f"vertex key {key!r} repeats vertex {v}")
        if not isinstance(colors, list) or not colors:
            raise ValueError(f"list for vertex {v} must be a nonempty array")
        # JSON decodes numbers to exact int or float, and true/false to bool,
        # so one pass over the types and one min check every color in C; the
        # loop only names the first bad one
        if {*map(type, colors)} != {int} or min(colors) < 0:
            for c in colors:
                if not _is_color(c):
                    raise ValueError(f"list for vertex {v} has a bad color {c!r}")
        lists[v] = colors
    missing = [v for v in range(n) if lists[v] is None]
    if missing:
        raise ValueError(f"list assignment misses vertices {missing}")
    return _normalize_lists(n, lists)


def serialize_lists(lists) -> str:
    obj = {str(v): sorted(colors) for v, colors in enumerate(lists)}
    return json.dumps(obj, sort_keys=True)


def parse_coloring(text, n):
    obj = _load_json(text, "coloring")
    if not isinstance(obj, list):
        raise ValueError("coloring must be a JSON array")
    _check_len(n, obj, "coloring")
    for v, c in enumerate(obj):
        if not _is_color(c):
            raise ValueError(f"coloring entry {v} is not a nonnegative integer: {c!r}")
    return list(obj)


def serialize_coloring(coloring) -> str:
    return json.dumps(list(coloring))
