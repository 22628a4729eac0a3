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

from .graphs import Graph, Hypergraph, build_graph, build_hypergraph


def _significant_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        yield lineno, line


def parse_graph(text) -> Graph:
    lines = _significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError("empty graph input") from None
    parts = header.split()
    if len(parts) != 4 or parts[0] != "p" or parts[1] != "edge":
        raise ValueError(f"line {lineno}: expected 'p edge <n> <m>', got {header!r}")
    try:
        n, m = int(parts[2]), int(parts[3])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer counts in {header!r}") from None
    edges = []
    for lineno, line in lines:
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
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    return build_graph(n, edges)


def serialize_graph(g: Graph) -> str:
    out = [f"p edge {g.n} {g.m}"]
    out.extend(f"e {u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def parse_hypergraph(text) -> Hypergraph:
    lines = _significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ValueError("empty hypergraph input") from None
    parts = header.split()
    if len(parts) != 3 or parts[0] != "h":
        raise ValueError(f"line {lineno}: expected 'h <n> <m>', got {header!r}")
    try:
        n, m = int(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer counts in {header!r}") from None
    edges = []
    for lineno, line in lines:
        try:
            members = [int(f) for f in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer vertex id in {line!r}") from None
        if not members:
            raise ValueError(f"line {lineno}: empty edge")
        for v in members:
            if not (1 <= v <= n):
                raise ValueError(f"line {lineno}: vertex {v} out of range 1..{n}")
        edges.append([v - 1 for v in members])
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    return build_hypergraph(n, edges)


def serialize_hypergraph(h: Hypergraph) -> str:
    # the format has no way to write an empty edge
    for j, e in enumerate(h.edges):
        if not e:
            raise ValueError(f"edge {j} is empty; text format requires nonempty edges")
    out = [f"h {h.n} {h.m}"]
    out.extend(" ".join(str(v + 1) for v in sorted(e)) for e in h.edges)
    return "\n".join(out) + "\n"


def parse_lists(text, n):
    """Parse a JSON list assignment covering vertices 0..n-1.

    Returns a list of sorted color tuples indexed by vertex.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"list assignment is not valid JSON: {exc}") from None
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
        for c in colors:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"list for vertex {v} has a bad color {c!r}")
        lists[v] = tuple(sorted(set(colors)))
    missing = [v for v in range(n) if lists[v] is None]
    if missing:
        raise ValueError(f"list assignment misses vertices {missing}")
    return lists


def serialize_lists(lists) -> str:
    obj = {str(v): sorted(colors) for v, colors in enumerate(lists)}
    return json.dumps(obj, sort_keys=True)


def parse_coloring(text, n):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"coloring is not valid JSON: {exc}") from None
    if not isinstance(obj, list):
        raise ValueError("coloring must be a JSON array")
    if len(obj) != n:
        raise ValueError(f"coloring has {len(obj)} entries, graph has {n} vertices")
    for v, c in enumerate(obj):
        if not isinstance(c, int) or isinstance(c, bool) or c < 0:
            raise ValueError(f"coloring entry {v} is not a nonnegative integer: {c!r}")
    return list(obj)


def serialize_coloring(coloring) -> str:
    return json.dumps(list(coloring))
