"""Biconnected components of a small graph, independent of ``potts_ghs``.

``biconnected_components`` is Hopcroft and Tarjan's depth-first search
(Comm. ACM 16, 372 (1973)): an edge goes on a stack when the search first
crosses it, and when a child's lowpoint does not reach above its parent, the
edges down to and including the tree edge to that child form one block.  A
bridge is a block of one edge.  It uses the standard library only.
"""
from __future__ import annotations


def biconnected_components(edges) -> list[frozenset]:
    """The blocks of the simple graph on ``edges`` (pairs (i, j), i < j),
    each as the frozenset of its edges."""
    adjacent: dict[int, list[int]] = {}
    for i, j in edges:
        adjacent.setdefault(i, []).append(j)
        adjacent.setdefault(j, []).append(i)
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[tuple[int, int]] = []
    blocks: list[frozenset] = []

    def visit(u: int, parent: int | None) -> None:
        index[u] = low[u] = len(index)
        for v in adjacent[u]:
            if v == parent:
                continue
            edge = (min(u, v), max(u, v))
            if v not in index:
                stack.append(edge)
                visit(v, u)
                low[u] = min(low[u], low[v])
                if low[v] >= index[u]:
                    block = set()
                    while edge not in block:
                        block.add(stack.pop())
                    blocks.append(frozenset(block))
            elif index[v] < index[u]:
                stack.append(edge)
                low[u] = min(low[u], index[v])

    for u in adjacent:
        if u not in index:
            visit(u, None)
    return blocks


def block_sites(block) -> set[int]:
    """The sites the edges of a block touch."""
    return {s for edge in block for s in edge}
