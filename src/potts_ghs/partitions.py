"""Set partitions of the extended site set {0, ..., N} from equality merges."""
from __future__ import annotations

from typing import Iterable


def _union_find(
    n_sites: int, equalities: Iterable[tuple[int, int]]
) -> tuple[list[int], int]:
    """Parent forest over {0, ..., n_sites} and the number of merges made.

    Every root is the smallest element of its block and every other element
    points to a smaller one, so a block is labelled before its later members.
    """
    n = n_sites + 1
    parent = list(range(n))
    merges = 0
    for i, j in equalities:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"equality ({i}, {j}) out of range for n_sites={n_sites}")
        if i == j:
            raise ValueError(f"degenerate equality ({i}, {j})")
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        while parent[j] != j:
            parent[j] = parent[parent[j]]
            j = parent[j]
        if i != j:
            if i < j:
                parent[j] = i
            else:
                parent[i] = j
            merges += 1
    return parent, merges


def merge_constraints(
    n_sites: int, equalities: Iterable[tuple[int, int]]
) -> tuple[int, ...]:
    """Block label of each element of {0, ..., n_sites} under the equalities.

    Blocks are numbered 0, 1, ... in the order of their smallest elements.
    The ghost site 0 participates like any other element; with no equalities
    every element is its own block.
    """
    parent, _ = _union_find(n_sites, equalities)
    labels: list[int] = []
    blocks = 0
    for x, p in enumerate(parent):
        if p == x:
            labels.append(blocks)
            blocks += 1
        else:
            labels.append(labels[p])
    return tuple(labels)


def block_count(n_sites: int, equalities: Iterable[tuple[int, int]]) -> int:
    """Number of blocks of merge_constraints, without labelling them."""
    return n_sites + 1 - _union_find(n_sites, equalities)[1]
