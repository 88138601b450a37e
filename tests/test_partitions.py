"""Block labels and block counts of equality merges."""
import random

import pytest

from potts_ghs.partitions import block_count, merge_constraints


def relabel_merge(n_sites, eqs):
    """Block labels by relabelling the whole list per equality, numbered in
    order of first appearance: an oracle that shares no union-find code."""
    labels = list(range(n_sites + 1))
    for i, j in eqs:
        keep, drop = labels[i], labels[j]
        labels = [keep if x == drop else x for x in labels]
    number: dict[int, int] = {}
    return tuple(number.setdefault(x, len(number)) for x in labels)


def test_merge_constraints_examples():
    # Elements run over {0, ..., n_sites}: the ghost site 0 plus the sites.
    assert merge_constraints(4, []) == (0, 1, 2, 3, 4)
    assert merge_constraints(4, [(0, 1), (2, 3)]) == (0, 0, 1, 1, 2)
    redundant = [(1, 2), (1, 3), (2, 3)]
    assert merge_constraints(4, redundant) == (0, 1, 1, 1, 2)
    assert block_count(4, redundant) == 3
    assert merge_constraints(3, [(1, 0)]) == merge_constraints(3, [(0, 1)])


def test_blocks_are_sorted_by_minimum_element():
    assert merge_constraints(5, [(3, 4), (0, 2)]) == (0, 1, 0, 2, 2, 3)
    # Merging from the larger elements down still labels a block by its
    # smallest element.
    assert merge_constraints(5, [(5, 4), (4, 1)]) == (0, 1, 2, 3, 1, 1)


def test_out_of_range_and_self_pairs_rejected():
    for merge in (merge_constraints, block_count):
        for eqs in ([(0, 4)], [(-1, 0)], [(1, 1)]):
            with pytest.raises(ValueError):
                merge(3, eqs)


def test_block_count_matches_full_partition():
    rng = random.Random(21)
    for _ in range(50):
        n = rng.randint(1, 8)
        eqs = [
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(0, 10))
        ]
        eqs = [(i, j) for i, j in eqs if i != j]
        labels = merge_constraints(n, eqs)
        assert labels == relabel_merge(n, eqs)
        assert block_count(n, eqs) == len(set(labels))


def test_adding_constraints_never_increases_blocks():
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randint(2, 7)
        eqs: list[tuple[int, int]] = []
        prev = n
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            eqs.append((i, j))
            cur = block_count(n, eqs)
            assert cur <= prev
            assert cur >= 1
            prev = cur
