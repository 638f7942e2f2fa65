"""Partitions stored in weakly increasing order, and small integer-vector helpers.

A partition is a tuple of non-negative ints sorted ascending; the empty tuple
is the unit.  ``multiplicity`` counts the permutations fixing the tuple (the
product of factorials of the part multiplicities), so
``multiplicity(p) * len(distinct_permutations(p)) == len(p)!``.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import chain
from typing import Iterable, Iterator, List, Tuple

Partition = Tuple[int, ...]
IntVector = Tuple[int, ...]


def sort_ascending(vector: Iterable[int]) -> Partition:
    """Canonical weakly increasing form of an integer vector."""
    return tuple(sorted(vector))


def is_partition(vector: Iterable[int]) -> bool:
    v = tuple(vector)
    return all(x >= 0 for x in v) and all(v[i] <= v[i + 1] for i in range(len(v) - 1))


def multiplicity(partition: Iterable[int]) -> int:
    """Number of permutations of the positions that fix the tuple."""
    return math.prod(math.factorial(c) for c in Counter(partition).values())


def distinct_permutations(partition: Iterable[int]) -> List[IntVector]:
    """All distinct orderings of the parts, in lexicographic order.

    Standard next-permutation walk, so the cost is proportional to the
    output size rather than len(p)!.
    """
    current = sorted(partition)
    n = len(current)
    if n == 0:
        return [()]
    out = [tuple(current)]
    while True:
        i = n - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = n - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = reversed(current[i + 1 :])
        out.append(tuple(current))


def vec_add(u: Iterable[int], v: Iterable[int]) -> IntVector:
    """Componentwise sum; the lengths must agree."""
    a = tuple(u)
    b = tuple(v)
    if len(a) != len(b):
        raise ValueError("length mismatch: %d vs %d" % (len(a), len(b)))
    return tuple(map(int.__add__, a, b))


def parse_parts(text: str) -> Tuple[int, ...]:
    """Parse a comma-separated part list; the empty string is the empty tuple."""
    text = text.strip()
    if not text:
        return ()
    try:
        parts = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError("cannot parse part list %r" % text) from None
    if any(p < 0 for p in parts):
        raise ValueError("parts must be non-negative: %r" % text)
    return parts


def parse_partition(text: str) -> Partition:
    """Parse a partition; the parts must already be weakly increasing."""
    parts = parse_parts(text)
    if not is_partition(parts):
        raise ValueError("parts must be weakly increasing: %r" % text)
    return parts


def distinct_permutation_count(partition: Partition) -> int:
    """``len(distinct_permutations(p))``: a product of binomials, one per run of
    equal parts, each run found by bisection, so no factorial is taken."""
    count, start = 1, 0
    while start < len(partition):
        stop = bisect_right(partition, partition[start], start)
        count *= math.comb(stop, stop - start)
        start = stop
    return count


def partitions_of_length(length: int, max_part: int) -> Iterator[Partition]:
    """Every partition of ``length`` parts <= max_part, lazily, in lex order.

    The next one raises the last part below max_part, found by bisection,
    and sets every part after it to the raised value.
    """
    p = (0,) * length
    while True:
        yield p
        i = bisect_left(p, max_part) - 1
        if i < 0:
            return
        p = p[:i] + (p[i] + 1,) * (length - i)


def iter_partitions(max_len: int, max_part: int) -> Iterator[Partition]:
    """``partitions_up_to`` lazily: no length is built before it is walked."""
    return chain.from_iterable(partitions_of_length(n, max_part) for n in range(max_len + 1))


def partitions_up_to(max_len: int, max_part: int) -> List[Partition]:
    """Every partition with length <= max_len and parts <= max_part.

    Ordered by (length, lex); includes the empty partition.
    """
    return list(iter_partitions(max_len, max_part))
