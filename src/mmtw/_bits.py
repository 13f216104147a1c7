"""Bitmask helpers. Vertex sets are Python ints used as fixed-width bitsets."""

from __future__ import annotations

from typing import Iterable, Iterator


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def to_set(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


def reach(adj, seeds: int, allowed: int) -> int:
    """Vertices of ``allowed`` reachable from ``seeds & allowed`` through
    ``allowed`` in the graph given by adjacency masks; ``allowed`` may be a
    complement ``~avoid``."""
    seen = frontier = seeds & allowed
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen

