"""Island-level topology of multipartite networks.

Nodes live in islands; there are no edges inside an island, and two islands
are either fully cross-connected or not connected at all.  The dynamics only
see per-island quantities, so the network is represented at the island level:
a vector of island sizes plus a symmetric, irreflexive adjacency relation on
island labels 1..M.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np


class TopologyError(ValueError):
    """Invalid island-network description (bad sizes, self-loop, bad label)."""


@dataclass(frozen=True)
class SuperNetwork:
    """Island-level graph: sizes plus canonical undirected edges.

    Use :func:`build_supernetwork` or the generators below instead of the
    raw constructor; they validate and canonicalize the edge list.
    """

    sizes: tuple[int, ...]
    edges: frozenset[tuple[int, int]]  # canonical (lo, hi), labels 1-based

    @property
    def num_islands(self) -> int:
        return len(self.sizes)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """neighbors[i-1] is the sorted tuple of islands adjacent to island i."""
        adj: list[list[int]] = [[] for _ in self.sizes]
        for a, b in self.edges:
            adj[a - 1].append(b)
            adj[b - 1].append(a)
        return tuple(tuple(sorted(n)) for n in adj)

    @cached_property
    def degenerate(self) -> bool:
        """True when some island has no neighbor at all."""
        return any(not n for n in self.neighbors)

    @cached_property
    def is_connected(self) -> bool:
        return len(hop_distances(self, 1)) == self.num_islands

    @cached_property
    def in_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Directed island edges as 0-based index arrays (src, dst), grouped by target.

        Each undirected edge appears once per direction.  The edges into
        island 1 come first, then those into island 2, and so on; within a
        group the sources ascend.  Both arrays are read-only.
        """
        src, dst = np.array(self.in_edge_pairs, dtype=np.intp).reshape(-1, 2).T - 1
        for a in (src, dst):
            a.setflags(write=False)
        return src, dst

    @cached_property
    def in_edge_pairs(self) -> tuple[tuple[int, int], ...]:
        """The directed edges of in_edges, in the same order, as 1-based (source, target) labels."""
        return tuple((j, i) for i, nbrs in enumerate(self.neighbors, start=1) for j in nbrs)

    @cached_property
    def in_edge_groups(self) -> tuple[np.ndarray, np.ndarray]:
        """Islands with a neighbor (0-based), and where their groups of in_edges start."""
        degrees = np.array([len(n) for n in self.neighbors])
        targets = np.flatnonzero(degrees)
        return targets, (np.cumsum(degrees) - degrees)[targets]

    def adjacency_matrix(self) -> np.ndarray:
        """Dense 0/1 island adjacency, shape (M, M), row/col 0 is island 1."""
        m = self.num_islands
        a = np.zeros((m, m))
        for lo, hi in self.edges:
            a[lo - 1, hi - 1] = a[hi - 1, lo - 1] = 1.0
        return a


def _check_island(net: SuperNetwork, i: int) -> None:
    if not 1 <= i <= net.num_islands:
        raise TopologyError(f"island label {i} out of range 1..{net.num_islands}")


def _is_count(value) -> bool:
    """Whether value is an integer, numpy's included, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, what: str) -> int:
    if not _is_count(value):
        raise TopologyError(f"{what} must be an integer, got {value!r}")
    return int(value)


def build_supernetwork(
    island_sizes: Sequence[int], edge_list: Iterable[tuple[int, int]]
) -> SuperNetwork:
    """Validate and build a supernetwork from sizes and an island edge list.

    Duplicate edges (in either orientation) collapse to one.  Sizes and
    labels that are not integers, self-loops and out-of-range labels are
    rejected; at least two islands are required.
    """
    sizes = tuple(_integer(n, "island size") for n in island_sizes)
    if len(sizes) < 2:
        raise TopologyError("need at least two islands")
    if any(n <= 0 for n in sizes):
        raise TopologyError(f"island sizes must be positive, got {sizes}")
    m = len(sizes)
    canon = set()
    for a, b in edge_list:
        a, b = _integer(a, "island label"), _integer(b, "island label")
        if a == b:
            raise TopologyError(f"self-loop ({a},{b}): islands have no internal edges")
        if not (1 <= a <= m and 1 <= b <= m):
            raise TopologyError(f"edge ({a},{b}) references an island outside 1..{m}")
        canon.add((min(a, b), max(a, b)))
    return SuperNetwork(sizes=sizes, edges=frozenset(canon))


def superdegree(net: SuperNetwork, i: int) -> int:
    """Number of islands adjacent to island i."""
    _check_island(net, i)
    return len(net.neighbors[i - 1])


def is_regular(net: SuperNetwork) -> bool:
    """True when every island has the same superdegree."""
    degs = {len(n) for n in net.neighbors}
    return len(degs) == 1


def hop_distances(net: SuperNetwork, i: int) -> dict[int, int]:
    """BFS geodesic distances from island i; unreachable islands are absent."""
    _check_island(net, i)
    dist = {i: 0}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        for v in net.neighbors[u - 1]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def cycle_supernetwork(num_islands: int, size: int | Sequence[int]) -> SuperNetwork:
    """Cycle of islands 1-2-...-M-1 (requires M >= 3 for a proper cycle)."""
    if num_islands < 3:
        raise TopologyError("a cycle needs at least 3 islands")
    edges = [(i, i + 1) for i in range(1, num_islands)] + [(num_islands, 1)]
    return build_supernetwork(_expand_sizes(size, num_islands), edges)


def complete_supernetwork(num_islands: int, size: int | Sequence[int]) -> SuperNetwork:
    """All island pairs adjacent."""
    edges = [
        (a, b) for a in range(1, num_islands + 1) for b in range(a + 1, num_islands + 1)
    ]
    return build_supernetwork(_expand_sizes(size, num_islands), edges)


def star_supernetwork(num_islands: int, size: int | Sequence[int]) -> SuperNetwork:
    """Island 1 adjacent to every other island; leaves mutually unconnected."""
    edges = [(1, b) for b in range(2, num_islands + 1)]
    return build_supernetwork(_expand_sizes(size, num_islands), edges)


def bipartite_supernetwork(size1: int, size2: int | None = None) -> SuperNetwork:
    """Two islands joined by the single possible super-edge."""
    return build_supernetwork((size1, size2 if size2 is not None else size1), [(1, 2)])


def _expand_sizes(size: int | Sequence[int], m: int) -> tuple[int, ...]:
    # build_supernetwork checks each size, a scalar's copies included
    sizes = tuple(size) if isinstance(size, Iterable) else (size,) * m
    if len(sizes) != m:
        raise TopologyError(f"expected {m} island sizes, got {len(sizes)}")
    return sizes
