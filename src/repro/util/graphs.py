"""A minimal undirected-graph toolkit.

The library needs exactly three graph operations — neighbor queries,
connected components, and reachability under vertex deletion — for Gaifman
graphs (:mod:`repro.core.gaifman`) and non-hierarchical-path detection
(:mod:`repro.core.paths`).  A tiny adjacency-set implementation keeps the
reproduction self-contained and makes those algorithms easy to audit.
:func:`key_groups` is the components operation for items that are
connected through shared keys — atoms through their variables, clauses
through theirs — without building the graph.
"""

from __future__ import annotations

from collections import deque
from typing import Hashable, Iterable, Iterator, Sequence

Vertex = Hashable


def key_groups(keys: Sequence[Iterable[Hashable]]) -> list[list[int]]:
    """Indices of ``keys`` grouped by shared keys, transitively.

    Items ``i`` and ``j`` land in one group when ``keys[i]`` and
    ``keys[j]`` share a key, or are linked through a chain of items that
    do; an item without keys is a group of its own.  Union-find over the
    indices: groups come in the order of their first member, each listing
    its members in ascending order.
    """
    parent = list(range(len(keys)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[Hashable, int] = {}
    for index, item_keys in enumerate(keys):
        for key in item_keys:
            first = owner.setdefault(key, index)
            if first != index:
                root_a, root_b = find(first), find(index)
                if root_a != root_b:
                    parent[root_b] = root_a
    groups: dict[int, list[int]] = {}
    for index in range(len(parent)):
        groups.setdefault(find(index), []).append(index)
    return list(groups.values())


class UndirectedGraph:
    """A simple undirected graph over hashable vertices.

    Self-loops are ignored (an edge ``(v, v)`` only ensures ``v`` exists);
    parallel edges collapse.  Iteration order over vertices follows
    insertion order, which keeps downstream algorithms deterministic.
    """

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._adjacency: dict[Vertex, set[Vertex]] = {}
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    def add_vertex(self, vertex: Vertex) -> None:
        self._adjacency.setdefault(vertex, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        self.add_vertex(u)
        self.add_vertex(v)
        if u != v:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)

    @property
    def vertices(self) -> list[Vertex]:
        return list(self._adjacency)

    def edges(self) -> Iterator[tuple[Vertex, Vertex]]:
        """Each undirected edge exactly once (in insertion-discovery order)."""
        seen: set[frozenset] = set()
        for u, neighbors in self._adjacency.items():
            for v in neighbors:
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield (u, v)

    def neighbors(self, vertex: Vertex) -> set[Vertex]:
        return set(self._adjacency[vertex])

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def connected_components(self) -> list[set[Vertex]]:
        """Connected components in deterministic (first-seen) order."""
        remaining = dict.fromkeys(self._adjacency)
        components: list[set[Vertex]] = []
        while remaining:
            start = next(iter(remaining))
            component = self._bfs_component(start)
            for vertex in component:
                remaining.pop(vertex, None)
            components.append(component)
        return components

    def _bfs_component(self, start: Vertex) -> set[Vertex]:
        seen = {start}
        queue = deque([start])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    queue.append(neighbor)
        return seen

    def has_path(
        self,
        source: Vertex,
        target: Vertex,
        forbidden: Iterable[Vertex] = (),
    ) -> bool:
        """Is ``target`` reachable from ``source`` avoiding ``forbidden``?

        The endpoints themselves are never treated as forbidden: the paper's
        non-hierarchical-path test removes the *other* variables of the two
        inducing atoms but keeps ``x`` and ``y``.
        """
        if source not in self._adjacency or target not in self._adjacency:
            return False
        blocked = set(forbidden) - {source, target}
        if source in blocked or target in blocked:
            return False
        if source == target:
            return True
        seen = {source}
        queue = deque([source])
        while queue:
            current = queue.popleft()
            for neighbor in self._adjacency[current]:
                if neighbor in blocked or neighbor in seen:
                    continue
                if neighbor == target:
                    return True
                seen.add(neighbor)
                queue.append(neighbor)
        return False

    def subgraph_without(self, removed: Iterable[Vertex]) -> "UndirectedGraph":
        """A copy of the graph with ``removed`` vertices (and their edges) deleted."""
        removed_set = set(removed)
        result = UndirectedGraph()
        for vertex in self._adjacency:
            if vertex not in removed_set:
                result.add_vertex(vertex)
        for u, v in self.edges():
            if u not in removed_set and v not in removed_set:
                result.add_edge(u, v)
        return result
