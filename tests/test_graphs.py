"""Unit tests for the undirected-graph toolkit."""

from repro.util.graphs import UndirectedGraph, key_groups


def path_graph(n: int) -> UndirectedGraph:
    return UndirectedGraph(edges=[(i, i + 1) for i in range(n - 1)])


class TestConstruction:
    def test_vertices_and_edges(self):
        g = UndirectedGraph(vertices=["a"], edges=[("b", "c")])
        assert set(g.vertices) == {"a", "b", "c"}
        assert g.has_edge("b", "c")
        assert g.has_edge("c", "b")
        assert not g.has_edge("a", "b")

    def test_self_loop_ignored(self):
        g = UndirectedGraph(edges=[("a", "a")])
        assert "a" in g
        assert not g.has_edge("a", "a")

    def test_len_and_contains(self):
        g = path_graph(4)
        assert len(g) == 4
        assert 2 in g
        assert 9 not in g

    def test_edges_listed_once(self):
        g = UndirectedGraph(edges=[("a", "b"), ("b", "a"), ("b", "c")])
        assert len(list(g.edges())) == 2

    def test_neighbors(self):
        g = path_graph(3)
        assert g.neighbors(1) == {0, 2}
        assert g.neighbors(0) == {1}


class TestComponents:
    def test_single_component(self):
        assert path_graph(5).connected_components() == [{0, 1, 2, 3, 4}]

    def test_multiple_components(self):
        g = UndirectedGraph(vertices=["x"], edges=[("a", "b"), ("c", "d")])
        components = g.connected_components()
        assert {frozenset(c) for c in components} == {
            frozenset({"a", "b"}),
            frozenset({"c", "d"}),
            frozenset({"x"}),
        }

    def test_empty_graph(self):
        assert UndirectedGraph().connected_components() == []

    def test_key_groups_order(self):
        # 0-3 share "x" and 3-4 share "z"; 4's link is found after 1 and
        # 2 started groups of their own, and 2 has no keys at all.
        keys = [{"x"}, {"y"}, set(), {"x", "z"}, {"z"}, {"y", "y"}]
        assert key_groups(keys) == [[0, 3, 4], [1, 5], [2]]
        assert key_groups([]) == []


class TestPaths:
    def test_direct_and_transitive(self):
        g = path_graph(4)
        assert g.has_path(0, 3)
        assert g.has_path(0, 1)

    def test_same_vertex(self):
        g = path_graph(2)
        assert g.has_path(0, 0)

    def test_no_path_across_components(self):
        g = UndirectedGraph(edges=[("a", "b"), ("c", "d")])
        assert not g.has_path("a", "c")

    def test_forbidden_vertex_blocks(self):
        g = path_graph(3)
        assert not g.has_path(0, 2, forbidden=[1])

    def test_forbidden_does_not_block_endpoints(self):
        g = path_graph(3)
        assert g.has_path(0, 2, forbidden=[0, 2, 1]) is False
        assert g.has_path(0, 2, forbidden=[0, 2]) is True

    def test_alternative_route_survives_forbidding(self):
        g = UndirectedGraph(edges=[(0, 1), (1, 2), (0, 3), (3, 2)])
        assert g.has_path(0, 2, forbidden=[1])

    def test_missing_vertices(self):
        g = path_graph(2)
        assert not g.has_path(0, 99)
        assert not g.has_path(99, 0)


class TestSubgraph:
    def test_removal(self):
        g = path_graph(4)
        h = g.subgraph_without([1])
        assert set(h.vertices) == {0, 2, 3}
        assert not h.has_path(0, 2)
        assert h.has_path(2, 3)
