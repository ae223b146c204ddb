"""Unit tests for topology generators (networkx as independent oracle)."""

import networkx as nx
import pytest

from repro.errors import GraphError
from repro.graphs import (
    Graph,
    balanced_binary_tree_graph,
    caterpillar_graph,
    complete_graph,
    cycle_graph,
    gnp_connected_graph,
    grid_graph,
    hypercube_graph,
    is_connected,
    is_tree,
    lollipop_graph,
    path_graph,
    random_geometric_graph,
    star_graph,
    torus_graph,
)


def to_nx(g):
    G = nx.Graph()
    G.add_nodes_from(range(g.num_nodes))
    G.add_weighted_edges_from(g.edges())
    return G


def test_path_graph_shape():
    g = path_graph(5)
    assert g.num_edges == 4
    assert is_tree(g)
    assert g.degree(0) == 1 and g.degree(2) == 2


def test_cycle_graph_shape():
    g = cycle_graph(6)
    assert g.num_edges == 6
    assert all(g.degree(v) == 2 for v in g.nodes())
    with pytest.raises(GraphError):
        cycle_graph(2)


def test_star_graph_shape():
    g = star_graph(7)
    assert g.degree(0) == 6
    assert is_tree(g)


def test_complete_graph_shape():
    g = complete_graph(8)
    assert g.num_edges == 8 * 7 // 2
    assert all(g.degree(v) == 7 for v in g.nodes())


def test_balanced_binary_tree_depth():
    g = balanced_binary_tree_graph(15)
    assert is_tree(g)
    # Heap layout: node 14's ancestors are 6, 2, 0 -> depth 3 = log2(15+1)-1.
    assert g.has_edge(14, 6) and g.has_edge(6, 2) and g.has_edge(2, 0)


def test_grid_graph_matches_networkx():
    g = grid_graph(4, 5)
    G = to_nx(g)
    H = nx.grid_2d_graph(4, 5)
    assert G.number_of_edges() == H.number_of_edges()
    assert is_connected(g)
    with pytest.raises(GraphError):
        grid_graph(0, 3)


def test_torus_graph_is_4_regular():
    g = torus_graph(4, 5)
    assert all(g.degree(v) == 4 for v in g.nodes())
    with pytest.raises(GraphError):
        torus_graph(2, 5)


def test_hypercube_matches_networkx():
    g = hypercube_graph(4)
    H = nx.hypercube_graph(4)
    assert g.num_nodes == 16
    assert g.num_edges == H.number_of_edges()
    assert all(g.degree(v) == 4 for v in g.nodes())
    with pytest.raises(GraphError):
        hypercube_graph(0)


def test_random_geometric_connected_and_deterministic():
    g1 = random_geometric_graph(30, 0.25, seed=5)
    g2 = random_geometric_graph(30, 0.25, seed=5)
    assert is_connected(g1)
    assert sorted(g1.edges()) == sorted(g2.edges())


def test_random_geometric_euclidean_weights():
    g = random_geometric_graph(20, 0.4, seed=1, euclidean_weights=True)
    assert all(0 < w <= 2.0**0.5 + 1e-9 for _, _, w in g.edges())


def test_gnp_connected():
    g = gnp_connected_graph(25, 0.2, seed=3)
    assert is_connected(g)
    with pytest.raises(GraphError):
        gnp_connected_graph(10, 0.0)


def test_caterpillar_shape():
    g = caterpillar_graph(4, 2)
    assert g.num_nodes == 12
    assert is_tree(g)


def test_lollipop_shape():
    g = lollipop_graph(5, 3)
    assert g.num_nodes == 8
    assert g.num_edges == 10 + 3
    assert is_connected(g)


def _complete_by_add_edge(n, weight=1.0):
    """The historical add_edge loop, vendored as the oracle."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            g.add_edge(u, v, weight)
    return g


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33])
@pytest.mark.parametrize("weight", [1.0, 2, 0.25])
def test_complete_graph_bulk_build_equals_add_edge_loop(n, weight):
    bulk, loop = complete_graph(n, weight), _complete_by_add_edge(n, weight)
    assert bulk.num_edges == loop.num_edges == n * (n - 1) // 2
    assert list(bulk.edges()) == list(loop.edges())
    for u in range(n):
        assert list(bulk.neighbor_weights(u)) == list(loop.neighbor_weights(u))
    # The bulk-built graph stays an ordinary, mutable Graph.
    if n > 1:
        bulk.add_edge(0, 1, 5.0)
        assert bulk.weight(1, 0) == 5.0 and bulk.num_edges == loop.num_edges


def test_complete_graph_rejects_bad_size_and_weight():
    for n in (0, -3):
        with pytest.raises(GraphError):
            complete_graph(n)
    for w in (0.0, -1.0):
        with pytest.raises(GraphError):
            complete_graph(4, w)
        with pytest.raises(GraphError):
            _complete_by_add_edge(4, w)
    # One node has no edge, so add_edge never saw the weight either.
    assert complete_graph(1, 0.0).num_edges == _complete_by_add_edge(1, 0.0).num_edges
