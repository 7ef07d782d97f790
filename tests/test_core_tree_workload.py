"""Tests for tree construction and the workload-balancing problem state."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Assignment,
    LocalGraph,
    LocalNode,
    NodeRole,
    build_star,
    build_tree,
    expected_tree_size,
    workload_cdf,
)
from repro.core.tree import count_leaves
from repro.graph import generate_facebook_like, generate_star


class TestTreeConstruction:
    def test_tree_matches_paper_example(self):
        """Fig. 2: vertex 1 with neighbours {2,3,4,5} -> root, 4 parents, 8 leaves."""
        tree = build_tree(1, [2, 3, 4, 5])
        assert tree.num_nodes == 13
        assert tree.num_edges == 12
        roles = [node.role for node in tree.nodes]
        assert roles.count(NodeRole.ROOT) == 1
        assert roles.count(NodeRole.PARENT) == 4
        assert roles.count(NodeRole.CENTER_LEAF) == 4
        assert roles.count(NodeRole.NEIGHBOR_LEAF) == 4

    def test_tree_is_a_tree(self):
        tree = build_tree(0, [1, 2, 3])
        assert tree.is_tree()
        assert tree.depth() == 2

    def test_center_is_replicated_per_pair(self):
        tree = build_tree(7, [1, 2, 3])
        center_nodes = tree.nodes_for_vertex(7)
        assert len(center_nodes) == 3
        assert all(node.role is NodeRole.CENTER_LEAF for node in center_nodes)

    def test_each_neighbor_appears_once(self):
        tree = build_tree(0, [5, 9])
        assert tree.neighbor_vertices() == [5, 9]
        assert len(tree.nodes_for_vertex(5)) == 1

    def test_leaf_count_is_twice_workload(self):
        for workload in (1, 3, 7):
            tree = build_tree(0, list(range(1, workload + 1)))
            assert count_leaves(tree) == 2 * workload
            assert tree.num_nodes == expected_tree_size(workload)

    def test_empty_selection_keeps_own_leaf(self):
        tree = build_tree(4, [])
        assert tree.num_nodes == 1
        assert tree.nodes[0].vertex == 4
        assert tree.is_tree()

    def test_parent_connects_exactly_one_pair(self):
        tree = build_tree(0, [1, 2])
        adjacency = {}
        for u, v in tree.edges:
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)
        for node in tree.nodes:
            if node.role is NodeRole.PARENT:
                children = adjacency[node.local_id]
                leaf_children = [c for c in children if tree.nodes[c].vertex is not None]
                assert len(leaf_children) == 2

    def test_star_variant(self):
        star = build_star(0, [1, 2, 3])
        assert star.num_nodes == 4
        assert star.num_edges == 3
        assert star.is_tree()
        assert star.depth() == 1
        assert star.nodes[0].role is NodeRole.CENTER
        assert count_leaves(star) == 3

    def test_local_graph_validation(self):
        with pytest.raises(ValueError):
            LocalGraph(owner=0, nodes=[LocalNode(1, NodeRole.ROOT, None)], edges=[])
        with pytest.raises(ValueError):
            LocalGraph(owner=0, nodes=[LocalNode(0, NodeRole.ROOT, None)], edges=[(0, 5)])
        with pytest.raises(ValueError):
            LocalGraph(owner=0, nodes=[LocalNode(0, NodeRole.ROOT, None)], edges=[(0, 0)])

    def test_expected_tree_size_validation(self):
        assert expected_tree_size(0) == 1
        with pytest.raises(ValueError):
            expected_tree_size(-1)

    @given(st.integers(0, 30))
    @settings(max_examples=25, deadline=None)
    def test_tree_size_property(self, workload):
        tree = build_tree(0, list(range(1, workload + 1)))
        assert tree.num_nodes == expected_tree_size(workload)
        assert tree.is_tree()


class TestAssignment:
    def test_full_assignment_covers_everything(self, small_graph):
        assignment = Assignment.full(small_graph)
        assert assignment.covers_all_edges(small_graph)
        assert assignment.is_consistent_with(small_graph)
        assert assignment.objective() == int(small_graph.degrees().max())
        assert assignment.total_selected_edges() == 2 * small_graph.num_edges

    def test_workload_queries(self, star_graph):
        assignment = Assignment.full(star_graph)
        assert assignment.workload(0) == 6
        assert assignment.workload(1) == 1
        array = assignment.workload_array()
        assert array[0] == 6
        assert assignment.argmax_workload() == 0

    def test_transfer_moves_edge_ownership(self, star_graph):
        assignment = Assignment.full(star_graph)
        moved = assignment.transfer(0, [1, 2])
        assert moved.workload(0) == 4
        assert 0 in moved.selected[1] and 0 in moved.selected[2]
        assert moved.covers_all_edges(star_graph)
        # The original assignment is untouched (copy semantics).
        assert assignment.workload(0) == 6

    def test_transfer_rejects_unselected_vertex(self, star_graph):
        assignment = Assignment.from_lists({0: [1], 1: [0], 2: [0], 3: [0], 4: [0], 5: [0], 6: [0]})
        with pytest.raises(ValueError):
            assignment.transfer(0, [5])

    def test_uncovered_edges_detection(self, star_graph):
        assignment = Assignment.from_lists({v: [] for v in range(star_graph.num_nodes)})
        uncovered = assignment.uncovered_edges(star_graph)
        assert len(uncovered) == star_graph.num_edges
        assert not assignment.covers_all_edges(star_graph)

    def test_consistency_check(self, star_graph):
        bad = Assignment.from_lists({0: [1], 1: [3]})  # 3 is not a neighbour of 1 in a star
        assert not bad.is_consistent_with(star_graph)

    def test_statistics_and_cdf(self):
        assignment = Assignment.from_lists({0: [1, 2, 3], 1: [0], 2: [], 3: []})
        stats = assignment.statistics()
        assert stats["max"] == 3
        values, probabilities = workload_cdf(assignment.workload_array())
        assert probabilities[-1] == pytest.approx(1.0)
        assert values[-1] == 3
        empty_values, empty_probabilities = workload_cdf(np.array([]))
        assert empty_values.size == 0 and empty_probabilities.size == 0

    def test_as_lists_sorted(self):
        assignment = Assignment.from_lists({0: [5, 2], 2: [0], 5: [0]})
        assert assignment.as_lists()[0] == [2, 5]

    @given(st.dictionaries(st.integers(0, 40), st.sets(st.integers(0, 40), max_size=6), max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_pairs_are_the_selection_by_vertex_then_neighbour(self, selected):
        vertices, neighbors = Assignment(selected=selected).pairs()
        expected = sorted((vertex, neighbor) for vertex, chosen in selected.items() for neighbor in chosen)
        assert list(zip(vertices.tolist(), neighbors.tolist())) == expected
        assert vertices.dtype == neighbors.dtype == np.int64

    def test_argmax_empty_raises(self):
        with pytest.raises(ValueError):
            Assignment(selected={}).argmax_workload()

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_full_assignment_objective_equals_max_degree(self, seed):
        graph = generate_facebook_like(seed=seed % 5, num_nodes=120)
        assignment = Assignment.full(graph)
        assert assignment.objective() == int(graph.degrees().max())
