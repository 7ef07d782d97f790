"""Tests for the local trees and the workload-balancing problem state.

The per-device trees are the oracle's (``helpers.oracles.build_tree`` /
``build_star``); production lays them out columnar (``TreeBatch.build``,
``local_graph_sizes``), and the generated cases below pin the two together.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Assignment, TreeConstructionResult, workload_cdf
from repro.core.tree import local_graph_sizes
from repro.federation import FederatedEnvironment
from repro.graph import Graph, generate_facebook_like

from helpers.oracles import (
    LocalGraph,
    LocalNode,
    NodeRole,
    SelectionOracle,
    assignment_from_lists,
    build_star,
    build_tree,
    canonical_local_graphs,
    count_leaves,
    expected_tree_size,
    full_assignment,
)
from helpers.tree_cases import csr_from_lists


def selections(max_devices: int):
    """``device -> selected neighbours`` over ``0..n-1``, empty selections included."""
    return st.integers(1, max_devices).flatmap(
        lambda n: st.lists(
            st.sets(st.integers(0, n - 1), max_size=min(n, 6)), min_size=n, max_size=n
        ).map(lambda rows: {d: row - {d} for d, row in enumerate(rows)})
    )


def _check_sizes(selected, virtual_nodes):
    # ``local_graph_sizes`` and ``total_tree_nodes`` are what production
    # keeps of the per-device graphs: they must count those graphs' nodes.
    # The selection keeps all of a CSR whose rows are the selected sets.
    indptr, indices = csr_from_lists(selected[d] for d in range(len(selected)))
    construction = TreeConstructionResult(
        assignment=Assignment(indptr, indices, np.ones(indices.shape[0], dtype=bool)),
        num_devices=len(selected),
        used_virtual_nodes=virtual_nodes,
    )
    graphs = canonical_local_graphs(construction)
    workloads = np.array([len(selected[d]) for d in range(len(selected))], dtype=np.int64)
    sizes = local_graph_sizes(workloads, virtual_nodes)
    assert sizes.tolist() == [graphs[d].num_nodes for d in range(len(selected))]
    assert construction.total_tree_nodes() == sum(graph.num_nodes for graph in graphs.values())
    for device, graph in graphs.items():
        assert graph.is_tree() and graph.owner == device
        assert graph.neighbor_vertices() == sorted(selected[device])
        workload = len(selected[device])
        assert count_leaves(graph) == ((2 * workload or 1) if virtual_nodes else workload)


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

    @settings(max_examples=40, deadline=1000)
    @given(selections(max_devices=8), st.booleans())
    def test_local_graph_sizes_match_the_per_device_graphs(self, selected, virtual_nodes):
        _check_sizes(selected, virtual_nodes)

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None)
    @given(selections(max_devices=40), st.booleans())
    def test_local_graph_sizes_match_the_per_device_graphs_wide(self, selected, virtual_nodes):
        _check_sizes(selected, virtual_nodes)


def _environment(graph):
    return FederatedEnvironment.from_graph(graph, seed=0)


class TestAssignment:
    def test_full_assignment_covers_everything(self, small_graph):
        environment = _environment(small_graph)
        assignment = full_assignment(environment)
        assert assignment.covers_all_edges(small_graph)
        assert assignment.objective() == int(small_graph.degrees().max())
        assert assignment.total_selected_edges() == 2 * small_graph.num_edges
        # The mask refers to the environment's CSR; it never copies it.
        assert assignment.indptr is environment.indptr
        assert assignment.indices is environment.indices

    def test_a_mask_is_one_bool_per_csr_position(self, star_graph):
        environment = _environment(star_graph)
        with pytest.raises(TypeError, match="boolean mask, not int64"):
            Assignment(environment.indptr, environment.indices, np.ones(12, dtype=np.int64))
        with pytest.raises(ValueError, match="one entry per CSR position"):
            Assignment(environment.indptr, environment.indices, np.ones(11, dtype=bool))

    def test_workloads_follow_transfers_in_place(self, star_graph):
        assignment = full_assignment(_environment(star_graph))
        workloads = assignment.workload_array()
        assert workloads[0] == 6 and workloads[1] == 1
        with pytest.raises(ValueError, match="read-only"):
            workloads[0] = 0
        clone = assignment.copy()
        record = assignment.apply_transfer(0, [1, 2])
        # Both leaves already kept the hub: nothing is added on their side.
        assert [added for _, added in record] == [False, False]
        assert workloads[0] == 4 and assignment.kept_neighbors(0).tolist() == [3, 4, 5, 6]
        assert assignment.covers_all_edges(star_graph)
        assert clone.workload_array()[0] == 6 and clone.as_lists()[0] == [1, 2, 3, 4, 5, 6]
        assignment.undo_transfer(0, record)
        assert assignment.as_lists() == clone.as_lists() and workloads[0] == 6

    def test_transfer_rejects_an_unselected_vertex(self, star_graph):
        environment = _environment(star_graph)
        lists = {0: [1], **{leaf: [0] for leaf in range(1, 7)}}
        assignment = assignment_from_lists(environment, lists)
        for source, target in ((0, 5), (1, 2), (1, 1), (6, 9)):
            with pytest.raises(ValueError, match=f"vertex {target} is not selected by device {source}"):
                assignment.apply_transfer(source, [target])
        assert assignment.as_lists() == lists

    def test_a_transfer_needs_a_symmetric_csr(self):
        # Device 0 lists 1, but 1 lists nobody: (1, 0) has no position.
        indptr, indices = csr_from_lists([[1], []])
        assignment = Assignment(indptr, indices, np.ones(1, dtype=bool))
        with pytest.raises(ValueError, match="symmetric"):
            assignment.apply_transfer(0, [1])

    def test_coverage_looks_up_the_given_graphs_edges(self, star_graph):
        environment = _environment(star_graph)
        nothing = Assignment(environment.indptr, environment.indices, np.zeros(12, dtype=bool))
        assert not nothing.covers_all_edges(star_graph)
        assignment = full_assignment(environment)
        features = np.zeros((7, 1))
        # Edges the CSR does not hold are uncovered, however full the mask.
        assert not assignment.covers_all_edges(Graph(7, np.array([[1, 2]]), features))
        assert not assignment.covers_all_edges(Graph(8, np.array([[0, 7]]), np.zeros((8, 1))))
        assert assignment.covers_all_edges(Graph(7, np.array([[0, 3]]), features))
        assert assignment.covers_all_edges(Graph(9, np.zeros((0, 2)), np.zeros((9, 1))))

    def test_cdf(self):
        values, probabilities = workload_cdf(np.array([3, 1, 0, 0]))
        assert probabilities[-1] == pytest.approx(1.0)
        assert values[-1] == 3
        empty_values, empty_probabilities = workload_cdf(np.array([]))
        assert empty_values.size == 0 and empty_probabilities.size == 0

    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_full_assignment_objective_equals_max_degree(self, seed):
        graph = generate_facebook_like(seed=seed % 5, num_nodes=120)
        assignment = full_assignment(_environment(graph))
        assert assignment.objective() == int(graph.degrees().max())


@st.composite
def transfer_walks(draw, max_devices: int):
    """``(graph, initial mask, steps)``: a generated graph (0 and 1 devices
    and isolated vertices included), a mask over its CSR and k-step transfers,
    each ``(seed, undo)``."""
    n = draw(st.integers(0, max_devices))
    pairs = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))).filter(
        lambda pair: pair[0] != pair[1]
    )
    edges = draw(st.lists(pairs, max_size=3 * n if n > 1 else 0))
    graph = Graph(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), np.zeros((n, 1)))
    size = 2 * graph.num_edges
    kept = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    steps = draw(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.booleans()), max_size=12))
    return graph, kept, steps


def _assert_matches(assignment: Assignment, oracle: SelectionOracle, graph: Graph) -> None:
    assert assignment.as_lists() == oracle.as_lists()
    for production, expected in zip(assignment.pairs(), oracle.pairs()):
        np.testing.assert_array_equal(production, expected)
        assert production.dtype == np.int64
    np.testing.assert_array_equal(assignment.workload_array(), oracle.workload_array())
    assert assignment.objective() == oracle.objective()
    assert assignment.total_selected_edges() == oracle.total_selected_edges()
    assert assignment.covers_all_edges(graph) is oracle.covers_all_edges(graph)


def _check_walk(case):
    graph, kept, steps = case
    environment = _environment(graph)
    assignment = Assignment(*environment.adjacency_csr(), np.array(kept, dtype=bool))
    oracle = SelectionOracle.of(assignment)
    _assert_matches(assignment, oracle, graph)
    for seed, undo in steps:
        rng = np.random.default_rng(seed)
        holders = [device for device, chosen in oracle.selected.items() if chosen]
        if not holders:
            break
        source = int(rng.choice(holders))
        chosen = sorted(oracle.selected[source])
        targets = rng.choice(chosen, int(rng.integers(1, len(chosen) + 1)), replace=False)
        record = assignment.apply_transfer(source, targets.tolist())
        expected = oracle.apply_transfer(source, targets.tolist())
        assert [added for _, added in record] == [added for _, added in expected]
        _assert_matches(assignment, oracle, graph)
        if undo:
            assignment.undo_transfer(source, record)
            oracle.undo_transfer(source, expected)
            _assert_matches(assignment, oracle, graph)


WALK_EXAMPLES = [
    # no device, one device, isolated vertices around a path, a star
    (Graph(0, np.zeros((0, 2)), np.zeros((0, 1))), [], [(0, False)]),
    (Graph(1, np.zeros((0, 2)), np.zeros((1, 1))), [], [(0, True)]),
    (Graph(6, np.array([[1, 2], [2, 4]]), np.zeros((6, 1))), [True, True, False, True],
     [(1, False), (2, True), (3, False)]),
    (Graph(5, np.array([[0, v] for v in range(1, 5)]), np.zeros((5, 1))), [True] * 8,
     [(seed, seed % 2 == 0) for seed in range(8)]),
]


def _with_walk_examples(test):
    for case in WALK_EXAMPLES:
        test = example(case)(test)
    return test


class TestMaskAgainstDictOfSets:
    """The mask ``Assignment`` against the dict of sets it replaced, along
    random k-step transfer / undo walks."""

    @settings(max_examples=40, deadline=1000)
    @given(transfer_walks(max_devices=8))
    @_with_walk_examples
    def test_transfer_walks_match_the_oracle(self, case):
        _check_walk(case)

    @pytest.mark.slow
    @settings(max_examples=400, deadline=None)
    @given(transfer_walks(max_devices=40))
    @_with_walk_examples
    def test_transfer_walks_match_the_oracle_wide(self, case):
        _check_walk(case)
