"""Tests for the synthetic graph generators and the dataset registry."""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    FACEBOOK_SPEC,
    LASTFM_SPEC,
    available_datasets,
    generate_facebook_like,
    generate_lastfm_like,
    generate_small_world,
    generate_social_graph,
    generate_star,
    load_dataset,
)
from repro.graph.datasets import load_musae_style
from repro.graph.generators import power_law_degree_sequence


class TestDegreeSequence:
    def test_mean_close_to_target(self):
        rng = np.random.default_rng(0)
        degrees = power_law_degree_sequence(2000, average_degree=12.0, exponent=2.3, rng=rng)
        assert abs(degrees.mean() - 12.0) < 3.0

    def test_sum_is_even(self):
        rng = np.random.default_rng(1)
        degrees = power_law_degree_sequence(501, average_degree=7.0, exponent=2.1, rng=rng)
        assert degrees.sum() % 2 == 0

    def test_minimum_degree_enforced(self):
        rng = np.random.default_rng(2)
        degrees = power_law_degree_sequence(300, average_degree=5.0, exponent=2.5, rng=rng)
        assert degrees.min() >= 1

    def test_heavy_tail_exists(self):
        rng = np.random.default_rng(3)
        degrees = power_law_degree_sequence(3000, average_degree=10.0, exponent=2.1, rng=rng)
        assert degrees.max() > 4 * degrees.mean()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            power_law_degree_sequence(0, 5.0, 2.3, np.random.default_rng(0))


class TestSocialGenerators:
    def test_facebook_like_shape(self):
        graph = generate_facebook_like(seed=0, num_nodes=300)
        assert graph.num_nodes == 300
        assert graph.num_features == FACEBOOK_SPEC.num_features
        assert graph.num_classes == FACEBOOK_SPEC.num_classes
        assert graph.num_edges > 300

    def test_lastfm_like_shape(self):
        graph = generate_lastfm_like(seed=0, num_nodes=300)
        assert graph.num_classes == LASTFM_SPEC.num_classes
        assert graph.name == "synthetic-lastfm"

    def test_no_isolated_vertices(self):
        graph = generate_facebook_like(seed=1, num_nodes=250)
        assert graph.degrees().min() >= 1

    def test_degree_distribution_is_skewed(self):
        graph = generate_facebook_like(seed=2, num_nodes=500)
        degrees = graph.degrees()
        assert degrees.max() > 3 * degrees.mean()

    def test_label_homophily_above_random(self):
        graph = generate_facebook_like(seed=3, num_nodes=400)
        labels = graph.labels
        same = np.mean([labels[u] == labels[v] for u, v in graph.edges])
        # Random assignment over 4 classes gives ~0.25 agreement.
        assert same > 0.5

    def test_features_correlate_with_labels(self):
        graph = generate_facebook_like(seed=4, num_nodes=400)
        centroids = np.stack(
            [graph.features[graph.labels == c].mean(axis=0) for c in range(graph.num_classes)]
        )
        # Assigning each node to the closest class centroid should beat chance.
        assignments = np.argmin(
            np.linalg.norm(graph.features[:, None, :] - centroids[None], axis=2), axis=1
        )
        assert (assignments == graph.labels).mean() > 0.5

    def test_deterministic_given_seed(self):
        a = generate_facebook_like(seed=9, num_nodes=150)
        b = generate_facebook_like(seed=9, num_nodes=150)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_allclose(a.features, b.features)

    def test_different_seeds_differ(self):
        a = generate_facebook_like(seed=1, num_nodes=150)
        b = generate_facebook_like(seed=2, num_nodes=150)
        assert a.num_edges != b.num_edges or not np.array_equal(a.edges, b.edges)

    def test_generate_social_graph_validation(self):
        with pytest.raises(ValueError):
            generate_social_graph(LASTFM_SPEC, num_nodes=5)

    def test_small_world_and_star(self):
        small = generate_small_world(num_nodes=30, seed=0)
        assert small.num_nodes == 30
        assert small.degrees().min() >= 1
        star = generate_star(num_leaves=5)
        assert star.num_nodes == 6
        assert star.degrees()[0] == 5
        assert star.degrees()[1:].tolist() == [1] * 5

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_generator_always_produces_valid_graph(self, seed):
        graph = generate_lastfm_like(seed=seed, num_nodes=120)
        assert graph.num_nodes == 120
        assert graph.edges[:, 0].max() < 120
        assert graph.degrees().min() >= 1


#: SHA-256 over ``edges``, ``features`` and ``labels`` (dtype, shape, bytes)
#: of each synthetic stand-in, keyed by ``(dataset, num_nodes, seed)``;
#: ``None`` is the full default size.  Every figure, test and cache key reads
#: these graphs, so the generators' output is pinned bit for bit.
GOLDEN_GRAPH_DIGESTS = {
    ("facebook", 40, 0): "98bf7913548caf3bffa7c665b68a1f913c52ef4ced0c933df3a2d9d1b6225dba",
    ("facebook", 40, 1): "4b108cc9b471889a1cd803c224bbba1c4088c0be4b4f9f4a43a12295079817c6",
    ("facebook", 400, 0): "6a2b99350bc2109023301d4d34bd80281435ccae635d093fa5ee4ecdaf97bb05",
    ("facebook", 400, 1): "a7027dfaa03267ad019e582818e732f7aed8af2b38dc1805d853dfcdb846fdf8",
    ("facebook", None, 0): "84c026713348629c5299b848071a5499e69a87175f1dfad7f8550f5777d4f6c9",
    ("facebook", None, 1): "cd2949b67e81cacef2bed20d5ef27d4c8aa4e20b1fc02c0fefd0fb35274575e7",
    ("lastfm", 40, 0): "b9643b2d8a88bb817f0fe6b15ca161bd87aee2b56e2cdb364e077c99079d68ac",
    ("lastfm", 40, 1): "449c87ed727fba7713695673f6ea57e9715fc6ac794a65e161e79619a0dd97cb",
    ("lastfm", 400, 0): "59e16849cdf61ba8b5bd8aba9d1524e35a61735d241144498802487a555a33f7",
    ("lastfm", 400, 1): "3deb6c41e7318b996436ecc88f99b90ef75da70e8ef8ebe3a1cc90b385aa1608",
    ("lastfm", None, 0): "def4a4eaf22803c2b9b2ab6d2babaa5626eb8c0821f8bbad04cc64aa17f66f86",
    ("lastfm", None, 1): "4bc3a456be49cf743bbdc0af75b5504a78411587be3502322ef2458f5825d2e0",
}


@pytest.mark.parametrize(
    "dataset, num_nodes, seed", list(GOLDEN_GRAPH_DIGESTS), ids=lambda value: str(value)
)
def test_generators_match_their_golden_digest(dataset, num_nodes, seed):
    generate = {"facebook": generate_facebook_like, "lastfm": generate_lastfm_like}[dataset]
    graph = generate(seed=seed, num_nodes=num_nodes)
    digest = hashlib.sha256()
    for array in (graph.edges, graph.features, graph.labels):
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype}{array.shape}".encode())
        digest.update(array.tobytes())
    assert digest.hexdigest() == GOLDEN_GRAPH_DIGESTS[dataset, num_nodes, seed]


class TestDatasetRegistry:
    def test_load_by_canonical_names(self):
        for name in ("facebook", "lastfm", "small-world", "star"):
            graph = load_dataset(name, seed=0, num_nodes=60 if name != "star" else 7)
            assert graph.num_nodes > 0

    def test_load_by_synonyms(self):
        graph = load_dataset("synthetic_facebook", seed=0, num_nodes=80)
        assert graph.name == "synthetic-facebook"

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            load_dataset("cora")

    @pytest.mark.parametrize("name", ["facebook", "lastfm", "small-world", "star"])
    def test_num_nodes_is_checked_never_resized(self, name):
        # A size of 0 once fell back to the default size (small-world, star)
        # or failed deep inside the generator with an unrelated message.
        for size in (0, -5):
            with pytest.raises(ValueError, match="num_nodes"):
                load_dataset(name, num_nodes=size)
        for size in (2.5, True, "60"):
            with pytest.raises(TypeError, match="num_nodes"):
                load_dataset(name, num_nodes=size)
        assert load_dataset(name, num_nodes=np.int64(60)).num_nodes == 60

    def test_available_datasets_lists_all(self):
        datasets = available_datasets()
        assert {"facebook", "lastfm", "small-world", "star"} <= set(datasets)

    def test_musae_loader_reads_raw_files(self, tmp_path):
        directory = tmp_path / "facebook"
        directory.mkdir()
        (directory / "edges.csv").write_text("id_1,id_2\n0,1\n1,2\n")
        (directory / "features.json").write_text(json.dumps({"0": [0, 2], "1": [1], "2": []}))
        (directory / "target.csv").write_text("id,page_type\n0,politician\n1,company\n2,politician\n")
        graph = load_musae_style(str(directory), "facebook")
        assert graph.num_nodes == 3
        assert graph.num_edges == 2
        assert graph.num_features == 3
        assert graph.labels[0] == graph.labels[2] != graph.labels[1]

    def test_musae_loader_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_musae_style(str(tmp_path), "facebook")

    def test_real_files_take_priority(self, tmp_path, monkeypatch):
        directory = tmp_path / "lastfm"
        directory.mkdir()
        (directory / "edges.csv").write_text("id_1,id_2\n0,1\n")
        (directory / "features.json").write_text(json.dumps({"0": [0], "1": [1]}))
        (directory / "target.csv").write_text("id,target\n0,0\n1,1\n")
        monkeypatch.setenv("REPRO_DATA_ROOT", str(tmp_path))
        graph = load_dataset("lastfm")
        assert graph.num_nodes == 2
        assert graph.name == "lastfm"
